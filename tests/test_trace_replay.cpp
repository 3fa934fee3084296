// Differential record/replay tests (the acceptance bar of the trace API):
// a fuzz-generated program is executed and recorded ONCE; the stored trace
// is then replayed through every futures-capable backend and the race
// report (racy granule set + race count) must be identical to running the
// same program live under that backend. The trace travels through the
// binary codec on every replay, so the wire format is in the loop, not just
// the in-memory event objects.
//
// The memory cells are file-static so the granule addresses recorded in the
// trace are the granule addresses the live runs touch.
//
// The other half: hostile traces (hostile_traces.hpp), whose dag events the
// canonical walk would not emit, end in a trace_error under every backend,
// and seeded mutations of the checked-in corpus end in success or a typed
// error.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "container/writer.hpp"
#include "corpus/manifest.hpp"
#include "detect/registry.hpp"
#include "graph/fuzz.hpp"
#include "hostile_traces.hpp"
#include "shadow/store.hpp"
#include "support/prng.hpp"
#include "trace/codec.hpp"
#include "trace/event.hpp"

namespace frd {
namespace {

constexpr std::uint32_t kMaxCells = 16;
std::array<int, kMaxCells> g_cells;

// Runs the fuzz program of `cfg` under a fresh session, routing accesses
// through the session's hooks (so record mode captures them).
void run_fuzz(session& s, const graph::fuzz_config& cfg) {
  graph::fuzzer fz(s.runtime(), cfg,
                   [&s](std::uint32_t cell, bool write) {
                     if (write) {
                       s.write(&g_cells[cell], 4);
                     } else {
                       s.read(&g_cells[cell], 4);
                     }
                   });
  s.run([&](rt::serial_runtime&) { fz.run(); });
}

graph::fuzz_config make_cfg(std::uint64_t seed, bool structured) {
  graph::fuzz_config cfg;
  cfg.seed = seed;
  cfg.structured = structured;
  cfg.max_depth = 6;
  cfg.max_actions_per_body = 12;
  cfg.n_cells = kMaxCells;
  cfg.max_futures = 64;
  if (!structured) cfg.max_touches_per_future = 3;
  return cfg;
}

std::vector<std::string> backends_supporting(detect::future_support needed) {
  std::vector<std::string> out;
  const auto& reg = detect::backend_registry::instance();
  for (const std::string& name : reg.names()) {
    const detect::future_support have = reg.at(name).futures;
    if (have == detect::future_support::none) continue;
    if (needed == detect::future_support::general &&
        have == detect::future_support::structured) {
      continue;
    }
    out.push_back(name);
  }
  return out;
}

// Records `cfg` once (under multibags+, which accepts both program classes)
// and serializes the trace to binary bytes.
std::string record_bytes(const graph::fuzz_config& cfg) {
  std::ostringstream bytes;
  trace::trace_writer writer(
      bytes, trace::trace_header{trace::kTraceVersion, /*granule=*/4});
  session rec(session::options{.backend = "multibags+", .granule = 4});
  rec.record_to(writer);
  run_fuzz(rec, cfg);
  writer.finish();
  EXPECT_GT(writer.events_written(), 0u);
  return bytes.str();
}

void check_replay_matches_live(const graph::fuzz_config& cfg,
                               detect::future_support needed) {
  const std::string bytes = record_bytes(cfg);
  const auto backends = backends_supporting(needed);
  ASSERT_FALSE(backends.empty());
  for (const std::string& backend : backends) {
    // Live run of the very same program under this backend.
    session live(session::options{.backend = backend, .granule = 4});
    run_fuzz(live, cfg);

    // Replay of the recorded trace, through the binary codec.
    std::istringstream in(bytes);
    trace::trace_reader reader(in);
    session replayed(session::options{.backend = backend, .granule = 4});
    const std::uint64_t events = replayed.replay(reader);

    EXPECT_GT(events, 0u) << backend;
    EXPECT_EQ(replayed.report().racy_granules(), live.report().racy_granules())
        << "replay diverged from live under backend '" << backend
        << "' (seed " << cfg.seed << ")";
    EXPECT_EQ(replayed.report().total(), live.report().total())
        << "race counts diverged under backend '" << backend << "' (seed "
        << cfg.seed << ")";
    EXPECT_EQ(replayed.get_count(), live.get_count()) << backend;
  }
}

class StructuredReplay : public ::testing::TestWithParam<std::uint64_t> {};
class GeneralReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StructuredReplay, EveryFuturesCapableBackendMatchesItsLiveRun) {
  check_replay_matches_live(make_cfg(GetParam(), /*structured=*/true),
                            detect::future_support::structured);
}

TEST_P(GeneralReplay, EveryGeneralBackendMatchesItsLiveRun) {
  check_replay_matches_live(make_cfg(GetParam(), /*structured=*/false),
                            detect::future_support::general);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuredReplay,
                         ::testing::Range<std::uint64_t>(1, 9));
INSTANTIATE_TEST_SUITE_P(Seeds, GeneralReplay,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------------ hostile traces --

// Every hostile case ends in a trace_error under every backend: no other
// exception, no signal, no FRD_CHECK abort. The one exception to the type
// is a fork-join backend given a future: it refuses the create, as it
// refuses the create of any futures trace, before the hostile event is read.
TEST(HostileTrace, EveryCaseIsATraceErrorUnderEveryBackend) {
  const auto& reg = detect::backend_registry::instance();
  ASSERT_EQ(reg.names().size(), 5u);
  for (const trace::testing::hostile_case& c :
       trace::testing::hostile_cases()) {
    const std::string bytes = trace::testing::hostile_bytes(c);
    for (const std::string& backend : reg.names()) {
      SCOPED_TRACE(std::string(c.name) + " under " + backend);
      const bool refuses_create =
          c.creates_future &&
          reg.at(backend).futures == detect::future_support::none;
      std::istringstream in(bytes);
      trace::trace_reader reader(in);
      session s(session::options{.backend = backend, .granule = 4});
      try {
        s.replay(reader);
        ADD_FAILURE() << "replay accepted a trace the walk did not emit";
      } catch (const detect::capability_error& e) {
        EXPECT_TRUE(refuses_create) << e.what();
      } catch (const trace::trace_error& e) {
        EXPECT_FALSE(refuses_create) << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "not a trace_error: " << e.what();
      }
    }
  }
}

// The error names the event index, what the trace holds and what the walk
// emits.
TEST(HostileTrace, TheErrorNamesTheEventAndWhatTheWalkEmits) {
  const auto& cases = trace::testing::hostile_cases();
  const auto message = [](const trace::testing::hostile_case& c) {
    std::istringstream in(trace::testing::hostile_bytes(c));
    trace::trace_reader reader(in);
    session s("multibags+");
    try {
      s.replay(reader);
    } catch (const trace::trace_error& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  EXPECT_EQ(message(cases[0]),
            "trace event 1 is not the canonical walk's: the trace holds "
            "strand_begin{s 4000000000, owner 0}, the walk emits "
            "strand_begin{s 0, owner 0}");
  EXPECT_EQ(message(cases[1]),
            "trace event 2 is not the canonical walk's: the trace holds "
            "get{fn 0, u 0, v 1, fut 7, w 5, creator 0}, the walk has no "
            "returned future 7 to get");
}

// tests/hostile-strand-ids.frdt, which the CLI test and CI's serve smoke
// step submit, is the first case byte for byte; the second is 25 bytes.
TEST(HostileTrace, TheCheckedInStreamIsTheFirstCase) {
  const auto& cases = trace::testing::hostile_cases();
  std::ifstream f(FRD_TESTS_DIR "/hostile-strand-ids.frdt", std::ios::binary);
  ASSERT_TRUE(f) << "cannot open " FRD_TESTS_DIR "/hostile-strand-ids.frdt";
  const std::string checked_in((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
  EXPECT_EQ(checked_in, trace::testing::hostile_bytes(cases[0]));
  EXPECT_EQ(checked_in.size(), 46u);
  EXPECT_EQ(trace::testing::hostile_bytes(cases[1]).size(), 25u);
}

// ----------------------------------------------------- seeded mutations --

std::string corpus_dir() {
  if (const char* env = std::getenv("FRD_CORPUS_DIR")) return env;
  return FRD_CORPUS_DIR;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The .frdtz form of a flat FRDT byte string, as `frd-trace pack` writes it.
std::string packed(const std::string& flat) {
  std::istringstream in(flat, std::ios::binary);
  trace::trace_reader reader(in);
  std::ostringstream out(std::ios::binary);
  container::container_writer w(out, reader.header());
  trace::trace_event e;
  while (reader.next(e)) w.put(e);
  w.finish();
  return out.str();
}

// One mutation of a non-empty byte string: bit flips, a truncation, an
// inserted run of bytes with the 0x80 bit set (a varint that runs long or
// never ends), or a deleted span.
std::string mutated(std::string s, prng& rng) {
  switch (rng.below(4)) {
    case 0:
      for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
        s[rng.below(s.size())] ^= static_cast<char>(1u << rng.below(8));
      }
      break;
    case 1:
      s.resize(rng.below(s.size()));
      break;
    case 2: {
      std::string run(1 + rng.below(12), '\0');
      for (char& c : run) c = static_cast<char>(0x80 | rng.below(0x80));
      s.insert(rng.below(s.size() + 1), run);
      break;
    }
    default:
      s.erase(rng.below(s.size()), 1 + rng.below(16));
      break;
  }
  return s;
}

// The trace readers against corrupted bytes. Every small checked-in .frdt
// entry, bare and packed into a .frdtz, is mutated by a fixed-seed prng, and
// each mutant is opened with open_source and replayed under three backends.
// It must end in success or in a trace_error, backend_error or store_error
// (no crash, no hang, no other exception), and the detector's peak
// footprint must stay under kPeakBound. A mutant that breaks this becomes a
// declarative case in hostile_traces.hpp; mutant i is reproduced by the
// same seed and loop.
TEST(HostileTrace, SeededMutationsEndInSuccessOrATypedError) {
  constexpr std::uint64_t kSeed = 29;
  constexpr int kMutations = 2000;
  constexpr std::size_t kMaxInputBytes = 32 * 1024;
  // A few shadow pages (2 MiB each): corrupted addresses may spread the
  // accesses over more pages than the entry touches, but not without bound.
  constexpr std::size_t kPeakBound = std::size_t{32} << 20;

  struct input {
    std::string name;
    std::uint32_t granule;
    std::string bytes;
  };
  std::vector<input> inputs;
  const corpus::manifest m =
      corpus::load_manifest(corpus_dir() + "/MANIFEST");
  for (const corpus::corpus_entry& e : m.entries) {
    if (!e.trace_file.ends_with(".frdt")) continue;
    const std::string flat = read_file(corpus_dir() + "/" + e.trace_file);
    if (flat.size() > kMaxInputBytes) continue;
    inputs.push_back({e.name + ".frdt", e.granule, flat});
    inputs.push_back({e.name + ".frdtz", e.granule, packed(flat)});
  }
  ASSERT_GE(inputs.size(), 20u) << "too few small corpus entries";

  prng rng(kSeed);
  std::uint64_t replayed = 0, refused = 0;
  for (int i = 0; i < kMutations; ++i) {
    const input& in = inputs[rng.below(inputs.size())];
    const std::string bytes = mutated(in.bytes, rng);
    for (const char* backend : {"multibags+", "multibags", "vector-clock"}) {
      SCOPED_TRACE("mutant " + std::to_string(i) + " of " + in.name +
                   " under " + backend);
      session s(session::options{.backend = backend, .granule = in.granule});
      try {
        std::istringstream stream(bytes, std::ios::binary);
        s.replay(*trace::open_source(stream));
        ++replayed;
      } catch (const trace::trace_error&) {
        ++refused;
      } catch (const detect::backend_error&) {
        ++refused;
      } catch (const shadow::store_error&) {
        ++refused;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "not a typed error: " << e.what();
      }
      ASSERT_LE(s.memory_stats().peak_total_bytes, kPeakBound);
    }
  }
  EXPECT_GT(replayed, 0u) << "no mutant replayed: the mutations are too coarse";
  EXPECT_GT(refused, 0u) << "no mutant was refused";
}

}  // namespace
}  // namespace frd
