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
// canonical walk would not emit, end in a trace_error under every backend.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "detect/registry.hpp"
#include "graph/fuzz.hpp"
#include "hostile_traces.hpp"
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

}  // namespace
}  // namespace frd
