// Online detection on the work-stealing parallel runtime (src/online/).
//
// The contract under test is the CONFORMANCE ORACLE: an online run that
// records its arbitration order must produce a race report byte-identical
// to a serial replay of that very recording — for every corpus program,
// through every eligible backend, at scheduler widths 1, 2, and 4. The
// pump's canonical depth-first walk makes the arbitration order equal the
// serial elision's order, so "online" and "replay of what online recorded"
// see the same event stream; the oracle holds the whole pipeline (rings,
// demux, walk, batching) to that claim per run.
//
// Recording runs push every access. Runs that neither record nor sample
// let the workers drop same-window repeats (DESIGN.md §9); the filter
// cube holds those to the serial live run's race and access counts.
//
// Note what is NOT claimed: cross-worker-count identity. Programs whose
// structure depends on physical execution order (bst-general's bottom-up
// resolve order, general fuzz interleavings) legitimately produce different
// — but each individually correct — reports at different widths. Each run
// is held to its own recording.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "container/source.hpp"
#include "container/writer.hpp"
#include "corpus/manifest.hpp"
#include "corpus/programs.hpp"
#include "corpus/runner.hpp"
#include "detect/types.hpp"
#include "online/engine.hpp"
#include "online/runtime.hpp"
#include "trace/event.hpp"

namespace frd {
namespace {

// builtin_manifest() returns by value; find() hands out pointers into the
// manifest, so every lookup must go through one long-lived copy.
const corpus::manifest& builtin() {
  static const corpus::manifest m = corpus::builtin_manifest();
  return m;
}

// Everything a race report observably says, for element-wise comparison.
struct fingerprint {
  std::uint64_t races_total = 0;
  std::vector<detect::race> retained;
  std::set<std::uintptr_t> racy_granules;
  std::uint64_t accesses = 0;
  std::uint64_t gets = 0;
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;
  std::uint64_t strands = 0;
};

fingerprint fingerprint_of(const session& s) {
  fingerprint f;
  f.races_total = s.report().total();
  f.retained = s.report().retained();
  f.racy_granules = s.report().racy_granules();
  f.accesses = s.access_count();
  f.gets = s.get_count();
  f.lookups = s.query_stats().lookups;
  f.cache_hits = s.query_stats().cache_hits;
  f.batches = s.query_stats().batches;
  f.strands = s.query_stats().strands;
  return f;
}

void expect_identical(const fingerprint& online, const fingerprint& replay) {
  EXPECT_EQ(online.races_total, replay.races_total);
  EXPECT_EQ(online.racy_granules, replay.racy_granules);
  ASSERT_EQ(online.retained.size(), replay.retained.size());
  for (std::size_t i = 0; i < online.retained.size(); ++i) {
    const detect::race& a = online.retained[i];
    const detect::race& b = replay.retained[i];
    EXPECT_EQ(a.granule_addr, b.granule_addr) << "race " << i;
    EXPECT_EQ(a.prior, b.prior) << "race " << i;
    EXPECT_EQ(a.prior_kind, b.prior_kind) << "race " << i;
    EXPECT_EQ(a.current, b.current) << "race " << i;
    EXPECT_EQ(a.current_kind, b.current_kind) << "race " << i;
  }
  EXPECT_EQ(online.accesses, replay.accesses);
  EXPECT_EQ(online.gets, replay.gets);
  // Query-plane counters too: the detector asks the backend once per strand
  // and epoch, and online epochs are delimited by the same dag events the
  // trace records, so the counters agree whatever the access runs' lengths.
  EXPECT_EQ(online.lookups, replay.lookups);
  EXPECT_EQ(online.cache_hits, replay.cache_hits);
  EXPECT_EQ(online.batches, replay.batches);
  EXPECT_EQ(online.strands, replay.strands);
}

// ------------------------------------------------------ conformance cube --

struct online_case {
  std::string entry;
  std::string backend;
  unsigned workers;
};

bool is_heavy(const std::string& name) {
  // Million-event entries: one (backend, width) point keeps the suite's
  // runtime bounded while still exercising ring wraparound and the
  // quiesce path at scale.
  return name.find("-xl") != std::string::npos ||
         name.find("-large") != std::string::npos;
}

std::vector<online_case> all_cases() {
  std::vector<online_case> out;
  for (const corpus::corpus_entry& e : builtin().entries) {
    if (is_heavy(e.name)) {
      out.push_back({e.name, "multibags+", 4u});
      continue;
    }
    for (const std::string& b : corpus::eligible_backends(e.futures)) {
      for (unsigned w : {1u, 2u, 4u}) {
        out.push_back({e.name, b, w});
      }
    }
  }
  return out;
}

class OnlineConformance : public ::testing::TestWithParam<online_case> {};

TEST_P(OnlineConformance, ReportMatchesSerialReplayOfItsOwnRecording) {
  const online_case& c = GetParam();
  const corpus::corpus_entry* e = builtin().find(c.entry);
  ASSERT_NE(e, nullptr);
  const corpus::corpus_program* prog = corpus::find_program(e->program);
  ASSERT_NE(prog, nullptr);

  // Online: run the program live on the work-stealing runtime, recording
  // the arbitration order as it streams through the pump.
  trace::memory_trace tape(
      trace::trace_header{trace::kTraceVersion, e->granule});
  session online(session::options{.backend = c.backend,
                                  .granule = e->granule,
                                  .runtime = runtime_kind::parallel,
                                  .runtime_workers = c.workers});
  online.record_to(tape);
  prog->run(online, e->seed);
  const fingerprint live = fingerprint_of(online);
  EXPECT_EQ(online.query_stats().elided, 0u)
      << "a recording run must push every access into the trace";

  // Replay: a fresh serial session over the recording, at the default
  // replay batch (the pump batches up to engine::kBatchCapacity).
  session replay(
      session::options{.backend = c.backend, .granule = e->granule});
  replay.replay(tape);
  tape.rewind();
  expect_identical(live, fingerprint_of(replay));
}

std::string case_name(const ::testing::TestParamInfo<online_case>& info) {
  std::string s = info.param.entry + "_" + info.param.backend + "_w" +
                  std::to_string(info.param.workers);
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, OnlineConformance,
                         ::testing::ValuesIn(all_cases()), case_name);

// ------------------------------------------------ recording to .frdtz --

// An online recording to .frdtz runs container_writer::put, and with it the
// chunk cuts, on the pump thread. The container must replay serially to
// the online run's own report, as the in-memory recordings above do.
TEST(OnlineRecording, ContainerWrittenOnThePumpReplaysToTheOnlineReport) {
  for (const char* name :
       {"mm-structured-large", "wavefront-structured-large"}) {
    SCOPED_TRACE(name);
    const corpus::corpus_entry* e = builtin().find(name);
    ASSERT_NE(e, nullptr);
    const corpus::corpus_program* prog = corpus::find_program(e->program);
    ASSERT_NE(prog, nullptr);
    std::ostringstream packed(std::ios::binary);
    fingerprint live;
    {
      container::container_writer w(
          packed, trace::trace_header{trace::kTraceVersion, e->granule});
      session online(session::options{.backend = "multibags+",
                                      .granule = e->granule,
                                      .runtime = runtime_kind::parallel,
                                      .runtime_workers = 2});
      online.record_to(w);
      prog->run(online, e->seed);
      live = fingerprint_of(online);
      w.finish();
    }
    std::istringstream in(packed.str(), std::ios::binary);
    container::container_source src(in);
    EXPECT_GT(src.info().chunks.size(), 8u);
    session replay(
        session::options{.backend = "multibags+", .granule = e->granule});
    replay.replay(src);
    expect_identical(live, fingerprint_of(replay));
  }
}

// ------------------------------------------------- worker repeat filter --

// Online runs that neither record nor sample drop same-window repeat
// accesses on the workers (DESIGN.md §9). A dropped access can only repeat
// a race its first access reported, and the report counts a race once per
// (granule, conflict kind), so race total, racy-granule count, access count
// and get count must all equal the serial live run's, and no run may step
// outside the structured discipline. That comparison only holds for
// programs whose dag does not depend on the run: bst-general resolves its
// fix-ups in push order, which a parallel run decides (see the header).
bool dag_depends_on_the_run(const corpus::corpus_entry& e) {
  return e.program == "bst-general";
}

std::vector<online_case> filtered_cases() {
  std::vector<online_case> out;
  for (const corpus::corpus_entry& e : builtin().entries) {
    if (dag_depends_on_the_run(e)) continue;
    if (is_heavy(e.name)) {
      out.push_back({e.name, "multibags+", 4u});
      continue;
    }
    for (const std::string& b : corpus::eligible_backends(e.futures)) {
      for (unsigned w : {1u, 2u, 4u}) out.push_back({e.name, b, w});
    }
  }
  return out;
}

class OnlineFilter : public ::testing::TestWithParam<online_case> {};

TEST_P(OnlineFilter, ReportsWhatTheSerialLiveRunReports) {
  const online_case& c = GetParam();
  const corpus::corpus_entry* e = builtin().find(c.entry);
  ASSERT_NE(e, nullptr);
  const corpus::corpus_program* prog = corpus::find_program(e->program);
  ASSERT_NE(prog, nullptr);

  session serial(session::options{.backend = c.backend, .granule = e->granule});
  prog->run(serial, e->seed);
  session online(session::options{.backend = c.backend,
                                  .granule = e->granule,
                                  .runtime = runtime_kind::parallel,
                                  .runtime_workers = c.workers});
  prog->run(online, e->seed);

  EXPECT_EQ(online.report().total(), serial.report().total());
  EXPECT_EQ(online.report().racy_granules().size(),
            serial.report().racy_granules().size());
  EXPECT_EQ(online.access_count(), serial.access_count());
  EXPECT_EQ(online.get_count(), serial.get_count());
  EXPECT_EQ(serial.structured_violations(), 0u);
  EXPECT_EQ(online.structured_violations(), 0u);
  EXPECT_LE(online.query_stats().elided, online.access_count());
  if (e->kind == corpus::entry_kind::paper_kernel) {
    EXPECT_GT(online.query_stats().elided, 0u)
        << "the kernels re-read their cells within a strand";
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, OnlineFilter,
                         ::testing::ValuesIn(filtered_cases()), case_name);

// Sampling decides per access, so its counters must see every access: the
// filter is off and the partition is exact.
TEST(OnlineFilterModes, SamplingTurnsTheFilterOff) {
  const corpus::corpus_entry* e = builtin().find("lcs-structured");
  ASSERT_NE(e, nullptr);
  session serial(session::options{.granule = e->granule});
  corpus::find_program(e->program)->run(serial, e->seed);
  session online(session::options{.granule = e->granule,
                                  .runtime = runtime_kind::parallel,
                                  .runtime_workers = 2,
                                  .sample_rate = 0.5});
  corpus::find_program(e->program)->run(online, e->seed);
  EXPECT_EQ(online.query_stats().elided, 0u);
  EXPECT_EQ(online.access_count(), serial.access_count());
  EXPECT_EQ(online.query_stats().sampled + online.query_stats().skipped,
            online.access_count());
}

// run() finishes an untouched future right after the root's last access
// with no dag record in between; the node switch alone must start a
// new window, or the future's read would be dropped as a repeat of the
// root's write and its race with that write lost.
TEST(OnlineFilterModes, ANodeSwitchStartsANewWindow) {
  static int x;
  const auto program = [](session& s) {
    s.run([&](auto& rt) {
      rt.run([&] {
        auto f = rt.create_future([&] {
          s.read(&x);
          return 0;
        });
        s.write(&x);
        s.write(&x);
        (void)f;
      });
    });
  };
  session serial("multibags+");
  program(serial);
  ASSERT_EQ(serial.report().total(), 1u);
  for (unsigned w : {1u, 2u}) {
    session online(session::options{.runtime = runtime_kind::parallel,
                                    .runtime_workers = w});
    program(online);
    EXPECT_EQ(online.report().total(), 1u) << "workers " << w;
    EXPECT_EQ(online.access_count(), 3u) << "workers " << w;
    EXPECT_EQ(online.query_stats().elided, 1u) << "workers " << w;
  }
}

// Runs `body` (which gets the session and the runtime) serially and online
// at widths 1 and 2, and expects the one race the serial run reports.
template <typename Body>
void expect_one_race_everywhere(Body body) {
  const auto run = [&](session& s) {
    s.run([&](auto& rt) { rt.run([&] { body(s, rt); }); });
  };
  session serial("multibags+");
  run(serial);
  ASSERT_EQ(serial.report().total(), 1u);
  for (unsigned w : {1u, 2u}) {
    session online(session::options{.runtime = runtime_kind::parallel,
                                    .runtime_workers = w});
    run(online);
    EXPECT_EQ(online.report().total(), 1u) << "workers " << w;
    EXPECT_EQ(online.access_count(), serial.access_count()) << "workers " << w;
  }
}

// The create record ends the root's window: its second read of x belongs to
// the continuation strand, which runs in parallel with the future's write.
TEST(OnlineFilterModes, ADagRecordStartsANewWindow) {
  static int x;
  expect_one_race_everywhere([](session& s, auto& rt) {
    s.read(&x);
    auto f = rt.create_future([&] {
      s.write(&x);
      return 0;
    });
    s.read(&x);
    f.get();
  });
}

// Only a read after a read or write, or a write after a write, is a repeat:
// a write after a read must reach the store, or the continuation's read
// would not see the future's write.
TEST(OnlineFilterModes, AWriteAfterAReadIsNeverDropped) {
  static int x;
  expect_one_race_everywhere([](session& s, auto& rt) {
    auto f = rt.create_future([&] {
      s.read(&x);
      s.write(&x);
      return 0;
    });
    s.read(&x);
    f.get();
  });
}

// The pump frees a node's queue when the walk leaves the node, trims the
// consumed prefix of long-lived ones, and never drains more than a ring's
// capacity per ring at once: a long program of sequential spawns holds a
// bounded number of records however long it runs.
TEST(OnlineEngine, LogRecordsStayBoundedOverSequentialSpawns) {
  constexpr std::size_t kRing = 64;
  const auto peak_for = [](int spawns) {
    online::engine eng(online::engine::config{.ring_capacity = kRing});
    online::runtime rt(2, &eng);
    static std::array<int, 64> cells;
    rt.run([&] {
      for (int i = 0; i < spawns; ++i) {
        rt.spawn([&] {
          for (int& c : cells) eng.router().on_write(&c, sizeof c);
        });
        rt.sync();
      }
    });
    eng.finish();
    return eng.peak_log_records();
  };
  // Every run logs 67 records per spawn in three handles: the root's spawn
  // and sync, and the child's 64 writes closed by its end. The bound does
  // not grow with the run: the walk drains only when it runs dry, a drain
  // takes at most a ring's capacity of handles per worker, and a handle
  // here carries at most 65 records; allow two drains' worth.
  const std::size_t bound = 2 * (2 * kRing) * 65;
  EXPECT_LE(peak_for(500), bound);
  EXPECT_LE(peak_for(5000), bound);
}

// The pump keeps a node's queue only while the node is open or has unwalked
// handles, drops a structured future's entry once its one get is walked,
// and returns walked segments to a bounded pool: over a long run of
// sequential spawns, or of single-touch futures, the bytes it holds do not
// grow with the run.
TEST(OnlineEngine, HeldBytesStayBoundedOverSequentialSpawnsAndFutures) {
  const auto peak_for = [](int n, bool futures) {
    online::engine eng(online::engine::config{.ring_capacity = 256});
    online::runtime rt(1, &eng);
    rt.enforce_single_touch(true);
    static int cell;
    const auto body = [&eng] { eng.router().on_write(&cell, sizeof cell); };
    rt.run([&] {
      for (int i = 0; i < n; ++i) {
        if (futures) {
          online::future<int> f = rt.create_future([&] {
            body();
            return 0;
          });
          f.get();
          // A leapfrogged future's task stays queued until a worker pops
          // it; draining now and then keeps the runtime's own memory small.
          if (i % 1000 == 999) rt.quiesce();
        } else {
          rt.spawn([&] { body(); });
          rt.sync();
        }
      }
    });
    eng.finish();
    return eng.peak_held_bytes();
  };
  for (const bool futures : {false, true}) {
    SCOPED_TRACE(futures ? "futures" : "spawns");
    const std::size_t short_run = peak_for(10000, futures);
    const std::size_t long_run = peak_for(100000, futures);
    EXPECT_GT(short_run, 0u);
    // Per-node or per-future state kept for the whole run would add at
    // least 90,000 entries between the two runs.
    EXPECT_LE(long_run, short_run + 256 * 1024);
    EXPECT_LE(long_run, std::size_t{4} << 20);
  }
}

// One window longer than a batch and than a segment, with a no-op sync in
// it, after children that run inline at their parent's sync (node switches
// on one worker). Every read in the window has a different prior writer
// every 16 cells. The pump cuts the window into runs at segment and batch
// boundaries the serial replay of its recording (at its default batch of
// 256) does not share, and the query-plane counters must not see the cuts.
TEST(OnlineEngine, RunsAcrossSegmentBoundariesCountLikeTheReplay) {
  constexpr std::size_t kBlock = 16;
  constexpr std::size_t kCells =
      (online::engine::kBatchCapacity + online::segment::kAccesses + 1000) /
      kBlock * kBlock;
  static std::array<int, kCells> cells;
  const auto program = [](session& s) {
    s.run([&](auto& rt) {
      rt.run([&] {
        for (std::size_t b = 0; b < kCells; b += kBlock) {
          rt.spawn([&s, b] {
            for (std::size_t i = b; i < b + kBlock; ++i) s.write(&cells[i]);
          });
        }
        rt.sync();
        for (std::size_t i = 0; i < kCells; ++i) {
          if (i == kCells / 2) rt.sync();  // no outstanding children
          s.read(&cells[i]);
        }
      });
    });
  };
  for (unsigned w : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(w));
    trace::memory_trace tape(trace::trace_header{trace::kTraceVersion, 4});
    session online(session::options{.runtime = runtime_kind::parallel,
                                    .runtime_workers = w});
    online.record_to(tape);
    program(online);
    EXPECT_EQ(online.access_count(), 2 * kCells);
    EXPECT_EQ(online.report().total(), 0u);
    session replay;
    replay.replay(tape);
    expect_identical(fingerprint_of(online), fingerprint_of(replay));
  }
}

// The pump's one error: a get whose future the walk has not yet returned
// from. A spawned child gets a future its parent creates after the spawn,
// which the parallel runtime can run but serial order cannot (the future
// is not forward-pointing, paper S2). The session runs again after reset().
TEST(OnlineEngine, AGetBeforeTheFuturesCreationPointIsAnOnlineError) {
  const auto backward_get = [](online::runtime& rt) {
    rt.run([&] {
      std::atomic<online::future<int>*> handle{nullptr};
      rt.spawn([&] {
        rt.help_until([&] { return handle.load() != nullptr; });
        handle.load()->get();
      });
      online::future<int> f = rt.create_future([] { return 1; });
      handle.store(&f);
      rt.sync();
    });
  };
  static int cell;
  for (unsigned w : {1u, 2u, 4u}) {
    session s(session::options{.runtime = runtime_kind::parallel,
                               .runtime_workers = w});
    EXPECT_THROW(s.run(backward_get), online::online_error) << "workers " << w;
    s.reset();
    s.run([&] {
      s.write(&cell);
      s.read(&cell);
    });
    EXPECT_EQ(s.access_count(), 2u) << "workers " << w;
    EXPECT_EQ(s.report().total(), 0u) << "workers " << w;
  }
}

// The twin of ParallelRuntime.RunIsReusableAfterTheRootThrows: a root that
// throws unwinds the online run after every task it started has finished,
// and after reset() the session runs again and reports.
TEST(OnlineRuntime, SessionRunsAgainAfterTheRootThrows) {
  static int cell;
  session s(session::options{.runtime = runtime_kind::parallel,
                             .runtime_workers = 2});
  std::atomic<int> children{0};
  EXPECT_THROW(s.run([&](auto& rt) {
    rt.run([&] {
      for (int i = 0; i < 64; ++i) {
        rt.spawn([&] {
          s.write(&cell);
          children.fetch_add(1);
        });
      }
      throw std::runtime_error("root failed");
    });
  }),
               std::runtime_error);
  EXPECT_EQ(children.load(), 64);
  s.reset();
  s.run([&](auto& rt) {
    rt.run([&] {
      auto f = rt.create_future([&] {
        s.write(&cell);
        return 0;
      });
      s.write(&cell);
      f.get();
    });
  });
  EXPECT_EQ(s.access_count(), 2u);
  EXPECT_EQ(s.report().total(), 1u);
}

// ------------------------------------------------------- serial identity --

// Deterministic-structure programs go further than the per-run oracle: the
// online recording at ANY width equals the serial session's recording
// event-for-event, because the canonical walk IS the serial elision.
TEST(OnlineSerialIdentity, OnlineRecordingEqualsTheSerialRecording) {
  for (const char* name : {"lcs-structured", "mm-structured", "sync-heavy",
                           "fuzz-structured", "fuzz-general"}) {
    const corpus::corpus_entry* e = builtin().find(name);
    ASSERT_NE(e, nullptr);
    const corpus::corpus_program* prog = corpus::find_program(e->program);
    ASSERT_NE(prog, nullptr);

    trace::memory_trace serial_tape(
        trace::trace_header{trace::kTraceVersion, e->granule});
    session serial(session::options{.granule = e->granule});
    serial.record_to(serial_tape);
    prog->run(serial, e->seed);

    trace::memory_trace online_tape(
        trace::trace_header{trace::kTraceVersion, e->granule});
    session online(session::options{.granule = e->granule,
                                    .runtime = runtime_kind::parallel,
                                    .runtime_workers = 4});
    online.record_to(online_tape);
    prog->run(online, e->seed);

    // Normalization remaps first-touch granule order, which the identical
    // event order makes identical — so the normalized streams match
    // event-for-event even though raw heap addresses differ per run.
    trace::memory_trace ns = corpus::normalize_addresses(serial_tape);
    trace::memory_trace no = corpus::normalize_addresses(online_tape);
    trace::trace_event es, eo;
    std::uint64_t idx = 0;
    while (true) {
      const bool more_s = ns.next(es);
      const bool more_o = no.next(eo);
      ASSERT_EQ(more_s, more_o) << name << ": stream lengths differ at event "
                                << idx;
      if (!more_s) break;
      ASSERT_EQ(static_cast<int>(es.kind), static_cast<int>(eo.kind))
          << name << ": event " << idx;
      ++idx;
    }
    EXPECT_GT(idx, 0u) << name;
  }
}

// --------------------------------------------------------- configuration --

TEST(OnlineConfig, SerialSessionsRejectRuntimeWorkers) {
  // runtime_workers parallelizes the program; on the serial runtime the
  // knob is meaningless and silently ignoring it would mislead.
  EXPECT_THROW(session(session::options{.runtime_workers = 2}),
               detect::backend_error);
}

TEST(OnlineConfigDeath, RuntimeAccessorIsSerialOnly) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // The serial runtime handle does not exist in an online session; the
  // accessor must refuse rather than hand out a dangling substrate.
  EXPECT_DEATH(
      {
        session s(session::options{.runtime = runtime_kind::parallel,
                                   .runtime_workers = 2});
        (void)s.runtime();
      },
      "runtime = parallel");
}

TEST(OnlineConfig, ZeroArgBodiesRunOnTheConfiguredRuntime) {
  // The run(void-callable) overload works on both runtimes — it routes
  // through the online pump when the session is parallel.
  session s(session::options{.runtime = runtime_kind::parallel,
                             .runtime_workers = 2});
  static int cells[4];
  s.run([&] {
    s.write(&cells[0]);
    s.read(&cells[0]);
  });
  EXPECT_EQ(s.access_count(), 2u);
  EXPECT_EQ(s.report().total(), 0u);
}

}  // namespace
}  // namespace frd
