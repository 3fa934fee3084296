// Tests of the frd::session facade and the backend registry: name
// resolution, capability enforcement, hook-sink stacking, option plumbing,
// cross-backend differential agreement, and peak-memory accounting.
//
// The peak-memory tests replay a checked-in corpus entry; the corpus
// directory is baked in at compile time (FRD_CORPUS_DIR, set by CMake to
// <repo>/corpus) and overridable with the environment variable of the same
// name.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>

#include "api/session.hpp"
#include "corpus/golden.hpp"
#include "corpus/manifest.hpp"
#include "corpus/runner.hpp"
#include "detect/registry.hpp"
#include "graph/oracle_backend.hpp"
#include "shadow/store.hpp"
#include "trace/event.hpp"

namespace frd {
namespace {

std::string corpus_dir() {
  if (const char* env = std::getenv("FRD_CORPUS_DIR")) return env;
  return FRD_CORPUS_DIR;
}

using detect::backend_error;
using detect::backend_registry;
using detect::capability_error;
using detect::future_support;

// A minimal racy program: a future's write parallel with the continuation's.
void racy_future_program(session& s) {
  static int x;
  s.run([&] {
    auto f = s.runtime().create_future([&] {
      s.write(&x);
      return 0;
    });
    s.write(&x);
    f.get();
  });
}

// ------------------------------------------------------------- registry --
TEST(BackendRegistry, AllFiveBuiltinBackendsRegistered) {
  const auto names = backend_registry::instance().names();
  for (const char* n :
       {"multibags", "multibags+", "reference", "sp-bags", "vector-clock"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), n), names.end()) << n;
  }
}

TEST(BackendRegistry, RuntimeRegistrationKeepsLiveSessionsValid) {
  // The registry hands out backend_info pointers that sessions cache for
  // their lifetime; registering another backend must not relocate them.
  auto& reg = backend_registry::instance();
  session s("multibags+");
  if (reg.find("custom-oracle") == nullptr) {
    reg.add({.name = "custom-oracle",
             .paper_section = "out-of-tree",
             .bounds = "quadratic",
             .futures = future_support::general,
             .counts_violations = false,
             .make = []() -> std::unique_ptr<detect::reachability_backend> {
               return std::make_unique<graph::oracle_backend>();
             }});
  }
  EXPECT_EQ(s.backend_name(), "multibags+");
  EXPECT_EQ(s.info().paper_section, "§5");
  racy_future_program(s);
  EXPECT_TRUE(s.report().any());
  // And the new backend is immediately constructible by name.
  session custom("custom-oracle");
  EXPECT_EQ(custom.backend().name(), "reference");  // oracle_backend's name
}

TEST(BackendRegistry, CapabilityFlagsMatchThePaper) {
  const auto& reg = backend_registry::instance();
  EXPECT_EQ(reg.at("multibags").futures, future_support::structured);
  EXPECT_TRUE(reg.at("multibags").counts_violations);
  EXPECT_EQ(reg.at("multibags+").futures, future_support::general);
  EXPECT_EQ(reg.at("vector-clock").futures, future_support::general);
  EXPECT_EQ(reg.at("sp-bags").futures, future_support::none);
  EXPECT_EQ(reg.at("reference").futures, future_support::general);
}

TEST(BackendRegistry, FactoriesProduceBackendsAnsweringToTheirName) {
  const auto& reg = backend_registry::instance();
  for (const char* n :
       {"multibags", "multibags+", "reference", "sp-bags", "vector-clock"}) {
    auto b = reg.create(n);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->name(), n);
  }
}

TEST(BackendRegistry, UnknownNameErrorListsRegisteredBackends) {
  try {
    session s("fasttrack");
    FAIL() << "expected backend_error";
  } catch (const backend_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fasttrack"), std::string::npos) << msg;
    for (const char* n :
         {"multibags", "multibags+", "vector-clock", "sp-bags", "reference"}) {
      EXPECT_NE(msg.find(n), std::string::npos) << "missing " << n << ": " << msg;
    }
  }
}

// ----------------------------------------------------------- basic runs --
TEST(Session, DetectsTheCanonicalFutureRace) {
  for (const char* backend : {"multibags", "multibags+", "vector-clock",
                              "reference"}) {
    session s(backend);
    racy_future_program(s);
    EXPECT_TRUE(s.report().any()) << backend;
    EXPECT_EQ(s.report().racy_granules().size(), 1u) << backend;
  }
}

TEST(Session, DefaultsToMultiBagsPlusFull) {
  session s;
  EXPECT_EQ(s.backend_name(), "multibags+");
  EXPECT_EQ(s.lvl(), level::full);
  EXPECT_EQ(s.info().paper_section, "§5");
}

TEST(Session, RunAcceptsARuntimeDriver) {
  // The harness shape: the callable receives the runtime and calls run()
  // itself (kernels do that internally).
  session s("multibags");
  int x = 0;
  s.run([&](rt::serial_runtime& rt) {
    rt.run([&] {
      rt.spawn([&] { s.write(&x); });
      s.write(&x);
      rt.sync();
    });
  });
  EXPECT_TRUE(s.report().any());
}

// ------------------------------------------------------- hook stacking --
TEST(Session, HooksRouteToTheRunningSession) {
  session s("multibags+");
  int x = 0;
  s.run([&] {
    s.runtime().spawn(
        [&] { detect::hooks::st<detect::hooks::active>(x, 1); });
    (void)detect::hooks::ld<detect::hooks::active>(x);
    s.runtime().sync();
  });
  EXPECT_EQ(s.access_count(), 2u);
  EXPECT_TRUE(s.report().any());
}

TEST(Session, NoSinkInstalledOutsideRun) {
  session s("multibags+");
  int x = 0;
  racy_future_program(s);
  const auto before = s.access_count();
  // Outside run() the hooks are dormant: accesses go nowhere.
  detect::hooks::st<detect::hooks::active>(x, 1);
  (void)detect::hooks::ld<detect::hooks::active>(x);
  EXPECT_EQ(s.access_count(), before);
  EXPECT_EQ(detect::hooks::current_sink(), nullptr);
}

TEST(Session, NestedSessionsRestoreThePreviousSink) {
  session outer("multibags+");
  int x = 0;
  std::uint64_t inner_accesses = 0;
  outer.run([&] {
    detect::hooks::st<detect::hooks::active>(x, 1);  // -> outer
    {
      session inner("multibags");
      inner.run([&] {
        detect::hooks::st<detect::hooks::active>(x, 2);  // -> inner
        detect::hooks::st<detect::hooks::active>(x, 3);  // -> inner
      });
      inner_accesses = inner.access_count();
      EXPECT_EQ(outer.access_count(), 1u)
          << "inner session must not leak accesses into the outer one";
    }
    detect::hooks::st<detect::hooks::active>(x, 4);  // -> outer again
  });
  EXPECT_EQ(inner_accesses, 2u);
  EXPECT_EQ(outer.access_count(), 2u)
      << "the outer sink must be restored when the inner session unwinds";
  EXPECT_EQ(detect::hooks::current_sink(), nullptr);
}

// -------------------------------------------------- capability envelope --
TEST(Session, ForkJoinOnlyBackendRejectsFutures) {
  session s("sp-bags");
  EXPECT_THROW(
      s.run([&] { (void)s.runtime().create_future([] { return 1; }); }),
      capability_error);
}

TEST(Session, ForkJoinProgramsRunFineUnderSpBags) {
  session s("sp-bags");
  int x = 0;
  s.run([&] {
    s.runtime().spawn([&] { s.write(&x); });
    s.write(&x);
    s.runtime().sync();
  });
  EXPECT_TRUE(s.report().any());
}

TEST(Session, StructuredBackendRejectsMultiTouchFutures) {
  session s("multibags");
  try {
    s.run([&] {
      auto f = s.runtime().create_future([] { return 1; });
      f.get();
      f.get();  // second touch: a general-future program
    });
    FAIL() << "expected capability_error";
  } catch (const capability_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("multibags"), std::string::npos) << msg;
    EXPECT_NE(msg.find("single-touch"), std::string::npos) << msg;
  }
}

TEST(Session, GeneralBackendsAcceptMultiTouchFutures) {
  for (const char* backend : {"multibags+", "vector-clock", "reference"}) {
    session s(backend);
    int got = 0;
    s.run([&] {
      auto f = s.runtime().create_future([] { return 7; });
      got = f.get();
      got += f.get();
    });
    EXPECT_EQ(got, 14) << backend;
    EXPECT_EQ(s.get_count(), 2u) << backend;
  }
}

// ------------------------------------------------------ option plumbing --
TEST(Session, MaxRetainedRacesCapsDiagnosticsNotCounting) {
  session s(session::options{.backend = "multibags+", .max_retained_races = 8});
  static std::array<int, 100> xs;
  s.run([&] {
    auto f = s.runtime().create_future([&] {
      for (auto& v : xs) s.write(&v);
      return 0;
    });
    for (auto& v : xs) s.write(&v);
    f.get();
  });
  EXPECT_EQ(s.report().retained().size(), 8u);
  EXPECT_EQ(s.report().racy_granules().size(), 100u);
  EXPECT_GE(s.report().total(), 100u);
  EXPECT_EQ(s.report().max_retained(), 8u);
}

TEST(Session, WiderGranuleMergesNeighbouringLocations) {
  // Two adjacent ints race independently; at granule = 8 they fall into one
  // shadow granule, so the report dedupes them to a single racy granule.
  auto run_with_granule = [](std::size_t granule) {
    session s(session::options{.backend = "multibags+", .granule = granule});
    static struct {
      alignas(8) int a;
      int b;
    } p;
    s.run([&] {
      auto f = s.runtime().create_future([&] {
        s.write(&p.a);
        s.write(&p.b);
        return 0;
      });
      s.write(&p.a);
      s.write(&p.b);
      f.get();
    });
    return s.report().racy_granules().size();
  };
  EXPECT_EQ(run_with_granule(4), 2u);
  EXPECT_EQ(run_with_granule(8), 1u);
}

TEST(Session, InvalidOptionsThrowInsteadOfAborting) {
  // Option validation is catchable, like the unknown-backend case: an
  // embedder wiring options from a config file can report them. Granule
  // validation is the detector's (backend_error); the store name and the
  // history depth belong to the store layer (store_error, tested below and
  // in test_sampling). Both are std::runtime_error.
  EXPECT_THROW(session(session::options{.granule = 3}), backend_error);
  EXPECT_THROW(session(session::options{.granule = 0}), backend_error);
  EXPECT_THROW(session(session::options{.granule = 8192}), backend_error);
}

TEST(Session, UnknownShadowStoreThrowsNamingTheOneStore) {
  for (const char* name : {"no-such-store", "compact"}) {
    try {
      session s(session::options{.shadow_store = name});
      FAIL() << "shadow store '" << name << "' must throw";
    } catch (const shadow::store_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
      EXPECT_NE(msg.find("hashed-page"), std::string::npos) << msg;
    }
  }
}

TEST(Session, BaselineLevelInstallsNoListener) {
  session s(session::options{.backend = "multibags+", .level = level::baseline});
  int x = 0;
  s.run([&] {
    s.runtime().spawn([&] { x = 1; });
    s.runtime().sync();
  });
  EXPECT_EQ(s.runtime().listener(), nullptr);
  EXPECT_FALSE(s.report().any());
}

TEST(Session, SingleTouchEnforcementAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        session s(session::options{.backend = "multibags+", .enforce_single_touch = true});
        s.run([&] {
          auto f = s.runtime().create_future([] { return 1; });
          f.get();
          f.get();
        });
      },
      "single-touch");
}

// ------------------------------------------------- differential anchor --
TEST(Session, ReferenceAgreesWithMultiBagsPlusOnAMixedProgram) {
  // One deterministic program with spawns, syncs, and escaping futures run
  // under both backends: the racy-granule sets must be identical (the heavy
  // version of this check is the property-fuzz suite).
  auto run_program = [](const char* backend) {
    session s(backend);
    static std::array<int, 8> cells;
    s.run([&] {
      auto& rt = s.runtime();
      auto f = rt.create_future([&] {
        s.write(&cells[0]);
        s.write(&cells[1]);
        return 0;
      });
      rt.spawn([&] {
        s.write(&cells[1]);  // races with the future
        s.write(&cells[2]);
      });
      s.write(&cells[2]);  // races with the spawn
      rt.sync();
      s.write(&cells[3]);  // still parallel with the escaped future? no:
      f.get();             // ...yes — the get happens after this write
      s.read(&cells[0]);   // ordered by the get: no race
      s.write(&cells[3]);  // ordered: same strand wrote before
    });
    return s.report().racy_granules();
  };
  const auto plus = run_program("multibags+");
  const auto ref = run_program("reference");
  const auto vc = run_program("vector-clock");
  EXPECT_EQ(plus, ref);
  EXPECT_EQ(plus, vc);
  EXPECT_FALSE(plus.empty());
}

// --------------------------------------------------------- trace modes --
TEST(Session, RecordModeDetectsAndCapturesATrace) {
  trace::memory_trace tape;
  session s("multibags+");
  EXPECT_EQ(s.mode(), session_mode::live);
  s.record_to(tape);
  EXPECT_EQ(s.mode(), session_mode::record);
  racy_future_program(s);
  // Recording must not change what the session detects...
  EXPECT_TRUE(s.report().any());
  EXPECT_EQ(s.report().racy_granules().size(), 1u);
  // ...and the tape holds the whole run: dag events plus both writes.
  EXPECT_GT(tape.size(), 0u);
  std::size_t writes = 0;
  for (const auto& e : tape.events()) {
    if (e.kind == trace::event_kind::write) ++writes;
  }
  EXPECT_EQ(writes, 2u);
}

TEST(Session, ReplayReproducesTheLiveReportWithoutUserCode) {
  trace::memory_trace tape;
  session rec("multibags+");
  rec.record_to(tape);
  racy_future_program(rec);

  for (const char* backend : {"multibags", "multibags+", "vector-clock",
                              "reference"}) {
    tape.rewind();
    session s(backend);
    const std::uint64_t events = s.replay(tape);
    EXPECT_EQ(s.mode(), session_mode::replay) << backend;
    EXPECT_GT(events, 0u) << backend;
    EXPECT_EQ(s.report().racy_granules(), rec.report().racy_granules())
        << backend;
    EXPECT_EQ(s.report().total(), rec.report().total()) << backend;
  }
}

TEST(Session, ReplayRejectsAGranuleMismatch) {
  trace::memory_trace tape;
  session rec(session::options{.backend = "multibags+", .granule = 4});
  rec.record_to(tape);
  racy_future_program(rec);
  tape.rewind();
  session s(session::options{.backend = "multibags+", .granule = 8});
  EXPECT_THROW(s.replay(tape), trace::trace_error);
}

TEST(Session, BaselineReplayBehavesLikeBaselineLive) {
  // A live baseline session attaches no listener, so even a fork-join-only
  // backend accepts a futures program and counts nothing; replay at
  // level::baseline must mirror that instead of feeding the detector.
  trace::memory_trace tape;
  session rec("multibags+");
  rec.record_to(tape);
  racy_future_program(rec);
  tape.rewind();
  session s(session::options{.backend = "sp-bags", .level = level::baseline});
  EXPECT_NO_THROW(s.replay(tape));
  EXPECT_EQ(s.get_count(), 0u);
  EXPECT_FALSE(s.report().any());
}

TEST(Session, ReplaySessionEnforcesCapabilitiesLikeALiveOne) {
  // sp-bags is fork-join only; a replayed create_fut must be rejected the
  // same way a live one is.
  trace::memory_trace tape;
  session rec("multibags+");
  rec.record_to(tape);
  racy_future_program(rec);
  tape.rewind();
  session s("sp-bags");
  EXPECT_THROW(s.replay(tape), capability_error);
}

// ------------------------------------------------------------ peak memory --

// The million-event entry replayed serially on the default store: long
// enough to cross many checkpoints and to grow the shadow store mid-run.
trace::memory_trace load_xl_entry() {
  const corpus::manifest m = corpus::load_manifest(corpus_dir() + "/MANIFEST");
  const corpus::corpus_entry* e = m.find("mm-structured-xl");
  if (e == nullptr) throw corpus::corpus_error("no mm-structured-xl entry");
  return corpus::load_trace(corpus_dir() + "/" + e->trace_file);
}

// memory_stats::peak_* is a true high-water mark: never below any
// checkpoint-time observation and never below the final snapshot.
TEST(PeakMemory, PeakIsAHighWaterMarkAcrossCheckpoints) {
  trace::memory_trace tape = load_xl_entry();
  session s(session::options{.granule = tape.header().granule});
  std::size_t max_seen_total = 0;
  std::uint64_t checkpoints = 0;
  session::replay_checkpoint cp;
  cp.every_events = 4096;
  cp.fn = [&](std::uint64_t, std::uint64_t) {
    const detect::memory_stats m = s.memory_stats();
    if (m.total_bytes() > max_seen_total) max_seen_total = m.total_bytes();
    EXPECT_GE(m.peak_total_bytes, m.total_bytes());
    EXPECT_GE(m.peak_store_bytes, m.store_bytes);
    ++checkpoints;
  };
  s.replay(tape, cp);

  ASSERT_GT(checkpoints, 0u) << "the XL entry must actually hit checkpoints";
  const detect::memory_stats final_stats = s.memory_stats();
  EXPECT_GT(max_seen_total, 0u);
  EXPECT_GE(final_stats.peak_total_bytes, max_seen_total);
  EXPECT_GE(final_stats.peak_total_bytes, final_stats.total_bytes());
  EXPECT_GE(final_stats.peak_store_bytes, final_stats.store_bytes);
}

// reset() must clear the high-water marks: a pooled session serving a small
// stream after a huge one must not charge the small stream for the huge
// one's peak (the serve budget reads the peak).
TEST(PeakMemory, ResetClearsThePeaks) {
  trace::memory_trace tape = load_xl_entry();
  session s(session::options{.granule = tape.header().granule});
  s.replay(tape);
  const std::size_t peak_before = s.memory_stats().peak_total_bytes;
  ASSERT_GT(peak_before, 0u);

  s.reset();
  const detect::memory_stats after = s.memory_stats();
  EXPECT_EQ(after.peak_store_bytes, 0u)
      << "a fresh store has no reservation; a surviving peak is stale";
  EXPECT_LT(after.peak_total_bytes, peak_before);
}

// store_bytes charges the heap that long reader lists overflow into, not
// only the shadow pages: 4,096 parallel children reading one int leave
// 4,093 readers past the three inline slots, so the footprint (and with it
// the peaks and the serve budgets) must grow by at least their ids.
TEST(PeakMemory, ReaderOverflowIsChargedToTheStore) {
  static int shared;
  const auto store_bytes_after = [](int readers) {
    session s(session::options{.backend = "multibags+"});
    s.run([&] {
      for (int i = 0; i < readers; ++i) {
        s.runtime().spawn([&] { s.read(&shared); });
      }
      s.runtime().sync();
    });
    const detect::memory_stats m = s.memory_stats();
    EXPECT_EQ(m.store_pages, 1u);
    EXPECT_GE(m.peak_store_bytes, m.store_bytes);
    return m.store_bytes;
  };
  const std::size_t one = store_bytes_after(1);
  const std::size_t many = store_bytes_after(4096);
  EXPECT_GE(many, one + 4093 * sizeof(rt::strand_id));
}

}  // namespace
}  // namespace frd
