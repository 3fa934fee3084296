// End-to-end detection tests: hand-written racy and race-free programs under
// the full configuration, level semantics, hook plumbing, granularity — run
// through the frd::session facade against every futures-capable backend.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "runtime/serial.hpp"

namespace frd::detect {
namespace {

struct harness {
  explicit harness(const std::string& backend, level lvl = level::full)
      : s({.backend = backend, .level = lvl}), rt(s.runtime()) {}
  frd::session s;
  rt::serial_runtime& rt;

  void read(const void* p, std::size_t n = 4) { s.read(p, n); }
  void write(const void* p, std::size_t n = 4) { s.write(p, n); }
  const race_report& report() const { return s.report(); }
};

// Every backend that can absorb the future constructs these programs use.
class AllBackends : public ::testing::TestWithParam<const char*> {};

// ------------------------------------------------------------ basic races --
TEST_P(AllBackends, WriteWriteRaceBetweenSpawnAndContinuation) {
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    h.rt.spawn([&] {
      h.write(&x);
      x = 1;
    });
    h.write(&x);  // continuation writes in parallel with the child
    x = 2;
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
  EXPECT_EQ(h.report().racy_granules().size(), 1u);
}

TEST_P(AllBackends, ReadWriteRaceBetweenSpawnAndContinuation) {
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    h.rt.spawn([&] { h.read(&x); });
    h.write(&x);
    x = 1;
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
  const auto& first = h.report().retained().front();
  EXPECT_EQ(first.prior_kind, access_kind::read);
  EXPECT_EQ(first.current_kind, access_kind::write);
}

TEST_P(AllBackends, WriteThenParallelReadRace) {
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    h.rt.spawn([&] {
      h.write(&x);
      x = 3;
    });
    h.read(&x);  // parallel read of the child's write
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
}

TEST_P(AllBackends, NoRaceWhenOrderedBySync) {
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    h.rt.spawn([&] {
      h.write(&x);
      x = 1;
    });
    h.rt.sync();
    h.write(&x);  // ordered after the child by the sync
    x = 2;
    h.read(&x);
  });
  EXPECT_FALSE(h.report().any());
}

TEST_P(AllBackends, ParallelReadsAreNotARace) {
  harness h(GetParam());
  int x = 42;
  h.rt.run([&] {
    h.rt.spawn([&] { h.read(&x); });
    h.rt.spawn([&] { h.read(&x); });
    h.read(&x);
    h.rt.sync();
  });
  EXPECT_FALSE(h.report().any());
}

// -------------------------------------------------------- futures & races --
TEST_P(AllBackends, FutureRaceWithContinuationUntilGet) {
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    auto f = h.rt.create_future([&] {
      h.write(&x);
      x = 1;
      return 0;
    });
    h.write(&x);  // parallel: the future has not been joined
    x = 2;
    f.get();
  });
  EXPECT_TRUE(h.report().any());
}

TEST_P(AllBackends, NoRaceAfterGetOrdersTheFuture) {
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    auto f = h.rt.create_future([&] {
      h.write(&x);
      x = 1;
      return 0;
    });
    f.get();
    h.write(&x);  // ordered by the get edge
    x = 2;
  });
  EXPECT_FALSE(h.report().any());
}

TEST_P(AllBackends, SyncDoesNotOrderAFuture) {
  // The race that sync would have hidden under fork-join: the future escapes.
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    auto f = h.rt.create_future([&] {
      h.write(&x);
      x = 1;
      return 0;
    });
    h.rt.spawn([&] {});
    h.rt.sync();
    h.write(&x);  // still parallel with the future!
    x = 2;
    f.get();
  });
  EXPECT_TRUE(h.report().any());
}

TEST_P(AllBackends, PipelineStagesOrderedThroughGetChain) {
  harness h(GetParam());
  std::array<int, 4> buf{};
  h.rt.run([&] {
    auto s1 = h.rt.create_future([&] {
      h.write(&buf[0]);
      buf[0] = 1;
      return 0;
    });
    auto s2 = h.rt.create_future([&] {
      s1.get();
      h.read(&buf[0]);  // ordered through the get edge: no race
      h.write(&buf[1]);
      buf[1] = buf[0] + 1;
      return 0;
    });
    s2.get();
    h.read(&buf[1]);
  });
  EXPECT_FALSE(h.report().any());
  EXPECT_EQ(buf[1], 2);
}

// ----------------------------------------------------- history mechanics --
TEST_P(AllBackends, ReaderListCatchesAllParallelReaders) {
  // Many parallel readers, then a writer parallel to all of them: the
  // arbitrarily-long reader list (§3) must still hold a witness.
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    for (int i = 0; i < 10; ++i) h.rt.spawn([&] { h.read(&x); });
    h.write(&x);  // parallel to every reader
    x = 1;
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
}

TEST_P(AllBackends, WriterPurgeDoesNotLoseRaces) {
  // Reader r, then an *ordered* writer purges the list, then a strand
  // parallel to r writes: the race must surface against the new writer
  // (paper §3's purge argument).
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    h.rt.spawn([&] { h.read(&x); });  // r
    h.rt.spawn([&] {
      h.write(&x);  // parallel to r -> this itself is the race witness
      x = 1;
    });
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
}

TEST_P(AllBackends, OwnStrandRereadsAndRewritesAreFine) {
  harness h(GetParam());
  int x = 0;
  h.rt.run([&] {
    h.write(&x);
    x = 1;
    h.read(&x);
    h.write(&x);
    x = 2;
    h.read(&x);
  });
  EXPECT_FALSE(h.report().any());
}

TEST_P(AllBackends, GranuleSharingDetectedAtFourBytes) {
  // Two adjacent shorts share one 4-byte granule: flagged (like real
  // shadow-memory tools at their granularity).
  harness h(GetParam());
  struct {
    alignas(4) short a;
    short b;
  } s{0, 0};
  h.rt.run([&] {
    h.rt.spawn([&] {
      h.write(&s.a, sizeof(short));
      s.a = 1;
    });
    h.write(&s.b, sizeof(short));
    s.b = 2;
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
}

TEST_P(AllBackends, WideAccessSpansGranules) {
  harness h(GetParam());
  alignas(8) std::uint64_t wide = 0;
  auto* lo = reinterpret_cast<std::uint32_t*>(&wide);
  h.rt.run([&] {
    h.rt.spawn([&] {
      h.write(&wide, 8);  // touches both granules
      wide = 1;
    });
    h.read(lo + 1, 4);  // upper half only: still races
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
}

TEST_P(AllBackends, DistinctLocationsNoFalsePositives) {
  harness h(GetParam());
  std::array<int, 64> xs{};
  h.rt.run([&] {
    for (int i = 0; i < 64; i += 2) {
      h.rt.spawn([&, i] {
        h.write(&xs[i]);
        xs[i] = i;
      });
      h.write(&xs[i + 1]);
      xs[i + 1] = i + 1;
    }
    h.rt.sync();
  });
  EXPECT_FALSE(h.report().any());
}

// ----------------------------------------------------------- level gates --
TEST_P(AllBackends, InstrumentationLevelCountsButNeverReports) {
  harness h(GetParam(), level::instrumentation);
  int x = 0;
  h.rt.run([&] {
    h.rt.spawn([&] {
      h.write(&x);
      x = 1;
    });
    h.write(&x);
    x = 2;
    h.rt.sync();
  });
  EXPECT_EQ(h.s.access_count(), 2u);
  EXPECT_FALSE(h.report().any());
  EXPECT_EQ(h.s.detector().shadow_store().page_count(), 0u)
      << "no history maintained";
}

TEST_P(AllBackends, ReachabilityLevelAnswersQueries) {
  harness h(GetParam(), level::reachability);
  rt::strand_id child = rt::kNoStrand;
  h.rt.run([&] {
    h.rt.spawn([&] { child = h.rt.current_strand(); });
    EXPECT_FALSE(h.s.precedes_current(child));
    h.rt.sync();
    EXPECT_TRUE(h.s.precedes_current(child));
  });
}

TEST_P(AllBackends, SessionRunRoutesActiveHooks) {
  harness h(GetParam());
  int x = 0;
  h.s.run([&] {
    h.rt.spawn([&] {
      hooks::st<hooks::active>(x, 1);
    });
    (void)hooks::ld<hooks::active>(x);
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
  EXPECT_EQ(h.s.access_count(), 2u);
}

TEST_P(AllBackends, NoneHooksCompileToNothing) {
  harness h(GetParam());
  int x = 0;
  h.s.run([&] {
    h.rt.spawn([&] { hooks::st<hooks::none>(x, 1); });
    (void)hooks::ld<hooks::none>(x);
    h.rt.sync();
  });
  EXPECT_FALSE(h.report().any());
  EXPECT_EQ(h.s.access_count(), 0u);
}

TEST_P(AllBackends, RaceCountsAndRetention) {
  harness h(GetParam());
  std::array<int, 100> xs{};
  h.rt.run([&] {
    h.rt.spawn([&] {
      for (auto& v : xs) {
        h.write(&v);
        v = 1;
      }
    });
    for (auto& v : xs) {
      h.write(&v);
      v = 2;
    }
    h.rt.sync();
  });
  EXPECT_EQ(h.report().racy_granules().size(), 100u);
  EXPECT_EQ(h.report().retained().size(), race_report::kDefaultRetained);
  EXPECT_GE(h.report().total(), 100u);
}

// An access counts once per granule it touches at every level, as replayed
// granule events and online records do.
TEST_P(AllBackends, LiveAccessesCountOncePerGranule) {
  for (const level lvl : {level::instrumentation, level::full}) {
    harness h(GetParam(), lvl);
    alignas(8) static std::array<std::uint32_t, 4> cells;
    h.rt.run([&] {
      h.write(&cells[0], 8);  // two 4-byte granules
      h.read(&cells[2], 1);   // one
      h.read(&cells[1], 8);   // straddles cells 1 and 2: two
    });
    EXPECT_EQ(h.s.access_count(), 5u) << to_string(lvl);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, AllBackends,
                         ::testing::Values("multibags", "multibags+",
                                           "vector-clock", "reference"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '+') c = 'P';
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------------------ race report --
// A race counts once per (granule, prior kind, current kind).
TEST(RaceReport, RepeatedConflictCountsOnceAndIsRetainedOnce) {
  race_report rep;
  const race r{0x100, 1, access_kind::write, 2, access_kind::read};
  EXPECT_TRUE(rep.record(r));
  EXPECT_FALSE(rep.record(r));
  // Another strand pair with the same conflict on the same granule.
  EXPECT_FALSE(rep.record(race{0x100, 5, access_kind::write, 6,
                               access_kind::read}));
  EXPECT_EQ(rep.total(), 1u);
  ASSERT_EQ(rep.retained().size(), 1u);
  EXPECT_EQ(rep.retained().front().prior, 1u);
  EXPECT_EQ(rep.racy_granules(), (std::set<std::uintptr_t>{0x100}));
}

TEST(RaceReport, EachConflictKindOnAGranuleCountsSeparately) {
  race_report rep;
  EXPECT_TRUE(rep.record(race{0x100, 1, access_kind::write, 2,
                              access_kind::read}));
  EXPECT_TRUE(rep.record(race{0x100, 1, access_kind::read, 2,
                              access_kind::write}));
  EXPECT_TRUE(rep.record(race{0x100, 1, access_kind::write, 2,
                              access_kind::write}));
  EXPECT_TRUE(rep.record(race{0x104, 1, access_kind::write, 2,
                              access_kind::read}));
  EXPECT_EQ(rep.total(), 4u);
  EXPECT_EQ(rep.retained().size(), 4u);
  EXPECT_EQ(rep.racy_granules().size(), 2u);
  rep.reset();
  EXPECT_TRUE(rep.record(race{0x100, 1, access_kind::write, 2,
                              access_kind::read}))
      << "reset forgets the counted conflicts";
  EXPECT_EQ(rep.total(), 1u);
}

TEST(RaceReport, RaceSinkFiresOncePerCountedRace) {
  harness h("multibags+");
  std::vector<race> seen;
  h.s.set_race_sink([&](const race& r) { seen.push_back(r); });
  int x = 0;
  h.rt.run([&] {
    auto f = h.rt.create_future([&] {
      h.write(&x);
      return 0;
    });
    h.read(&x);   // write -> read: counted
    h.read(&x);   // the same conflict again
    h.write(&x);  // write -> write: counted
    h.write(&x);  // the same strand's repeat: no candidate at all
    f.get();
  });
  EXPECT_EQ(h.report().total(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].current_kind, access_kind::read);
  EXPECT_EQ(seen[1].current_kind, access_kind::write);
  EXPECT_EQ(h.report().retained().size(), 2u);
}

// -------------------------------------------------- general-future races --
TEST(DetectorGeneral, MultiTouchFutureOrdersBothGetters) {
  harness h("multibags+");
  int x = 0;
  h.rt.run([&] {
    auto f = h.rt.create_future([&] {
      h.write(&x);
      x = 1;
      return 0;
    });
    h.rt.spawn([&] {
      f.get();
      h.read(&x);  // ordered via get edge
    });
    f.get();
    h.read(&x);  // also ordered
    h.rt.sync();
  });
  EXPECT_FALSE(h.report().any());
}

TEST(DetectorGeneral, UnstructuredGetFromParallelBranchStillSound) {
  // Creator and getter are parallel (discipline violation for MultiBags,
  // legal for MultiBags+): accesses ordered through the get must not race,
  // while the getter branch stays parallel to the creator's continuation.
  harness h("multibags+");
  int produced = 0, unrelated = 0;
  rt::future<int> f;
  h.rt.run([&] {
    h.rt.spawn([&] {
      f = h.rt.create_future([&] {
        h.write(&produced);
        produced = 7;
        return 7;
      });
      h.write(&unrelated);
      unrelated = 1;
    });
    f.get();
    h.read(&produced);  // ordered through the get edge: no race
    h.rt.sync();
  });
  EXPECT_FALSE(h.report().any());
}

TEST(DetectorGeneral, RaceVisibleOnlyWithoutGetEdge) {
  harness h("multibags+");
  int x = 0;
  h.rt.run([&] {
    auto f = h.rt.create_future([&] {
      h.write(&x);
      x = 1;
      return 0;
    });
    h.rt.spawn([&] {
      h.read(&x);  // no get: parallel with the future -> race
    });
    f.get();
    h.rt.sync();
  });
  EXPECT_TRUE(h.report().any());
}

}  // namespace
}  // namespace frd::detect
