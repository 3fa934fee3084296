// Tests for the work-stealing parallel runtime (the detection-off substrate).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/fuzz.hpp"
#include "runtime/parallel.hpp"

namespace frd::rt {
namespace {

TEST(ParallelRuntime, RunsRootToCompletion) {
  parallel_runtime rt(4);
  int x = 0;
  rt.run([&] { x = 42; });
  EXPECT_EQ(x, 42);
}

TEST(ParallelRuntime, SpawnSyncJoinsAllChildren) {
  parallel_runtime rt(8);
  std::atomic<int> count{0};
  rt.run([&] {
    for (int i = 0; i < 100; ++i)
      rt.spawn([&] { count.fetch_add(1, std::memory_order_relaxed); });
    rt.sync();
    EXPECT_EQ(count.load(), 100);
  });
}

TEST(ParallelRuntime, NestedSpawnTreeSumsCorrectly) {
  parallel_runtime rt(8);
  std::atomic<long long> sum{0};
  std::function<void(int, int)> go = [&](int lo, int hi) {
    if (hi - lo <= 8) {
      long long s = 0;
      for (int i = lo; i < hi; ++i) s += i;
      sum.fetch_add(s, std::memory_order_relaxed);
      return;
    }
    const int mid = lo + (hi - lo) / 2;
    rt.spawn([&, lo, mid] { go(lo, mid); });
    go(mid, hi);
    rt.sync();
  };
  rt.run([&] { go(0, 100000); });
  EXPECT_EQ(sum.load(), 100000LL * 99999 / 2);
}

TEST(ParallelRuntime, ImplicitSyncOnChildReturn) {
  parallel_runtime rt(4);
  std::atomic<int> grandchildren{0};
  rt.run([&] {
    rt.spawn([&] {
      for (int i = 0; i < 10; ++i)
        rt.spawn([&] { grandchildren.fetch_add(1); });
      // no explicit sync: child's frame must sync before completing
    });
    rt.sync();
    EXPECT_EQ(grandchildren.load(), 10);
  });
}

TEST(ParallelRuntime, FutureValueDelivered) {
  parallel_runtime rt(4);
  rt.run([&] {
    auto f = rt.create_future([] { return 123; });
    EXPECT_EQ(rt.get(f), 123);
  });
}

TEST(ParallelRuntime, VoidFuture) {
  parallel_runtime rt(4);
  std::atomic<bool> ran{false};
  rt.run([&] {
    auto f = rt.create_future([&] { ran.store(true); });
    rt.get(f);
    EXPECT_TRUE(ran.load());
  });
}

TEST(ParallelRuntime, GetClaimsUnstartedFutureInline) {
  // With one worker nothing steals, so get() must claim and run the task.
  parallel_runtime rt(1);
  rt.run([&] {
    auto f = rt.create_future([] { return 7; });
    EXPECT_EQ(rt.get(f), 7);
  });
}

TEST(ParallelRuntime, ManyFuturesAllResolve) {
  parallel_runtime rt(8);
  rt.run([&] {
    std::vector<pfuture<int>> futs;
    futs.reserve(500);
    for (int i = 0; i < 500; ++i)
      futs.push_back(rt.create_future([i] { return i * i; }));
    long long total = 0;
    for (int i = 0; i < 500; ++i) total += rt.get(futs[i]);
    long long want = 0;
    for (int i = 0; i < 500; ++i) want += 1LL * i * i;
    EXPECT_EQ(total, want);
  });
}

TEST(ParallelRuntime, MultiTouchGetIsIdempotent) {
  parallel_runtime rt(4);
  rt.run([&] {
    auto f = rt.create_future([] { return 5; });
    EXPECT_EQ(rt.get(f), 5);
    EXPECT_EQ(rt.get(f), 5);
    auto copy = f;  // shared state
    EXPECT_EQ(rt.get(copy), 5);
  });
}

TEST(ParallelRuntime, FuturePipelineAcrossWorkers) {
  parallel_runtime rt(4);
  rt.run([&] {
    auto s1 = rt.create_future([] { return 1; });
    auto s2 = rt.create_future([&] { return rt.get(s1) + 1; });
    auto s3 = rt.create_future([&] { return rt.get(s2) + 1; });
    EXPECT_EQ(rt.get(s3), 3);
  });
}

TEST(ParallelRuntime, StressInterleavedSpawnAndFutures) {
  parallel_runtime rt(0);  // hardware concurrency
  std::atomic<long long> acc{0};
  rt.run([&] {
    std::vector<pfuture<int>> futs;
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 20; ++i)
        rt.spawn([&, i] { acc.fetch_add(i, std::memory_order_relaxed); });
      futs.push_back(rt.create_future([round] { return round; }));
      rt.sync();
    }
    int fsum = 0;
    for (auto& f : futs) fsum += rt.get(f);
    EXPECT_EQ(fsum, 19 * 20 / 2);
  });
  EXPECT_EQ(acc.load(), 20LL * (19 * 20 / 2));
}

TEST(ParallelRuntime, RunReusableAcrossCalls) {
  parallel_runtime rt(4);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> n{0};
    rt.run([&] {
      for (int i = 0; i < 50; ++i) rt.spawn([&] { n.fetch_add(1); });
      rt.sync();
    });
    EXPECT_EQ(n.load(), 50);
  }
}

TEST(ParallelRuntime, RunFinishesUntouchedFutures) {
  parallel_runtime rt(4);
  std::atomic<int> ran{0};
  rt.run([&] {
    for (int i = 0; i < 64; ++i) rt.create_future([&] { ran.fetch_add(1); });
  });
  EXPECT_EQ(ran.load(), 64);
}

// A throwing root unwinds run(): every task it started finishes first (the
// children capture the root's state), and the same runtime runs again.
TEST(ParallelRuntime, RunIsReusableAfterTheRootThrows) {
  parallel_runtime rt(4);
  std::atomic<int> n{0};
  EXPECT_THROW(rt.run([&] {
    for (int i = 0; i < 64; ++i) rt.spawn([&] { n.fetch_add(1); });
    throw std::runtime_error("root failed");
  }),
               std::runtime_error);
  EXPECT_EQ(n.load(), 64);
  rt.run([&] {
    for (int i = 0; i < 64; ++i) rt.spawn([&] { n.fetch_add(1); });
    rt.sync();
  });
  EXPECT_EQ(n.load(), 128);
}

// Exceptions inside tasks are not supported yet. One that a task throws
// while this thread runs it still reaches the caller of run(), as the
// root's own does, rather than leave run() waiting for the counts the task
// skipped; the runtime then refuses to run again.
TEST(ParallelRuntimeDeath, AChildsThrowOnTheHostReachesTheCallerOnce) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        parallel_runtime rt(1);
        try {
          rt.run([&] {
            rt.spawn([] { throw std::runtime_error("child failed"); });
            rt.sync();
          });
        } catch (const std::runtime_error&) {
          rt.run([] {});
        }
      },
      "exception escaped a task");
}

TEST(ParallelRuntimeDeath, SecondGetOfASingleTouchFutureAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        parallel_runtime rt(2);
        rt.enforce_single_touch(true);
        rt.run([&] {
          auto f = rt.create_future([] { return 1; });
          rt.get(f);
          rt.get(f);
        });
      },
      "single-touch");
}

TEST(ParallelRuntime, ActuallyRunsConcurrently) {
  // Two tasks that each wait for the other to have started: only terminates
  // if they genuinely overlap in time.
  parallel_runtime rt(4);
  std::atomic<int> phase{0};
  rt.run([&] {
    rt.spawn([&] {
      phase.fetch_add(1);
      while (phase.load() < 2) std::this_thread::yield();
    });
    phase.fetch_add(1);
    while (phase.load() < 2) std::this_thread::yield();
    rt.sync();
  });
  EXPECT_EQ(phase.load(), 2);
}

TEST(SerialPosition, RunsBeforeFollowsTheDepthFirstElision) {
  // main ─┬─ a ─┬─ a0
  //       │     └─ a1
  //       └─ b ─── b0
  using par::position;
  using par::runs_before;
  const position main_pos;
  par::frame in_main(main_pos);
  const position a = in_main.mint_child();
  const position b = in_main.mint_child();
  par::frame in_a(a);
  const position a0 = in_a.mint_child();
  const position a1 = in_a.mint_child();
  par::frame in_b(b);
  const position b0 = in_b.mint_child();

  // A wait in a after both its children: they run before it, b after.
  EXPECT_TRUE(runs_before(a0, a, 2));
  EXPECT_TRUE(runs_before(a1, a, 2));
  EXPECT_FALSE(runs_before(b, a, 2));
  EXPECT_FALSE(runs_before(b0, a, 2));
  // A wait in b: all of a's subtree is serially earlier.
  EXPECT_TRUE(runs_before(a, b, 1));
  EXPECT_TRUE(runs_before(a1, b, 1));
  EXPECT_TRUE(runs_before(b0, b, 1));
  // Leaves: a later sibling and a later cousin come after, an earlier
  // sibling and an earlier cousin before.
  EXPECT_FALSE(runs_before(a1, a0, 0));
  EXPECT_FALSE(runs_before(b0, a1, 0));
  EXPECT_TRUE(runs_before(a0, a1, 0));
  EXPECT_TRUE(runs_before(a1, b0, 0));
  // main after minting both children: everything it contains is earlier.
  EXPECT_TRUE(runs_before(b0, main_pos, 2));
  // An ancestor's queued face (a future whose body is already running
  // below) executes as a no-op, so it may run anywhere.
  EXPECT_TRUE(runs_before(a, a0, 0));
}

TEST(SerialPosition, PathsDeeperThanTheInlineLevelsCompareExactly) {
  // A chain 40 levels deep: chain[d + 1] is child 1 of chain[d], with an
  // earlier sibling (child 0) and a later one (child 2) at every level.
  // Levels past the inline ones spill to the heap.
  using par::position;
  using par::runs_before;
  std::vector<position> chain{position{}};
  for (std::uint32_t d = 0; d < 40; ++d) chain.push_back(chain[d].child(1));
  const position& leaf = chain.back();
  ASSERT_EQ(leaf.depth(), 40u);
  for (std::uint32_t d = 0; d < 40; ++d) {
    EXPECT_TRUE(runs_before(chain[d].child(0), leaf, 0)) << "level " << d;
    EXPECT_FALSE(runs_before(chain[d].child(2), leaf, 0)) << "level " << d;
    EXPECT_TRUE(runs_before(leaf, chain[d], 2)) << "level " << d;
    EXPECT_FALSE(runs_before(leaf, chain[d], 1)) << "level " << d;
  }
}

// Fuzz plans mix spawn trees, futures touched from other branches, and
// gets that must first wait for their future's creation. Those are the
// shapes under which helping a wait with an arbitrary task could stack a
// get on top of the awaited future's own suspended body and deadlock every
// worker. Each plan must complete with the serial elision's gets and
// checksum at every width.
TEST(ParallelRuntime, FuzzPlansCompleteAtEveryWidth) {
  for (const bool structured : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      graph::fuzz_config cfg;
      cfg.seed = seed;
      cfg.structured = structured;
      cfg.max_depth = 6;
      cfg.max_actions_per_body = 12;
      cfg.n_cells = 16;
      cfg.max_futures = 64;
      if (!structured) {
        cfg.max_touches_per_future = 6;
        cfg.w_get = 5;
      }
      const graph::fuzz_plan plan = graph::plan_fuzz(cfg);
      for (const unsigned workers : {1u, 2u, 3u, 4u}) {
        parallel_runtime rt(workers);
        const graph::fuzz_result res =
            graph::run_fuzz_plan(rt, plan, [](std::uint32_t, bool) {});
        EXPECT_EQ(res.gets, plan.expected_gets)
            << "seed " << seed << " structured " << structured
            << " workers " << workers;
        EXPECT_EQ(res.checksum, plan.expected_checksum)
            << "seed " << seed << " structured " << structured
            << " workers " << workers;
      }
    }
  }
}

}  // namespace
}  // namespace frd::rt
