// Tests for the serial depth-first eager runtime: execution order, event
// stream shape, future semantics, dag recording.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/dag_recorder.hpp"
#include "graph/oracle.hpp"
#include "runtime/events.hpp"
#include "runtime/serial.hpp"

namespace frd::rt {
namespace {

// Records the raw event stream as readable strings.
class event_log final : public execution_listener {
 public:
  std::vector<std::string> lines;

  void on_program_begin(func_id f, strand_id s) override {
    add("begin f" + std::to_string(f) + " s" + std::to_string(s));
  }
  void on_program_end(strand_id s) override { add("end s" + std::to_string(s)); }
  void on_strand_begin(strand_id s, func_id f) override {
    add("strand s" + std::to_string(s) + " f" + std::to_string(f));
  }
  void on_spawn(func_id p, strand_id u, func_id c, strand_id w,
                strand_id v) override {
    add("spawn p" + std::to_string(p) + " u" + std::to_string(u) + " c" +
        std::to_string(c) + " w" + std::to_string(w) + " v" + std::to_string(v));
  }
  void on_create(func_id p, strand_id u, func_id c, strand_id w,
                 strand_id v) override {
    add("create p" + std::to_string(p) + " u" + std::to_string(u) + " c" +
        std::to_string(c) + " w" + std::to_string(w) + " v" + std::to_string(v));
  }
  void on_return(func_id c, strand_id last, func_id p) override {
    add("return c" + std::to_string(c) + " last" + std::to_string(last) + " p" +
        std::to_string(p));
  }
  void on_sync(const sync_event& e) override {
    add("sync f" + std::to_string(e.fn) + " nchildren" +
        std::to_string(e.children.size()));
  }
  void on_get(func_id fn, strand_id u, strand_id v, func_id fut, strand_id w,
              strand_id creator) override {
    add("get f" + std::to_string(fn) + " u" + std::to_string(u) + " v" +
        std::to_string(v) + " fut" + std::to_string(fut) + " w" +
        std::to_string(w) + " cr" + std::to_string(creator));
  }

 private:
  void add(std::string s) { lines.push_back(std::move(s)); }
};

TEST(SerialRuntime, DepthFirstEagerOrder) {
  serial_runtime rt;
  std::string order;
  rt.run([&] {
    order += "a";
    rt.spawn([&] { order += "b"; });
    order += "c";  // continuation runs after the child completes (eager)
    rt.spawn([&] { order += "d"; });
    rt.sync();
    order += "e";
  });
  EXPECT_EQ(order, "abcde");
}

TEST(SerialRuntime, FuturesEvaluateEagerly) {
  serial_runtime rt;
  std::string order;
  rt.run([&] {
    order += "a";
    auto f = rt.create_future([&] {
      order += "b";
      return 7;
    });
    order += "c";
    EXPECT_EQ(f.get(), 7);
    order += "d";
  });
  EXPECT_EQ(order, "abcd");
}

TEST(SerialRuntime, NestedSpawnsAndFutureEscapingSync) {
  // A future created before a sync is NOT joined by the sync (it escapes);
  // only get() joins it (paper §2).
  serial_runtime rt;
  bool future_ran = false;
  rt.run([&] {
    auto f = rt.create_future([&] {
      future_ran = true;
      return 1;
    });
    rt.spawn([&] {});
    rt.sync();  // joins the spawn only
    EXPECT_TRUE(future_ran);  // eager execution already ran it
    EXPECT_EQ(f.touch_count(), 0);
    f.get();
    EXPECT_EQ(f.touch_count(), 1);
  });
}

TEST(SerialRuntime, EventStreamForSpawnSync) {
  event_log log;
  serial_runtime rt(&log);
  rt.run([&] {
    rt.spawn([&] {});
    rt.sync();
  });
  // begin f0 s0; strand s0 f0; spawn p0 u0 c1 w1 v2; strand s1 f1;
  // return c1 last1 p0; strand s2 f0; sync f0 nchildren1; strand s3 f0; end s3
  const std::vector<std::string> want{
      "begin f0 s0",          "strand s0 f0",
      "spawn p0 u0 c1 w1 v2", "strand s1 f1",
      "return c1 last1 p0",   "strand s2 f0",
      "sync f0 nchildren1",   "strand s3 f0",
      "end s3",
  };
  EXPECT_EQ(log.lines, want);
}

TEST(SerialRuntime, ImplicitSyncOnChildReturn) {
  event_log log;
  serial_runtime rt(&log);
  rt.run([&] {
    rt.spawn([&] {
      rt.spawn([&] {});
      // no explicit sync: the runtime must sync before the child returns
    });
    rt.sync();
  });
  int syncs = 0;
  for (const auto& l : log.lines)
    if (l.rfind("sync", 0) == 0) ++syncs;
  EXPECT_EQ(syncs, 2);
}

TEST(SerialRuntime, SyncWithoutChildrenIsNoop) {
  event_log log;
  serial_runtime rt(&log);
  rt.run([&] {
    rt.sync();
    rt.sync();
  });
  for (const auto& l : log.lines) EXPECT_EQ(l.rfind("sync", 0), std::string::npos);
}

TEST(SerialRuntime, MultiChildSyncMintsOneJoinStrandPerChild) {
  std::vector<std::size_t> join_counts;
  class sync_watcher final : public execution_listener {
   public:
    std::vector<std::size_t>* out;
    void on_sync(const sync_event& e) override {
      out->push_back(e.join_strands.size());
      ASSERT_EQ(e.children.size(), e.join_strands.size());
    }
  } watcher;
  watcher.out = &join_counts;
  serial_runtime rt(&watcher);
  rt.run([&] {
    rt.spawn([&] {});
    rt.spawn([&] {});
    rt.spawn([&] {});
    rt.sync();
  });
  ASSERT_EQ(join_counts.size(), 1u);
  EXPECT_EQ(join_counts[0], 3u);
}

TEST(SerialRuntime, FutureValueTypes) {
  serial_runtime rt;
  rt.run([&] {
    auto fi = rt.create_future([] { return 42; });
    auto fs = rt.create_future([] { return std::string("hello"); });
    auto fv = rt.create_future([] {});
    std::vector<future<int>> futs;
    for (int i = 0; i < 10; ++i)
      futs.push_back(rt.create_future([i] { return i * i; }));
    EXPECT_EQ(fi.get(), 42);
    EXPECT_EQ(fs.get(), "hello");
    fv.get();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(futs[i].get(), i * i);
  });
}

TEST(SerialRuntime, MultiTouchAllowedWhenUnrestricted) {
  serial_runtime rt;
  rt.run([&] {
    auto f = rt.create_future([] { return 5; });
    EXPECT_EQ(f.get(), 5);
    EXPECT_EQ(f.get(), 5);
    EXPECT_EQ(f.touch_count(), 2);
  });
}

TEST(SerialRuntimeDeath, SingleTouchEnforced) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  serial_runtime rt;
  rt.enforce_single_touch(true);
  EXPECT_DEATH(rt.run([&] {
    auto f = rt.create_future([] { return 5; });
    f.get();
    f.get();
  }),
               "single-touch");
}

TEST(SerialRuntime, StrandIdsAreDenseAndFresh) {
  serial_runtime rt;
  std::vector<strand_id> seen;
  rt.run([&] {
    seen.push_back(rt.current_strand());
    rt.spawn([&] { seen.push_back(rt.current_strand()); });
    seen.push_back(rt.current_strand());
    rt.sync();
    seen.push_back(rt.current_strand());
  });
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_GT(seen[i], seen[i - 1]);
  EXPECT_GE(rt.strand_count(), seen.back() + 1);
}

TEST(SerialRuntime, RunIsReusable) {
  serial_runtime rt;
  int total = 0;
  for (int round = 0; round < 3; ++round)
    rt.run([&] {
      rt.spawn([&] { ++total; });
      rt.sync();
    });
  EXPECT_EQ(total, 3);
}

// A body that throws mid-walk leaves open frames behind; run() drops them
// as the exception leaves it, so the next run emits a fresh runtime's
// event stream.
TEST(SerialRuntime, RunIsReusableAfterABodyThrows) {
  struct boom {};
  const auto program = [](serial_runtime& rt) {
    rt.run([&] {
      rt.spawn([&] { rt.spawn([] {}); });
      auto f = rt.create_future([&] {
        rt.spawn([] {});
        return 1;
      });
      rt.sync();
      f.get();
    });
  };
  event_log fresh_log;
  serial_runtime fresh(&fresh_log);
  program(fresh);

  const std::vector<std::pair<const char*, std::function<void(serial_runtime&)>>>
      throwers{
          {"spawned child",
           [](serial_runtime& rt) {
             rt.spawn([&] {
               rt.spawn([] {});
               throw boom{};
             });
           }},
          {"future body",
           [](serial_runtime& rt) {
             (void)rt.create_future([&]() -> int {
               rt.spawn([] {});
               throw boom{};
             });
           }},
          {"root",
           [](serial_runtime& rt) {
             rt.spawn([] {});
             throw boom{};
           }},
      };
  for (const auto& [where, thrower] : throwers) {
    event_log log;
    serial_runtime rt(&log);
    EXPECT_THROW(rt.run([&] { thrower(rt); }), boom) << where;
    log.lines.clear();
    program(rt);
    EXPECT_EQ(log.lines, fresh_log.lines) << where;
  }
}

// ------------------------------------------------------- dag recording ---
TEST(DagRecorder, SpawnSyncShapesAreSeriesParallel) {
  graph::dag_recorder rec;
  serial_runtime rt(&rec);
  rt.run([&] {
    rt.spawn([&] {});
    rt.spawn([&] {});
    rt.sync();
  });
  EXPECT_TRUE(rec.is_series_parallel());
  EXPECT_EQ(rec.count(graph::edge_kind::spawn), 2u);
  EXPECT_EQ(rec.count(graph::edge_kind::join), 2u);
  // One virtual + one real join strand for the binary decomposition.
  std::size_t virtual_joins = 0;
  for (strand_id s = 0; s < rec.node_count(); ++s)
    if (rec.node_at(s).virtual_join) ++virtual_joins;
  EXPECT_EQ(virtual_joins, 1u);
}

TEST(DagRecorder, FuturesAddNonSpEdges) {
  graph::dag_recorder rec;
  serial_runtime rt(&rec);
  rt.run([&] {
    auto f = rt.create_future([] { return 0; });
    f.get();
  });
  EXPECT_FALSE(rec.is_series_parallel());
  EXPECT_EQ(rec.count(graph::edge_kind::create), 1u);
  EXPECT_EQ(rec.count(graph::edge_kind::get), 1u);
}

// ----------------------------------------------------------- oracle -----
TEST(OnlineOracle, SpawnContinuationParallelism) {
  graph::online_oracle oracle;
  serial_runtime rt(&oracle);
  strand_id in_child = kNoStrand, in_cont = kNoStrand, after = kNoStrand,
            root = kNoStrand;
  rt.run([&] {
    root = rt.current_strand();
    rt.spawn([&] { in_child = rt.current_strand(); });
    in_cont = rt.current_strand();
    rt.sync();
    after = rt.current_strand();
  });
  EXPECT_TRUE(oracle.precedes(root, in_child));
  EXPECT_TRUE(oracle.precedes(root, in_cont));
  EXPECT_TRUE(oracle.parallel(in_child, in_cont));
  EXPECT_TRUE(oracle.precedes(in_child, after));
  EXPECT_TRUE(oracle.precedes(in_cont, after));
  EXPECT_FALSE(oracle.precedes(after, root));
}

TEST(OnlineOracle, FutureEscapesSyncUntilGet) {
  graph::online_oracle oracle;
  serial_runtime rt(&oracle);
  strand_id in_fut = kNoStrand, post_sync = kNoStrand, post_get = kNoStrand;
  rt.run([&] {
    auto f = rt.create_future([&] {
      in_fut = rt.current_strand();
      return 0;
    });
    rt.spawn([&] {});
    rt.sync();
    post_sync = rt.current_strand();  // parallel to the future: no join yet
    f.get();
    post_get = rt.current_strand();
  });
  EXPECT_TRUE(oracle.parallel(in_fut, post_sync));
  EXPECT_TRUE(oracle.precedes(in_fut, post_get));
}

}  // namespace
}  // namespace frd::rt
