// MultiBags+ sync-case coverage: programs engineered to drive each branch of
// the paper's Figure 4 sync handling (lines 23-46), each cross-checked
// against the exact oracle on every executed strand pair.
//
//   case 1 (lines 29-32): neither joined subdag carries non-SP edges;
//   case 2 (lines 33-40): both subdags carry non-SP edges;
//   case 3 (lines 41-46): exactly one side does (both polarities).
#include <gtest/gtest.h>

#include <vector>

#include "detect/multibags_plus.hpp"
#include "graph/oracle.hpp"
#include "runtime/events.hpp"
#include "runtime/serial.hpp"

namespace frd::detect {
namespace {

struct rig {
  multibags_plus mbp;
  graph::online_oracle oracle;
  rt::listener_mux mux;
  rt::serial_runtime rt;
  std::vector<rt::strand_id> seen;

  rig() : rt(&mux) {
    mux.add(&mbp);
    mux.add(&oracle);
  }

  void mark() { seen.push_back(rt.current_strand()); }

  // Checks every recorded strand's query answer against the oracle at the
  // current execution point.
  void check_all() {
    const rt::strand_id cur = rt.current_strand();
    for (rt::strand_id s : seen) {
      if (s == cur) continue;
      ASSERT_EQ(mbp.precedes_current(s), oracle.precedes(s, cur))
          << "strand " << s << " vs current " << cur;
    }
  }
};

TEST(MbpSyncCases, Case1PureSpSubdagsFoldAway) {
  rig r;
  r.rt.run([&] {
    r.mark();
    r.rt.spawn([&] {  // pure-SP child (no futures inside)
      r.mark();
      r.rt.spawn([&] { r.mark(); });
      r.rt.sync();  // inner case-1
      r.mark();
      r.check_all();
    });
    r.mark();
    r.rt.sync();  // outer case-1
    r.mark();
    r.check_all();
  });
  EXPECT_EQ(r.mbp.r().size(), 1u)
      << "a pure fork-join program needs only the root attached set";
}

TEST(MbpSyncCases, Case2BothSidesCarryFutures) {
  rig r;
  r.rt.run([&] {
    r.mark();
    rt::future<int> fa, fb;
    r.rt.spawn([&] {  // child side: creates and joins a future
      r.mark();
      fa = r.rt.create_future([&] {
        r.mark();
        return 1;
      });
      fa.get();
      r.mark();
      r.check_all();
    });
    // continuation side: also creates and joins a future
    fb = r.rt.create_future([&] {
      r.mark();
      return 2;
    });
    fb.get();
    r.mark();
    r.check_all();
    r.rt.sync();  // both t1 and t2 attached -> case 2
    r.mark();
    r.check_all();
  });
  EXPECT_GT(r.mbp.r().size(), 4u);
}

TEST(MbpSyncCases, Case3ChildSideAttached) {
  rig r;
  r.rt.run([&] {
    r.mark();
    rt::future<int> f;
    r.rt.spawn([&] {  // child carries the non-SP edge
      r.mark();
      f = r.rt.create_future([&] {
        r.mark();
        return 3;
      });
      f.get();
      r.mark();
    });
    r.mark();  // continuation is pure (unattached sink)
    r.rt.sync();
    r.mark();
    r.check_all();
  });
}

TEST(MbpSyncCases, Case3ContinuationSideAttached) {
  rig r;
  r.rt.run([&] {
    r.mark();
    r.rt.spawn([&] { r.mark(); });  // pure child
    auto f = r.rt.create_future([&] {  // continuation carries the future
      r.mark();
      return 4;
    });
    f.get();
    r.mark();
    r.rt.sync();
    r.mark();
    r.check_all();
  });
}

TEST(MbpSyncCases, MultiChildSyncMixedAttachment) {
  // Three children: pure, future-bearing, pure — the binary decomposition
  // walks case 3 / case 1 with virtual join strands in between.
  rig r;
  r.rt.run([&] {
    r.mark();
    r.rt.spawn([&] { r.mark(); });
    r.rt.spawn([&] {
      r.mark();
      auto f = r.rt.create_future([&] {
        r.mark();
        return 5;
      });
      f.get();
      r.mark();
    });
    r.rt.spawn([&] { r.mark(); });
    r.mark();
    r.rt.sync();
    r.mark();
    r.check_all();
  });
}

TEST(MbpSyncCases, FutureEscapingThroughNestedSyncs) {
  // A future created deep inside a spawned child escapes two sync scopes and
  // is joined by main much later; queries must stay exact throughout.
  rig r;
  rt::future<int> escapee;
  r.rt.run([&] {
    r.mark();
    r.rt.spawn([&] {
      r.mark();
      r.rt.spawn([&] {
        r.mark();
        escapee = r.rt.create_future([&] {
          r.mark();
          return 6;
        });
      });
      r.rt.sync();
      r.mark();
      r.check_all();  // escapee still parallel here
    });
    r.rt.sync();
    r.mark();
    r.check_all();  // and here
    escapee.get();
    r.mark();
    r.check_all();  // ordered from here on
  });
}

TEST(MbpSyncCases, MultiTouchAcrossParallelBranches) {
  // One future joined from three logically parallel places.
  rig r;
  r.rt.run([&] {
    r.mark();
    auto f = r.rt.create_future([&] {
      r.mark();
      return 7;
    });
    r.rt.spawn([&] {
      f.get();
      r.mark();
      r.check_all();
    });
    r.rt.spawn([&] {
      f.get();
      r.mark();
      r.check_all();
    });
    f.get();
    r.mark();
    r.check_all();
    r.rt.sync();
    r.mark();
    r.check_all();
  });
}

TEST(MbpSyncCases, DeepAlternatingSpawnFutureLadder) {
  // Alternate spawn and future levels 12 deep; verify at every unwind step.
  rig r;
  std::function<void(int)> ladder = [&](int depth) {
    r.mark();
    if (depth == 0) return;
    if (depth % 2 == 0) {
      r.rt.spawn([&, depth] { ladder(depth - 1); });
      r.rt.sync();
    } else {
      auto f = r.rt.create_future([&, depth]() -> int {
        ladder(depth - 1);
        return depth;
      });
      f.get();
    }
    r.mark();
    r.check_all();
  };
  r.rt.run([&] { ladder(12); });
}

}  // namespace
}  // namespace frd::detect
