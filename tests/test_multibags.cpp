// MultiBags behavioural tests, including the paper's Figure 2 worked example
// reproduced as an executable scenario. Each scenario also runs under
// MultiBags+ — on structured programs the two must answer identically.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "detect/backend.hpp"
#include "detect/multibags.hpp"
#include "detect/multibags_plus.hpp"
#include "runtime/serial.hpp"

namespace frd::detect {
namespace {

using rt::strand_id;

std::unique_ptr<reachability_backend> make(const std::string& which) {
  if (which == "multibags") return std::make_unique<multibags>();
  return std::make_unique<multibags_plus>();
}

class BothBackends : public ::testing::TestWithParam<std::string> {};

// ---------------------------------------------------------------------------
// Paper Figure 2: A creates future B; B creates C; C creates D and E and
// joins only E; B joins C then creates F passing it D's handle; F joins D;
// A joins B, then joins F (handle conveyed through B). The program is
// structured: every handle is touched once and each creator precedes its
// getter.
// ---------------------------------------------------------------------------
TEST_P(BothBackends, PaperFigure2Scenario) {
  auto backend = make(GetParam());
  rt::serial_runtime rt(backend.get());
  rt.enforce_single_touch(true);

  // Strand ids captured at the paper's interesting points.
  strand_id a1 = rt::kNoStrand;     // node 1: A before creating B
  strand_id b2 = rt::kNoStrand;     // node 2: B's first strand
  strand_id c3 = rt::kNoStrand;     // node 3: C's first strand
  strand_id d4 = rt::kNoStrand;     // node 4: all of D
  strand_id c5 = rt::kNoStrand;     // node 5: C after creating D... (creates E)
  strand_id e6 = rt::kNoStrand;     // nodes 6-7: all of E
  strand_id c9 = rt::kNoStrand;     // node 9: C after joining E
  strand_id b11 = rt::kNoStrand;    // node 11: B after joining C (creates F)
  strand_id f12 = rt::kNoStrand;    // node 12: F's first strand
  strand_id f13 = rt::kNoStrand;    // node 13: F after joining D
  strand_id b14 = rt::kNoStrand;    // node 14: B after creating F
  strand_id a16 = rt::kNoStrand;    // node 16: A after joining B
  strand_id a17 = rt::kNoStrand;    // node 17: A after joining F

  rt::future<int> hD, hE, hF, hC, hB;

  auto precedes = [&](strand_id u) { return backend->precedes_current(u); };

  rt.run([&] {
    a1 = rt.current_strand();
    hB = rt.create_future([&]() -> int {
      b2 = rt.current_strand();
      hC = rt.create_future([&]() -> int {
        c3 = rt.current_strand();
        hD = rt.create_future([&]() -> int {
          d4 = rt.current_strand();
          return 4;
        });
        c5 = rt.current_strand();
        hE = rt.create_future([&]() -> int {
          e6 = rt.current_strand();
          // Paper table, row for node 6: A, B, C active (their strands are
          // in S-bags); D returned and unjoined (P-bag).
          EXPECT_TRUE(precedes(a1));
          EXPECT_TRUE(precedes(b2));
          EXPECT_TRUE(precedes(c3));
          EXPECT_TRUE(precedes(c5));
          EXPECT_FALSE(precedes(d4)) << "D is logically parallel to E";
          return 6;
        });
        EXPECT_EQ(hE.get(), 6);
        c9 = rt.current_strand();
        // Row 9: E's strands joined C's S-bag; D still parallel.
        EXPECT_TRUE(precedes(e6));
        EXPECT_FALSE(precedes(d4));
        return 3;
      });
      EXPECT_EQ(hC.get(), 3);
      b11 = rt.current_strand();
      // Row 11: all of C (and E through it) now precedes B's strand.
      EXPECT_TRUE(precedes(c3));
      EXPECT_TRUE(precedes(c5));
      EXPECT_TRUE(precedes(c9));
      EXPECT_TRUE(precedes(e6));
      EXPECT_FALSE(precedes(d4));
      hF = rt.create_future([&]() -> int {
        f12 = rt.current_strand();
        // Paper §4.1: "Consider step 12 when the first node of function F is
        // executing. All nodes except node 4 are sequentially before this
        // strand ... Node 4 is in parallel with this strand and is in a
        // P-bag."
        EXPECT_TRUE(precedes(a1));
        EXPECT_TRUE(precedes(b2));
        EXPECT_TRUE(precedes(c3));
        EXPECT_TRUE(precedes(c5));
        EXPECT_TRUE(precedes(e6));
        EXPECT_TRUE(precedes(c9));
        EXPECT_TRUE(precedes(b11));
        EXPECT_FALSE(precedes(d4));
        EXPECT_EQ(hD.get(), 4);  // F joins D (paper: node 12 gets D)
        f13 = rt.current_strand();
        EXPECT_TRUE(precedes(d4)) << "after get, D precedes F's strand";
        return 12;
      });
      b14 = rt.current_strand();
      // Row 14: F returned; its strands (and D's, absorbed at F's get) are
      // in F's P-bag — parallel to B.
      EXPECT_FALSE(precedes(f12));
      EXPECT_FALSE(precedes(f13));
      EXPECT_FALSE(precedes(d4));
      return 2;
    });
    EXPECT_EQ(hB.get(), 2);
    a16 = rt.current_strand();
    // Row 16: everything except {4, 12, 13} precedes A's strand.
    EXPECT_TRUE(precedes(b2));
    EXPECT_TRUE(precedes(c3));
    EXPECT_TRUE(precedes(e6));
    EXPECT_TRUE(precedes(b11));
    EXPECT_TRUE(precedes(b14));
    EXPECT_FALSE(precedes(f12));
    EXPECT_FALSE(precedes(f13));
    EXPECT_FALSE(precedes(d4));
    EXPECT_EQ(hF.get(), 12);
    a17 = rt.current_strand();
    // Row 17: the final get folds everything into A's S-bag.
    EXPECT_TRUE(precedes(d4));
    EXPECT_TRUE(precedes(f12));
    EXPECT_TRUE(precedes(f13));
    EXPECT_TRUE(precedes(a16));
  });

  EXPECT_EQ(backend->structured_violations(), 0u);
  EXPECT_NE(a17, rt::kNoStrand);
}

// ---------------------------------------------------------------------------
// Elementary reachability scenarios under both backends.
// ---------------------------------------------------------------------------
TEST_P(BothBackends, SpawnContinuationIsParallel) {
  auto backend = make(GetParam());
  rt::serial_runtime rt(backend.get());
  strand_id child = rt::kNoStrand;
  rt.run([&] {
    rt.spawn([&] { child = rt.current_strand(); });
    EXPECT_FALSE(backend->precedes_current(child));
    rt.sync();
    EXPECT_TRUE(backend->precedes_current(child));
  });
}

TEST_P(BothBackends, SiblingSpawnsAreParallel) {
  auto backend = make(GetParam());
  rt::serial_runtime rt(backend.get());
  strand_id first = rt::kNoStrand;
  rt.run([&] {
    rt.spawn([&] { first = rt.current_strand(); });
    rt.spawn([&] {
      EXPECT_FALSE(backend->precedes_current(first));
    });
    rt.sync();
    EXPECT_TRUE(backend->precedes_current(first));
  });
}

TEST_P(BothBackends, FutureEscapesEnclosingSync) {
  auto backend = make(GetParam());
  rt::serial_runtime rt(backend.get());
  strand_id fut_strand = rt::kNoStrand;
  rt.run([&] {
    auto h = rt.create_future([&] {
      fut_strand = rt.current_strand();
      return 0;
    });
    rt.spawn([&] {});
    rt.sync();
    // sync does not join the future.
    EXPECT_FALSE(backend->precedes_current(fut_strand));
    h.get();
    EXPECT_TRUE(backend->precedes_current(fut_strand));
  });
}

TEST_P(BothBackends, DeepSpawnChainPrecedesAfterAllSyncs) {
  auto backend = make(GetParam());
  rt::serial_runtime rt(backend.get());
  std::vector<strand_id> leaves;
  std::function<void(int)> go = [&](int depth) {
    if (depth == 0) {
      leaves.push_back(rt.current_strand());
      return;
    }
    rt.spawn([&, depth] { go(depth - 1); });
    rt.spawn([&, depth] { go(depth - 1); });
    rt.sync();
  };
  rt.run([&] {
    go(5);
    for (strand_id s : leaves) EXPECT_TRUE(backend->precedes_current(s));
  });
  EXPECT_EQ(leaves.size(), 32u);
}

TEST_P(BothBackends, FutureChainPipeline) {
  // h1 -> h2 -> h3 pipeline: stage i+1 gets stage i. A consumer joining only
  // h3 is ordered after every stage.
  auto backend = make(GetParam());
  rt::serial_runtime rt(backend.get());
  strand_id s1 = rt::kNoStrand, s2 = rt::kNoStrand, s3 = rt::kNoStrand;
  rt::future<int> h1, h2, h3;
  rt.run([&] {
    h1 = rt.create_future([&] {
      s1 = rt.current_strand();
      return 1;
    });
    h2 = rt.create_future([&] {
      s2 = rt.current_strand();
      return h1.get() + 1;
    });
    h3 = rt.create_future([&] {
      s3 = rt.current_strand();
      return h2.get() + 1;
    });
    EXPECT_FALSE(backend->precedes_current(s1));
    EXPECT_FALSE(backend->precedes_current(s2));
    EXPECT_FALSE(backend->precedes_current(s3));
    EXPECT_EQ(h3.get(), 3);
    EXPECT_TRUE(backend->precedes_current(s1));
    EXPECT_TRUE(backend->precedes_current(s2));
    EXPECT_TRUE(backend->precedes_current(s3));
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, BothBackends,
                         ::testing::Values("multibags", "multibags_plus"));

// ---------------------------------------------------------------------------
// MultiBags-specific: structured-discipline violation detection.
// ---------------------------------------------------------------------------
TEST(MultiBags, FlagsUnstructuredGet) {
  // The handle is created inside a spawned child and joined by the parent's
  // continuation, which is logically parallel to the creator strand: that
  // violates "creator sequentially precedes getter" (§2).
  multibags mb;
  rt::serial_runtime rt(&mb);
  rt::future<int> h;
  rt.run([&] {
    rt.spawn([&] { h = rt.create_future([] { return 1; }); });
    h.get();  // parallel to the creator strand inside the spawned child
    rt.sync();
  });
  EXPECT_GT(mb.structured_violations(), 0u);
}

TEST(MultiBags, NoViolationWhenCreatorPrecedesGetter) {
  multibags mb;
  rt::serial_runtime rt(&mb);
  rt.run([&] {
    auto h = rt.create_future([] { return 1; });
    rt.spawn([&] { h.get(); });  // creator strand precedes the child
    rt.sync();
  });
  EXPECT_EQ(mb.structured_violations(), 0u);
}

}  // namespace
}  // namespace frd::detect
