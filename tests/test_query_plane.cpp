// Query-plane tests: each backend's precedes_current and the detector's
// per-epoch answer cache in front of it.
//
// Three angles:
//   1. Backends against the oracle: for every corpus entry × eligible
//      backend, the backend's precedes_current must answer exactly like the
//      exact graph::online_oracle riding the same replayed stream, for a
//      window of recent strands at many points of the stream.
//   2. Epoch invalidation: version() advances on every dag event, a
//      backend's answers change with it, and the detector's per-epoch
//      answer cache must not leak a stale verdict across a dag event.
//   3. Counters: the detector's query_plane_stats count one backend call
//      per strand and epoch (memoization within an epoch).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "corpus/manifest.hpp"
#include "corpus/runner.hpp"
#include "detect/backend.hpp"
#include "detect/multibags_plus.hpp"
#include "detect/registry.hpp"
#include "graph/oracle.hpp"
#include "runtime/serial.hpp"
#include "trace/player.hpp"

namespace frd::detect {
namespace {

std::string corpus_dir() {
  if (const char* env = std::getenv("FRD_CORPUS_DIR")) return env;
  return FRD_CORPUS_DIR;
}

// ------------------------------------------------ backend vs oracle ----

// Rides a replayed dag stream behind a backend and the exact oracle (mux
// order: backend, oracle, checker) and, every third strand, asks the
// backend about each strand of a window of recent ones, comparing every
// answer with the oracle's.
class oracle_checker final : public rt::execution_listener {
 public:
  oracle_checker(reachability_backend& b, const graph::online_oracle& o)
      : backend_(b), oracle_(o) {}

  std::uint64_t queries_checked = 0;

  void on_program_begin(rt::func_id, rt::strand_id s) override { seen(s); }
  void on_strand_begin(rt::strand_id s, rt::func_id) override {
    seen(s);
    if (++events_ % 3 == 0) check_window();
  }

 private:
  void seen(rt::strand_id s) {
    current_ = s;
    known_.push_back(s);
    if (known_.size() > kWindow) known_.erase(known_.begin());
  }

  void check_window() {
    for (const rt::strand_id u : known_) {
      if (u == current_) continue;
      ASSERT_EQ(backend_.precedes_current(u), oracle_.precedes(u, current_))
          << "strand " << u << " vs current " << current_ << " (backend "
          << backend_.name() << ")";
      ++queries_checked;
    }
  }

  static constexpr std::size_t kWindow = 48;
  reachability_backend& backend_;
  const graph::online_oracle& oracle_;
  std::vector<rt::strand_id> known_;
  rt::strand_id current_ = rt::kNoStrand;
  std::uint64_t events_ = 0;
};

struct query_case {
  std::string entry;
  std::string backend;
};

std::vector<query_case> all_query_cases() {
  std::vector<query_case> out;
  try {
    const corpus::manifest m =
        corpus::load_manifest(corpus_dir() + "/MANIFEST");
    for (const corpus::corpus_entry& e : m.entries) {
      for (const std::string& b : corpus::eligible_backends(e.futures)) {
        out.push_back({e.name, b});
      }
    }
  } catch (const std::exception&) {
    // Degrade to zero cases; CorpusInventory.ManifestLoads (conformance
    // suite) reports the broken corpus with its path.
  }
  return out;
}

class BackendVsOracle : public ::testing::TestWithParam<query_case> {};

TEST_P(BackendVsOracle, CorpusReplayAgrees) {
  const query_case& c = GetParam();
  const corpus::manifest m = corpus::load_manifest(corpus_dir() + "/MANIFEST");
  const corpus::corpus_entry* e = m.find(c.entry);
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = corpus::load_trace(corpus_dir() + "/" +
                                                e->trace_file);

  std::unique_ptr<reachability_backend> backend =
      backend_registry::instance().create(c.backend);
  graph::online_oracle oracle;
  oracle_checker checker(*backend, oracle);
  rt::listener_mux mux;
  mux.add(backend.get());
  mux.add(&oracle);
  mux.add(&checker);
  trace::trace_player player(tape);
  player.play(&mux, /*sink=*/nullptr);

  EXPECT_GT(checker.queries_checked, 0u) << "vacuous run: nothing checked";
}

std::string query_case_name(const ::testing::TestParamInfo<query_case>& info) {
  std::string s = info.param.entry + "_" + info.param.backend;
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Corpus, BackendVsOracle,
                         ::testing::ValuesIn(all_query_cases()),
                         query_case_name);

// ---------------------------------------------------- epoch semantics ----

TEST(QueryPlaneEpoch, EveryDagEventAdvancesTheVersion) {
  multibags_plus mbp;
  rt::serial_runtime rt(&mbp);
  std::uint64_t last = mbp.version();
  EXPECT_EQ(last, 0u) << "a fresh backend starts at epoch 0";
  const auto bumped = [&] {
    const std::uint64_t now = mbp.version();
    const bool ok = now > last;
    last = now;
    return ok;
  };
  rt.run([&] {
    EXPECT_TRUE(bumped()) << "program_begin must open an epoch";
    rt.spawn([&] { EXPECT_TRUE(bumped()) << "spawn/strand_begin"; });
    EXPECT_TRUE(bumped()) << "return/strand_begin after the child";
    auto f = rt.create_future([&] {
      EXPECT_TRUE(bumped()) << "create/strand_begin";
      return 1;
    });
    EXPECT_TRUE(bumped());
    rt.sync();
    EXPECT_TRUE(bumped()) << "sync";
    f.get();
    EXPECT_TRUE(bumped()) << "get";
  });
  EXPECT_TRUE(bumped()) << "program_end";
}

TEST(QueryPlaneEpoch, AnswersTrackDagEventsAcrossEpochs) {
  multibags_plus mbp;
  rt::serial_runtime rt(&mbp);
  rt::strand_id child = rt::kNoStrand;
  rt.run([&] {
    rt.spawn([&] { child = rt.current_strand(); });
    const std::uint64_t before = mbp.version();
    EXPECT_FALSE(mbp.precedes_current(child)) << "spawn child is parallel";
    rt.sync();
    EXPECT_GT(mbp.version(), before) << "the dag event must open a new epoch";
    EXPECT_TRUE(mbp.precedes_current(child)) << "ordered after the sync";
  });
}

// The end-to-end teeth of invalidation: if the detector's per-epoch answer
// cache survived a dag event, the second write below would reuse the
// pre-sync "parallel" verdict for the child strand and report a second racy
// granule.
TEST(QueryPlaneEpoch, CachedAnswerDoesNotSurviveADagEvent) {
  session s("multibags+");
  int x = 0, y = 0;
  s.run([&] {
    auto& rt = s.runtime();
    rt.spawn([&] {
      s.write(&x);
      s.write(&y);
    });
    s.write(&x);  // child parallel: the one real race, answer cached
    rt.sync();    // epoch changes; the child now precedes
    s.write(&y);  // stale cache would resurface "parallel" and flag y
  });
  EXPECT_EQ(s.report().racy_granules().size(), 1u)
      << "a cached reachability answer leaked across a dag event";
  EXPECT_EQ(s.report().racy_granules().count(
                reinterpret_cast<std::uintptr_t>(&x) & ~std::uintptr_t{3}),
            1u);
}

// ---------------------------------------------------------- counters ----

TEST(QueryPlaneStats, MemoizationCollapsesRepeatQuestionsWithinAnEpoch) {
  session s("multibags+");
  constexpr int kCells = 64;
  alignas(64) static int cells[kCells];
  s.run([&] {
    auto& rt = s.runtime();
    rt.spawn([&] {
      for (int i = 0; i < kCells; ++i) s.write(&cells[i]);
    });
    // 64 prior-writer questions, all about the same child strand, with no
    // dag event in between: one backend call, 63 epoch-cache hits.
    for (int i = 0; i < kCells; ++i) s.write(&cells[i]);
    rt.sync();
  });
  const detect::query_plane_stats& q = s.query_stats();
  EXPECT_EQ(q.lookups, static_cast<std::uint64_t>(kCells));
  EXPECT_EQ(q.cache_hits, static_cast<std::uint64_t>(kCells - 1));
  EXPECT_EQ(q.batches, 1u);
  EXPECT_EQ(q.strands, 1u);
  EXPECT_EQ(s.report().racy_granules().size(), static_cast<std::size_t>(kCells));
}

TEST(QueryPlaneStats, ReplayedRunAsksTheBackendOncePerStrand) {
  // Record a program whose racy run spans many accesses, then replay it:
  // the player hands the run to the detector in one on_accesses call, and
  // its 32 questions about one strand in one epoch make one backend call.
  trace::memory_trace tape(trace::trace_header{trace::kTraceVersion, 4});
  constexpr int kCells = 32;
  alignas(64) static int cells[kCells];
  {
    session rec("multibags+");
    rec.record_to(tape);
    rec.run([&] {
      auto& rt = rec.runtime();
      rt.spawn([&] {
        for (int i = 0; i < kCells; ++i) rec.write(&cells[i]);
      });
      for (int i = 0; i < kCells; ++i) rec.write(&cells[i]);
      rt.sync();
    });
  }
  tape.rewind();
  session rep("multibags+");
  rep.replay(tape);
  const detect::query_plane_stats& q = rep.query_stats();
  EXPECT_EQ(q.lookups, static_cast<std::uint64_t>(kCells));
  EXPECT_EQ(q.batches, 1u) << "one strand in one epoch is one backend call";
  EXPECT_EQ(q.strands, 1u);
  EXPECT_EQ(rep.report().racy_granules().size(),
            static_cast<std::size_t>(kCells));
}

}  // namespace
}  // namespace frd::detect
