// Sampling and bounded-history detection modes (DESIGN.md §8).
//
// Two contracts under test:
//
//   identity   sample_rate == 1.0 with unbounded history is not a mode: a
//              session configured that way explicitly must be byte-identical
//              to one that never heard of the knobs — same racy granules,
//              same retained races element-wise, same query-plane counters —
//              across the corpus and every eligible backend.
//   carve-out  sampled and bounded replays are seeded, reproducible, and
//              only ever shrink the report: per-granule sampling admits or
//              skips whole granules (subset of the full report), bounded
//              depth keeps the most-recent-N readers (suffix of the full
//              list), and the decision counters always partition the access
//              stream exactly.
//
// The corpus directory is baked in at compile time (FRD_CORPUS_DIR, set by
// CMake to <repo>/corpus) and overridable with the environment variable of
// the same name.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "corpus/golden.hpp"
#include "corpus/manifest.hpp"
#include "corpus/runner.hpp"
#include "detect/detector.hpp"
#include "detect/types.hpp"
#include "shadow/store.hpp"
#include "trace/event.hpp"

namespace frd {
namespace {

std::string corpus_dir() {
  if (const char* env = std::getenv("FRD_CORPUS_DIR")) return env;
  return FRD_CORPUS_DIR;
}

const corpus::manifest& corpus_manifest() {
  static const corpus::manifest m =
      corpus::load_manifest(corpus_dir() + "/MANIFEST");
  return m;
}

trace::memory_trace load_entry_trace(const corpus::corpus_entry& e) {
  return corpus::load_trace(corpus_dir() + "/" + e.trace_file);
}

void expect_identical_reports(const session& a, const session& b,
                              const std::string& what) {
  EXPECT_EQ(a.report().total(), b.report().total()) << what;
  EXPECT_EQ(a.report().racy_granules(), b.report().racy_granules()) << what;
  const std::vector<detect::race>& ra = a.report().retained();
  const std::vector<detect::race>& rb = b.report().retained();
  ASSERT_EQ(ra.size(), rb.size()) << what;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].granule_addr, rb[i].granule_addr) << what << " race " << i;
    EXPECT_EQ(ra[i].prior, rb[i].prior) << what << " race " << i;
    EXPECT_EQ(ra[i].prior_kind, rb[i].prior_kind) << what << " race " << i;
    EXPECT_EQ(ra[i].current, rb[i].current) << what << " race " << i;
    EXPECT_EQ(ra[i].current_kind, rb[i].current_kind) << what << " race " << i;
  }
  EXPECT_EQ(a.access_count(), b.access_count()) << what;
  EXPECT_EQ(a.get_count(), b.get_count()) << what;
  EXPECT_EQ(a.query_stats().lookups, b.query_stats().lookups) << what;
  EXPECT_EQ(a.query_stats().cache_hits, b.query_stats().cache_hits) << what;
  EXPECT_EQ(a.query_stats().batches, b.query_stats().batches) << what;
}

// --------------------------------------------------------- identity cube --

struct identity_case {
  std::string entry;
  std::string backend;
};

// Every (entry, backend) pair. XL entries run under the default backend only
// to keep the suite inside test time.
std::vector<identity_case> identity_cases() {
  std::vector<identity_case> out;
  try {
    for (const corpus::corpus_entry& e : corpus_manifest().entries) {
      const corpus::golden_report gold =
          corpus::load_golden(corpus_dir() + "/" + e.golden_file);
      const bool xl = gold.events > 600000;
      for (const std::string& b : corpus::eligible_backends(e.futures)) {
        if (xl && b != "multibags+") continue;
        out.push_back({e.name, b});
      }
    }
  } catch (const std::exception&) {
    // Static-init time (ValuesIn below): degrade to zero cases and let the
    // serial conformance suite report the corpus path problem.
  }
  return out;
}

class RateOneIdentity : public ::testing::TestWithParam<identity_case> {};

TEST_P(RateOneIdentity, ExplicitRateOneIsByteIdenticalToTheDefault) {
  const identity_case& c = GetParam();
  const corpus::corpus_entry* e = corpus_manifest().find(c.entry);
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_entry_trace(*e);
  const corpus::golden_report gold =
      corpus::load_golden(corpus_dir() + "/" + e->golden_file);

  session plain(session::options{.backend = c.backend,
                                 .granule = tape.header().granule});
  plain.replay(tape);
  tape.rewind();
  // The seed and policy must be dead knobs at rate 1.0.
  session cfg(session::options{.backend = c.backend,
                               .granule = tape.header().granule,
                               .sample_rate = 1.0,
                               .sample_seed = 0xDEADBEEF,
                               .sampling = detect::sample_policy::epoch,
                               .shadow_history_depth =
                                   shadow::kUnboundedHistory});
  cfg.replay(tape);
  tape.rewind();

  expect_identical_reports(plain, cfg, c.entry + "/" + c.backend);
  EXPECT_EQ(cfg.query_stats().sampled, 0u)
      << "rate 1.0 must not pay for sampling bookkeeping";
  EXPECT_EQ(cfg.query_stats().skipped, 0u);
  // And both match the golden (redundant with conformance, cheap to assert).
  std::set<std::uint64_t> racy;
  for (std::uintptr_t g : cfg.report().racy_granules())
    racy.insert(static_cast<std::uint64_t>(g));
  EXPECT_EQ(racy, gold.racy_granules) << c.entry;
}

std::string identity_name(const ::testing::TestParamInfo<identity_case>& info) {
  std::string s = info.param.entry + "_" + info.param.backend;
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Manifest, RateOneIdentity,
                         ::testing::ValuesIn(identity_cases()), identity_name);

// ---------------------------------------------------- sampled replays -----

session::options sampled_options(std::size_t granule, double rate,
                                 std::uint64_t seed,
                                 detect::sample_policy policy =
                                     detect::sample_policy::granule) {
  return session::options{.backend = "multibags+",
                          .granule = granule,
                          .sample_rate = rate,
                          .sample_seed = seed,
                          .sampling = policy};
}

// Same seed, same trace => the same sampled set, the same report, twice.
TEST(Sampling, SameSeedIsDeterministic) {
  const corpus::corpus_entry* e = corpus_manifest().find("fuzz-general");
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_entry_trace(*e);

  session first(sampled_options(tape.header().granule, 0.3, 7));
  first.replay(tape);
  tape.rewind();
  session second(sampled_options(tape.header().granule, 0.3, 7));
  second.replay(tape);
  tape.rewind();

  expect_identical_reports(first, second, "fuzz-general rate 0.3 seed 7");
  EXPECT_EQ(first.query_stats().sampled, second.query_stats().sampled);
  EXPECT_EQ(first.query_stats().skipped, second.query_stats().skipped);
  // The decision counters partition the access stream exactly.
  EXPECT_EQ(first.query_stats().sampled + first.query_stats().skipped,
            first.access_count());
  EXPECT_GT(first.query_stats().sampled, 0u);
  EXPECT_GT(first.query_stats().skipped, 0u);
}

// The seed is live: across a handful of seeds the admitted set must move.
TEST(Sampling, DifferentSeedsSampleDifferentSets) {
  const corpus::corpus_entry* e = corpus_manifest().find("fuzz-general");
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_entry_trace(*e);

  std::set<std::uint64_t> sampled_counts;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    session s(sampled_options(tape.header().granule, 0.3, seed));
    s.replay(tape);
    tape.rewind();
    sampled_counts.insert(s.query_stats().sampled);
  }
  EXPECT_GT(sampled_counts.size(), 1u)
      << "five seeds admitted identical access sets — the seed is dead";
}

// Per-granule sampling admits or skips whole granules, so whatever it
// reports racy must be racy in the full report too.
TEST(Sampling, GranulePolicyReportsASubsetOfTheFullReport) {
  const corpus::corpus_entry* e = corpus_manifest().find("fuzz-general");
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_entry_trace(*e);

  session full(sampled_options(tape.header().granule, 1.0, 1));
  full.replay(tape);
  tape.rewind();
  const std::set<std::uintptr_t>& all = full.report().racy_granules();
  ASSERT_GT(all.size(), 0u) << "fuzz-general must carry races for this test";

  for (double rate : {0.5, 0.2, 0.05}) {
    session s(sampled_options(tape.header().granule, rate, 1));
    s.replay(tape);
    tape.rewind();
    for (std::uintptr_t g : s.report().racy_granules()) {
      EXPECT_TRUE(all.count(g))
          << "rate " << rate << " reported granule " << std::hex << g
          << " that full detection does not";
    }
  }
}

// Epoch policy: whole batches are admitted or skipped together, and the
// counters still partition the stream.
TEST(Sampling, EpochPolicyPartitionsTheStream) {
  const corpus::corpus_entry* e = corpus_manifest().find("fuzz-general");
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_entry_trace(*e);

  session s(sampled_options(tape.header().granule, 0.5, 1,
                            detect::sample_policy::epoch));
  s.replay(tape);
  tape.rewind();
  EXPECT_EQ(s.query_stats().sampled + s.query_stats().skipped,
            s.access_count());
  EXPECT_GT(s.query_stats().sampled, 0u);
  EXPECT_GT(s.query_stats().skipped, 0u);
}

// Live hooks count one access per granule, so a multi-granule access keeps
// the partition exact: each of its granules is sampled or skipped.
TEST(Sampling, LiveMultiGranuleAccessesPartitionPerGranule) {
  session s(session::options{.backend = "multibags+", .sample_rate = 0.5});
  alignas(8) static std::array<std::uint64_t, 100> cells;
  s.run([&] {
    for (auto& c : cells) s.write(&c, sizeof c);
  });
  EXPECT_EQ(s.access_count(), 200u);
  EXPECT_EQ(s.query_stats().sampled + s.query_stats().skipped,
            s.access_count());
}

// ---------------------------------------------------- bounded history -----

// Store-level: the store keeps exactly the most-recent-N readers in append
// order once the depth is hit.
TEST(BoundedHistory, TheStoreKeepsTheMostRecentReaders) {
  shadow::store mem(shadow::store_config{.page_bits = 8,
                                         .granule_shift = 2,
                                         .history_depth = 2});
  for (unsigned r = 1; r <= 5; ++r) {
    (void)mem.read_step(0x1000, rt::strand_id{r});
  }
  const shadow::store::granule_state st = mem.peek(0x1000);
  ASSERT_TRUE(st.touched);
  ASSERT_EQ(st.readers.size(), 2u) << "retained more readers than the depth";
  EXPECT_EQ(st.readers[0], rt::strand_id{4});
  EXPECT_EQ(st.readers[1], rt::strand_id{5});
}

// Depths past the inline capacity exercise the overflow vector.
TEST(BoundedHistory, DepthPastInlineCapacityDropsFromTheFront) {
  shadow::store mem(shadow::store_config{.page_bits = 8,
                                         .granule_shift = 2,
                                         .history_depth = 9});
  for (unsigned r = 1; r <= 30; ++r) {
    (void)mem.read_step(0x2000, rt::strand_id{r});
  }
  const shadow::store::granule_state st = mem.peek(0x2000);
  ASSERT_EQ(st.readers.size(), 9u);
  for (unsigned i = 0; i < 9; ++i) {
    EXPECT_EQ(st.readers[i], rt::strand_id{22 + i}) << "reader slot " << i;
  }
}

// Session-level: on the purge-stress shape (reader lists grown and purged
// round after round) a bounded session must only ever shrink the full
// report, and a second replay must reproduce the first.
TEST(BoundedHistory, PurgeStressOnlyShrinksTheReportAtEveryDepth) {
  const corpus::corpus_entry* e = corpus_manifest().find("purge-stress");
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_entry_trace(*e);
  const corpus::golden_report gold =
      corpus::load_golden(corpus_dir() + "/" + e->golden_file);

  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    std::vector<std::unique_ptr<session>> runs;
    for (int round = 0; round < 2; ++round) {
      auto s = std::make_unique<session>(
          session::options{.backend = "multibags+",
                           .granule = tape.header().granule,
                           .shadow_history_depth = depth});
      s->replay(tape);
      tape.rewind();
      for (std::uintptr_t g : s->report().racy_granules()) {
        EXPECT_TRUE(gold.racy_granules.count(static_cast<std::uint64_t>(g)))
            << "depth " << depth << " invented a racy granule";
      }
      runs.push_back(std::move(s));
    }
    expect_identical_reports(*runs[0], *runs[1],
                             "replay vs replay at depth " +
                                 std::to_string(depth));
  }
}

// The wide-fanin shape (40 siblings racing one granule) still reports that
// granule at depth 1: the single retained reader is enough to pair with the
// racing writer.
TEST(BoundedHistory, DepthOneStillCatchesTheWideFaninRace) {
  const corpus::corpus_entry* e = corpus_manifest().find("wide-fanin");
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_entry_trace(*e);
  const corpus::golden_report gold =
      corpus::load_golden(corpus_dir() + "/" + e->golden_file);

  session s(session::options{.backend = "multibags+",
                             .granule = tape.header().granule,
                             .shadow_history_depth = 1});
  s.replay(tape);
  tape.rewind();
  EXPECT_GT(s.report().racy_granules().size(), 0u);
  for (std::uintptr_t g : s.report().racy_granules()) {
    EXPECT_TRUE(gold.racy_granules.count(static_cast<std::uint64_t>(g)));
  }
}

// ------------------------------------------------------- config errors ----

TEST(SamplingConfig, RejectsOutOfRangeRates) {
  EXPECT_THROW(session(session::options{.sample_rate = 0.0}),
               detect::backend_error);
  EXPECT_THROW(session(session::options{.sample_rate = -0.25}),
               detect::backend_error);
  EXPECT_THROW(session(session::options{.sample_rate = 1.5}),
               detect::backend_error);
}

TEST(SamplingConfig, RejectsADepthZeroHistory) {
  EXPECT_THROW(session(session::options{.shadow_history_depth = 0}),
               shadow::store_error);
}

TEST(SamplingConfig, AcceptsTheBoundaryValues) {
  EXPECT_NO_THROW(session(session::options{.sample_rate = 1.0}));
  EXPECT_NO_THROW(session(session::options{.sample_rate = 0.0001}));
  EXPECT_NO_THROW(session(session::options{.shadow_history_depth = 1}));
}

}  // namespace
}  // namespace frd
