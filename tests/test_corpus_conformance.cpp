// Cross-backend conformance over the checked-in trace corpus.
//
// The corpus manifest is the test plan: every entry's trace replays through
// every eligible backend and the outcome must match the checked-in golden —
// adding a trace to corpus/ automatically adds this coverage. A failure
// names the entry, the backend, and the exact granules that diverged, so a
// regression reads as "vector-clock missed racy granule 0x100014 on
// wide-fanin", not as a boolean mismatch.
//
// The corpus directory is baked in at compile time (FRD_CORPUS_DIR, set by
// CMake to <repo>/corpus) and overridable with the environment variable of
// the same name.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "corpus/golden.hpp"
#include "corpus/manifest.hpp"
#include "corpus/programs.hpp"
#include "corpus/runner.hpp"
#include "shadow/store.hpp"
#include "trace/codec.hpp"
#include "trace/event.hpp"

namespace frd::corpus {
namespace {

std::string corpus_dir() {
  if (const char* env = std::getenv("FRD_CORPUS_DIR")) return env;
  return FRD_CORPUS_DIR;
}

const manifest& corpus_manifest() {
  static const manifest m = load_manifest(corpus_dir() + "/MANIFEST");
  return m;
}

// ------------------------------------------------------------ inventory --

TEST(CorpusInventory, ManifestLoads) {
  // The one place a broken corpus directory is reported with its path; the
  // suites below (including the parameterized instantiation, which degrades
  // to an empty case list rather than aborting) all depend on this.
  try {
    corpus_manifest();
  } catch (const std::exception& e) {
    FAIL() << "corpus manifest failed to load: " << e.what()
           << " (corpus dir: " << corpus_dir() << ")";
  }
}

TEST(CorpusInventory, MeetsTheCoverageFloor) {
  const manifest& m = corpus_manifest();
  EXPECT_GE(m.entries.size(), 15u);
  std::size_t paper = 0, adversarial = 0, general = 0;
  for (const corpus_entry& e : m.entries) {
    if (e.kind == entry_kind::paper_kernel) ++paper;
    if (e.kind == entry_kind::adversarial) ++adversarial;
    if (e.futures == detect::future_support::general) ++general;
  }
  EXPECT_GE(paper, 7u) << "corpus must keep >= 7 paper kernels (lcs, sw, "
                          "bst, dedup, heartwall, mm families incl. the "
                          "mm-structured-large scale-up)";
  EXPECT_GE(adversarial, 4u) << "corpus must keep >= 4 adversarial shapes";
  EXPECT_GE(general, 1u) << "corpus must keep >= 1 general-futures program";
}

TEST(CorpusInventory, EveryEntryNamesARegisteredProgram) {
  for (const corpus_entry& e : corpus_manifest().entries) {
    const corpus_program* p = find_program(e.program);
    ASSERT_NE(p, nullptr) << "entry '" << e.name << "' names unknown program '"
                          << e.program << "'";
    EXPECT_EQ(p->futures, e.futures)
        << "entry '" << e.name << "' declares a future class its program '"
        << e.program << "' does not have";
  }
}

// ---------------------------------------------------------- conformance --

// One test per (entry, backend) pair via value-parameterization over the
// manifest: ctest output localizes a divergence without re-running
// anything.
struct conformance_case {
  std::string entry;
  std::string backend;
};

std::vector<conformance_case> all_cases() {
  std::vector<conformance_case> out;
  try {
    for (const corpus_entry& e : corpus_manifest().entries) {
      for (const std::string& b : eligible_backends(e.futures)) {
        out.push_back({e.name, b});
      }
    }
  } catch (const std::exception&) {
    // This runs at static-init time (ValuesIn below): throwing here would
    // terminate the binary with no gtest output. Degrade to zero cases and
    // let CorpusInventory.ManifestLoads report the path and the parse error.
  }
  return out;
}

class CorpusConformance : public ::testing::TestWithParam<conformance_case> {};

TEST_P(CorpusConformance, ReplayMatchesGolden) {
  const conformance_case& c = GetParam();
  const corpus_entry* e = corpus_manifest().find(c.entry);
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_trace(corpus_dir() + "/" + e->trace_file);
  const golden_report golden =
      load_golden(corpus_dir() + "/" + e->golden_file);
  ASSERT_EQ(tape.header().granule, e->granule)
      << "manifest and trace header disagree about the granule";

  const std::vector<std::string> details =
      check_backend(tape, golden, c.backend);
  for (const std::string& d : details) {
    ADD_FAILURE() << "backend '" << c.backend << "' diverged on corpus entry '"
                  << c.entry << "': " << d;
  }
}

std::string case_name(const ::testing::TestParamInfo<conformance_case>& info) {
  std::string s = info.param.entry + "_" + info.param.backend;
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Manifest, CorpusConformance,
                         ::testing::ValuesIn(all_cases()), case_name);

// A live run counts an access once per granule, as its recording does, so
// it reports the golden's access and get counts. bst's 8-byte pointer
// accesses span two granules each, so a count per hook call would read half
// the golden's.
TEST(CorpusLiveCounts, LiveRunsCountWhatTheGoldenCounts) {
  for (const corpus_entry& e : corpus_manifest().entries) {
    const golden_report golden =
        load_golden(corpus_dir() + "/" + e.golden_file);
    session s(session::options{
        .backend = eligible_backends(e.futures).front(),
        .granule = e.granule});
    find_program(e.program)->run(s, e.seed);
    EXPECT_EQ(s.access_count(), golden.accesses) << e.name;
    EXPECT_EQ(s.get_count(), golden.gets) << e.name;
  }
}

// ------------------------------------------------------ sampling pin --

// The sampling frontier's detection, pinned. The admit decision is a seeded
// hash of the versioned trace content (DESIGN.md §8), so these counts are the
// same on every host, and a change to the default seed, the hash, the policy
// or what bounded history keeps shows up here. Each cell is the number of
// golden racy granules a multibags+ replay reports at that point of the
// replay_throughput frontier sweep.
constexpr double kPinnedRates[] = {1, 0.5, 0.2, 0.1, 0.05};
constexpr std::size_t kPinnedDepths[] = {shadow::kUnboundedHistory, 8, 2};

struct frontier_pin {
  const char* entry;
  std::size_t golden;
  std::size_t detected[3][5];  // [depth][rate], in the orders above
};

constexpr frontier_pin kFrontierPins[] = {
    {"mm-structured-xl",
     0,
     {{0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0}}},
    {"tracking-structured-xl",
     80,
     {{80, 37, 19, 7, 3}, {80, 37, 19, 7, 3}, {80, 37, 19, 7, 3}}},
    {"wavefront-structured-large",
     32,
     {{32, 17, 6, 3, 2}, {32, 17, 6, 3, 2}, {32, 17, 6, 3, 2}}},
};

TEST(SamplingFrontierPin, DetectedGoldenGranulesMatchThePinnedTable) {
  for (const frontier_pin& pin : kFrontierPins) {
    const corpus_entry* e = corpus_manifest().find(pin.entry);
    ASSERT_NE(e, nullptr) << pin.entry;
    trace::memory_trace tape = load_trace(corpus_dir() + "/" + e->trace_file);
    const golden_report golden =
        load_golden(corpus_dir() + "/" + e->golden_file);
    ASSERT_EQ(golden.racy_granules.size(), pin.golden) << pin.entry;
    for (std::size_t d = 0; d < std::size(kPinnedDepths); ++d) {
      for (std::size_t r = 0; r < std::size(kPinnedRates); ++r) {
        tape.rewind();
        session s(session::options{.backend = "multibags+",
                                   .granule = tape.header().granule,
                                   .sample_rate = kPinnedRates[r],
                                   .shadow_history_depth = kPinnedDepths[d]});
        s.replay(tape);
        const auto& racy = s.report().racy_granules();
        std::size_t detected = 0;
        for (const std::uintptr_t g : racy) {
          detected += golden.racy_granules.count(g);
        }
        std::ostringstream at;
        at << pin.entry << " at rate " << kPinnedRates[r] << ", depth "
           << (d == 0 ? std::string("unbounded")
                      : std::to_string(kPinnedDepths[d]));
        EXPECT_EQ(detected, racy.size())
            << at.str() << ": reported a granule outside the golden";
        EXPECT_EQ(detected, pin.detected[d][r]) << at.str();
      }
    }
  }
}

// --------------------------------------------------------- determinism --

// Regenerating an entry in-process must reproduce the checked-in trace
// byte-for-byte: address normalization makes corpus artifacts
// machine-independent, and this is the test that keeps that promise honest.
// One static-cells shape and one fuzz program keep it cheap; bst-structured
// holds its resolver's merge-tree sort to the serial push order.
class CorpusDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusDeterminism, RegenerationReproducesTheCheckedInTrace) {
  const corpus_entry* e = corpus_manifest().find(GetParam());
  ASSERT_NE(e, nullptr);
  trace::memory_trace fresh = record_entry(*e);
  trace::memory_trace checked_in =
      load_trace(corpus_dir() + "/" + e->trace_file);
  ASSERT_EQ(fresh.header().granule, checked_in.header().granule);
  ASSERT_EQ(fresh.size(), checked_in.size())
      << "regenerated trace has a different event count — the program or "
         "the recorder changed; run `frd-corpus generate` and review the diff";
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(fresh.events()[i], checked_in.events()[i])
        << "first divergence at event " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Entries, CorpusDeterminism,
                         ::testing::Values("wide-fanin", "sync-heavy",
                                           "fuzz-structured", "mm-structured",
                                           "bst-structured"),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// ------------------------------------------------------------- codecs --

TEST(GoldenCodec, RoundTripsAndValidates) {
  golden_report g;
  g.granule = 4;
  g.events = 100;
  g.accesses = 40;
  g.gets = 7;
  g.violations = 1;
  g.racy_granules = {0x100000, 0x100014, 0x1000a0};
  std::ostringstream out;
  write_golden(out, g);
  std::istringstream in(out.str());
  EXPECT_EQ(read_golden(in), g);

  // A truncated racy list (count disagrees with the lines) is corruption.
  std::string text = out.str();
  text.resize(text.rfind("racy 0x"));
  std::istringstream bad(text);
  EXPECT_THROW(read_golden(bad), corpus_error);

  std::istringstream junk("granule 4\nracy_granules 0\nwat 3\n");
  EXPECT_THROW(read_golden(junk), corpus_error);
  std::istringstream empty("");
  EXPECT_THROW(read_golden(empty), corpus_error);
}

TEST(GoldenCodec, DiffNamesTheDivergentGranules) {
  golden_report want, got;
  want.racy_granules = {0x100000, 0x100004};
  got.racy_granules = {0x100004, 0x100008};
  got.gets = 3;
  const auto diff = diff_goldens(want, got, /*compare_violations=*/true);
  ASSERT_EQ(diff.size(), 3u);  // gets mismatch + one missing + one unexpected
  bool missing = false, unexpected = false;
  for (const std::string& d : diff) {
    if (d.find("0x100000") != std::string::npos &&
        d.find("missed") != std::string::npos) {
      missing = true;
    }
    if (d.find("0x100008") != std::string::npos &&
        d.find("race-free") != std::string::npos) {
      unexpected = true;
    }
  }
  EXPECT_TRUE(missing) << "diff must name the granule the backend missed";
  EXPECT_TRUE(unexpected) << "diff must name the granule wrongly reported";
  EXPECT_TRUE(diff_goldens(want, want, true).empty());
}

TEST(ManifestCodec, RoundTripsAndRejectsMalformedInput) {
  const manifest m = builtin_manifest();
  std::ostringstream out;
  write_manifest(out, m);
  std::istringstream in(out.str());
  const manifest back = read_manifest(in);
  ASSERT_EQ(back.entries.size(), m.entries.size());
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].name, m.entries[i].name);
    EXPECT_EQ(back.entries[i].program, m.entries[i].program);
    EXPECT_EQ(back.entries[i].futures, m.entries[i].futures);
    EXPECT_EQ(back.entries[i].seed, m.entries[i].seed);
    EXPECT_EQ(back.entries[i].trace_file, m.entries[i].trace_file);
  }

  std::istringstream no_entries("# just a comment\n");
  EXPECT_THROW(read_manifest(no_entries), corpus_error);
  std::istringstream stray_kv("kind = fuzz\n");
  EXPECT_THROW(read_manifest(stray_kv), corpus_error);
  std::istringstream dup("entry a\ntrace = a.frdt\ngolden = a.golden\n"
                         "entry a\ntrace = a.frdt\ngolden = a.golden\n");
  EXPECT_THROW(read_manifest(dup), corpus_error);
  std::istringstream incomplete("entry a\nkind = fuzz\n");
  EXPECT_THROW(read_manifest(incomplete), corpus_error);
  std::istringstream bad_kind("entry a\nkind = nope\n");
  EXPECT_THROW(read_manifest(bad_kind), corpus_error);
}

// The aggregate engine behind `frd-corpus verify`: green on the checked-in
// corpus, and a backend restriction that selects zero (entry, backend) pairs
// must FAIL — verifying nothing is not a pass.
TEST(CorpusVerify, EngineAcceptsTheCheckedInCorpus) {
  const verify_result r = verify_corpus(corpus_manifest(), corpus_dir());
  for (const divergence& d : r.failures) {
    for (const std::string& line : d.details) {
      ADD_FAILURE() << d.entry << " [" << d.backend << "]: " << line;
    }
  }
  EXPECT_GT(r.checks, 0u);
}

TEST(CorpusVerify, ZeroEligibleChecksIsAFailureNotAPass) {
  // sp-bags is registered but fork-join-only: eligible for no corpus trace.
  const verify_result r =
      verify_corpus(corpus_manifest(), corpus_dir(), "sp-bags");
  EXPECT_EQ(r.checks, 0u);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.failures.front().details.front().find("sp-bags"),
            std::string::npos)
      << "the failure must name the backend that matched nothing";
}

TEST(CorpusVerify, MissingTraceFileIsADivergence) {
  manifest m = corpus_manifest();
  m.entries.resize(1);
  m.entries[0].trace_file = "no-such-file.frdt";
  const verify_result r = verify_corpus(m, corpus_dir());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.failures.front().details.front().find("no-such-file.frdt"),
            std::string::npos);
}

// A tampered golden must produce a divergence that names the backend-visible
// granule — the fix contract for `frd-corpus verify` (and this test's own
// failure messages).
TEST(CorpusVerify, TamperedGoldenFailsWithGranuleDetail) {
  const corpus_entry* e = corpus_manifest().find("wide-fanin");
  ASSERT_NE(e, nullptr);
  trace::memory_trace tape = load_trace(corpus_dir() + "/" + e->trace_file);
  golden_report tampered = load_golden(corpus_dir() + "/" + e->golden_file);
  tampered.racy_granules.insert(0xdead000);  // a granule nothing reports

  bool named = false;
  for (const std::string& b : eligible_backends(e->futures)) {
    for (const std::string& d : check_backend(tape, tampered, b)) {
      if (d.find("0xdead000") != std::string::npos) named = true;
    }
  }
  EXPECT_TRUE(named)
      << "verify must say which granule diverged, not just that one did";
}

}  // namespace
}  // namespace frd::corpus
