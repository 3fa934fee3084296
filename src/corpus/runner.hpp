// Corpus engine: record programs into normalized traces, derive goldens,
// and check backends against them.
//
// Address normalization is what makes corpus artifacts diff-stable: raw
// recordings carry live granule base addresses (heap/ASLR-dependent), so
// record_entry remaps every distinct granule, in first-touch order, onto
// kNormalizedBase + i·granule. Detection only keys on granule identity, so
// the remap is behavior-preserving, and the same program + seed produces the
// same trace bytes on any machine — `frd-corpus generate` is reproducible
// and goldens are meaningful in a diff.
//
// Goldens are derived by replaying the normalized trace through the
// `reference` backend (the exact §3 oracle through the full access-history
// protocol); the structured-violation count comes from `multibags` on
// structured traces. check_backend() then holds any backend to the golden
// and reports *which granules* diverged, not just that something did.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/manifest.hpp"
#include "trace/event.hpp"

namespace frd::corpus {

inline constexpr std::uint64_t kNormalizedBase = 0x100000;

// Registered backend names able to replay a trace needing `needed` support
// (same filter as the differential replay tests): fork-join-only backends
// never qualify, structured-only backends qualify for structured traces.
std::vector<std::string> eligible_backends(detect::future_support needed);

// Rewrites access addresses onto the normalized range (in first-touch
// order); dag events pass through untouched.
trace::memory_trace normalize_addresses(trace::memory_trace& raw);

// Records `e.program` (seed, granule from the entry) under a recording
// session and returns the normalized trace. Throws corpus_error when the
// program is unknown.
trace::memory_trace record_entry(const corpus_entry& e);

// Derives the golden for a trace: replay through `reference` for the racy
// granule set, through `multibags` for the violation count when the trace is
// structured. This is the one definition of "what a golden says" — generate
// and regold both call it.
golden_report gold_from_trace(trace::memory_trace& tape,
                              detect::future_support futures);

// Replays `tape` through `backend` and diffs the outcome against `golden`.
// Returns divergence lines (empty = conforms); each names the mismatched
// quantity and the exact granules involved. Violation counts are compared
// only for backends that declare counts_violations.
std::vector<std::string> check_backend(trace::memory_trace& tape,
                                       const golden_report& golden,
                                       const std::string& backend);

// One backend's verdict on one entry, for callers that aggregate.
struct divergence {
  std::string entry;
  std::string backend;
  std::vector<std::string> details;  // what diverged, granule by granule
};

struct verify_result {
  std::vector<divergence> failures;
  std::size_t checks = 0;  // (entry × backend) replays performed
  bool ok() const { return failures.empty(); }
};

// File plumbing shared by the CLI and the conformance test. Loaders throw
// corpus_error naming the path on missing/corrupt files.
trace::memory_trace load_trace(const std::string& path);
void save_trace(const std::string& path, trace::memory_trace& tape);
void save_golden(const std::string& path, const golden_report& g);

// The corpus this repo ships: what `frd-corpus generate` records. Entry
// names double as file stems (<name>.frdt / <name>.golden).
manifest builtin_manifest();

// Verifies every entry of `m` (trace files resolved relative to `dir`)
// against its golden through every eligible backend — the one verify engine
// behind `frd-corpus verify` and the conformance test's aggregate checks. A
// missing or unreadable trace/golden becomes a divergence too — verify must
// fail loudly, not skip. `only_backend` restricts to one backend name; a
// restriction that matches zero (entry, backend) pairs is itself a failure
// (verifying nothing must not read as success).
verify_result verify_corpus(const manifest& m, const std::string& dir,
                            std::string_view only_backend = {});

}  // namespace frd::corpus
