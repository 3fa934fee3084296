// Shared vocabulary of the detection core.
#pragma once

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "runtime/events.hpp"

namespace frd::detect {

// What future constructs a reachability backend can soundly handle.
enum class future_support : std::uint8_t {
  none,        // fork-join (spawn/sync) programs only
  structured,  // single-touch futures, creator precedes getter (§2)
  general,     // arbitrary multi-touch futures
};

constexpr std::string_view to_string(future_support f) {
  switch (f) {
    case future_support::none: return "fork-join only";
    case future_support::structured: return "structured futures";
    case future_support::general: return "general futures";
  }
  return "?";
}

// Raised when a backend name is not in the registry. The message lists every
// registered name.
class backend_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Raised when a program uses a construct outside the selected backend's
// declared capability (e.g. a multi-touch future under a structured-only
// backend): continuing would produce unsound race reports.
class capability_error : public backend_error {
 public:
  using backend_error::backend_error;
};

// The paper's four measurement configurations (§6, Figures 6-7).
enum class level : std::uint8_t {
  baseline,         // no detection work at all
  reachability,     // parallel-construct events maintain reachability only
  instrumentation,  // + a call per memory access that does no history work
  full,             // + access history maintenance and race queries
};

constexpr std::string_view to_string(level l) {
  switch (l) {
    case level::baseline: return "baseline";
    case level::reachability: return "reachability";
    case level::instrumentation: return "instrumentation";
    case level::full: return "full";
  }
  return "?";
}

enum class access_kind : std::uint8_t { read, write };

// One determinacy race: two logically parallel accesses to the same granule,
// at least one a write. `prior` executed first in the serial order.
struct race {
  std::uintptr_t granule_addr;  // base address of the racy granule (size is
                                // the session's granule option; default 4)
  rt::strand_id prior;
  access_kind prior_kind;
  rt::strand_id current;
  access_kind current_kind;
};

// Race sink with per-granule deduplication: a race counts once per
// (granule, prior kind, current kind) — write then read, read then write,
// write then write — so total() is at most three per racy granule. Further
// strand pairs with an already-counted conflict on the same granule add
// nothing. That makes the report blind to repeated accesses: a strand's
// second read or write of a granule can only re-report a counted conflict,
// which is why the online workers may drop such repeats (DESIGN.md §9). The
// first max_retained counted races are kept in full for diagnostics
// (session::options::max_retained_races).
class race_report {
 public:
  static constexpr std::size_t kDefaultRetained = 64;

  explicit race_report(std::size_t max_retained = kDefaultRetained)
      : max_retained_(max_retained) {}

  // Counts `r` unless its (granule, prior kind, current kind) was counted
  // before; returns whether it counted.
  bool record(const race& r) {
    const auto bit = static_cast<std::uint8_t>(
        1u << (2 * static_cast<unsigned>(r.prior_kind) +
               static_cast<unsigned>(r.current_kind)));
    std::uint8_t& seen = conflicts_[r.granule_addr];
    if ((seen & bit) != 0) return false;
    seen |= bit;
    ++total_;
    racy_granules_.insert(r.granule_addr);
    if (races_.size() < max_retained_) races_.push_back(r);
    return true;
  }

  std::uint64_t total() const { return total_; }
  bool any() const { return total_ != 0; }
  std::size_t max_retained() const { return max_retained_; }
  const std::vector<race>& retained() const { return races_; }

  // Back to the post-construction state, keeping the retained buffer's
  // capacity (session::reset recycles the report across pooled runs).
  void reset() {
    total_ = 0;
    races_.clear();
    racy_granules_.clear();
    conflicts_.clear();
  }

  // Distinct racy granules. The paper's per-location guarantee (§3): a race
  // is reported on l iff two parallel conflicting accesses to l exist; the
  // property tests compare this set against the exact reference detector.
  const std::set<std::uintptr_t>& racy_granules() const {
    return racy_granules_;
  }

 private:
  std::size_t max_retained_;
  std::uint64_t total_ = 0;
  std::vector<race> races_;
  std::set<std::uintptr_t> racy_granules_;
  // Counted conflict kinds per racy granule, one bit per
  // (prior kind, current kind).
  std::unordered_map<std::uintptr_t, std::uint8_t> conflicts_;
};

}  // namespace frd::detect
