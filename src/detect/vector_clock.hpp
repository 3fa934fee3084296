// Vector-clock reachability baseline (paper §7).
//
// The related-work comparator the paper argues against: FastTrack-style
// happens-before tracking adapted to the task dag. One clock entry per
// function instance; a strand is identified by (function, local index) and
// u ≺ current iff cur_clock[func(u)] >= local_index(u).
//
// It is exact on arbitrary future dags (the fuzz tests hold it to the
// oracle), but every spawn/create snapshots an O(n)-entry clock and every
// join merges one — the Θ(n) per-construct cost (Θ(n²) total) that the
// paper's near-constant-time bag operations avoid. bench/ablation_vc makes
// that gap measurable.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "detect/backend.hpp"
#include "support/check.hpp"

namespace frd::detect {

class vector_clock_backend final : public reachability_backend {
 public:
  // One position lookup and one compare against the current clock.
  bool precedes_current(rt::strand_id u) override {
    FRD_DCHECK(u < strands_.size());
    const strand_pos& p = strands_[u];
    return p.fn < cur_.size() && cur_[p.fn] >= p.idx;
  }
  std::string_view name() const override { return "vector-clock"; }

  // Total clock entries ever copied/merged — the Θ(n) per construct cost.
  std::uint64_t clock_work() const { return clock_work_; }
  std::size_t live_clock_bytes() const {
    std::size_t n = cur_.capacity();
    for (const auto& [s, c] : saved_) n += c.capacity();
    for (const auto& [f, c] : final_) n += c.capacity();
    return n * sizeof(std::uint32_t);
  }

 protected:
  // execution_listener hooks (epoch bumping handled by the base).
  void handle_program_begin(rt::func_id f, rt::strand_id s) override {
    begin_strand(s, f);
  }
  void handle_strand_begin(rt::strand_id s, rt::func_id f) override {
    if (s < strands_.size() && strands_[s].fn != rt::kNoFunc) {
      // A virtual join strand already positioned by handle_sync; adopt it.
      return;
    }
    begin_strand(s, f);
  }
  void handle_spawn(rt::func_id, rt::strand_id, rt::func_id, rt::strand_id,
                    rt::strand_id v) override {
    // The continuation resumes from the fork point, not from wherever the
    // eagerly executed child left the current clock.
    saved_[v] = cur_;
    clock_work_ += cur_.size();
  }
  void handle_create(rt::func_id p, rt::strand_id u, rt::func_id c,
                     rt::strand_id w, rt::strand_id v) override {
    handle_spawn(p, u, c, w, v);
  }
  void handle_return(rt::func_id child, rt::strand_id, rt::func_id) override {
    // The child's final clock is what joins at sync/get.
    final_[child] = cur_;
    clock_work_ += cur_.size();
  }
  void handle_sync(const sync_event& e) override {
    // Restore the syncing function's own timeline, then merge every child.
    for (const rt::child_record& c : e.children) merge(final_[c.child]);
    for (rt::strand_id j : e.join_strands) position(j, e.fn);
  }
  void handle_get(rt::func_id fn, rt::strand_id u, rt::strand_id v,
                  rt::func_id fut, rt::strand_id, rt::strand_id) override {
    (void)fn;
    (void)u;
    (void)v;
    merge(final_[fut]);
  }

 private:
  struct strand_pos {
    rt::func_id fn = rt::kNoFunc;
    std::uint32_t idx = 0;
  };

  void begin_strand(rt::strand_id s, rt::func_id f) {
    // Resuming a continuation restores the clock snapshot taken at the fork.
    auto it = saved_.find(s);
    if (it != saved_.end()) {
      // The eager child's effects are NOT in the continuation's past; but the
      // child's final clock was already captured at handle_return, so it is
      // safe to overwrite cur_ entirely.
      cur_ = std::move(it->second);
      saved_.erase(it);
      clock_work_ += cur_.size();
    }
    position(s, f);
  }

  // Assigns strand s the next local index of f and advances the clock.
  void position(rt::strand_id s, rt::func_id f) {
    if (f >= next_idx_.size()) next_idx_.resize(f + 1, 0);
    if (f >= cur_.size()) cur_.resize(f + 1, 0);
    const std::uint32_t idx = ++next_idx_[f];
    cur_[f] = idx;
    if (s >= strands_.size()) strands_.resize(s + 1);
    strands_[s] = strand_pos{f, idx};
  }

  void merge(const std::vector<std::uint32_t>& other) {
    if (other.size() > cur_.size()) cur_.resize(other.size(), 0);
    for (std::size_t i = 0; i < other.size(); ++i)
      cur_[i] = std::max(cur_[i], other[i]);
    clock_work_ += other.size();
  }

  std::vector<std::uint32_t> cur_;
  std::vector<std::uint32_t> next_idx_;  // strands minted per function
  std::vector<strand_pos> strands_;
  std::unordered_map<rt::strand_id, std::vector<std::uint32_t>> saved_;
  std::unordered_map<rt::func_id, std::vector<std::uint32_t>> final_;
  std::uint64_t clock_work_ = 0;
};

}  // namespace frd::detect
