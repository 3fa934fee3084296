// Exact online reachability oracle.
//
// Because the detector's execution order is depth-first and eager, every
// edge's source strand has fully executed before its destination is minted,
// so ancestor sets can be closed incrementally: when strand s appears with
// predecessors {p...}, anc(s) = U anc(p) ∪ {p...}. Quadratic space — this is
// a *validation* oracle for tests (it is what Theorems 4.2/5.2 are checked
// against), not a production structure.
#pragma once

#include <vector>

#include "runtime/events.hpp"
#include "support/bitvec.hpp"

namespace frd::graph {

class online_oracle final : public rt::execution_listener {
 public:
  // Strict precedence u ≺ v in G_full.
  bool precedes(rt::strand_id u, rt::strand_id v) const {
    if (v >= anc_.size()) return false;
    const bitvec& row = anc_[v];
    return row.size() > u && row.test(u);
  }

  bool parallel(rt::strand_id u, rt::strand_id v) const {
    return u != v && !precedes(u, v) && !precedes(v, u);
  }

  // v's full ancestor row (null when v is unknown); bit u set iff u ≺ v.
  // Reference valid until the next dag event. The oracle backend answers
  // its queries against the current strand's row.
  const bitvec* anc_row(rt::strand_id v) const {
    return v < anc_.size() ? &anc_[v] : nullptr;
  }

  std::size_t strand_count() const { return anc_.size(); }

  // execution_listener
  void on_program_begin(rt::func_id, rt::strand_id s) override { ensure(s); }
  void on_spawn(rt::func_id, rt::strand_id u, rt::func_id, rt::strand_id w,
                rt::strand_id v) override {
    derive(w, u);
    derive(v, u);
  }
  void on_create(rt::func_id, rt::strand_id u, rt::func_id, rt::strand_id w,
                 rt::strand_id v) override {
    derive(w, u);
    derive(v, u);
  }
  void on_sync(const sync_event& e) override {
    rt::strand_id t2 = e.before;
    const std::size_t c = e.children.size();
    for (std::size_t i = 0; i < c; ++i) {
      const rt::strand_id j = e.join_strands[i];
      derive(j, e.children[c - 1 - i].child_last);
      merge(j, t2);
      t2 = j;
    }
  }
  void on_get(rt::func_id, rt::strand_id u, rt::strand_id v, rt::func_id,
              rt::strand_id w, rt::strand_id) override {
    derive(v, u);
    merge(v, w);
  }

 private:
  void ensure(rt::strand_id s) {
    if (s >= anc_.size()) anc_.resize(s + 1);
  }
  // anc(s) := anc(p) ∪ {p} (first predecessor).
  void derive(rt::strand_id s, rt::strand_id p) {
    ensure(s);
    anc_[s] = anc_[p];
    if (anc_[s].size() <= p) anc_[s].resize(p + 1);
    anc_[s].set(p);
  }
  // anc(s) |= anc(p) ∪ {p} (additional predecessor).
  void merge(rt::strand_id s, rt::strand_id p) {
    ensure(s);
    anc_[s].or_with(anc_[p]);
    if (anc_[s].size() <= p) anc_[s].resize(p + 1);
    anc_[s].set(p);
  }

  std::vector<bitvec> anc_;
};

}  // namespace frd::graph
