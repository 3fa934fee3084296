// MultiBags+: reachability for programs with *general* futures (paper §5).
//
// Three structures:
//   DSP  — the same S/P bags as MultiBags, except spawn is treated like
//          create_fut, sync like get_fut, and get_fut itself does nothing
//          (multi-touch futures would otherwise join twice). DSP alone
//          answers queries whose witness path uses no get edges
//          (Lemma A.1).
//   DNSP — a second disjoint-set partition of strands into attached sets
//          (subdags delimited by creator/getter strands; members of R) and
//          unattached sets (complete SP subdags with no incident non-SP
//          edges) carrying attPred/attSucc proxies into R.
//   R    — dag over attached sets with explicit transitive closure
//          (rgraph.hpp).
//
// Query (paper Figure 3): S-bag hit, else proxy u through attSucc and v
// through attPred and ask R. The v side — the current strand's attached
// predecessor and its R predecessor row — is hoisted once per epoch, so a
// query costs a DSU find plus one bit test in that row.
//
// Attached-set payloads are arena-allocated and *stable*: two attached sets
// never union, and attached ∪ unattached keeps the attached payload, so the
// attPred/attSucc pointers held by unattached sets never dangle
// (Lemma A.7: those proxies always reference attached sets).
#pragma once

#include <vector>

#include "detect/backend.hpp"
#include "detect/rgraph.hpp"
#include "detect/sp_bags.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"

namespace frd::detect {

class multibags_plus final : public reachability_backend {
 public:
  bool precedes_current(rt::strand_id u) override;
  std::string_view name() const override { return "multibags+"; }

  const dsu::forest_stats& dsp_stats() const { return dsp_.stats(); }
  const rgraph& r() const { return r_; }

 protected:
  // execution_listener hooks (epoch bumping handled by the base).
  void handle_program_begin(rt::func_id main_fn, rt::strand_id first) override;
  void handle_strand_begin(rt::strand_id s, rt::func_id owner) override;
  void handle_spawn(rt::func_id parent, rt::strand_id u, rt::func_id child,
                    rt::strand_id w, rt::strand_id v) override;
  void handle_create(rt::func_id parent, rt::strand_id u, rt::func_id child,
                     rt::strand_id w, rt::strand_id v) override;
  void handle_return(rt::func_id child, rt::strand_id last,
                     rt::func_id parent) override;
  void handle_sync(const sync_event& e) override;
  void handle_get(rt::func_id fn, rt::strand_id u, rt::strand_id v,
                  rt::func_id fut, rt::strand_id w,
                  rt::strand_id creator) override;

 private:
  // Payload of a DNSP set. For attached sets, r_node is its node in R and
  // the set is its own attached predecessor/successor. For unattached sets,
  // att_pred is always a valid attached payload; att_succ starts null and is
  // assigned at most once (Figure 4 line 46).
  struct nsp_set {
    bool attached = false;
    nsp_set* att_pred = nullptr;
    nsp_set* att_succ = nullptr;
    rgraph::node r_node = rgraph::kNoNode;
  };

  // Figure 3 lines 3-5 for the current epoch: pins the R predecessor row of
  // the current strand's attached predecessor.
  void refresh_current_row();

  // --- element plumbing -----------------------------------------------
  dsu::element elem(rt::strand_id s) {
    FRD_DCHECK(s < nsp_elem_.size() && nsp_elem_[s] != dsu::kNoElement);
    return nsp_elem_[s];
  }
  void bind(rt::strand_id s, dsu::element e) {
    if (s >= nsp_elem_.size()) nsp_elem_.resize(s + 1, dsu::kNoElement);
    FRD_CHECK_MSG(nsp_elem_[s] == dsu::kNoElement, "strand already in DNSP");
    nsp_elem_[s] = e;
  }
  nsp_set* set_of(rt::strand_id s) { return dnsp_.payload(elem(s)); }

  // --- set construction (Figure 4) --------------------------------------
  // New unattached singleton {s} with the given attached predecessor.
  void make_unattached(rt::strand_id s, nsp_set* att_pred);
  // New attached singleton {s}; registers an R node. Arcs added by callers.
  nsp_set* make_attached(rt::strand_id s);
  // Figure 4 lines 18-22: converts s's set to attached if needed.
  nsp_set* attachify(rt::strand_id s);
  // Attached predecessor of s's set (itself when attached).
  nsp_set* att_pred_of(rt::strand_id s);
  // One binary join of the sync decomposition (Figure 4 lines 24-46).
  void sync_join(rt::strand_id f, rt::strand_id s1, rt::strand_id s2,
                 rt::strand_id t1, rt::strand_id t2, rt::strand_id j);

  sp_bags dsp_;
  dsu::forest<nsp_set> dnsp_;
  std::vector<dsu::element> nsp_elem_;  // strand -> DNSP element
  rgraph r_;
  arena arena_;
  rt::strand_id current_ = rt::kNoStrand;
  // The query's hoisted v side: valid while row_version_ == version() + 1
  // (0 = never refreshed).
  std::uint64_t row_version_ = 0;
  const bitvec* preds_of_current_ = nullptr;
};

}  // namespace frd::detect
