#include "detect/multibags_plus.hpp"

namespace frd::detect {

// ---------------------------------------------------------------------------
// Query (paper Figure 3).
// ---------------------------------------------------------------------------
// Lines 3-5, once per epoch: proxy the current strand v through its attached
// predecessor and pin that node's R predecessor row. The row reference stays
// valid for the whole epoch — R only grows in dag-event handlers, which
// advance the version first.
void multibags_plus::refresh_current_row() {
  nsp_set* sv = dnsp_.payload(elem(current_));
  FRD_CHECK(sv != nullptr);
  if (!sv->attached) sv = sv->att_pred;
  FRD_CHECK(sv != nullptr && sv->attached);
  preds_of_current_ = &r_.preds_of(sv->r_node);
  row_version_ = version() + 1;
}

bool multibags_plus::precedes_current(rt::strand_id u) {
  if (row_version_ != version() + 1) refresh_current_row();

  // Lines 1-2: a path with no get edges shows up as an S-bag hit.
  if (dsp_.in_s_bag(u)) return true;

  // Lines 6-9: proxy u through its attached successor; no successor means
  // nothing after u's complete SP subdag has executed yet, so u is parallel
  // to the current strand (Lemma A.11).
  nsp_set* su = dnsp_.payload(elem(u));
  FRD_CHECK(su != nullptr);
  if (!su->attached) {
    su = su->att_succ;
    if (su == nullptr) return false;
  }
  FRD_CHECK(su->attached);

  // Line 10: strict reachability in R, as one bit test in the hoisted
  // predecessor row (preds never contain the node itself, so equal sets test
  // false — when the true relation is "precedes", the witness path is
  // SP-only and was already caught by the S-bag hit; DESIGN.md §5, Lemmas
  // A.3/A.8).
  const bitvec& row = *preds_of_current_;
  return row.size() > su->r_node && row.test(su->r_node);
}

// ---------------------------------------------------------------------------
// Set construction helpers.
// ---------------------------------------------------------------------------
void multibags_plus::make_unattached(rt::strand_id s, nsp_set* att_pred) {
  FRD_CHECK_MSG(att_pred != nullptr && att_pred->attached,
                "unattached sets must proxy to an attached predecessor");
  auto* p = arena_.create<nsp_set>(
      nsp_set{false, att_pred, nullptr, rgraph::kNoNode});
  bind(s, dnsp_.make_set(p));
}

multibags_plus::nsp_set* multibags_plus::make_attached(rt::strand_id s) {
  auto* p =
      arena_.create<nsp_set>(nsp_set{true, nullptr, nullptr, r_.add_node()});
  bind(s, dnsp_.make_set(p));
  return p;
}

multibags_plus::nsp_set* multibags_plus::attachify(rt::strand_id s) {
  nsp_set* p = dnsp_.payload(elem(s));
  FRD_CHECK(p != nullptr);
  if (p->attached) return p;
  // Figure 4 lines 19-22: promote in place; the arc from the attached
  // predecessor carries everything known to precede this subdag.
  p->attached = true;
  p->r_node = r_.add_node();
  FRD_CHECK(p->att_pred != nullptr && p->att_pred->attached);
  r_.add_arc(p->att_pred->r_node, p->r_node);
  return p;
}

multibags_plus::nsp_set* multibags_plus::att_pred_of(rt::strand_id s) {
  nsp_set* p = dnsp_.payload(elem(s));
  FRD_CHECK(p != nullptr);
  return p->attached ? p : p->att_pred;
}

// ---------------------------------------------------------------------------
// Events (paper Figure 4).
// ---------------------------------------------------------------------------
void multibags_plus::handle_program_begin(rt::func_id main_fn, rt::strand_id first) {
  dsp_.program_begin(main_fn, first);
  make_attached(first);  // line 1: attached set with no predecessor
  current_ = first;
}

void multibags_plus::handle_strand_begin(rt::strand_id s, rt::func_id owner) {
  dsp_.add_strand(owner, s);
  current_ = s;
}

// Lines 2-6. DSP treats spawn exactly like create_fut.
void multibags_plus::handle_spawn(rt::func_id, rt::strand_id u, rt::func_id child,
                              rt::strand_id w, rt::strand_id v) {
  dsp_.child_begin(child, w);
  nsp_set* pred = att_pred_of(u);
  make_unattached(v, pred);
  make_unattached(w, pred);
}

// Lines 7-12.
void multibags_plus::handle_create(rt::func_id, rt::strand_id u, rt::func_id child,
                               rt::strand_id w, rt::strand_id v) {
  dsp_.child_begin(child, w);
  nsp_set* su = attachify(u);
  nsp_set* av = make_attached(v);
  r_.add_arc(su->r_node, av->r_node);
  nsp_set* aw = make_attached(w);
  r_.add_arc(su->r_node, aw->r_node);
}

// Line 13.
void multibags_plus::handle_return(rt::func_id child, rt::strand_id, rt::func_id) {
  dsp_.child_return(child);
}

// Lines 14-17. No DSP work: multi-touch futures may get the same P-bag
// twice, so DSP ignores get entirely (§5 "Reachability data structures").
void multibags_plus::handle_get(rt::func_id, rt::strand_id u, rt::strand_id v,
                            rt::func_id, rt::strand_id w, rt::strand_id) {
  nsp_set* su = attachify(u);
  nsp_set* av = make_attached(v);
  r_.add_arc(su->r_node, av->r_node);
  nsp_set* sw = set_of(w);
  FRD_CHECK_MSG(sw->attached,
                "a future's last strand must be attached at get (Lemma A.3)");
  r_.add_arc(sw->r_node, av->r_node);
}

// Lines 23-46, one binary join at a time, innermost (= last spawned) first.
void multibags_plus::handle_sync(const sync_event& e) {
  const std::size_t c = e.children.size();
  FRD_CHECK(e.join_strands.size() == c);
  rt::strand_id t2 = e.before;
  for (std::size_t i = 0; i < c; ++i) {
    const rt::child_record& child = e.children[c - 1 - i];
    const rt::strand_id j = e.join_strands[i];
    dsp_.join_child(e.fn, child.child);  // line 23: S_F = Union(S_F, P_G)
    dsp_.add_strand(e.fn, j);
    sync_join(child.fork_strand, child.child_first, child.cont_first,
              child.child_last, t2, j);
    t2 = j;
  }
}

void multibags_plus::sync_join(rt::strand_id f, rt::strand_id s1,
                               rt::strand_id s2, rt::strand_id t1,
                               rt::strand_id t2, rt::strand_id j) {
  nsp_set* st1 = set_of(t1);
  nsp_set* st2 = set_of(t2);

  if (!st1->attached && !st2->attached) {
    // Lines 29-32: a complete SP subdag with no incident non-SP edges folds
    // into the fork's set (which may itself be attached — union keeps it).
    dnsp_.union_into(elem(f), elem(t1));
    dnsp_.union_into(elem(f), elem(t2));
    const dsu::element ej = dnsp_.make_set(nullptr);
    dnsp_.union_into(elem(f), ej);
    bind(j, ej);
    return;
  }

  if (st1->attached && st2->attached) {
    // Lines 33-40: both sides carry non-SP edges; the whole diamond goes
    // into R explicitly.
    nsp_set* sf = attachify(f);
    nsp_set* ss1 = set_of(s1);
    nsp_set* ss2 = set_of(s2);
    FRD_CHECK_MSG(ss1->attached && ss2->attached,
                  "sources of attached-sink subdags must be attached "
                  "(paper §5 / Lemma A.3 invariant)");
    r_.add_arc(sf->r_node, ss1->r_node);
    r_.add_arc(sf->r_node, ss2->r_node);
    nsp_set* aj = make_attached(j);
    r_.add_arc(st1->r_node, aj->r_node);
    r_.add_arc(st2->r_node, aj->r_node);
    return;
  }

  // Lines 41-46: exactly one side carries non-SP edges.
  const bool t1_attached = st1->attached;
  const rt::strand_id ta = t1_attached ? t1 : t2;
  const rt::strand_id tu = t1_attached ? t2 : t1;
  const rt::strand_id sa = t1_attached ? s1 : s2;
  nsp_set* ssa = set_of(sa);
  FRD_CHECK_MSG(ssa->attached,
                "source of the attached-sink side must be attached");
  if (!set_of(f)->attached) {
    dnsp_.union_into(elem(sa), elem(f));  // line 44: f joins sa's set
  }
  const dsu::element ej = dnsp_.make_set(nullptr);
  dnsp_.union_into(elem(ta), ej);  // line 45: j joins ta's set
  bind(j, ej);
  nsp_set* stu = set_of(tu);
  FRD_CHECK(!stu->attached);
  stu->att_succ = dnsp_.payload(ej);  // line 46 (= ta's attached set)
}

}  // namespace frd::detect
