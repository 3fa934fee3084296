// SP-bags reachability for fork-join (spawn/sync only) programs.
//
// The classic Feng & Leiserson detector the paper generalizes (§2 related
// work), expressed with the same rename-based bag machinery MultiBags uses:
// on fork-join programs the two algorithms coincide (a sync joins every
// outstanding child, so "rename to P, union at the join" and the classic
// "union into the parent's P-bag, empty at sync" see the same bags at every
// query). Registered with future_support::none — the detector rejects
// create_fut/get_fut before forwarding, so the checks below only fire on
// direct (unregistered) misuse.
#pragma once

#include "detect/backend.hpp"
#include "detect/sp_bags.hpp"
#include "support/check.hpp"

namespace frd::detect {

class sp_bags_backend final : public reachability_backend {
 public:
  // Same query as MultiBags: S-bag membership.
  bool precedes_current(rt::strand_id u) override { return bags_.in_s_bag(u); }
  std::string_view name() const override { return "sp-bags"; }

  const dsu::forest_stats& dsu_stats() const { return bags_.stats(); }

 protected:
  // execution_listener hooks (epoch bumping handled by the base).
  void handle_program_begin(rt::func_id main_fn, rt::strand_id first) override {
    bags_.program_begin(main_fn, first);
  }
  void handle_strand_begin(rt::strand_id s, rt::func_id owner) override {
    bags_.add_strand(owner, s);
  }
  void handle_spawn(rt::func_id, rt::strand_id, rt::func_id child,
                    rt::strand_id w, rt::strand_id) override {
    bags_.child_begin(child, w);
  }
  void handle_create(rt::func_id, rt::strand_id, rt::func_id, rt::strand_id,
                     rt::strand_id) override {
    FRD_CHECK_MSG(false,
                  "sp-bags handles fork-join programs only (no futures); use "
                  "multibags or multibags+");
  }
  void handle_return(rt::func_id child, rt::strand_id, rt::func_id) override {
    bags_.child_return(child);
  }
  void handle_sync(const sync_event& e) override {
    for (const rt::child_record& c : e.children) bags_.join_child(e.fn, c.child);
    for (rt::strand_id j : e.join_strands) bags_.add_strand(e.fn, j);
  }
  void handle_get(rt::func_id, rt::strand_id, rt::strand_id, rt::func_id,
                  rt::strand_id, rt::strand_id) override {
    FRD_CHECK_MSG(false,
                  "sp-bags handles fork-join programs only (no futures); use "
                  "multibags or multibags+");
  }

 private:
  sp_bags bags_;
};

}  // namespace frd::detect
