// MultiBags: reachability for programs with *structured* futures (paper §4).
//
// The entire algorithm is the S/P-bag discipline of sp_bags.hpp; spawn is
// treated exactly like create_fut and sync like a series of get_fut calls
// (§4 "Notation"). On top of the bag maintenance this backend validates the
// structured-future discipline at every get_fut: the creator strand must be
// sequentially before the getter (§2) — that is, in an S-bag right now. A
// violation means the program is outside MultiBags' sound domain and should
// run under MultiBags+.
#pragma once

#include "detect/backend.hpp"
#include "detect/sp_bags.hpp"

namespace frd::detect {

class multibags final : public reachability_backend {
 public:
  // Query (paper Figure 1 bottom): u precedes the current strand iff u's set
  // is an S-bag.
  bool precedes_current(rt::strand_id u) override { return bags_.in_s_bag(u); }
  std::string_view name() const override { return "multibags"; }
  std::uint64_t structured_violations() const override { return violations_; }

  const dsu::forest_stats& dsu_stats() const { return bags_.stats(); }

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
  sp_bags bags_;
  std::uint64_t violations_ = 0;
};

}  // namespace frd::detect
