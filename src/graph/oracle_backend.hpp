// The exact reachability oracle packaged as a registry backend ("reference").
//
// Quadratic space and per-construct work — never a production choice, but as
// a backend it turns the full detection pipeline (access history, reader
// purging, race reporting) into an executable specification: a session on
// "reference" must agree with every bag-based session on the racy-granule
// set (the paper's per-location guarantee, §3), which makes it the anchor of
// the differential property-fuzz suite.
#pragma once

#include "detect/backend.hpp"
#include "graph/oracle.hpp"

namespace frd::graph {

class oracle_backend final : public detect::reachability_backend {
 public:
  // One bit test in the current strand's ancestor row.
  bool precedes_current(rt::strand_id u) override {
    const bitvec* row = oracle_.anc_row(current_);
    return row != nullptr && row->size() > u && row->test(u);
  }
  std::string_view name() const override { return "reference"; }

  const online_oracle& oracle() const { return oracle_; }

 protected:
  // execution_listener hooks: forward dag growth to the oracle, track the
  // strand the runtime is currently executing (the query's right-hand side).
  // Epoch bumping is handled by the reachability_backend base.
  void handle_program_begin(rt::func_id f, rt::strand_id s) override {
    current_ = s;
    oracle_.on_program_begin(f, s);
  }
  void handle_strand_begin(rt::strand_id s, rt::func_id) override {
    current_ = s;
  }
  void handle_spawn(rt::func_id p, rt::strand_id u, rt::func_id c,
                    rt::strand_id w, rt::strand_id v) override {
    oracle_.on_spawn(p, u, c, w, v);
  }
  void handle_create(rt::func_id p, rt::strand_id u, rt::func_id c,
                     rt::strand_id w, rt::strand_id v) override {
    oracle_.on_create(p, u, c, w, v);
  }
  void handle_sync(const sync_event& e) override { oracle_.on_sync(e); }
  void handle_get(rt::func_id fn, rt::strand_id u, rt::strand_id v,
                  rt::func_id fut, rt::strand_id w,
                  rt::strand_id creator) override {
    oracle_.on_get(fn, u, v, fut, w, creator);
  }

 private:
  online_oracle oracle_;
  rt::strand_id current_ = rt::kNoStrand;
};

}  // namespace frd::graph
