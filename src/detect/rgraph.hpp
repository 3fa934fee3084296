// R: the dag over attached sets, with an explicitly maintained transitive
// closure (paper §5). "R is simply a boolean reachability matrix where each
// cell (i,j) indicates whether there is a path from attached set i to
// attached set j. FutureRD maintains R as a vector of bit vectors ...
// whenever an edge is added to R, reachability is transitively propagated
// via parallel bit operations."
//
// The matrix is stored as PREDECESSOR rows only (to_[i]: every node with a
// path to i) — the one direction every consumer reads: the multibags+
// query tests strands against preds_of, and reaches(a, b) is a bit test in
// to_[b]. Successor rows used to be maintained symmetrically,
// but almost every arc the §5 handlers add lands on a freshly created sink
// node (create/get/attachify make the target node just before the arc), and
// keeping successor rows closed charges every such arc O(|ancestors(a)|)
// row updates whose merged content is empty — that was the dominant
// dag-event cost on future-heavy traces. With predecessor rows only, a
// sink-target arc is ONE row merge; the rare arc onto a node that already
// has successors (the both-attached sync diamond, Figure 4 lines 35-40)
// finds the descendants to update by scanning the rows for the target's
// bit, gated by a per-node has-successor flag.
#pragma once

#include <cstdint>
#include <vector>

#include "support/bitvec.hpp"
#include "support/check.hpp"

namespace frd::detect {

class rgraph {
 public:
  using node = std::uint32_t;
  static constexpr node kNoNode = static_cast<node>(-1);

  struct counters {
    std::uint64_t nodes = 0;
    std::uint64_t arcs = 0;
    std::uint64_t redundant_arcs = 0;  // closure already implied them
    std::uint64_t row_merges = 0;      // bit-row OR operations performed
  };

  node add_node();

  // Adds arc a -> b and transitively closes. No-ops on self-arcs and on
  // arcs already implied by the closure.
  void add_arc(node a, node b);

  // Strict reachability: true iff a != b and a path a -> b exists.
  bool reaches(node a, node b) const;

  // Predecessor row of b: every node with a path to b (never b itself —
  // R is acyclic and self-arcs are dropped). Reference valid until the next
  // add_node/add_arc. multibags+ pins the current strand's row once per
  // epoch and tests every queried source in it: reaches(a, b) == (row has a).
  const bitvec& preds_of(node b) const {
    FRD_DCHECK(b < to_.size());
    return to_[b];
  }

  std::size_t size() const { return to_.size(); }
  const counters& stats() const { return stats_; }

  // Closure memory footprint (the paper notes R's memory becomes
  // substantial for small base cases; the fig8 bench reports this).
  std::size_t closure_bytes() const;

 private:
  std::vector<bitvec> to_;  // to_[i]: nodes that reach i
  // has_succ_[i]: node i has at least one outgoing arc — the gate that lets
  // sink-target arcs skip the descendant scan entirely.
  std::vector<std::uint8_t> has_succ_;
  counters stats_;
};

}  // namespace frd::detect
