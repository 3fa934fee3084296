// bst: binary search tree merge in the style of Blelloch & Reid-Miller's
// "Pipelining with futures" (paper §6, [10]).
//
// merge(a, b): split b around a's root key, then merge the two child pairs.
// The child merges become futures; the parent *defers* joining them —
// handles are queued and resolved later, so subtree merges overlap like the
// BRM pipeline. Below `depth_cutoff` the merge runs serially (base-case
// coarsening, same role as B in the DP kernels): the future count is
// Θ(2^depth_cutoff).
//
// Structured: the resolver walks the fix-ups top-down in merge-tree order
//   (parent, then right subtree, then left), so each handle's creator has
//   already been joined before the handle is touched — single-touch +
//   discipline hold under any runtime.
// General: the resolver walks bottom-up (record order): handles are touched
//   while their creators are still logically parallel to main, which is
//   exactly the unstructured-get pattern only MultiBags+ supports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "bench_suite/common.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"

namespace frd::bench {

struct bst_node {
  std::int64_t key;
  bst_node* left;
  bst_node* right;
};

struct bst_input {
  std::unique_ptr<arena> nodes;  // owns every node of both trees
  bst_node* t1 = nullptr;
  bst_node* t2 = nullptr;
  std::size_t n1 = 0;
  std::size_t n2 = 0;
};

// t1 holds n1 even keys, t2 holds n2 odd keys (disjoint, interleaving), both
// built balanced.
bst_input make_bst_input(std::size_t n1, std::size_t n2, std::uint64_t seed);

// Validation helpers.
std::size_t bst_count(const bst_node* t);
bool bst_is_search_tree(const bst_node* t);
std::int64_t bst_key_sum(const bst_node* t);

namespace detail {

template <typename H>
using ld_t = void;  // placeholder to keep the hook include obvious

// Destructive split of t around `key` (no equal keys by construction):
// returns {keys < key, keys > key}.
template <typename H>
std::pair<bst_node*, bst_node*> bst_split(bst_node* t, std::int64_t key) {
  if (t == nullptr) return {nullptr, nullptr};
  if (detect::hooks::ld<H>(t->key) < key) {
    auto [lo, hi] = bst_split<H>(detect::hooks::ld<H>(t->right), key);
    detect::hooks::st<H>(t->right, lo);
    return {t, hi};
  }
  auto [lo, hi] = bst_split<H>(detect::hooks::ld<H>(t->left), key);
  detect::hooks::st<H>(t->left, hi);
  return {lo, t};
}

// Serial merge (base case and reference).
template <typename H>
bst_node* bst_merge_serial(bst_node* a, bst_node* b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  auto [lo, hi] = bst_split<H>(b, detect::hooks::ld<H>(a->key));
  detect::hooks::st<H>(a->left,
                       bst_merge_serial<H>(detect::hooks::ld<H>(a->left), lo));
  detect::hooks::st<H>(a->right,
                       bst_merge_serial<H>(detect::hooks::ld<H>(a->right), hi));
  return a;
}

}  // namespace detail

// Shared future-merge machinery; `structured` selects the resolver order.
// Each fix-up owns its two child handles outright (an index into a shared
// handle container would only be meaningful under eager serial execution,
// where create returns after the body ran); the fix-up list is the one
// piece of state bodies mutate concurrently under a parallel runtime, so a
// mutex guards the push and `rt.quiesce()` fences the resolve pass behind
// every outstanding body. Under the serial runtime the lock is uncontended
// and the create/get sequence — hence the event stream — is unchanged.
// Under a parallel runtime the push order is run-dependent, and so is the
// general resolver's order (and its report); the structured resolver sorts
// by merge-tree position, which makes its order the serial one.
template <typename H, typename RT>
bst_node* bst_merge_futures(RT& rt, bst_node* t1, bst_node* t2,
                            int depth_cutoff, bool structured) {
  using future_t = typename RT::template future_of<bst_node*>;
  struct fixup {
    bst_node* parent;
    future_t left;
    future_t right;
    // The merge's place in the merge tree: bit 63 - d is set when step d
    // from the root went left. Ascending (path, depth) is the tree order
    // parent, right subtree, left subtree.
    std::uint64_t path;
    int depth;
  };
  FRD_CHECK_MSG(!structured || depth_cutoff <= 64,
                "the structured resolver orders merge trees up to 64 deep");
  bst_node* result = nullptr;

  rt.run([&] {
    std::mutex mu;
    std::vector<fixup> fixups;

    // Recursive merge; fix-ups are recorded after the creates return, so
    // under serial eager execution the order is DFS post-order: children
    // before their parent.
    std::function<bst_node*(bst_node*, bst_node*, int, std::uint64_t)> merge =
        [&](bst_node* a, bst_node* b, int depth,
            std::uint64_t path) -> bst_node* {
      if (a == nullptr) return b;
      if (b == nullptr) return a;
      if (depth >= depth_cutoff) return detail::bst_merge_serial<H>(a, b);
      auto [lo, hi] = detail::bst_split<H>(b, detect::hooks::ld<H>(a->key));
      bst_node* al = detect::hooks::ld<H>(a->left);
      bst_node* ar = detect::hooks::ld<H>(a->right);
      const std::uint64_t left_path =
          depth < 64 ? path | (std::uint64_t{1} << (63 - depth)) : path;
      future_t fl = rt.create_future([&, al, lo, depth, left_path] {
        return merge(al, lo, depth + 1, left_path);
      });
      future_t fr = rt.create_future(
          [&, ar, hi, depth, path] { return merge(ar, hi, depth + 1, path); });
      {
        std::lock_guard<std::mutex> g(mu);
        fixups.push_back(fixup{a, std::move(fl), std::move(fr), path, depth});
      }
      return a;
    };

    result = merge(t1, t2, 0, 0);
    // All bodies (and so all fix-up pushes) are complete past this point;
    // no-op under serial where create was eager anyway.
    rt.quiesce();

    // General resolves bottom-up in push order, joining handles whose
    // creators are still parallel to main. Structured resolves top-down: a
    // fix-up's handles were created by a body that an earlier (parent)
    // fix-up already joined. Serial eager execution pushes in post-order
    // (left, right, parent), so its merge-tree order is the reverse push
    // order.
    if (structured) {
      std::sort(fixups.begin(), fixups.end(),
                [](const fixup& x, const fixup& y) {
                  return x.path != y.path ? x.path < y.path
                                          : x.depth < y.depth;
                });
    }
    for (fixup& f : fixups) {
      detect::hooks::st<H>(f.parent->left, f.left.get());
      detect::hooks::st<H>(f.parent->right, f.right.get());
    }
  });
  return result;
}

template <typename H, typename RT>
bst_node* bst_structured(RT& rt, bst_input& in, int depth_cutoff) {
  return bst_merge_futures<H>(rt, in.t1, in.t2, depth_cutoff, true);
}

template <typename H, typename RT>
bst_node* bst_general(RT& rt, bst_input& in, int depth_cutoff) {
  return bst_merge_futures<H>(rt, in.t1, in.t2, depth_cutoff, false);
}

}  // namespace frd::bench
