// Shared helpers for the six paper benchmarks (§6).
//
// All kernels are templated on the instrumentation hook policy H
// (detect::hooks::none or detect::hooks::active) and on the runtime RT —
// any type exposing the shared runtime surface (run / create_future /
// future_of / quiesce): rt::serial_runtime for the paper's sequential
// detection runs, and rt::parallel_runtime for work-stealing execution,
// bare or observed by the online engine for live detection
// (online::runtime). Under the serial runtime every kernel emits the exact
// event stream it always did; the parallel-safety notes at each kernel
// explain why the handle access patterns are data-race-free under the
// parallel one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "runtime/serial.hpp"
#include "support/prng.hpp"

namespace frd::bench {

// Random byte string over a small alphabet (LCS/SW inputs; a small alphabet
// gives realistic match density).
inline std::string random_string(std::size_t n, std::uint64_t seed,
                                 int alphabet = 4) {
  prng rng(seed);
  std::string s(n, 'A');
  for (auto& c : s)
    c = static_cast<char>('A' + static_cast<int>(rng.below(alphabet)));
  return s;
}

// Tile-grid index helper for the wavefront benchmarks.
struct tile_grid {
  std::size_t n;      // problem size (cells per side)
  std::size_t base;   // tile side length
  std::size_t tiles;  // tiles per side

  tile_grid(std::size_t n_, std::size_t base_)
      : n(n_), base(base_), tiles((n_ + base_ - 1) / base_) {}

  std::size_t index(std::size_t ti, std::size_t tj) const {
    return ti * tiles + tj;
  }
  std::size_t row_begin(std::size_t ti) const { return ti * base + 1; }
  std::size_t row_end(std::size_t ti) const {
    return std::min(n, (ti + 1) * base) + 1;
  }
};

}  // namespace frd::bench
