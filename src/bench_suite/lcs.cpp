#include "bench_suite/lcs.hpp"

namespace frd::bench {

// Two rolling rows, since only the length is returned. Branch-free: a DP
// row never decreases along j, and a diagonal step adds at most one, so
// d[i][j] = max(d[i][j-1], d[i-1][j], d[i-1][j-1] + match), and only the
// max with the left cell, kept in a register, depends on the previous
// iteration. Its speed then does not depend on where the linker places it;
// a branchy form that reloaded the left cell ran 4-12 ms at n = 2048 on a
// Xeon with the code alignment alone deciding where in that range.
int lcs_reference(const lcs_input& in) {
  const std::size_t m = in.b.size();
  std::vector<std::int32_t> up(m + 1, 0), row(m + 1, 0);
  const char* b = in.b.data();
  for (const char ai : in.a) {
    std::int32_t left = 0;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::int32_t diag = up[j - 1] + (ai == b[j - 1] ? 1 : 0);
      left = std::max(left, std::max(up[j], diag));
      row[j] = left;
    }
    up.swap(row);
  }
  return up[m];
}

}  // namespace frd::bench
