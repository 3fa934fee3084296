#include "compress/chunker.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"
#include "support/prng.hpp"

namespace frd::compress {

const std::uint64_t* gear_table() {
  static const auto table = [] {
    // Deterministic table from our own PRNG: identical chunking everywhere.
    static std::uint64_t t[256];
    prng rng(0x6765617268617368ULL);  // "gearhash"
    for (auto& v : t) v = rng.next();
    return t;
  }();
  return table;
}

stream_chunker::stream_chunker(const chunk_params& params)
    : params_(params), gear_(gear_table()) {
  FRD_CHECK_MSG(params.min_size > 0 && params.min_size <= params.target_size &&
                    params.target_size <= params.max_size,
                "chunk_params must satisfy min <= target <= max");
  // Mask with log2(target) low bits: expected chunk length ~= target.
  std::uint64_t mask = 1;
  while (mask < params.target_size) mask <<= 1;
  mask_ = mask - 1;
  // The low `width` bits of the hash are a sum of the last `width` bytes'
  // gear values shifted left by 0 .. width - 1: an older byte's value is
  // shifted past them, and carries only run upward. No cut can fall before
  // min_size, so hashing may start `width` bytes before it.
  const auto width =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::bit_width(mask_)));
  skip_ = params.min_size > width ? params.min_size - width : 0;
}

std::size_t stream_chunker::next_cut(std::span<const std::uint8_t> data) {
  const std::uint8_t* const p = data.data();
  const std::size_t n = data.size();
  const std::uint64_t* const gear = gear_;
  const std::uint64_t mask = mask_;
  const std::size_t len = len_;  // bytes of the open chunk before p[0]
  // How many of p[0, n) leave the open chunk at most `size` bytes long.
  const auto upto = [&](std::size_t size) {
    return size > len ? std::min(n, size - len) : std::size_t{0};
  };
  std::uint64_t hash = hash_;
  // Bytes ahead of the hashed ones are only counted; the hash is still the
  // 0 it was reset to.
  std::size_t k = upto(skip_);
  for (const std::size_t stop = std::max(k, upto(params_.min_size - 1));
       k < stop; ++k) {
    hash = (hash << 1) + gear[p[k]];
  }
  // From min_size on, a chunk ends where the hash's low bits vanish, and
  // at max_size in any case.
  std::size_t cut = 0;
  const std::size_t stop = upto(params_.max_size);
  // Two bytes a step: the second hash adds both bytes' shifted gear values
  // to hash << 2, so the chain from one step to the next is one shift and
  // one add, and the first hash, tested too, is off that chain.
  for (; k + 2 <= stop; k += 2) {
    const std::uint64_t g0 = gear[p[k]];
    const std::uint64_t g1 = gear[p[k + 1]];
    const std::uint64_t first = (hash << 1) + g0;
    hash = (hash << 2) + ((g0 << 1) + g1);
    if (((first & mask) == 0) | ((hash & mask) == 0)) {
      cut = (first & mask) == 0 ? k + 1 : k + 2;
      break;
    }
  }
  if (cut == 0 && k < stop) {
    hash = (hash << 1) + gear[p[k]];
    ++k;
    if ((hash & mask) == 0) cut = k;
  }
  if (cut == 0 && len + k == params_.max_size) cut = k;
  if (cut != 0) {
    hash_ = 0;
    len_ = 0;
    return cut;
  }
  hash_ = hash;
  len_ = len + n;
  return 0;
}

std::vector<chunk_ref> chunk_bytes(std::span<const std::uint8_t> data,
                                   const chunk_params& params) {
  stream_chunker ck(params);
  std::vector<chunk_ref> chunks;
  for (std::size_t start = 0; start < data.size();) {
    const std::size_t cut = ck.next_cut(data.subspan(start));
    const std::size_t size = cut != 0 ? cut : data.size() - start;
    chunks.push_back(chunk_ref{start, size});
    start += size;
  }
  return chunks;
}

}  // namespace frd::compress
