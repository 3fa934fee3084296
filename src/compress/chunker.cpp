#include "compress/chunker.hpp"

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
}

std::size_t stream_chunker::next_cut(std::span<const std::uint8_t> data) {
  std::uint64_t hash = hash_;
  std::size_t len = len_;
  for (std::size_t k = 0; k < data.size(); ++k) {
    hash = (hash << 1) + gear_[data[k]];
    ++len;
    if ((len >= params_.min_size && (hash & mask_) == 0) ||
        len >= params_.max_size) {
      hash_ = 0;
      len_ = 0;
      return k + 1;
    }
  }
  hash_ = hash;
  len_ = len;
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
