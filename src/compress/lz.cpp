#include "compress/lz.hpp"

#include <algorithm>
#include <limits>

namespace frd::compress {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(std::span<const std::uint8_t> in, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) throw decode_error("truncated varint");
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift >= 64) throw decode_error("varint overflows 64 bits");
  }
}

std::uint32_t lz_compressor::start(std::size_t n) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (n >= kMax) {
    throw std::length_error("lz_compress: input of 2^32 - 1 bytes or more");
  }
  // The call stores base_ + [0, n); when that would wrap, every old entry is
  // cleared and numbering starts over.
  if (n > kMax - base_) {
    std::fill(head_.begin(), head_.end(), 0u);
    base_ = 1;
  }
  if (chain_.size() < n) chain_.resize(n);
  const std::uint32_t base = base_;
  base_ += static_cast<std::uint32_t>(n);
  return base;
}

std::vector<std::uint8_t> lz_decompress(std::span<const std::uint8_t> in,
                                        std::size_t max_output) {
  std::vector<std::uint8_t> out;
  std::size_t pos = 0;
  for (;;) {
    if (pos >= in.size()) throw decode_error("truncated stream: end opcode missing");
    const std::uint8_t op = in[pos++];
    if (op == 0x00) return out;
    if (op == 0x01) {
      const std::uint64_t n = get_varint(in, pos);
      if (n > in.size() - pos) throw decode_error("literal run past end of stream");
      if (n > max_output - out.size()) {
        throw decode_error("literal run overflows the declared output size");
      }
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(pos),
                 in.begin() + static_cast<std::ptrdiff_t>(pos + n));
      pos += n;
      continue;
    }
    if (op != 0x02) throw decode_error("unknown opcode");
    const std::uint64_t len = get_varint(in, pos);
    const std::uint64_t dist = get_varint(in, pos);
    if (dist == 0 || dist > out.size()) {
      throw decode_error("match distance out of range");
    }
    if (len > max_output - out.size()) {
      throw decode_error("match length overflows the declared output size");
    }
    // Byte-by-byte on purpose: overlapping matches (dist < len) replicate.
    std::size_t src = out.size() - dist;
    for (std::uint64_t k = 0; k < len; ++k) out.push_back(out[src++]);
  }
}

}  // namespace frd::compress
