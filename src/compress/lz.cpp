#include "compress/lz.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace frd::compress {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t buf[10];
  out.insert(out.end(), buf, put_varint(buf, v));
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
  // The output's longest form: a literal run of one byte before each
  // 4-byte match costs 8 bytes per 5 input bytes, so 2n + 16 always fits.
  if (out_.size() < 2 * n + 16) out_.resize(2 * n + 16);
  const std::uint32_t base = base_;
  base_ += static_cast<std::uint32_t>(n);
  return base;
}

namespace {

// get_varint with the values of up to three bytes, which cover every
// match distance in the 64 KiB window, decoded inline.
inline std::uint64_t op_field(std::span<const std::uint8_t> in,
                              std::size_t& pos) {
  if (in.size() - pos >= 3) {
    const std::uint8_t* p = in.data() + pos;
    const std::uint64_t b0 = p[0];
    if (b0 < 0x80) {
      pos += 1;
      return b0;
    }
    const std::uint64_t b1 = p[1];
    if (b1 < 0x80) {
      pos += 2;
      return (b0 & 0x7f) | (b1 << 7);
    }
    const std::uint64_t b2 = p[2];
    if (b2 < 0x80) {
      pos += 3;
      return (b0 & 0x7f) | ((b1 & 0x7f) << 7) | (b2 << 14);
    }
  }
  return get_varint(in, pos);
}

// Runs the op stream of `in`, checking every op, and returns the decoded
// size. Writes the decoded bytes to `out`, which holds max_output bytes,
// unless `out` is null: then it only walks the ops.
//
// Most ops are short (the .frdtz chunks average five bytes per op), so the
// copies are made in fixed-size words where the buffers have room: a
// literal of up to 16 bytes as 16, a match with distance >= 8 eight bytes a
// step past its end. The bytes written past an op's end lie beyond what has
// been produced, inside `out`, and later ops overwrite them.
std::size_t run_ops(std::span<const std::uint8_t> in, std::uint8_t* out,
                    std::size_t max_output) {
  std::size_t pos = 0;
  std::size_t n = 0;  // bytes produced
  for (;;) {
    if (pos >= in.size()) throw decode_error("truncated stream: end opcode missing");
    const std::uint8_t op = in[pos++];
    if (op == 0x00) return n;
    if (op == 0x01) {
      const std::uint64_t len = op_field(in, pos);
      if (len > in.size() - pos) throw decode_error("literal run past end of stream");
      if (len > max_output - n) {
        throw decode_error("literal run overflows the declared output size");
      }
      if (out != nullptr) {
        if (len <= 16 && in.size() - pos >= 16 && max_output - n >= 16) {
          std::memcpy(out + n, in.data() + pos, 16);
        } else if (len != 0) {
          std::memcpy(out + n, in.data() + pos, len);
        }
      }
      pos += len;
      n += len;
      continue;
    }
    if (op != 0x02) throw decode_error("unknown opcode");
    const std::uint64_t len = op_field(in, pos);
    const std::uint64_t dist = op_field(in, pos);
    if (dist == 0 || dist > n) {
      throw decode_error("match distance out of range");
    }
    if (len > max_output - n) {
      throw decode_error("match length overflows the declared output size");
    }
    if (out != nullptr) {
      // An overlapping match (dist < len) replicates: each copy reads only
      // bytes already written, which holds for whole words when dist >= 8.
      std::uint8_t* dst = out + n;
      const std::uint8_t* src = dst - dist;
      std::size_t left = len;
      if (dist >= 8) {
        if (max_output - n - len >= 8) {
          for (std::size_t k = 0; k < len; k += 8) {
            std::memcpy(dst + k, src + k, 8);
          }
          left = 0;
        } else {
          for (; left >= 8; left -= 8, dst += 8, src += 8) {
            std::memcpy(dst, src, 8);
          }
        }
      }
      for (; left > 0; --left) *dst++ = *src++;
    }
    n += len;
  }
}

}  // namespace

std::size_t lz_decompress(std::span<const std::uint8_t> in,
                          std::span<std::uint8_t> out) {
  return run_ops(in, out.empty() ? nullptr : out.data(), out.size());
}

std::vector<std::uint8_t> lz_decompress(std::span<const std::uint8_t> in,
                                        std::size_t max_output) {
  std::vector<std::uint8_t> out(run_ops(in, nullptr, max_output));
  lz_decompress(in, out);
  return out;
}

}  // namespace frd::compress
