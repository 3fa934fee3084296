// LZ77-style byte compressor (the zlib stand-in for the dedup pipeline).
//
// PARSEC's dedup compresses each unique chunk with zlib; the paper could not
// instrument that dynamic library, which made dedup the overhead outlier in
// Figures 6-7. Our compressor is templated on the instrumentation hook
// policy, so the benches can reproduce the paper's setup (uninstrumented
// compression, hooks::none) *and* run the counterfactual ablation the
// authors could not (hooks::active).
//
// Format (self-delimiting op stream):
//   0x00                         end of stream
//   0x01 <varint n> <n bytes>    literal run
//   0x02 <varint len> <varint d> match: copy `len` bytes from distance `d`
//
// Greedy matcher with a 4-byte hash head + bounded chain walk, 64 KiB
// window — dictionary-coder shaped like deflate, small enough to audit.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "support/check.hpp"

namespace frd::compress {

// Raised on malformed compressed input: truncated varints, unknown opcodes,
// out-of-window match distances, or output overrunning a declared bound.
// Decoding runs on UNTRUSTED bytes (container chunks pulled off disk), so
// corruption must surface as a catchable error the caller can diagnose —
// never as a check.hpp abort.
class decode_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Varint plumbing shared by the codecs and their tests (LEB128, low 7 bits
// first). Writes v's varint at `out`, which has room for 10 bytes, and
// returns its end.
inline std::uint8_t* put_varint(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}
// Appends v's varint to `out`.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
// Reads at `pos`, advances it; throws decode_error on truncation or a value
// overflowing 64 bits (corrupt stream).
std::uint64_t get_varint(std::span<const std::uint8_t> in, std::size_t& pos);

namespace detail {

constexpr std::size_t kWindow = 1u << 16;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxChain = 32;
constexpr std::size_t kHashBits = 15;

inline std::uint32_t hash4(std::uint32_t x) {
  return (x * 2654435761u) >> (32 - kHashBits);
}

}  // namespace detail

// Compresses a sequence of inputs one at a time, keeping the match finder's
// tables and the output buffer between calls: a caller that compresses many
// small inputs (the .frdtz writer, one per ~4 KiB chunk) allocates and
// fills the 128 KiB head table once instead of once per input. The head
// table stores input positions offset by a per-call base, and an entry
// below the current call's base was left by an earlier input and reads as
// empty, so nothing is cleared between calls. Each call's output is
// exactly what a fresh compressor would produce for the same input. Holds
// 128 KiB plus 6 bytes per byte of the largest input so far (4 for the
// chain, 2 for the output); not synchronized, so one instance per thread.
class lz_compressor {
 public:
  lz_compressor() : head_(std::size_t{1} << detail::kHashBits, 0) {}

  // Compresses `in`, which must be shorter than 2^32 - 1 bytes (a longer
  // input throws std::length_error). The result is a view of the
  // compressor's output buffer, valid until the next call.
  // Every input byte the matcher loads is announced through H::read, ranges
  // as wide as the load, and every literal byte copied out through H::write.
  template <typename H>
  std::span<const std::uint8_t> compress(std::span<const std::uint8_t> in);

 private:
  // Makes room for an input of `n` bytes and its output, and returns the
  // base its positions are stored at.
  std::uint32_t start(std::size_t n);

  std::vector<std::uint32_t> head_;   // hash -> base + newest position
  std::vector<std::uint32_t> chain_;  // position -> previous position
  std::vector<std::uint8_t> out_;
  std::uint32_t base_ = 1;            // 0 is never a live entry
};

// Compresses `in` with a compressor of its own (see lz_compressor).
template <typename H>
std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> in) {
  lz_compressor c;
  const std::span<const std::uint8_t> out = c.compress<H>(in);
  return {out.begin(), out.end()};
}

namespace detail {

template <typename H>
std::uint32_t load4(const std::uint8_t* p) {
  H::read(p, 4);
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
  } else {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
}

// Length of the common prefix of p[c..n) and p[i..n), c < i: eight bytes a
// step while a whole word fits before `n`, then byte by byte.
template <typename H>
std::size_t match_length(const std::uint8_t* p, std::size_t c, std::size_t i,
                         std::size_t n) {
  std::size_t len = 0;
  for (; i + len + 8 <= n; len += 8) {
    H::read(p + c + len, 8);
    H::read(p + i + len, 8);
    std::uint64_t a, b;
    std::memcpy(&a, p + c + len, 8);
    std::memcpy(&b, p + i + len, 8);
    if (a != b) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(a ^ b)
                          : std::countl_zero(a ^ b);
      return len + static_cast<std::size_t>(bit / 8);
    }
  }
  for (; i + len < n; ++len) {
    H::read(p + c + len, 1);
    H::read(p + i + len, 1);
    if (p[c + len] != p[i + len]) break;
  }
  return len;
}

}  // namespace detail

template <typename H>
std::span<const std::uint8_t> lz_compressor::compress(
    std::span<const std::uint8_t> in) {
  const std::uint8_t* const p = in.data();
  const std::size_t n = in.size();
  const std::uint32_t base = start(n);
  std::uint32_t* const head = head_.data();
  std::uint32_t* const chain = chain_.data();
  std::uint8_t* const out = out_.data();
  std::uint8_t* o = out;
  std::size_t lit_start = 0;

  auto flush_literals = [&](std::size_t upto) {
    if (upto == lit_start) return;
    const std::size_t len = upto - lit_start;
    *o++ = 0x01;
    o = put_varint(o, len);
    H::read(p + lit_start, len);
    std::memcpy(o, p + lit_start, len);
    H::write(o, len);
    o += len;
  };

  if (n >= detail::kMinMatch) {
    const std::size_t last = n - detail::kMinMatch;  // last match start
    // Links position `k`, whose four bytes hash to `hk`, into its chain.
    // The chain holds positions in this input, so a head entry an earlier
    // input left, below base, becomes a position past this input's end.
    const auto link = [&](std::size_t k, std::uint32_t hk) {
      chain[k] = head[hk] - base;
      head[hk] = base + static_cast<std::uint32_t>(k);
    };
    // The hash at `k`, its head entry fetched ahead of the walk there.
    const auto hash_at = [&](std::size_t k) {
      if (k > last) return std::uint32_t{0};
      const std::uint32_t hk = detail::hash4(detail::load4<H>(p + k));
      __builtin_prefetch(head + hk);
      return hk;
    };

    std::size_t i = 0;
    std::uint32_t h = hash_at(0);
    while (i <= last) {
      // A candidate lies in [lo, i): in this input and at most kWindow
      // back. Unsigned, `c - lo < span` tests both ends in one compare.
      const auto lo = static_cast<std::uint32_t>(
          i > detail::kWindow ? i - detail::kWindow : 0);
      const std::uint32_t span = static_cast<std::uint32_t>(i) - lo;
      // Greedy keeps the first longest match of at least kMinMatch bytes,
      // so a candidate only matters if it also matches the four bytes that
      // end at best_len, the longest found so far (first kMinMatch - 1).
      std::size_t best_len = detail::kMinMatch - 1, best_dist = 0;
      std::uint32_t tail = detail::load4<H>(p + i + best_len - 3);
      std::uint32_t c = head[h] - base;
      for (std::size_t depth = 0; depth < detail::kMaxChain && c - lo < span;
           ++depth) {
        const std::uint32_t next = chain[c];
        if (detail::load4<H>(p + c + best_len - 3) == tail) {
          const std::size_t len = detail::match_length<H>(p, c, i, n);
          if (len > best_len) {
            best_len = len;
            best_dist = i - c;
            if (i + len == n) break;  // no later candidate can match further
            tail = detail::load4<H>(p + i + best_len - 3);
          }
        }
        c = next;
      }

      link(i, h);
      if (best_dist == 0) {
        h = hash_at(++i);
        continue;
      }
      flush_literals(i);
      *o++ = 0x02;
      o = put_varint(o, best_len);
      o = put_varint(o, best_dist);
      // Index every position covered by the match so later data can refer
      // into it.
      const std::size_t end = i + best_len;
      h = hash_at(end);
      for (std::size_t k = i + 1, stop = std::min(end, last + 1); k < stop;
           ++k) {
        link(k, detail::hash4(detail::load4<H>(p + k)));
      }
      i = end;
      lit_start = i;
    }
  }
  flush_literals(n);
  *o++ = 0x00;
  return {out, static_cast<std::size_t>(o - out)};
}

// Decompresses a stream produced by lz_compress into `out`, producing at
// most out.size() bytes, and returns how many it produced. Throws
// decode_error on a malformed stream, and when an op would pass the end of
// `out`: a corrupt match length cannot balloon the output (the container
// passes buffers sized from each chunk's declared raw size). Literal runs
// are copied whole, and a match eight bytes at a time when its distance is
// at least eight.
std::size_t lz_decompress(std::span<const std::uint8_t> in,
                          std::span<std::uint8_t> out);

// The same, into a vector of exactly the decoded size, for in-process
// streams and tests. `max_output` bounds the produced bytes as out.size()
// does above; the stream is walked once to size the vector, with the same
// checks in the same order, so it fails exactly as decoding would.
std::vector<std::uint8_t> lz_decompress(std::span<const std::uint8_t> in,
                                        std::size_t max_output = SIZE_MAX);

}  // namespace frd::compress
