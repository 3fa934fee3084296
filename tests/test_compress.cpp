// Tests for the compress substrate: LZ codec round-trips, chunker
// properties, SHA-1 against FIPS test vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compress/chunker.hpp"
#include "compress/digest.hpp"
#include "compress/lz.hpp"
#include "container/format.hpp"
#include "detect/detector.hpp"
#include "support/prng.hpp"

#ifndef FRD_CORPUS_DIR
#define FRD_CORPUS_DIR "corpus"
#endif

namespace frd::compress {
namespace {

using detect::hooks::none;

std::string corpus_dir() {
  if (const char* env = std::getenv("FRD_CORPUS_DIR")) return env;
  return FRD_CORPUS_DIR;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ------------------------------------------------------------------- lz ---
TEST(Lz, VarintRoundTrip) {
  std::vector<std::uint8_t> buf;
  const std::uint64_t vals[] = {0, 1, 127, 128, 300, 1u << 20, (1ull << 56) + 5};
  for (auto v : vals) put_varint(buf, v);
  std::size_t pos = 0;
  for (auto v : vals) EXPECT_EQ(get_varint(buf, pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(Lz, EmptyInput) {
  const std::vector<std::uint8_t> in;
  auto c = lz_compress<none>(in);
  EXPECT_EQ(lz_decompress(c), in);
}

TEST(Lz, AllLiteralsRoundTrip) {
  auto in = bytes_of("abcdefgh12345678ZYXW");  // no repeats >= 4
  auto c = lz_compress<none>(in);
  EXPECT_EQ(lz_decompress(c), in);
}

TEST(Lz, RepetitiveInputCompresses) {
  std::vector<std::uint8_t> in;
  for (int i = 0; i < 1000; ++i) {
    const auto piece = bytes_of("the quick brown fox jumps over the lazy dog. ");
    in.insert(in.end(), piece.begin(), piece.end());
  }
  auto c = lz_compress<none>(in);
  EXPECT_EQ(lz_decompress(c), in);
  EXPECT_LT(c.size(), in.size() / 5) << "repetitive text must compress well";
}

TEST(Lz, OverlappingMatchRunLength) {
  // 'aaaa...' forces dist < len copies (RLE through the window).
  std::vector<std::uint8_t> in(5000, 'a');
  auto c = lz_compress<none>(in);
  EXPECT_EQ(lz_decompress(c), in);
  EXPECT_LT(c.size(), 64u);
}

TEST(Lz, BinaryRandomDataRoundTrips) {
  prng rng(2024);
  std::vector<std::uint8_t> in(100000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
  auto c = lz_compress<none>(in);
  EXPECT_EQ(lz_decompress(c), in);
  EXPECT_GE(c.size(), in.size()) << "incompressible data should not shrink";
}

TEST(Lz, MixedRedundancyRoundTrips) {
  prng rng(7);
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> motif(300);
  for (auto& b : motif) b = static_cast<std::uint8_t>(rng.next());
  for (int i = 0; i < 200; ++i) {
    if (rng.chance(2, 3)) {
      in.insert(in.end(), motif.begin(), motif.end());
    } else {
      for (int k = 0; k < 100; ++k)
        in.push_back(static_cast<std::uint8_t>(rng.next()));
    }
  }
  auto c = lz_compress<none>(in);
  EXPECT_EQ(lz_decompress(c), in);
  EXPECT_LT(c.size(), in.size());
}

// Corrupt input is a recoverable decode_error, never an abort: container
// chunks come off disk untrusted.
TEST(LzDecodeError, RejectsCorruptStreams) {
  auto reject = [](std::vector<std::uint8_t> bytes) {
    EXPECT_THROW((void)lz_decompress(bytes), decode_error);
  };
  // Match whose varint distance is truncated.
  reject({0x02, 0x10, 0xFF});
  // Match reaching past the produced history.
  reject({0x02, 0x04, 0x10, 0x00});
  // Zero distance is never valid.
  reject({0x01, 0x01, 'x', 0x02, 0x02, 0x00, 0x00});
  // Literal run claiming more bytes than the stream holds.
  reject({0x01, 0x7F, 'a', 'b'});
  // Unknown opcode.
  reject({0x03});
  // Missing end opcode.
  reject({0x01, 0x01, 'x'});
  // Empty stream is also missing its end opcode.
  reject({});
  // A varint spread over more than 64 bits of payload.
  std::vector<std::uint8_t> wide{0x01};
  for (int i = 0; i < 10; ++i) wide.push_back(0x80);
  wide.push_back(0x01);
  reject(wide);
}

TEST(LzDecodeError, MaxOutputBoundsDecodedSize) {
  std::vector<std::uint8_t> in(500, 'a');
  auto c = lz_compress<none>(in);
  EXPECT_EQ(lz_decompress(c, 500).size(), 500u);
  // One byte short: the RLE match would overflow the declared bound.
  EXPECT_THROW((void)lz_decompress(c, 499), decode_error);
  // A pure-literal stream overflowing the bound is caught too.
  const std::vector<std::uint8_t> lit{0x01, 0x03, 'x', 'y', 'z', 0x00};
  EXPECT_THROW((void)lz_decompress(lit, 2), decode_error);
}

TEST(Lz, WindowBoundaryMatches) {
  // A motif recurring at exactly the 64 KiB window edge: the second copy is
  // the farthest back-reference the format can emit. Either the matcher
  // finds it or falls back to literals — the round-trip must hold both ways.
  constexpr std::size_t kWindow = detail::kWindow;
  prng rng(31);
  std::vector<std::uint8_t> motif(256);
  for (auto& b : motif) b = static_cast<std::uint8_t>(rng.next());

  for (std::size_t gap : {kWindow - motif.size(), kWindow - motif.size() + 1,
                          kWindow, kWindow + 1}) {
    std::vector<std::uint8_t> in(motif);
    while (in.size() < motif.size() + gap)
      in.push_back(static_cast<std::uint8_t>(rng.next()));
    in.insert(in.end(), motif.begin(), motif.end());
    auto c = lz_compress<none>(in);
    EXPECT_EQ(lz_decompress(c), in) << "gap " << gap;
  }
}

TEST(Lz, MaxLengthLiteralRun) {
  // Incompressible data long enough that the final literal run's varint
  // needs several bytes; decode must reproduce it exactly.
  prng rng(77);
  std::vector<std::uint8_t> in(300000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
  auto c = lz_compress<none>(in);
  auto out = lz_decompress(c, in.size());
  EXPECT_EQ(out, in);
}

TEST(Lz, InstrumentedVariantProducesIdenticalOutput) {
  // hooks::active with no bound detector must not change results.
  auto in = bytes_of("abababababababab repeated payload payload payload");
  auto plain = lz_compress<none>(in);
  auto hooked = lz_compress<detect::hooks::active>(in);
  EXPECT_EQ(plain, hooked);
}

// A seeded mix of what the compressor meets in a trace container: random
// runs, a repeated motif, zero runs, and access records (kind byte plus a
// varint heap address).
std::vector<std::uint8_t> mixed_input(std::uint64_t seed, std::size_t size) {
  prng rng(seed);
  std::vector<std::uint8_t> motif(200);
  for (auto& b : motif) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> in;
  while (in.size() < size) {
    switch (rng.below(4)) {
      case 0:
        for (std::uint64_t k = rng.below(300); k > 0; --k)
          in.push_back(static_cast<std::uint8_t>(rng.next()));
        break;
      case 1:
        in.insert(in.end(), motif.begin(),
                  motif.begin() + static_cast<std::ptrdiff_t>(
                                      1 + rng.below(motif.size())));
        break;
      case 2:
        in.insert(in.end(), rng.below(100), std::uint8_t{0});
        break;
      default:
        for (int k = 0; k < 20; ++k) {
          in.push_back(static_cast<std::uint8_t>(9 + rng.below(2)));
          put_varint(in, 0x7f3a00001000ULL + 4 * rng.below(512));
        }
    }
  }
  in.resize(size);
  return in;
}

// The compressed bytes of one seeded input, fixed: the container's chunks
// must keep compressing to exactly what the checked-in .frdtz files hold.
TEST(Lz, OutputIsPinned) {
  const auto in = mixed_input(2019, 100000);
  ASSERT_EQ(to_hex(sha1(in)), "cc12d8216545fee3c13a564a4e95e21a987642ff")
      << "the input generator changed, not the compressor";
  const auto c = lz_compress<none>(in);
  EXPECT_EQ(c.size(), 55153u);
  EXPECT_EQ(to_hex(sha1(c)), "dd09ffc02e8f9ac6b469cf80cde9280433b38600");
  EXPECT_EQ(lz_decompress(c), in);
}

// Short, long, window-crossing, degenerate and incompressible inputs.
std::vector<std::vector<std::uint8_t>> compressor_inputs() {
  std::vector<std::vector<std::uint8_t>> v = {
      {}, {'a'}, {'a', 'b'}, {'a', 'a', 'a'}, {'w', 'x', 'y', 'z'}};
  v.push_back(mixed_input(3, 16 << 10));
  v.push_back(mixed_input(4, (64 << 10) + 1));  // past the 64 KiB window
  v.push_back(std::vector<std::uint8_t>(40000, 0));
  prng rng(8);
  std::vector<std::uint8_t> random(30000);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng.next());
  v.push_back(random);
  std::vector<std::uint8_t> repetitive;
  while (repetitive.size() < 50000) {
    const auto piece = bytes_of(rng.chance(1, 2) ? "fox jumps over " : "dog ");
    repetitive.insert(repetitive.end(), piece.begin(), piece.end());
  }
  v.push_back(repetitive);
  return v;
}

// One compressor reused over a sequence — forward, then backward so short
// inputs follow long ones and meet their stale table entries — writes what
// a fresh compressor writes for each input.
template <typename H>
void expect_reuse_matches_fresh_calls() {
  auto inputs = compressor_inputs();
  const auto forward = inputs;
  inputs.insert(inputs.end(), forward.rbegin(), forward.rend());
  lz_compressor reused;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const auto fresh = lz_compress<H>(inputs[k]);
    const auto again = reused.compress<H>(inputs[k]);
    EXPECT_EQ(std::vector<std::uint8_t>(again.begin(), again.end()), fresh)
        << "input " << k;
    EXPECT_EQ(lz_decompress(fresh, inputs[k].size()), inputs[k])
        << "input " << k;
  }
}

TEST(LzCompressor, ReuseMatchesFreshCallsUninstrumented) {
  expect_reuse_matches_fresh_calls<none>();
}

// The byte-at-a-time decoder lz_decompress was before it copied whole
// literal runs and match words: one push_back per output byte. Kept as the
// reference the decoder must match, output for output and message for
// message.
std::vector<std::uint8_t> reference_lz_decompress(
    std::span<const std::uint8_t> in, std::size_t max_output) {
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
    std::size_t src = out.size() - dist;
    for (std::uint64_t k = 0; k < len; ++k) out.push_back(out[src++]);
  }
}

// A decoder's output, or the message it failed with.
struct lz_outcome {
  std::vector<std::uint8_t> out;
  std::string error;
  bool operator==(const lz_outcome&) const = default;
};

template <typename F>
lz_outcome lz_outcome_of(F&& decode) {
  try {
    return {decode(), ""};
  } catch (const decode_error& e) {
    return {{}, e.what()};
  }
}

// Every decoder entry point against the reference on `in` with `max`.
void expect_lz_like_reference(std::span<const std::uint8_t> in, std::size_t max,
                              const std::string& what) {
  const lz_outcome want =
      lz_outcome_of([&] { return reference_lz_decompress(in, max); });
  EXPECT_EQ(lz_outcome_of([&] { return lz_decompress(in, max); }), want)
      << what << " (vector)";
  // Into a buffer of exactly `max` bytes, with guard bytes after it that
  // must stay untouched.
  std::vector<std::uint8_t> buf(max + 32, 0xA5);
  const lz_outcome into = lz_outcome_of([&] {
    const std::size_t n =
        lz_decompress(in, std::span<std::uint8_t>(buf.data(), max));
    return std::vector<std::uint8_t>(buf.begin(),
                                     buf.begin() + static_cast<std::ptrdiff_t>(n));
  });
  EXPECT_EQ(into, want) << what << " (span)";
  for (std::size_t k = max; k < buf.size(); ++k) {
    ASSERT_EQ(buf[k], 0xA5) << what << ": wrote past the buffer at " << k;
  }
}

// A seeded op stream: literal runs of 1-40 bytes and matches of length
// 1-300, mostly at distances 1-16 (overlapping when shorter than the match),
// some farther back.
std::vector<std::uint8_t> seeded_lz_stream(std::uint64_t seed,
                                           std::size_t& decoded) {
  prng rng(seed);
  std::vector<std::uint8_t> s;
  decoded = 0;
  for (int op = 0; op < 60; ++op) {
    if (decoded == 0 || rng.chance(1, 4)) {
      const std::uint64_t n = 1 + rng.below(40);
      s.push_back(0x01);
      put_varint(s, n);
      for (std::uint64_t k = 0; k < n; ++k)
        s.push_back(static_cast<std::uint8_t>(rng.next()));
      decoded += n;
    } else {
      const std::uint64_t len = 1 + rng.below(300);
      const std::uint64_t dist =
          rng.chance(3, 4) ? 1 + rng.below(std::min<std::size_t>(16, decoded))
                           : 1 + rng.below(decoded);
      s.push_back(0x02);
      put_varint(s, len);
      put_varint(s, dist);
      decoded += len;
    }
  }
  s.push_back(0x00);
  return s;
}

TEST(LzReference, SeededStreamsDecodeLikeTheReference) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::size_t decoded = 0;
    const auto s = seeded_lz_stream(seed, decoded);
    const std::string what = "seed " + std::to_string(seed);
    // Every match distance and length class is exercised, and the declared
    // size is met exactly, missed by one byte, and left with room.
    expect_lz_like_reference(s, decoded, what + ", exact");
    expect_lz_like_reference(s, decoded - 1, what + ", one short");
    expect_lz_like_reference(s, decoded + 100, what + ", with room");
    ASSERT_EQ(reference_lz_decompress(s, decoded).size(), decoded);
  }
}

TEST(LzReference, DamagedStreamsFailLikeTheReference) {
  prng rng(99);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::size_t decoded = 0;
    auto s = seeded_lz_stream(seed, decoded);
    const std::string what = "seed " + std::to_string(seed);
    // A cut, then a few flipped bytes, each against a bound with room.
    expect_lz_like_reference(
        std::span<const std::uint8_t>(s.data(), rng.below(s.size())),
        decoded + 16, what + ", cut");
    for (int flip = 0; flip < 4; ++flip) {
      s[rng.below(s.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      expect_lz_like_reference(s, decoded + 16,
                               what + ", flip " + std::to_string(flip));
    }
  }
}

TEST(LzReference, CompressedInputsDecodeLikeTheReference) {
  for (const auto& in : compressor_inputs()) {
    const auto c = lz_compress<none>(in);
    expect_lz_like_reference(c, in.size(), "size " + std::to_string(in.size()));
    if (!in.empty()) {
      expect_lz_like_reference(c, in.size() - 1,
                               "size " + std::to_string(in.size()) + ", short");
    }
  }
}


// The matcher lz_compressor::compress was before it wrote ops through a
// raw pointer and folded the window test into the chain bound: fresh
// tables per call, ops appended to a vector, and each candidate tested
// against the byte at the best length so far. Kept as the reference the
// compressor must match byte for byte.
template <typename H>
std::vector<std::uint8_t> reference_lz_compress(
    std::span<const std::uint8_t> in) {
  constexpr std::size_t kWindow = 1u << 16, kMinMatch = 4, kMaxChain = 32;
  constexpr std::size_t kHashBits = 15;
  const auto load4 = [](const std::uint8_t* p) {
    H::read(p, 4);
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  };
  const auto hash4 = [](std::uint32_t x) {
    return (x * 2654435761u) >> (32 - kHashBits);
  };
  const std::uint8_t* const p = in.data();
  const std::size_t n = in.size();
  const auto match_length = [&](std::size_t c, std::size_t i) {
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
  };
  // Positions are stored plus one, so 0 is an empty entry.
  std::vector<std::uint32_t> head(std::size_t{1} << kHashBits, 0);
  std::vector<std::uint32_t> chain(n);
  std::vector<std::uint8_t> out;
  std::size_t lit_start = 0;
  auto flush_literals = [&](std::size_t upto) {
    if (upto == lit_start) return;
    const std::size_t len = upto - lit_start;
    out.push_back(0x01);
    put_varint(out, len);
    H::read(p + lit_start, len);
    out.insert(out.end(), p + lit_start, p + upto);
    H::write(out.data() + out.size() - len, len);
  };
  std::size_t i = 0;
  while (i + kMinMatch <= n) {
    const std::uint32_t h = hash4(load4(p + i));
    std::size_t best_len = 0, best_dist = 0;
    std::uint32_t cand = head[h];
    for (std::size_t depth = 0;
         cand >= 1 && depth < kMaxChain && i - (cand - 1) <= kWindow; ++depth) {
      const std::size_t c = cand - 1;
      cand = chain[c];
      H::read(p + c + best_len, 1);
      H::read(p + i + best_len, 1);
      if (p[c + best_len] != p[i + best_len]) continue;
      const std::size_t len = match_length(c, i);
      if (len > best_len) {
        best_len = len;
        best_dist = i - c;
        if (i + len == n) break;
      }
    }
    if (best_len >= kMinMatch) {
      flush_literals(i);
      out.push_back(0x02);
      put_varint(out, best_len);
      put_varint(out, best_dist);
      const std::size_t end = i + best_len;
      while (i < end && i + kMinMatch <= n) {
        const std::uint32_t hh = hash4(load4(p + i));
        chain[i] = head[hh];
        head[hh] = static_cast<std::uint32_t>(i) + 1;
        ++i;
      }
      i = end;
      lit_start = i;
    } else {
      chain[i] = head[h];
      head[h] = static_cast<std::uint32_t>(i) + 1;
      ++i;
    }
  }
  flush_literals(n);
  out.push_back(0x00);
  return out;
}

// The reference inputs: compressor_inputs(), plus seeded random,
// repetitive and run-length inputs; inputs past the 64 KiB window, the only
// ones where the window ends a chain walk (a motif recurring just inside,
// at and just past the window, and a long mixed input); and inputs whose
// 4-byte prefixes recur far more than 32 times within the window, so walks
// stop at the chain depth.
std::vector<std::vector<std::uint8_t>> reference_inputs() {
  std::vector<std::vector<std::uint8_t>> v = compressor_inputs();
  prng rng(2023);
  for (std::size_t size : {100u, 5000u, 70000u}) {
    std::vector<std::uint8_t> random(size);
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.next());
    v.push_back(random);
    std::vector<std::uint8_t> runs;
    while (runs.size() < size) {
      runs.insert(runs.end(), 1 + rng.below(200),
                  static_cast<std::uint8_t>(rng.below(4)));
    }
    v.push_back(runs);
  }
  std::vector<std::uint8_t> motif(256);
  for (auto& b : motif) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t gap : {detail::kWindow - 300, detail::kWindow - 256,
                          detail::kWindow - 255, detail::kWindow,
                          detail::kWindow + 1}) {
    std::vector<std::uint8_t> in(motif);
    while (in.size() < gap) in.push_back(static_cast<std::uint8_t>(rng.next()));
    in.insert(in.end(), motif.begin(), motif.end());
    v.push_back(in);
  }
  v.push_back(mixed_input(11, 200000));
  for (int tail : {1, 2, 3}) {
    // "ABCD" thousands of times, each followed by a few seeded bytes.
    std::vector<std::uint8_t> deep;
    while (deep.size() < 60000) {
      deep.insert(deep.end(), {'A', 'B', 'C', 'D'});
      for (int k = 0; k < tail; ++k)
        deep.push_back(static_cast<std::uint8_t>(rng.below(tail + 1)));
    }
    v.push_back(deep);
  }
  return v;
}

template <typename H>
void expect_compress_like_the_reference() {
  const auto inputs = reference_inputs();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(lz_compress<H>(inputs[k]), reference_lz_compress<H>(inputs[k]))
        << "input " << k << ", " << inputs[k].size() << " bytes";
  }
  // One compressor over the inputs forward, then backward.
  lz_compressor reused;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const auto& in = inputs[pass == 0 ? j : inputs.size() - 1 - j];
      const auto got = reused.compress<H>(in);
      EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()),
                reference_lz_compress<H>(in))
          << "pass " << pass << ", " << in.size() << " bytes";
    }
  }
}

TEST(LzReference, CompressesLikeTheReferenceUninstrumented) {
  expect_compress_like_the_reference<none>();
}

TEST(LzReference, CompressesLikeTheReferenceInstrumented) {
  expect_compress_like_the_reference<detect::hooks::active>();
}

// Every chunk of the checked-in containers, raw bytes as the reader
// verifies them, through one compressor per hook policy.
TEST(LzReference, EveryCheckedInChunkCompressesLikeTheReference) {
  std::size_t containers = 0, chunks = 0;
  lz_compressor plain, hooked;
  for (const auto& file : std::filesystem::directory_iterator(corpus_dir())) {
    if (file.path().extension() != ".frdtz") continue;
    ++containers;
    std::ifstream in(file.path(), std::ios::binary);
    const container::container_info info = container::read_container_info(in);
    for (std::size_t i = 0; i < info.chunks.size(); ++i) {
      const container::chunk_entry& c = info.chunks[i];
      std::vector<std::uint8_t> stored(c.stored_size);
      in.clear();
      in.seekg(static_cast<std::streamoff>(c.offset));
      in.read(reinterpret_cast<char*>(stored.data()),
              static_cast<std::streamsize>(stored.size()));
      ASSERT_TRUE(in.good()) << file.path() << " chunk " << i;
      const std::vector<std::uint8_t> raw =
          c.encoding == container::chunk_encoding::lz
              ? lz_decompress(stored, c.raw_size)
              : stored;
      const auto want = reference_lz_compress<none>(raw);
      const auto a = plain.compress<none>(raw);
      ASSERT_EQ(std::vector<std::uint8_t>(a.begin(), a.end()), want)
          << file.path() << " chunk " << i;
      const auto b = hooked.compress<detect::hooks::active>(raw);
      ASSERT_EQ(std::vector<std::uint8_t>(b.begin(), b.end()), want)
          << file.path() << " chunk " << i;
      if (c.encoding == container::chunk_encoding::lz) {
        EXPECT_EQ(want, stored) << file.path() << " chunk " << i;
      }
      ++chunks;
    }
  }
  EXPECT_GE(containers, 3u) << "no checked-in .frdtz under " << corpus_dir();
  EXPECT_GT(chunks, 1000u);
}

TEST(LzCompressor, ReuseMatchesFreshCallsInstrumented) {
  expect_reuse_matches_fresh_calls<detect::hooks::active>();
}

// hooks::active announces every input byte the matcher loads and nothing
// outside the input: a wide compare that ran past the end would show here
// (and under AddressSanitizer).
TEST(LzCompressor, InstrumentedReadsCoverTheInputAndStayInside) {
  struct range_sink final : detect::hooks::access_sink {
    std::vector<std::pair<const void*, std::size_t>> reads;
    void on_read(const void* p, std::size_t n) override {
      reads.emplace_back(p, n);
    }
    void on_write(const void*, std::size_t) override {}
  };
  for (const auto& in : compressor_inputs()) {
    range_sink sink;
    lz_compressor c;
    {
      detect::hooks::scoped_sink scope(&sink);
      (void)c.compress<detect::hooks::active>(in);
    }
    const auto lo = reinterpret_cast<std::uintptr_t>(in.data());
    std::vector<bool> seen(in.size(), false);
    for (const auto& [p, n] : sink.reads) {
      const auto at = reinterpret_cast<std::uintptr_t>(p);
      ASSERT_TRUE(at >= lo && at + n <= lo + in.size())
          << "read of " << n << " bytes outside a " << in.size()
          << "-byte input";
      for (std::size_t k = 0; k < n; ++k) seen[at - lo + k] = true;
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0)
        << in.size() << "-byte input";
  }
}

// -------------------------------------------------------------- chunker ---
TEST(Chunker, CoversInputExactly) {
  prng rng(99);
  std::vector<std::uint8_t> data(200000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  auto chunks = chunk_bytes(data);
  std::size_t off = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.offset, off);
    off += c.size;
  }
  EXPECT_EQ(off, data.size());
}

TEST(Chunker, RespectsSizeBounds) {
  prng rng(5);
  std::vector<std::uint8_t> data(500000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  chunk_params p;
  auto chunks = chunk_bytes(data, p);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {  // last may be short
    EXPECT_GE(chunks[i].size, p.min_size);
    EXPECT_LE(chunks[i].size, p.max_size);
  }
  // Average should be in the right ballpark (loose: CDC variance is high).
  const double avg = static_cast<double>(data.size()) / chunks.size();
  EXPECT_GT(avg, p.min_size);
  EXPECT_LT(avg, p.max_size);
}

TEST(Chunker, IdenticalContentChunksIdentically) {
  prng rng(13);
  std::vector<std::uint8_t> data(100000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  auto a = chunk_bytes(data);
  auto b = chunk_bytes(data);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].size, b[i].size);
  }
}

TEST(Chunker, InsertionOnlyShiftsLocalChunks) {
  // The CDC property: prepending bytes must not re-chunk the far tail.
  prng rng(21);
  std::vector<std::uint8_t> data(150000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::uint8_t> shifted(64, 0xAB);
  shifted.insert(shifted.end(), data.begin(), data.end());

  auto base = chunk_bytes(data);
  auto moved = chunk_bytes(shifted);

  // Compare the last few chunks by content hash: most must coincide.
  auto tail_hashes = [&](const std::vector<chunk_ref>& chunks,
                         std::span<const std::uint8_t> src) {
    std::vector<std::uint64_t> hs;
    const std::size_t take = std::min<std::size_t>(10, chunks.size());
    for (std::size_t i = chunks.size() - take; i < chunks.size(); ++i)
      hs.push_back(fnv1a64(src.subspan(chunks[i].offset, chunks[i].size)));
    return hs;
  };
  auto h1 = tail_hashes(base, data);
  auto h2 = tail_hashes(moved, shifted);
  int common = 0;
  for (auto h : h1)
    for (auto g : h2)
      if (h == g) ++common;
  EXPECT_GE(common, 8) << "content-defined boundaries must resynchronize";
}

TEST(StreamChunker, MatchesChunkBytesExactly) {
  // The incremental chunker must find the very cut points chunk_bytes does —
  // the container writer depends on it.
  prng rng(42);
  std::vector<std::uint8_t> data(300000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  auto whole = chunk_bytes(data);

  stream_chunker ck;
  std::vector<std::size_t> cut_offsets;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (ck.push(data[i])) cut_offsets.push_back(i + 1);
  if (ck.pending() > 0) cut_offsets.push_back(data.size());

  ASSERT_EQ(cut_offsets.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i)
    EXPECT_EQ(cut_offsets[i], whole[i].offset + whole[i].size) << i;
}

TEST(StreamChunker, CutsAreIndependentOfFeedAlignment) {
  // Feed the same bytes to next_cut() in wildly different block sizes (the
  // container writer hands it whatever its put area holds): identical cuts.
  prng rng(1234);
  std::vector<std::uint8_t> data(120000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());

  auto cuts_with_batches = [&](std::size_t batch) {
    stream_chunker ck;
    std::vector<std::size_t> cuts;
    for (std::size_t start = 0; start < data.size();) {
      const std::size_t end = std::min(start + batch, data.size());
      const std::size_t cut = ck.next_cut(
          std::span<const std::uint8_t>(data).subspan(start, end - start));
      start = cut == 0 ? end : start + cut;
      if (cut != 0) cuts.push_back(start);
    }
    return cuts;
  };
  const auto one = cuts_with_batches(1);
  for (std::size_t batch : {7u, 1024u, 4096u, 65536u, 120000u})
    EXPECT_EQ(cuts_with_batches(batch), one) << "batch " << batch;
}

TEST(StreamChunker, PendingTracksOpenChunk) {
  stream_chunker ck;
  EXPECT_EQ(ck.pending(), 0u);
  std::size_t expect = 0;
  prng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const bool cut = ck.push(static_cast<std::uint8_t>(rng.next()));
    expect = cut ? 0 : expect + 1;
    ASSERT_EQ(ck.pending(), expect);
  }
}

// What stream_chunker keeps between next_cut() calls.
struct reference_cut_state {
  explicit reference_cut_state(const chunk_params& p) : params(p) {
    std::uint64_t m = 1;
    while (m < p.target_size) m <<= 1;
    mask = m - 1;
  }
  chunk_params params;
  std::uint64_t mask;
  std::uint64_t hash = 0;
  std::size_t len = 0;
};

// The cut scan stream_chunker::next_cut was before it skipped the bytes
// ahead of min_size that no cut depends on and hashed two bytes a step:
// every byte hashed, and both bounds tested at every byte. Kept as the
// reference the chunker must match cut for cut.
std::size_t reference_next_cut(reference_cut_state& s,
                               std::span<const std::uint8_t> data) {
  const std::uint64_t* const gear = gear_table();
  for (std::size_t k = 0; k < data.size(); ++k) {
    s.hash = (s.hash << 1) + gear[data[k]];
    ++s.len;
    if ((s.len >= s.params.min_size && (s.hash & s.mask) == 0) ||
        s.len >= s.params.max_size) {
      s.hash = 0;
      s.len = 0;
      return k + 1;
    }
  }
  return 0;
}

// Each call's cut (or, with no cut, the complement of where the feed
// stands) and the open chunk's length after it, with the bytes fed in
// blocks of `block` to `next_cut`, which returns both.
template <typename NextCut>
std::vector<std::size_t> cuts_fed_in_blocks(std::span<const std::uint8_t> data,
                                            std::size_t block,
                                            NextCut&& next_cut) {
  std::vector<std::size_t> out;
  for (std::size_t start = 0; start < data.size();) {
    const std::size_t end = std::min(start + block, data.size());
    const auto [cut, pending] = next_cut(data.subspan(start, end - start));
    start = cut == 0 ? end : start + cut;
    out.push_back(cut == 0 ? ~start : start);
    out.push_back(pending);
  }
  return out;
}

std::vector<std::size_t> reference_cuts(std::span<const std::uint8_t> data,
                                        const chunk_params& params,
                                        std::size_t block) {
  reference_cut_state s(params);
  return cuts_fed_in_blocks(data, block, [&](std::span<const std::uint8_t> d) {
    const std::size_t cut = reference_next_cut(s, d);
    return std::pair{cut, s.len};
  });
}

std::vector<std::size_t> chunker_cuts(std::span<const std::uint8_t> data,
                                      const chunk_params& params,
                                      std::size_t block) {
  stream_chunker ck(params);
  return cuts_fed_in_blocks(data, block, [&](std::span<const std::uint8_t> d) {
    const std::size_t cut = ck.next_cut(d);
    return std::pair{cut, ck.pending()};
  });
}

TEST(StreamChunker, CutsMatchTheReferenceWhateverTheFeed) {
  // Random bytes, zero runs (on which the hash's low bits never vanish, so
  // max_size forces the cuts; the first is longer than any max_size below)
  // and a repeated motif.
  prng rng(606);
  std::vector<std::uint8_t> data(70000, 0);
  std::vector<std::uint8_t> motif(700);
  for (auto& b : motif) b = static_cast<std::uint8_t>(rng.next());
  while (data.size() < 300000) {
    switch (rng.below(3)) {
      case 0:
        for (std::uint64_t k = 1 + rng.below(20000); k > 0; --k)
          data.push_back(static_cast<std::uint8_t>(rng.next()));
        break;
      case 1:
        data.insert(data.end(), 1 + rng.below(40000), std::uint8_t{0});
        break;
      default:
        data.insert(data.end(), motif.begin(), motif.end());
    }
  }
  // min_size below, equal to and above the mask width (log2 of the target
  // rounded up: 8 bits for 256, 12 for 4096, 5 for 32, 6 for 64), and
  // maxima that force most cuts.
  const chunk_params params[] = {{1, 1, 1},       {4, 256, 1024},
                                 {8, 256, 1024},  {9, 256, 1024},
                                 {1024, 4096, 16384},
                                 {16, 32, 64},    {64, 64, 64},
                                 {100, 128, 130}, {5000, 8192, 65536}};
  for (const chunk_params& p : params) {
    const auto want = reference_cuts(data, p, data.size());
    const auto whole = chunk_bytes(data, p);
    std::size_t forced = 0;
    for (const chunk_ref& c : whole) forced += c.size == p.max_size;
    EXPECT_GT(forced, 0u) << "max_size " << p.max_size;
    for (std::size_t block : {1u, 2u, 3u, 7u, 61u, 1000u, 4096u, 65536u,
                              120000u}) {
      EXPECT_EQ(chunker_cuts(data, p, block), reference_cuts(data, p, block))
          << "min " << p.min_size << ", target " << p.target_size << ", max "
          << p.max_size << ", block " << block;
    }
    std::vector<std::size_t> ends;
    for (std::size_t k = 0; k + 1 < want.size(); k += 2) {
      if (want[k] <= data.size()) ends.push_back(want[k]);
    }
    if (ends.empty() || ends.back() != data.size()) ends.push_back(data.size());
    ASSERT_EQ(ends.size(), whole.size()) << "max_size " << p.max_size;
    for (std::size_t k = 0; k < whole.size(); ++k) {
      EXPECT_EQ(ends[k], whole[k].offset + whole[k].size) << k;
    }
  }
}

TEST(Chunker, GearTableIsDeterministic) {
  const std::uint64_t* t = gear_table();
  EXPECT_EQ(t, gear_table());
  // Spot-check variability.
  int distinct = 0;
  for (int i = 1; i < 256; ++i) distinct += t[i] != t[0];
  EXPECT_GT(distinct, 250);
}

// --------------------------------------------------------------- digest ---
TEST(Sha1, FipsTestVectors) {
  EXPECT_EQ(to_hex(sha1(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(sha1(bytes_of(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(sha1(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  std::vector<std::uint8_t> in(1000000, 'a');
  EXPECT_EQ(to_hex(sha1(in)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding edges must all hash distinctly.
  std::set<std::string> seen;
  for (std::size_t n : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    std::vector<std::uint8_t> in(n, 'x');
    EXPECT_TRUE(seen.insert(to_hex(sha1(in))).second) << n;
  }
}

// ------------------------------------------------------ sha1 block paths --
// sha1() hashes through one of two block functions, picked once by CPUID.
// Each test below runs on both. On a CPU without SHA-NI the accelerated
// half skips and names the missing feature, so a test log shows which path
// its machine ran.

// The byte-at-a-time SHA-1 the block functions replaced: every byte of the
// padded message, padding included, comes through byte_at.
sha1_digest reference_sha1(std::span<const std::uint8_t> data) {
  auto rotl = [](std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); };
  std::uint32_t h[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                        0xC3D2E1F0};
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t padded = data.size() + 1;
  while (padded % 64 != 56) ++padded;
  padded += 8;
  auto byte_at = [&](std::size_t i) -> std::uint8_t {
    if (i < data.size()) return data[i];
    if (i == data.size()) return 0x80;
    if (i < padded - 8) return 0x00;
    return static_cast<std::uint8_t>(bit_len >> (8 * (padded - 1 - i)));
  };
  std::uint32_t w[80];
  for (std::size_t block = 0; block < padded; block += 64) {
    for (std::size_t t = 0; t < 16; ++t) {
      const std::size_t i = block + t * 4;
      w[t] = (static_cast<std::uint32_t>(byte_at(i)) << 24) |
             (static_cast<std::uint32_t>(byte_at(i + 1)) << 16) |
             (static_cast<std::uint32_t>(byte_at(i + 2)) << 8) |
             static_cast<std::uint32_t>(byte_at(i + 3));
    }
    for (int t = 16; t < 80; ++t)
      w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int t = 0; t < 80; ++t) {
      std::uint32_t f, k;
      if (t < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999;
      } else if (t < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (t < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[t];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  sha1_digest out;
  for (std::size_t i = 0; i < 20; ++i)
    out[i] = static_cast<std::uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

enum class sha1_path { portable, accelerated };

class Sha1Path : public ::testing::TestWithParam<sha1_path> {
 protected:
  void SetUp() override {
    if (GetParam() == sha1_path::portable) {
      blocks_ = &detail::sha1_blocks_portable;
      return;
    }
    const char* missing = nullptr;
    blocks_ = detail::sha1_blocks_accelerated(&missing);
    if (blocks_ == nullptr) {
      GTEST_SKIP() << "no SHA-NI path here: missing " << missing
                   << "; only the portable SHA-1 path ran";
    }
  }

  sha1_digest hash(std::span<const std::uint8_t> in) const {
    return detail::sha1_with(blocks_, in);
  }

  detail::sha1_block_fn blocks_ = nullptr;
};

// FIPS 180-1, appendices A, B and C.
TEST_P(Sha1Path, FipsVectors) {
  EXPECT_EQ(to_hex(hash(bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(to_hex(hash(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  const std::vector<std::uint8_t> million(1000000, 'a');
  EXPECT_EQ(to_hex(hash(million)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST_P(Sha1Path, MatchesTheByteAtATimeReferenceAtEveryLengthAndOffset) {
  // Every tail length and both padding shapes (one or two final blocks),
  // read from every alignment within 16 bytes.
  prng rng(180);
  std::vector<std::uint8_t> buf(1100 + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n = 0; n <= 1100; ++n) {
      const std::span<const std::uint8_t> in(buf.data() + offset, n);
      ASSERT_EQ(hash(in), reference_sha1(in))
          << "length " << n << ", offset " << offset;
    }
  }
}

TEST_P(Sha1Path, ReproducesEveryCheckedInContainerDigest) {
  // Chunks are read and decompressed here, not through load_chunk, which
  // would first check each digest with sha1()'s own path.
  std::size_t containers = 0, chunks = 0;
  for (const auto& file : std::filesystem::directory_iterator(corpus_dir())) {
    if (file.path().extension() != ".frdtz") continue;
    ++containers;
    std::ifstream in(file.path(), std::ios::binary);
    const container::container_info info = container::read_container_info(in);
    for (std::size_t i = 0; i < info.chunks.size(); ++i) {
      const container::chunk_entry& c = info.chunks[i];
      std::vector<std::uint8_t> stored(c.stored_size);
      in.clear();
      in.seekg(static_cast<std::streamoff>(c.offset));
      in.read(reinterpret_cast<char*>(stored.data()),
              static_cast<std::streamsize>(stored.size()));
      ASSERT_TRUE(in.good()) << file.path() << " chunk " << i;
      const std::vector<std::uint8_t> raw =
          c.encoding == container::chunk_encoding::lz
              ? lz_decompress(stored, c.raw_size)
              : stored;
      ASSERT_EQ(hash(raw), c.digest) << file.path() << " chunk " << i;
      ++chunks;
    }
  }
  EXPECT_GE(containers, 3u) << "no checked-in .frdtz under " << corpus_dir();
  EXPECT_GT(chunks, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    BothPaths, Sha1Path,
    ::testing::Values(sha1_path::portable, sha1_path::accelerated),
    [](const ::testing::TestParamInfo<sha1_path>& p) {
      return p.param == sha1_path::portable ? "portable" : "accelerated";
    });

TEST(Digest, Fnv1a64KnownValues) {
  EXPECT_EQ(fnv1a64(bytes_of("")), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64(bytes_of("a")), 12638187200555641996ULL);
}

TEST(Digest, Sha1Key64IsStable) {
  auto d = sha1(bytes_of("abc"));
  EXPECT_EQ(sha1_key64(d), sha1_key64(sha1(bytes_of("abc"))));
  EXPECT_NE(sha1_key64(d), sha1_key64(sha1(bytes_of("abd"))));
}

}  // namespace
}  // namespace frd::compress
