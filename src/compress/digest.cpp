#include "compress/digest.hpp"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#include <immintrin.h>
#define FRD_SHA1_X86_64 1
#endif

namespace frd::compress {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

// FIPS 180-1's round function f and constant K, one type per 20 rounds.
struct choose {
  static constexpr std::uint32_t k = 0x5A827999;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return d ^ (b & (c ^ d));
  }
};
struct parity_20 {
  static constexpr std::uint32_t k = 0x6ED9EBA1;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return b ^ c ^ d;
  }
};
struct majority {
  static constexpr std::uint32_t k = 0x8F1BBCDC;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return (b & c) | (d & (b | c));
  }
};
struct parity_60 {
  static constexpr std::uint32_t k = 0xCA62C1D6;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return b ^ c ^ d;
  }
};

// One round; its result lands in `e`, which the next round calls `a`.
template <typename F>
inline void one_round(std::uint32_t a, std::uint32_t& b, std::uint32_t c,
                      std::uint32_t d, std::uint32_t& e, std::uint32_t w) {
  e += rotl32(a, 5) + F::f(b, c, d) + F::k + w;
  b = rotl32(b, 30);
}

// W[t] from a ring of the last 16 schedule words; from t = 16 on, each
// word overwrites the one 16 back. The template argument unrolls rounds and
// schedule together, so every index is a constant. (A separate 80-word
// expansion loop ran at a third of this speed under GCC 12 -O2/-O3: its
// vectorized form reloads words in pairs right after storing them singly.)
template <int T>
inline std::uint32_t word(std::uint32_t* w) {
  if constexpr (T >= 16) {
    w[T & 15] = rotl32(w[(T - 3) & 15] ^ w[(T - 8) & 15] ^
                           w[(T - 14) & 15] ^ w[T & 15],
                       1);
  }
  return w[T & 15];
}

// Rounds T..T+4 with the working words renamed instead of shifted: after
// five rounds every name holds its own word again.
template <typename F, int T>
inline void five_rounds(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                        std::uint32_t& d, std::uint32_t& e, std::uint32_t* w) {
  one_round<F>(a, b, c, d, e, word<T>(w));
  one_round<F>(e, a, b, c, d, word<T + 1>(w));
  one_round<F>(d, e, a, b, c, word<T + 2>(w));
  one_round<F>(c, d, e, a, b, word<T + 3>(w));
  one_round<F>(b, c, d, e, a, word<T + 4>(w));
}

template <typename F, int T>
inline void twenty_rounds(std::uint32_t& a, std::uint32_t& b,
                          std::uint32_t& c, std::uint32_t& d,
                          std::uint32_t& e, std::uint32_t* w) {
  five_rounds<F, T>(a, b, c, d, e, w);
  five_rounds<F, T + 5>(a, b, c, d, e, w);
  five_rounds<F, T + 10>(a, b, c, d, e, w);
  five_rounds<F, T + 15>(a, b, c, d, e, w);
}

#ifdef FRD_SHA1_X86_64
// The Intel SHA extensions run four rounds per sha1rnds4. Lane 3 of each
// vector holds the first word (A, E, or W[t]), so each 16-byte load has its
// bytes reversed. m0..m3 hold the schedule words W[4g..4g+3] of the last
// four groups, and `prev` holds A..D from four rounds back, from which
// sha1nexte derives the next group's E.
__attribute__((target("sha,sse4.1"))) void sha1_blocks_shani(
    detail::sha1_state& state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i reverse =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

// Four rounds of function `func` on schedule vector `w`.
#define FRD_SHA1_QUAD(func, w)                        \
  do {                                                \
    const __m128i e = _mm_sha1nexte_epu32(prev, w);   \
    prev = abcd;                                      \
    abcd = _mm_sha1rnds4_epu32(abcd, e, func);        \
  } while (0)
// W for group g from groups g-4..g-1 (in a..d), stored over group g-4's,
// then four rounds on it.
#define FRD_SHA1_STEP(func, a, b, c, d)                                     \
  a = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32(a, b), c), d);    \
  FRD_SHA1_QUAD(func, a)

  for (; blocks != 0; --blocks, data += 64) {
    const __m128i abcd_in = abcd, e_in = e0;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), reverse);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), reverse);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), reverse);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), reverse);

    __m128i prev = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e0, m0), 0);  // 0-3
    FRD_SHA1_QUAD(0, m1);
    FRD_SHA1_QUAD(0, m2);
    FRD_SHA1_QUAD(0, m3);
    FRD_SHA1_STEP(0, m0, m1, m2, m3);  // rounds 16-19
    FRD_SHA1_STEP(1, m1, m2, m3, m0);
    FRD_SHA1_STEP(1, m2, m3, m0, m1);
    FRD_SHA1_STEP(1, m3, m0, m1, m2);
    FRD_SHA1_STEP(1, m0, m1, m2, m3);
    FRD_SHA1_STEP(1, m1, m2, m3, m0);  // rounds 36-39
    FRD_SHA1_STEP(2, m2, m3, m0, m1);
    FRD_SHA1_STEP(2, m3, m0, m1, m2);
    FRD_SHA1_STEP(2, m0, m1, m2, m3);
    FRD_SHA1_STEP(2, m1, m2, m3, m0);
    FRD_SHA1_STEP(2, m2, m3, m0, m1);  // rounds 56-59
    FRD_SHA1_STEP(3, m3, m0, m1, m2);
    FRD_SHA1_STEP(3, m0, m1, m2, m3);
    FRD_SHA1_STEP(3, m1, m2, m3, m0);
    FRD_SHA1_STEP(3, m2, m3, m0, m1);
    FRD_SHA1_STEP(3, m3, m0, m1, m2);  // rounds 76-79

    e0 = _mm_sha1nexte_epu32(prev, e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
#undef FRD_SHA1_STEP
#undef FRD_SHA1_QUAD

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}
#endif

}  // namespace

namespace detail {

void sha1_blocks_portable(sha1_state& state, const std::uint8_t* data,
                          std::size_t blocks) {
  std::uint32_t w[16];
  for (; blocks != 0; --blocks, data += 64) {
    for (int t = 0; t < 16; ++t) w[t] = load_be32(data + 4 * t);
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    twenty_rounds<choose, 0>(a, b, c, d, e, w);
    twenty_rounds<parity_20, 20>(a, b, c, d, e, w);
    twenty_rounds<majority, 40>(a, b, c, d, e, w);
    twenty_rounds<parity_60, 60>(a, b, c, d, e, w);
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

sha1_block_fn sha1_blocks_accelerated(const char** missing) {
#ifdef FRD_SHA1_X86_64
  const char* lacking = nullptr;
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & bit_SSSE3) == 0) {
    lacking = "SSSE3";
  } else if ((c & bit_SSE4_1) == 0) {
    lacking = "SSE4.1";
  } else if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0 ||
             (b & bit_SHA) == 0) {
    lacking = "SHA (CPUID leaf 7, EBX bit 29)";
  }
  if (missing != nullptr) *missing = lacking;
  return lacking == nullptr ? &sha1_blocks_shani : nullptr;
#else
  if (missing != nullptr) *missing = "x86-64";
  return nullptr;
#endif
}

sha1_digest sha1_with(sha1_block_fn blocks, std::span<const std::uint8_t> data) {
  sha1_state h = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0};
  const std::size_t whole = data.size() / 64;
  if (whole != 0) blocks(h, data.data(), whole);

  // The tail, 0x80, zeros and the 64-bit big-endian bit length fill one
  // block, or two when the tail leaves fewer than 9 bytes free.
  const std::size_t tail = data.size() % 64;
  std::uint8_t pad[128] = {};
  if (tail != 0) std::memcpy(pad, data.data() + whole * 64, tail);
  pad[tail] = 0x80;
  const std::size_t pad_len = tail < 56 ? 64 : 128;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i)
    pad[pad_len - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  blocks(h, pad, pad_len / 64);

  sha1_digest out;
  for (std::size_t i = 0; i < 5; ++i) {
    out[i * 4 + 0] = static_cast<std::uint8_t>(h[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h[i]);
  }
  return out;
}

}  // namespace detail

sha1_digest sha1(std::span<const std::uint8_t> data) {
  // Chosen at the first call: SHA-NI when this CPU has it, else portable.
  static const detail::sha1_block_fn blocks = [] {
    const detail::sha1_block_fn fast = detail::sha1_blocks_accelerated();
    return fast != nullptr ? fast : &detail::sha1_blocks_portable;
  }();
  return detail::sha1_with(blocks, data);
}

std::string to_hex(const sha1_digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(40);
  for (std::uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t sha1_key64(const sha1_digest& d) {
  std::uint64_t k = 0;
  for (int i = 0; i < 8; ++i) k |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  return k;
}

}  // namespace frd::compress
