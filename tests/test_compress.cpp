// Tests for the compress substrate: LZ codec round-trips, chunker
// properties, SHA-1 against FIPS test vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "compress/chunker.hpp"
#include "compress/digest.hpp"
#include "compress/lz.hpp"
#include "detect/detector.hpp"
#include "support/prng.hpp"

namespace frd::compress {
namespace {

using detect::hooks::none;

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
    EXPECT_EQ(reused.compress<H>(inputs[k]), fresh) << "input " << k;
    EXPECT_EQ(lz_decompress(fresh, inputs[k].size()), inputs[k])
        << "input " << k;
  }
}

TEST(LzCompressor, ReuseMatchesFreshCallsUninstrumented) {
  expect_reuse_matches_fresh_calls<none>();
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
