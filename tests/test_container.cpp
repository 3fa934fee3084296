// Tests for the .frdtz streaming compressed trace container: corpus-wide
// round-trip identity (pack -> replay matches goldens, unpack reproduces the
// flat bytes exactly), bounded reader memory, dedup, and the error paths a
// corrupted artifact must fail with *by name*.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "compress/chunker.hpp"
#include "container/format.hpp"
#include "container/source.hpp"
#include "container/writer.hpp"
#include "corpus/golden.hpp"
#include "corpus/manifest.hpp"
#include "corpus/runner.hpp"
#include "support/prng.hpp"
#include "trace/codec.hpp"
#include "trace/event.hpp"

#ifndef FRD_CORPUS_DIR
#define FRD_CORPUS_DIR "corpus"
#endif

namespace frd::container {
namespace {

std::string corpus_dir() {
  if (const char* env = std::getenv("FRD_CORPUS_DIR")) return env;
  return FRD_CORPUS_DIR;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Packs the events of a flat FRDT byte string into a container byte string.
std::string pack_bytes(const std::string& flat) {
  std::istringstream in(flat, std::ios::binary);
  trace::trace_reader reader(in);
  std::ostringstream out(std::ios::binary);
  container_writer cw(out, reader.header());
  trace::trace_event e;
  while (reader.next(e)) cw.put(e);
  cw.finish();
  return out.str();
}

std::string unpack_bytes(const std::string& packed) {
  std::istringstream in(packed, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  unpack(in, out);
  return out.str();
}

// Replays any trace byte string (flat or container) and returns the racy
// granule set.
std::set<std::uint64_t> replay_racy(const std::string& bytes,
                                    const std::string& backend) {
  std::istringstream in(bytes, std::ios::binary);
  auto src = trace::open_source(in);
  session s(session::options{
      .backend = backend,
      .granule = static_cast<std::size_t>(src->header().granule)});
  s.replay(*src);
  std::set<std::uint64_t> racy;
  for (const std::uintptr_t a : s.report().racy_granules())
    racy.insert(static_cast<std::uint64_t>(a));
  return racy;
}

// A synthetic flat trace whose accesses cycle a fixed address window many
// times: long identical byte stretches, so the CDC layer produces repeated
// chunks and the container's dedup path actually fires.
std::string repetitive_flat_trace(int repeats, int window) {
  std::ostringstream out(std::ios::binary);
  trace::trace_writer w(out, trace::trace_header{trace::kTraceVersion, 4});
  trace::trace_event e{};
  e.kind = trace::event_kind::program_begin;
  e.program_begin = {0, 0};
  w.put(e);
  for (int r = 0; r < repeats; ++r) {
    for (int i = 0; i < window; ++i) {
      e.kind = trace::event_kind::read;
      e.access = {0x1000u + static_cast<std::uint64_t>(i) * 4};
      w.put(e);
    }
  }
  e.kind = trace::event_kind::program_end;
  e.program_end = {0};
  w.put(e);
  w.finish();
  return out.str();
}

// Incompressible flat trace: random access addresses, so chunks store raw
// (stored == raw bytes) and a payload byte flip must surface as a DIGEST
// mismatch, not an lz decode failure.
std::string random_flat_trace(int n) {
  prng rng(404);
  std::ostringstream out(std::ios::binary);
  trace::trace_writer w(out, trace::trace_header{trace::kTraceVersion, 4});
  trace::trace_event e{};
  e.kind = trace::event_kind::program_begin;
  e.program_begin = {0, 0};
  w.put(e);
  for (int i = 0; i < n; ++i) {
    e.kind = trace::event_kind::read;
    e.access = {rng.next() & ~3ull};
    w.put(e);
  }
  e.kind = trace::event_kind::program_end;
  e.program_end = {0};
  w.put(e);
  w.finish();
  return out.str();
}

container_info info_of(const std::string& packed) {
  std::istringstream in(packed, std::ios::binary);
  return read_container_info(in);
}

// Rebuilds a container byte string with a doctored footer (the surgical
// corruption the error-path tests need).
std::string with_footer(const std::string& packed, const container_info& ci) {
  std::istringstream in(packed, std::ios::binary);
  const container_info orig = read_container_info(in);
  std::uint64_t footer_offset = sizeof(kMagic) + 1;  // header
  footer_offset += orig.payload_bytes();
  std::string out = packed.substr(0, footer_offset);
  std::vector<std::uint8_t> footer;
  encode_footer(footer, ci);
  out.append(reinterpret_cast<const char*>(footer.data()), footer.size());
  char trailer[kTrailerSize];
  for (int i = 0; i < 8; ++i)
    trailer[i] = static_cast<char>(footer_offset >> (8 * i));
  std::memcpy(trailer + 8, kTrailerMagic, 4);
  out.append(trailer, kTrailerSize);
  return out;
}

void expect_throws_naming(const std::string& bytes, const std::string& what) {
  try {
    std::istringstream in(bytes, std::ios::binary);
    container_source src(in);
    trace::trace_event e;
    while (src.next(e)) {
    }
    FAIL() << "expected trace_error naming '" << what << "'";
  } catch (const trace::trace_error& ex) {
    EXPECT_NE(std::string(ex.what()).find(what), std::string::npos)
        << "got: " << ex.what();
  }
}

// ------------------------------------------------------ corpus round trip --

TEST(ContainerCorpus, PackReplayUnpackIdentityOnEveryEntry) {
  const std::string dir = corpus_dir();
  const corpus::manifest m = corpus::load_manifest(dir + "/MANIFEST");
  ASSERT_GE(m.entries.size(), 17u);
  int compressed_entries = 0;
  for (const corpus::corpus_entry& e : m.entries) {
    SCOPED_TRACE(e.name);
    const std::string path = dir + "/" + e.trace_file;
    const std::string bytes = read_file(path);
    const corpus::golden_report gold =
        corpus::load_golden(dir + "/" + e.golden_file);

    std::string packed, flat;
    if (e.trace_file.ends_with(".frdtz")) {
      ++compressed_entries;
      packed = bytes;
      flat = unpack_bytes(packed);
      // Re-packing the inner stream reproduces the artifact byte-for-byte:
      // the container encoding is deterministic.
      EXPECT_EQ(pack_bytes(flat), packed);
      // The compressed artifact must actually be smaller than the flat one.
      EXPECT_LT(packed.size(), flat.size());
    } else {
      flat = bytes;
      packed = pack_bytes(flat);
      // Unpack reproduces the original .frdt exactly.
      EXPECT_EQ(unpack_bytes(packed), flat);
    }
    // Replaying the container yields the same race report as the golden.
    EXPECT_EQ(replay_racy(packed, "multibags+"), gold.racy_granules);
    // The footer agrees with the trace it wraps.
    const container_info ci = info_of(packed);
    EXPECT_EQ(ci.raw_size, flat.size());
    EXPECT_EQ(ci.event_count, gold.events);
  }
  EXPECT_GE(compressed_entries, 2)
      << "the corpus must carry at least two .frdtz entries";
}

TEST(ContainerCorpus, MillionEventEntriesAreMillionEvents) {
  const std::string dir = corpus_dir();
  for (const char* name : {"mm-structured-xl", "tracking-structured-xl"}) {
    SCOPED_TRACE(name);
    std::ifstream in(dir + "/" + name + std::string(".frdtz"),
                     std::ios::binary);
    ASSERT_TRUE(in.good());
    const container_info ci = read_container_info(in);
    EXPECT_GE(ci.event_count, 1000000u);
  }
}

// -------------------------------------------------------- streaming reader --

TEST(ContainerSource, PeakMemoryIsBoundedByChunkSize) {
  const std::string dir = corpus_dir();
  std::ifstream in(dir + "/mm-structured-xl.frdtz", std::ios::binary);
  ASSERT_TRUE(in.good());
  container_source src(in);
  trace::trace_event e;
  std::uint64_t n = 0;
  while (src.next(e)) ++n;
  EXPECT_EQ(n, src.info().event_count);
  EXPECT_GE(n, 1000000u);
  // One chunk's stored + decompressed bytes at most — O(chunk size), while
  // the inner stream is megabytes.
  const compress::chunk_params params{};
  EXPECT_LE(src.max_resident_bytes(), 2 * params.max_size);
  EXPECT_GT(src.info().raw_size, 10 * params.max_size);
}

TEST(ContainerSource, HeaderMatchesInnerTrace) {
  const std::string packed = pack_bytes(repetitive_flat_trace(4, 100));
  std::istringstream in(packed, std::ios::binary);
  container_source src(in);
  EXPECT_EQ(src.header().version, trace::kTraceVersion);
  EXPECT_EQ(src.header().granule, 4u);
  EXPECT_EQ(src.info().granule, 4u);
}

// ------------------------------------------------------------------ dedup --

TEST(ContainerWriter, RepetitiveStreamsDeduplicate) {
  // 40 passes over the same 2000-granule window: the inner byte stream
  // repeats long stretches, CDC resynchronizes, and most repeated chunks
  // must dedup to their first occurrence.
  const std::string flat = repetitive_flat_trace(40, 2000);
  const std::string packed = pack_bytes(flat);
  const container_info ci = info_of(packed);
  EXPECT_GT(ci.dedup_hits(), ci.chunks.size() / 2);
  EXPECT_GT(ci.dedup_saved_raw_bytes(), ci.raw_size / 2);
  EXPECT_LT(packed.size(), flat.size() / 4);
  // Identity still holds through the dedup path.
  EXPECT_EQ(unpack_bytes(packed), flat);
}

TEST(ContainerWriter, FirstEventIsMonotone) {
  const std::string packed = pack_bytes(repetitive_flat_trace(20, 3000));
  const container_info ci = info_of(packed);
  ASSERT_GT(ci.chunks.size(), 2u);
  std::uint64_t last = 0;
  for (const chunk_entry& c : ci.chunks) {
    EXPECT_GE(c.first_event, last);
    last = c.first_event;
  }
  EXPECT_LE(last, ci.event_count);
}

// The writer cuts its put area a block at a time; its chunk table must be
// what chunking the whole flat stream at once gives: the same cut points,
// and per chunk the first event starting in it with that event's offset
// (or, when none starts in it, the next event's index and the chunk size).
// The small parameters put several cuts in every block and events across
// most chunk boundaries.
TEST(ContainerWriter, ChunkTableMatchesChunkingTheWholeStream) {
  for (const compress::chunk_params params :
       {compress::chunk_params{}, compress::chunk_params{16, 32, 64}}) {
    prng rng(12);
    const trace::trace_header h{trace::kTraceVersion, 4};
    std::ostringstream flat(std::ios::binary);
    std::ostringstream packed(std::ios::binary);
    std::vector<std::uint64_t> starts;  // where each event's bytes begin
    {
      trace::trace_writer w(flat, h);
      container_writer cw(packed, h, params);
      for (std::uint32_t i = 0; i < 20000; ++i) {
        trace::trace_event e{};
        if (rng.chance(1, 8)) {
          e.kind = trace::event_kind::spawn;
          e.fork = {i, i + 1, i + 2, i + 3, i + 4};
        } else {
          e.kind = trace::event_kind::read;
          e.access = {0x7f3a00001000ULL + 4 * rng.below(4096)};
        }
        starts.push_back(static_cast<std::uint64_t>(flat.tellp()));
        w.put(e);
        cw.put(e);
      }
      w.finish();
      cw.finish();
    }
    const std::string bytes = flat.str();
    const auto cuts = compress::chunk_bytes(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()),
        params);
    const container_info ci = info_of(packed.str());
    ASSERT_EQ(ci.chunks.size(), cuts.size()) << "max_size " << params.max_size;
    std::size_t next = 0;  // first event starting at or after the chunk
    for (std::size_t k = 0; k < cuts.size(); ++k) {
      const std::uint64_t begin = cuts[k].offset;
      const std::uint64_t end = begin + cuts[k].size;
      while (next < starts.size() && starts[next] < begin) ++next;
      const bool starts_here = next < starts.size() && starts[next] < end;
      EXPECT_EQ(ci.chunks[k].raw_size, cuts[k].size) << "chunk " << k;
      EXPECT_EQ(ci.chunks[k].first_event, next) << "chunk " << k;
      EXPECT_EQ(ci.chunks[k].first_offset,
                starts_here ? starts[next] - begin : cuts[k].size)
          << "chunk " << k;
    }
    EXPECT_EQ(unpack_bytes(packed.str()), bytes);
  }
}

// ------------------------------------------------------------- seek index --

// The v2 footer's per-chunk first_offset must always point inside (or at
// the end of) its chunk, and a fresh pack of anything is seekable.
TEST(ContainerSeek, V2FootersAreSeekable) {
  const std::string packed = pack_bytes(repetitive_flat_trace(20, 3000));
  const container_info ci = info_of(packed);
  EXPECT_EQ(ci.container_version, kContainerVersion);
  EXPECT_TRUE(ci.seekable());
  for (const chunk_entry& c : ci.chunks) {
    EXPECT_NE(c.first_offset, kNoFirstOffset);
    EXPECT_LE(c.first_offset, c.raw_size);
  }
}

// seek_to_event(n) must land exactly where a linear decode of n events
// lands, for every interesting n: chunk starts, mid-chunk, 0, the end.
TEST(ContainerSeek, SeekMatchesLinearDecode) {
  const std::string packed = pack_bytes(repetitive_flat_trace(20, 3000));
  const container_info ci = info_of(packed);
  ASSERT_GT(ci.chunks.size(), 3u);

  // Reference: the full event sequence by linear decode.
  std::vector<trace::trace_event> all;
  {
    std::istringstream in(packed, std::ios::binary);
    container_source src(in);
    trace::trace_event e;
    while (src.next(e)) all.push_back(e);
  }
  ASSERT_EQ(all.size(), ci.event_count);

  std::vector<std::uint64_t> targets = {0, 1, ci.event_count / 2,
                                        ci.event_count - 1, ci.event_count};
  for (std::size_t i = 1; i < ci.chunks.size() && i < 4; ++i) {
    targets.push_back(ci.chunks[i].first_event);      // chunk boundary
    targets.push_back(ci.chunks[i].first_event + 7);  // a bit past it
  }
  for (const std::uint64_t n : targets) {
    std::istringstream in(packed, std::ios::binary);
    container_source src(in);
    src.seek_to_event(n);
    trace::trace_event e;
    std::uint64_t at = n;
    while (src.next(e)) {
      ASSERT_LT(at, all.size()) << "seek(" << n << ") overran the trace";
      EXPECT_EQ(e.kind, all[at].kind)
          << "seek(" << n << ") diverged at event " << at;
      if (e.kind == trace::event_kind::read) {
        EXPECT_EQ(e.access.addr, all[at].access.addr)
            << "seek(" << n << ") diverged at event " << at;
      }
      ++at;
    }
    EXPECT_EQ(at, all.size()) << "seek(" << n << ") delivered a short tail";
  }
}

// Seeking backwards — including after the source already hit end-of-stream
// (the eofbit case) — must work on a v2 container, repeatedly.
TEST(ContainerSeek, BackwardSeekAfterEofRewinds) {
  const std::string packed = pack_bytes(repetitive_flat_trace(20, 3000));
  std::istringstream in(packed, std::ios::binary);
  container_source src(in);
  trace::trace_event e;
  std::uint64_t first_pass = 0;
  while (src.next(e)) ++first_pass;
  for (int round = 0; round < 3; ++round) {
    src.seek_to_event(0);
    std::uint64_t n = 0;
    while (src.next(e)) ++n;
    EXPECT_EQ(n, first_pass) << "rewind round " << round;
  }
  EXPECT_THROW(src.seek_to_event(first_pass + 1), trace::trace_error);
}

// A genuine version-1 container (no per-chunk offsets in the footer) still
// decodes linearly and seeks forward — but a backward seek must refuse with
// advice to repack, not silently rescan garbage.
TEST(ContainerSeek, V1ContainersReadButSeekForwardOnly) {
  const std::string packed = pack_bytes(repetitive_flat_trace(20, 3000));
  container_info ci = info_of(packed);
  ci.container_version = 1;  // encode_footer emits the v1 layout for this
  std::string v1 = with_footer(packed, ci);
  v1[sizeof(kMagic)] = 1;  // header version byte

  const container_info parsed = info_of(v1);
  EXPECT_EQ(parsed.container_version, 1u);
  EXPECT_FALSE(parsed.seekable());
  for (const chunk_entry& c : parsed.chunks) {
    EXPECT_EQ(c.first_offset, kNoFirstOffset);
  }

  std::istringstream in(v1, std::ios::binary);
  container_source src(in);
  src.seek_to_event(100);  // forward: linear decode-and-discard
  trace::trace_event e;
  ASSERT_TRUE(src.next(e));
  try {
    src.seek_to_event(5);
    FAIL() << "backward seek without an index must throw";
  } catch (const trace::trace_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("repack"), std::string::npos)
        << "error should tell the user the fix: " << ex.what();
  }
  // The whole v1 trace still replays: decode from where we are to the end.
  std::uint64_t rest = 1;  // the event read above
  while (src.next(e)) ++rest;
  EXPECT_EQ(rest + 100, parsed.event_count);
}

TEST(ContainerWriter, EmptyTraceRoundTrips) {
  std::ostringstream out(std::ios::binary);
  {
    container_writer cw(out, trace::trace_header{trace::kTraceVersion, 8});
    cw.finish();
  }
  const std::string packed = out.str();
  std::istringstream in(packed, std::ios::binary);
  container_source src(in);
  EXPECT_EQ(src.header().granule, 8u);
  trace::trace_event e;
  EXPECT_FALSE(src.next(e));
  EXPECT_EQ(src.info().event_count, 0u);
}

// ------------------------------------------------------------ error paths --

TEST(ContainerErrors, BadMagic) {
  std::string packed = pack_bytes(repetitive_flat_trace(2, 50));
  packed[0] = 'X';
  expect_throws_naming(packed, "bad magic");
}

TEST(ContainerErrors, VersionSkew) {
  std::string packed = pack_bytes(repetitive_flat_trace(2, 50));
  packed[4] = 3;  // version varint: one past anything this build reads
  expect_throws_naming(packed, "unsupported trace container version 3");
}

TEST(ContainerErrors, TruncatedTrailer) {
  const std::string packed = pack_bytes(repetitive_flat_trace(2, 50));
  expect_throws_naming(packed.substr(0, packed.size() - 1),
                       "trailer magic missing");
  expect_throws_naming(packed.substr(0, packed.size() - kTrailerSize),
                       "trailer magic missing");
  expect_throws_naming(packed.substr(0, 8), "truncated container");
}

TEST(ContainerErrors, TruncatedFooter) {
  // Rebuild the trailer so it points into the footer but the footer's tail
  // is gone: the chunk table runs out mid-entry.
  const std::string packed = pack_bytes(repetitive_flat_trace(8, 800));
  const container_info ci = info_of(packed);
  std::string cut = with_footer(packed, ci);
  // Remove 8 bytes from the footer body, keeping the trailer intact.
  const std::size_t trailer_at = cut.size() - kTrailerSize;
  std::string broken = cut.substr(0, trailer_at - 8) + cut.substr(trailer_at);
  // The recorded footer offset still points at the footer start; the blob is
  // 8 bytes short, so parsing must fail with a named truncation.
  expect_throws_naming(broken, "truncated");
}

TEST(ContainerErrors, ChunkIndexPastEof) {
  const std::string packed = pack_bytes(repetitive_flat_trace(4, 400));
  container_info ci = info_of(packed);
  ASSERT_FALSE(ci.chunks.empty());
  ci.chunks[0].offset = 1u << 30;  // far past the payload
  expect_throws_naming(with_footer(packed, ci),
                       "points past the end of the container payload");
}

TEST(ContainerErrors, DigestMismatch) {
  // Raw-stored chunks (incompressible content): a payload flip is caught by
  // the SHA-1, not by the lz decoder.
  const std::string flat = random_flat_trace(4000);
  std::string packed = pack_bytes(flat);
  const container_info ci = info_of(packed);
  ASSERT_FALSE(ci.chunks.empty());
  ASSERT_EQ(ci.chunks[0].encoding, chunk_encoding::raw)
      << "random content should store raw";
  packed[ci.chunks[0].offset + 10] ^= 0x01;
  expect_throws_naming(packed, "digest mismatch");
}

TEST(ContainerErrors, CorruptCompressedChunk) {
  // An lz-encoded chunk whose bytes are damaged fails to decompress (or
  // decompresses to the wrong size/digest) — named either way.
  const std::string packed = pack_bytes(repetitive_flat_trace(20, 500));
  const container_info ci = info_of(packed);
  ASSERT_FALSE(ci.chunks.empty());
  ASSERT_EQ(ci.chunks[0].encoding, chunk_encoding::lz);
  std::string broken = packed;
  broken[ci.chunks[0].offset] ^= 0xFF;
  try {
    (void)unpack_bytes(broken);
    FAIL() << "corrupt chunk must not unpack";
  } catch (const trace::trace_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("chunk 0"), std::string::npos)
        << "got: " << ex.what();
  }
}

TEST(ContainerErrors, EventCountSkew) {
  const std::string packed = pack_bytes(repetitive_flat_trace(4, 400));
  container_info ci = info_of(packed);
  ci.event_count += 1;
  expect_throws_naming(with_footer(packed, ci), "declares");
}

TEST(ContainerErrors, GranuleSkew) {
  const std::string packed = pack_bytes(repetitive_flat_trace(4, 400));
  container_info ci = info_of(packed);
  ci.granule = 16;
  expect_throws_naming(with_footer(packed, ci),
                       "but the inner trace header says");
}

TEST(ContainerErrors, RawSizeSkew) {
  const std::string packed = pack_bytes(repetitive_flat_trace(4, 400));
  container_info ci = info_of(packed);
  ci.raw_size += 3;
  expect_throws_naming(with_footer(packed, ci), "chunk raw sizes cover");
}

}  // namespace
}  // namespace frd::container
