// Tests for the .frdtz streaming compressed trace container: corpus-wide
// round-trip identity (pack -> replay matches goldens, unpack reproduces the
// flat bytes exactly), bounded reader memory, dedup, and the error paths a
// corrupted artifact must fail with *by name*.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <stdexcept>
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
#include "trace/player.hpp"
#include "trace/recorder.hpp"
#include "crafted_containers.hpp"
#include "trace_reference.hpp"

#ifndef FRD_CORPUS_DIR
#define FRD_CORPUS_DIR "corpus"
#endif

// The largest single allocation made while `g_track_allocations` is set:
// the oversized-chunk test holds the reader to its chunk bound with it.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

// chunk_params beyond the defaults: min_size below, equal to and above the
// mask width (8 bits for a 256-byte target, 6 for 64), and maxima that force
// most cuts.
const compress::chunk_params kExtraParams[] = {
    {4, 256, 1024}, {8, 256, 1024}, {64, 64, 64}, {100, 128, 130}};

// The writer cuts its chunk buffer a block at a time; its chunk table must
// be what trace_writer plus chunk_bytes give for the whole flat stream: the
// same cut points and digests, per chunk the first event starting in it
// with that event's offset (or, when none starts in it, the next event's
// index and the chunk size), and a repeated chunk pointing at its first
// occurrence's stored bytes.
void expect_chunk_table_like_the_whole_stream(
    const std::vector<trace::trace_event>& events,
    const compress::chunk_params& params, const std::string& what) {
  SCOPED_TRACE(what + ", chunk_params {" + std::to_string(params.min_size) +
               ", " + std::to_string(params.target_size) + ", " +
               std::to_string(params.max_size) + "}");
  const trace::trace_header h{trace::kTraceVersion, 4};
  std::ostringstream flat(std::ios::binary);
  std::ostringstream packed(std::ios::binary);
  std::vector<std::uint64_t> starts;  // where each event's bytes begin
  {
    trace::trace_writer w(flat, h);
    container_writer cw(packed, h, params);
    for (const trace::trace_event& e : events) {
      starts.push_back(static_cast<std::uint64_t>(flat.tellp()));
      w.put(e);
      cw.put(e);
    }
    w.finish();
    cw.finish();
    EXPECT_EQ(cw.events_written(), events.size());
  }
  const std::string bytes = flat.str();
  const std::span<const std::uint8_t> raw(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  const auto cuts = compress::chunk_bytes(raw, params);
  const container_info ci = info_of(packed.str());
  ASSERT_EQ(ci.chunks.size(), cuts.size());
  std::map<compress::sha1_digest, std::size_t> first_seen;
  std::uint64_t hits = 0;
  std::size_t next = 0;  // first event starting at or after the chunk
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const chunk_entry& c = ci.chunks[k];
    const std::uint64_t begin = cuts[k].offset;
    const std::uint64_t end = begin + cuts[k].size;
    while (next < starts.size() && starts[next] < begin) ++next;
    const bool starts_here = next < starts.size() && starts[next] < end;
    const compress::sha1_digest digest =
        compress::sha1(raw.subspan(cuts[k].offset, cuts[k].size));
    EXPECT_EQ(c.raw_size, cuts[k].size) << "chunk " << k;
    EXPECT_EQ(c.digest, digest) << "chunk " << k;
    EXPECT_EQ(c.first_event, next) << "chunk " << k;
    EXPECT_EQ(c.first_offset, starts_here ? starts[next] - begin : cuts[k].size)
        << "chunk " << k;
    const auto [first, fresh] = first_seen.emplace(digest, k);
    if (!fresh) {
      ++hits;
      EXPECT_EQ(c.offset, ci.chunks[first->second].offset) << "chunk " << k;
      EXPECT_EQ(c.stored_size, ci.chunks[first->second].stored_size)
          << "chunk " << k;
    }
  }
  EXPECT_EQ(ci.dedup_hits(), hits);
  EXPECT_EQ(ci.event_count, events.size());
  EXPECT_EQ(ci.raw_size, bytes.size());
  EXPECT_EQ(unpack_bytes(packed.str()), bytes);
}

// Reads and spawns; seeded events of every kind with fields up to their
// widest; an empty trace; a trace of one event. The small parameters put
// several cuts in every block and events across most chunk boundaries;
// with max_size 16 the chunk buffer (two maximum-size chunks plus the
// longest event encoding) is cut every 16 to 93 bytes, so events also start
// at every offset before a cut of the buffer.
TEST(ContainerWriter, ChunkTableMatchesChunkingTheWholeStream) {
  std::vector<trace::trace_event> reads_and_spawns;
  prng rng(12);
  for (std::uint32_t i = 0; i < 20000; ++i) {
    trace::trace_event e{};
    if (rng.chance(1, 8)) {
      e.kind = trace::event_kind::spawn;
      e.fork = {i, i + 1, i + 2, i + 3, i + 4};
    } else {
      e.kind = trace::event_kind::read;
      e.access = {0x7f3a00001000ULL + 4 * rng.below(4096)};
    }
    reads_and_spawns.push_back(e);
  }
  const std::vector<trace::trace_event> every_kind =
      trace::testing::seeded_events(31, 20000);
  std::vector<compress::chunk_params> params = {
      compress::chunk_params{}, compress::chunk_params{16, 32, 64},
      compress::chunk_params{4, 8, 16}};
  params.insert(params.end(), std::begin(kExtraParams), std::end(kExtraParams));
  for (const compress::chunk_params& p : params) {
    expect_chunk_table_like_the_whole_stream(reads_and_spawns, p,
                                             "reads and spawns");
    expect_chunk_table_like_the_whole_stream(every_kind, p, "every kind");
    expect_chunk_table_like_the_whole_stream({}, p, "empty");
    expect_chunk_table_like_the_whole_stream({every_kind[3]}, p, "one event");
  }
}

TEST(ContainerWriter, PutAfterFinishThrows) {
  std::ostringstream out(std::ios::binary);
  container_writer cw(out, trace::trace_header{trace::kTraceVersion, 4});
  const trace::trace_event e = trace::testing::seeded_events(5, 1).front();
  cw.put(e);
  cw.finish();
  EXPECT_THROW(cw.put(e), trace::trace_error);
  EXPECT_EQ(cw.events_written(), 1u);
}

TEST(ContainerWriter, RejectsARecorderWithAContradictingGranule) {
  // The FRDT header is in the chunk stream when the recorder arrives.
  std::ostringstream out(std::ios::binary);
  container_writer cw(out, trace::trace_header{trace::kTraceVersion, 4});
  EXPECT_THROW(trace::trace_recorder rec(cw, 8), trace::trace_error);
  trace::trace_recorder same(cw, 4);
}

// The container for `events` written to a stream that fails after `budget`
// bytes: put() never throws, finish() throws trace_error (the constructor
// does when the container header does not fit), the destructor stays
// silent with and without finish() first, and what reached the stream reads
// as truncated.
void expect_failed_write_contract(const std::vector<trace::trace_event>& events,
                                  std::size_t budget, const std::string& what) {
  SCOPED_TRACE(what + ", budget " + std::to_string(budget));
  const trace::trace_header h{trace::kTraceVersion, 4};
  for (const bool finish : {true, false}) {
    trace::testing::budget_ostream out(budget);
    if (budget < sizeof(kMagic) + 1) {
      EXPECT_THROW(container_writer cw(out, h), trace::trace_error);
      return;
    }
    {
      container_writer cw(out, h);
      try {
        for (const trace::trace_event& e : events) cw.put(e);
      } catch (const std::exception& ex) {
        ADD_FAILURE() << "put() threw: " << ex.what();
      }
      if (finish) {
        EXPECT_THROW(cw.finish(), trace::trace_error);
      }
      // A destructor that threw here would terminate the test.
    }
    EXPECT_LE(out.bytes().size(), budget);
    expect_throws_naming(out.bytes(), "");
  }
}

TEST(ContainerWriter, AFailedWriteNeverThrowsFromPutAndFinishThrows) {
  const std::vector<trace::trace_event> events =
      trace::testing::seeded_events(23, 30000);
  std::ostringstream whole(std::ios::binary);
  {
    container_writer cw(whole, trace::trace_header{trace::kTraceVersion, 4});
    for (const trace::trace_event& e : events) cw.put(e);
    cw.finish();
  }
  const std::string full = whole.str();
  const container_info ci = info_of(full);
  ASSERT_GE(ci.chunks.size(), 8u);
  std::uint64_t footer_at = 0;
  for (int i = 0; i < 8; ++i) {
    footer_at |= std::uint64_t{static_cast<std::uint8_t>(
                     full[full.size() - kTrailerSize + i])}
                 << (8 * i);
  }
  const chunk_entry& first = ci.chunks.front();
  expect_failed_write_contract(events, 2, "inside the container header");
  expect_failed_write_contract(events, first.offset + first.stored_size / 2,
                               "inside the first chunk");
  expect_failed_write_contract(events, (first.offset + footer_at) / 2,
                               "mid-stream");
  expect_failed_write_contract(events, footer_at + (full.size() - footer_at) / 2,
                               "inside the footer");
  expect_failed_write_contract(events, full.size() - 1, "inside the trailer");
}

// A writer destroyed while an exception unwinds the recording writes no end
// marker and no footer, so readers report the container as truncated.
TEST(ContainerWriter, AWriterDestroyedDuringUnwindingLeavesNoFooter) {
  const std::vector<trace::trace_event> events =
      trace::testing::seeded_events(29, 30000);
  std::ostringstream out(std::ios::binary);
  try {
    container_writer cw(out, trace::trace_header{trace::kTraceVersion, 4});
    for (const trace::trace_event& e : events) cw.put(e);
    throw std::runtime_error("recording aborted");
  } catch (const std::runtime_error&) {
  }
  const std::string bytes = out.str();
  ASSERT_GT(bytes.size(), std::size_t{16 << 10}) << "chunks were written";
  EXPECT_NE(bytes.substr(bytes.size() - 4), std::string(kTrailerMagic, 4));
  expect_throws_naming(bytes, "trailer magic missing");
}

// ------------------------------------------------------------- seek index --

// The v2 footer's per-chunk first_offset must always point inside (or at
// the end of) its chunk.
TEST(ContainerSeek, V2FootersAreSeekable) {
  const std::string packed = pack_bytes(repetitive_flat_trace(20, 3000));
  const container_info ci = info_of(packed);
  for (const chunk_entry& c : ci.chunks) {
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

// A trace without events has no chunk in which an event starts; seeking
// to its end must land on the end marker, not fail as corrupt.
TEST(ContainerSeek, EmptyTraceSeeksToItsEnd) {
  std::ostringstream out(std::ios::binary);
  {
    container_writer cw(out, trace::trace_header{trace::kTraceVersion, 4});
    cw.finish();
  }
  std::istringstream in(out.str(), std::ios::binary);
  container_source src(in);
  trace::trace_event e;
  for (int round = 0; round < 2; ++round) {
    src.seek_to_event(0);
    EXPECT_FALSE(src.next(e)) << "round " << round;
  }
  EXPECT_THROW(src.seek_to_event(1), trace::trace_error);
}

// There is one container version: a version-1 header (nothing writes one)
// fails by name before its footer is read.
TEST(ContainerSeek, V1ContainersAreUnsupported) {
  std::string v1 = pack_bytes(repetitive_flat_trace(20, 3000));
  v1[sizeof(kMagic)] = 1;  // header version byte
  expect_throws_naming(v1, "unsupported trace container version 1");
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

TEST(ContainerErrors, ChunkRangeThatWrapsPastTwoToTheSixtyFourth) {
  // offset + stored_size wraps to 1 in 64-bit arithmetic, so a sum-based
  // bound check passes it and the chunk load then asks for a ~2^64-byte
  // buffer (std::length_error, not a trace_error).
  const std::string packed = pack_bytes(repetitive_flat_trace(4, 400));
  container_info ci = info_of(packed);
  ASSERT_FALSE(ci.chunks.empty());
  ci.chunks[0].stored_size = ~ci.chunks[0].offset + 2;
  ASSERT_EQ(ci.chunks[0].offset + ci.chunks[0].stored_size, 1u);
  const std::string bad = with_footer(packed, ci);
  expect_throws_naming(bad, "points past the end of the container payload");
  // The same bytes through the public replay path fail as a trace_error.
  EXPECT_THROW((void)replay_racy(bad, "multibags+"), trace::trace_error);
}

TEST(ContainerErrors, ChunkRawSizesThatWrapTheCoveredSum) {
  // Two chunk raw sizes whose 64-bit sum wraps back to the declared stream
  // size must fail at the footer, not at the chunk load.
  const std::string packed = pack_bytes(repetitive_flat_trace(8, 800));
  container_info ci = info_of(packed);
  ASSERT_GE(ci.chunks.size(), 2u);
  ci.chunks[1].raw_size += ci.chunks[0].raw_size + 1;
  ci.chunks[0].raw_size = ~std::uint64_t{0};  // -1: the sum is unchanged
  expect_throws_naming(with_footer(packed, ci),
                       "chunk raw sizes cover more than the footer's declared");
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

TEST(ContainerErrors, RawChunkStoredSizeSkew) {
  // A raw chunk is its stored bytes: one more stored byte than raw bytes is
  // a size mismatch, even when the raw prefix hashes right.
  const std::string packed = pack_bytes(random_flat_trace(4000));
  container_info ci = info_of(packed);
  ASSERT_GE(ci.chunks.size(), 2u);
  ASSERT_EQ(ci.chunks[0].encoding, chunk_encoding::raw);
  ci.chunks[0].stored_size += 1;
  expect_throws_naming(with_footer(packed, ci), "chunk 0 decompresses to");
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

TEST(ContainerErrors, OversizedChunkFailsBeforeAnythingIsAllocatedForIt) {
  const std::string bad = testing::oversized_chunk_container();
  EXPECT_EQ(bad.size(), 68u);
  g_largest_allocation = 0;
  g_track_allocations = true;
  std::string message;
  try {
    std::istringstream in(bad, std::ios::binary);
    container_source src(in);
    trace::trace_event e;
    while (src.next(e)) {
    }
  } catch (const trace::trace_error& ex) {
    message = ex.what();
  }
  g_track_allocations = false;
  EXPECT_NE(message.find("chunk 0 declares 67108864 bytes, more than the "
                         "65536-byte chunk limit"),
            std::string::npos)
      << "got: " << message;
  EXPECT_LT(g_largest_allocation.load(), std::size_t{kMaxChunkSize});
  EXPECT_THROW((void)unpack_bytes(bad), trace::trace_error);
  // At the limit the same stream is accepted as far as its digest.
  expect_throws_naming(testing::oversized_chunk_container(kMaxChunkSize),
                       "chunk 0 digest mismatch");
}

TEST(ContainerWriter, RefusesChunksTheReaderWouldReject) {
  std::ostringstream out(std::ios::binary);
  compress::chunk_params params;
  params.max_size = kMaxChunkSize + 1;
  EXPECT_THROW(container_writer(out, trace::trace_header{}, params),
               trace::trace_error);
  params.max_size = kMaxChunkSize;
  params.target_size = kMaxChunkSize / 2;
  container_writer at_limit(out, trace::trace_header{}, params);
  EXPECT_GE(kMaxChunkSize, compress::chunk_params{}.max_size);
}

// --------------------------------------------- decoding in place vs the ref --

// Pulls events the way trace_player does: out of access runs while the
// source hands them out, through next() otherwise.
class run_cursor {
 public:
  explicit run_cursor(trace::trace_source& src) : src_(src) {}
  bool pull(trace::trace_event& e) {
    if (at_ == run_.size()) {
      run_ = src_.access_run(trace::trace_player::kDefaultBatchCapacity);
      at_ = 0;
      if (run_.empty()) return src_.next(e);
    }
    e = run_[at_++];
    return true;
  }

 private:
  trace::trace_source& src_;
  std::span<const trace::trace_event> run_;
  std::size_t at_ = 0;
};

// Every corpus trace, flat and unpacked from .frdtz, through trace_reader
// and container_source, each by next() alone and by access runs, in
// lockstep with the byte-at-a-time reference.
TEST(ContainerCorpus, EveryTraceDecodesLikeTheReferenceByNextAndByRuns) {
  const std::string dir = corpus_dir();
  const corpus::manifest m = corpus::load_manifest(dir + "/MANIFEST");
  for (const corpus::corpus_entry& entry : m.entries) {
    SCOPED_TRACE(entry.name);
    const std::string bytes = read_file(dir + "/" + entry.trace_file);
    const bool packed_file = entry.trace_file.ends_with(".frdtz");
    const std::string flat = packed_file ? unpack_bytes(bytes) : bytes;
    const std::string packed = packed_file ? bytes : pack_bytes(flat);

    std::istringstream ref_in(flat, std::ios::binary);
    trace::testing::reference_trace_reader ref(ref_in);
    std::istringstream in1(flat, std::ios::binary), in2(flat, std::ios::binary);
    std::istringstream in3(packed, std::ios::binary),
        in4(packed, std::ios::binary);
    trace::trace_reader by_next(in1), by_runs(in2);
    container_source cs_by_next(in3), cs_by_runs(in4);
    run_cursor reader_runs(by_runs), container_runs(cs_by_runs);
    const auto pulls = [&](trace::trace_event* got) {
      return std::array<bool, 4>{by_next.next(got[0]), reader_runs.pull(got[1]),
                                 cs_by_next.next(got[2]),
                                 container_runs.pull(got[3])};
    };
    trace::trace_event want, got[4];
    std::uint64_t n = 0;
    bool same = true;
    while (same && ref.next(want)) {
      const auto more = pulls(got);
      for (int k = 0; k < 4; ++k) {
        if (!more[k] || got[k] != want) {
          ADD_FAILURE() << "decoder " << k << " diverged at event " << n;
          same = false;
        }
      }
      ++n;
    }
    if (same) {
      const auto more = pulls(got);
      for (int k = 0; k < 4; ++k) EXPECT_FALSE(more[k]) << "decoder " << k;
    }
    EXPECT_EQ(n, info_of(packed).event_count);
  }
}

// Events cut by chunk boundaries at every offset: tiny chunks put most
// events across one, and some across several.
TEST(ContainerSource, EventsAcrossChunkBoundariesMatchTheReference) {
  for (const compress::chunk_params params :
       {compress::chunk_params{}, compress::chunk_params{16, 32, 64},
        compress::chunk_params{4, 8, 16}}) {
    for (int pad = 0; pad < 40; pad += 3) {
      const std::string flat = trace::testing::seeded_flat_trace(5, 3000, pad);
      std::istringstream in(flat, std::ios::binary);
      trace::trace_reader reader(in);
      std::ostringstream out(std::ios::binary);
      {
        container_writer cw(out, reader.header(), params);
        trace::trace_event e;
        while (reader.next(e)) cw.put(e);
        cw.finish();
      }
      const trace::testing::decode_outcome want =
          trace::testing::reference_decode(flat);
      ASSERT_EQ(want.error, "");
      for (const bool runs : {false, true}) {
        std::istringstream packed(out.str(), std::ios::binary);
        container_source src(packed);
        const trace::testing::decode_outcome got = trace::testing::drain(src, runs);
        EXPECT_EQ(got.error, "");
        EXPECT_TRUE(got.events == want.events)
            << "max_size " << params.max_size << ", pad " << pad
            << (runs ? ", runs" : "");
      }
    }
  }
}

// ---------------------------------- streaming sources on the access_run path --

// What one sampled replay produced, checkpoints included.
struct replay_outcome {
  std::set<std::uint64_t> racy;
  std::uint64_t events = 0, accesses = 0, gets = 0, sampled = 0, skipped = 0;
  std::uint64_t checkpoints = 0, last_checkpoint = 0;
  bool operator==(const replay_outcome&) const = default;
};

replay_outcome sampled_replay(trace::trace_source& src, std::uint64_t every) {
  session s(session::options{
      .backend = "multibags+",
      .granule = static_cast<std::size_t>(src.header().granule),
      .sample_rate = 0.1});
  replay_outcome r;
  session::replay_checkpoint cp;
  cp.every_events = every;
  std::uint64_t previous = 0;
  cp.fn = [&](std::uint64_t events, std::uint64_t) {
    EXPECT_GT(events, previous);
    previous = events;
    ++r.checkpoints;
  };
  r.events = s.replay(src, cp);
  for (const std::uintptr_t a : s.report().racy_granules()) r.racy.insert(a);
  r.accesses = s.access_count();
  r.gets = s.get_count();
  r.sampled = s.query_stats().sampled;
  r.skipped = s.query_stats().skipped;
  EXPECT_EQ(r.sampled + r.skipped, r.accesses);
  return r;
}

// The player's own tallies over a source, with the sampling prefilter of a
// rate-0.1 session armed, and a digest of the accesses it let through.
struct play_outcome {
  std::uint64_t events = 0, accesses = 0, prefiltered = 0;
  std::uint64_t admitted = 0, digest = 0;
  bool operator==(const play_outcome&) const = default;
};

class access_digest final : public detect::hooks::access_sink {
 public:
  void on_read(const void*, std::size_t) override { ADD_FAILURE(); }
  void on_write(const void*, std::size_t) override { ADD_FAILURE(); }
  void on_accesses(std::span<const detect::hooks::access> batch,
                   std::size_t) override {
    for (const detect::hooks::access& a : batch) {
      digest = (digest ^ a.addr ^ (std::uint64_t{a.is_write} << 63)) *
               0x100000001b3ull;
      ++count;
    }
  }
  std::uint64_t digest = 14695981039346656037ull;
  std::uint64_t count = 0;
};

play_outcome sampled_play(trace::trace_source& src) {
  session s(session::options{
      .backend = "multibags+",
      .granule = static_cast<std::size_t>(src.header().granule),
      .sample_rate = 0.1});
  trace::trace_player player(src);
  player.set_prefilter(s.detector().replay_prefilter());
  access_digest sink;
  const trace::trace_player::stats st = player.play(nullptr, &sink);
  return {st.events, st.accesses, st.prefiltered, sink.count, sink.digest};
}

TEST(ContainerSource, StreamingReplaysEqualTheMemoryReplay) {
  const std::string dir = corpus_dir();
  for (const char* name :
       {"fuzz-general.frdt", "wavefront-structured-large.frdtz"}) {
    SCOPED_TRACE(name);
    const std::string bytes = read_file(dir + "/" + name);
    const bool packed_file = std::string(name).ends_with(".frdtz");
    const std::string flat = packed_file ? unpack_bytes(bytes) : bytes;
    const std::string packed = packed_file ? bytes : pack_bytes(flat);
    trace::memory_trace tape = corpus::load_trace(dir + "/" + name);

    for (const std::uint64_t every : {std::uint64_t{0}, std::uint64_t{1},
                                      std::uint64_t{4096}}) {
      SCOPED_TRACE("checkpoint every " + std::to_string(every));
      tape.rewind();
      const replay_outcome want = sampled_replay(tape, every);
      EXPECT_GT(want.skipped, 0u);
      if (every != 0 && want.events >= every) {
        EXPECT_GT(want.checkpoints, 0u);
      }
      std::istringstream flat_in(flat, std::ios::binary);
      trace::trace_reader reader(flat_in);
      replay_outcome got = sampled_replay(reader, every);
      // Checkpoints land at run boundaries, which a streaming source may
      // place differently; everything the replay reports must agree.
      got.checkpoints = want.checkpoints;
      EXPECT_EQ(got, want) << "trace_reader";
      std::istringstream packed_in(packed, std::ios::binary);
      container_source cs(packed_in);
      got = sampled_replay(cs, every);
      got.checkpoints = want.checkpoints;
      EXPECT_EQ(got, want) << "container_source";
    }

    // The player's prefiltered tally, over the whole trace and, for the
    // container, after seeking back to the start and to the middle.
    tape.rewind();
    const play_outcome whole = sampled_play(tape);
    EXPECT_GT(whole.prefiltered, 0u);
    std::istringstream flat_in(flat, std::ios::binary);
    trace::trace_reader reader(flat_in);
    EXPECT_EQ(sampled_play(reader), whole) << "trace_reader";
    std::istringstream packed_in(packed, std::ios::binary);
    container_source cs(packed_in);
    EXPECT_EQ(sampled_play(cs), whole) << "container_source";
    cs.seek_to_event(0);
    EXPECT_EQ(sampled_play(cs), whole) << "container_source, seek to 0";
    cs.seek_to_event(0);
    tape.rewind();
    replay_outcome after_seek = sampled_replay(cs, 4096);
    const replay_outcome from_tape = sampled_replay(tape, 4096);
    after_seek.checkpoints = from_tape.checkpoints;
    EXPECT_EQ(after_seek, from_tape) << "container_source, replay after seek";

    // A suffix starts inside a program, which the player's canonical walk
    // rejects, so the suffix is compared through the source itself.
    const std::uint64_t mid = tape.size() / 2 + 3;
    cs.seek_to_event(mid);
    const trace::testing::decode_outcome suffix =
        trace::testing::drain(cs, /*runs=*/true);
    EXPECT_EQ(suffix.error, "");
    ASSERT_EQ(suffix.events.size(), tape.size() - mid);
    EXPECT_TRUE(std::equal(suffix.events.begin(), suffix.events.end(),
                           tape.events().begin() + static_cast<long>(mid)))
        << "container_source, seek to " << mid;
  }
}

}  // namespace
}  // namespace frd::container
