// Unit tests of the trace layer: the event model's field tables, the binary
// codec round trip, malformed-input rejection (bad magic, version mismatch,
// truncation), and the recorder/player inverse property — playing a
// recorded trace into a fresh recorder must reproduce the tape verbatim.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/serial.hpp"
#include "trace/codec.hpp"
#include "trace/event.hpp"
#include "trace/player.hpp"
#include "trace/recorder.hpp"
#include "trace_reference.hpp"

namespace frd::trace {
namespace {

using testing::decode_outcome;
using testing::drain;
using testing::reference_decode;
using testing::seeded_flat_trace;

// One event of every kind, with distinct field values so a codec that
// permutes or drops a field cannot round-trip them.
std::vector<trace_event> sample_events() {
  std::vector<trace_event> out;
  trace_event e;
  e.kind = event_kind::program_begin;
  e.program_begin = {0, 0};
  out.push_back(e);
  e.kind = event_kind::strand_begin;
  e.strand_begin = {0, 0};
  out.push_back(e);
  e.kind = event_kind::spawn;
  e.fork = {0, 0, 1, 1, 2};
  out.push_back(e);
  e.kind = event_kind::create;
  e.fork = {0, 2, 2, 3, 4};
  out.push_back(e);
  e.kind = event_kind::ret;
  e.ret = {2, 3, 0};
  out.push_back(e);
  e.kind = event_kind::write;
  e.access = {0x7ffd1234abcull & ~0x3ull};
  out.push_back(e);
  e.kind = event_kind::read;
  e.access = {0xdeadbef0ull};
  out.push_back(e);
  e.kind = event_kind::sync_begin;
  e.sync_begin = {0, 4, 1};
  out.push_back(e);
  e.kind = event_kind::sync_child;
  e.sync_child = {1, 0, 1, 1, 2, 5};
  out.push_back(e);
  e.kind = event_kind::get;
  e.get = {0, 5, 6, 2, 3, 2};
  out.push_back(e);
  e.kind = event_kind::program_end;
  e.program_end = {6};
  out.push_back(e);
  return out;
}

TEST(TraceEvent, FieldTablesRoundTripEveryKind) {
  for (const trace_event& e : sample_events()) {
    const event_fields f = fields_of(e);
    EXPECT_EQ(f.n, field_count(e.kind));
    const trace_event back = event_from(e.kind, f);
    EXPECT_EQ(e, back) << to_string(e.kind);
  }
}

TEST(TraceEvent, EventFromRejectsOversized32BitIds) {
  event_fields f;
  f.n = field_count(event_kind::spawn);
  f.v[0] = 0x1'0000'0000ull;  // does not fit a func_id
  EXPECT_THROW(event_from(event_kind::spawn, f), trace_error);
  // Addresses are 64-bit; the same magnitude is fine there.
  event_fields a;
  a.n = 1;
  a.v[0] = 0x1'0000'0000ull;
  EXPECT_EQ(event_from(event_kind::read, a).access.addr, 0x1'0000'0000ull);
}

TEST(TraceCodec, BinaryRoundTripPreservesEventsAndHeader) {
  std::ostringstream out;
  {
    trace_writer w(out, trace_header{kTraceVersion, 8});
    for (const trace_event& e : sample_events()) w.put(e);
    w.finish();
  }
  std::istringstream in(out.str());
  trace_reader r(in);
  EXPECT_EQ(r.header().version, kTraceVersion);
  EXPECT_EQ(r.header().granule, 8u);
  std::vector<trace_event> got;
  trace_event e;
  while (r.next(e)) got.push_back(e);
  const auto want = sample_events();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << i;
  // Draining past the end stays false, not an error.
  EXPECT_FALSE(r.next(e));
}

// JSONL is written for reading only: what `frd-trace dump` prints fails to
// open like any other input without the FRDT magic.
TEST(TraceCodec, OpenSourceReadsFrdtAndRejectsJsonl) {
  std::ostringstream bin, jsonl;
  trace_writer(bin, {}).finish();
  jsonl_writer jw(jsonl, {});
  std::istringstream bin_in(bin.str()), jsonl_in(jsonl.str());
  trace_event e;
  auto b = open_source(bin_in);
  EXPECT_FALSE(b->next(e));
  try {
    open_source(jsonl_in);
    FAIL() << "a JSONL trace opened";
  } catch (const trace_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("bad magic"), std::string::npos)
        << ex.what();
  }
}

TEST(TraceCodec, CorruptMagicIsRejected) {
  std::istringstream in("NOPE not a trace");
  EXPECT_THROW(trace_reader r(in), trace_error);
}

TEST(TraceCodec, VersionMismatchIsRejected) {
  // Hand-built header: magic, version=2 (unknown), granule=4.
  std::string bytes = "FRDT";
  bytes.push_back(2);
  bytes.push_back(4);
  std::istringstream in(bytes);
  try {
    trace_reader r(in);
    FAIL() << "expected trace_error";
  } catch (const trace_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(TraceCodec, BadGranuleInHeaderIsRejected) {
  std::string bytes = "FRDT";
  bytes.push_back(1);  // version
  bytes.push_back(3);  // granule: not a power of two
  std::istringstream in(bytes);
  EXPECT_THROW(trace_reader r(in), trace_error);
}

TEST(TraceCodec, TruncationIsDetected) {
  std::ostringstream out;
  {
    trace_writer w(out);
    for (const trace_event& e : sample_events()) w.put(e);
    w.finish();
  }
  const std::string full = out.str();
  // Drop the end marker (and a little more): the reader must throw rather
  // than silently report a shorter trace.
  for (const std::size_t cut : {full.size() - 1, full.size() - 3}) {
    std::istringstream in(full.substr(0, cut));
    trace_reader r(in);
    trace_event e;
    EXPECT_THROW(
        while (r.next(e)) {}, trace_error)
        << "cut at " << cut;
  }
}

TEST(TraceCodec, UnknownEventKindIsRejected) {
  std::ostringstream out;
  trace_writer(out, {}).finish();
  std::string bytes = out.str();
  bytes[bytes.size() - 1] = 42;  // overwrite the end marker with junk
  std::istringstream in(bytes);
  trace_reader r(in);
  trace_event e;
  EXPECT_THROW(r.next(e), trace_error);
}

TEST(TraceCodec, OverflowingVarintIsRejectedNotTruncated) {
  // 10-byte varint whose last byte carries bits past bit 63: corrupt input
  // must throw, not decode to a different in-range value.
  std::string bytes = "FRDT";
  for (int i = 0; i < 9; ++i) bytes.push_back(static_cast<char>(0xFF));
  bytes.push_back(0x7F);
  std::istringstream in(bytes);
  EXPECT_THROW(trace_reader r(in), trace_error);
}

TEST(TraceCodec, HeaderValuesAreValidatedBeforeNarrowing) {
  // granule = 2^32 + 4 must not be silently read as 4, nor version
  // 2^32 + 1 as 1.
  const auto header = [](std::uint64_t version, std::uint64_t granule) {
    std::vector<std::uint8_t> b = {'F', 'R', 'D', 'T'};
    compress::put_varint(b, version);
    compress::put_varint(b, granule);
    return std::string(b.begin(), b.end());
  };
  std::istringstream in(header(kTraceVersion, 4294967300ull));
  EXPECT_THROW(trace_reader r(in), trace_error);
  std::istringstream in2(header(4294967297ull, 4));
  EXPECT_THROW(trace_reader r2(in2), trace_error);
}

TEST(TraceCodec, PutAfterFinishThrows) {
  std::ostringstream out;
  trace_writer w(out, {});
  w.finish();
  trace_event e;
  e.kind = event_kind::program_end;
  e.program_end = {0};
  EXPECT_THROW(w.put(e), trace_error);
}

// The message trace_reader stops with on `bytes`, or "" when it reads them
// to the end marker.
std::string reader_error(const std::string& bytes) {
  try {
    std::istringstream in(bytes);
    trace_reader r(in);
    return drain(r, true).error;
  } catch (const trace_error& ex) {
    return ex.what();
  }
}

// The writer's bytes for `events`, written to a stream that fails after
// `budget` bytes: put() never throws, finish() throws trace_error, the
// destructor stays silent (with and without finish() first), and what
// reached the stream reads as truncated.
void expect_failed_write_contract(const std::vector<trace_event>& events,
                                  std::size_t budget, const std::string& what) {
  SCOPED_TRACE(what + ", budget " + std::to_string(budget));
  const trace_header h{kTraceVersion, 4};
  for (const bool finish : {true, false}) {
    testing::budget_ostream out(budget);
    {
      trace_writer w(out, h);
      try {
        for (const trace_event& e : events) w.put(e);
      } catch (const std::exception& ex) {
        ADD_FAILURE() << "put() threw: " << ex.what();
      }
      if (finish) {
        EXPECT_THROW(w.finish(), trace_error);
      }
      // A destructor that threw here would terminate the test.
    }
    EXPECT_LE(out.bytes().size(), budget);
    EXPECT_NE(reader_error(out.bytes()), "");
  }
}

TEST(TraceCodec, AFailedWriteNeverThrowsFromPutAndFinishThrows) {
  const std::vector<trace_event> events = testing::seeded_events(17, 5000);
  std::ostringstream whole;
  {
    trace_writer w(whole, trace_header{kTraceVersion, 4});
    for (const trace_event& e : events) w.put(e);
    w.finish();
  }
  const std::size_t size = whole.str().size();
  ASSERT_GT(size, 20000u);
  expect_failed_write_contract(events, 0, "nothing fits");
  expect_failed_write_contract(events, 2, "inside the header");
  expect_failed_write_contract(events, 7, "at the first event");
  expect_failed_write_contract(events, size / 2, "mid-stream");
  expect_failed_write_contract(events, size - 1, "at the end marker");
}

// A writer destroyed while an exception unwinds the recording writes no end
// marker, so readers report the trace as truncated.
TEST(TraceCodec, AWriterDestroyedDuringUnwindingLeavesNoEndMarker) {
  const std::vector<trace_event> events = testing::seeded_events(19, 3000);
  std::ostringstream out;
  try {
    trace_writer w(out, trace_header{kTraceVersion, 4});
    for (const trace_event& e : events) w.put(e);
    throw std::runtime_error("recording aborted");
  } catch (const std::runtime_error&) {
  }
  const decode_outcome got = reference_decode(out.str());
  EXPECT_EQ(got.events.size(), events.size());
  EXPECT_NE(got.error, "");
  EXPECT_NE(reader_error(out.str()), "");
}

TEST(TraceCodec, JsonlWriterRejectsAContradictingRecorderGranule) {
  // Same contract as the binary writer: the header is already on the wire,
  // so a recorder announcing a different granule must fail loudly instead of
  // producing a lying trace.
  std::ostringstream out;
  jsonl_writer w(out, trace_header{kTraceVersion, 4});
  EXPECT_THROW(trace_recorder rec(w, 8), trace_error);
  EXPECT_NO_THROW(trace_recorder rec(w, 4));
}

// ------------------------------------------------------- recorder/player --

// Runs a small mixed program under a recorder wired to `granule`, making
// instrumented accesses straight through the recorder sink.
void record_program(trace_sink& out, std::size_t granule) {
  trace_recorder rec(out, granule);
  rt::serial_runtime rt(&rec);
  alignas(8) static int cells[4];
  rt.run([&] {
    auto f = rt.create_future([&] {
      rec.on_write(&cells[0], 4);
      return 1;
    });
    rt.spawn([&] { rec.on_write(&cells[1], 4); });
    rt.spawn([&] { rec.on_read(&cells[1], 4); });
    rec.on_write(&cells[2], 8);  // spans two 4-byte granules
    rt.sync();
    f.get();
    rec.on_read(&cells[0], 4);
  });
}

TEST(TraceRecorder, StampsTheSinkHeaderWithItsGranule) {
  memory_trace tape;  // default-constructed header says granule 4
  trace_recorder rec(tape, 8);
  EXPECT_EQ(tape.header().granule, 8u);
}

TEST(TraceRecorder, RejectsAWriterWithAContradictingHeader) {
  // The binary header is already on the wire when the recorder arrives; a
  // different recording granule must fail loudly, not produce a lying trace.
  std::ostringstream out;
  trace_writer w(out, trace_header{kTraceVersion, 4});
  EXPECT_THROW(trace_recorder rec(w, 8), trace_error);
}

TEST(TraceRecorder, GranuleNormalizesAccesses) {
  memory_trace tape(trace_header{kTraceVersion, 4});
  record_program(tape, 4);
  std::size_t writes = 0, reads = 0;
  for (const trace_event& e : tape.events()) {
    if (e.kind == event_kind::write) {
      EXPECT_EQ(e.access.addr % 4, 0u);
      ++writes;
    } else if (e.kind == event_kind::read) {
      ++reads;
    }
  }
  // 2 single-granule writes + 1 two-granule write = 4 write events.
  EXPECT_EQ(writes, 4u);
  EXPECT_EQ(reads, 2u);
}

TEST(TraceRecorder, SyncIsFlattenedSelfContained) {
  memory_trace tape(trace_header{kTraceVersion, 4});
  record_program(tape, 4);
  bool saw_sync = false;
  for (std::size_t i = 0; i < tape.events().size(); ++i) {
    const trace_event& e = tape.events()[i];
    if (e.kind != event_kind::sync_begin) continue;
    saw_sync = true;
    ASSERT_EQ(e.sync_begin.count, 2u);  // the two spawns join here
    for (std::uint32_t c = 0; c < e.sync_begin.count; ++c) {
      ASSERT_LT(i + 1 + c, tape.events().size());
      EXPECT_EQ(tape.events()[i + 1 + c].kind, event_kind::sync_child);
    }
  }
  EXPECT_TRUE(saw_sync);
}

TEST(TracePlayer, ReplayingIntoARecorderReproducesTheTapeVerbatim) {
  // recorder ∘ player == identity on tapes: the strongest losslessness check
  // without a backend in the loop. Access re-normalization is idempotent
  // because recorded addresses are already granule bases.
  memory_trace tape(trace_header{kTraceVersion, 4});
  record_program(tape, 4);

  memory_trace copy(tape.header());
  trace_recorder re_rec(copy, tape.header().granule);
  trace_player player(tape);
  const auto st = player.play(&re_rec, &re_rec);

  EXPECT_EQ(st.events, tape.size());
  ASSERT_EQ(copy.size(), tape.size());
  for (std::size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(copy.events()[i], tape.events()[i]) << "event " << i;
  }
}

// The message a listener-less replay of `events` stops with, or "".
std::string play_error(const std::vector<trace_event>& events) {
  memory_trace tape;
  for (const trace_event& e : events) tape.put(e);
  trace_player player(tape);
  try {
    player.play(nullptr, nullptr);
  } catch (const trace_error& ex) {
    return ex.what();
  }
  return "";
}

// The canonical walk's first events: main begins, spawns child 1, which
// returns, leaving one child for the next sync.
std::vector<trace_event> one_spawned_child() {
  std::vector<trace_event> out(6);
  out[0].kind = event_kind::program_begin;
  out[0].program_begin = {0, 0};
  out[1].kind = event_kind::strand_begin;
  out[1].strand_begin = {0, 0};
  out[2].kind = event_kind::spawn;
  out[2].fork = {0, 0, 1, 1, 2};
  out[3].kind = event_kind::strand_begin;
  out[3].strand_begin = {1, 1};
  out[4].kind = event_kind::ret;
  out[4].ret = {1, 1, 0};
  out[5].kind = event_kind::strand_begin;
  out[5].strand_begin = {2, 0};
  return out;
}

TEST(TracePlayer, OrphanSyncChildIsRejected) {
  std::vector<trace_event> events = one_spawned_child();
  trace_event e;
  e.kind = event_kind::sync_child;
  e.sync_child = {1, 0, 1, 1, 2, 3};
  events.push_back(e);
  const std::string error = play_error(events);
  EXPECT_NE(error.find("trace event 6"), std::string::npos) << error;
  EXPECT_NE(error.find("sync_child{"), std::string::npos) << error;
}

TEST(TracePlayer, ShortSyncChildRunIsRejected) {
  std::vector<trace_event> events = one_spawned_child();
  trace_event e;
  e.kind = event_kind::sync_begin;
  e.sync_begin = {0, 2, 1};  // announces the child, which never comes
  events.push_back(e);
  const std::string error = play_error(events);
  EXPECT_NE(error.find("trace ends at event 7 inside a step"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("sync_child{child 1"), std::string::npos) << error;
}

TEST(TracePlayer, BinaryRoundTripThroughBytesReplaysIdentically) {
  // tape -> binary bytes -> reader -> player -> recorder == tape.
  memory_trace tape(trace_header{kTraceVersion, 4});
  record_program(tape, 4);
  std::ostringstream bytes;
  {
    trace_writer w(bytes, tape.header());
    for (const trace_event& e : tape.events()) w.put(e);
    w.finish();
  }
  std::istringstream in(bytes.str());
  trace_reader r(in);
  memory_trace copy(r.header());
  trace_recorder re_rec(copy, r.header().granule);
  trace_player player(r);
  player.play(&re_rec, &re_rec);
  ASSERT_EQ(copy.size(), tape.size());
  for (std::size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(copy.events()[i], tape.events()[i]) << "event " << i;
  }
}

// ------------------------------------------ span decoder vs the reference --

// trace_reader's outcome on `bytes` — through next() alone, or through
// access runs — with header errors included.
decode_outcome reader_decode(const std::string& bytes, bool runs) {
  std::istringstream in(bytes);
  try {
    trace_reader r(in);
    return drain(r, runs);
  } catch (const trace_error& ex) {
    return decode_outcome{{}, ex.what()};
  }
}

void expect_same_outcome(const std::string& bytes, const std::string& what) {
  const decode_outcome want = reference_decode(bytes);
  for (const bool runs : {false, true}) {
    const decode_outcome got = reader_decode(bytes, runs);
    EXPECT_EQ(got.error, want.error) << what << (runs ? " (runs)" : "");
    ASSERT_EQ(got.events.size(), want.events.size())
        << what << (runs ? " (runs)" : "");
    for (std::size_t i = 0; i < want.events.size(); ++i) {
      ASSERT_EQ(got.events[i], want.events[i])
          << what << (runs ? " (runs)" : "") << ", event " << i;
    }
  }
}

std::string header_bytes() {
  std::ostringstream out;
  trace_writer w(out, trace_header{kTraceVersion, 4});
  return out.str().substr(0, 6);  // magic, version, granule
}

TEST(SpanDecoder, EveryTruncationPointFailsLikeTheReference) {
  std::ostringstream out;
  {
    trace_writer w(out);
    for (const trace_event& e : sample_events()) w.put(e);
    w.finish();
  }
  const std::string full = out.str();
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string bytes = full.substr(0, cut);
    expect_same_outcome(bytes, "cut at " + std::to_string(cut));
    if (cut < full.size()) {
      EXPECT_NE(reference_decode(bytes).error, "") << "cut at " << cut;
    }
  }
}

// Each malformed event, where the decoder reads byte by byte (near the end
// of the input) and where it decodes in place (64 more bytes follow).
TEST(SpanDecoder, MalformedEventsFailLikeTheReference) {
  const std::string nine_continued(9, '\xFF');
  // What each one must make the decoders say ("" when it is well formed).
  struct bad_event {
    std::string what, bytes, error;
  };
  const std::vector<bad_event> cases = {
      {"unknown kind", std::string(1, '\x2A'), "unknown event kind 42"},
      {"unknown kind 0xFE", std::string(1, '\xFE'), "unknown event kind 254"},
      {"address varint past 64 bits",
       std::string(1, '\x09') + nine_continued + '\x7F', "overflows 64 bits"},
      {"address varint with a continuation in byte 10",
       std::string(1, '\x0A') + nine_continued + '\x81', "overflows 64 bits"},
      {"address at bit 63", std::string(1, '\x09') + nine_continued + '\x01', ""},
      {"spawn field over 32 bits",
       std::string("\x03\x80\x80\x80\x80\x10\x00\x00\x00\x00", 10),
       "overflows 32-bit id in a 'spawn' event"},
      {"get field at 32 bits exactly",
       std::string("\x08\xFF\xFF\xFF\xFF\x0F\x00\x00\x00\x00\x00", 11),
       ""},
      {"get field over 32 bits in the last field",
       std::string("\x08\x00\x00\x00\x00\x00\x80\x80\x80\x80\x10", 11),
       "overflows 32-bit id in a 'get' event"},
      {"sync_begin count varint past 64 bits",
       std::string("\x06\x01\x02", 3) + nine_continued + '\x02',
       "overflows 64 bits"},
  };
  // Events before the bad one, so it does not start the stream.
  std::string lead;
  {
    std::ostringstream out;
    trace_writer w(out, trace_header{kTraceVersion, 4});
    for (const trace_event& e : sample_events()) w.put(e);
    lead = out.str().substr(6);  // the events, without header or end marker
  }
  for (const auto& [what, bad, error] : cases) {
    const std::string head = header_bytes() + lead + bad;
    const std::string said = reference_decode(head + '\xFF').error;
    EXPECT_NE(said.find(error), std::string::npos) << what << ": " << said;
    EXPECT_EQ(said.empty(), error.empty()) << what << ": " << said;
    // Near the end: an end marker, or a cut right after the event.
    expect_same_outcome(head + '\xFF', what + " (slow path, ended)");
    expect_same_outcome(head, what + " (slow path, cut)");
    // In place: 64 more valid bytes after it.
    std::string tail;
    for (int i = 0; i < 32; ++i) tail += std::string("\x09\x04", 2);
    expect_same_outcome(head + tail + '\xFF', what + " (in place)");
  }
  // The end marker missing after a long stretch: no byte left to read.
  std::string accesses = header_bytes();
  for (int i = 0; i < 100; ++i) accesses += std::string("\x09\x04", 2);
  expect_same_outcome(accesses, "end marker missing");
  EXPECT_EQ(reference_decode(accesses).error,
            "truncated trace: end marker missing");
}

TEST(SpanDecoder, HeaderDefectsFailLikeTheReference) {
  const std::string nine_continued(9, '\xFF');
  for (const std::string& bytes :
       {std::string(""), std::string("FRD"), std::string("FRDX\x01\x04", 6),
        std::string("FRDT"), std::string("FRDT\x01", 5),
        std::string("FRDT\x02\x04", 6), std::string("FRDT\x81", 5),
        std::string("FRDT\x01\x03", 6), std::string("FRDT\x01\x80\x20", 7),
        "FRDT" + nine_continued + '\x7F',
        std::string("FRDT\x01", 5) + nine_continued + '\x01'}) {
    expect_same_outcome(bytes, "header '" + bytes + "'");
    EXPECT_NE(reference_decode(bytes).error, "");
  }
}

// trace_reader reads kBlockBytes at a time: events of 2 to 31 bytes, shifted
// by every padding up to the longest, cross those block ends at every
// offset.
TEST(SpanDecoder, EventsAcrossBlockBoundariesMatchTheReference) {
  for (int pad = 0; pad < 64; ++pad) {
    if (pad == 1) continue;
    const std::string bytes = seeded_flat_trace(7, 6000, pad);
    ASSERT_GT(bytes.size(), 2 * trace_reader::kBlockBytes);
    expect_same_outcome(bytes, "pad " + std::to_string(pad));
  }
}

}  // namespace
}  // namespace frd::trace
