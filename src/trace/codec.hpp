// Trace codecs: the versioned binary format every trace is read from, and a
// line-oriented JSONL rendering that `frd-trace dump` writes for reading.
//
// Binary layout (little-endian, LEB128 varints):
//
//   magic     4 bytes        "FRDT"
//   version   varint         kTraceVersion
//   granule   varint         shadow granule of the recording (bytes)
//   events    repeated       kind byte (< kEventKindCount), then
//                            field_count(kind) varint fields in the
//                            field_names(kind) order
//   end       1 byte         0xFF (explicit, so truncation is detectable)
//
// JSONL (written, never read back): the first line is a header object
//   {"frd_trace":true,"version":1,"granule":4}
// and every following line is one event object
//   {"ev":"spawn","parent":0,"u":0,"child":1,"w":1,"v":2}
// The reader throws trace_error on bad magic, unsupported version,
// truncation, or malformed events; both writers must be finish()ed (the
// destructor finishes on the happy path, but errors from a destructor are
// swallowed — call finish() when you care).
#pragma once

#include <cstddef>
#include <exception>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/lz.hpp"
#include "trace/event.hpp"

namespace frd::trace {

// ----------------------------------------------------------------- encoder --

// The one FRDT encoder: trace_writer and container::container_writer both
// write the format through these functions.

// Longest encoding of one event: the kind byte and six 10-byte varints.
inline constexpr std::size_t kMaxEventBytes = 1 + 10 * kMaxEventFields;
// Longest encoding of the header: the magic and two 32-bit varints.
inline constexpr std::size_t kMaxHeaderBytes = 4 + 2 * 5;
// The byte that follows the last event.
inline constexpr std::uint8_t kEndMarker = 0xFF;

// Writes the magic and `h` at `out`, which has room for kMaxHeaderBytes,
// and returns the end of what it wrote. Throws trace_error when h.granule
// is not one the format carries.
std::uint8_t* encode_header(std::uint8_t* out, const trace_header& h);

// A recorder announcing a granule other than the one `written` put on the
// wire is a configuration bug: throws trace_error.
void check_announced_header(const trace_header& announced,
                            const trace_header& written);

namespace detail {

// encode_event for the kinds that are not accesses.
std::uint8_t* encode_dag_event(std::uint8_t* out, const trace_event& e);

}  // namespace detail

// Writes `e` at `out`, which has room for kMaxEventBytes, and returns the
// end of what it wrote: the kind byte, then its fields as varints.
inline std::uint8_t* encode_event(std::uint8_t* out, const trace_event& e) {
  if (e.kind == event_kind::read || e.kind == event_kind::write) {
    *out = static_cast<std::uint8_t>(e.kind);
    return compress::put_varint(out + 1, e.access.addr);
  }
  return detail::encode_dag_event(out, e);
}

// ------------------------------------------------------------------ binary --

class trace_writer final : public trace_sink {
 public:
  explicit trace_writer(std::ostream& out, trace_header h = {});
  ~trace_writer() override;
  trace_writer(const trace_writer&) = delete;
  trace_writer& operator=(const trace_writer&) = delete;

  // The header is already on the wire: a recorder announcing a different
  // granule is a configuration bug — throws trace_error.
  void on_header(const trace_header& h) override;
  void put(const trace_event& e) override;
  // Writes the end marker and flushes; idempotent. Throws trace_error when
  // the stream failed (the destructor swallows that — call finish() when the
  // trace matters).
  void finish() override;
  std::uint64_t events_written() const { return events_; }

 private:
  std::ostream& out_;
  trace_header header_;
  // Uncaught-exception count at construction: the destructor skips the end
  // marker when it runs during unwinding, so aborted recordings read as
  // truncated instead of complete.
  int ctor_exceptions_;
  std::uint64_t events_ = 0;
  bool finished_ = false;
};

// The one FRDT event decoder: reads kind bytes and varints straight from
// contiguous memory. Its feed hands it the byte stream a block at a time
// (trace_reader: blocks read from an istream; container::container_source:
// each verified chunk), and the decoder walks each block in place. An event
// that starts in the last kMaxEventBytes of a block takes a byte-at-a-time
// path that fetches the next block when this one runs out, so an event cut
// by a block boundary decodes like any other. Every check of the format is
// made here, with one message each: a missing end marker or a varint cut
// off by the end of the stream, an unknown kind, a varint past 64 bits and
// a field over 32 bits (event_from) all throw trace_error.
class span_decoder {
 public:
  // Supplies the byte stream.
  class feed {
   public:
    // The next block of the stream, or an empty span at its end. A block
    // stays valid until the next call.
    virtual std::span<const std::uint8_t> next_block() = 0;

   protected:
    ~feed() = default;
  };

  // The decoder points into its feed's blocks, and its owner is usually
  // the feed: neither may move.
  explicit span_decoder(feed& f) : feed_(f) {}
  span_decoder(const span_decoder&) = delete;
  span_decoder& operator=(const span_decoder&) = delete;

  // Reads and validates the magic and the header fields at the current
  // position; throws trace_error on bad magic, version or granule.
  trace_header read_header();
  // Continues from `block`, whose first byte starts an event, as if the
  // stream went on from there (the container's seek path).
  void restart(std::span<const std::uint8_t> block);

  // trace_source::next and access_run over the decoded stream. access_run
  // decodes the run into storage of its own, valid until the next call, and
  // stops early where a block ends; it returns an empty span at a dag
  // event, at the end of the stream, and near a block end, where next()
  // takes over.
  bool next(trace_event& e);
  std::span<const trace_event> access_run(std::size_t max);

 private:
  // The next byte of the stream, fetching blocks as needed; -1 at its end.
  int get_byte();
  // The byte-at-a-time paths, for bytes that may cross a block end.
  std::uint64_t get_varint();
  bool next_across_blocks(trace_event& e);

  feed& feed_;
  const std::uint8_t* pos_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  bool done_ = false;  // the end marker was read
  std::vector<trace_event> run_;
};

// Decodes a binary trace from an istream, which it reads in blocks of
// kBlockBytes: it may consume bytes past the trace's end marker.
class trace_reader final : public trace_source, private span_decoder::feed {
 public:
  static constexpr std::size_t kBlockBytes = 16 << 10;

  // Reads and validates the header; throws trace_error on bad input.
  explicit trace_reader(std::istream& in);

  const trace_header& header() const override { return header_; }
  bool next(trace_event& e) override { return decoder_.next(e); }
  std::span<const trace_event> access_run(std::size_t max) override {
    return decoder_.access_run(max);
  }

 private:
  std::span<const std::uint8_t> next_block() override;

  std::istream& in_;
  std::vector<std::uint8_t> block_;
  span_decoder decoder_;
  trace_header header_;
};

// ------------------------------------------------------------------- jsonl --

class jsonl_writer final : public trace_sink {
 public:
  explicit jsonl_writer(std::ostream& out, trace_header h = {});

  void on_header(const trace_header& h) override;  // like trace_writer's
  void put(const trace_event& e) override;
  // No trailer to write, but flushes and surfaces stream failure like
  // trace_writer::finish().
  void finish() override;
  std::uint64_t events_written() const { return events_; }

 private:
  std::ostream& out_;
  trace_header header_;
  std::uint64_t events_ = 0;
};

// Sniffs the stream (container magic or not) and returns the matching
// reader: container::container_source for a .frdtz, trace_reader otherwise.
std::unique_ptr<trace_source> open_source(std::istream& in);

}  // namespace frd::trace
