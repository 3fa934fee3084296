// container_writer: a trace_sink that produces a .frdtz container.
//
// put() encodes each event with the FRDT encoder (trace/codec.hpp) straight
// into the writer's chunk buffer and sets the bit of the byte it starts at.
// When the buffer cannot take one more event, the content-defined chunker
// scans the new bytes as one block, and every chunk that ends in them is
// stamped from the start bits (the first event starting in it and its
// offset), deduplicated by SHA-1, LZ-compressed when that helps, and
// appended to the output stream; the open chunk then moves to the front.
// Peak memory is the chunk buffer (two maximum-size chunks plus one
// event encoding: 32 KiB with the default chunk_params), one start bit per
// buffer byte (4 KiB), the compressor's tables and output buffer (128 KiB
// plus 6 bytes per byte of the largest chunk, see lz_compressor), and the
// footer table with its dedup index, one entry per chunk — a million-event
// trace streams through without ever being whole in RAM.
//
// put() runs inside the recording program's hooks (and on the online
// pump), so it never throws for a failed output write: the writer latches
// the failure and drops later events, and finish() throws trace_error. The
// destructor finishes on the happy path but swallows errors; during stack
// unwinding it writes nothing more, so an aborted recording has no end
// marker and no footer and reads as truncated.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <vector>

#include "compress/chunker.hpp"
#include "compress/lz.hpp"
#include "container/format.hpp"
#include "trace/codec.hpp"

namespace frd::container {

class container_writer final : public trace::trace_sink {
 public:
  // Writes the container header and puts the FRDT header into the chunk
  // buffer. Throws trace::trace_error when params.max_size exceeds
  // kMaxChunkSize, when h.granule is invalid, or when the header write
  // fails.
  explicit container_writer(std::ostream& out, trace::trace_header h = {},
                            compress::chunk_params params = {});
  ~container_writer() override;
  container_writer(const container_writer&) = delete;
  container_writer& operator=(const container_writer&) = delete;

  // Throws trace::trace_error when `h` contradicts the granule already in
  // the chunk stream.
  void on_header(const trace::trace_header& h) override;
  // Throws trace::trace_error after finish(); never for a failed write.
  void put(const trace::trace_event& e) override;
  // Writes the end marker, flushes the open chunk, writes footer + trailer.
  // Idempotent; throws trace::trace_error when a write failed.
  void finish() override;

  std::uint64_t events_written() const { return events_; }
  // The footer that was (or will be) written; complete after finish().
  const container_info& info() const { return info_; }

 private:
  // Scans the unscanned bytes of the buffer, emits every chunk that ends in
  // them (and the open chunk too when `flush_tail`), and moves what stays
  // open to the front of the buffer.
  void cut_chunks(bool flush_tail);
  // Stamps buf_[from, to) with its first event start, then dedups,
  // compresses, and appends it; latches failed_ when the write fails.
  void emit_chunk(std::size_t from, std::size_t to);

  std::ostream& out_;
  trace::trace_header header_;
  compress::stream_chunker chunker_;
  // The chunk buffer: the open chunk's bytes from its first byte on, then
  // free space. [0, scanned_) hold no cut point.
  std::vector<std::uint8_t> buf_;
  std::size_t end_ = 0;      // bytes in buf_
  std::size_t scanned_ = 0;
  std::uint64_t open_base_ = 0;  // raw stream offset of buf_[0]
  // Bit k set: an event starts at buf_[k].
  std::vector<std::uint64_t> starts_;
  // Events starting before the open chunk: the index of the first event
  // starting at or after its first byte, which a chunk in which no event
  // starts reports.
  std::uint64_t started_ = 0;

  container_info info_;
  // Full-digest dedup index: raw content -> first occurrence's table entry.
  std::map<compress::sha1_digest, std::size_t> dedup_;
  compress::lz_compressor lz_;
  std::uint64_t file_offset_ = 0;
  std::uint64_t events_ = 0;
  int ctor_exceptions_;
  bool failed_ = false;  // an output write failed; later events are dropped
  bool finished_ = false;
};

}  // namespace frd::container
