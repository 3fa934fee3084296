// container_writer: a trace_sink that produces a .frdtz container.
//
// The sink owns an inner trace_writer whose bytes land in a chunking
// streambuf instead of the file: the bytes collect in the streambuf's put
// area, the content-defined chunker scans them a block at a time, and every
// finished chunk is deduplicated by SHA-1, LZ-compressed when that helps,
// and appended to the output stream. Peak memory is the put area (two
// maximum-size chunks, plus 16 bytes per event starting in it), the
// compressor's tables (128 KiB plus 4 bytes per byte of the largest chunk,
// see lz_compressor) and the footer table — a million-event trace
// streams through without ever being whole in RAM. finish() seals the
// container (footer + trailer); like trace_writer, the destructor finishes
// on the happy path but swallows errors.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <streambuf>
#include <vector>

#include "compress/chunker.hpp"
#include "compress/lz.hpp"
#include "container/format.hpp"
#include "trace/codec.hpp"

namespace frd::container {

class container_writer final : public trace::trace_sink {
 public:
  // Throws trace::trace_error when params.max_size exceeds kMaxChunkSize.
  explicit container_writer(std::ostream& out, trace::trace_header h = {},
                            compress::chunk_params params = {});
  ~container_writer() override;
  container_writer(const container_writer&) = delete;
  container_writer& operator=(const container_writer&) = delete;

  // Forwarded to the inner trace_writer (which rejects a granule mismatch).
  void on_header(const trace::trace_header& h) override;
  void put(const trace::trace_event& e) override;
  // Ends the inner trace, flushes the open chunk, writes footer + trailer.
  // Idempotent; throws trace::trace_error when the stream failed.
  void finish() override;

  std::uint64_t events_written() const { return events_; }
  // The footer that was (or will be) written; complete after finish().
  const container_info& info() const { return info_; }

 private:
  // std::streambuf sitting between the inner trace_writer and the file:
  // collects the inner byte stream in its put area, cuts it into
  // content-defined chunks whenever the area fills (and at the end), and
  // hands each finished chunk to the owning container_writer.
  class chunking_streambuf final : public std::streambuf {
   public:
    chunking_streambuf(container_writer& owner,
                       const compress::chunk_params& params);

    // The next byte written begins event `index` (used to stamp
    // first_event/first_offset on each chunk).
    void note_event_start(std::uint64_t index);
    // Cuts what the put area holds and emits the open (sub-min-size) chunk,
    // if any.
    void flush_open_chunk();
    std::uint64_t raw_total() const {
      return open_base_ + static_cast<std::uint64_t>(pptr() - pbase());
    }

   protected:
    int_type overflow(int_type ch) override;

   private:
    struct event_start {
      std::uint64_t index;
      std::uint64_t offset;  // in the raw stream
    };

    // Scans the put area's unscanned bytes, emits every chunk that ends in
    // them (and the open chunk too when `flush_tail`), and moves what stays
    // open to the front of the area.
    void cut_chunks(bool flush_tail);

    container_writer& owner_;
    compress::stream_chunker chunker_;
    // The put area: the open chunk's bytes from its first byte on;
    // [0, scanned_) hold no cut point.
    std::vector<std::uint8_t> buf_;
    std::size_t scanned_ = 0;
    std::uint64_t open_base_ = 0;  // raw stream offset of buf_[0]
    // Events starting at or after open_base_, in stream order.
    std::vector<event_start> starts_;
    // Index the next event to start will get: what a chunk in which no
    // event starts reports as its first_event.
    std::uint64_t started_ = 0;
  };

  // Dedups, compresses, and appends one finished chunk; records its table
  // entry with `first_event` / `first_offset` (the latter == raw.size() when
  // no event starts in the chunk).
  void emit_chunk(std::span<const std::uint8_t> raw, std::uint64_t first_event,
                  std::uint64_t first_offset);

  std::ostream& out_;
  chunking_streambuf buf_;
  std::ostream inner_stream_;
  std::unique_ptr<trace::trace_writer> inner_;
  container_info info_;
  // Full-digest dedup index: raw content -> first occurrence's table entry.
  std::map<compress::sha1_digest, std::size_t> dedup_;
  compress::lz_compressor lz_;
  std::uint64_t file_offset_ = 0;
  std::uint64_t events_ = 0;
  int ctor_exceptions_;
  bool finished_ = false;
};

}  // namespace frd::container
