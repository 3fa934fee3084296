// container_source: a streaming trace_source over a .frdtz container.
//
// The source reads the footer once, then hands the chunks one at a time to
// the codec's span decoder (trace::span_decoder): seek to the chunk's
// stored bytes, decompress (bounded by the declared raw size), and verify
// the SHA-1 before a single byte reaches the decoder, which then walks the
// chunk in place. The chunk buffers are allocated once, sized from the
// footer: the largest raw chunk plus the largest LZ-stored one, at most
// 2 × kMaxChunkSize bytes — O(chunk size), independent of trace length —
// and max_resident_bytes() reports them so tests can hold the source to
// that bound. Every integrity defect (digest mismatch, short chunk, footer
// disagreeing with the inner header or event count) throws trace_error
// naming the defect.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "container/format.hpp"
#include "trace/codec.hpp"

namespace frd::container {

// Scratch for load_chunk, sized once from a footer: room for its largest
// raw chunk and its largest LZ-stored chunk. parse_footer bounds both by
// kMaxChunkSize.
struct chunk_buffers {
  explicit chunk_buffers(const container_info& info);
  std::uint64_t bytes() const { return stored.size() + raw.size(); }

  std::vector<std::uint8_t> stored;
  std::vector<std::uint8_t> raw;
};

// Loads, decompresses and verifies one chunk into `buf` and returns its raw
// bytes, valid until the next load into the same buffers (the shared chunk
// path of container_source and unpack). Throws trace_error naming the chunk
// on a short read, corrupt compressed data, or a digest mismatch.
std::span<const std::uint8_t> load_chunk(std::istream& file,
                                         const chunk_entry& entry,
                                         std::size_t index,
                                         chunk_buffers& buf);

class container_source final : public trace::trace_source,
                               private trace::span_decoder::feed {
 public:
  // `in` must be seekable (an opened binary ifstream); the footer is read
  // and validated eagerly, the chunks lazily.
  explicit container_source(std::istream& in);

  const trace::trace_header& header() const override { return header_; }
  bool next(trace::trace_event& e) override;
  std::span<const trace::trace_event> access_run(std::size_t max) override;

  // Positions the source so the NEXT next() call delivers event `n` (which
  // may equal event_count: positioned at end), forwards or backwards. It
  // jumps via the footer's per-chunk first_event/first_offset index and
  // decodes at most one chunk's worth of events to land exactly on `n` —
  // the prefix is never read. Throws trace_error when `n` lies past the
  // declared event count.
  void seek_to_event(std::uint64_t n);

  const container_info& info() const { return info_; }
  std::uint64_t events_delivered() const { return events_; }
  // Chunk bytes the source holds: its stored and raw chunk buffers.
  std::uint64_t max_resident_bytes() const { return buf_.bytes(); }

 private:
  // The span decoder's feed: the next chunk, loaded and verified.
  std::span<const std::uint8_t> next_block() override;

  std::istream& file_;
  container_info info_;
  chunk_buffers buf_;
  std::size_t next_chunk_ = 0;
  trace::span_decoder decoder_;
  trace::trace_header header_;
  // Absolute index of the next event next() will deliver — a cursor, not a
  // delivered-count, so the end-of-stream event-count check stays valid
  // after seeks.
  std::uint64_t events_ = 0;
};

// Streams the verified inner FRDT byte stream to `out` — byte-identical to
// the .frdt the container was packed from. Returns the footer for stats.
container_info unpack(std::istream& in, std::ostream& out);

}  // namespace frd::container
