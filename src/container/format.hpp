// The .frdtz streaming compressed trace container: on-disk format.
//
// A container wraps one binary FRDT trace (codec.hpp) so that million-event
// traces are first-class corpus artifacts: the inner byte stream is split
// with the content-defined chunker (compress/chunker.hpp), each chunk is
// LZ-compressed (compress/lz.hpp) unless that would grow it, keyed by the
// SHA-1 of its RAW bytes (compress/digest.hpp) for integrity checking and
// cross-chunk dedup, and indexed in a seekable footer so readers can stream
// or seek without materializing the whole trace.
//
// Layout (little-endian, LEB128 varints from compress::put_varint):
//
//   header   "FRDZ" magic (4 bytes), varint container version
//   payload  stored chunk bytes, back to back; a chunk whose raw content
//            already appeared is NOT stored again — its table entry points
//            at the first occurrence's offset (dedup)
//   footer   "FRDX" magic (4 bytes), then varints: inner trace version,
//            granule, event count, raw stream size, chunk count; then one
//            table entry per chunk:
//              varint offset        absolute file offset of stored bytes
//              varint stored_size   bytes on disk (== raw_size when raw)
//              varint raw_size      decompressed chunk size
//              varint first_event   index of the first event that STARTS in
//                                   this chunk (events may span boundaries;
//                                   chunk i covers events
//                                   [first_event, next.first_event))
//              varint first_offset  byte offset inside the RAW chunk where
//                                   that event's encoding starts; ==
//                                   raw_size when no event starts in this
//                                   chunk. first_event alone names the
//                                   chunk; first_offset is what makes it
//                                   decodable mid-stream — together they
//                                   are the seek index behind
//                                   container_source::seek_to_event.
//              1 byte encoding      0 = raw, 1 = LZ
//              20 bytes             SHA-1 of the raw chunk bytes
//   trailer  u64 LE footer offset + "ZEND" magic — fixed 12 bytes at EOF,
//            so readers find the footer with one seek and truncation is
//            always detectable.
//
// Concatenating the decompressed chunks in table order reproduces the inner
// FRDT byte stream exactly — `frd-trace unpack` is byte-identity with the
// original `.frdt`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "compress/digest.hpp"
#include "trace/event.hpp"

namespace frd::container {

inline constexpr char kMagic[4] = {'F', 'R', 'D', 'Z'};
inline constexpr char kFooterMagic[4] = {'F', 'R', 'D', 'X'};
inline constexpr char kTrailerMagic[4] = {'Z', 'E', 'N', 'D'};
// The one container version this build writes and reads.
inline constexpr std::uint32_t kContainerVersion = 2;
inline constexpr std::size_t kTrailerSize = 12;  // u64 offset + 4-byte magic
// Largest chunk, raw or stored, a container may hold: four times the
// chunker's default 16 KiB maximum. The reader rejects a footer that
// declares a larger chunk before it allocates anything for it, and
// container_writer refuses chunk_params that could cut one, so whatever a
// writer produces a reader accepts.
inline constexpr std::uint64_t kMaxChunkSize = 64 << 10;

enum class chunk_encoding : std::uint8_t { raw = 0, lz = 1 };

struct chunk_entry {
  std::uint64_t offset = 0;       // absolute file offset of the stored bytes
  std::uint64_t stored_size = 0;  // bytes on disk
  std::uint64_t raw_size = 0;     // decompressed size
  std::uint64_t first_event = 0;  // first event starting in this chunk
  // Byte offset of event `first_event` inside the raw chunk; raw_size when
  // no event starts in this chunk.
  std::uint64_t first_offset = 0;
  chunk_encoding encoding = chunk_encoding::lz;
  compress::sha1_digest digest{};  // of the RAW chunk bytes
};

// Everything the footer says about a container, plus derived totals — the
// writer produces it, the reader parses it, `frd-trace stats` prints it.
struct container_info {
  std::uint32_t inner_version = trace::kTraceVersion;
  std::uint32_t granule = 4;
  std::uint64_t event_count = 0;
  std::uint64_t raw_size = 0;  // inner FRDT stream bytes
  std::vector<chunk_entry> chunks;

  // Derived: stored payload bytes, counting deduplicated chunks once.
  std::uint64_t payload_bytes() const;
  // Chunks whose table entry points at an earlier occurrence.
  std::uint64_t dedup_hits() const;
  // Raw bytes those dedup hits avoided storing (before compression).
  std::uint64_t dedup_saved_raw_bytes() const;
  // raw_size / (header + payload + footer + trailer); > 1 means the
  // container is smaller than the flat trace.
  double compression_ratio(std::uint64_t file_size) const;
};

// Serializes the footer (magic through the last table entry) into `out`.
void encode_footer(std::vector<std::uint8_t>& out, const container_info& info);

// Parses and validates a footer blob (as delimited by the trailer). Throws
// trace::trace_error naming the defect: bad footer magic, truncated table,
// a chunk whose stored bytes land outside [header_end, footer_offset), a
// seek offset past its chunk, or a chunk larger than kMaxChunkSize.
container_info parse_footer(const std::vector<std::uint8_t>& footer,
                            std::uint64_t footer_offset);

// Reads the container header + trailer + footer of a seekable stream and
// returns the validated info; the stream is left positioned arbitrarily.
// Throws trace::trace_error on bad magic, unsupported container version, or
// a truncated/corrupt trailer or footer.
container_info read_container_info(std::istream& in);

// True when the stream starts with the container magic (peeked, position
// restored) — the codec layer's sniff.
bool looks_like_container(std::istream& in);

}  // namespace frd::container
