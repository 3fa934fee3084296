#include "container/source.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "compress/digest.hpp"
#include "compress/lz.hpp"

namespace frd::container {

using trace::trace_error;

chunk_buffers::chunk_buffers(const container_info& info) {
  std::uint64_t stored_max = 0, raw_max = 0;
  for (const chunk_entry& c : info.chunks) {
    raw_max = std::max(raw_max, c.raw_size);
    if (c.encoding == chunk_encoding::lz) {
      stored_max = std::max(stored_max, c.stored_size);
    }
  }
  stored.resize(static_cast<std::size_t>(stored_max));
  raw.resize(static_cast<std::size_t>(raw_max));
}

std::span<const std::uint8_t> load_chunk(std::istream& file,
                                         const chunk_entry& entry,
                                         std::size_t index,
                                         chunk_buffers& buf) {
  const bool lz = entry.encoding == chunk_encoding::lz;
  const auto stored_size = static_cast<std::size_t>(entry.stored_size);
  const auto raw_size = static_cast<std::size_t>(entry.raw_size);
  const auto mismatch = [&](std::uint64_t got) {
    return trace_error("corrupt trace container: chunk " +
                       std::to_string(index) + " decompresses to " +
                       std::to_string(got) + " bytes, footer says " +
                       std::to_string(entry.raw_size));
  };
  // A raw chunk is stored as is, so it is read straight into the raw buffer.
  if (!lz && stored_size != raw_size) throw mismatch(entry.stored_size);
  std::vector<std::uint8_t>& into = lz ? buf.stored : buf.raw;
  // Buffers sized from this entry's own footer never grow here.
  if (into.size() < stored_size) into.resize(stored_size);
  if (buf.raw.size() < raw_size) buf.raw.resize(raw_size);
  std::uint8_t* const stored = into.data();
  file.clear();
  file.seekg(static_cast<std::streamoff>(entry.offset), std::ios::beg);
  file.read(reinterpret_cast<char*>(stored),
            static_cast<std::streamsize>(stored_size));
  if (file.gcount() != static_cast<std::streamsize>(stored_size)) {
    throw trace_error("corrupt trace container: chunk " +
                      std::to_string(index) + " read cut short");
  }

  if (lz) {
    std::size_t got = 0;
    try {
      got = compress::lz_decompress({stored, stored_size},
                                    {buf.raw.data(), raw_size});
    } catch (const compress::decode_error& e) {
      throw trace_error("corrupt trace container: chunk " +
                        std::to_string(index) + " fails to decompress (" +
                        e.what() + ")");
    }
    if (got != raw_size) throw mismatch(got);
  }
  const std::span<const std::uint8_t> raw(buf.raw.data(), raw_size);
  if (compress::sha1(raw) != entry.digest) {
    throw trace_error("corrupt trace container: chunk " +
                      std::to_string(index) + " digest mismatch");
  }
  return raw;
}

// -------------------------------------------------------- container_source --

container_source::container_source(std::istream& in)
    : file_(in),
      info_(read_container_info(in)),
      buf_(info_),
      decoder_(*this) {
  header_ = decoder_.read_header();
  if (header_.version != info_.inner_version ||
      header_.granule != info_.granule) {
    throw trace_error(
        "corrupt trace container: footer declares version " +
        std::to_string(info_.inner_version) + "/granule " +
        std::to_string(info_.granule) + " but the inner trace header says " +
        std::to_string(header_.version) + "/" +
        std::to_string(header_.granule));
  }
}

std::span<const std::uint8_t> container_source::next_block() {
  if (next_chunk_ >= info_.chunks.size()) return {};
  const std::size_t index = next_chunk_++;
  return load_chunk(file_, info_.chunks[index], index, buf_);
}

void container_source::seek_to_event(std::uint64_t n) {
  if (n > info_.event_count) {
    throw trace_error("seek to event " + std::to_string(n) +
                      " past the end of a " +
                      std::to_string(info_.event_count) + "-event container");
  }
  // Largest chunk whose first STARTING event is <= n and in which an event
  // actually starts (first_offset < raw_size; start-free chunks only
  // continue a spanning event), or chunk 0 when no later chunk is. The
  // constructor read the inner header from chunk 0, so there is one.
  std::size_t lo = 0;
  for (std::size_t i = 1; i < info_.chunks.size(); ++i) {
    const chunk_entry& c = info_.chunks[i];
    if (c.first_event > n) break;
    if (c.first_offset < c.raw_size) lo = i;
  }
  const chunk_entry& c = info_.chunks[lo];
  if (c.first_offset == c.raw_size) {
    // No event starts in chunk 0 or in any chunk that could hold event n,
    // so the trace has none: decoding resumes after the header, at the end
    // marker.
    next_chunk_ = 0;
    decoder_.restart({});
    (void)decoder_.read_header();
    events_ = 0;
  } else {
    const std::span<const std::uint8_t> chunk = load_chunk(file_, c, lo, buf_);
    next_chunk_ = lo + 1;
    decoder_.restart(chunk.subspan(static_cast<std::size_t>(c.first_offset)));
    events_ = c.first_event;
  }
  // Decode-and-discard the rest of the way: at most one chunk's events.
  trace::trace_event e;
  while (events_ < n) {
    if (!next(e)) {
      throw trace_error("corrupt trace container: stream ended at event " +
                        std::to_string(events_) + " while seeking to " +
                        std::to_string(n));
    }
  }
}

bool container_source::next(trace::trace_event& e) {
  if (decoder_.next(e)) {
    ++events_;
    return true;
  }
  if (events_ != info_.event_count) {
    throw trace_error("corrupt trace container: footer declares " +
                      std::to_string(info_.event_count) +
                      " events but the stream holds " +
                      std::to_string(events_));
  }
  return false;
}

std::span<const trace::trace_event> container_source::access_run(
    std::size_t max) {
  const std::span<const trace::trace_event> run = decoder_.access_run(max);
  events_ += run.size();
  return run;
}

// ------------------------------------------------------------------ unpack --

container_info unpack(std::istream& in, std::ostream& out) {
  container_info info = read_container_info(in);
  chunk_buffers buf(info);
  for (std::size_t i = 0; i < info.chunks.size(); ++i) {
    const std::span<const std::uint8_t> raw =
        load_chunk(in, info.chunks[i], i, buf);
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
    if (!out) {
      throw trace_error("trace container: write failed while unpacking chunk " +
                        std::to_string(i));
    }
  }
  out.flush();
  if (!out) throw trace_error("trace container: flush failed after unpack");
  return info;
}

}  // namespace frd::container
