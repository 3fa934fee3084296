#include "container/writer.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
#include <ostream>
#include <string>

#include "compress/digest.hpp"
#include "detect/hooks.hpp"

namespace frd::container {

using trace::trace_error;

namespace {

// A chunk the reader would refuse must not be written in the first place.
const compress::chunk_params& checked(const compress::chunk_params& params) {
  if (params.max_size > kMaxChunkSize) {
    throw trace_error("trace container: chunk max_size " +
                      std::to_string(params.max_size) + " exceeds the " +
                      std::to_string(kMaxChunkSize) + "-byte chunk limit");
  }
  return params;
}

// The first set bit of `bits` in [from, to), from < to, or `to` when none
// is; `count` gets how many are set there.
std::size_t first_set(const std::uint64_t* bits, std::size_t from,
                      std::size_t to, std::uint64_t& count) {
  std::size_t first = to;
  count = 0;
  const std::size_t last = (to - 1) / 64;
  for (std::size_t w = from / 64; w <= last; ++w) {
    std::uint64_t word = bits[w];
    if (w == from / 64) word &= ~std::uint64_t{0} << (from % 64);
    if (w == last && to % 64 != 0) word &= (std::uint64_t{1} << (to % 64)) - 1;
    if (word != 0 && first == to) first = 64 * w + std::countr_zero(word);
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return first;
}

// Moves bits [from, end) of `bits` to [0, end - from) and clears the rest
// of [0, end); bits at and past `end` are clear before and after.
void shift_down(std::uint64_t* bits, std::size_t from, std::size_t end) {
  const std::size_t used = (end + 63) / 64;
  const std::size_t kept = (end - from + 63) / 64;
  const std::size_t w = from / 64;
  const unsigned b = from % 64;
  for (std::size_t i = 0; i < kept; ++i) {
    std::uint64_t v = bits[w + i] >> b;
    if (b != 0 && w + i + 1 < used) v |= bits[w + i + 1] << (64 - b);
    bits[i] = v;
  }
  std::fill(bits + kept, bits + used, std::uint64_t{0});
}

}  // namespace

container_writer::container_writer(std::ostream& out, trace::trace_header h,
                                   compress::chunk_params params)
    : out_(out),
      header_(h),
      chunker_(checked(params)),
      // The open chunk stays shorter than max_size, so after every cut at
      // least max_size + kMaxEventBytes bytes are free.
      buf_(2 * params.max_size + trace::kMaxEventBytes),
      starts_(buf_.size() / 64 + 1, 0),
      ctor_exceptions_(std::uncaught_exceptions()) {
  // The FRDT header opens the first chunk; encoding it first rejects a bad
  // granule before anything is written.
  end_ = static_cast<std::size_t>(trace::encode_header(buf_.data(), h) -
                                  buf_.data());
  out_.write(kMagic, sizeof(kMagic));
  std::vector<std::uint8_t> v;
  compress::put_varint(v, kContainerVersion);
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size()));
  if (!out_) throw trace_error("trace container: write failed on header");
  file_offset_ = sizeof(kMagic) + v.size();
  info_.inner_version = h.version;
  info_.granule = h.granule;
}

container_writer::~container_writer() {
  if (std::uncaught_exceptions() > ctor_exceptions_) return;
  try {
    finish();
  } catch (...) {
    // Like trace_writer: destructors cannot throw; callers who care about
    // the container call finish() themselves.
  }
}

void container_writer::on_header(const trace::trace_header& h) {
  trace::check_announced_header(h, header_);
  info_.inner_version = h.version;
  info_.granule = h.granule;
}

void container_writer::put(const trace::trace_event& e) {
  if (finished_ || failed_) [[unlikely]] {
    if (finished_) {
      throw trace_error(
          "put() after finish(): events past the end marker would be "
          "silently invisible to readers");
    }
    return;
  }
  if (buf_.size() - end_ < trace::kMaxEventBytes) [[unlikely]] {
    cut_chunks(false);
    if (failed_) return;
  }
  starts_[end_ / 64] |= std::uint64_t{1} << (end_ % 64);
  std::uint8_t* const data = buf_.data();
  end_ = static_cast<std::size_t>(trace::encode_event(data + end_, e) - data);
  ++events_;
}

void container_writer::cut_chunks(bool flush_tail) {
  std::uint8_t* const data = buf_.data();
  std::size_t from = 0;  // first byte of the open chunk
  while (scanned_ < end_) {
    const std::size_t cut =
        chunker_.next_cut({data + scanned_, end_ - scanned_});
    if (cut == 0) {
      scanned_ = end_;
      break;
    }
    scanned_ += cut;
    emit_chunk(from, scanned_);
    if (failed_) return;
    from = scanned_;
  }
  if (flush_tail && from < end_) {
    emit_chunk(from, end_);
    if (failed_) return;
    from = end_;
  }
  if (from == 0) return;

  // The open chunk moves to the front of the buffer.
  std::memmove(data, data + from, end_ - from);
  shift_down(starts_.data(), from, end_);
  open_base_ += from;
  scanned_ -= from;
  end_ -= from;
}

void container_writer::emit_chunk(std::size_t from, std::size_t to) {
  const std::span<const std::uint8_t> raw(buf_.data() + from, to - from);
  chunk_entry entry;
  entry.raw_size = raw.size();
  // first_offset == raw_size when no event starts in the chunk; first_event
  // is then the next event's index.
  std::uint64_t starting = 0;
  entry.first_offset = first_set(starts_.data(), from, to, starting) - from;
  entry.first_event = started_;
  started_ += starting;
  entry.digest = compress::sha1(raw);

  if (const auto it = dedup_.find(entry.digest); it != dedup_.end()) {
    const chunk_entry& first = info_.chunks[it->second];
    entry.offset = first.offset;
    entry.stored_size = first.stored_size;
    entry.encoding = first.encoding;
    info_.chunks.push_back(entry);
    return;
  }

  const std::span<const std::uint8_t> packed =
      lz_.compress<detect::hooks::none>(raw);
  const bool use_lz = packed.size() < raw.size();
  const std::span<const std::uint8_t> stored = use_lz ? packed : raw;
  entry.offset = file_offset_;
  entry.stored_size = stored.size();
  entry.encoding = use_lz ? chunk_encoding::lz : chunk_encoding::raw;
  out_.write(reinterpret_cast<const char*>(stored.data()),
             static_cast<std::streamsize>(stored.size()));
  if (!out_) {
    failed_ = true;
    return;
  }
  file_offset_ += stored.size();
  dedup_.emplace(entry.digest, info_.chunks.size());
  info_.chunks.push_back(entry);
}

void container_writer::finish() {
  if (finished_) return;
  finished_ = true;
  if (!failed_) {
    if (end_ == buf_.size()) cut_chunks(false);
    if (!failed_) {
      buf_[end_++] = trace::kEndMarker;
      cut_chunks(true);  // whatever remains becomes the last chunk
    }
  }
  if (failed_) {
    throw trace_error(
        "trace container: write failed on chunk; the written container is "
        "incomplete");
  }

  info_.event_count = events_;
  info_.raw_size = open_base_ + end_;

  const std::uint64_t footer_offset = file_offset_;
  std::vector<std::uint8_t> footer;
  encode_footer(footer, info_);
  out_.write(reinterpret_cast<const char*>(footer.data()),
             static_cast<std::streamsize>(footer.size()));

  std::uint8_t trailer[kTrailerSize];
  for (int i = 0; i < 8; ++i)
    trailer[i] = static_cast<std::uint8_t>(footer_offset >> (8 * i));
  std::memcpy(trailer + 8, kTrailerMagic, 4);
  out_.write(reinterpret_cast<const char*>(trailer), kTrailerSize);
  out_.flush();
  if (!out_) throw trace_error("trace container: write failed on footer");
}

}  // namespace frd::container
