#include "container/writer.hpp"

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

}  // namespace

// ---------------------------------------------------- chunking_streambuf --

container_writer::chunking_streambuf::chunking_streambuf(
    container_writer& owner, const compress::chunk_params& params)
    : owner_(owner), chunker_(params), buf_(2 * params.max_size) {
  char* const area = reinterpret_cast<char*>(buf_.data());
  setp(area, area + buf_.size());
}

void container_writer::chunking_streambuf::note_event_start(
    std::uint64_t index) {
  const std::uint64_t at = raw_total();
  // A start noted again before any byte is written replaces the earlier one:
  // once a failed chunk write has put the inner stream in a failed state,
  // later events write nothing, and the list must not grow with them.
  if (!starts_.empty() && starts_.back().offset == at) {
    starts_.back().index = index;
  } else {
    starts_.push_back(event_start{index, at});
  }
}

void container_writer::chunking_streambuf::cut_chunks(bool flush_tail) {
  std::uint8_t* const data = buf_.data();
  const auto end = static_cast<std::size_t>(pptr() - pbase());
  std::size_t from = 0;  // first byte of the open chunk
  std::size_t next = 0;  // first entry of starts_ not in an emitted chunk
  const auto emit = [&](std::size_t to) {
    std::uint64_t first_event = started_;
    std::uint64_t first_offset = to - from;  // no event starts in the chunk
    const std::uint64_t limit = open_base_ + to;
    if (next < starts_.size() && starts_[next].offset < limit) {
      first_event = starts_[next].index;
      first_offset = starts_[next].offset - (open_base_ + from);
      while (next < starts_.size() && starts_[next].offset < limit) ++next;
      started_ = starts_[next - 1].index + 1;
    }
    owner_.emit_chunk({data + from, to - from}, first_event, first_offset);
    from = to;
  };
  while (scanned_ < end) {
    const std::size_t cut =
        chunker_.next_cut({data + scanned_, end - scanned_});
    if (cut == 0) {
      scanned_ = end;
      break;
    }
    scanned_ += cut;
    emit(scanned_);
  }
  if (flush_tail && from < end) emit(end);

  // The open chunk moves to the front of the put area; the chunker cuts at
  // max_size, so it is shorter than that and at least half the area is free.
  starts_.erase(starts_.begin(),
                starts_.begin() + static_cast<std::ptrdiff_t>(next));
  std::memmove(data, data + from, end - from);
  open_base_ += from;
  scanned_ -= from;
  char* const area = reinterpret_cast<char*>(data);
  setp(area, area + buf_.size());
  pbump(static_cast<int>(end - from));
}

container_writer::chunking_streambuf::int_type
container_writer::chunking_streambuf::overflow(int_type ch) {
  cut_chunks(false);
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  *pptr() = traits_type::to_char_type(ch);
  pbump(1);
  return ch;
}

void container_writer::chunking_streambuf::flush_open_chunk() {
  cut_chunks(true);
}

// ------------------------------------------------------- container_writer --

container_writer::container_writer(std::ostream& out, trace::trace_header h,
                                   compress::chunk_params params)
    : out_(out),
      buf_(*this, checked(params)),
      inner_stream_(&buf_),
      ctor_exceptions_(std::uncaught_exceptions()) {
  out_.write(kMagic, sizeof(kMagic));
  std::vector<std::uint8_t> v;
  compress::put_varint(v, kContainerVersion);
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size()));
  if (!out_) throw trace_error("trace container: write failed on header");
  file_offset_ = sizeof(kMagic) + v.size();
  info_.inner_version = h.version;
  info_.granule = h.granule;
  // The inner writer serializes the FRDT header into the chunk stream
  // immediately; those bytes belong to the first chunk.
  inner_ = std::make_unique<trace::trace_writer>(inner_stream_, h);
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
  inner_->on_header(h);
  info_.inner_version = h.version;
  info_.granule = h.granule;
}

void container_writer::put(const trace::trace_event& e) {
  buf_.note_event_start(events_);
  inner_->put(e);
  ++events_;
}

void container_writer::emit_chunk(std::span<const std::uint8_t> raw,
                                  std::uint64_t first_event,
                                  std::uint64_t first_offset) {
  const compress::sha1_digest digest = compress::sha1(raw);
  chunk_entry entry;
  entry.raw_size = raw.size();
  entry.first_event = first_event;
  entry.first_offset = first_offset;
  entry.digest = digest;

  if (const auto it = dedup_.find(digest); it != dedup_.end()) {
    const chunk_entry& first = info_.chunks[it->second];
    entry.offset = first.offset;
    entry.stored_size = first.stored_size;
    entry.encoding = first.encoding;
    info_.chunks.push_back(entry);
    return;
  }

  const auto packed = lz_.compress<detect::hooks::none>(raw);
  const bool use_lz = packed.size() < raw.size();
  const std::span<const std::uint8_t> stored =
      use_lz ? std::span<const std::uint8_t>(packed) : raw;
  entry.offset = file_offset_;
  entry.stored_size = stored.size();
  entry.encoding = use_lz ? chunk_encoding::lz : chunk_encoding::raw;
  out_.write(reinterpret_cast<const char*>(stored.data()),
             static_cast<std::streamsize>(stored.size()));
  if (!out_) throw trace_error("trace container: write failed on chunk");
  file_offset_ += stored.size();
  dedup_.emplace(digest, info_.chunks.size());
  info_.chunks.push_back(entry);
}

void container_writer::finish() {
  if (finished_) return;
  inner_->finish();           // end marker lands in the chunk stream
  buf_.flush_open_chunk();    // whatever remains becomes the last chunk
  finished_ = true;

  info_.event_count = events_;
  info_.raw_size = buf_.raw_total();

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
