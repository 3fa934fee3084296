#include "trace/codec.hpp"

#include <cstring>
#include <istream>
#include <ostream>

#include "container/source.hpp"
#include "support/granule.hpp"

namespace frd::trace {

namespace {

constexpr char kMagic[4] = {'F', 'R', 'D', 'T'};

[[noreturn]] void varint_overflow() {
  throw trace_error("malformed trace: varint overflows 64 bits");
}

// Decodes the varint at `p`, which must have at least 10 readable bytes
// after it, and returns the byte past it. The 10th byte holds only bit 63:
// anything above it (or a continuation bit there) would be silently
// shifted away — corrupt, not decodable.
inline const std::uint8_t* decode_varint(const std::uint8_t* p,
                                         std::uint64_t& out) {
  std::uint64_t c = *p++;
  if (c < 0x80) {
    out = c;
    return p;
  }
  std::uint64_t v = c & 0x7F;
  for (int shift = 7;; shift += 7) {
    c = *p++;
    if (shift == 63 && (c & 0xFE) != 0) varint_overflow();
    v |= (c & 0x7F) << shift;
    if (c < 0x80) {
      out = v;
      return p;
    }
  }
}

[[noreturn]] void unknown_kind(int kind_byte) {
  throw trace_error("malformed trace: unknown event kind " +
                    std::to_string(kind_byte));
}

constexpr int kRead = static_cast<int>(event_kind::read);
constexpr int kWrite = static_cast<int>(event_kind::write);

// Validation happens on the full decoded 64-bit values, BEFORE any narrowing
// cast — a granule of 2^32 + 4 must be rejected, not silently read as 4.
void check_granule(std::uint64_t granule) {
  if (granule > 4096 || !valid_granule(static_cast<std::size_t>(granule))) {
    throw trace_error("trace header granule must be a power of two in "
                      "[1, 4096] bytes, got " +
                      std::to_string(granule));
  }
}

void check_version(std::uint64_t version) {
  if (version != kTraceVersion) {
    throw trace_error("unsupported trace version " + std::to_string(version) +
                      " (this build reads version " +
                      std::to_string(kTraceVersion) + ")");
  }
}

}  // namespace

// ----------------------------------------------------------------- encoder --

std::uint8_t* encode_header(std::uint8_t* out, const trace_header& h) {
  check_granule(h.granule);
  std::memcpy(out, kMagic, sizeof(kMagic));
  out = compress::put_varint(out + sizeof(kMagic), h.version);
  return compress::put_varint(out, h.granule);
}

void check_announced_header(const trace_header& announced,
                            const trace_header& written) {
  if (announced.granule != written.granule) {
    throw trace_error(
        "recorder granule " + std::to_string(announced.granule) +
        " contradicts the granule already written to this trace (" +
        std::to_string(written.granule) + ")");
  }
}

std::uint8_t* detail::encode_dag_event(std::uint8_t* out,
                                       const trace_event& e) {
  *out++ = static_cast<std::uint8_t>(e.kind);
  const event_fields f = fields_of(e);
  for (int i = 0; i < f.n; ++i) out = compress::put_varint(out, f.v[i]);
  return out;
}

// ------------------------------------------------------------------ binary --

trace_writer::trace_writer(std::ostream& out, trace_header h)
    : out_(out), header_(h), ctor_exceptions_(std::uncaught_exceptions()) {
  std::uint8_t buf[kMaxHeaderBytes];
  const std::uint8_t* const end = encode_header(buf, h);
  out_.write(reinterpret_cast<const char*>(buf), end - buf);
}

trace_writer::~trace_writer() {
  // When the writer dies because an exception is unwinding a recording run,
  // the trace is incomplete by definition — leaving the end marker OFF is
  // what lets readers detect the truncation. Only a normal exit finishes.
  if (std::uncaught_exceptions() > ctor_exceptions_) return;
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; callers who care about I/O failure call
    // finish() themselves (frd-trace does).
  }
}

void trace_writer::on_header(const trace_header& h) {
  check_announced_header(h, header_);
}

void trace_writer::put(const trace_event& e) {
  if (finished_) {
    throw trace_error(
        "put() after finish(): events past the end marker would be silently "
        "invisible to readers");
  }
  // One write per event: the kind byte and every varint field.
  std::uint8_t buf[kMaxEventBytes];
  const std::uint8_t* const end = encode_event(buf, e);
  out_.write(reinterpret_cast<const char*>(buf), end - buf);
  ++events_;
}

void trace_writer::finish() {
  if (finished_) return;
  finished_ = true;
  out_.put(static_cast<char>(kEndMarker));
  out_.flush();
  if (!out_) {
    throw trace_error(
        "trace output stream failed (disk full? closed early?); the written "
        "trace is incomplete");
  }
}

// ------------------------------------------------------------ span decoder --

int span_decoder::get_byte() {
  while (pos_ == end_) {
    const std::span<const std::uint8_t> block = feed_.next_block();
    if (block.empty()) return -1;
    pos_ = block.data();
    end_ = pos_ + block.size();
  }
  return *pos_++;
}

std::uint64_t span_decoder::get_varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int c = get_byte();
    if (c < 0) throw trace_error("truncated trace: varint cut off mid-field");
    if (shift == 63 && (c & 0xFE) != 0) varint_overflow();
    v |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) return v;
  }
  throw trace_error("malformed trace: varint longer than 64 bits");
}

trace_header span_decoder::read_header() {
  for (const char m : kMagic) {
    if (get_byte() != static_cast<unsigned char>(m)) {
      throw trace_error("not a FutureRD trace: bad magic (expected \"FRDT\")");
    }
  }
  const std::uint64_t version = get_varint();
  check_version(version);
  const std::uint64_t granule = get_varint();
  check_granule(granule);
  trace_header h;
  h.version = static_cast<std::uint32_t>(version);
  h.granule = static_cast<std::uint32_t>(granule);
  return h;
}

void span_decoder::restart(std::span<const std::uint8_t> block) {
  pos_ = block.data();
  end_ = pos_ + block.size();
  done_ = false;
}

bool span_decoder::next_across_blocks(trace_event& e) {
  const int kind_byte = get_byte();
  if (kind_byte < 0) throw trace_error("truncated trace: end marker missing");
  if (kind_byte == kEndMarker) {
    done_ = true;
    return false;
  }
  if (kind_byte >= kEventKindCount) unknown_kind(kind_byte);
  const auto kind = static_cast<event_kind>(kind_byte);
  event_fields f;
  f.n = field_count(kind);
  for (int i = 0; i < f.n; ++i) f.v[i] = get_varint();
  e = event_from(kind, f);
  return true;
}

bool span_decoder::next(trace_event& e) {
  if (done_) return false;
  if (static_cast<std::size_t>(end_ - pos_) < kMaxEventBytes) {
    return next_across_blocks(e);
  }
  const int kind_byte = *pos_++;
  if (kind_byte == kRead || kind_byte == kWrite) {
    e.kind = static_cast<event_kind>(kind_byte);
    pos_ = decode_varint(pos_, e.access.addr);
    return true;
  }
  if (kind_byte == kEndMarker) {
    done_ = true;
    return false;
  }
  if (kind_byte >= kEventKindCount) unknown_kind(kind_byte);
  const auto kind = static_cast<event_kind>(kind_byte);
  event_fields f;
  f.n = field_count(kind);
  for (int i = 0; i < f.n; ++i) pos_ = decode_varint(pos_, f.v[i]);
  e = event_from(kind, f);
  return true;
}

std::span<const trace_event> span_decoder::access_run(std::size_t max) {
  // Runs are decoded in place of the caller's next() calls, so their length
  // only bounds the storage; the player's batches are 256 by default.
  constexpr std::size_t kMaxRun = 1024;
  if (max > kMaxRun) max = kMaxRun;
  if (run_.size() < max) run_.resize(max);
  trace_event* const out = run_.data();
  // A read or write is the kind byte plus one varint: at most 11 bytes.
  constexpr std::size_t kMaxAccessBytes = 11;
  const std::uint8_t* p = pos_;
  std::size_t n = 0;
  if (!done_) {
    while (n < max && static_cast<std::size_t>(end_ - p) >= kMaxAccessBytes) {
      const int kind_byte = *p;
      if (kind_byte != kRead && kind_byte != kWrite) break;
      out[n].kind = static_cast<event_kind>(kind_byte);
      p = decode_varint(p + 1, out[n].access.addr);
      ++n;
    }
  }
  pos_ = p;
  return {out, n};
}

// ------------------------------------------------------------ trace_reader --

trace_reader::trace_reader(std::istream& in)
    : in_(in), block_(kBlockBytes), decoder_(*this) {
  header_ = decoder_.read_header();
}

std::span<const std::uint8_t> trace_reader::next_block() {
  in_.read(reinterpret_cast<char*>(block_.data()),
           static_cast<std::streamsize>(block_.size()));
  return {block_.data(), static_cast<std::size_t>(in_.gcount())};
}

// ------------------------------------------------------------------- jsonl --

jsonl_writer::jsonl_writer(std::ostream& out, trace_header h)
    : out_(out), header_(h) {
  check_granule(h.granule);
  out_ << "{\"frd_trace\":true,\"version\":" << h.version
       << ",\"granule\":" << h.granule << "}\n";
}

void jsonl_writer::on_header(const trace_header& h) {
  check_announced_header(h, header_);
}

void jsonl_writer::finish() {
  out_.flush();
  if (!out_) {
    throw trace_error(
        "trace output stream failed (disk full? closed early?); the written "
        "trace is incomplete");
  }
}

void jsonl_writer::put(const trace_event& e) {
  out_ << "{\"ev\":\"" << to_string(e.kind) << '"';
  const event_fields f = fields_of(e);
  const char* const* names = field_names(e.kind);
  for (int i = 0; i < f.n; ++i) out_ << ",\"" << names[i] << "\":" << f.v[i];
  out_ << "}\n";
  ++events_;
}

// -------------------------------------------------------------------- sniff --

std::unique_ptr<trace_source> open_source(std::istream& in) {
  if (container::looks_like_container(in))
    return std::make_unique<container::container_source>(in);
  return std::make_unique<trace_reader>(in);
}

}  // namespace frd::trace
