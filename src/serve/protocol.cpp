#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "compress/lz.hpp"  // put_varint / get_varint

namespace frd::serve {

namespace {

// Protocol payloads reuse the compress varint codec; its decode_error knows
// nothing about frames, so rewrap with the field name.
std::uint64_t get_field(std::span<const std::uint8_t> p, std::size_t& pos,
                        const char* field) {
  try {
    return compress::get_varint(p, pos);
  } catch (const compress::decode_error&) {
    throw protocol_error(std::string("malformed frame: field '") + field +
                         "' is truncated");
  }
}

void put_varint(payload_bytes& out, std::uint64_t v) {
  std::uint8_t b[10];
  out.insert(out.end(), b, compress::put_varint(b, v));
}

void put_string(payload_bytes& out, std::string_view s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::string get_string(std::span<const std::uint8_t> p, std::size_t& pos,
                       const char* field) {
  const std::uint64_t n = get_field(p, pos, field);
  if (n > p.size() - pos) {
    throw protocol_error(std::string("malformed frame: string field '") +
                         field + "' runs past the payload");
  }
  std::string s(reinterpret_cast<const char*>(p.data() + pos),
                static_cast<std::size_t>(n));
  pos += static_cast<std::size_t>(n);
  return s;
}

void expect_consumed(std::span<const std::uint8_t> p, std::size_t pos,
                     const char* what) {
  if (pos != p.size()) {
    throw protocol_error(std::string("malformed frame: ") + what +
                         " payload carries trailing bytes");
  }
}

}  // namespace

std::string_view to_string(error_code c) {
  switch (c) {
    case error_code::bad_frame: return "bad-frame";
    case error_code::version_skew: return "version-skew";
    case error_code::bad_trace: return "bad-trace";
    case error_code::budget_exceeded: return "budget-exceeded";
    case error_code::backend_error: return "backend-error";
    case error_code::internal: return "internal";
    case error_code::shutting_down: return "shutting-down";
  }
  return "unknown";
}

// -------------------------------------------------------------- encoders --

payload_bytes encode(const hello_msg& m) {
  payload_bytes p;
  put_varint(p, m.version);
  return p;
}

payload_bytes encode(const hello_ok_msg& m) {
  payload_bytes p;
  put_varint(p, m.version);
  put_varint(p, m.default_budget);
  put_varint(p, m.max_data_chunk);
  return p;
}

payload_bytes encode(const stream_open_msg& m) {
  payload_bytes p;
  put_varint(p, m.stream_id);
  put_string(p, m.backend);
  put_string(p, m.store);
  put_varint(p, m.budget);
  return p;
}

payload_bytes encode(const race_msg& m) {
  payload_bytes p;
  put_varint(p, m.stream_id);
  put_varint(p, m.granule_addr);
  put_varint(p, m.prior);
  put_varint(p, m.prior_is_write);
  put_varint(p, m.current);
  put_varint(p, m.current_is_write);
  return p;
}

payload_bytes encode(const stream_done_msg& m) {
  payload_bytes p;
  put_varint(p, m.stream_id);
  put_varint(p, m.granule);
  put_varint(p, m.events);
  put_varint(p, m.accesses);
  put_varint(p, m.gets);
  put_varint(p, m.violations);
  put_varint(p, m.races_total);
  put_varint(p, m.racy_granules.size());
  for (const std::uint64_t g : m.racy_granules) put_varint(p, g);
  put_varint(p, m.store_bytes);
  put_varint(p, m.store_pages);
  put_varint(p, m.report_retained);
  put_varint(p, m.report_capacity);
  put_varint(p, m.query_cache_bytes);
  return p;
}

payload_bytes encode(const error_msg& m) {
  payload_bytes p;
  put_varint(p, m.stream_id);
  put_varint(p, static_cast<std::uint32_t>(m.code));
  put_string(p, m.message);
  return p;
}

payload_bytes encode_trace_data(
    std::uint64_t stream_id, std::span<const std::uint8_t> bytes) {
  payload_bytes p;
  put_varint(p, stream_id);
  p.insert(p.end(), bytes.begin(), bytes.end());
  return p;
}

payload_bytes encode_stream_close(std::uint64_t stream_id) {
  payload_bytes p;
  put_varint(p, stream_id);
  return p;
}

// -------------------------------------------------------------- decoders --

hello_msg decode_hello(std::span<const std::uint8_t> p) {
  std::size_t pos = 0;
  hello_msg m;
  m.version = static_cast<std::uint32_t>(get_field(p, pos, "version"));
  expect_consumed(p, pos, "hello");
  return m;
}

hello_ok_msg decode_hello_ok(std::span<const std::uint8_t> p) {
  std::size_t pos = 0;
  hello_ok_msg m;
  m.version = static_cast<std::uint32_t>(get_field(p, pos, "version"));
  m.default_budget = get_field(p, pos, "default budget");
  m.max_data_chunk = get_field(p, pos, "max data chunk");
  expect_consumed(p, pos, "hello_ok");
  return m;
}

stream_open_msg decode_stream_open(std::span<const std::uint8_t> p) {
  std::size_t pos = 0;
  stream_open_msg m;
  m.stream_id = get_field(p, pos, "stream id");
  m.backend = get_string(p, pos, "backend");
  m.store = get_string(p, pos, "store");
  m.budget = get_field(p, pos, "budget");
  expect_consumed(p, pos, "stream_open");
  return m;
}

std::uint64_t decode_trace_data(std::span<const std::uint8_t> p,
                                std::span<const std::uint8_t>& bytes) {
  std::size_t pos = 0;
  const std::uint64_t id = get_field(p, pos, "stream id");
  bytes = p.subspan(pos);
  return id;
}

std::uint64_t decode_stream_close(std::span<const std::uint8_t> p) {
  std::size_t pos = 0;
  const std::uint64_t id = get_field(p, pos, "stream id");
  expect_consumed(p, pos, "stream_close");
  return id;
}

race_msg decode_race(std::span<const std::uint8_t> p) {
  std::size_t pos = 0;
  race_msg m;
  m.stream_id = get_field(p, pos, "stream id");
  m.granule_addr = get_field(p, pos, "granule");
  m.prior = static_cast<std::uint32_t>(get_field(p, pos, "prior strand"));
  m.prior_is_write =
      static_cast<std::uint8_t>(get_field(p, pos, "prior kind") != 0);
  m.current = static_cast<std::uint32_t>(get_field(p, pos, "current strand"));
  m.current_is_write =
      static_cast<std::uint8_t>(get_field(p, pos, "current kind") != 0);
  expect_consumed(p, pos, "race");
  return m;
}

stream_done_msg decode_stream_done(std::span<const std::uint8_t> p) {
  std::size_t pos = 0;
  stream_done_msg m;
  m.stream_id = get_field(p, pos, "stream id");
  m.granule = static_cast<std::uint32_t>(get_field(p, pos, "granule"));
  m.events = get_field(p, pos, "events");
  m.accesses = get_field(p, pos, "accesses");
  m.gets = get_field(p, pos, "gets");
  m.violations = get_field(p, pos, "violations");
  m.races_total = get_field(p, pos, "races total");
  const std::uint64_t n = get_field(p, pos, "racy count");
  // Each racy granule is at least one payload byte: a count the payload
  // cannot hold is a lie, not an allocation request.
  if (n > p.size() - pos) {
    throw protocol_error("malformed frame: racy granule count " +
                         std::to_string(n) + " exceeds the payload");
  }
  m.racy_granules.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    m.racy_granules.push_back(get_field(p, pos, "racy granule"));
  }
  m.store_bytes = get_field(p, pos, "store bytes");
  m.store_pages = get_field(p, pos, "store pages");
  m.report_retained = get_field(p, pos, "report retained");
  m.report_capacity = get_field(p, pos, "report capacity");
  m.query_cache_bytes = get_field(p, pos, "query cache bytes");
  expect_consumed(p, pos, "stream_done");
  return m;
}

error_msg decode_error_msg(std::span<const std::uint8_t> p) {
  std::size_t pos = 0;
  error_msg m;
  m.stream_id = get_field(p, pos, "stream id");
  const std::uint64_t code = get_field(p, pos, "error code");
  if (code < 1 || code > static_cast<std::uint64_t>(error_code::shutting_down)) {
    throw protocol_error("malformed frame: unknown error code " +
                         std::to_string(code));
  }
  m.code = static_cast<error_code>(code);
  m.message = get_string(p, pos, "message");
  expect_consumed(p, pos, "error");
  return m;
}

// ---------------------------------------------------------------- framing --

namespace {

// EINTR-safe full read; returns bytes read (< n only at EOF).
std::size_t read_full(int fd, void* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, static_cast<char*>(buf) + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw io_error(std::string("socket read failed: ") + std::strerror(errno));
    }
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
  }
  return got;
}

// Sends everything the `count` iovecs hold, resuming after partial writes
// (the iovecs are consumed).
void send_all(int fd, iovec* iov, std::size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = std::min<std::size_t>(count, IOV_MAX);
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE here, not kill the
    // daemon with SIGPIPE mid-way through another stream's replay.
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw io_error(std::string("socket write failed: ") +
                     std::strerror(errno));
    }
    auto sent = static_cast<std::size_t>(r);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
}

constexpr std::size_t kHeaderBytes = 5;  // u32 length + type byte

void put_header(std::uint8_t* head, frame_type t, std::size_t payload_bytes) {
  const auto len = static_cast<std::uint32_t>(payload_bytes + 1);
  for (int i = 0; i < 4; ++i)
    head[i] = static_cast<std::uint8_t>(len >> (8 * i));
  head[4] = static_cast<std::uint8_t>(t);
}

iovec iov_of(const void* data, std::size_t n) {
  return iovec{const_cast<void*>(data), n};
}

}  // namespace

void frame_batch::add_header(frame_type t, std::size_t payload_bytes) {
  std::uint8_t head[kHeaderBytes];
  put_header(head, t, payload_bytes);
  inline_.insert(inline_.end(), head, head + kHeaderBytes);
}

void frame_batch::add(frame_type t, std::span<const std::uint8_t> payload) {
  add_header(t, payload.size());
  inline_.insert(inline_.end(), payload.begin(), payload.end());
}

void frame_batch::add_trace_data(std::uint64_t stream_id,
                                 std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> id;
  compress::put_varint(id, stream_id);
  add_header(frame_type::trace_data, id.size() + bytes.size());
  inline_.insert(inline_.end(), id.begin(), id.end());
  if (bytes.size() > kInlinePayload) {
    external_.push_back(external{inline_.size(), bytes});
  } else {
    inline_.insert(inline_.end(), bytes.begin(), bytes.end());
  }
}

void frame_batch::clear() {
  inline_.clear();
  external_.clear();
}

bool frame_io::fill(std::size_t n) {
  if (rend_ - rpos_ >= n) return true;
  if (rbuf_.empty()) rbuf_.resize(kReadBuffer);
  std::memmove(rbuf_.data(), rbuf_.data() + rpos_, rend_ - rpos_);
  rend_ -= rpos_;
  rpos_ = 0;
  while (rend_ < n) {
    const ssize_t r = ::read(fd_, rbuf_.data() + rend_, rbuf_.size() - rend_);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw io_error(std::string("socket read failed: ") +
                     std::strerror(errno));
    }
    if (r == 0) return false;  // EOF
    rend_ += static_cast<std::size_t>(r);
  }
  return true;
}

bool frame_io::read_frame(frame& f) {
  if (!fill(4)) {
    if (rend_ == rpos_) return false;  // clean EOF between frames
    throw io_error("connection closed mid-frame (truncated length prefix)");
  }
  const std::uint8_t* len_bytes = rbuf_.data() + rpos_;
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = (len << 8) | len_bytes[i];
  if (len == 0) throw protocol_error("malformed frame: zero-length body");
  if (len > kMaxFrameBody) {
    throw protocol_error("malformed frame: body of " + std::to_string(len) +
                         " bytes exceeds the " +
                         std::to_string(kMaxFrameBody) + "-byte limit");
  }
  if (!fill(kHeaderBytes)) {
    throw io_error("connection closed mid-frame (missing type byte)");
  }
  const std::uint8_t type = rbuf_[rpos_ + 4];
  if (type < static_cast<std::uint8_t>(frame_type::hello) ||
      type > static_cast<std::uint8_t>(frame_type::shutdown_ok)) {
    throw protocol_error("malformed frame: unknown frame type " +
                         std::to_string(type));
  }
  rpos_ += kHeaderBytes;
  f.type = static_cast<frame_type>(type);
  f.payload.resize(len - 1);
  const std::size_t have = std::min<std::size_t>(rend_ - rpos_, len - 1);
  if (have != 0) std::memcpy(f.payload.data(), rbuf_.data() + rpos_, have);
  rpos_ += have;
  const std::size_t rest = f.payload.size() - have;
  if (rest != 0 && read_full(fd_, f.payload.data() + have, rest) != rest) {
    throw io_error("connection closed mid-frame (truncated payload)");
  }
  return true;
}

void frame_io::write_frame(frame_type t, std::span<const std::uint8_t> payload) {
  std::uint8_t head[kHeaderBytes];
  put_header(head, t, payload.size());
  iovec iov[2] = {iov_of(head, sizeof(head)),
                  iov_of(payload.data(), payload.size())};
  send_all(fd_, iov, payload.empty() ? 1 : 2);
}

void frame_io::write_frames(const frame_batch& batch) {
  std::vector<iovec> iov;
  iov.reserve(2 * batch.external_.size() + 1);
  std::size_t at = 0;
  for (const frame_batch::external& x : batch.external_) {
    iov.push_back(iov_of(batch.inline_.data() + at, x.at - at));
    iov.push_back(iov_of(x.bytes.data(), x.bytes.size()));
    at = x.at;
  }
  if (batch.inline_.size() > at) {
    iov.push_back(iov_of(batch.inline_.data() + at, batch.inline_.size() - at));
  }
  send_all(fd_, iov.data(), iov.size());
}

}  // namespace frd::serve
