// frd-serve wire protocol: framed, versioned trace ingest over a stream
// socket.
//
// Everything on the wire is a FRAME: a u32 little-endian length, then that
// many bytes — one frame_type byte followed by a type-specific payload
// (LEB128 varints from compress::put_varint; strings are varint length +
// bytes). Length-prefixed framing is what makes every failure mode
// diagnosable: a truncated frame, an oversized length, or an unknown type
// each names itself instead of desynchronizing the stream.
//
// Conversation shape (client C, server S):
//
//   C: hello {protocol version}
//   S: hello_ok {version, default budget, max data payload}
//   C: stream_open  {stream id, backend, store, budget}     (id: nonzero,
//   C: trace_data   {stream id, raw trace bytes}*            client-chosen,
//   C: stream_close {stream id}                              per-connection)
//   S: race         {stream id, granule, strands, kinds}*    (encounter order)
//   S: stream_done  {stream id, totals, racy set, memory stats}
//   S: error        {stream id, code, message}               (instead of done)
//
// One connection multiplexes any number of streams: opens/data/closes may
// interleave, and the server's race/done/error frames for different streams
// interleave too — frames are atomic, streams are independent. stream id 0
// in an error frame means the CONNECTION is being refused (bad hello,
// unparseable frame); any other id scopes the failure to that one stream,
// and the daemon keeps serving the rest. `shutdown` asks the daemon to stop
// (acknowledged with shutdown_ok, then the listener closes).
//
// The trace bytes inside trace_data are opaque to the protocol: the server
// sniffs .frdt / .frdtz exactly like `frd-trace run` does.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace frd::serve {

inline constexpr std::uint32_t kProtocolVersion = 1;
// Upper bound on one frame's body (type byte + payload). Big enough that a
// client can ship a trace in few frames, small enough that a hostile length
// prefix cannot make the server allocate unbounded memory before reading a
// single payload byte.
inline constexpr std::size_t kMaxFrameBody = (4u << 20) + 64;
// What a well-behaved client should cap one trace_data payload at.
inline constexpr std::size_t kMaxDataChunk = 4u << 20;

enum class frame_type : std::uint8_t {
  hello = 1,
  hello_ok = 2,
  stream_open = 3,
  trace_data = 4,
  stream_close = 5,
  race = 6,
  stream_done = 7,
  error = 8,
  shutdown = 9,
  shutdown_ok = 10,
};

enum class error_code : std::uint32_t {
  bad_frame = 1,        // malformed frame or payload, unknown/duplicate stream
  version_skew = 2,     // hello protocol version this build does not speak
  bad_trace = 3,        // the submitted bytes are not a readable trace
  budget_exceeded = 4,  // the stream's memory budget was exhausted
  backend_error = 5,    // unknown backend/store name, capability violation
  internal = 6,         // unexpected server-side failure
  shutting_down = 7,    // daemon is stopping; stream not accepted
};

std::string_view to_string(error_code c);

// Malformed payload or framing (decode side). I/O failures are io_error.
class protocol_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Socket read/write failure: connection gone, short read mid-frame, etc.
class io_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// An allocator whose value-less construct default-initializes: growing a
// vector with it leaves the new elements unwritten instead of zeroing them.
template <typename T>
struct default_init_allocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = default_init_allocator<U>;
  };
  default_init_allocator() = default;
  template <typename U>
  default_init_allocator(const default_init_allocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// Frame payload bytes. frame_io::read_frame sizes a payload and then reads
// the socket into it, so each byte is written once, not zeroed first.
using payload_bytes =
    std::vector<std::uint8_t, default_init_allocator<std::uint8_t>>;

struct frame {
  frame_type type = frame_type::error;
  payload_bytes payload;
};

// ------------------------------------------------------- typed payloads --

struct hello_msg {
  std::uint32_t version = kProtocolVersion;
};

struct hello_ok_msg {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t default_budget = 0;  // bytes; 0 = unlimited
  std::uint64_t max_data_chunk = kMaxDataChunk;
};

struct stream_open_msg {
  std::uint64_t stream_id = 0;  // nonzero, client-chosen
  std::string backend;
  // Shadow store name; the server accepts only "hashed-page".
  std::string store;
  // Per-stream budget request in bytes; 0 = server default. The server
  // grants min(request, default) — a client may lower its budget, not raise.
  std::uint64_t budget = 0;
};

struct race_msg {
  std::uint64_t stream_id = 0;
  std::uint64_t granule_addr = 0;
  std::uint32_t prior = 0;
  std::uint8_t prior_is_write = 0;
  std::uint32_t current = 0;
  std::uint8_t current_is_write = 0;
};

struct stream_done_msg {
  std::uint64_t stream_id = 0;
  std::uint32_t granule = 4;
  std::uint64_t events = 0;
  std::uint64_t accesses = 0;
  std::uint64_t gets = 0;
  std::uint64_t violations = 0;
  std::uint64_t races_total = 0;
  std::vector<std::uint64_t> racy_granules;  // ascending
  // session::memory_stats at completion — what the budget was held against.
  std::uint64_t store_bytes = 0;
  std::uint64_t store_pages = 0;
  std::uint64_t report_retained = 0;
  std::uint64_t report_capacity = 0;
  std::uint64_t query_cache_bytes = 0;
};

struct error_msg {
  std::uint64_t stream_id = 0;  // 0 = connection-level
  error_code code = error_code::internal;
  std::string message;
};

// Encoders produce the frame payload (no length prefix, no type byte);
// decoders parse one and throw protocol_error naming the defect.
payload_bytes encode(const hello_msg& m);
payload_bytes encode(const hello_ok_msg& m);
payload_bytes encode(const stream_open_msg& m);
payload_bytes encode(const race_msg& m);
payload_bytes encode(const stream_done_msg& m);
payload_bytes encode(const error_msg& m);
// trace_data / stream_close payloads are trivial enough to build inline:
payload_bytes encode_trace_data(std::uint64_t stream_id,
                                std::span<const std::uint8_t> bytes);
payload_bytes encode_stream_close(std::uint64_t stream_id);

hello_msg decode_hello(std::span<const std::uint8_t> p);
hello_ok_msg decode_hello_ok(std::span<const std::uint8_t> p);
stream_open_msg decode_stream_open(std::span<const std::uint8_t> p);
// Returns the stream id; `bytes` is set to the trailing trace byte view.
std::uint64_t decode_trace_data(std::span<const std::uint8_t> p,
                                std::span<const std::uint8_t>& bytes);
std::uint64_t decode_stream_close(std::span<const std::uint8_t> p);
race_msg decode_race(std::span<const std::uint8_t> p);
stream_done_msg decode_stream_done(std::span<const std::uint8_t> p);
error_msg decode_error_msg(std::span<const std::uint8_t> p);

// --------------------------------------------------------- framed socket --

// Frames gathered for one write (frame_io::write_frames), laid out on the
// wire back to back. Headers and small payloads are copied in; a
// trace_data payload larger than kInlinePayload is sent straight from the
// caller's memory, which must stay valid and unchanged until the write.
class frame_batch {
 public:
  static constexpr std::size_t kInlinePayload = 64u << 10;

  void add(frame_type t, std::span<const std::uint8_t> payload);
  void add_trace_data(std::uint64_t stream_id,
                      std::span<const std::uint8_t> bytes);
  bool empty() const { return inline_.empty(); }
  // Bytes copied into the batch (headers and inline payloads).
  std::size_t inline_bytes() const { return inline_.size(); }
  void clear();

 private:
  friend class frame_io;
  void add_header(frame_type t, std::size_t payload_bytes);

  std::vector<std::uint8_t> inline_;
  // A payload sent from the caller's memory after inline_[0, at).
  struct external {
    std::size_t at;
    std::span<const std::uint8_t> bytes;
  };
  std::vector<external> external_;
};

// Blocking framed I/O over one socket fd. Reads and writes are separately
// whole-frame atomic; the fd is NOT owned (the connection owner closes it).
// Concurrent writers must serialize externally (the server holds a
// per-connection write mutex) — reads have a single owner by construction.
// Reads go through a buffer, so one read() call can deliver many frames;
// the fd must therefore be read through one frame_io only.
class frame_io {
 public:
  static constexpr std::size_t kReadBuffer = 64u << 10;

  explicit frame_io(int fd) : fd_(fd) {}

  // False on clean EOF at a frame boundary. Throws io_error on a connection
  // failure or EOF mid-frame, protocol_error on an oversized/undersized
  // length prefix or unknown frame type. A payload that the buffer does not
  // hold whole is read straight into f.payload.
  bool read_frame(frame& f);
  // Each write is one sendmsg() loop. Throws io_error when the peer is gone
  // (EPIPE/ECONNRESET — writes use MSG_NOSIGNAL, so a dead peer is an
  // exception, never a SIGPIPE).
  void write_frame(frame_type t, std::span<const std::uint8_t> payload);
  void write_frames(const frame_batch& batch);

 private:
  // Makes at least `n` bytes readable in the buffer; false when the peer
  // closes first.
  bool fill(std::size_t n);

  int fd_;
  std::vector<std::uint8_t> rbuf_;
  std::size_t rpos_ = 0;  // first unread byte
  std::size_t rend_ = 0;  // end of the bytes read
};

}  // namespace frd::serve
