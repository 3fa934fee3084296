#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

namespace frd::serve {

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw io_error("serve: bad socket path '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw io_error(std::string("serve: socket() failed: ") +
                   std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw io_error("serve: cannot connect to '" + path +
                   "': " + std::strerror(err) +
                   " (is frd-serve running there?)");
  }
  return fd;
}

}  // namespace

client::client(const std::string& socket_path)
    : fd_(connect_unix(socket_path)), io_(fd_) {
  try {
    io_.write_frame(frame_type::hello, encode(hello_msg{}));
    frame f;
    if (!io_.read_frame(f)) {
      throw io_error("serve: daemon closed the connection during handshake");
    }
    if (f.type == frame_type::error) {
      const error_msg e = decode_error_msg(f.payload);
      throw protocol_error("serve: daemon refused the connection (" +
                           std::string(to_string(e.code)) + "): " + e.message);
    }
    if (f.type != frame_type::hello_ok) {
      throw protocol_error("serve: expected hello_ok, got frame type " +
                           std::to_string(static_cast<int>(f.type)));
    }
    const hello_ok_msg ok = decode_hello_ok(f.payload);
    default_budget_ = ok.default_budget;
    if (ok.max_data_chunk != 0) max_data_chunk_ = ok.max_data_chunk;
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

client::~client() {
  if (fd_ >= 0) ::close(fd_);
}

submit_result client::submit(std::span<const std::uint8_t> trace_bytes,
                             const submit_options& opt) {
  const std::uint64_t id = next_stream_id_++;
  stream_open_msg open;
  open.stream_id = id;
  open.backend = opt.backend;
  open.store = opt.store;
  open.budget = opt.budget;
  // The whole stream goes out in one write; payloads too large to copy are
  // sent from trace_bytes in place.
  frame_batch out;
  out.add(frame_type::stream_open, encode(open));
  for (std::size_t off = 0; off < trace_bytes.size();) {
    const std::size_t n = std::min(max_data_chunk_ - 16, trace_bytes.size() - off);
    out.add_trace_data(id, trace_bytes.subspan(off, n));
    off += n;
  }
  if (trace_bytes.empty()) {
    // An empty trace is still a stream: open + close, zero data frames.
    out.add_trace_data(id, {});
  }
  out.add(frame_type::stream_close, encode_stream_close(id));
  io_.write_frames(out);

  submit_result r;
  frame f;
  for (;;) {
    if (!io_.read_frame(f)) {
      throw io_error("serve: daemon closed the connection before answering "
                     "stream " + std::to_string(id));
    }
    switch (f.type) {
      case frame_type::race: {
        race_msg m = decode_race(f.payload);
        if (m.stream_id == id) r.races.push_back(m);
        break;  // another stream's frame on a shared connection: not ours
      }
      case frame_type::stream_done: {
        const stream_done_msg d = decode_stream_done(f.payload);
        if (d.stream_id != id) break;
        r.ok = true;
        r.golden.granule = d.granule;
        r.golden.events = d.events;
        r.golden.accesses = d.accesses;
        r.golden.gets = d.gets;
        r.golden.violations = d.violations;
        r.golden.racy_granules.insert(d.racy_granules.begin(),
                                      d.racy_granules.end());
        r.races_total = d.races_total;
        r.store_bytes = d.store_bytes;
        r.store_pages = d.store_pages;
        r.report_retained = d.report_retained;
        r.report_capacity = d.report_capacity;
        r.query_cache_bytes = d.query_cache_bytes;
        return r;
      }
      case frame_type::error: {
        const error_msg e = decode_error_msg(f.payload);
        if (e.stream_id != id && e.stream_id != 0) break;
        r.ok = false;
        r.code = e.code;
        r.error = e.message;
        if (e.stream_id == 0) {
          // Connection-level refusal: nothing further will arrive.
          throw protocol_error("serve: connection refused (" +
                               std::string(to_string(e.code)) +
                               "): " + e.message);
        }
        return r;
      }
      default:
        throw protocol_error("serve: unexpected frame type " +
                             std::to_string(static_cast<int>(f.type)) +
                             " while waiting on stream " + std::to_string(id));
    }
  }
}

submit_result client::submit_file(const std::string& path,
                                  const submit_options& opt) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw io_error("serve: cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return submit(bytes, opt);
}

void client::shutdown_server() {
  io_.write_frame(frame_type::shutdown, {});
  frame f;
  while (io_.read_frame(f)) {
    if (f.type == frame_type::shutdown_ok) return;
    // Frames already in flight for other streams may land first; skip them.
  }
  throw io_error("serve: daemon closed the connection before shutdown_ok");
}

}  // namespace frd::serve
