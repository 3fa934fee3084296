// serve::client — the frd-serve protocol's client side.
//
// One client = one connection (hello handshake in the constructor) that can
// submit any number of trace streams sequentially. submit() ships the trace
// bytes (auto-detected .frdt / .frdtz — the bytes are opaque to the
// protocol), then collects the server's race frames (encounter order) and
// the stream_done summary into a submit_result whose golden_report is
// byte-identical, through corpus::write_golden, to what an offline
// `frd-trace run` of the same trace produces. `frd-trace submit` and the
// serve tests are both this class; concurrency comes from running N clients
// on N connections (or threads), not from sharing one client.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "corpus/golden.hpp"
#include "serve/protocol.hpp"

namespace frd::serve {

struct submit_options {
  std::string backend = "multibags+";
  std::string store = "hashed-page";  // the one shadow store
  std::uint64_t budget = 0;  // bytes; 0 = accept the server default
};

struct submit_result {
  bool ok = false;
  // Failure detail when !ok (the server's error frame for this stream).
  error_code code = error_code::internal;
  std::string error;
  // The replay summary, shaped as the corpus oracle so callers can
  // write_golden() it and diff against checked-in goldens.
  corpus::golden_report golden;
  std::uint64_t races_total = 0;
  std::vector<race_msg> races;  // streamed, encounter order
  // Server-side session memory at completion (stream_done).
  std::uint64_t store_bytes = 0;
  std::uint64_t store_pages = 0;
  std::uint64_t report_retained = 0;
  std::uint64_t report_capacity = 0;
  std::uint64_t query_cache_bytes = 0;
};

class client {
 public:
  // Connects and completes the hello handshake; throws io_error when the
  // daemon is unreachable, protocol_error on a version-skewed or confused
  // server.
  explicit client(const std::string& socket_path);
  ~client();
  client(const client&) = delete;
  client& operator=(const client&) = delete;

  // Ships one trace and blocks until its done/error frame. Throws io_error
  // if the connection dies, protocol_error on malformed server frames;
  // server-side stream failures come back as !result.ok, not exceptions.
  submit_result submit(std::span<const std::uint8_t> trace_bytes,
                       const submit_options& opt = {});
  // Convenience: reads `path` (throws io_error when unreadable) and submits.
  submit_result submit_file(const std::string& path,
                            const submit_options& opt = {});

  // Asks the daemon to stop; returns once shutdown_ok arrives.
  void shutdown_server();

  // From the hello_ok frame: the per-stream budget the server grants by
  // default (0 = unlimited).
  std::uint64_t server_default_budget() const { return default_budget_; }

  // The connected socket, for tests that speak raw frames past the
  // handshake (the client still owns and closes it).
  int native_handle() const { return fd_; }

 private:
  int fd_ = -1;
  frame_io io_;
  std::uint64_t next_stream_id_ = 1;
  std::uint64_t default_budget_ = 0;
  std::uint64_t max_data_chunk_ = kMaxDataChunk;
};

}  // namespace frd::serve
