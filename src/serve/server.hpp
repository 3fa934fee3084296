// frd-serve ingest server: the detector as a long-running multi-tenant
// service.
//
// One server owns a Unix-domain listening socket and two thread families:
//
//   connection threads  (one per accepted client) read frames, demultiplex
//                       them onto per-stream buffers, and hand each closed
//                       stream to the worker pool. A connection is cheap —
//                       it never replays anything itself.
//   worker threads      (a fixed pool) pop completed streams and replay them
//                       through a worker-owned frd::session, sending race
//                       frames in encounter order in one write per budget
//                       checkpoint (and whenever kFrameBatchBytes of them
//                       collect), then the rest of them together with the
//                       stream_done summary or the error. Workers RECYCLE
//                       their session via session::reset() when the next
//                       stream asks for the same (backend, granule) —
//                       the pool never re-resolves registries or reallocates
//                       report/query buffers on the hot path.
//
// Isolation is the design invariant: a malformed frame, an unreadable trace,
// a budget overrun, or a mid-stream disconnect tears down exactly ONE stream
// (error frame, tombstoned id) or one connection — never the daemon, and
// never a sibling stream's report. Reports are byte-identical to an offline
// `frd-trace run` of the same trace under the same backend: replay
// order, race encounter order, and the golden-report summary all come from
// the same session machinery.
//
// Memory budgets: each stream is charged for its buffered trace bytes as
// they arrive, plus the session's PEAK detector footprint
// (memory_stats::peak_total_bytes, checked at replay checkpoints and once
// after replay) — the high-water mark, so a spike between checkpoints
// cannot duck under the grant. Exceeding it fails that stream with
// budget_exceeded; the daemon keeps serving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "shadow/store.hpp"
#include "trace/player.hpp"

namespace frd {
class session;
}

namespace frd::serve {

struct server_options {
  std::string socket_path;
  unsigned workers = 2;
  // Per-stream memory grant in bytes (buffered trace + detector state);
  // 0 = unlimited. Clients may request less, never more.
  std::uint64_t default_budget = 0;
  // Replay batching (session::options::replay_batch).
  std::size_t replay_batch = trace::trace_player::kDefaultBatchCapacity;
  // Budget checkpoints fire every this many replayed events.
  std::uint64_t checkpoint_events = 65536;
  // Daemon-wide sampling / bounded-history knobs (session::options;
  // DESIGN.md §8). Defaults run the full §3 protocol; a deployment trading
  // detection for throughput turns these for every served stream. Reports
  // streamed back under sample_rate < 1 or a finite depth are the
  // corresponding degraded mode's, not the full protocol's.
  double sample_rate = 1.0;
  std::uint64_t sample_seed = 1;
  std::size_t history_depth = shadow::kUnboundedHistory;
};

struct server_stats {
  std::uint64_t connections = 0;
  std::uint64_t streams_completed = 0;
  std::uint64_t streams_failed = 0;  // error frames sent (any code)
};

class server {
 public:
  explicit server(server_options opt);
  ~server();  // stop()s
  server(const server&) = delete;
  server& operator=(const server&) = delete;

  // Binds (unlinking a stale socket file), listens, spawns the acceptor and
  // the worker pool. Throws io_error when the socket cannot be created.
  void start();
  // Blocks until a shutdown frame or request_stop() arrives.
  void wait();
  // Initiates shutdown: stop accepting, fail queued streams with
  // shutting_down, wake wait(). Safe from any thread; idempotent.
  void request_stop();
  // Full teardown: request_stop(), close every connection, join all
  // threads, unlink the socket. Idempotent.
  void stop();

  const server_options& opts() const { return opt_; }
  server_stats stats() const;

 private:
  // Per-connection state shared between its reader thread and the workers
  // replaying its streams; destroyed when the last holder lets go.
  struct connection {
    explicit connection(int fd) : fd(fd), io(fd) {}
    ~connection();  // closes fd — runs when the last job/reader lets go
    connection(const connection&) = delete;
    connection& operator=(const connection&) = delete;
    int fd;
    frame_io io;
    std::mutex write_mu;  // frames from workers + reader interleave atomically
    std::atomic<bool> dead{false};
  };
  using conn_ptr = std::shared_ptr<connection>;

  // One closed stream, ready to replay. The trace is bytes[skip, end): the
  // stream's first trace_data payload is kept whole, with its stream-id
  // prefix, instead of being copied out.
  struct job {
    conn_ptr conn;
    std::uint64_t stream_id = 0;
    std::string backend;
    std::uint64_t budget = 0;  // bytes; 0 = unlimited
    payload_bytes bytes;
    std::size_t skip = 0;
    std::span<const std::uint8_t> trace() const {
      return std::span<const std::uint8_t>(bytes).subspan(skip);
    }
  };

  void accept_loop();
  void connection_loop(conn_ptr conn);
  void worker_loop();
  // Locked, MSG_NOSIGNAL frame send; marks the connection dead on failure
  // and rethrows io_error (the caller decides whether that ends a loop).
  void send_frame(connection& c, frame_type t,
                  std::span<const std::uint8_t> payload);
  void send_frames(connection& c, const frame_batch& batch);
  // Counts a failed stream and sends `pending`, frames owed to the client
  // before the error, together with its error frame.
  void send_error(connection& c, std::uint64_t stream_id, error_code code,
                  const std::string& message, frame_batch pending = {});

  server_options opt_;
  // request_stop() may run on a connection thread, so it reads this under
  // stop_mu_, and stop() closes and resets it under stop_mu_. The acceptor
  // reads it unlocked: start() sets it before the acceptor starts, and
  // stop() resets it only after joining the acceptor.
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<conn_ptr> conns_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<job> queue_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex stats_mu_;
  server_stats stats_;
};

}  // namespace frd::serve
