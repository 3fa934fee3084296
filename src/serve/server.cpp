#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "api/session.hpp"
#include "detect/registry.hpp"
#include "shadow/store.hpp"
#include "support/memstream.hpp"
#include "trace/codec.hpp"

namespace frd::serve {

namespace {

// A worker sends the race frames it has collected once this many bytes of
// them wait, even between checkpoints.
constexpr std::size_t kFrameBatchBytes = 64u << 10;

// Budget overruns abort the replay from inside a checkpoint callback; this
// private type keeps them distinguishable from every other failure on the
// way to the one catch block that maps exceptions to error codes.
class budget_exceeded_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A client that vanished mid-replay: abort, but charge it to the connection
// (no error frame — there is nobody to read it).
class client_gone_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

int make_listen_socket(const std::string& path) {
  if (path.empty()) throw io_error("serve: socket path must not be empty");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw io_error("serve: socket path '" + path + "' exceeds the " +
                   std::to_string(sizeof(addr.sun_path) - 1) +
                   "-byte AF_UNIX limit");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw io_error(std::string("serve: socket() failed: ") +
                   std::strerror(errno));
  }
  // A stale socket file from a dead daemon would make bind fail forever;
  // unlink first. A LIVE daemon on the same path loses its socket — same
  // contract as every unix-socket service that owns its path.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw io_error("serve: bind('" + path + "') failed: " +
                   std::strerror(err));
  }
  if (::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw io_error(std::string("serve: listen() failed: ") +
                   std::strerror(err));
  }
  return fd;
}

}  // namespace

server::connection::~connection() {
  if (fd >= 0) ::close(fd);
}

server::server(server_options opt) : opt_(std::move(opt)) {
  if (opt_.workers == 0) opt_.workers = 1;
}

server::~server() {
  try {
    stop();
  } catch (...) {
    // Destructors must not throw; stop() failures mean fds already gone.
  }
}

void server::start() {
  listen_fd_ = make_listen_socket(opt_.socket_path);
  started_ = true;
  for (unsigned i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

void server::wait() {
  std::unique_lock<std::mutex> lk(stop_mu_);
  stop_cv_.wait(lk, [this] { return stopping_.load(); });
}

void server::request_stop() {
  if (stopping_.exchange(true)) return;
  queue_cv_.notify_all();
  std::lock_guard<std::mutex> lk(stop_mu_);
  // Wake the acceptor: shutdown() unblocks a blocked accept() without
  // freeing the fd number (close() happens in stop(), after the join).
  // Holding stop_mu_ orders this read against stop()'s close.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  stop_cv_.notify_all();
}

void server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  request_stop();
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lk(stop_mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  // Workers drain the queue before exiting (accepted work completes), then
  // connections are forced closed to unblock their readers.
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // A job enqueued in the narrow window after the workers drained would
  // otherwise strand its client waiting for a done frame.
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    for (job& j : queue_) {
      try {
        send_error(*j.conn, j.stream_id, error_code::shutting_down,
                   "daemon stopped before this stream was replayed");
      } catch (const io_error&) {
      }
    }
    queue_.clear();
  }
  std::vector<conn_ptr> conns;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns = conns_;
  }
  for (const conn_ptr& c : conns) {
    c->dead.store(true);
    ::shutdown(c->fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  {
    // Dropping the registry references lets ~connection close each fd once
    // the last in-flight job releases its shared_ptr.
    std::lock_guard<std::mutex> lk(conn_mu_);
    conns_.clear();
  }
  ::unlink(opt_.socket_path.c_str());
}

server_stats server::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

// ------------------------------------------------------------- accepting --

void server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or broken): stop accepting
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<connection>(fd);
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      conns_.push_back(conn);
      conn_threads_.emplace_back(
          [this, conn] { connection_loop(conn); });
    }
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.connections;
    }
  }
}

void server::send_frame(connection& c, frame_type t,
                        std::span<const std::uint8_t> payload) {
  frame_batch one;
  one.add(t, payload);
  send_frames(c, one);
}

void server::send_frames(connection& c, const frame_batch& batch) {
  if (c.dead.load()) throw io_error("connection already closed");
  std::lock_guard<std::mutex> lk(c.write_mu);
  try {
    c.io.write_frames(batch);
  } catch (const io_error&) {
    c.dead.store(true);
    throw;
  }
}

void server::send_error(connection& c, std::uint64_t stream_id,
                        error_code code, const std::string& message,
                        frame_batch pending) {
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.streams_failed;
  }
  error_msg m;
  m.stream_id = stream_id;
  m.code = code;
  m.message = message;
  pending.add(frame_type::error, encode(m));
  send_frames(c, pending);
}

// ----------------------------------------------------- connection reader --

void server::connection_loop(conn_ptr conn) {
  struct open_stream {
    std::string backend;
    std::uint64_t budget = 0;
    payload_bytes bytes;  // trace bytes from bytes[skip] on
    std::size_t skip = 0;
  };
  std::unordered_map<std::uint64_t, open_stream> open;
  // Streams already failed on this connection: later frames for them are
  // dropped silently instead of cascading one failure into many.
  std::unordered_set<std::uint64_t> failed;

  const auto fail_stream = [&](std::uint64_t id, error_code code,
                               const std::string& msg) {
    open.erase(id);
    failed.insert(id);
    send_error(*conn, id, code, msg);
  };

  try {
    frame f;
    // Handshake: the first frame must be a matching hello. Refusals are
    // connection-level (stream id 0) and final.
    if (!conn->io.read_frame(f)) return;
    if (f.type != frame_type::hello) {
      send_error(*conn, 0, error_code::bad_frame,
                 "expected hello as the first frame");
      return;
    }
    const hello_msg h = decode_hello(f.payload);
    if (h.version != kProtocolVersion) {
      send_error(*conn, 0, error_code::version_skew,
                 "client speaks protocol version " + std::to_string(h.version) +
                     "; this daemon speaks " + std::to_string(kProtocolVersion));
      return;
    }
    hello_ok_msg ok;
    ok.default_budget = opt_.default_budget;
    send_frame(*conn, frame_type::hello_ok, encode(ok));

    while (conn->io.read_frame(f)) {
      switch (f.type) {
        case frame_type::stream_open: {
          const stream_open_msg m = decode_stream_open(f.payload);
          if (m.stream_id == 0) {
            send_error(*conn, 0, error_code::bad_frame,
                       "stream id 0 is reserved for connection-level errors");
            break;
          }
          if (stopping_.load()) {
            fail_stream(m.stream_id, error_code::shutting_down,
                        "daemon is shutting down");
            break;
          }
          if (open.count(m.stream_id)) {
            fail_stream(m.stream_id, error_code::bad_frame,
                        "stream id " + std::to_string(m.stream_id) +
                            " is already open on this connection");
            break;
          }
          // Fail unknown names at open time, before any trace bytes ship.
          if (detect::backend_registry::instance().find(m.backend) == nullptr) {
            fail_stream(m.stream_id, error_code::backend_error,
                        "unknown backend '" + m.backend + "'");
            break;
          }
          if (m.store != shadow::kDefaultStore) {
            fail_stream(m.stream_id, error_code::backend_error,
                        shadow::unknown_store(m.store).what());
            break;
          }
          open_stream st;
          st.backend = m.backend;
          // min(request, server default): a client lowers its grant, never
          // raises it past the operator's limit.
          if (opt_.default_budget == 0) {
            st.budget = m.budget;
          } else if (m.budget == 0) {
            st.budget = opt_.default_budget;
          } else {
            st.budget = std::min(m.budget, opt_.default_budget);
          }
          failed.erase(m.stream_id);  // the id is reusable after a failure
          open.emplace(m.stream_id, std::move(st));
          break;
        }
        case frame_type::trace_data: {
          std::span<const std::uint8_t> bytes;
          const std::uint64_t id = decode_trace_data(f.payload, bytes);
          const auto it = open.find(id);
          if (it == open.end()) {
            if (!failed.count(id)) {
              fail_stream(id, error_code::bad_frame,
                          "trace data for a stream that is not open");
            }
            break;  // tombstoned: drain silently, the error already went out
          }
          open_stream& st = it->second;
          if (st.bytes.empty()) {
            // The first payload becomes the stream's buffer as it is.
            st.skip = f.payload.size() - bytes.size();
            st.bytes = std::move(f.payload);
          } else {
            st.bytes.insert(st.bytes.end(), bytes.begin(), bytes.end());
          }
          const std::size_t buffered = st.bytes.size() - st.skip;
          if (st.budget != 0 && buffered > st.budget) {
            fail_stream(id, error_code::budget_exceeded,
                        "buffered " + std::to_string(buffered) +
                            " trace bytes against a " +
                            std::to_string(st.budget) + "-byte budget");
          }
          break;
        }
        case frame_type::stream_close: {
          const std::uint64_t id = decode_stream_close(f.payload);
          const auto it = open.find(id);
          if (it == open.end()) {
            if (!failed.count(id)) {
              fail_stream(id, error_code::bad_frame,
                          "close for a stream that is not open");
            }
            break;
          }
          if (stopping_.load()) {
            // Workers may already be draining toward exit; refusing here
            // beats enqueueing a job nobody will pop.
            fail_stream(id, error_code::shutting_down,
                        "daemon is shutting down");
            break;
          }
          job j;
          j.conn = conn;
          j.stream_id = id;
          j.backend = std::move(it->second.backend);
          j.budget = it->second.budget;
          j.bytes = std::move(it->second.bytes);
          j.skip = it->second.skip;
          open.erase(it);
          {
            std::lock_guard<std::mutex> lk(queue_mu_);
            queue_.push_back(std::move(j));
          }
          queue_cv_.notify_one();
          break;
        }
        case frame_type::shutdown: {
          send_frame(*conn, frame_type::shutdown_ok, {});
          request_stop();
          break;  // keep draining; the client closes when it is done
        }
        default:
          // hello twice, or a server->client type: the peer is confused —
          // that is a connection-level protocol failure.
          send_error(*conn, 0, error_code::bad_frame,
                     "unexpected frame type " +
                         std::to_string(static_cast<int>(f.type)));
          conn->dead.store(true);
          ::shutdown(conn->fd, SHUT_RDWR);
          break;
      }
      if (conn->dead.load()) break;
    }
  } catch (const protocol_error& e) {
    // An unparseable frame desynchronizes everything after it: refuse the
    // connection (best effort — the peer may already be gone).
    try {
      send_error(*conn, 0, error_code::bad_frame, e.what());
    } catch (const io_error&) {
    }
  } catch (const io_error&) {
    // Mid-stream disconnect: every open stream on this connection dies with
    // it; queued/running jobs notice through their write failures.
  }
  conn->dead.store(true);
  ::shutdown(conn->fd, SHUT_RDWR);
  // Drop the registry entry; the fd closes when the last job lets go.
  std::lock_guard<std::mutex> lk(conn_mu_);
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == conn.get()) {
      conns_.erase(it);
      break;
    }
  }
}

// --------------------------------------------------------------- workers --

void server::worker_loop() {
  // The worker's recycled session: reused via reset() while consecutive
  // streams agree on (backend, granule), rebuilt otherwise.
  struct cached_session {
    std::string backend;
    std::uint32_t granule = 0;
    std::unique_ptr<session> s;
  } cache;

  for (;;) {
    job j;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk,
                     [this] { return stopping_.load() || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_.load()) return;  // drained and stopping
        continue;
      }
      j = std::move(queue_.front());
      queue_.pop_front();
    }

    // Frames for this stream's client, sent in one write at each budget
    // checkpoint, whenever kFrameBatchBytes of them wait, and together with
    // the stream's last frame — stream_done or its error.
    frame_batch out;
    const auto flush = [this, &j, &out] {
      if (out.empty()) return;
      send_frames(*j.conn, out);
      out.clear();
    };
    const auto fail = [this, &j, &out](error_code code, const char* message) {
      try {
        send_error(*j.conn, j.stream_id, code, message, std::move(out));
      } catch (const io_error&) {
      }
    };

    try {
      imemstream in(j.trace());
      auto src = trace::open_source(in);
      const std::uint32_t granule = src->header().granule;

      if (cache.s == nullptr || cache.backend != j.backend ||
          cache.granule != granule) {
        cache.s = nullptr;  // release the old one before building anew
        cache.s = std::make_unique<session>(session::options{
            .backend = j.backend,
            .granule = granule,
            .replay_batch = opt_.replay_batch,
            // Daemon-wide constants, so they need no cache-key entry: every
            // pooled session is built with the same sampling configuration.
            .sample_rate = opt_.sample_rate,
            .sample_seed = opt_.sample_seed,
            .shadow_history_depth = opt_.history_depth});
        cache.backend = j.backend;
        cache.granule = granule;
      }
      session& s = *cache.s;

      s.set_race_sink([&j, &out, &flush](const detect::race& r) {
        race_msg m;
        m.stream_id = j.stream_id;
        m.granule_addr = r.granule_addr;
        m.prior = r.prior;
        m.prior_is_write = r.prior_kind == detect::access_kind::write;
        m.current = r.current;
        m.current_is_write = r.current_kind == detect::access_kind::write;
        out.add(frame_type::race, encode(m));
        if (out.inline_bytes() >= kFrameBatchBytes) flush();
      });

      const auto check_budget = [&j, &s] {
        if (j.budget == 0) return;
        // Charge the run's PEAK footprint, not the instantaneous snapshot:
        // a spike between checkpoints must not escape the grant.
        const std::uint64_t used =
            s.memory_stats().peak_total_bytes + j.trace().size();
        if (used > j.budget) {
          throw budget_exceeded_error(
              "detector state peaked at " + std::to_string(used) +
              " bytes (buffered trace + shadow + query cache high-water "
              "mark) against a " +
              std::to_string(j.budget) + "-byte budget");
        }
      };

      session::replay_checkpoint cp;
      cp.every_events = opt_.checkpoint_events;
      cp.fn = [this, &j, &check_budget, &flush](std::uint64_t,
                                                std::uint64_t) {
        if (j.conn->dead.load() || stopping_.load()) {
          throw client_gone_error("client disconnected mid-replay");
        }
        check_budget();
        flush();
      };

      const std::uint64_t events = s.replay(*src, cp);
      // Traces shorter than one checkpoint interval still get held to their
      // grant: the final state is what a keep-resident tenant would pin.
      check_budget();

      stream_done_msg d;
      d.stream_id = j.stream_id;
      d.granule = granule;
      d.events = events;
      d.accesses = s.access_count();
      d.gets = s.get_count();
      d.violations = s.structured_violations();
      d.races_total = s.report().total();
      d.racy_granules.assign(s.report().racy_granules().begin(),
                             s.report().racy_granules().end());
      const detect::memory_stats mem = s.memory_stats();
      d.store_bytes = mem.store_bytes;
      d.store_pages = mem.store_pages;
      d.report_retained = mem.report_retained;
      d.report_capacity = mem.report_capacity;
      d.query_cache_bytes = mem.query_cache_bytes;
      out.add(frame_type::stream_done, encode(d));
      flush();
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.streams_completed;
      }
    } catch (const io_error&) {
      // The client is gone: nothing to report, nobody to report it to.
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.streams_failed;
    } catch (const client_gone_error&) {
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.streams_failed;
    } catch (const budget_exceeded_error& e) {
      fail(error_code::budget_exceeded, e.what());
    } catch (const trace::trace_error& e) {
      fail(error_code::bad_trace, e.what());
    } catch (const detect::backend_error& e) {  // includes capability_error
      fail(error_code::backend_error, e.what());
    } catch (const shadow::store_error& e) {
      fail(error_code::backend_error, e.what());
    } catch (const std::exception& e) {
      fail(error_code::internal, e.what());
    }

    // Whatever happened, the session must be pristine before the next
    // stream; if even reset() fails, drop the instance rather than risk
    // state bleeding across tenants.
    if (cache.s != nullptr) {
      try {
        cache.s->reset();
      } catch (...) {
        cache.s = nullptr;
      }
    }
  }
}

}  // namespace frd::serve
