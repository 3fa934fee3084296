// frd-serve subsystem tests: wire protocol, daemon isolation, and the
// session-recycling contract the worker pool depends on.
//
// Three layers, mirroring the subsystem:
//   protocol   payload codecs round-trip and reject malformed bytes;
//              frame_io over a socketpair enforces the length/type framing.
//   daemon     an in-process server on a fresh Unix socket per test. The
//              headline properties: reports are byte-identical to the
//              checked-in corpus goldens even under >= 8 concurrent client
//              streams (including a million-event .frdtz), and injected
//              corrupt / truncated / version-skewed / over-budget /
//              disconnected / hostile-id streams each fail alone —
//              siblings complete and the daemon keeps serving.
//   reset      session::reset() must make replay #2 byte-identical to
//              replay #1 across the (entry x backend) cube; the
//              worker pool's recycling is sound only if this holds.
//
// The corpus directory comes from FRD_CORPUS_DIR (compile-time, overridable
// via the environment variable of the same name).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "corpus/golden.hpp"
#include "corpus/manifest.hpp"
#include "corpus/runner.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "crafted_containers.hpp"
#include "hostile_traces.hpp"
#include "trace/codec.hpp"

namespace frd::serve {
namespace {

std::string corpus_dir() {
  if (const char* env = std::getenv("FRD_CORPUS_DIR")) return env;
  return FRD_CORPUS_DIR;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

corpus::golden_report load_corpus_golden(const std::string& stem) {
  return corpus::load_golden(corpus_dir() + "/" + stem + ".golden");
}

// sun_path is ~107 bytes; keep the per-test socket names short and unique.
std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/frd-serve-t" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// ------------------------------------------------------ payload codecs --

TEST(ServeProtocol, PayloadRoundTrips) {
  stream_open_msg open;
  open.stream_id = 42;
  open.backend = "multibags+";
  open.store = "hashed-page";
  open.budget = 1u << 20;
  const stream_open_msg open2 = decode_stream_open(encode(open));
  EXPECT_EQ(open2.stream_id, open.stream_id);
  EXPECT_EQ(open2.backend, open.backend);
  EXPECT_EQ(open2.store, open.store);
  EXPECT_EQ(open2.budget, open.budget);

  race_msg r;
  r.stream_id = 7;
  r.granule_addr = 0x100020;
  r.prior = 11;
  r.prior_is_write = true;
  r.current = 13;
  r.current_is_write = false;
  const race_msg r2 = decode_race(encode(r));
  EXPECT_EQ(r2.stream_id, r.stream_id);
  EXPECT_EQ(r2.granule_addr, r.granule_addr);
  EXPECT_EQ(r2.prior, r.prior);
  EXPECT_TRUE(r2.prior_is_write);
  EXPECT_EQ(r2.current, r.current);
  EXPECT_FALSE(r2.current_is_write);

  stream_done_msg d;
  d.stream_id = 9;
  d.granule = 4;
  d.events = 1000;
  d.accesses = 900;
  d.gets = 17;
  d.violations = 2;
  d.races_total = 5;
  d.racy_granules = {0x100000, 0x100004};
  d.store_bytes = 1 << 21;
  d.store_pages = 1;
  d.report_retained = 5;
  d.report_capacity = 64;
  d.query_cache_bytes = 992;
  const stream_done_msg d2 = decode_stream_done(encode(d));
  EXPECT_EQ(d2.stream_id, d.stream_id);
  EXPECT_EQ(d2.events, d.events);
  EXPECT_EQ(d2.racy_granules, d.racy_granules);
  EXPECT_EQ(d2.report_capacity, d.report_capacity);

  error_msg e;
  e.stream_id = 3;
  e.code = error_code::budget_exceeded;
  e.message = "over";
  const error_msg e2 = decode_error_msg(encode(e));
  EXPECT_EQ(e2.stream_id, e.stream_id);
  EXPECT_EQ(e2.code, e.code);
  EXPECT_EQ(e2.message, e.message);

  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4};
  const auto td = encode_trace_data(5, bytes);
  std::span<const std::uint8_t> view;
  EXPECT_EQ(decode_trace_data(td, view), 5u);
  EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()), bytes);
}

TEST(ServeProtocol, MalformedPayloadsThrow) {
  // Truncated varints / short buffers must be a typed error, not UB.
  const auto open = encode(stream_open_msg{.stream_id = 1,
                                           .backend = "multibags+",
                                           .store = "hashed-page",
                                           .budget = 0});
  for (std::size_t n = 0; n < open.size(); ++n) {
    EXPECT_THROW(decode_stream_open(std::span(open.data(), n)),
                 protocol_error)
        << "prefix of " << n << " bytes decoded";
  }
  // An error frame with an out-of-range code byte.
  auto err = encode(error_msg{.stream_id = 1,
                              .code = error_code::bad_trace,
                              .message = "x"});
  err[1] = 200;  // varint stream_id=1 is 1 byte; code follows
  EXPECT_THROW(decode_error_msg(err), protocol_error);
  // A stream_done claiming more racy granules than the payload can hold.
  stream_done_msg done_msg;
  done_msg.stream_id = 1;
  auto done = encode(done_msg);
  done.back() = 0xff;  // racy count varint, no granules follow
  EXPECT_THROW(decode_stream_done(done), protocol_error);
}

// ------------------------------------------------------------ frame_io --

class FrameIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FrameIoTest, RoundTripsFrames) {
  frame_io a(fds_[0]), b(fds_[1]);
  a.write_frame(frame_type::hello, encode(hello_msg{}));
  frame f;
  ASSERT_TRUE(b.read_frame(f));
  EXPECT_EQ(f.type, frame_type::hello);
  EXPECT_EQ(decode_hello(f.payload).version, kProtocolVersion);
}

TEST_F(FrameIoTest, CleanEofReturnsFalse) {
  frame_io b(fds_[1]);
  ::close(fds_[0]);
  fds_[0] = -1;
  frame f;
  EXPECT_FALSE(b.read_frame(f));
}

TEST_F(FrameIoTest, RejectsZeroLengthAndOversizedFrames) {
  // length 0: a frame must carry at least its type byte.
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fds_[0], zero, 4, 0), 4);
  frame_io b(fds_[1]);
  frame f;
  EXPECT_THROW(b.read_frame(f), protocol_error);

  // A hostile length prefix larger than kMaxFrameBody is refused before any
  // allocation of that size.
  int fds2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
  const std::uint32_t huge = kMaxFrameBody + 1;
  std::uint8_t head[4] = {static_cast<std::uint8_t>(huge),
                          static_cast<std::uint8_t>(huge >> 8),
                          static_cast<std::uint8_t>(huge >> 16),
                          static_cast<std::uint8_t>(huge >> 24)};
  ASSERT_EQ(::send(fds2[0], head, 4, 0), 4);
  frame_io c(fds2[1]);
  EXPECT_THROW(c.read_frame(f), protocol_error);
  ::close(fds2[0]);
  ::close(fds2[1]);
}

TEST_F(FrameIoTest, RejectsUnknownFrameType) {
  const std::uint8_t wire[5] = {1, 0, 0, 0, 99};  // length 1, type 99
  ASSERT_EQ(::send(fds_[0], wire, 5, 0), 5);
  frame_io b(fds_[1]);
  frame f;
  EXPECT_THROW(b.read_frame(f), protocol_error);
}

// Runs `write` on a thread of its own that a failing reader cannot strand:
// on destruction it shuts the reading end down, which fails a write
// blocked on a full socket, and joins. A write that throws is a test
// failure, not a crash.
class writer_thread {
 public:
  writer_thread(int read_fd, std::function<void()> write)
      : read_fd_(read_fd), thread_([write = std::move(write)] {
          try {
            write();
          } catch (const std::exception& e) {
            ADD_FAILURE() << "writer: " << e.what();
          }
        }) {}
  ~writer_thread() {
    ::shutdown(read_fd_, SHUT_RDWR);
    thread_.join();
  }
  writer_thread(const writer_thread&) = delete;
  writer_thread& operator=(const writer_thread&) = delete;

 private:
  int read_fd_;
  std::thread thread_;
};

// The wire bytes of `batch`, as one write_frames call lays them out: written
// through a socketpair and read back raw.
std::vector<std::uint8_t> wire_of(const frame_batch& batch, int fd_pair[2]) {
  std::vector<std::uint8_t> out;
  std::uint8_t buf[4096];
  const std::size_t want = batch.inline_bytes();
  {
    writer_thread writer(fd_pair[1],
                         [&] { frame_io(fd_pair[0]).write_frames(batch); });
    while (out.size() < want) {
      const ssize_t r = ::read(fd_pair[1], buf, sizeof(buf));
      if (r <= 0) break;
      out.insert(out.end(), buf, buf + r);
    }
  }
  return out;
}

std::vector<frame> sample_frames() {
  std::vector<frame> v;
  v.push_back({frame_type::hello, encode(hello_msg{})});
  race_msg r;
  r.stream_id = 3;
  r.granule_addr = 0x7f3a00001000;
  r.prior = 70000;
  r.current = 1;
  r.current_is_write = 1;
  v.push_back({frame_type::race, encode(r)});
  std::vector<std::uint8_t> trace(100);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i] = static_cast<std::uint8_t>(i * 7);
  v.push_back({frame_type::trace_data, encode_trace_data(3, trace)});
  v.push_back({frame_type::stream_close, encode_stream_close(3)});
  return v;
}

TEST_F(FrameIoTest, FrameSplitAtEveryByteBoundaryIsReassembled) {
  const std::vector<frame> frames = sample_frames();
  frame_batch batch;
  for (const frame& f : frames) batch.add(f.type, f.payload);
  const std::vector<std::uint8_t> wire = wire_of(batch, fds_);
  ASSERT_EQ(wire.size(), batch.inline_bytes());
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    {
      writer_thread writer(fds[1], [&] {
        EXPECT_EQ(::send(fds[0], wire.data(), cut, 0),
                  static_cast<ssize_t>(cut));
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        const std::size_t rest = wire.size() - cut;
        EXPECT_EQ(::send(fds[0], wire.data() + cut, rest, MSG_NOSIGNAL),
                  static_cast<ssize_t>(rest));
        ::shutdown(fds[0], SHUT_WR);
      });
      frame_io io(fds[1]);
      frame f;
      for (const frame& want : frames) {
        if (!io.read_frame(f)) {
          ADD_FAILURE() << "cut " << cut << ": frame missing";
          break;
        }
        EXPECT_EQ(f.type, want.type) << "cut " << cut;
        EXPECT_EQ(f.payload, want.payload) << "cut " << cut;
      }
      EXPECT_FALSE(io.read_frame(f)) << "cut " << cut;
    }
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

TEST_F(FrameIoTest, ManyFramesInOneWriteAndOneRead) {
  // Thousands of small frames and, among them, payloads larger than the
  // read buffer and than the inline limit (sent from the caller's memory).
  std::vector<frame> frames;
  std::vector<std::vector<std::uint8_t>> big;
  for (const std::size_t n : {std::size_t{200} << 10, frame_io::kReadBuffer,
                              frame_batch::kInlinePayload + 1}) {
    big.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i) big.back()[i] = static_cast<std::uint8_t>(i % 251);
  }
  frame_batch batch;
  for (int i = 0; i < 3000; ++i) {
    race_msg r;
    r.stream_id = 1;
    r.granule_addr = static_cast<std::uint64_t>(i) * 4;
    frames.push_back({frame_type::race, encode(r)});
    batch.add(frame_type::race, frames.back().payload);
    if (i % 1000 == 500) {
      const auto& bytes = big[static_cast<std::size_t>(i / 1000)];
      frames.push_back({frame_type::trace_data, encode_trace_data(9, bytes)});
      batch.add_trace_data(9, bytes);
    }
  }
  writer_thread writer(fds_[1],
                       [&] { frame_io(fds_[0]).write_frames(batch); });
  frame_io io(fds_[1]);
  frame f;
  std::size_t i = 0;
  while (i < frames.size() && io.read_frame(f) && f.type == frames[i].type &&
         f.payload == frames[i].payload) {
    ++i;
  }
  EXPECT_EQ(i, frames.size()) << "frame " << i << " is missing or differs";
}

// -------------------------------------------------------------- daemon --

class ServeDaemonTest : public ::testing::Test {
 protected:
  void start(server_options opt = {}) {
    socket_ = fresh_socket_path();
    opt.socket_path = socket_;
    if (opt.workers == 2) opt.workers = 4;
    srv_ = std::make_unique<server>(std::move(opt));
    srv_->start();
  }
  void TearDown() override {
    if (srv_) srv_->stop();
  }

  std::string socket_;
  std::unique_ptr<server> srv_;
};

TEST_F(ServeDaemonTest, SubmitMatchesCheckedInGolden) {
  start();
  client cli(socket_);
  const submit_result quiet =
      cli.submit_file(corpus_dir() + "/mm-structured.frdt");
  ASSERT_TRUE(quiet.ok) << quiet.error;
  EXPECT_EQ(quiet.golden, load_corpus_golden("mm-structured"));
  EXPECT_TRUE(quiet.races.empty());

  // A racy general-futures trace on the same connection: race frames arrive
  // before stream_done, and the racy set matches the golden exactly.
  const submit_result racy =
      cli.submit_file(corpus_dir() + "/fuzz-general.frdt");
  ASSERT_TRUE(racy.ok) << racy.error;
  const corpus::golden_report want = load_corpus_golden("fuzz-general");
  EXPECT_EQ(racy.golden, want);
  EXPECT_EQ(racy.races.size(), racy.races_total);
  ASSERT_FALSE(racy.races.empty());
  std::set<std::uint64_t> streamed;
  for (const race_msg& m : racy.races) streamed.insert(m.granule_addr);
  for (const std::uint64_t g : streamed) {
    EXPECT_TRUE(want.racy_granules.count(g))
        << "streamed race on granule not in the golden: " << g;
  }
}

TEST_F(ServeDaemonTest, CompressedContainerSubmitMatchesGolden) {
  start();
  client cli(socket_);
  const submit_result r =
      cli.submit_file(corpus_dir() + "/mm-structured-xl.frdtz");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.golden, load_corpus_golden("mm-structured-xl"));
  EXPECT_GT(r.golden.events, 1000000u) << "xl entry should be million-event";
}

// The acceptance stress test: >= 8 concurrent client streams over a mixed
// corpus (including a million-event .frdtz), every report byte-identical to
// its checked-in golden.
TEST_F(ServeDaemonTest, EightConcurrentStreamsAreByteIdentical) {
  start();
  const std::vector<std::string> entries = {
      "mm-structured",   "mm-structured-large", "bst-general",
      "bst-structured",  "fuzz-general",        "fuzz-structured",
      "lcs-general",     "sync-heavy",          "tracking-structured-xl",
  };
  std::vector<std::thread> threads;
  std::vector<std::string> failures(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    threads.emplace_back([this, &entries, &failures, i] {
      try {
        const std::string& name = entries[i];
        const std::string ext =
            name.find("-xl") != std::string::npos ? ".frdtz" : ".frdt";
        client cli(socket_);
        const submit_result r =
            cli.submit_file(corpus_dir() + "/" + name + ext);
        if (!r.ok) {
          failures[i] = name + ": " + r.error;
          return;
        }
        const corpus::golden_report want = load_corpus_golden(name);
        if (!(r.golden == want)) {
          std::ostringstream got_s, want_s;
          corpus::write_golden(got_s, r.golden);
          corpus::write_golden(want_s, want);
          failures[i] = name + ": golden mismatch\n-- served --\n" +
                        got_s.str() + "-- expected --\n" + want_s.str();
        }
      } catch (const std::exception& e) {
        failures[i] = entries[i] + ": threw " + e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  // The worker bumps streams_completed after the done frame ships, so the
  // last client can observe its result a beat before the counter settles.
  for (int spin = 0;
       spin < 100 && srv_->stats().streams_completed < entries.size(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv_->stats().streams_completed, entries.size());
  EXPECT_EQ(srv_->stats().streams_failed, 0u);
}

// Injected failures: corrupt magic, truncated container, version-skewed
// trace, over-budget stream — each fails with a structured per-stream error
// while a concurrent good stream completes, and the daemon keeps serving.
TEST_F(ServeDaemonTest, InjectedFailuresAreIsolated) {
  server_options opt;
  start(opt);

  std::vector<std::uint8_t> garbage = {'n', 'o', 'p', 'e', 0, 1, 2, 3};
  std::vector<std::uint8_t> truncated =
      read_file(corpus_dir() + "/mm-structured-xl.frdtz");
  truncated.resize(truncated.size() / 3);
  std::vector<std::uint8_t> skewed =
      read_file(corpus_dir() + "/mm-structured.frdt");
  skewed[4] = 99;  // flat .frdt: varint version right after the magic
  const std::vector<std::uint8_t> good =
      read_file(corpus_dir() + "/fuzz-structured.frdt");

  struct verdict {
    bool ok = false;
    error_code code = error_code::internal;
    std::string error;
  };
  std::vector<verdict> v(5);
  std::vector<std::thread> threads;
  auto run = [this, &v](std::size_t slot, std::vector<std::uint8_t> bytes,
                        submit_options opt) {
    return std::thread([this, slot, bytes = std::move(bytes), opt, &v] {
      client cli(socket_);
      const submit_result r = cli.submit(bytes, opt);
      v[slot] = {r.ok, r.code, r.error};
    });
  };
  threads.push_back(run(0, garbage, {}));
  threads.push_back(run(1, truncated, {}));
  threads.push_back(run(2, skewed, {}));
  submit_options tiny;
  tiny.budget = 64 << 10;  // far below any session's shadow page
  threads.push_back(
      run(3, read_file(corpus_dir() + "/mm-structured.frdt"), tiny));
  threads.push_back(run(4, good, {}));
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(v[0].ok);
  EXPECT_EQ(v[0].code, error_code::bad_trace) << v[0].error;
  EXPECT_FALSE(v[1].ok);
  EXPECT_EQ(v[1].code, error_code::bad_trace) << v[1].error;
  EXPECT_FALSE(v[2].ok);
  EXPECT_EQ(v[2].code, error_code::bad_trace) << v[2].error;
  EXPECT_NE(v[2].error.find("version"), std::string::npos) << v[2].error;
  EXPECT_FALSE(v[3].ok);
  EXPECT_EQ(v[3].code, error_code::budget_exceeded) << v[3].error;
  EXPECT_TRUE(v[4].ok) << v[4].error;

  // The daemon is still healthy: a fresh client on a fresh connection gets
  // a byte-identical report.
  client cli(socket_);
  const submit_result after =
      cli.submit_file(corpus_dir() + "/fuzz-structured.frdt");
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.golden, load_corpus_golden("fuzz-structured"));
  EXPECT_EQ(srv_->stats().streams_failed, 4u);
}

TEST_F(ServeDaemonTest, UnknownBackendAndStoreFailAtOpen) {
  start();
  client cli(socket_);
  const std::vector<std::uint8_t> bytes =
      read_file(corpus_dir() + "/mm-structured.frdt");
  submit_options bad_backend;
  bad_backend.backend = "no-such-backend";
  submit_result r = cli.submit(bytes, bad_backend);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, error_code::backend_error);
  // The deleted compact layout is an unknown store like any other name;
  // the refusal names the one store.
  for (const char* name : {"no-such-store", "compact"}) {
    submit_options bad_store;
    bad_store.store = name;
    r = cli.submit(bytes, bad_store);
    EXPECT_FALSE(r.ok) << name;
    EXPECT_EQ(r.code, error_code::backend_error) << name;
    EXPECT_NE(r.error.find("hashed-page"), std::string::npos) << r.error;
  }
  // The connection survives every refusal.
  r = cli.submit(bytes, {});
  EXPECT_TRUE(r.ok) << r.error;
}

TEST_F(ServeDaemonTest, ServerBudgetCapsClientRequests) {
  server_options opt;
  opt.default_budget = 16 << 10;  // tiny: every real stream must blow it
  start(opt);
  client cli(socket_);
  EXPECT_EQ(cli.server_default_budget(), opt.default_budget);
  const std::vector<std::uint8_t> bytes =
      read_file(corpus_dir() + "/mm-structured.frdt");
  // Asking for MORE than the server grants must not escape the cap.
  submit_options want_more;
  want_more.budget = 1u << 30;
  const submit_result r = cli.submit(bytes, want_more);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, error_code::budget_exceeded) << r.error;
}

// The peak-footprint budget check runs once after replay even when the
// stream is too short to hit a checkpoint: a footprint spike cannot duck
// under the grant by finishing between checkpoints, because the charge is
// memory_stats::peak_total_bytes — the high-water mark — not the final
// snapshot.
TEST_F(ServeDaemonTest, PeakFootprintIsChargedWithoutCheckpoints) {
  server_options opt;
  opt.checkpoint_events = 1u << 30;  // no mid-replay checkpoint ever fires
  start(opt);
  client cli(socket_);
  submit_options tiny;
  tiny.budget = 1u << 20;  // above the ~18 KB buffered trace, below the
                           // ~2 MiB shadow-page high-water mark
  const submit_result r =
      cli.submit(read_file(corpus_dir() + "/mm-structured.frdt"), tiny);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, error_code::budget_exceeded) << r.error;
  EXPECT_NE(r.error.find("peaked"), std::string::npos)
      << "the failure must name the high-water mark: " << r.error;
  // The daemon keeps serving, and an unbudgeted retry completes.
  const submit_result again =
      cli.submit_file(corpus_dir() + "/mm-structured.frdt");
  EXPECT_TRUE(again.ok) << again.error;
}

TEST_F(ServeDaemonTest, MidStreamDisconnectLeavesDaemonServing) {
  start();
  {
    // A client that opens a stream, ships half a trace, and vanishes.
    int fd = -1;
    {
      client cli(socket_);
      fd = cli.native_handle();
      frame_io io(fd);
      stream_open_msg open;
      open.stream_id = 1;
      open.backend = "multibags+";
      open.store = "hashed-page";
      io.write_frame(frame_type::stream_open, encode(open));
      const std::vector<std::uint8_t> bytes =
          read_file(corpus_dir() + "/mm-structured.frdt");
      io.write_frame(
          frame_type::trace_data,
          encode_trace_data(1, std::span(bytes.data(), bytes.size() / 2)));
      // ~client closes the socket with the stream still open.
    }
  }
  // The daemon shrugs it off; new work proceeds and matches the golden.
  client cli(socket_);
  const submit_result r = cli.submit_file(corpus_dir() + "/sync-heavy.frdt");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.golden, load_corpus_golden("sync-heavy"));
}

TEST_F(ServeDaemonTest, HelloVersionSkewIsRefused) {
  start();
  // Raw connection with a from-the-future protocol version.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", socket_.c_str());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  frame_io io(fd);
  hello_msg h;
  h.version = kProtocolVersion + 7;
  io.write_frame(frame_type::hello, encode(h));
  frame f;
  ASSERT_TRUE(io.read_frame(f));
  EXPECT_EQ(f.type, frame_type::error);
  const error_msg e = decode_error_msg(f.payload);
  EXPECT_EQ(e.stream_id, 0u);  // connection-level
  EXPECT_EQ(e.code, error_code::version_skew);
  ::close(fd);

  // And the daemon still serves protocol-conformant clients.
  client cli(socket_);
  EXPECT_TRUE(cli.submit_file(corpus_dir() + "/mm-structured.frdt").ok);
}

TEST_F(ServeDaemonTest, DuplicateStreamIdFailsAndIdIsReusable) {
  start();
  client cli(socket_);
  frame_io io(cli.native_handle());
  stream_open_msg open;
  open.stream_id = 5;
  open.backend = "multibags+";
  open.store = "hashed-page";
  io.write_frame(frame_type::stream_open, encode(open));
  io.write_frame(frame_type::stream_open, encode(open));  // duplicate
  frame f;
  ASSERT_TRUE(io.read_frame(f));
  ASSERT_EQ(f.type, frame_type::error);
  error_msg e = decode_error_msg(f.payload);
  EXPECT_EQ(e.stream_id, 5u);
  EXPECT_EQ(e.code, error_code::bad_frame);
  // The failed id is reusable: run the full stream under id 5 again.
  const std::vector<std::uint8_t> bytes =
      read_file(corpus_dir() + "/mm-structured.frdt");
  io.write_frame(frame_type::stream_open, encode(open));
  io.write_frame(frame_type::trace_data, encode_trace_data(5, bytes));
  io.write_frame(frame_type::stream_close, encode_stream_close(5));
  for (;;) {
    ASSERT_TRUE(io.read_frame(f));
    if (f.type == frame_type::stream_done) {
      EXPECT_EQ(decode_stream_done(f.payload).stream_id, 5u);
      break;
    }
    ASSERT_EQ(f.type, frame_type::race);
  }
}

TEST_F(ServeDaemonTest, ShutdownFrameStopsTheServer) {
  start();
  client cli(socket_);
  ASSERT_TRUE(cli.submit_file(corpus_dir() + "/mm-structured.frdt").ok);
  cli.shutdown_server();
  srv_->wait();  // returns promptly once the shutdown frame landed
  srv_->stop();
  // The socket file is gone; new connections are refused.
  EXPECT_THROW(client{socket_}, io_error);
  srv_.reset();
}

// A raw connection past the handshake that sends one stream in `batch`
// and collects every frame up to its stream_done or error; then it closes
// its side, and nothing more may arrive.
std::vector<frame> serve_raw(const std::string& socket,
                             const frame_batch& batch) {
  client cli(socket);
  frame_io io(cli.native_handle());
  io.write_frames(batch);
  std::vector<frame> got;
  frame f;
  for (;;) {
    EXPECT_TRUE(io.read_frame(f)) << "connection closed before the stream ended";
    if (got.size() > 100000) ADD_FAILURE() << "runaway frames";
    got.push_back(f);
    if (f.type == frame_type::stream_done || f.type == frame_type::error) break;
    if (f.type != frame_type::race) {
      ADD_FAILURE() << "unexpected frame type " << static_cast<int>(f.type);
      break;
    }
  }
  ::shutdown(cli.native_handle(), SHUT_WR);
  EXPECT_FALSE(io.read_frame(f)) << "a frame arrived after the stream ended";
  return got;
}

frame_batch stream_of(std::uint64_t id, const std::vector<std::uint8_t>& bytes) {
  frame_batch b;
  b.add(frame_type::stream_open,
        encode(stream_open_msg{.stream_id = id,
                               .backend = "multibags+",
                               .store = "hashed-page",
                               .budget = 0}));
  b.add_trace_data(id, bytes);
  b.add(frame_type::stream_close, encode_stream_close(id));
  return b;
}

// An in-process replay of `bytes` as a worker runs it: the races in
// encounter order and, at each checkpoint, the detector's peak and how many
// races had been found.
struct in_process_run {
  std::vector<detect::race> races;
  std::vector<std::pair<std::uint64_t, std::size_t>> checkpoints;
};

in_process_run replay_in_process(const std::vector<std::uint8_t>& bytes,
                                 std::uint64_t every) {
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  auto src = trace::open_source(in);
  session s(session::options{.backend = "multibags+",
                             .granule = src->header().granule});
  in_process_run run;
  s.set_race_sink([&run](const detect::race& r) { run.races.push_back(r); });
  session::replay_checkpoint cp;
  cp.every_events = every;
  cp.fn = [&](std::uint64_t, std::uint64_t) {
    run.checkpoints.emplace_back(s.memory_stats().peak_total_bytes,
                                 run.races.size());
  };
  s.replay(*src, cp);
  return run;
}

bool same_race(const race_msg& m, const detect::race& r) {
  return m.granule_addr == r.granule_addr && m.prior == r.prior &&
         m.current == r.current &&
         (m.prior_is_write != 0) == (r.prior_kind == detect::access_kind::write) &&
         (m.current_is_write != 0) ==
             (r.current_kind == detect::access_kind::write);
}

// Workers send race frames in batches: every one still arrives, in
// encounter order, before the stream's stream_done.
TEST_F(ServeDaemonTest, RaceFramesArriveInEncounterOrderBeforeStreamDone) {
  server_options opt;
  opt.checkpoint_events = 4096;  // many checkpoints, so many batches
  start(opt);
  const std::vector<std::uint8_t> bytes =
      read_file(corpus_dir() + "/tracking-structured-xl.frdtz");
  const in_process_run want = replay_in_process(bytes, opt.checkpoint_events);
  const std::vector<frame> got = serve_raw(socket_, stream_of(1, bytes));
  ASSERT_FALSE(got.empty());
  ASSERT_EQ(got.back().type, frame_type::stream_done);
  const stream_done_msg done = decode_stream_done(got.back().payload);
  EXPECT_EQ(done.racy_granules.size(), 80u);
  ASSERT_EQ(got.size() - 1, want.races.size());
  EXPECT_EQ(done.races_total, want.races.size());
  for (std::size_t i = 0; i + 1 < got.size(); ++i) {
    const race_msg m = decode_race(got[i].payload);
    EXPECT_EQ(m.stream_id, 1u);
    EXPECT_TRUE(same_race(m, want.races[i])) << "race " << i;
  }
  const corpus::golden_report golden =
      load_corpus_golden("tracking-structured-xl");
  EXPECT_EQ(std::set<std::uint64_t>(done.racy_granules.begin(),
                                    done.racy_granules.end()),
            golden.racy_granules);
}

// A stream that goes over budget at a checkpoint mid-replay still gets the
// races found before it, then its error frame.
TEST_F(ServeDaemonTest, OverBudgetStreamStillReceivesItsEarlierRaces) {
  server_options opt;
  opt.checkpoint_events = 4096;
  start(opt);
  const std::vector<std::uint8_t> bytes =
      read_file(corpus_dir() + "/tracking-structured-xl.frdtz");
  const in_process_run run = replay_in_process(bytes, opt.checkpoint_events);
  // The grant: the trace plus the peak at the 10th checkpoint, so the
  // first checkpoint whose peak is higher fails the stream.
  ASSERT_GT(run.checkpoints.size(), 20u);
  const std::uint64_t peak = run.checkpoints[9].first;
  std::size_t fails_at = 10;
  while (run.checkpoints[fails_at].first <= peak) ++fails_at;
  const std::size_t races_before = run.checkpoints[fails_at].second;
  ASSERT_GT(races_before, 0u);
  ASSERT_LT(races_before, run.races.size());

  frame_batch b;
  b.add(frame_type::stream_open,
        encode(stream_open_msg{.stream_id = 2,
                               .backend = "multibags+",
                               .store = "hashed-page",
                               .budget = bytes.size() + peak}));
  b.add_trace_data(2, bytes);
  b.add(frame_type::stream_close, encode_stream_close(2));
  const std::vector<frame> got = serve_raw(socket_, b);
  ASSERT_FALSE(got.empty());
  ASSERT_EQ(got.back().type, frame_type::error);
  const error_msg e = decode_error_msg(got.back().payload);
  EXPECT_EQ(e.code, error_code::budget_exceeded) << e.message;
  ASSERT_EQ(got.size() - 1, races_before);
  for (std::size_t i = 0; i + 1 < got.size(); ++i) {
    EXPECT_TRUE(same_race(decode_race(got[i].payload), run.races[i]))
        << "race " << i;
  }
}

// Clients that write every frame on its own, as this client once did, and
// split the trace over many data frames, are served as before.
TEST_F(ServeDaemonTest, FramesWrittenOnePerCallAreServed) {
  start();
  client cli(socket_);
  frame_io io(cli.native_handle());
  const std::vector<std::uint8_t> bytes =
      read_file(corpus_dir() + "/fuzz-general.frdt");
  io.write_frame(frame_type::stream_open,
                 encode(stream_open_msg{.stream_id = 4,
                                        .backend = "multibags+",
                                        .store = "hashed-page",
                                        .budget = 0}));
  for (std::size_t off = 0; off < bytes.size(); off += 333) {
    const std::size_t n = std::min<std::size_t>(333, bytes.size() - off);
    io.write_frame(frame_type::trace_data,
                   encode_trace_data(4, std::span(bytes.data() + off, n)));
  }
  io.write_frame(frame_type::stream_close, encode_stream_close(4));
  frame f;
  std::size_t races = 0;
  for (;;) {
    ASSERT_TRUE(io.read_frame(f));
    if (f.type == frame_type::stream_done) break;
    ASSERT_EQ(f.type, frame_type::race);
    ++races;
  }
  const stream_done_msg d = decode_stream_done(f.payload);
  EXPECT_EQ(d.races_total, races);
  corpus::golden_report got;
  got.granule = d.granule;
  got.events = d.events;
  got.accesses = d.accesses;
  got.gets = d.gets;
  got.violations = d.violations;
  got.racy_granules.insert(d.racy_granules.begin(), d.racy_granules.end());
  EXPECT_EQ(got, load_corpus_golden("fuzz-general"));
}

// A 68-byte container declaring a 64 MiB chunk is a bad trace, refused at
// its footer, and the daemon keeps serving.
TEST_F(ServeDaemonTest, OversizedChunkContainerIsABadTrace) {
  start();
  client cli(socket_);
  const std::string bad = container::testing::oversized_chunk_container();
  const submit_result r = cli.submit(
      std::vector<std::uint8_t>(bad.begin(), bad.end()), submit_options{});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, error_code::bad_trace) << r.error;
  EXPECT_NE(r.error.find("chunk limit"), std::string::npos) << r.error;
  EXPECT_TRUE(cli.submit_file(corpus_dir() + "/sync-heavy.frdt").ok);
}

// A stream whose dag events the canonical walk would not emit (strand ids
// near 4e9) fails alone as a bad trace, and the next stream on the same
// connection is served to its golden.
TEST_F(ServeDaemonTest, HostileStreamFailsAloneOnItsConnection) {
  start();
  client cli(socket_);
  const std::string hostile =
      trace::testing::hostile_bytes(trace::testing::hostile_cases()[0]);
  ASSERT_EQ(hostile.size(), 46u);
  const submit_result bad = cli.submit(
      std::vector<std::uint8_t>(hostile.begin(), hostile.end()),
      submit_options{});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, error_code::bad_trace) << bad.error;
  EXPECT_NE(bad.error.find("canonical walk"), std::string::npos) << bad.error;

  const submit_result good =
      cli.submit_file(corpus_dir() + "/fuzz-general.frdt");
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.golden, load_corpus_golden("fuzz-general"));
  // The worker bumps streams_completed after the done frame ships.
  for (int spin = 0; spin < 100 && srv_->stats().streams_completed < 1;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv_->stats().streams_failed, 1u);
  EXPECT_EQ(srv_->stats().streams_completed, 1u);
}

// --------------------------------------------- session::reset() cube --

// The worker pool's recycling contract: after reset(), a session must
// produce byte-identical reports (through write_golden) and identical race
// encounter order on a second replay — across every flat corpus entry and
// every eligible backend.
TEST(SessionResetCube, SecondReplayIsByteIdentical) {
  const corpus::manifest m =
      corpus::load_manifest(corpus_dir() + "/MANIFEST");
  std::size_t checks = 0;
  for (const corpus::corpus_entry& e : m.entries) {
    if (e.trace_file.ends_with(".frdtz")) continue;  // keep the cube fast
    trace::memory_trace tape =
        corpus::load_trace(corpus_dir() + "/" + e.trace_file);
    for (const std::string& backend : corpus::eligible_backends(e.futures)) {
      session s(session::options{.backend = backend, .granule = e.granule});
      auto one_round = [&](std::string& golden_text,
                           std::vector<std::uint64_t>& order) {
        s.set_race_sink([&order](const detect::race& r) {
          order.push_back(r.granule_addr);
        });
        tape.rewind();
        corpus::golden_report g;
        g.granule = e.granule;
        g.events = s.replay(tape);
        g.accesses = s.access_count();
        g.gets = s.get_count();
        g.violations = s.structured_violations();
        g.racy_granules.insert(s.report().racy_granules().begin(),
                               s.report().racy_granules().end());
        std::ostringstream out;
        corpus::write_golden(out, g);
        golden_text = out.str();
      };
      std::string first, second;
      std::vector<std::uint64_t> first_order, second_order;
      one_round(first, first_order);
      s.reset();
      one_round(second, second_order);
      EXPECT_EQ(first, second)
          << e.name << " x " << backend << ": reset() replay diverged";
      EXPECT_EQ(first_order, second_order)
          << e.name << " x " << backend
          << ": race encounter order changed after reset()";
      ++checks;
    }
  }
  // The cube must actually be a cube, not an accidentally-empty loop: 15
  // flat entries, 54 (entry, eligible backend) pairs.
  EXPECT_GE(checks, 54u) << "corpus/backends shrank unexpectedly";
}

}  // namespace
}  // namespace frd::serve
