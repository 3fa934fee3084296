// Online detection engine: observes a program running on the work-stealing
// runtime (rt::parallel_runtime) with the serial detection stack attached
// live.
//
// Architecture (DESIGN.md §9):
//
//   program threads                      pump thread
//   ---------------                      -----------
//   hooks / session::read ──► router ──► granulated accesses, less the
//                        same-window repeats each worker's filter drops,
//                        appended to the worker's private segment
//   parallel_runtime ops ──► observer ──► dag record; publish {node,
//                        segment run, record} as one handle on the
//                        worker's SPSC ring
//                                        │ drain: queue handles per node
//                                        │ (program order)
//                                        ▼
//                                 rt::canonical_walk
//                                        │ mints strand/function ids: the
//                                        │ walk serial_runtime drives too
//                                        ▼
//                        execution_listener + access_sink (unchanged
//                        detector / recorder / mux — the serial stack);
//                        access runs handed over in segment memory
//
// The ARBITRATION ORDER over dag events is the canonical depth-first order:
// each event is sequence-stamped at the point the pump commits it to the
// listener, and that order is byte-identical to the event stream the serial
// runtime would emit for the same program. Attaching a trace_recorder
// therefore yields a trace whose *serial replay* reproduces the online race
// report byte-for-byte — the subsystem's conformance oracle (test_online).
//
// Liveness: the pump is a dedicated thread, never a scheduler worker. A
// worker waits on the pump only when its handle ring is full; when the walk
// needs handles that have not arrived yet (a stolen child still
// executing), it drains every ring while it waits, so such a worker always
// makes progress. A worker short of segment memory allocates a new segment
// rather than wait for one to come back. The runtime's run() finishes every
// task, untouched futures included, before the root's `end` record is
// logged, so the walk always terminates.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "detect/hooks.hpp"
#include "online/record.hpp"
#include "online/ring.hpp"
#include "runtime/events.hpp"
#include "runtime/parallel.hpp"

namespace frd::online {

// Raised (from engine::finish, on the host thread) when the online run
// cannot be serialized: e.g. a get that touches a future before its
// canonical depth-first creation point (a non-forward-pointing future, the
// class the paper's detectors exclude, §2).
class online_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The observer of one rt::parallel_runtime run (the runtime owns the
// scheduler and the width): it names every function instance with a node id,
// binds nodes around their bodies, logs the spawn/create/sync/get/end
// records, and runs the pump from program begin to the root's end.
class engine final : public rt::parallel_observer {
 public:
  struct config {
    std::size_t granule = 4;
    rt::execution_listener* listener = nullptr;  // dag events (detector/mux)
    detect::hooks::access_sink* sink = nullptr;  // accesses (detector/recorder)
    std::size_t ring_capacity = std::size_t{1} << 13;  // handles per worker
    // Drop same-window repeat accesses on the workers instead of logging
    // them (repeat_filter below); elided() counts them. Leave it off when
    // the sink must see every access (a recorder, a sampling detector).
    bool elide_repeats = false;
  };

  // Longest access run the pump hands to one on_accesses call. The
  // detector's output and counters do not depend on it.
  static constexpr std::size_t kBatchCapacity = 4096;

  explicit engine(const config& cfg);
  ~engine() override;
  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  // Thread-safe access_sink that granulates and appends to the calling
  // worker's segment; the session installs it as the hook sink for the run.
  detect::hooks::access_sink& router() { return router_; }

  // ---- observer side (called by the runtime on the program's threads) ----
  // Builds one lane per worker, mints node 0 (main) and starts the pump;
  // under single-touch the walk drops a future's entry at its one get.
  std::uint32_t begin_program(unsigned workers, bool single_touch) override;
  // Mints the child's node and logs the spawn or create record.
  std::uint32_t fork(bool future) override {
    const std::uint32_t child =
        next_node_.fetch_add(1, std::memory_order_relaxed);
    log(future ? op::create : op::spawn, child);
    return child;
  }
  void sync() override { log(op::sync); }
  void get(std::uint32_t future) override { log(op::get, future); }
  // Thread-local binding of the node executing on this thread. Every
  // binding publishes the worker's pending accesses (they belong to the
  // previous node) and opens a new repeat-filter window.
  std::uint32_t bind(std::uint32_t node) override;
  // The bound node's last record; main's lets the walk complete.
  void end() override { log(op::end); }

  // ---- lifecycle (host thread, driven by session) ----
  void finish();         // joins the pump and rethrows its error, if any
  void abort() noexcept;  // finish() for unwind paths: joins, swallows

  // ---- counters (host thread, once the runtime's run() has returned) ----
  // Accesses the workers dropped as same-window repeats, over all workers.
  std::uint64_t elided() const;
  // High-water mark of records (accesses and dag records) in handles the
  // pump had queued but not yet walked (valid after finish()).
  std::size_t peak_log_records() const { return peak_log_records_; }
  // High-water mark of the bytes the pump's backlog held: every segment
  // allocated (published, being filled or pooled), the per-node handle
  // queues, and the per-node and per-future tables (valid after finish()).
  std::size_t peak_held_bytes() const { return peak_held_bytes_; }

 private:
  class ring_router final : public detect::hooks::access_sink {
   public:
    explicit ring_router(engine& e) : eng_(e) {}
    void on_read(const void* p, std::size_t n) override {
      eng_.log_access(p, n, false);
    }
    void on_write(const void* p, std::size_t n) override {
      eng_.log_access(p, n, true);
    }

   private:
    engine& eng_;
  };

  // Same-window repeat filter of one worker (DESIGN.md §9). A window is a
  // run of one node's accesses on one worker with no dag record between
  // them, so it lies inside one strand of the serial elision. Within a
  // window, a read after a read or a write of the same granule, or a write
  // after a write, changes no shadow state and can only re-report a race
  // its first access reported: it is dropped. Direct-mapped and keyed by
  // (granule, window): a collision only forgets an entry, so the filter
  // can miss a repeat but never drops a first access.
  class repeat_filter {
   public:
    bool repeat(std::uintptr_t granule, std::uint64_t window, bool is_write) {
      // Fibonacci hashing spreads strided granules (matrix columns) over
      // the slots; the top bits of the product index the table.
      slot& s = slots_[(granule * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits)];
      const std::uint64_t tag = window << 1;
      if (s.granule == granule && (s.tag & ~std::uint64_t{1}) == tag) {
        if (!is_write || (s.tag & 1) != 0) return true;
        s.tag |= 1;  // first write after reads in this window
        return false;
      }
      s.granule = granule;
      s.tag = tag | (is_write ? 1 : 0);
      return false;
    }

   private:
    static constexpr unsigned kSlotBits = 10;  // 1,024 slots, 16 KiB
    struct slot {
      std::uintptr_t granule = 0;
      std::uint64_t tag = 0;  // window << 1 | wrote; windows start at 1
    };
    std::array<slot, std::size_t{1} << kSlotBits> slots_{};
  };

  // What one scheduler worker owns (the host is worker 0): its handle ring
  // to the pump, the ring that brings its walked segments back, the segment
  // it appends to with the run [begin, fill) not yet published, its repeat
  // filter, and the filter's drop tally. Only that worker's thread touches
  // the segment cursor, the filter and the tally.
  struct lane {
    lane(unsigned index, std::size_t ring_capacity);
    ~lane();  // frees the segment being filled and the pooled ones
    lane(const lane&) = delete;
    lane& operator=(const lane&) = delete;
    const unsigned index;
    spsc_ring<handle> ring;
    spsc_ring<segment*> spares;
    segment* seg;
    std::uint32_t begin = 0;
    std::uint32_t fill = 0;
    repeat_filter filter;
    std::uint64_t elided = 0;
  };

  // One node's queued handles, in program order; the walk reads at cursor.
  struct node_queue {
    std::vector<handle> ops;
    std::size_t cursor = 0;
  };

  // The accesses the walk has taken since its last flush point, at most
  // kBatchCapacity. While they are one piece of one segment they stay in
  // place and pin the segment; once they span pieces they are copied.
  struct access_run {
    segment* seg = nullptr;  // in place: seg->acc[begin, begin + size)
    std::uint32_t begin = 0;
    std::size_t size = 0;
    std::vector<detect::hooks::access> copy;  // otherwise
  };

  lane& my_lane() {
    return *lanes_[rt::par::scheduler::current_worker_index()];
  }
  // The calling thread's lane, set by bind: a thread with a bound node is a
  // worker of the engine that bound it.
  static thread_local lane* tls_lane_;
  static std::uint32_t current_node();  // checks that one is bound
  // Publishes the calling worker's pending accesses closed by a dag record
  // of its bound node; it closes the worker's repeat-filter window.
  void log(op kind, std::uint32_t arg = 0);
  // Splits an access into granules and appends one access per granule to
  // the worker's segment, dropping same-window repeats when elide_repeats
  // is on.
  void log_access(const void* p, std::size_t bytes, bool is_write);
  void publish(lane& l, op kind, std::uint32_t arg);
  void take_segment(lane& l);

  void pump_main();
  void run_walk();
  std::size_t drain_rings();  // rings -> per-node queues; returns #handles
  void wait_for_handles();    // blocks (helping the drain) until progress
  void enqueue(node_queue& q, const handle& h);
  void trim_queue(node_queue& q);       // drops a long consumed prefix
  void release_queue(std::uint32_t node);  // the node ended: recycle it
  void release(segment* s);  // one reference walked; recycles when last
  void take_run(segment* s, std::uint32_t begin, std::uint32_t count);
  void flush_run();
  void spill_run();      // copies an in-place run out of its segment
  void discard_queued();  // releases every handle the walk did not reach
  void note_held();       // refreshes the held-bytes high-water mark

  config cfg_;
  ring_router router_;
  std::uintptr_t granule_mask_;
  std::vector<std::unique_ptr<lane>> lanes_;  // one per worker, from begin

  std::atomic<std::uint32_t> next_node_{0};
  std::atomic<bool> stop_{false};
  // Segments allocated and not yet freed, over all lanes: workers add, the
  // pump subtracts when its pool is full.
  std::atomic<std::size_t> segments_live_{0};
  bool single_touch_ = false;
  bool begun_ = false;
  bool finished_ = false;

  std::thread pump_;
  std::exception_ptr pump_error_;  // written by pump, read after join

  // Pump-private walk state (touched only by the pump thread). A node's
  // queue exists while the node is open or has unwalked handles; its
  // storage goes to spare_queues_ when the walk leaves the node.
  std::unordered_map<std::uint32_t, node_queue> queues_;
  std::vector<std::vector<handle>> spare_queues_;
  // Finished futures by online node id: what ret() returned, for get().
  std::unordered_map<std::uint32_t, rt::child_record> futures_;
  access_run run_;
  bool sinking_ = false;  // after a walk error: release handles as drained
  std::size_t queue_slots_ = 0;        // handle capacity of every queue
  std::size_t log_records_ = 0;        // records in queued handles now
  std::size_t peak_log_records_ = 0;   // its high-water mark
  std::size_t peak_held_bytes_ = 0;
};

}  // namespace frd::online
