// Online detection engine: runs a program on the work-stealing parallel
// runtime with the serial detection stack attached live.
//
// Architecture (DESIGN.md §9):
//
//   program threads                      pump thread
//   ---------------                      -----------
//   online::runtime ops ──► wire_rec ──► per-worker SPSC rings
//   hooks / session::read ──► router ──► (granulated access records, less
//                        the same-window repeats each worker's filter drops)
//                                        │ drain: demux by node id into
//                                        │ per-node logs (program order)
//                                        ▼
//                                 rt::canonical_walk
//                                        │ mints strand/function ids: the
//                                        │ walk serial_runtime drives too
//                                        ▼
//                        execution_listener + access_sink (unchanged
//                        detector / recorder / mux — the serial stack)
//
// The ARBITRATION ORDER over dag events is the canonical depth-first order:
// each event is sequence-stamped at the point the pump commits it to the
// listener, and that order is byte-identical to the event stream the serial
// runtime would emit for the same program. Attaching a trace_recorder
// therefore yields a trace whose *serial replay* reproduces the online race
// report byte-for-byte — the subsystem's conformance oracle (test_online).
//
// Liveness: the pump is a dedicated thread, never a scheduler worker. When
// the walk needs records that have not arrived yet (a stolen child still
// executing), it drains every ring while it waits, so producers spinning on
// a full ring always make progress. Untouched futures are executed by
// engine::quiesce before the root's `end` record is logged, so the walk
// always terminates.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
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

class engine {
 public:
  struct config {
    unsigned workers = 0;  // scheduler width; 0 = hardware_concurrency
    std::size_t granule = 4;
    rt::execution_listener* listener = nullptr;  // dag events (detector/mux)
    detect::hooks::access_sink* sink = nullptr;  // accesses (detector/recorder)
    std::size_t ring_capacity = std::size_t{1} << 15;  // records per worker
    // Drop same-window repeat accesses on the workers instead of pushing
    // them (repeat_filter below); elided() counts them. Leave it off when
    // the sink must see every access (a recorder, a sampling detector).
    bool elide_repeats = false;
  };

  // Longest access run the pump hands to one on_accesses call; a replay
  // given it as its batch capacity batches exactly as the pump does.
  static constexpr std::size_t kBatchCapacity = 4096;

  explicit engine(const config& cfg);
  ~engine();
  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  rt::par::scheduler& sched() { return sched_; }
  unsigned worker_count() const { return sched_.worker_count(); }

  // Thread-safe access_sink that granulates and routes into the calling
  // worker's ring; the session installs it as the hook sink for the run.
  detect::hooks::access_sink& router() { return router_; }

  // ---- producer side (called from program threads via online::runtime) ----
  std::uint32_t alloc_node() {
    return next_node_.fetch_add(1, std::memory_order_relaxed);
  }
  // Pushes a dag record to the calling worker's ring; it closes the
  // worker's repeat-filter window.
  void log(const wire_rec& r);
  // Splits an access into granules and pushes one record per granule,
  // dropping same-window repeats when elide_repeats is on.
  void log_access(const void* p, std::size_t bytes, bool is_write);
  void note_task_started() {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_task_finished() {
    outstanding_.fetch_sub(1, std::memory_order_release);
  }

  // Thread-local binding of the function instance currently executing on
  // this thread; task wrappers save/restore it around bodies. Every
  // binding opens a new repeat-filter window.
  static std::uint32_t current_node();
  static std::uint32_t bind_node(std::uint32_t node);  // returns previous

  void enforce_single_touch(bool on) { single_touch_ = on; }
  bool single_touch() const { return single_touch_; }

  // ---- lifecycle (host thread; driven by online::runtime::run + session) ----
  void begin_program();  // mints node 0 (main) and starts the pump
  void quiesce();        // help until every pushed task finished (untouched
                         // futures included); call from inside the scheduler
  void end_program();    // logs main's `end`; the walk can now complete
  void finish();         // joins the pump and rethrows its error, if any
  void abort() noexcept;  // finish() for unwind paths: joins, swallows

  // ---- counters (host thread, once the program has quiesced) ----
  // Accesses the workers dropped as same-window repeats, over all workers.
  std::uint64_t elided() const;
  // High-water mark of wire records the pump held in its per-node op logs
  // (valid after finish()).
  std::size_t peak_log_records() const { return peak_log_records_; }

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

  // What one scheduler worker owns (the host is worker 0): its ring to the
  // pump, its repeat filter, and the filter's drop tally. Only that
  // worker's thread touches the filter and the tally.
  struct lane {
    explicit lane(std::size_t ring_capacity) : ring(ring_capacity) {}
    spsc_ring<wire_rec> ring;
    repeat_filter filter;
    std::uint64_t elided = 0;
  };

  struct node_log {
    std::vector<wire_rec> ops;
    std::size_t cursor = 0;
  };

  lane& my_lane() {
    return *lanes_[rt::par::scheduler::current_worker_index()];
  }
  void push(lane& l, const wire_rec& r);
  void pump_main();
  void run_walk();
  std::size_t drain_rings();     // rings -> per-node logs; returns #records
  void wait_for_records();       // blocks (helping the drain) until progress
  node_log& log_for(std::uint32_t node);
  void trim_log(node_log& l);          // drops a long consumed prefix
  void release_log(std::uint32_t node);  // the node ended: recycle its log

  config cfg_;
  rt::par::scheduler sched_;
  ring_router router_;
  std::uintptr_t granule_mask_;
  std::vector<std::unique_ptr<lane>> lanes_;

  std::atomic<std::uint32_t> next_node_{0};
  std::atomic<std::uint64_t> outstanding_{0};
  std::atomic<bool> stop_{false};
  bool single_touch_ = false;
  bool begun_ = false;
  bool ended_ = false;
  bool finished_ = false;

  std::thread pump_;
  std::exception_ptr pump_error_;  // written by pump, read after join

  // Pump-private walk state (touched only by the pump thread). A node's
  // log is released when the walk leaves the node, and its storage goes to
  // spare_logs_ for the next node that needs one.
  std::vector<node_log> logs_;
  std::vector<std::vector<wire_rec>> spare_logs_;
  std::size_t log_records_ = 0;       // records held in logs_ now
  std::size_t peak_log_records_ = 0;  // its high-water mark
};

}  // namespace frd::online
