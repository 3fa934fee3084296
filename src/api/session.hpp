// frd::session — the public facade of FutureRD.
//
// One session = one detection run: it owns the reachability backend
// (resolved by name through the backend_registry), the detection core, the
// serial runtime the program executes on, and the race report; run()
// installs the session's hook sink RAII-style so instrumented kernels route
// into this session's detector for exactly the duration of the run, and
// stacked sessions unwind to the enclosing session's sink.
//
//   frd::session s({.backend = "multibags+",
//                   .level = frd::level::full,
//                   .granule = 4,
//                   .max_retained_races = 64});
//   s.run([&] {
//     auto f = s.runtime().create_future([&] { ... });
//     ...
//     f.get();
//   });
//   if (s.report().any()) ...
//
// run() accepts either a program body (no arguments; executed under
// runtime().run) or a driver taking the runtime by reference (for harnesses
// whose kernels call rt.run themselves); both run with the hook sink
// installed. With options::runtime = parallel the program instead executes
// on the work-stealing scheduler with detection attached live through the
// online pump (src/online/, DESIGN.md §9); drivers must then be
// runtime-generic (a generic lambda or runtime-templated kernel).
//
// A session runs in one of three explicit modes (session_mode):
//
//   live     the default — detect while the program executes.
//   record   record_to(sink) before run(): the run is additionally captured
//            losslessly as a trace (dag events + granule-normalized
//            accesses) while detecting as usual.
//   replay   replay(source) instead of run(): detection consumes a stored
//            trace; no user code executes. Replaying a trace under the same
//            backend and granule yields a race report identical to the live
//            run that recorded it.
//
// A session performs one detection run — the ids the runtime mints are
// one-shot — but the OBJECT is recyclable: reset() returns it to the
// pristine post-construction state under the same options (fresh backend
// and shadow state, cleared report and caches), after which it can run,
// record, or replay again. The ingest daemon's session pool (src/serve/)
// recycles sessions across client streams exactly this way; everyone else
// can keep constructing a fresh session per run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "detect/detector.hpp"
#include "detect/hooks.hpp"
#include "detect/registry.hpp"
#include "online/engine.hpp"
#include "online/runtime.hpp"
#include "runtime/serial.hpp"
#include "support/check.hpp"

namespace frd {

namespace trace {
class trace_sink;
class trace_source;
class trace_recorder;
class trace_player;
}  // namespace trace

using detect::level;

// Which runtime executes the session's program in run(): the serial
// depth-first runtime (the paper's detection substrate, §2) or the
// work-stealing parallel runtime with the online detection pump attached
// (src/online/; DESIGN.md §9). Replay has no runtime and ignores this.
enum class runtime_kind : std::uint8_t { serial, parallel };

constexpr std::string_view to_string(runtime_kind k) {
  switch (k) {
    case runtime_kind::serial: return "serial";
    case runtime_kind::parallel: return "parallel";
  }
  return "?";
}

// How a session consumes its event stream (see the header comment).
enum class session_mode : std::uint8_t { live, record, replay };

constexpr std::string_view to_string(session_mode m) {
  switch (m) {
    case session_mode::live: return "live";
    case session_mode::record: return "record";
    case session_mode::replay: return "replay";
  }
  return "?";
}

class session {
 public:
  struct options {
    std::string backend = "multibags+";
    detect::level level = detect::level::full;
    // Shadow granule size in bytes (power of two; 4 = the paper's artifact).
    std::size_t granule = 4;
    // Full race records kept for diagnostics (counting dedupes regardless).
    std::size_t max_retained_races = detect::race_report::kDefaultRetained;
    // Shadow-memory store name. The one store is "hashed-page", the
    // paper's two-level layout (DESIGN.md §2); any other name throws
    // shadow::store_error.
    std::string shadow_store = std::string(shadow::kDefaultStore);
    // Replay only: longest run of access events handed to the detector in
    // one batched on_accesses call (trace_player::kDefaultBatchCapacity).
    // Also bounds how many accesses share one batched reachability query;
    // bench/replay_throughput --batch-size sweeps it. The race report is
    // batch-size-independent.
    std::size_t replay_batch = 256;
    // Which runtime run() executes the program on. serial is the paper's
    // substrate; parallel runs the program on the work-stealing scheduler
    // with detection live via the online pump (DESIGN.md §9). run() then
    // requires a program body or a runtime-generic driver (one invocable
    // with online::runtime&).
    runtime_kind runtime = runtime_kind::serial;
    // Scheduler width for runtime == parallel (0 = hardware concurrency).
    unsigned runtime_workers = 0;
    // Sampling mode (DESIGN.md §8): run the full §3 protocol on a seeded,
    // reproducible fraction of accesses; sampled-out accesses skip the
    // shadow store and the reachability query entirely. Must be in (0, 1];
    // 1.0 disarms sampling and keeps reports byte-identical to a detector
    // without the knob. The policy keys the decision on the granule
    // address (default: a granule is always or never watched, the sampled
    // report is a strict subset of the full one) or on the dag-event epoch
    // (whole windows admitted or skipped together).
    double sample_rate = 1.0;
    std::uint64_t sample_seed = 1;
    detect::sample_policy sampling = detect::sample_policy::granule;
    // Bounded-history mode: retained readers per granule
    // (kUnboundedHistory = the full §3 list; finite depth >= 1 keeps the
    // most recent readers, bounding memory and purge cost — short-race-
    // window detection). Depth 0 is a configuration error.
    std::size_t shadow_history_depth = shadow::kUnboundedHistory;
    // Abort on a second get() of the same future handle (paper §2's
    // structured single-touch restriction, enforced by the runtime).
    bool enforce_single_touch = false;
  };

  session() : session(options{}) {}
  explicit session(std::string backend_name)
      : session(options{.backend = std::move(backend_name)}) {}
  explicit session(const char* backend_name)
      : session(options{.backend = backend_name}) {}
  // Throws detect::backend_error when options::backend is not registered,
  // shadow::store_error when options::shadow_store is not "hashed-page".
  explicit session(options opt);
  ~session();
  session(const session&) = delete;
  session& operator=(const session&) = delete;

  // Additional execution listeners (oracles, dag recorders) observing this
  // session's run. Must be called before runtime() / run() / replay().
  void add_listener(rt::execution_listener* l);

  // Switches the session into record mode: the next run() is captured into
  // `out` (dag events + accesses, normalized to this session's granule)
  // while detection proceeds as usual. `out` must outlive the session's
  // runs. Must be called before runtime() / run(); a session records or
  // replays, never both.
  void record_to(trace::trace_sink& out);

  // Replay mode: drains `src` through this session's detector — no user
  // code executes, run() must not be called. One-shot like run(). Throws
  // trace::trace_error when the trace's granule differs from this session's
  // (the shadow behavior would silently diverge otherwise). Extra listeners
  // added via add_listener() observe the replayed stream too. Returns the
  // number of trace events consumed.
  //
  // The race report, get_count() and access_count() match the recorded live
  // run exactly (an access counts once per granule it touches, live or
  // replayed).
  std::uint64_t replay(trace::trace_source& src);

  // Periodic observation hook for long replays: `fn` fires with the running
  // (events, accesses) totals roughly every `every_events` consumed events.
  // An exception thrown from the callback aborts the replay and propagates
  // out of replay() — the ingest daemon enforces per-stream memory budgets
  // by throwing here. every_events == 0 (or a null fn) disables it.
  struct replay_checkpoint {
    std::uint64_t every_events = 0;
    std::function<void(std::uint64_t events, std::uint64_t accesses)> fn;
  };
  std::uint64_t replay(trace::trace_source& src, const replay_checkpoint& cp);

  // Returns the session to its pristine post-construction state under the
  // same options: fresh backend and shadow store (pages and reader overflow
  // released), report/counters/query-plane caches cleared (retaining buffer
  // capacity), mode back to live, recorder and extra listeners detached.
  // After reset() the session can run, record, or replay again — the seam
  // that lets the ingest daemon's pool recycle sessions across streams.
  void reset();

  // Memory accounting snapshot (shadow pages, reader overflow, report
  // capacity in use) — the counters the serve daemon's per-session budget
  // enforcement reads; `frd-trace run` prints them.
  detect::memory_stats memory_stats() const { return det_->memory(); }

  // Incremental race observer: invoked once per recorded race, in encounter
  // order (see detector::set_race_sink). Cleared by reset() — a per-run
  // capture must not fire for the next pooled stream.
  void set_race_sink(std::function<void(const detect::race&)> sink) {
    det_->set_race_sink(std::move(sink));
  }

  session_mode mode() const { return mode_; }

  // The serial runtime this session's program executes on. At
  // level::baseline the runtime carries no listener (the paper's zero-work
  // configuration). Only for runtime_kind::serial sessions: the parallel
  // runtime is per-run wiring owned by run() itself.
  rt::serial_runtime& runtime();

  // Returns whatever a runtime-driver callable returns (void for program
  // bodies), so kernels can hand their answer straight out:
  //   int got = s.run([&](rt::serial_runtime& rt) { return kernel(rt); });
  //
  // Dispatch by options::runtime and the callable's shape:
  //   - a program body (no arguments) runs under the configured runtime;
  //   - a driver invocable with BOTH rt::serial_runtime& and
  //     online::runtime& (a generic lambda / runtime-templated kernel) runs
  //     under the configured runtime — the portable form every corpus
  //     program uses;
  //   - a serial-only driver requires runtime_kind::serial, an online-only
  //     driver requires runtime_kind::parallel (hard error otherwise).
  // Under runtime_kind::parallel the run executes on the work-stealing
  // scheduler with the online pump feeding this session's detector /
  // recorder (DESIGN.md §9); online::online_error propagates from here.
  template <typename F>
  decltype(auto) run(F&& f) {
    constexpr bool serial_driver = std::is_invocable_v<F&, rt::serial_runtime&>;
    constexpr bool online_driver = std::is_invocable_v<F&, online::runtime&>;
    if constexpr (serial_driver && online_driver) {
      if (opt_.runtime == runtime_kind::parallel) {
        return run_online_driver(std::forward<F>(f));
      }
      rt::serial_runtime& rt = runtime();
      detect::hooks::scoped_sink sink(sink_);
      return f(rt);
    } else if constexpr (serial_driver) {
      FRD_CHECK_MSG(opt_.runtime == runtime_kind::serial,
                    "this driver requires the serial runtime but the session "
                    "is configured with runtime = parallel; make the driver "
                    "runtime-generic (take auto& rt) to run it online");
      rt::serial_runtime& rt = runtime();
      detect::hooks::scoped_sink sink(sink_);
      return f(rt);
    } else if constexpr (online_driver) {
      FRD_CHECK_MSG(opt_.runtime == runtime_kind::parallel,
                    "this driver requires the parallel runtime; construct "
                    "the session with runtime = parallel");
      return run_online_driver(std::forward<F>(f));
    } else {
      if (opt_.runtime == runtime_kind::parallel) {
        run_online_body(std::forward<F>(f));
      } else {
        rt::serial_runtime& rt = runtime();
        detect::hooks::scoped_sink sink(sink_);
        rt.run(std::forward<F>(f));
      }
    }
  }

  const options& opts() const { return opt_; }
  const detect::backend_info& info() const { return *info_; }
  std::string_view backend_name() const { return info_->name; }
  detect::level lvl() const { return opt_.level; }

  detect::detector& detector() { return *det_; }
  const detect::detector& detector() const { return *det_; }
  detect::reachability_backend& backend() { return det_->backend(); }
  const detect::reachability_backend& backend() const {
    return det_->backend();
  }

  const detect::race_report& report() const { return det_->report(); }
  std::uint64_t access_count() const { return det_->access_count(); }
  std::uint64_t get_count() const { return det_->get_count(); }
  std::uint64_t structured_violations() const {
    return det_->structured_violations();
  }
  // Query-plane counters: batching effectiveness of this session's
  // reachability queries (lookups, epoch-cache hits, issued batches).
  const detect::query_plane_stats& query_stats() const {
    return det_->query_stats();
  }
  // One-element wrapper over the backend's reachability_view (the query
  // plane's only scalar entry point) — for tests and diagnostics.
  bool precedes_current(rt::strand_id u) { return det_->precedes_current(u); }

  // Explicit instrumentation points — exactly what hooks::active emits.
  // Tests and uninstrumented callers mark accesses with these. In record
  // mode they route through the recorder so explicit accesses land in the
  // trace like instrumented ones.
  void read(const void* p, std::size_t bytes = 4) { sink_->on_read(p, bytes); }
  void write(const void* p, std::size_t bytes = 4) {
    sink_->on_write(p, bytes);
  }

 private:
  // Builds the listener stack (detector unless baseline, recorder, extras);
  // shared by live runs, replay, and online-parallel runs so all observe
  // identically.
  rt::execution_listener* build_listener();

  // Per-run wiring of an online-parallel run: the engine (the pump wired to
  // this session's listener stack and access sink), the work-stealing
  // runtime it observes, and the sink swap that routes s.read/s.write and
  // the hook sink through the engine's ring router for the duration. The
  // destructor restores the sink and tears the pump down even on unwind;
  // finish() surfaces pump-side errors (online_error) on the host thread.
  // The workers drop same-window repeat accesses (DESIGN.md §9) unless the
  // run records (the trace keeps every access) or samples (the sampling
  // counters must see every access); the dropped tally is folded into the
  // detector once the pump is joined.
  struct online_run {
    explicit online_run(session& s)
        : s_(s),
          eng_(online::engine::config{
              .granule = s.opt_.granule,
              .listener = s.build_listener(),
              .sink = s.sink_,
              .elide_repeats =
                  s.recorder_ == nullptr && s.opt_.sample_rate >= 1.0}),
          ort_(s.opt_.runtime_workers, &eng_),
          saved_sink_(s.sink_),
          hook_guard_(&eng_.router()) {
      ort_.enforce_single_touch(s.opt_.enforce_single_touch);
      s.sink_ = &eng_.router();
    }
    ~online_run() {
      s_.sink_ = saved_sink_;
      eng_.abort();  // no-op when finish() already joined the pump
    }
    online::runtime& rt() { return ort_; }
    void finish() {
      eng_.finish();
      s_.det_->note_elided(eng_.elided());
    }

    session& s_;
    online::engine eng_;
    online::runtime ort_;
    detect::hooks::access_sink* saved_sink_;
    detect::hooks::scoped_sink hook_guard_;
  };

  template <typename F>
  decltype(auto) run_online_driver(F&& f) {
    FRD_CHECK_MSG(mode_ != session_mode::replay,
                  "a replay session has no runtime: the trace stands in for "
                  "the program");
    online_run orun(*this);
    if constexpr (std::is_void_v<decltype(f(orun.rt()))>) {
      f(orun.rt());
      orun.finish();
    } else {
      decltype(auto) r = f(orun.rt());
      orun.finish();
      return r;
    }
  }

  template <typename F>
  void run_online_body(F&& f) {
    FRD_CHECK_MSG(mode_ != session_mode::replay,
                  "a replay session has no runtime: the trace stands in for "
                  "the program");
    online_run orun(*this);
    orun.rt().run(std::forward<F>(f));
    orun.finish();
  }

  options opt_;
  const detect::backend_info* info_;
  session_mode mode_ = session_mode::live;
  // The access sink run() installs: the detector, until record_to() swaps in
  // the recorder (which forwards to the detector). Cached so the live access
  // path stays one indirect call.
  detect::hooks::access_sink* sink_ = nullptr;
  std::unique_ptr<detect::detector> det_;
  std::unique_ptr<trace::trace_recorder> recorder_;
  std::vector<rt::execution_listener*> extras_;
  // Built on first use so extra listeners can be attached after
  // construction; the mux only exists when extras or a recorder are
  // present, keeping the plain live event path a single virtual call (the
  // paper's "reachability" overhead measurement).
  std::unique_ptr<rt::listener_mux> mux_;
  std::unique_ptr<rt::serial_runtime> rt_;
};

}  // namespace frd
