#include "api/session.hpp"

#include "support/check.hpp"
#include "trace/event.hpp"
#include "trace/player.hpp"
#include "trace/recorder.hpp"

namespace frd {

session::session(options opt) : opt_(std::move(opt)) {
  if (opt_.runtime == runtime_kind::serial && opt_.runtime_workers != 0) {
    throw detect::backend_error(
        "runtime_workers parallelizes the program and needs runtime = "
        "parallel; the serial runtime has exactly one worker");
  }
  if (opt_.runtime_workers > 256) {
    throw detect::backend_error("runtime_workers must be in [0, 256]");
  }
  const detect::backend_registry& reg = detect::backend_registry::instance();
  info_ = &reg.at(opt_.backend);  // throws backend_error listing names
  if (opt_.shadow_store != shadow::kDefaultStore) {
    throw shadow::unknown_store(opt_.shadow_store);
  }
  det_ = std::make_unique<detect::detector>(
      info_->make(), detect::detector_config{
                         .lvl = opt_.level,
                         .granule = opt_.granule,
                         .max_retained_races = opt_.max_retained_races,
                         .sample_rate = opt_.sample_rate,
                         .sample_seed = opt_.sample_seed,
                         .sampling = opt_.sampling,
                         .shadow_history_depth = opt_.shadow_history_depth,
                         .futures = info_->futures,
                     });
  sink_ = det_.get();
}

session::~session() = default;

void session::add_listener(rt::execution_listener* l) {
  FRD_CHECK_MSG(rt_ == nullptr,
                "add_listener must run before the session's runtime is built "
                "(first runtime()/run() call)");
  FRD_CHECK_MSG(l != nullptr, "null execution listener");
  extras_.push_back(l);
}

void session::record_to(trace::trace_sink& out) {
  FRD_CHECK_MSG(rt_ == nullptr,
                "record_to must run before the session's runtime is built "
                "(first runtime()/run() call)");
  FRD_CHECK_MSG(mode_ == session_mode::live,
                "a session records or replays exactly once");
  recorder_ = std::make_unique<trace::trace_recorder>(out, opt_.granule);
  recorder_->set_next(det_.get());
  sink_ = recorder_.get();
  mode_ = session_mode::record;
}

std::uint64_t session::replay(trace::trace_source& src) {
  return replay(src, replay_checkpoint{});
}

std::uint64_t session::replay(trace::trace_source& src,
                              const replay_checkpoint& cp) {
  FRD_CHECK_MSG(rt_ == nullptr,
                "replay needs a fresh session: this one already built its "
                "runtime (run() was called or recording is set up)");
  FRD_CHECK_MSG(mode_ == session_mode::live,
                "a session records or replays exactly once (reset() first)");
  if (src.header().granule != opt_.granule) {
    throw trace::trace_error(
        "trace was recorded at granule " + std::to_string(src.header().granule) +
        " but this session detects at granule " + std::to_string(opt_.granule) +
        "; construct the session with the trace's granule");
  }
  mode_ = session_mode::replay;
  trace::trace_player player(src, opt_.replay_batch);
  // Granule-sampling replay fast path: sampled-out accesses drop inside the
  // player, and the tally is handed back so the detector's access count and
  // skipped counter equal the in-protocol carve-out's (DESIGN.md §8). The
  // filter is disarmed at rate 1.0 and under the epoch policy.
  player.set_prefilter(det_->replay_prefilter());
  trace::trace_player::stats st;
  try {
    if (cp.every_events == 0 || !cp.fn) {
      st = player.play(build_listener(), det_.get());
    } else {
      st = player.play(build_listener(), det_.get(), cp.every_events,
                       [&](const trace::trace_player::stats& running) {
                         cp.fn(running.events, running.accesses);
                       });
    }
  } catch (...) {
    // An aborted replay (e.g. the ingest daemon's budget cancel throwing
    // from the checkpoint) still settles the drop tally, so the counter
    // invariant sampled + skipped == access_count holds at every exit.
    det_->note_prefiltered(player.prefiltered_so_far());
    throw;
  }
  det_->note_prefiltered(st.prefiltered);
  return st.events;
}

// Pristine state, same options: the detector resets in place (fresh backend
// instance, fresh shadow store, cleared report and caches), the runtime /
// recorder / mux / extra listeners are dropped entirely — they are
// per-run wiring, and the next run rebuilds them. The backend_info pointer
// and options survive, so a pooled session recycles without re-resolving
// anything.
void session::reset() {
  det_->reset(info_->make());
  recorder_.reset();
  mux_.reset();
  rt_.reset();
  extras_.clear();
  mode_ = session_mode::live;
  sink_ = det_.get();
}

// The one definition of who observes this session's event stream — live
// runs and replays must wire identically or their reports diverge. At
// level::baseline the detector gets no dag events (the paper's zero-work
// configuration); the recorder (record mode) and extras always listen.
rt::execution_listener* session::build_listener() {
  const bool track = opt_.level != detect::level::baseline;
  if (track && extras_.empty() && recorder_ == nullptr) return det_.get();
  if (track || !extras_.empty() || recorder_ != nullptr) {
    mux_ = std::make_unique<rt::listener_mux>();
    if (track) mux_->add(det_.get());
    if (recorder_ != nullptr) mux_->add(recorder_.get());
    for (rt::execution_listener* l : extras_) mux_->add(l);
    return mux_.get();
  }
  return nullptr;
}

rt::serial_runtime& session::runtime() {
  FRD_CHECK_MSG(mode_ != session_mode::replay,
                "a replay session has no runtime: the trace stands in for "
                "the program");
  FRD_CHECK_MSG(opt_.runtime == runtime_kind::serial,
                "this session is configured with runtime = parallel; the "
                "parallel runtime is per-run wiring — pass run() a program "
                "body or a runtime-generic driver instead of calling "
                "runtime()");
  if (rt_ == nullptr) {
    rt_ = std::make_unique<rt::serial_runtime>(build_listener());
    rt_->enforce_single_touch(opt_.enforce_single_touch);
  }
  return *rt_;
}

}  // namespace frd
