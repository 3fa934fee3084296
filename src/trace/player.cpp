#include "trace/player.hpp"

#include <string>
#include <vector>

namespace frd::trace {

namespace {

// Recorded addresses are 64-bit; on a narrower host a silent truncation
// would collide distinct granules and quietly change the race report, so
// out-of-range addresses are an error like any other malformed input.
std::uintptr_t checked_address(std::uint64_t addr) {
  if constexpr (sizeof(std::uintptr_t) < sizeof(std::uint64_t)) {
    if (addr > UINTPTR_MAX) {
      throw trace_error("trace granule address " + std::to_string(addr) +
                        " does not fit this host's pointers; replay the "
                        "trace on a 64-bit build");
    }
  }
  return static_cast<std::uintptr_t>(addr);
}

}  // namespace

trace_player::stats trace_player::play(rt::execution_listener* listener,
                                       detect::hooks::access_sink* sink) {
  return play(listener, sink, 0, {});
}

trace_player::stats trace_player::play(
    rt::execution_listener* listener, detect::hooks::access_sink* sink,
    std::uint64_t every_events,
    const std::function<void(const stats&)>& checkpoint) {
  const std::size_t granule = src_.header().granule;
  std::uint64_t next_checkpoint =
      (every_events && checkpoint) ? every_events : 0;
  prefiltered_ = 0;
  stats st;
  std::vector<rt::child_record> children;
  std::vector<rt::strand_id> joins;
  // Access runs accumulate here and flush as one on_accesses call before
  // any dag event fires, so the sink observes accesses and dag events in
  // true program order — the batching is invisible except in dispatch cost.
  // The buffer is pre-sized and filled through a manual cursor so the armed
  // prefilter loop below can append branchlessly.
  std::vector<detect::hooks::access> batch(batch_capacity_);
  std::size_t filled = 0;
  const auto flush = [&] {
    if (filled == 0) return;
    if (sink) {
      sink->on_accesses(
          std::span<const detect::hooks::access>(batch.data(), filled),
          granule);
    }
    filled = 0;
  };
  // One batch element from one access event that came through next() (an
  // access that access_run did not hand out, such as one a streaming
  // source's block boundary cuts). The armed granule-sampling prefilter
  // drops a sampled-out access here, before it costs a batch slot and the
  // sink's per-access scan; the tally goes back to the detector
  // (note_prefiltered) so its counters match the in-protocol carve-out
  // exactly.
  const auto push_access = [&](const trace_event& ev) {
    const std::uintptr_t addr = checked_address(ev.access.addr);
    if (prefilter_.armed && !prefilter_.admits_granule(addr)) {
      ++prefiltered_;
      return;
    }
    batch[filled++] = detect::hooks::access{addr, ev.kind == event_kind::write};
    if (filled == batch_capacity_) flush();
  };
  trace_event e;
  for (;;) {
    // Bulk fast path: whole access runs come back as views
    // (trace_source::access_run), iterated in place — no per-event virtual
    // dispatch. memory_trace hands out its storage; the binary readers
    // decode a run into storage of their own and end it early at a block
    // boundary, where the next() path below takes one event. Checkpoints
    // land at run boundaries (runs are at most batch_capacity_ long, well
    // inside any useful cadence) and still never inside a flattened sync
    // run.
    for (;;) {
      const std::span<const trace_event> run = src_.access_run(batch_capacity_);
      if (run.empty()) break;
      st.events += run.size();
      st.accesses += run.size();
      if (!prefilter_.armed) {
        for (const trace_event& ev : run) {
          batch[filled++] = detect::hooks::access{
              checked_address(ev.access.addr), ev.kind == event_kind::write};
          if (filled == batch_capacity_) flush();
        }
      } else {
        // Branchless filtering: the slot is written unconditionally and the
        // cursor advances only for admitted accesses, so the data-random
        // admit decision (the whole point of sampling is that it is ~rate
        // biased) never becomes a mispredicted branch. filled < capacity
        // holds on entry to every iteration: the flush fires the moment the
        // cursor reaches capacity, and run length never exceeds it.
        std::uint64_t dropped = 0;
        for (const trace_event& ev : run) {
          const std::uintptr_t addr = checked_address(ev.access.addr);
          const bool admit = prefilter_.admits_granule(addr);
          batch[filled] =
              detect::hooks::access{addr, ev.kind == event_kind::write};
          filled += admit;
          dropped += !admit;
          if (filled == batch_capacity_) flush();
        }
        prefiltered_ += dropped;
      }
      if (next_checkpoint && st.events >= next_checkpoint) {
        st.prefiltered = prefiltered_;
        checkpoint(st);
        next_checkpoint = st.events + every_events;
      }
    }
    if (!src_.next(e)) break;
    ++st.events;
    if (next_checkpoint && st.events >= next_checkpoint) {
      st.prefiltered = prefiltered_;
      checkpoint(st);
      next_checkpoint = st.events + every_events;
    }
    if (e.kind == event_kind::read || e.kind == event_kind::write) {
      ++st.accesses;
      push_access(e);
      continue;
    }
    flush();
    switch (e.kind) {
      case event_kind::program_begin:
        if (listener) {
          listener->on_program_begin(e.program_begin.main_fn,
                                     e.program_begin.first);
        }
        break;
      case event_kind::program_end:
        if (listener) listener->on_program_end(e.program_end.last);
        break;
      case event_kind::strand_begin:
        if (listener) {
          listener->on_strand_begin(e.strand_begin.s, e.strand_begin.owner);
        }
        break;
      case event_kind::spawn:
        if (listener) {
          listener->on_spawn(e.fork.parent, e.fork.u, e.fork.child, e.fork.w,
                             e.fork.v);
        }
        break;
      case event_kind::create:
        if (listener) {
          listener->on_create(e.fork.parent, e.fork.u, e.fork.child, e.fork.w,
                              e.fork.v);
        }
        break;
      case event_kind::ret:
        if (listener) listener->on_return(e.ret.child, e.ret.last, e.ret.parent);
        break;
      case event_kind::sync_begin: {
        const rt::func_id fn = e.sync_begin.fn;
        const rt::strand_id before = e.sync_begin.before;
        const std::uint32_t count = e.sync_begin.count;
        children.clear();
        joins.clear();
        for (std::uint32_t i = 0; i < count; ++i) {
          if (!src_.next(e) || e.kind != event_kind::sync_child) {
            throw trace_error(
                "malformed trace: sync_begin announced " +
                std::to_string(count) + " children but child " +
                std::to_string(i) + " is missing");
          }
          ++st.events;
          children.push_back(rt::child_record{
              e.sync_child.child, e.sync_child.fork_strand,
              e.sync_child.child_first, e.sync_child.child_last,
              e.sync_child.cont_first});
          joins.push_back(e.sync_child.join_strand);
        }
        if (listener) {
          rt::execution_listener::sync_event se{fn, before, children, joins};
          listener->on_sync(se);
        }
        break;
      }
      case event_kind::sync_child:
        throw trace_error(
            "malformed trace: sync_child outside a sync_begin run");
      case event_kind::get:
        if (listener) {
          listener->on_get(e.get.fn, e.get.u, e.get.v, e.get.fut, e.get.w,
                           e.get.creator);
        }
        break;
      case event_kind::read:
      case event_kind::write:
        break;  // handled (batched) before the switch
    }
  }
  flush();
  st.prefiltered = prefiltered_;
  return st;
}

}  // namespace frd::trace
