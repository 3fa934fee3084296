#include "trace/player.hpp"

#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "runtime/canonical_walk.hpp"

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

// `kind{field value, ...}`, for the messages below.
std::string describe(const trace_event& e) {
  std::string out(to_string(e.kind));
  const event_fields f = fields_of(e);
  const char* const* names = field_names(e.kind);
  out += '{';
  for (int i = 0; i < f.n; ++i) {
    if (i > 0) out += ", ";
    out += names[i];
    out += ' ';
    out += std::to_string(f.v[i]);
  }
  out += '}';
  return out;
}

[[noreturn]] void reject(std::uint64_t index, const trace_event& held,
                         const std::string& walk) {
  throw trace_error("trace event " + std::to_string(index) +
                    " is not the canonical walk's: the trace holds " +
                    describe(held) + ", the walk " + walk);
}

// The listener the player hands the walk. Each event the walk emits is
// compared with the trace's next event (the one that selected the step
// first) and reaches `next` only when the two are equal.
class walk_check final : public rt::execution_listener {
 public:
  walk_check(trace_source& src, rt::execution_listener* next,
             std::uint64_t& events)
      : src_(src), next_(next), events_(events) {}

  // The step's first event, already taken from the source.
  void select(const trace_event& e) {
    held_ = e;
    selected_ = true;
  }

  void on_program_begin(rt::func_id f, rt::strand_id s) override {
    expect(event_kind::program_begin, {f, s});
    if (next_) next_->on_program_begin(f, s);
  }
  void on_program_end(rt::strand_id s) override {
    expect(event_kind::program_end, {s});
    if (next_) next_->on_program_end(s);
  }
  void on_strand_begin(rt::strand_id s, rt::func_id f) override {
    expect(event_kind::strand_begin, {s, f});
    if (next_) next_->on_strand_begin(s, f);
  }
  void on_spawn(rt::func_id p, rt::strand_id u, rt::func_id c,
                rt::strand_id w, rt::strand_id v) override {
    expect(event_kind::spawn, {p, u, c, w, v});
    if (next_) next_->on_spawn(p, u, c, w, v);
  }
  void on_create(rt::func_id p, rt::strand_id u, rt::func_id c,
                 rt::strand_id w, rt::strand_id v) override {
    expect(event_kind::create, {p, u, c, w, v});
    if (next_) next_->on_create(p, u, c, w, v);
  }
  void on_return(rt::func_id c, rt::strand_id last, rt::func_id p) override {
    expect(event_kind::ret, {c, last, p});
    if (next_) next_->on_return(c, last, p);
  }
  void on_sync(const sync_event& e) override {
    expect(event_kind::sync_begin,
           {e.fn, e.before, static_cast<std::uint32_t>(e.children.size())});
    for (std::size_t i = 0; i < e.children.size(); ++i) {
      const rt::child_record& c = e.children[i];
      expect(event_kind::sync_child,
             {c.child, c.fork_strand, c.child_first, c.child_last,
              c.cont_first, e.join_strands[i]});
    }
    if (next_) next_->on_sync(e);
  }
  void on_get(rt::func_id fn, rt::strand_id u, rt::strand_id v,
              rt::func_id fut, rt::strand_id w,
              rt::strand_id creator) override {
    expect(event_kind::get, {fn, u, v, fut, w, creator});
    if (next_) next_->on_get(fn, u, v, fut, w, creator);
  }

 private:
  // Takes the trace's next event and holds it to the walk's: kind `k` with
  // `ids` in wire order. A dag event's fields are 32-bit ids laid out from
  // the start of trace_event's union (event.hpp), so they compare as bytes.
  // Kept small so it inlines into each callback, where the compare has a
  // constant size; the messages are built out of line.
  void expect(event_kind k, std::initializer_list<std::uint32_t> ids) {
    if (!selected_) {
      if (!src_.next(held_)) trace_ends(events_, k, ids);
      ++events_;
    }
    selected_ = false;
    if (held_.kind != k ||
        std::memcmp(&held_.get, ids.begin(),
                    ids.size() * sizeof(std::uint32_t)) != 0) {
      diverges(events_ - 1, held_, k, ids);
    }
  }
  static trace_event walk_event(event_kind k,
                                std::initializer_list<std::uint32_t> ids) {
    trace_event e;
    e.kind = k;
    std::memcpy(&e.get, ids.begin(), ids.size() * sizeof(std::uint32_t));
    return e;
  }
  [[noreturn]] static void diverges(std::uint64_t index,
                                    const trace_event& held, event_kind k,
                                    std::initializer_list<std::uint32_t> ids) {
    reject(index, held, "emits " + describe(walk_event(k, ids)));
  }
  [[noreturn]] static void trace_ends(
      std::uint64_t index, event_kind k,
      std::initializer_list<std::uint32_t> ids) {
    throw trace_error("trace ends at event " + std::to_string(index) +
                      " inside a step of the canonical walk, which emits " +
                      describe(walk_event(k, ids)) + " next");
  }

  trace_source& src_;
  rt::execution_listener* next_;
  std::uint64_t& events_;
  trace_event held_;
  bool selected_ = false;
};

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
  // Checkpoints land between walk steps: after an access run, a lone
  // access, or a whole step.
  const auto maybe_checkpoint = [&] {
    if (next_checkpoint && st.events >= next_checkpoint) {
      st.prefiltered = prefiltered_;
      checkpoint(st);
      next_checkpoint = st.events + every_events;
    }
  };

  walk_check check(src_, listener, st.events);
  rt::canonical_walk walk(&check);
  // The forks the walk has open, innermost last, and the record of every
  // future that has returned, by its function id (the walk mints them
  // densely from 0).
  std::vector<rt::canonical_walk::fork_ids> forks;
  std::vector<rt::child_record> futures;
  enum class phase { before, running, ended } at = phase::before;
  const auto outside_program = [&at]() -> std::string {
    return at == phase::before ? "has not begun the program"
                               : "has ended the program";
  };

  trace_event e;
  for (;;) {
    // Bulk fast path: whole access runs come back as views
    // (trace_source::access_run), iterated in place — no per-event virtual
    // dispatch. memory_trace hands out its storage; the binary readers
    // decode a run into storage of their own and end it early at a block
    // boundary, where the next() path below takes one event.
    for (;;) {
      const std::span<const trace_event> run = src_.access_run(batch_capacity_);
      if (run.empty()) break;
      if (at != phase::running) reject(st.events, run[0], outside_program());
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
      maybe_checkpoint();
    }
    if (!src_.next(e)) break;
    const std::uint64_t index = st.events++;
    if (e.kind == event_kind::read || e.kind == event_kind::write) {
      if (at != phase::running) reject(index, e, outside_program());
      ++st.accesses;
      push_access(e);
      maybe_checkpoint();
      continue;
    }
    flush();
    if (e.kind == event_kind::program_begin) {
      if (at != phase::before) {
        reject(index, e,
               at == phase::running ? "has already begun the program"
                                    : "has ended the program");
      }
    } else if (at != phase::running) {
      reject(index, e, outside_program());
    }
    check.select(e);
    switch (e.kind) {
      case event_kind::program_begin:
        walk.begin();
        at = phase::running;
        break;
      case event_kind::spawn:
      case event_kind::create:
        forks.push_back(walk.fork(e.kind == event_kind::create));
        break;
      case event_kind::ret: {
        if (forks.empty()) reject(index, e, "has no open fork to return from");
        const rt::canonical_walk::fork_ids ids = forks.back();
        forks.pop_back();
        const rt::child_record rec = walk.ret(ids);
        if (ids.is_future) {
          if (rec.child >= futures.size()) futures.resize(rec.child + 1);
          futures[rec.child] = rec;
        }
        break;
      }
      case event_kind::sync_begin:
        if (!walk.has_children()) {
          reject(index, e, "has no spawned child to sync");
        }
        walk.sync();
        break;
      case event_kind::get: {
        const rt::func_id fut = e.get.fut;
        if (fut >= futures.size() || futures[fut].child != fut) {
          reject(index, e,
                 "has no returned future " + std::to_string(fut) + " to get");
        }
        walk.get(futures[fut]);
        break;
      }
      case event_kind::program_end:
        if (!forks.empty()) {
          reject(index, e,
                 "has " + std::to_string(forks.size()) +
                     " forks open, which return before the program ends");
        }
        walk.end();
        at = phase::ended;
        break;
      case event_kind::strand_begin:
      case event_kind::sync_child:
        reject(index, e, "emits it only inside a step it has begun");
      case event_kind::read:
      case event_kind::write:
        break;  // handled (batched) above
    }
    maybe_checkpoint();
  }
  flush();
  st.prefiltered = prefiltered_;
  return st;
}

}  // namespace frd::trace
