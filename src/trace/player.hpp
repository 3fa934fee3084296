// trace_player: replays a stored trace into any execution_listener +
// access_sink pair — detection without executing user code.
//
// Replay runs rt::canonical_walk, as serial_runtime and the online pump do:
// the player never re-emits the ids a trace carries.
// Each dag event instead selects one walk step —
//
//   program_begin  begin()         spawn / create  fork()
//   return         ret() of the innermost open fork
//   sync_begin     sync()          get             get() of a returned future
//   program_end    end()
//
// — and each event the walk emits reaches the listener only after it equals
// the trace's next event. A trace the walk would not have produced (a
// strand id it did not mint, a return with no open fork, a get of a future
// that has not returned, a sync whose children differ, a step cut short)
// is a trace_error naming the event index, what the trace holds and what
// the walk emits; so a backend only ever sees ids the walk minted. The
// check runs once per dag event and never per access, and it runs with or
// without a listener.
//
// Access events are BATCHED: a run of consecutive read/write events (the
// dominant shape of real traces — kernels issue long access runs between
// dag events) is handed to the sink as one on_accesses(span) call instead
// of one virtual on_read/on_write per event. Each batch element carries the
// recorded granule base address; the batch's byte width is the header's
// granule. An access counts once per granule on every path (live hooks,
// online records, replay), so replaying under the recording granule
// reproduces the live run's report and its counters exactly. Accesses
// outside program_begin..program_end are rejected like any other malformed
// input.
#pragma once

#include <cstdint>
#include <functional>

#include "detect/hooks.hpp"
#include "detect/sampling.hpp"
#include "runtime/events.hpp"
#include "trace/event.hpp"

namespace frd::trace {

class trace_player {
 public:
  // batch_capacity bounds the access runs handed to the sink in one
  // on_accesses call (clamped to >= 1); session::options::replay_batch and
  // bench/replay_throughput --batch-size plumb through here.
  explicit trace_player(trace_source& src,
                        std::size_t batch_capacity = kDefaultBatchCapacity)
      : src_(src), batch_capacity_(batch_capacity < 1 ? 1 : batch_capacity) {}

  struct stats {
    std::uint64_t events = 0;    // trace events consumed
    std::uint64_t accesses = 0;  // read/write events decoded (incl. dropped)
    // Accesses the armed prefilter dropped before batching; the caller owes
    // these to detector::note_prefiltered so its counters match the
    // unfiltered path. Always 0 with the filter disarmed.
    std::uint64_t prefiltered = 0;
  };

  // Granule-sampling carve-out applied BEFORE an access enters a batch
  // (DESIGN.md §8): with an armed filter, a sampled-out event costs one
  // decode and one hash instead of a batch slot plus the sink's on_accesses
  // scan — the proportional-throughput half of sampling mode.
  // session::replay installs the detector's replay_prefilter() here; the
  // decision function is shared (detect/sampling.hpp), so the dropped set
  // is exactly the set the detector would have skipped in-protocol.
  void set_prefilter(const detect::sampling::granule_prefilter& f) {
    prefilter_ = f;
  }

  // Running drop tally of the current/last play() — what stats.prefiltered
  // reports at the end, readable even when a checkpoint callback aborted
  // the replay mid-stream (session::replay settles the detector's counters
  // from here on the exception path too).
  std::uint64_t prefiltered_so_far() const { return prefiltered_; }

  // Drains the source through the canonical walk, emitting into `listener`
  // (dag events) and `sink` (accesses); either may be null to replay one
  // half of the stream. Throws trace_error on malformed input. A trace may
  // end between two walk steps without its program_end (a prefix).
  stats play(rt::execution_listener* listener,
             detect::hooks::access_sink* sink);

  // Like play(), with a periodic checkpoint: `checkpoint` fires with the
  // running stats roughly every `every_events` consumed events, always
  // between walk steps, so the stream the listener saw is well-formed at
  // the callback. An exception thrown by the checkpoint aborts the replay
  // and propagates — the ingest daemon's budget enforcement cancels
  // over-budget streams exactly this way.
  stats play(rt::execution_listener* listener, detect::hooks::access_sink* sink,
             std::uint64_t every_events,
             const std::function<void(const stats&)>& checkpoint);

  // Default longest run handed to the sink in one on_accesses call; bounds
  // the batch buffer while keeping the per-call amortization (real runs are
  // usually shorter than this between dag events).
  static constexpr std::size_t kDefaultBatchCapacity = 256;

  std::size_t batch_capacity() const { return batch_capacity_; }

 private:
  trace_source& src_;
  std::size_t batch_capacity_;
  detect::sampling::granule_prefilter prefilter_{};  // disarmed by default
  std::uint64_t prefiltered_ = 0;  // survives a mid-replay abort
};

}  // namespace frd::trace
