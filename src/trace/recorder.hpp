// trace_recorder: captures one detection run losslessly into a trace_sink.
//
// It is both an execution_listener (attached to the recording session's
// runtime, next to the detector) and an access_sink (installed as the hook
// sink, in front of the detector) so dag-growth events and memory accesses
// land in the sink interleaved in true program order — the order the
// player's canonical walk emits them in again.
//
// on_sync is flattened (event.hpp): one sync_begin plus count sync_child
// events, children and join strands paired positionally. Accesses are
// granule-normalized: each access becomes one read/write event per touched
// granule, carrying the granule base address; the granule used must match
// the trace header the sink was created with (frd::session wires both from
// its own options).
#pragma once

#include <cstdint>

#include "detect/hooks.hpp"
#include "runtime/events.hpp"
#include "trace/event.hpp"

namespace frd::trace {

class trace_recorder final : public rt::execution_listener,
                             public detect::hooks::access_sink {
 public:
  // `granule` must be a power of two in [1, 4096] (throws trace_error).
  trace_recorder(trace_sink& out, std::size_t granule);

  // Downstream access sink accesses are forwarded to after recording (the
  // recording session's detector); null records without detecting.
  void set_next(detect::hooks::access_sink* next) { next_ = next; }

  std::uint64_t events_recorded() const { return events_; }

  // execution_listener --------------------------------------------------
  void on_program_begin(rt::func_id f, rt::strand_id s) override;
  void on_program_end(rt::strand_id s) override;
  void on_strand_begin(rt::strand_id s, rt::func_id f) override;
  void on_spawn(rt::func_id p, rt::strand_id u, rt::func_id c, rt::strand_id w,
                rt::strand_id v) override;
  void on_create(rt::func_id p, rt::strand_id u, rt::func_id c, rt::strand_id w,
                 rt::strand_id v) override;
  void on_return(rt::func_id c, rt::strand_id last, rt::func_id p) override;
  void on_sync(const sync_event& e) override;
  void on_get(rt::func_id fn, rt::strand_id u, rt::strand_id v, rt::func_id fut,
              rt::strand_id w, rt::strand_id creator) override;

  // access_sink ---------------------------------------------------------
  void on_read(const void* p, std::size_t bytes) override;
  void on_write(const void* p, std::size_t bytes) override;
  // Batched entry point (the online pump's access path): elements are
  // already granule base addresses `bytes` wide, so each records as exactly
  // one event and the whole batch forwards to the downstream sink in one
  // call — the detector stays on its batched hot path while recording.
  void on_accesses(std::span<const detect::hooks::access> batch,
                   std::size_t bytes) override;

 private:
  void put(const trace_event& e) {
    out_.put(e);
    ++events_;
  }
  void record_access(event_kind kind, const void* p, std::size_t bytes);

  trace_sink& out_;
  detect::hooks::access_sink* next_ = nullptr;
  const std::size_t granule_;
  const std::uintptr_t granule_mask_;
  std::uint64_t events_ = 0;
};

}  // namespace frd::trace
