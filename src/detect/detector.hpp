// FutureRD detection core: a shadow store + an injected reachability backend
// + the paper's four measurement configurations (§6).
//
//   baseline         runtime gets no listener, kernels compile with
//                    hooks::none — zero detection work.
//   reachability     the detector listens to parallel-construct events,
//                    kernels still hooks::none — reachability overhead only.
//   instrumentation  kernels compiled with hooks::active; every access makes
//                    one out-of-line call that returns immediately (the call
//                    itself is the measured cost, like the paper's compiler
//                    pass with history maintenance disabled).
//   full             reads/writes maintain the shadow store and query the
//                    reachability structure; races are reported.
//
// The public entry point is frd::session (src/api/session.hpp), which owns
// a detector, its backend (resolved by name through the backend_registry),
// the runtime binding, and the hook-sink installation:
//
//   frd::session s({.backend = "multibags+", .level = frd::level::full});
//   s.run([&] { ... instrumented program on s.runtime() ... });
//   if (s.report().any()) ...
//
// The detector itself is backend-agnostic: it consumes runtime events,
// forwards them when the level tracks reachability, enforces the backend's
// declared capability envelope (future_support), and implements the §3
// access protocol on top of the backend's precedes_current and its shadow
// store's read_step/write_step (DESIGN.md §4). Each race candidate a store
// step surfaces is resolved on the spot: a per-epoch strand cache answers a
// strand already asked about since the last dag event, and a miss asks the
// backend once. Dag events advance the backend's epoch, which invalidates
// the cache wholesale (entries are epoch-stamped; nothing is swept).
//
// Accesses arrive through two access_sink paths: the per-access on_read /
// on_write hooks (live instrumented kernels; arbitrary byte spans, split
// into granules here), and the batched on_accesses entry (replay: the
// trace player hands over whole runs of pre-granulated events in one
// virtual call — see hooks::access_sink).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "detect/backend.hpp"
#include "detect/hooks.hpp"
#include "detect/sampling.hpp"
#include "detect/types.hpp"
#include "shadow/store.hpp"

namespace frd::detect {

// What the sampling hash keys on when sample_rate < 1 (DESIGN.md §8).
//   granule  the decision is a pure function of the granule address: a
//            granule is either always detected or never, so the sampled
//            report is a strict subset of the full one (the default).
//   epoch    the decision keys on the backend's dag-event epoch: whole
//            epochs of accesses are admitted or skipped together, catching
//            every race inside an admitted window.
enum class sample_policy : std::uint8_t { granule, epoch };

constexpr std::string_view to_string(sample_policy p) {
  return p == sample_policy::granule ? "granule" : "epoch";
}

struct detector_config {
  level lvl = level::full;
  // Shadow granule size in bytes; power of two in [1, 4096]. The paper's
  // artifact uses 4-byte granules.
  std::size_t granule = 4;
  std::size_t max_retained_races = race_report::kDefaultRetained;
  // Sampling mode (DESIGN.md §8): run the full §3 protocol on a seeded,
  // reproducible fraction of accesses. A sampled-out access skips the
  // shadow-store step AND the reachability query entirely — the carve-out
  // the production throughput knob turns. Must be in (0, 1]; 1.0 (the
  // default) disarms sampling and is byte-identical to the pre-sampling
  // detector. The decision is a pure function of (key, seed) — same seed,
  // same trace, same sampled set.
  double sample_rate = 1.0;
  std::uint64_t sample_seed = 1;
  sample_policy sampling = sample_policy::granule;
  // Bounded-history mode: retained readers per granule
  // (store_config::history_depth). kUnboundedHistory keeps the full §3
  // list; a finite depth >= 1 keeps the most recent `depth` readers.
  std::size_t shadow_history_depth = shadow::kUnboundedHistory;
  // Capability envelope of the backend (from backend_info). Programs that
  // step outside it raise capability_error instead of silently producing
  // unsound reports.
  future_support futures = future_support::general;
};

// Query-plane counters: how the §3 protocol's reachability questions were
// answered. lookups counts every question the protocol asked; cache_hits
// the ones answered by the per-epoch strand cache; strands the rest, each
// one precedes_current call on the backend. (frd-trace run prints these.)
struct query_plane_stats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  // Backend calls. Each call answers one strand, so this always equals
  // strands; perfbench's layer table still reads strands / batches.
  std::uint64_t batches = 0;
  std::uint64_t strands = 0;   // backend precedes_current calls
  // Sampling-mode counters (both 0 when sample_rate == 1.0): accesses the
  // active policy admitted into the protocol vs carved out before the
  // store step. sampled + skipped == the full-detection access count.
  std::uint64_t sampled = 0;
  std::uint64_t skipped = 0;
  // Accesses the online workers dropped as same-window repeats before they
  // reached the detector (DESIGN.md §9). They count in access_count() but
  // were never checked. Always 0 for serial, replayed, recorded and
  // sampled runs.
  std::uint64_t elided = 0;
};

// Memory accounting of one detection run — the counters the ingest daemon's
// per-session budget enforcement reads (src/serve/) and `frd-trace run`
// prints. store_bytes is the shadow store's reservation (page storage plus
// the heap its reader lists overflowed into). Most fields are a current
// snapshot; the peak_* fields are the run's high-water marks, maintained by
// the detector at every batched access run boundary and refreshed whenever
// memory() is taken — budget enforcement must charge the peak, or transient
// spikes between observation points escape it. Peaks clear with reset().
struct memory_stats {
  std::size_t store_bytes = 0;       // shadow pages + reader overflow
  std::size_t store_pages = 0;       // materialized shadow pages
  std::size_t report_retained = 0;   // full race records currently kept
  std::size_t report_capacity = 0;   // session::options::max_retained_races
  std::size_t query_cache_bytes = 0; // epoch strand-cache storage
  std::size_t peak_store_bytes = 0;  // high-water store_bytes this run
  std::size_t peak_total_bytes = 0;  // high-water total_bytes() this run
  std::size_t total_bytes() const { return store_bytes + query_cache_bytes; }
};

class detector final : public rt::execution_listener, public hooks::access_sink {
 public:
  detector(std::unique_ptr<reachability_backend> backend, detector_config cfg);
  ~detector() override;
  detector(const detector&) = delete;
  detector& operator=(const detector&) = delete;

  level lvl() const { return cfg_.lvl; }
  const detector_config& config() const { return cfg_; }
  std::string_view backend_name() const { return backend_->name(); }
  const race_report& report() const { return report_; }
  reachability_backend& backend() { return *backend_; }
  const reachability_backend& backend() const { return *backend_; }
  const shadow::store& shadow_store() const { return *shadow_; }
  std::uint64_t access_count() const { return accesses_; }
  // k in the paper's bounds: the number of get_fut operations seen.
  std::uint64_t get_count() const { return gets_; }
  // Structured-future discipline violations (backends with
  // counts_violations; 0 elsewhere).
  std::uint64_t structured_violations() const {
    return backend_->structured_violations();
  }
  const query_plane_stats& query_stats() const { return qstats_; }
  memory_stats memory() const;

  // Returns the detector to its pristine post-construction state under the
  // same configuration, adopting `fresh_backend` (the old backend and the
  // shadow pages with their reader overflow are released; counters, report,
  // and query-plane caches clear but keep their capacity).
  // frd::session::reset() drives this so pooled sessions recycle across runs.
  void reset(std::unique_ptr<reachability_backend> fresh_backend);

  // Optional observer invoked once per counted race (race_report::record),
  // in encounter order, right after the report counts it — the ingest
  // daemon's incremental report emission. The callback must not re-enter
  // the detector.
  void set_race_sink(std::function<void(const race&)> sink) {
    race_sink_ = std::move(sink);
  }

  // Memory hooks (hooks::access_sink; out of line on purpose: the call is
  // the instrumentation cost the paper's "instr" configuration measures).
  void on_read(const void* p, std::size_t bytes) override;
  void on_write(const void* p, std::size_t bytes) override;
  // Batched hot path: one call per run of single-granule accesses.
  void on_accesses(std::span<const hooks::access> batch,
                   std::size_t bytes) override;

  // Replay fast path for the granule sampling policy (DESIGN.md §8): the
  // returned filter is armed iff granule sampling is active at level::full,
  // and session::replay installs it on the trace player so sampled-out
  // accesses never enter a batch. The player's drop tally must come back
  // through note_prefiltered — it restores access_count() and the skipped
  // counter to exactly what the in-protocol carve-out would have tallied,
  // so every counter invariant (sampled + skipped == full access count)
  // holds identically with or without the prefilter.
  sampling::granule_prefilter replay_prefilter() const {
    return sampling::granule_prefilter{
        cfg_.sample_seed, sample_thresh53_, granule_mask_,
        /*armed=*/sampling_active_ &&
            cfg_.sampling == sample_policy::granule &&
            cfg_.lvl == level::full};
  }
  void note_prefiltered(std::uint64_t skipped) {
    accesses_ += skipped;
    qstats_.skipped += skipped;
  }
  // The online engine's repeat-filter tally (DESIGN.md §9), folded in once
  // the run is over, so access_count() equals the unfiltered run's.
  void note_elided(std::uint64_t elided) {
    accesses_ += elided;
    qstats_.elided += elided;
  }

  // execution_listener: forwards to the backend when level >= reachability.
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

 private:
  // Per-epoch strand→answer cache entry. Valid iff stamp == backend version
  // + 1 (the +1 keeps the zero-initialized entries invalid at epoch 0), so
  // dag events invalidate the whole cache by advancing the version —
  // nothing is swept on the event path.
  struct cache_entry {
    std::uint64_t stamp = 0;
    bool precedes = false;
  };

  void check_read(std::uintptr_t addr);
  void check_write(std::uintptr_t addr);
  // The sampling decision for one key (granule address or backend epoch):
  // the shared sampling::admits primitive (detect/sampling.hpp), which the
  // replay prefilter computes bit-identically on the player side.
  bool sample_admits(std::uint64_t key) const {
    return sampling::admits(key, cfg_.sample_seed, sample_thresh53_);
  }
  // The per-access admit at the scalar hooks (granule policy keys on the
  // granule; epoch policy on the backend version, which only dag events
  // advance).
  bool admit_access(std::uintptr_t granule) const {
    const std::uint64_t key = cfg_.sampling == sample_policy::granule
                                  ? static_cast<std::uint64_t>(granule)
                                  : backend_->version();
    return sample_admits(key);
  }
  void note_prior(std::uintptr_t addr, rt::strand_id prior, bool prior_is_write,
                  bool current_is_write);
  // Folds the current footprint into the peak_* high-water marks.
  void note_memory_peak() const;

  const detector_config cfg_;
  const std::uintptr_t granule_mask_;  // clears sub-granule address bits
  // sample_rate as a 53-bit threshold (rate * 2^53): a double->uint64 cast
  // that is exact for every representable rate and never overflows.
  const std::uint64_t sample_thresh53_;
  const bool sampling_active_;  // rate < 1.0: the carve-out is armed
  std::unique_ptr<reachability_backend> backend_;
  // Held in place (no pointer hop per access); reset() re-emplaces it.
  std::optional<shadow::store> shadow_;
  race_report report_;
  std::vector<std::uint8_t> fut_touched_;  // structured-only: gets per future
  rt::strand_id current_ = rt::kNoStrand;
  std::uint64_t accesses_ = 0;
  std::uint64_t gets_ = 0;
  std::vector<cache_entry> qcache_;  // the epoch cache, indexed by strand
  query_plane_stats qstats_;
  std::function<void(const race&)> race_sink_;
  // High-water marks behind memory_stats::peak_*; mutable because memory()
  // (const) refreshes them with the snapshot it just took.
  mutable std::size_t peak_store_bytes_ = 0;
  mutable std::size_t peak_total_bytes_ = 0;
};

}  // namespace frd::detect
