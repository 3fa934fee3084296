#include "detect/detector.hpp"

#include <bit>
#include <string>

#include "support/check.hpp"
#include "support/granule.hpp"

namespace frd::detect {

namespace {

// Option validation throws (like an unknown backend name) so embedders can
// catch and report a bad configuration instead of aborting.
unsigned granule_shift_of(std::size_t granule) {
  if (!valid_granule(granule)) {
    throw backend_error(
        "detection granule must be a power of two in [1, 4096] bytes, got " +
        std::to_string(granule));
  }
  return static_cast<unsigned>(std::countr_zero(granule));
}

// Validates sample_rate and folds it into the 53-bit threshold the admit
// compare uses (sampling::threshold53 explains the 2^53 choice). NaN fails
// both comparisons and lands in the error path.
std::uint64_t sample_threshold_of(double rate) {
  if (!(rate > 0.0 && rate <= 1.0)) {
    throw backend_error("sample_rate must be in (0, 1], got " +
                        std::to_string(rate));
  }
  return sampling::threshold53(rate);
}

shadow::store_config store_config_of(const detector_config& cfg) {
  return {.granule_shift = granule_shift_of(cfg.granule),
          .history_depth = cfg.shadow_history_depth};
}

}  // namespace

detector::detector(std::unique_ptr<reachability_backend> backend,
                   detector_config cfg)
    : cfg_(std::move(cfg)),
      granule_mask_(frd::granule_mask(cfg_.granule)),
      sample_thresh53_(sample_threshold_of(cfg_.sample_rate)),
      sampling_active_(cfg_.sample_rate < 1.0),
      backend_(std::move(backend)),
      // The store validates the history depth (store_error, which the
      // session surfaces like an unknown backend name).
      shadow_(std::in_place, store_config_of(cfg_)),
      report_(cfg_.max_retained_races) {
  FRD_CHECK_MSG(backend_ != nullptr, "detector needs a reachability backend");
}

detector::~detector() = default;

// The store only grows its reservations within a run, so sampling at run
// boundaries and memory() observations makes the peaks exact, not
// approximate — but the peak_* contract deliberately does not depend on
// that monotonicity.
void detector::note_memory_peak() const {
  const std::size_t store_bytes = shadow_->bytes_reserved();
  const std::size_t total =
      store_bytes + qcache_.capacity() * sizeof(cache_entry);
  if (store_bytes > peak_store_bytes_) peak_store_bytes_ = store_bytes;
  if (total > peak_total_bytes_) peak_total_bytes_ = total;
}

memory_stats detector::memory() const {
  memory_stats m;
  m.store_bytes = shadow_->bytes_reserved();
  m.store_pages = shadow_->page_count();
  m.report_retained = report_.retained().size();
  m.report_capacity = report_.max_retained();
  m.query_cache_bytes = qcache_.capacity() * sizeof(cache_entry);
  // An observation is itself a sample: a caller polling memory() sees peaks
  // at least as fresh as the snapshot it was handed.
  note_memory_peak();
  m.peak_store_bytes = peak_store_bytes_;
  m.peak_total_bytes = peak_total_bytes_;
  return m;
}

// Pristine state under the same config: the shadow store is re-created (the
// one operation that releases its pages and reader overflow wholesale), the
// report and query-plane buffers clear in place keeping capacity — that
// retained capacity is what makes recycling a pooled session cheaper than
// constructing a fresh one.
void detector::reset(std::unique_ptr<reachability_backend> fresh_backend) {
  FRD_CHECK_MSG(fresh_backend != nullptr,
                "detector::reset needs a fresh reachability backend");
  backend_ = std::move(fresh_backend);
  shadow_.emplace(store_config_of(cfg_));
  report_.reset();
  fut_touched_.clear();
  current_ = rt::kNoStrand;
  accesses_ = 0;
  gets_ = 0;
  qcache_.clear();  // entries re-materialize zero-stamped (epoch-invalid)
  qstats_ = {};
  race_sink_ = nullptr;  // per-run observer; a stale capture must not leak
  peak_store_bytes_ = 0;  // peaks are per-run: a pooled session's previous
  peak_total_bytes_ = 0;  // tenant must not be charged to the next one
}

// ---------------------------------------------------------------------------
// Event forwarding. The baseline level ignores everything so that a single
// detector type serves all four configurations. The capability checks run
// before forwarding: a construct the backend cannot absorb must surface as a
// clear error, not as a corrupted bag invariant deeper in.
// ---------------------------------------------------------------------------
#define FRD_FORWARD_IF_TRACKING(call)                  \
  do {                                                 \
    if (cfg_.lvl != level::baseline) backend_->call;   \
  } while (0)

void detector::on_program_begin(rt::func_id f, rt::strand_id s) {
  current_ = s;
  FRD_FORWARD_IF_TRACKING(on_program_begin(f, s));
}
void detector::on_program_end(rt::strand_id s) {
  FRD_FORWARD_IF_TRACKING(on_program_end(s));
}
void detector::on_strand_begin(rt::strand_id s, rt::func_id f) {
  current_ = s;
  FRD_FORWARD_IF_TRACKING(on_strand_begin(s, f));
}
void detector::on_spawn(rt::func_id p, rt::strand_id u, rt::func_id c,
                        rt::strand_id w, rt::strand_id v) {
  FRD_FORWARD_IF_TRACKING(on_spawn(p, u, c, w, v));
}
void detector::on_create(rt::func_id p, rt::strand_id u, rt::func_id c,
                         rt::strand_id w, rt::strand_id v) {
  if (cfg_.futures == future_support::none) {
    throw capability_error(
        "backend '" + std::string(backend_->name()) +
        "' handles fork-join programs only; this program uses create_fut — "
        "pick a futures-capable backend (multibags, multibags+, vector-clock, "
        "reference)");
  }
  FRD_FORWARD_IF_TRACKING(on_create(p, u, c, w, v));
}
void detector::on_return(rt::func_id c, rt::strand_id last, rt::func_id p) {
  FRD_FORWARD_IF_TRACKING(on_return(c, last, p));
}
void detector::on_sync(const sync_event& e) { FRD_FORWARD_IF_TRACKING(on_sync(e)); }
void detector::on_get(rt::func_id fn, rt::strand_id u, rt::strand_id v,
                      rt::func_id fut, rt::strand_id w, rt::strand_id creator) {
  if (cfg_.futures == future_support::none) {
    throw capability_error(
        "backend '" + std::string(backend_->name()) +
        "' handles fork-join programs only; this program uses get_fut");
  }
  if (cfg_.futures == future_support::structured) {
    if (fut >= fut_touched_.size()) fut_touched_.resize(fut + 1, 0);
    if (fut_touched_[fut] != 0) {
      throw capability_error(
          "backend '" + std::string(backend_->name()) +
          "' supports structured (single-touch) futures only, but this "
          "program touched the same future twice — run it under a general "
          "backend (multibags+, vector-clock, reference)");
    }
    fut_touched_[fut] = 1;
  }
  ++gets_;
  FRD_FORWARD_IF_TRACKING(on_get(fn, u, v, fut, w, creator));
}

#undef FRD_FORWARD_IF_TRACKING

// ---------------------------------------------------------------------------
// Memory hooks (paper §3 protocol).
// ---------------------------------------------------------------------------
// An access counts once per granule it touches, on every path: the hooks
// here, the replayed events (one per granule) and the online records.
void detector::on_read(const void* p, std::size_t bytes) {
  // Below level::full the call (and the count) is the whole cost: the
  // paper's "instrumentation" configuration.
  const bool full = cfg_.lvl == level::full;
  for_each_granule(p, bytes, cfg_.granule, granule_mask_, [&](std::uintptr_t a) {
    ++accesses_;
    if (full) check_read(a);
  });
}

void detector::on_write(const void* p, std::size_t bytes) {
  const bool full = cfg_.lvl == level::full;
  for_each_granule(p, bytes, cfg_.granule, granule_mask_, [&](std::uintptr_t a) {
    ++accesses_;
    if (full) check_write(a);
  });
}

// Replay hot path: a whole run of pre-granulated accesses behind ONE virtual
// call, so neither the per-access dispatch nor the granule splitting of the
// live path is paid per event. Each element is one granule access.
void detector::on_accesses(std::span<const hooks::access> batch,
                           std::size_t /*bytes*/) {
  accesses_ += batch.size();
  if (cfg_.lvl != level::full) return;
  // Per-epoch sampling decides whole runs at once: dag events are the epoch
  // barrier, so the backend version is constant across this batch and a
  // skipped epoch's accesses bypass the loop, the store, and the
  // reachability query entirely. (Admitted runs fall through; the
  // per-access counting in check_read/check_write then sees the same admit
  // answer.)
  if (sampling_active_ && cfg_.sampling == sample_policy::epoch &&
      !sample_admits(backend_->version())) {
    qstats_.skipped += batch.size();
    note_memory_peak();
    return;
  }
  for (const hooks::access& a : batch) {
    const std::uintptr_t g = a.addr & granule_mask_;
    if (a.is_write) {
      check_write(g);
    } else {
      check_read(g);
    }
  }
  // Run boundaries are the peak sampling points (the per-access loop is too
  // hot); store reservations are monotone within a run, so this is exact.
  note_memory_peak();
}

// Read of l: race candidate iff last-writer(l) might be logically parallel
// with the current strand; the read is recorded either way (§3). The store's
// read_step appends the reader (with the serial-order dedupe) and hands back
// the prior writer for the race check.
void detector::check_read(std::uintptr_t addr) {
  if (sampling_active_) {
    if (!admit_access(addr)) {
      ++qstats_.skipped;
      return;
    }
    ++qstats_.sampled;
  }
  const rt::strand_id w = shadow_->read_step(addr, current_);
  if (w != rt::kNoStrand && w != current_) {
    note_prior(addr, w, /*prior_is_write=*/true, /*current_is_write=*/false);
  }
}

// Write to l: candidates against the previous writer and against *every*
// recorded reader; then purge the reader list and take over as last-writer
// (§3: any later strand parallel to a purged reader is also parallel to
// this write). The store surfaces each prior access through the callback —
// previous writer first, then readers in append order, which is the order
// races are recorded in.
void detector::check_write(std::uintptr_t addr) {
  if (sampling_active_) {
    if (!admit_access(addr)) {
      ++qstats_.skipped;
      return;
    }
    ++qstats_.sampled;
  }
  shadow_->write_step(addr, current_, [&](rt::strand_id prior, bool is_write) {
    if (prior != current_) {
      note_prior(addr, prior, is_write, /*current_is_write=*/true);
    }
  });
}

// Resolves one §3 race candidate, out of line so the store loops stay
// small. The epoch cache answers a strand already asked about since the
// last dag event; a miss asks the backend once and caches its answer for the
// rest of the epoch. A prior that does not precede the current strand is a
// race, recorded here in encounter order.
void detector::note_prior(std::uintptr_t addr, rt::strand_id prior,
                          bool prior_is_write, bool current_is_write) {
  ++qstats_.lookups;
  const std::uint64_t stamp = backend_->version() + 1;
  if (prior >= qcache_.size()) qcache_.resize(prior + 1);
  cache_entry& e = qcache_[prior];
  if (e.stamp == stamp) {
    ++qstats_.cache_hits;
  } else {
    e.stamp = stamp;
    e.precedes = backend_->precedes_current(prior);
    ++qstats_.batches;
    ++qstats_.strands;
  }
  if (e.precedes) return;
  const race r{addr, prior,
               prior_is_write ? access_kind::write : access_kind::read,
               current_,
               current_is_write ? access_kind::write : access_kind::read};
  if (report_.record(r) && race_sink_) race_sink_(r);
}

}  // namespace frd::detect
