// Microbenchmarks for the shadow store: the full-detection configuration
// pays one store step (lookup + reader/writer update) per granule, so these
// per-op costs bound the "full vs instrumentation" gap in Figures 6-7.
//
// CI runs this with --benchmark_out=BENCH_micro_shadow.json and uploads the
// snapshot next to the replay-throughput one (perf/ keeps one per PR);
// perf_compare groups the rows by benchmark family (the name before the
// first '/').
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/snapshot.hpp"
#include "runtime/events.hpp"
#include "shadow/store.hpp"
#include "support/prng.hpp"

namespace {

using frd::shadow::store;
using frd::shadow::store_config;

// Streaming writes: hot-page cache hit almost always. The writer-install
// path with no prior state is the §3 fast path of race-free kernels.
void BM_WriteStepSequential(benchmark::State& state) {
  store st(store_config{});
  std::uintptr_t addr = 0x100000;
  const auto ignore = [](frd::rt::strand_id, bool) {};
  for (auto _ : state) {
    st.write_step(addr, 1, ignore);
    addr += 4;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WriteStepSequential);

// Random granules over a working set: the two-level lookup dominates once
// the set outgrows the cache. Every page of the set is materialized before
// the timed loop, so the row times lookups, not first-touch page
// allocation (which made the largest set's row swing 1000x between runs).
void BM_ReadStepRandom(benchmark::State& state) {
  const store_config cfg;
  store st(cfg);
  frd::prng rng(3);
  const std::uintptr_t span = static_cast<std::uintptr_t>(state.range(0));
  const std::uintptr_t page_bytes = std::uintptr_t{4} << cfg.page_bits;
  for (std::uintptr_t a = 0; a < span; a += page_bytes) {
    st.read_step(0x100000 + a, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        st.read_step(0x100000 + (rng.below(span) & ~std::uintptr_t{3}), 1));
  }
  state.SetLabel("working set bytes");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadStepRandom)->Arg(1 << 16)->Arg(1 << 22)->Arg(1 << 26);

// The §3 protocol on one location: r readers accumulate, one writer purges
// (and sweeps every reader through the prior callback).
void BM_ReaderAppendPurgeCycle(benchmark::State& state) {
  const int readers = static_cast<int>(state.range(0));
  store st(store_config{});
  std::uint32_t strand = 0;
  std::uint64_t sum = 0;
  const auto fold = [&sum](frd::rt::strand_id s, bool) { sum += s; };
  for (auto _ : state) {
    for (int i = 0; i < readers; ++i) st.read_step(0x5000, ++strand);
    st.write_step(0x5000, ++strand, fold);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * (readers + 1));
}
BENCHMARK(BM_ReaderAppendPurgeCycle)->Arg(1)->Arg(3)->Arg(16)->Arg(256);

// Every dag event on the live and online paths funnels through
// listener_mux; the empty/single fast path (one branch + direct forward
// instead of vector iteration) is what keeps the common one-listener wiring
// from paying fan-out overhead per event. Swept over listener counts so the
// fast path's edge over the loop stays visible in the snapshot.
struct counting_listener final : frd::rt::execution_listener {
  std::uint64_t strands = 0;
  void on_strand_begin(frd::rt::strand_id, frd::rt::func_id) override {
    ++strands;
  }
};

void BM_ListenerMuxDispatch(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  frd::rt::listener_mux mux;
  std::vector<counting_listener> sinks(static_cast<std::size_t>(count));
  for (auto& s : sinks) mux.add(&s);
  // Dispatch through the mux itself, not target(): callers that cannot
  // collapse the mux away (a recorder attached mid-wiring) pay this cost.
  frd::rt::execution_listener& l = mux;
  frd::rt::strand_id s = 0;
  for (auto _ : state) {
    l.on_strand_begin(s, 0);
    ++s;
  }
  std::uint64_t total = 0;
  for (const auto& sink : sinks) total += sink.strands;
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
// ArgName makes the rows "BM_ListenerMuxDispatch/listeners:N".
BENCHMARK(BM_ListenerMuxDispatch)
    ->ArgName("listeners")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

}  // namespace

// The snapshot's context carries the host fingerprint the other benches
// write (bench/snapshot.hpp), so perf_compare can tell a same-host run.
int main(int argc, char** argv) {
  const frd::snapshot::host h = frd::snapshot::this_host();
  benchmark::AddCustomContext("cpu", h.cpu);
  benchmark::AddCustomContext("nproc", std::to_string(h.nproc));
  benchmark::AddCustomContext("build", h.build);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
