// frd-trace — record, replay, and inspect FutureRD execution traces.
//
//   frd-trace record --program demo --out demo.frdt [--backend multibags+]
//                    [--granule 4] [--seed 1] [--compress]
//   frd-trace exec   --program demo [--runtime-workers N] [--record FILE]
//                    # live online detection on the parallel runtime; the
//                    # recorded arbitration order replays byte-identically
//   frd-trace run    <trace> [--backend multibags+] [--from N] [--to M]
//   frd-trace dump   <trace> [--from N] [--to M]    # JSONL to stdout, for
//                                                   # reading only
//   frd-trace stats  <trace>             # event-kind histogram + totals;
//                                        # chunk/dedup stats for containers
//   frd-trace pack   <trace> --out FILE  # .frdt -> .frdtz container
//   frd-trace unpack <frdtz> --out FILE  # container -> the original .frdt
//
// Windowed replay (--from/--to) is event-indexed. `--to M` alone replays the
// exact prefix [0, M) with full detection — sound, identical to truncating
// the trace. `--from N` with N > 0 cannot replay the dag prefix the
// reachability structures need, so it degrades explicitly to a
// reachability-free window conflict scan: granules with conflicting access
// pairs inside the window (an overapproximation — logically ordered strands
// are not excluded). On a .frdtz container the seek uses the footer's
// per-chunk event index instead of decoding the prefix.
//
// A trace is a shareable repro artifact: `record` captures one of the
// built-in programs (demo — a deterministic racy mix of spawns, syncs, and
// escaping futures — or a seeded fuzz program), `run` replays it through any
// registered backend with no user code executing, and `dump`/`stats` make it
// reviewable. A trace is read from one format family, FRDT: bare .frdt and
// .frdtz containers are auto-detected everywhere a trace is read;
// `--compress` records straight into a container, and pack/unpack convert
// losslessly (unpack reproduces the packed .frdt byte-for-byte). The JSONL
// that `dump` prints is for reading; nothing reads it back.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <system_error>
#include <unordered_map>

#include "api/session.hpp"
#include "container/source.hpp"
#include "container/writer.hpp"
#include "corpus/golden.hpp"
#include "detect/registry.hpp"
#include "serve/client.hpp"
#include "graph/fuzz.hpp"
#include "shadow/store.hpp"
#include "support/flags.hpp"
#include "support/granule.hpp"
#include "trace/codec.hpp"
#include "trace/event.hpp"
#include "trace/player.hpp"

namespace {

using namespace frd;

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <command> ...\n"
               "  record --program demo|fuzz|fuzz-general --out FILE\n"
               "         [--backend NAME] [--granule N] [--seed N] [--compress]\n"
               "  exec   --program demo|fuzz|fuzz-general\n"
               "         [--backend NAME] [--granule N] [--seed N]\n"
               "         [--runtime-workers N] [--record FILE [--compress]]\n"
               "         (run the program live on the parallel runtime with\n"
               "          online detection; --record captures the arbitration\n"
               "          order for byte-identical serial replay)\n"
               "  run    FILE [--backend NAME] [--batch N]\n"
               "         [--from N] [--to M]  (--from > 0: window conflict scan)\n"
               "  dump   FILE [--from N] [--to M]\n"
               "  stats  FILE\n"
               "  pack   FILE --out FILE   (any trace -> .frdtz container)\n"
               "  unpack FILE --out FILE   (.frdtz container -> .frdt)\n"
               "  submit FILE --socket PATH [--backend NAME] [--budget-mb N]\n"
               "         [--golden-out FILE]  (frd-serve client)\n"
               "  shutdown --socket PATH   (stop a running frd-serve)\n",
               prog);
  return 2;
}

std::array<int, 16> g_cells;

// The deterministic demo program: spawns, a sync, and a future that escapes
// it (same shape as the session test's differential anchor) — two racy
// granules (cells[1] future-vs-spawn, cells[2] spawn-vs-continuation).
void demo_program(session& s) {
  s.run([&](auto& rt) {
    rt.run([&] {
      auto f = rt.create_future([&] {
        s.write(&g_cells[0]);
        s.write(&g_cells[1]);
        return 0;
      });
      rt.spawn([&] {
        s.write(&g_cells[1]);
        s.write(&g_cells[2]);
      });
      s.write(&g_cells[2]);
      rt.sync();
      s.write(&g_cells[3]);
      f.get();
      s.read(&g_cells[0]);
      s.write(&g_cells[3]);
    });
  });
}

void fuzz_program(session& s, std::uint64_t seed, bool structured) {
  graph::fuzz_config cfg;
  cfg.seed = seed;
  cfg.structured = structured;
  cfg.max_depth = 6;
  cfg.max_actions_per_body = 12;
  cfg.n_cells = static_cast<std::uint32_t>(g_cells.size());
  cfg.max_futures = 64;
  const graph::fuzz_plan plan = graph::plan_fuzz(cfg);
  s.run([&](auto& rt) {
    graph::run_fuzz_plan(rt, plan, [&s](std::uint32_t cell, bool write) {
      if (write) {
        s.write(&g_cells[cell]);
      } else {
        s.read(&g_cells[cell]);
      }
    });
  });
}

void print_report(const session& s, std::uint64_t events) {
  std::printf("backend:        %s\n", std::string(s.backend_name()).c_str());
  if (s.opts().runtime == runtime_kind::parallel) {
    if (s.opts().runtime_workers > 0) {
      std::printf("runtime:        parallel (%u workers)\n",
                  s.opts().runtime_workers);
    } else {
      std::printf("runtime:        parallel (hardware concurrency)\n");
    }
  }
  // The degraded-detection modes announce themselves: a sampled or
  // history-bounded report must never be mistaken for a full-protocol one.
  if (s.opts().sample_rate < 1.0) {
    std::printf("sampling:       rate %.4g, policy %s, seed %llu\n",
                s.opts().sample_rate,
                std::string(to_string(s.opts().sampling)).c_str(),
                static_cast<unsigned long long>(s.opts().sample_seed));
  }
  if (s.opts().shadow_history_depth != shadow::kUnboundedHistory) {
    std::printf("history depth:  %zu readers/granule (short-race window)\n",
                s.opts().shadow_history_depth);
  }
  std::printf("mode:           %s\n", std::string(to_string(s.mode())).c_str());
  if (events) std::printf("trace events:   %llu\n",
                          static_cast<unsigned long long>(events));
  std::printf("accesses:       %llu\n",
              static_cast<unsigned long long>(s.access_count()));
  // Online runs drop same-window repeat accesses on the workers unless they
  // record or sample (DESIGN.md §9); the dropped ones count in accesses.
  if (s.opts().runtime == runtime_kind::parallel) {
    std::printf("elided:         %llu (same-window repeats, counted above "
                "but never checked)\n",
                static_cast<unsigned long long>(s.query_stats().elided));
  }
  std::printf("gets (k):       %llu\n",
              static_cast<unsigned long long>(s.get_count()));
  std::printf("races:          %llu (%zu distinct granules)\n",
              static_cast<unsigned long long>(s.report().total()),
              s.report().racy_granules().size());
  // Query-plane counters: how the §3 protocol's reachability questions were
  // answered (lookups -> epoch-cache hits -> backend calls). A drop in the
  // cache's effectiveness shows up here, not just in perf.
  const frd::detect::query_plane_stats& q = s.query_stats();
  std::printf("reach lookups:  %llu (epoch-cache hits %llu, %.1f%%)\n",
              static_cast<unsigned long long>(q.lookups),
              static_cast<unsigned long long>(q.cache_hits),
              q.lookups ? 100.0 * static_cast<double>(q.cache_hits) /
                              static_cast<double>(q.lookups)
                        : 0.0);
  std::printf("reach queries:  %llu\n",
              static_cast<unsigned long long>(q.strands));
  if (q.sampled + q.skipped > 0) {
    std::printf("sampling plane: %llu accesses detected, %llu skipped "
                "(%.1f%% admitted)\n",
                static_cast<unsigned long long>(q.sampled),
                static_cast<unsigned long long>(q.skipped),
                100.0 * static_cast<double>(q.sampled) /
                    static_cast<double>(q.sampled + q.skipped));
  }
  // Memory accounting (session::memory_stats) — the counters the serve
  // daemon's per-stream budgets are enforced against.
  const frd::detect::memory_stats m = s.memory_stats();
  std::printf("memory:         %llu bytes (shadow %llu in %llu pages, "
              "query cache %llu)\n",
              static_cast<unsigned long long>(m.total_bytes()),
              static_cast<unsigned long long>(m.store_bytes),
              static_cast<unsigned long long>(m.store_pages),
              static_cast<unsigned long long>(m.query_cache_bytes));
  // Peak = the run's high-water mark, the number serve budgets charge.
  std::printf("peak memory:    %llu bytes (shadow %llu)\n",
              static_cast<unsigned long long>(m.peak_total_bytes),
              static_cast<unsigned long long>(m.peak_store_bytes));
  std::printf("report buffer:  %llu/%llu races retained\n",
              static_cast<unsigned long long>(m.report_retained),
              static_cast<unsigned long long>(m.report_capacity));
}

// Positions `src` so the next event delivered is event `from`: containers
// seek through the footer's per-chunk index; flat traces decode-and-discard.
// Returns how many events actually exist in front of the target (== from
// unless the trace is shorter).
std::uint64_t skip_to_event(trace::trace_source& src, std::uint64_t from) {
  if (auto* cs = dynamic_cast<container::container_source*>(&src)) {
    if (from > cs->info().event_count) return cs->info().event_count;
    cs->seek_to_event(from);
    return from;
  }
  trace::trace_event e;
  std::uint64_t n = 0;
  while (n < from && src.next(e)) ++n;
  return n;
}

// Delivers the wrapped source's first `limit` events and, past the limit,
// the rest of the walk step in progress: the player rejects a step cut
// short. Every step but program_end ends with a strand_begin.
class prefix_source final : public trace::trace_source {
 public:
  prefix_source(trace::trace_source& src, std::uint64_t limit)
      : src_(src), limit_(limit) {}
  const trace::trace_header& header() const override { return src_.header(); }
  bool next(trace::trace_event& e) override {
    if (!in_step_ && total_ >= limit_) return false;
    if (!src_.next(e)) return false;
    ++total_;
    using trace::event_kind;
    in_step_ = e.kind != event_kind::strand_begin &&
               e.kind != event_kind::program_end &&
               e.kind != event_kind::read && e.kind != event_kind::write;
    return true;
  }
  // Access runs stop at the limit; none is handed out inside a step.
  std::span<const trace::trace_event> access_run(std::size_t max) override {
    if (in_step_ || total_ >= limit_) return {};
    const std::span<const trace::trace_event> run =
        src_.access_run(std::min<std::uint64_t>(max, limit_ - total_));
    total_ += run.size();
    return run;
  }

 private:
  trace::trace_source& src_;
  std::uint64_t limit_;
  std::uint64_t total_ = 0;
  bool in_step_ = false;
};

// The --from > 0 path: no dag prefix means no reachability, so this scans
// the window's accesses through a per-granule last-writer/reader cell and
// flags granules with conflicting access pairs (distinct strands, at least
// one write). Deliberately an overapproximation; the output says so.
int window_scan(trace::trace_source& src, const std::string& path,
                std::uint64_t from, std::uint64_t to) {
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  struct wcell {
    std::uint64_t writer = kNone;  // last writer strand
    std::uint64_t reader = kNone;  // one recorded reader since that write
    bool more_readers = false;     // a second distinct reader existed
  };
  if (skip_to_event(src, from) != from) {
    std::fprintf(stderr, "run: --from %llu is past the end of '%s'\n",
                 static_cast<unsigned long long>(from), path.c_str());
    return 1;
  }
  std::unordered_map<std::uint64_t, wcell> cells;
  std::set<std::uint64_t> conflicts;
  std::uint64_t current = kNone;  // unknown until a strand boundary
  std::uint64_t events = 0, accesses = 0, skipped = 0;
  trace::trace_event e;
  while ((to == 0 || from + events < to) && src.next(e)) {
    ++events;
    switch (e.kind) {
      case trace::event_kind::program_begin:
        current = e.program_begin.first;
        break;
      case trace::event_kind::strand_begin:
        current = e.strand_begin.s;
        break;
      case trace::event_kind::read:
      case trace::event_kind::write: {
        if (current == kNone) {
          ++skipped;  // owner strand began before the window
          break;
        }
        ++accesses;
        wcell& c = cells[e.access.addr];
        const bool is_write = e.kind == trace::event_kind::write;
        const bool clash =
            (c.writer != kNone && c.writer != current) ||
            (is_write &&
             ((c.reader != kNone && c.reader != current) || c.more_readers));
        if (clash) conflicts.insert(e.access.addr);
        if (is_write) {
          c.writer = current;
          c.reader = kNone;
          c.more_readers = false;
        } else if (c.reader == kNone) {
          c.reader = current;
        } else if (c.reader != current) {
          c.more_readers = true;
        }
        break;
      }
      default:
        break;  // dag events carry no reachability here by design
    }
  }
  std::printf("window scan:    events [%llu, %llu) of %s\n",
              static_cast<unsigned long long>(from),
              static_cast<unsigned long long>(from + events), path.c_str());
  std::printf("  (reachability-free: flagged granules have conflicting access "
              "pairs in the\n   window; logically ordered strands are NOT "
              "excluded — replay from event 0\n   for sound detection)\n");
  std::printf("window events:  %llu (%llu accesses scanned, %llu skipped "
              "before a strand boundary)\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(accesses),
              static_cast<unsigned long long>(skipped));
  std::printf("conflict granules: %zu\n", conflicts.size());
  std::size_t shown = 0;
  for (const std::uint64_t a : conflicts) {
    if (shown++ == 16) {
      std::printf("  ... (%zu more)\n", conflicts.size() - 16);
      break;
    }
    std::printf("  0x%llx\n", static_cast<unsigned long long>(a));
  }
  return 0;
}

int cmd_record(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& program = flags.string_flag("program", "demo",
                                    "demo | fuzz | fuzz-general");
  auto& out_path = flags.string_flag("out", "", "output trace file (required)");
  auto& backend = flags.string_flag("backend", "multibags+",
                                    "detection backend while recording");
  auto& granule = flags.int_flag("granule", 4, "shadow granule (bytes)");
  auto& seed = flags.int_flag("seed", 1, "fuzz seed");
  auto& do_compress = flags.bool_flag(
      "compress", false, "write a .frdtz container instead of a flat trace");
  flags.parse();
  // Every input is validated (and the session constructed — bad backend
  // names throw here) BEFORE the output file is created, so no failure mode
  // leaves a bogus artifact at --out.
  if (out_path.empty()) {
    std::fprintf(stderr, "record: --out is required\n");
    return 2;
  }
  if (program != "demo" && program != "fuzz" && program != "fuzz-general") {
    std::fprintf(stderr, "record: unknown --program '%s'\n", program.c_str());
    return 2;
  }
  if (granule < 1 || !frd::valid_granule(static_cast<std::size_t>(granule))) {
    std::fprintf(stderr, "record: --granule must be a power of two in "
                         "[1, 4096]\n");
    return 2;
  }
  session s(session::options{.backend = backend,
                             .granule = static_cast<std::size_t>(granule)});

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "record: cannot open '%s' for writing\n",
                 out_path.c_str());
    return 1;
  }
  const trace::trace_header header{
      trace::kTraceVersion, static_cast<std::uint32_t>(granule)};
  std::unique_ptr<trace::trace_sink> sink;
  if (do_compress) {
    sink = std::make_unique<container::container_writer>(out, header);
  } else {
    sink = std::make_unique<trace::trace_writer>(out, header);
  }

  s.record_to(*sink);
  try {
    if (program == "demo") {
      demo_program(s);
    } else {
      fuzz_program(s, static_cast<std::uint64_t>(seed), program == "fuzz");
    }
    // finish() throws trace_error on stream failure (disk full etc.) — like
    // any other failure in this block it lands in the catch below, so no
    // failure mode leaves a truncated artifact behind.
    sink->finish();
    out.close();
    if (!out) throw trace::trace_error("writing '" + out_path + "' failed");
  } catch (...) {
    // Don't leave a partial artifact behind: a half-written trace that a
    // later script might ship as a repro is worse than no file.
    out.close();
    std::remove(out_path.c_str());
    throw;
  }

  std::printf("recorded '%s' to %s (%s)\n", program.c_str(), out_path.c_str(),
              do_compress ? "container" : "binary");
  print_report(s, 0);
  return 0;
}

// exec: the online pump end-to-end. The program runs live on the
// work-stealing parallel runtime with detection attached; --record captures
// the pump's arbitration order so `frd-trace run` on the file reproduces
// this report byte-identically (the conformance oracle).
int cmd_exec(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& program = flags.string_flag("program", "demo",
                                    "demo | fuzz | fuzz-general");
  auto& backend = flags.string_flag("backend", "multibags+",
                                    "detection backend");
  auto& granule = flags.int_flag("granule", 4, "shadow granule (bytes)");
  auto& seed = flags.int_flag("seed", 1, "fuzz seed");
  auto& runtime_workers = flags.int_flag(
      "runtime-workers", 0,
      "work-stealing scheduler width (0 = hardware concurrency)");
  auto& record_path = flags.string_flag(
      "record", "",
      "also record the arbitration-order trace here (serial replay of it "
      "reproduces this run's report byte-identically)");
  auto& do_compress = flags.bool_flag(
      "compress", false, "--record writes a .frdtz container");
  flags.parse();
  if (program != "demo" && program != "fuzz" && program != "fuzz-general") {
    std::fprintf(stderr, "exec: unknown --program '%s'\n", program.c_str());
    return 2;
  }
  if (granule < 1 || !frd::valid_granule(static_cast<std::size_t>(granule))) {
    std::fprintf(stderr, "exec: --granule must be a power of two in "
                         "[1, 4096]\n");
    return 2;
  }
  if (runtime_workers < 0 || runtime_workers > 256) {
    std::fprintf(stderr, "exec: --runtime-workers must be in [0, 256]\n");
    return 2;
  }
  if (do_compress && record_path.empty()) {
    std::fprintf(stderr, "exec: --compress needs --record\n");
    return 2;
  }
  session s(session::options{
      .backend = backend,
      .granule = static_cast<std::size_t>(granule),
      .runtime = runtime_kind::parallel,
      .runtime_workers = static_cast<unsigned>(runtime_workers)});

  std::ofstream out;
  std::unique_ptr<trace::trace_sink> sink;
  if (!record_path.empty()) {
    out.open(record_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "exec: cannot open '%s' for writing\n",
                   record_path.c_str());
      return 1;
    }
    const trace::trace_header header{
        trace::kTraceVersion, static_cast<std::uint32_t>(granule)};
    if (do_compress) {
      sink = std::make_unique<container::container_writer>(out, header);
    } else {
      sink = std::make_unique<trace::trace_writer>(out, header);
    }
    s.record_to(*sink);
  }

  try {
    if (program == "demo") {
      demo_program(s);
    } else {
      fuzz_program(s, static_cast<std::uint64_t>(seed), program == "fuzz");
    }
    if (sink) {
      sink->finish();
      out.close();
      if (!out) {
        throw trace::trace_error("writing '" + record_path + "' failed");
      }
    }
  } catch (...) {
    if (!record_path.empty()) {
      // Same no-partial-artifact contract as record.
      out.close();
      std::remove(record_path.c_str());
    }
    throw;
  }

  std::printf("executed '%s' online\n", program.c_str());
  if (!record_path.empty()) {
    std::printf("recorded arbitration order to %s (%s)\n", record_path.c_str(),
                do_compress ? "container" : "binary");
  }
  print_report(s, 0);
  return 0;
}

int cmd_run(const std::string& path, int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& backend = flags.string_flag("backend", "multibags+",
                                    "detection backend to replay through");
  auto& batch = flags.int_flag(
      "batch",
      static_cast<std::int64_t>(trace::trace_player::kDefaultBatchCapacity),
      "replay batch size (accesses per batched detector call; >= 1)");
  auto& from = flags.int_flag(
      "from", 0, "first event of the replay window (> 0: conflict scan)");
  auto& to = flags.int_flag("to", 0, "stop before this event (0 = end)");
  auto& sample_rate = flags.double_flag(
      "sample-rate", 1.0,
      "detect on this fraction of accesses, seeded and reproducible; "
      "(0, 1], 1.0 = full detection");
  auto& sample_seed =
      flags.int_flag("sample-seed", 1, "sampling decision seed");
  auto& sample_policy = flags.string_flag(
      "sample-policy", "granule",
      "granule (per-granule decision; sampled report is a subset of the "
      "full one) | epoch (whole dag-event windows admitted or skipped)");
  auto& history_depth = flags.int_flag(
      "history-depth", 0,
      "retained readers per granule; 0 = unbounded (the full paper "
      "protocol), N >= 1 keeps the most recent N (short-race windows)");
  flags.parse();
  if (batch < 1) {
    std::fprintf(stderr, "run: --batch must be >= 1\n");
    return 2;
  }
  if (from < 0 || to < 0 || (to > 0 && to <= from)) {
    std::fprintf(stderr, "run: need 0 <= --from < --to\n");
    return 2;
  }
  if (!(sample_rate > 0.0 && sample_rate <= 1.0)) {
    std::fprintf(stderr, "run: --sample-rate must be in (0, 1]\n");
    return 2;
  }
  if (sample_policy != "granule" && sample_policy != "epoch") {
    std::fprintf(stderr, "run: --sample-policy must be granule or epoch\n");
    return 2;
  }
  if (history_depth < 0) {
    std::fprintf(stderr,
                 "run: --history-depth must be >= 0 (0 = unbounded)\n");
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "run: cannot open '%s'\n", path.c_str());
    return 1;
  }
  auto src = trace::open_source(in);
  if (from > 0) {
    // No dag prefix, no reachability: the explicit degraded mode.
    return window_scan(*src, path, static_cast<std::uint64_t>(from),
                       static_cast<std::uint64_t>(to));
  }
  session s(session::options{
      .backend = backend,
      .granule = static_cast<std::size_t>(src->header().granule),
      .replay_batch = static_cast<std::size_t>(batch),
      .sample_rate = sample_rate,
      .sample_seed = static_cast<std::uint64_t>(sample_seed),
      .sampling = sample_policy == "epoch"
                      ? frd::detect::sample_policy::epoch
                      : frd::detect::sample_policy::granule,
      // CLI 0 = unbounded, like --to 0 = end-of-trace.
      .shadow_history_depth =
          history_depth == 0 ? shadow::kUnboundedHistory
                             : static_cast<std::size_t>(history_depth)});
  std::uint64_t events = 0;
  if (to > 0) {
    // Exact prefix detection: identical to replaying a truncated trace.
    prefix_source prefix(*src, static_cast<std::uint64_t>(to));
    events = s.replay(prefix);
    std::printf("window:         events [0, %llu) of %s\n",
                static_cast<unsigned long long>(events), path.c_str());
  } else {
    events = s.replay(*src);
  }
  print_report(s, events);
  return 0;
}

int cmd_dump(const std::string& path, int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& from = flags.int_flag("from", 0, "first event to dump");
  auto& to = flags.int_flag("to", 0, "stop before this event (0 = end)");
  flags.parse();
  if (from < 0 || to < 0 || (to > 0 && to <= from)) {
    std::fprintf(stderr, "dump: need 0 <= --from < --to\n");
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "dump: cannot open '%s'\n", path.c_str());
    return 1;
  }
  auto src = trace::open_source(in);
  trace::jsonl_writer out(std::cout, src->header());
  if (skip_to_event(*src, static_cast<std::uint64_t>(from)) !=
      static_cast<std::uint64_t>(from)) {
    std::fprintf(stderr, "dump: --from %lld is past the end of '%s'\n",
                 static_cast<long long>(from), path.c_str());
    return 1;
  }
  std::uint64_t dumped = 0;
  const std::uint64_t limit =
      to > 0 ? static_cast<std::uint64_t>(to - from) : ~std::uint64_t{0};
  trace::trace_event e;
  while (dumped < limit && src->next(e)) {
    out.put(e);
    ++dumped;
  }
  out.finish();  // surfaces a failed stdout (redirected to a full disk, ...)
  return 0;
}

void print_container_stats(const container::container_info& ci,
                           std::uint64_t file_size, bool per_chunk);

int cmd_stats(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "stats: cannot open '%s'\n", path.c_str());
    return 1;
  }
  auto src = trace::open_source(in);
  std::uint64_t counts[trace::kEventKindCount] = {};
  std::uint64_t total = 0, accesses = 0;
  std::uint32_t max_strand = 0;
  // Access-run shape: maximal runs of consecutive read/write events — the
  // trace-side bound on the player's batches.
  std::uint64_t runs = 0, run_len = 0, max_run = 0;
  trace::trace_event e;
  while (src->next(e)) {
    ++counts[static_cast<int>(e.kind)];
    ++total;
    if (e.kind == trace::event_kind::read ||
        e.kind == trace::event_kind::write) {
      ++accesses;
      if (run_len++ == 0) ++runs;
      if (run_len > max_run) max_run = run_len;
    } else {
      run_len = 0;
    }
    if (e.kind == trace::event_kind::strand_begin &&
        e.strand_begin.s > max_strand) {
      max_strand = e.strand_begin.s;
    }
  }
  std::printf("trace:    %s\n", path.c_str());
  std::printf("version:  %u   granule: %u bytes\n", src->header().version,
              src->header().granule);
  std::printf("events:   %llu (%llu accesses)\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(accesses));
  std::printf("strands:  >= %u\n", max_strand + 1);
  std::printf("access runs: %llu (mean %.1f, max %llu per run)\n",
              static_cast<unsigned long long>(runs),
              runs ? static_cast<double>(accesses) / static_cast<double>(runs)
                   : 0.0,
              static_cast<unsigned long long>(max_run));
  for (int k = 0; k < trace::kEventKindCount; ++k) {
    if (counts[k] == 0) continue;
    std::printf("  %-14s %llu\n",
                std::string(to_string(static_cast<trace::event_kind>(k))).c_str(),
                static_cast<unsigned long long>(counts[k]));
  }
  // Containers get a second section: what the chunk layer did to the bytes.
  if (const auto* cs = dynamic_cast<container::container_source*>(src.get())) {
    in.clear();
    in.seekg(0, std::ios::end);
    const auto file_size = static_cast<std::uint64_t>(in.tellg());
    print_container_stats(cs->info(), file_size, /*per_chunk=*/false);
  }
  return 0;
}

void print_container_stats(const container::container_info& ci,
                           std::uint64_t file_size, bool per_chunk) {
  std::set<std::uint64_t> seen;
  std::uint64_t lz_unique = 0, raw_unique = 0;
  for (const auto& c : ci.chunks) {
    if (!seen.insert(c.offset).second) continue;
    ++(c.encoding == container::chunk_encoding::lz ? lz_unique : raw_unique);
  }
  const std::uint64_t hits = ci.dedup_hits();
  std::printf("container: v%u (seekable event index)\n",
              container::kContainerVersion);
  std::printf("container: %llu chunks (%llu unique: %llu lz, %llu raw)\n",
              static_cast<unsigned long long>(ci.chunks.size()),
              static_cast<unsigned long long>(ci.chunks.size() - hits),
              static_cast<unsigned long long>(lz_unique),
              static_cast<unsigned long long>(raw_unique));
  std::printf("  raw stream:    %llu bytes in %llu events\n",
              static_cast<unsigned long long>(ci.raw_size),
              static_cast<unsigned long long>(ci.event_count));
  std::printf("  stored:        %llu payload bytes, %llu on disk (ratio "
              "%.2fx)\n",
              static_cast<unsigned long long>(ci.payload_bytes()),
              static_cast<unsigned long long>(file_size),
              ci.compression_ratio(file_size));
  std::printf("  dedup:         %llu hits (%.1f%% of chunks), %llu raw bytes "
              "saved\n",
              static_cast<unsigned long long>(hits),
              ci.chunks.empty() ? 0.0
                                : 100.0 * static_cast<double>(hits) /
                                      static_cast<double>(ci.chunks.size()),
              static_cast<unsigned long long>(ci.dedup_saved_raw_bytes()));
  if (!per_chunk) return;
  std::printf("  %-5s %-10s %-9s %-9s %-11s %-9s %s\n", "chunk", "offset",
              "stored", "raw", "first-ev", "first-off", "enc");
  for (std::size_t i = 0; i < ci.chunks.size(); ++i) {
    const auto& c = ci.chunks[i];
    std::printf("  %-5zu %-10llu %-9llu %-9llu %-11llu %-9llu %s\n", i,
                static_cast<unsigned long long>(c.offset),
                static_cast<unsigned long long>(c.stored_size),
                static_cast<unsigned long long>(c.raw_size),
                static_cast<unsigned long long>(c.first_event),
                static_cast<unsigned long long>(c.first_offset),
                c.encoding == container::chunk_encoding::lz ? "lz" : "raw");
  }
}

// True when `out` names the file at `in`. Opening it for writing would
// truncate the input before it is read, and the failed run's clean-up would
// then delete the only copy. A missing file is never the same file.
bool same_file(const std::string& in, const std::string& out) {
  std::error_code ec;
  return std::filesystem::equivalent(in, out, ec);
}

int cmd_pack(const std::string& path, int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& out_path = flags.string_flag("out", "", "output .frdtz (required)");
  auto& chunks = flags.bool_flag("chunks", false, "print the chunk table");
  flags.parse();
  if (out_path.empty()) {
    std::fprintf(stderr, "pack: --out is required\n");
    return 2;
  }
  if (same_file(path, out_path)) {
    std::fprintf(stderr, "pack: --out '%s' is the input file\n",
                 out_path.c_str());
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "pack: cannot open '%s'\n", path.c_str());
    return 1;
  }
  auto src = trace::open_source(in);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "pack: cannot open '%s' for writing\n",
                 out_path.c_str());
    return 1;
  }
  try {
    container::container_writer cw(out, src->header());
    trace::trace_event e;
    while (src->next(e)) cw.put(e);
    cw.finish();
    out.close();
    if (!out) throw trace::trace_error("writing '" + out_path + "' failed");

    std::ifstream packed(out_path, std::ios::binary | std::ios::ate);
    const auto file_size = static_cast<std::uint64_t>(packed.tellg());
    std::printf("packed %s -> %s\n", path.c_str(), out_path.c_str());
    print_container_stats(cw.info(), file_size, chunks);
  } catch (...) {
    // Same no-partial-artifact contract as record.
    out.close();
    std::remove(out_path.c_str());
    throw;
  }
  return 0;
}

int cmd_unpack(const std::string& path, int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& out_path = flags.string_flag("out", "", "output .frdt (required)");
  flags.parse();
  if (out_path.empty()) {
    std::fprintf(stderr, "unpack: --out is required\n");
    return 2;
  }
  if (same_file(path, out_path)) {
    std::fprintf(stderr, "unpack: --out '%s' is the input file\n",
                 out_path.c_str());
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "unpack: cannot open '%s'\n", path.c_str());
    return 1;
  }
  if (!container::looks_like_container(in)) {
    std::fprintf(stderr, "unpack: '%s' is not a .frdtz container\n",
                 path.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "unpack: cannot open '%s' for writing\n",
                 out_path.c_str());
    return 1;
  }
  try {
    const container::container_info ci = container::unpack(in, out);
    out.close();
    if (!out) throw trace::trace_error("writing '" + out_path + "' failed");
    std::printf("unpacked %s -> %s (%llu bytes, %llu events, %zu chunks "
                "verified)\n",
                path.c_str(), out_path.c_str(),
                static_cast<unsigned long long>(ci.raw_size),
                static_cast<unsigned long long>(ci.event_count),
                ci.chunks.size());
  } catch (...) {
    out.close();
    std::remove(out_path.c_str());
    throw;
  }
  return 0;
}

// --- frd-serve client verbs -----------------------------------------------

int cmd_submit(const std::string& path, int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& socket = flags.string_flag("socket", "", "frd-serve socket (required)");
  auto& backend = flags.string_flag("backend", "multibags+", "detector backend");
  auto& budget_mb = flags.int_flag(
      "budget-mb", 0, "request this per-stream budget in MiB (<= server's)");
  auto& golden_out = flags.string_flag(
      "golden-out", "", "also write the report in corpus golden format");
  flags.parse();
  if (socket.empty()) {
    std::fprintf(stderr, "submit: --socket is required\n");
    return 2;
  }
  if (budget_mb < 0) {
    std::fprintf(stderr, "submit: --budget-mb must be >= 0\n");
    return 2;
  }

  serve::client cli(socket);
  serve::submit_options opt;
  opt.backend = backend;
  opt.budget = static_cast<std::uint64_t>(budget_mb) << 20;
  const serve::submit_result r = cli.submit_file(path, opt);
  if (!r.ok) {
    std::fprintf(stderr, "submit: stream failed (%s): %s\n",
                 std::string(serve::to_string(r.code)).c_str(),
                 r.error.c_str());
    return 1;
  }

  std::printf("backend:        %s\n", backend.c_str());
  std::printf("trace events:   %llu\n",
              static_cast<unsigned long long>(r.golden.events));
  std::printf("accesses:       %llu\n",
              static_cast<unsigned long long>(r.golden.accesses));
  std::printf("gets (k):       %llu\n",
              static_cast<unsigned long long>(r.golden.gets));
  std::printf("races:          %llu (%zu distinct granules)\n",
              static_cast<unsigned long long>(r.races_total),
              r.golden.racy_granules.size());
  std::printf("memory:         %llu bytes (shadow %llu in %llu pages, "
              "query cache %llu)\n",
              static_cast<unsigned long long>(
                  r.store_bytes + r.query_cache_bytes),
              static_cast<unsigned long long>(r.store_bytes),
              static_cast<unsigned long long>(r.store_pages),
              static_cast<unsigned long long>(r.query_cache_bytes));
  std::printf("report buffer:  %llu/%llu races retained\n",
              static_cast<unsigned long long>(r.report_retained),
              static_cast<unsigned long long>(r.report_capacity));
  for (const serve::race_msg& m : r.races) {
    std::printf("race: granule 0x%llx  %s strand %llu vs %s strand %llu\n",
                static_cast<unsigned long long>(m.granule_addr),
                m.prior_is_write ? "write" : "read",
                static_cast<unsigned long long>(m.prior),
                m.current_is_write ? "write" : "read",
                static_cast<unsigned long long>(m.current));
  }

  if (!golden_out.empty()) {
    std::ofstream gout(golden_out);
    if (!gout) {
      std::fprintf(stderr, "submit: cannot open '%s' for writing\n",
                   golden_out.c_str());
      return 1;
    }
    corpus::write_golden(gout, r.golden);
    if (!gout.flush()) {
      std::fprintf(stderr, "submit: writing '%s' failed\n", golden_out.c_str());
      return 1;
    }
  }
  return 0;
}

int cmd_shutdown(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& socket = flags.string_flag("socket", "", "frd-serve socket (required)");
  flags.parse();
  if (socket.empty()) {
    std::fprintf(stderr, "shutdown: --socket is required\n");
    return 2;
  }
  serve::client cli(socket);
  cli.shutdown_server();
  std::printf("frd-serve at %s is shutting down\n", socket.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "record") return cmd_record(argc - 1, argv + 1);
    if (cmd == "exec") return cmd_exec(argc - 1, argv + 1);
    if (cmd == "shutdown") return cmd_shutdown(argc - 1, argv + 1);
    if (cmd == "run" || cmd == "dump" || cmd == "stats" || cmd == "pack" ||
        cmd == "unpack" || cmd == "submit") {
      if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr, "%s: expected a trace file argument\n",
                     cmd.c_str());
        return usage(argv[0]);
      }
      const std::string path = argv[2];
      if (cmd == "run") return cmd_run(path, argc - 2, argv + 2);
      if (cmd == "dump") return cmd_dump(path, argc - 2, argv + 2);
      if (cmd == "pack") return cmd_pack(path, argc - 2, argv + 2);
      if (cmd == "unpack") return cmd_unpack(path, argc - 2, argv + 2);
      if (cmd == "submit") return cmd_submit(path, argc - 2, argv + 2);
      return cmd_stats(path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "frd-trace %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage(argv[0]);
}
