// Online-detection overhead: the price of running a program on the
// work-stealing parallel runtime WITH detection live (src/online/), against
// the same program on the bare parallel runtime with no instrumentation.
//
// Two modes per (program, workers) point:
//
//   bare     rt::parallel_runtime, hooks::none, no session — the paper's
//            production configuration (detect during testing, run free).
//   online   frd::session{runtime = parallel}, hooks::active, full
//            detection streaming through the per-worker rings and the
//            canonical-walk pump, one row per backend.
//
// The deliverable is the per-backend overhead factor (online / bare, from
// the medians of the measured runs after one warmup), written with both
// medians to --json (bench/snapshot.hpp). Kernels validate their answers
// against the uninstrumented references, and the online rows must report
// zero races — an overhead number from a detector that mis-detects is not
// an overhead number, so a racy online row fails the run before any
// snapshot is written. Before anything is timed, a racy canary runs online
// at every swept width and must report every racy granule a serial run of
// it does (its golden's 32): a worker filter that dropped first accesses,
// or hooks that compiled to nothing, fail the run there.
//
// On a single-core container every worker count times about the same; the
// snapshot still fixes the overhead trajectory for hosts with real
// parallelism.
#include <cstdio>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "bench/config.hpp"
#include "bench/list_flag.hpp"
#include "bench/snapshot.hpp"
#include "bench_suite/lcs.hpp"
#include "bench_suite/mm.hpp"
#include "corpus/manifest.hpp"
#include "corpus/programs.hpp"
#include "corpus/runner.hpp"
#include "detect/hooks.hpp"
#include "runtime/parallel.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace frd;

namespace {

// A kernel closure generic over the runtime — the same callable runs on the
// bare parallel runtime and inside an online session's generic driver. The
// bool selects the hooks policy (instrumented or not).
struct program_case {
  std::string name;
  std::function<void(rt::parallel_runtime&, bool)> bare;
  std::function<void(session&, bool)> online;
};

std::vector<program_case> make_cases(const bench_harness::sizes& sz) {
  std::vector<program_case> out;
  {
    auto in = std::make_shared<bench::lcs_input>(
        bench::make_lcs_input(sz.lcs_n, 101));
    auto want = std::make_shared<int>(bench::lcs_reference(*in));
    const std::size_t base = sz.lcs_base;
    auto run = [in, want, base](auto& rt, bool instr) {
      const int got =
          instr ? bench::lcs_structured<detect::hooks::active>(rt, *in, base)
                : bench::lcs_structured<detect::hooks::none>(rt, *in, base);
      FRD_CHECK_MSG(got == *want, "lcs kernel produced a wrong answer");
    };
    out.push_back(
        {"lcs-structured", [run](rt::parallel_runtime& rt, bool i) { run(rt, i); },
         [run](session& s, bool i) {
           s.run([&](auto& rt) { run(rt, i); });
         }});
  }
  {
    auto in = std::make_shared<bench::mm_input>(
        bench::make_mm_input(sz.mm_n, 103));
    auto want =
        std::make_shared<double>(bench::mm_checksum(bench::mm_reference(*in)));
    const std::size_t base = sz.mm_base;
    auto run = [in, want, base](auto& rt, bool instr) {
      const std::vector<float> got =
          instr ? bench::mm_structured<detect::hooks::active>(rt, *in, base)
                : bench::mm_structured<detect::hooks::none>(rt, *in, base);
      FRD_CHECK_MSG(bench::mm_checksum(got) == *want,
                    "mm kernel produced a wrong answer");
    };
    out.push_back(
        {"mm-structured", [run](rt::parallel_runtime& rt, bool i) { run(rt, i); },
         [run](session& s, bool i) {
           s.run([&](auto& rt) { run(rt, i); });
         }});
  }
  return out;
}

struct row {
  std::string program;
  std::string backend;  // "-" for bare rows
  unsigned workers = 0;
  std::string mode;  // "bare" | "online"
  double min_s = 0, median_s = 0, rsd = 0;
  double overhead_vs_bare = 0;  // online rows only (vs the bare median)
};

// At the default sizes a bare run takes 2-10 ms on a 4-core host, too short
// for one timer sample: such samples swung by up to ±40 %, and every
// overhead factor divides by them. So the warmup repeats the bare run until
// it has taken kMinBareSampleSeconds, and each timed sample repeats it as
// many times back to back and reports the time per run. (Larger inputs
// would change the fig6/fig7 sizes bench/config.hpp shares.)
constexpr double kMinBareSampleSeconds = 0.05;

row bench_bare(const program_case& c, unsigned workers, int reps) {
  int runs = 0;
  {
    rt::parallel_runtime rt(workers);
    wall_timer t;
    do {
      c.bare(rt, /*instrumented=*/false);
      ++runs;
    } while (t.seconds() < kMinBareSampleSeconds);
  }
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    rt::parallel_runtime rt(workers);
    wall_timer t;
    for (int i = 0; i < runs; ++i) c.bare(rt, /*instrumented=*/false);
    times.push_back(t.seconds() / runs);
  }
  row out;
  out.program = c.name;
  out.backend = "-";
  out.workers = workers;
  out.mode = "bare";
  out.min_s = minimum(times);
  out.median_s = median(times);
  out.rsd = rel_stddev(times);
  return out;
}

row bench_online(const program_case& c, const std::string& backend,
                 unsigned workers, int reps) {
  std::vector<double> times;
  std::uint64_t races = 0;
  for (int r = 0; r < reps + 1; ++r) {
    session s(session::options{.backend = backend,
                               .runtime = runtime_kind::parallel,
                               .runtime_workers = workers});
    wall_timer t;
    c.online(s, /*instrumented=*/true);
    if (r > 0) times.push_back(t.seconds());
    races = s.report().total();
  }
  if (races != 0) {
    throw std::runtime_error(
        c.name + " reported " + std::to_string(races) + " races online under " +
        backend + "; the kernel is race-free, so the overhead row is suspect");
  }
  row out;
  out.program = c.name;
  out.backend = backend;
  out.workers = workers;
  out.mode = "online";
  out.min_s = minimum(times);
  out.median_s = median(times);
  out.rsd = rel_stddev(times);
  return out;
}

// The detection-is-on canary, outside every timed region: the racy
// wavefront-structured-large corpus program, live on the serial runtime
// once, then online once per width with the session defaults of the timed
// rows. Online must find at least the serial run's racy granules, and the
// serial run must find some. Returns false (after saying why) otherwise.
bool online_canary(const std::string& backend,
                   const std::vector<unsigned>& widths) {
  const corpus::manifest m = corpus::builtin_manifest();
  const corpus::corpus_entry* e = m.find("wavefront-structured-large");
  if (e == nullptr) {
    std::fprintf(stderr, "online_overhead: canary entry missing\n");
    return false;
  }
  const corpus::corpus_program* prog = corpus::find_program(e->program);
  session serial(session::options{.backend = backend, .granule = e->granule});
  prog->run(serial, e->seed);
  const std::size_t want = serial.report().racy_granules().size();
  bool ok = want > 0;
  for (unsigned w : widths) {
    session s(session::options{.backend = backend,
                               .granule = e->granule,
                               .runtime = runtime_kind::parallel,
                               .runtime_workers = w});
    prog->run(s, e->seed);
    const std::size_t racy = s.report().racy_granules().size();
    std::fprintf(stderr,
                 "[online] canary %s under %s w=%u: %zu racy granules "
                 "(serial %zu), %llu of %llu accesses elided\n",
                 e->name.c_str(), backend.c_str(), w, racy, want,
                 static_cast<unsigned long long>(s.query_stats().elided),
                 static_cast<unsigned long long>(s.access_count()));
    if (racy < want) ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "online_overhead: the canary lost racy granules; "
                         "detection is not fully on, so the table would "
                         "time the wrong thing\n");
  }
  return ok;
}

// Every row's median seconds, grouped by mode (bare, or the online
// backend), and each online row's overhead factor, a ratio of two medians
// from this run.
std::vector<snapshot::row> snapshot_rows(const std::vector<row>& rows) {
  std::vector<snapshot::row> out;
  for (const row& r : rows) {
    const std::vector<std::pair<std::string, std::string>> key{
        {"program", r.program},
        {"backend", r.backend},
        {"workers", std::to_string(r.workers)}};
    const std::string group = r.mode == "bare" ? "bare" : r.backend;
    out.push_back({"online", group, key, "median_seconds", r.median_s,
                   snapshot::better::lower});
    if (r.mode == "online") {
      out.push_back({"online", group, key, "overhead_vs_bare",
                     r.overhead_vs_bare, snapshot::better::lower});
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& reps = flags.int_flag("reps", 3, "measured repetitions (plus 1 warmup)");
  auto& scale = flags.double_flag("scale", 1.0, "input size multiplier");
  auto& backends = flags.string_flag(
      "backends", "multibags,multibags+",
      "comma-separated detection backends for the online rows");
  auto& workers_spec = flags.string_flag(
      "workers", "1,4", "comma-separated scheduler widths to sweep");
  auto& json_path = flags.string_flag("json", "BENCH_online_overhead.json",
                                      "snapshot output file");
  flags.parse();
  if (reps < 1) {
    std::fprintf(stderr, "online_overhead: --reps must be >= 1\n");
    return 2;
  }
  std::vector<unsigned> widths;
  for (const std::int64_t w :
       list_flag::integers("workers", workers_spec, 1, 256)) {
    widths.push_back(static_cast<unsigned>(w));
  }
  const std::vector<std::string> backend_names =
      list_flag::names("backends", backends);
  if (widths.empty() || backend_names.empty()) {
    std::fprintf(stderr, "online_overhead: need >= 1 worker width and "
                         "backend\n");
    return 2;
  }

  if (!online_canary(backend_names.front(), widths)) return 1;

  const bench_harness::sizes sz = bench_harness::scaled_sizes(scale);
  std::vector<row> rows;
  try {
    for (const program_case& c : make_cases(sz)) {
      for (unsigned w : widths) {
        std::fprintf(stderr, "[online] %s w=%u: bare...\n", c.name.c_str(), w);
        row bare = bench_bare(c, w, static_cast<int>(reps));
        rows.push_back(bare);
        for (const std::string& b : backend_names) {
          std::fprintf(stderr, "[online] %s w=%u: online (%s)...\n",
                       c.name.c_str(), w, b.c_str());
          row on = bench_online(c, b, w, static_cast<int>(reps));
          on.overhead_vs_bare = on.median_s / bare.median_s;
          rows.push_back(std::move(on));
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "online_overhead: %s\n", e.what());
    return 1;
  }

  text_table t({"program", "workers", "mode", "backend", "median", "min",
                "rsd", "overhead"});
  for (const row& r : rows) {
    char rsd[32], ov[32];
    std::snprintf(rsd, sizeof rsd, "%.1f%%", 100.0 * r.rsd);
    if (r.mode == "online") {
      std::snprintf(ov, sizeof ov, "%.2fx", r.overhead_vs_bare);
    } else {
      std::snprintf(ov, sizeof ov, "-");
    }
    t.add_row({r.program, std::to_string(r.workers), r.mode, r.backend,
               text_table::seconds(r.median_s), text_table::seconds(r.min_s),
               rsd, ov});
  }
  std::printf("\n== Online detection overhead vs bare parallel (%lld reps) "
              "==\n%s",
              static_cast<long long>(reps), t.render().c_str());
  snapshot::write(json_path, "online_overhead", snapshot_rows(rows));
  return 0;
}
