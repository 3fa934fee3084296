// Shared harness for the paper-table benches (Figures 6-8).
//
// A bench case is a kernel closure parameterized by the runtime and a
// compile-time-selected hook policy (passed as a bool: instrumented or
// not). The harness times it under the paper's four configurations:
//
//   baseline         serial runtime, no listener, hooks::none
//   reachability     session listening, hooks::none
//   instrumentation  session listening, hooks::active, no history work
//   full             session listening, hooks::active, full race detection
//
// Each configuration runs `reps` times in a fresh frd::session (sessions are
// one-shot, matching the runtime's dense id minting); the mean is reported
// with the overhead multiplier against the baseline, in the paper's row
// format. Backends are named by their registry key ("multibags",
// "multibags+", ...), so a new backend is benchable without touching this
// file.
//
// A table is only a measurement if its detector detects: a race-free kernel
// that reports races, a structured kernel that breaks single-touch, or a
// canary racy program that reports no race makes the bench exit 1.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "corpus/manifest.hpp"
#include "corpus/programs.hpp"
#include "corpus/runner.hpp"
#include "runtime/serial.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace frd::bench_harness {

// run(rt, instrumented): execute the kernel once. The closure owns its input
// (constructed outside the timed region) and should validate its own answer
// on the first run.
using kernel_fn = std::function<void(rt::serial_runtime&, bool instrumented)>;

struct timing {
  double seconds = 0;
  double rel_stddev = 0;
  std::uint64_t races = 0;
  std::uint64_t violations = 0;
  std::uint64_t gets = 0;
};

inline timing time_config(const kernel_fn& kernel, const std::string& backend,
                          detect::level lvl, int reps) {
  timing out;
  std::vector<double> times;
  // One untimed warmup run so the first configuration measured does not
  // absorb the cold-cache / page-fault cost of touching the input.
  {
    rt::serial_runtime runtime;
    kernel(runtime, false);
  }
  for (int r = 0; r < reps; ++r) {
    if (lvl == detect::level::baseline) {
      rt::serial_runtime runtime;
      wall_timer t;
      kernel(runtime, /*instrumented=*/false);
      times.push_back(t.seconds());
      continue;
    }
    session s(session::options{.backend = backend, .level = lvl});
    s.runtime();  // build the runtime outside the timed region (baseline parity)
    const bool instrumented = lvl == detect::level::instrumentation ||
                              lvl == detect::level::full;
    wall_timer t;
    s.run([&](rt::serial_runtime& runtime) { kernel(runtime, instrumented); });
    times.push_back(t.seconds());
    out.races = s.report().total();
    out.violations = s.structured_violations();
    out.gets = s.get_count();
  }
  out.seconds = mean(times);
  out.rel_stddev = rel_stddev(times);
  return out;
}

struct case_row {
  std::string name;
  kernel_fn kernel;
  bool expect_race_free = true;
  bool expect_disciplined = false;  // assert 0 structured violations
};

[[noreturn]] inline void fail_table(const std::string& why) {
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  std::exit(1);
}

// The detection-is-on canary, outside every timed region: the racy
// wavefront-structured-large corpus program runs once at level full under
// `backend` and must report racy granules. A level or hook policy that
// silently stopped detecting reports none.
inline void run_detection_canary(const std::string& backend) {
  const corpus::manifest m = corpus::builtin_manifest();
  const corpus::corpus_entry* e = m.find("wavefront-structured-large");
  if (e == nullptr) fail_table("canary: no wavefront-structured-large entry");
  session s(session::options{.backend = backend,
                             .level = detect::level::full,
                             .granule = e->granule});
  corpus::find_program(e->program)->run(s, e->seed);
  const std::size_t racy = s.report().racy_granules().size();
  std::fprintf(stderr, "[fig] canary %s under %s: %zu racy granules\n",
               e->name.c_str(), backend.c_str(), racy);
  if (racy == 0) {
    fail_table("canary " + e->name + " reported no racy granule under " +
               backend + "; detection is off, so the table would time nothing");
  }
}

// Runs the Figure 6/7 shape: all four configurations under one backend.
// Returns per-benchmark overheads for the geomean summary.
struct fig_result {
  std::vector<double> reach_overheads;
  std::vector<double> full_overheads;
  std::vector<std::string> names;
};

inline fig_result run_four_config_table(const std::vector<case_row>& cases,
                                        const std::string& backend, int reps,
                                        const char* caption) {
  run_detection_canary(backend);
  text_table table({"bench", "baseline", "reachability", "instr", "full",
                    "k(gets)", "races"});
  fig_result result;
  for (const case_row& c : cases) {
    std::fprintf(stderr, "[fig] %s: baseline...\n", c.name.c_str());
    const timing base =
        time_config(c.kernel, backend, detect::level::baseline, reps);
    std::fprintf(stderr, "[fig] %s: reachability...\n", c.name.c_str());
    const timing reach =
        time_config(c.kernel, backend, detect::level::reachability, reps);
    std::fprintf(stderr, "[fig] %s: instrumentation...\n", c.name.c_str());
    const timing instr =
        time_config(c.kernel, backend, detect::level::instrumentation, reps);
    std::fprintf(stderr, "[fig] %s: full...\n", c.name.c_str());
    const timing full = time_config(c.kernel, backend, detect::level::full, reps);

    if (c.expect_race_free && full.races != 0) {
      fail_table(c.name + " reported " + std::to_string(full.races) +
                 " races under " + backend + "; the kernel is race-free");
    }
    if (c.expect_disciplined && full.violations != 0) {
      fail_table(c.name + " violated the structured discipline " +
                 std::to_string(full.violations) + " times");
    }

    table.add_row({c.name, text_table::seconds(base.seconds),
                   text_table::seconds_with_overhead(reach.seconds, base.seconds),
                   text_table::seconds_with_overhead(instr.seconds, base.seconds),
                   text_table::seconds_with_overhead(full.seconds, base.seconds),
                   std::to_string(full.gets), std::to_string(full.races)});
    result.names.push_back(c.name);
    result.reach_overheads.push_back(reach.seconds / base.seconds);
    result.full_overheads.push_back(full.seconds / base.seconds);
  }
  std::printf("%s\n%s", caption, table.render().c_str());
  return result;
}

// The paper's geometric means exclude dedup (its compression library was not
// instrumentable, §6).
inline void print_geomeans(const fig_result& r, const char* label) {
  std::vector<double> reach, full;
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i].rfind("dedup", 0) == 0) continue;
    reach.push_back(r.reach_overheads[i]);
    full.push_back(r.full_overheads[i]);
  }
  std::printf(
      "geomean overhead (%s, excluding dedup): reachability %.2fx, full "
      "%.2fx\n\n",
      label, geomean(reach), geomean(full));
}

}  // namespace frd::bench_harness
