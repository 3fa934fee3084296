// Replay-mode benchmark: pure detection throughput (trace events/sec) per
// backend, with no kernel execution in the timed region.
//
// Two sources of traces:
//
//   --corpus DIR   (the per-PR snapshot mode) replays every entry of the
//                  checked-in trace corpus through every backend eligible
//                  for it, so the numbers cover the paper kernels and the
//                  adversarial shapes alike and stay comparable across PRs —
//                  the traces are versioned artifacts, not regenerated
//                  programs. Each replay's racy-granule count is checked
//                  against the entry's golden: a perf run on a detector that
//                  silently miscounts races is not a perf run.
//   (default)      a sizeable structured fuzz program is executed and
//                  recorded ONCE into an in-memory trace, then replayed —
//                  the quick local-iteration mode.
//
// Because replay executes no user code, the numbers isolate what the
// paper's full-detection overhead is made of — reachability maintenance +
// access-history work — without kernel noise. Results go to stdout as a
// table and to --json (default BENCH_replay_throughput.json) as the
// machine-readable snapshot CI uploads; perf/ keeps one snapshot per PR.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "corpus/manifest.hpp"
#include "corpus/runner.hpp"
#include "detect/registry.hpp"
#include "graph/fuzz.hpp"
#include "shadow/store.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "trace/event.hpp"
#include "trace/recorder.hpp"

using namespace frd;

namespace {

std::vector<int> g_cells;

void fuzz_into(session& s, std::uint64_t seed, int depth, int actions,
               int futures) {
  graph::fuzz_config cfg;
  cfg.seed = seed;
  cfg.structured = true;  // structured: every futures-capable backend replays
  cfg.max_depth = depth;
  cfg.max_actions_per_body = actions;
  cfg.n_cells = static_cast<std::uint32_t>(g_cells.size());
  cfg.max_futures = static_cast<std::size_t>(futures);
  graph::fuzzer fz(s.runtime(), cfg, [&s](std::uint32_t cell, bool write) {
    if (write) {
      s.write(&g_cells[cell]);
    } else {
      s.read(&g_cells[cell]);
    }
  });
  s.run([&](rt::serial_runtime&) { fz.run(); });
}

struct row {
  std::string trace;  // corpus entry name, or "fuzz" in fuzz mode
  std::string format = "frdt";  // artifact format: frdt | frdtz | memory
  std::string backend;
  std::size_t batch = 256;  // player run length (session replay_batch)
  double sample_rate = 1.0; // sampling-mode rate (1.0 = full detection)
  std::size_t history_depth = shadow::kUnboundedHistory;
  std::uint64_t events = 0;
  double mean_s = 0, min_s = 0, median_s = 0, stddev_s = 0, rsd = 0,
         events_per_sec = 0;
  std::uint64_t racy_granules = 0;
};

// Benchmark settings beyond the per-row sweep axes: warmup replays are run
// and discarded before the measured batch, so first-touch page faults,
// allocator growth, and cold caches never land in a timed repetition
// (SNIPPETS.md §1's warmup/measured separation).
struct bench_settings {
  int warmup = 1;
  int reps = 5;
  double sample_rate = 1.0;
  std::size_t history_depth = shadow::kUnboundedHistory;
};

// Replays `tape` through `backend` with the given player batch size;
// `cfg.warmup` discarded replays, then `cfg.reps` measured ones fill the
// timing columns (mean, min, median, stddev — throughput is derived from the
// mean). All correctness checks happen on the session state AFTER the timer
// stops.
row bench_backend(trace::memory_trace& tape, const std::string& name,
                  const std::string& backend, std::size_t batch,
                  const bench_settings& cfg) {
  std::vector<double> times;
  std::uint64_t racy = 0;
  for (int r = 0; r < cfg.reps + cfg.warmup; ++r) {
    tape.rewind();
    session s(session::options{.backend = backend,
                               .granule = tape.header().granule,
                               .replay_batch = batch,
                               .sample_rate = cfg.sample_rate,
                               .shadow_history_depth = cfg.history_depth});
    wall_timer t;
    s.replay(tape);
    const double secs = t.seconds();
    if (r >= cfg.warmup) times.push_back(secs);
    racy = s.report().racy_granules().size();
  }
  tape.rewind();
  row out;
  out.trace = name;
  out.backend = backend;
  out.batch = batch;
  out.sample_rate = cfg.sample_rate;
  out.history_depth = cfg.history_depth;
  out.events = tape.size();
  out.mean_s = mean(times);
  out.min_s = minimum(times);
  out.median_s = median(times);
  out.stddev_s = stddev(times);
  out.rsd = rel_stddev(times);
  out.events_per_sec = static_cast<double>(tape.size()) / out.mean_s;
  out.racy_granules = racy;
  return out;
}

// --batch-size accepts one value or a comma-separated sweep ("64,256,1024").
// Every token must parse completely — "64;256" must be a usage error, not a
// silent single-size run.
std::vector<std::size_t> parse_batch_sizes(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string tok = spec.substr(pos, comma - pos);
    char* end = nullptr;
    const long v = tok.empty() ? 0 : std::strtol(tok.c_str(), &end, 10);
    if (v < 1 || end == nullptr || *end != '\0') {
      return {};  // caller reports the usage error
    }
    out.push_back(static_cast<std::size_t>(v));
    pos = comma + 1;
  }
  return out;
}

// --sample-rate accepts one value or a comma-separated sweep ("1,0.5,0.1");
// every token must be a complete number in (0, 1].
std::vector<double> parse_sample_rates(const std::string& spec) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string tok = spec.substr(pos, comma - pos);
    char* end = nullptr;
    const double v = tok.empty() ? 0 : std::strtod(tok.c_str(), &end);
    if (!(v > 0.0 && v <= 1.0) || end == nullptr || *end != '\0') {
      return {};  // caller reports the usage error
    }
    out.push_back(v);
    pos = comma + 1;
  }
  return out;
}

void write_json(const std::string& path, const std::string& mode,
                const std::vector<row>& rows) {
  std::ofstream json(path);
  json << "{\n  \"bench\": \"replay_throughput\",\n"
       << "  \"mode\": \"" << mode << "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const row& r = rows[i];
    json << "    {\"trace\": \"" << r.trace << "\", \"format\": \""
         << r.format << "\", \"backend\": \"" << r.backend
         << "\", \"batch\": " << r.batch << ", \"sample_rate\": " << r.sample_rate << ", \"history_depth\": ";
    if (r.history_depth == shadow::kUnboundedHistory) {
      json << "\"unbounded\"";
    } else {
      json << r.history_depth;
    }
    json << ", \"events\": " << r.events
         << ", \"mean_seconds\": " << r.mean_s
         << ", \"min_seconds\": " << r.min_s
         << ", \"median_seconds\": " << r.median_s
         << ", \"stddev_seconds\": " << r.stddev_s
         << ", \"rel_stddev\": " << r.rsd
         << ", \"events_per_sec\": " << r.events_per_sec
         << ", \"racy_granules\": " << r.racy_granules << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();  // flush before checking, or buffered failures slip through
  if (!json) {
    std::fprintf(stderr, "replay_throughput: writing %s failed\n",
                 path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

void print_table(const std::vector<row>& rows, const char* title) {
  text_table table({"trace", "backend", "batch", "rate", "depth",
                    "events", "mean", "median", "events/sec", "racy"});
  for (const row& r : rows) {
    char eps[64], rate[32];
    std::snprintf(eps, sizeof(eps), "%.3g", r.events_per_sec);
    std::snprintf(rate, sizeof(rate), "%g", r.sample_rate);
    table.add_row({r.trace, r.backend, std::to_string(r.batch), rate,
                   r.history_depth == shadow::kUnboundedHistory
                       ? std::string("inf")
                       : std::to_string(r.history_depth),
                   std::to_string(r.events), text_table::seconds(r.mean_s),
                   text_table::seconds(r.median_s), eps,
                   std::to_string(r.racy_granules)});
  }
  std::printf("\n== Replay throughput: %s ==\n%s", title,
              table.render().c_str());
}

int run_corpus_mode(const std::string& dir,
                    const std::vector<std::size_t>& batches,
                    const std::vector<double>& rates, bench_settings cfg,
                    const std::string& json_path) {
  const corpus::manifest m = corpus::load_manifest(dir + "/MANIFEST");
  std::vector<row> rows;
  for (const corpus::corpus_entry& e : m.entries) {
    trace::memory_trace tape = corpus::load_trace(dir + "/" + e.trace_file);
    const corpus::golden_report gold =
        corpus::load_golden(dir + "/" + e.golden_file);
    const bool compressed = e.trace_file.ends_with(".frdtz");
    for (const std::string& backend : corpus::eligible_backends(e.futures)) {
      for (const std::size_t batch : batches) {
        for (const double rate : rates) {
          cfg.sample_rate = rate;
          row r = bench_backend(tape, e.name, backend, batch, cfg);
          r.format = compressed ? "frdtz" : "frdt";
          // Correctness gate, outside the timed region: full detection must
          // match the golden byte for byte; a (granule-policy) sampled or
          // history-bounded run reports a subset of the golden races, so a
          // count above the golden's is a bug in either mode.
          if (rate == 1.0 && cfg.history_depth == shadow::kUnboundedHistory) {
            FRD_CHECK_MSG(r.racy_granules == gold.racy_granules.size(),
                          "replay race count diverged from the corpus golden "
                          "— run frd-corpus verify");
          } else {
            FRD_CHECK_MSG(r.racy_granules <= gold.racy_granules.size(),
                          "sampled replay reported MORE racy granules than "
                          "the corpus golden");
          }
          rows.push_back(std::move(r));
        }
      }
    }
  }
  print_table(rows, (std::to_string(m.entries.size()) + "-entry corpus, " +
                     std::to_string(cfg.reps) + " reps")
                        .c_str());
  write_json(json_path, "corpus", rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& reps = flags.int_flag("reps", 5, "replays per backend");
  auto& corpus_dir = flags.string_flag(
      "corpus", "", "replay the trace corpus at this directory instead of a "
                    "freshly recorded fuzz program");
  auto& seed = flags.int_flag("seed", 12, "fuzz seed for the recorded program");
  // Program size grows exponentially in depth/actions — nudge gently.
  auto& depth = flags.int_flag("depth", 8, "fuzz nesting depth");
  auto& actions = flags.int_flag("actions", 16, "fuzz actions per body");
  auto& futures = flags.int_flag("futures", 2000, "cap on futures created");
  auto& cells = flags.int_flag("cells", 64, "distinct shared memory cells");
  auto& json_path = flags.string_flag("json", "BENCH_replay_throughput.json",
                                      "machine-readable output file");
  auto& batch_spec = flags.string_flag(
      "batch-size", "256",
      "player run length(s) per on_accesses batch; comma-separated to sweep "
      "(e.g. 64,256,1024 — rows carry the size in the \"batch\" field; the "
      "per-PR snapshot uses the default so the trajectory stays comparable)");
  auto& rate_spec = flags.string_flag(
      "sample-rate", "1",
      "sampling rate(s) in (0, 1]; comma-separated to sweep (e.g. 1,0.1 — "
      "rows carry the rate in the \"sample_rate\" field; perf_compare only "
      "gates the serial trajectory on rate-1 rows)");
  auto& history_depth = flags.int_flag(
      "history-depth", 0,
      "retained readers per granule; 0 = unbounded, N >= 1 keeps the most "
      "recent N (short-race-window mode)");
  auto& warmup = flags.int_flag(
      "warmup", 1, "discarded replays before the measured batch");
  flags.parse();
  if (reps < 1) {
    std::fprintf(stderr, "replay_throughput: --reps must be >= 1\n");
    return 1;
  }
  const std::vector<std::size_t> batches = parse_batch_sizes(batch_spec);
  if (batches.empty()) {
    std::fprintf(stderr, "replay_throughput: --batch-size needs positive "
                         "comma-separated integers (e.g. 64,256,1024)\n");
    return 1;
  }
  const std::vector<double> rates = parse_sample_rates(rate_spec);
  if (rates.empty()) {
    std::fprintf(stderr, "replay_throughput: --sample-rate needs "
                         "comma-separated values in (0, 1] (e.g. 1,0.1)\n");
    return 1;
  }
  if (history_depth < 0) {
    std::fprintf(stderr, "replay_throughput: --history-depth must be >= 0 "
                         "(0 = unbounded)\n");
    return 1;
  }
  if (warmup < 0) {
    std::fprintf(stderr, "replay_throughput: --warmup must be >= 0\n");
    return 1;
  }
  bench_settings settings;
  settings.warmup = static_cast<int>(warmup);
  settings.reps = static_cast<int>(reps);
  settings.history_depth = history_depth == 0
                               ? shadow::kUnboundedHistory
                               : static_cast<std::size_t>(history_depth);

  if (!corpus_dir.empty()) {
    try {
      return run_corpus_mode(corpus_dir, batches, rates, settings, json_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replay_throughput: %s\n", e.what());
      return 1;
    }
  }

  g_cells.assign(static_cast<std::size_t>(cells), 0);

  // Record once.
  trace::memory_trace tape(trace::trace_header{trace::kTraceVersion, 4});
  session rec(session::options{.backend = "multibags+", .granule = 4});
  rec.record_to(tape);
  fuzz_into(rec, static_cast<std::uint64_t>(seed), static_cast<int>(depth),
            static_cast<int>(actions), static_cast<int>(futures));
  std::fprintf(stderr, "[replay] recorded %zu events (%llu accesses, %llu races)\n",
               tape.size(),
               static_cast<unsigned long long>(rec.access_count()),
               static_cast<unsigned long long>(rec.report().total()));

  const std::uint64_t baseline_racy = rec.report().racy_granules().size();
  std::vector<row> rows;
  const auto& reg = detect::backend_registry::instance();
  for (const std::string& name : reg.names()) {
    if (reg.at(name).futures == detect::future_support::none) continue;
    for (const std::size_t batch : batches) {
      for (const double rate : rates) {
        settings.sample_rate = rate;
        row r = bench_backend(tape, "fuzz", name, batch, settings);
        r.format = "memory";
        if (rate == 1.0 &&
            settings.history_depth == shadow::kUnboundedHistory) {
          FRD_CHECK_MSG(r.racy_granules == baseline_racy,
                        "replay race count diverged from the recording "
                        "session");
        } else {
          FRD_CHECK_MSG(r.racy_granules <= baseline_racy,
                        "sampled replay reported MORE racy granules than the "
                        "recording session");
        }
        rows.push_back(std::move(r));
      }
    }
  }

  print_table(rows, (std::to_string(tape.size()) + "-event fuzz trace, " +
                     std::to_string(reps) + " reps")
                        .c_str());
  write_json(json_path, "fuzz", rows);
  return 0;
}
