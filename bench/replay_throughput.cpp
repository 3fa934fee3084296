// Replay-mode benchmark: pure detection throughput (trace events/sec) over
// the checked-in trace corpus, and the sampling frontier along with it.
//
//   replay_throughput --corpus DIR [--reps N] [--warmup N]
//                     [--batch-size 64,256,...] [--sample-rate 1,0.1,...]
//                     [--history-depth 0,8,2] [--entries a,b]
//                     [--backend NAME] [--json FILE]
//
// Full detection (rate 1, unbounded history) replays every corpus entry
// through every backend eligible for it, so the numbers cover the paper
// kernels and the adversarial shapes alike and stay comparable across
// changes: the traces are versioned artifacts, not regenerated programs.
// Every other point of the rate x depth sweep replays only the --entries
// through --backend: that is the detection-vs-throughput frontier of the
// sampling and bounded-history modes (DESIGN.md §8), scored by events/sec
// (what the mode buys) and by the fraction of the entry's golden racy
// granules it still reports (what it costs; 1 when the golden has none).
//
// Because replay executes no user code, the numbers isolate what the
// paper's full-detection overhead is made of (reachability maintenance and
// access-history work) without kernel noise. Results go to stdout as a table
// and to --json as the snapshot CI uploads (bench/snapshot.hpp).
//
// Correctness gates run outside the timed region: a full-detection point
// must report exactly the golden's racy granules, and a sampled or bounded
// point only golden granules (the per-granule decision leaves each
// granule's shadow state either fully tracked or fully absent). A perf run
// on a detector that miscounts races is not a perf run.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "bench/list_flag.hpp"
#include "bench/snapshot.hpp"
#include "corpus/manifest.hpp"
#include "corpus/runner.hpp"
#include "shadow/store.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "trace/event.hpp"

using namespace frd;

namespace {

struct point {
  std::size_t batch;
  double rate;
  std::size_t depth;

  bool full() const {
    return rate == 1.0 && depth == shadow::kUnboundedHistory;
  }
};

struct row {
  std::string trace;
  std::string format;  // frdt | frdtz
  std::string backend;
  point at;
  bool frontier = false;  // a row of the --entries x --backend sweep
  std::uint64_t events = 0;
  double min_s = 0, events_per_sec = 0;
  std::size_t detected = 0, golden = 0;  // golden racy granules reported

  double detected_fraction() const {
    return golden == 0 ? 1.0
                       : static_cast<double>(detected) /
                             static_cast<double>(golden);
  }
};

std::string depth_label(std::size_t depth) {
  return depth == shadow::kUnboundedHistory ? "unbounded"
                                            : std::to_string(depth);
}

std::string rate_label(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", rate);
  return buf;
}

// `warmup` discarded replays, so first-touch page faults, allocator growth
// and cold caches never land in a timed one, then `reps` measured replays.
// Throughput comes from the fastest: host noise only ever adds time, and
// the short points (a few ms) are where it lands.
row bench_point(trace::memory_trace& tape, const corpus::corpus_entry& e,
                const corpus::golden_report& gold, const std::string& backend,
                const point& at, int reps, int warmup) {
  std::vector<double> times;
  std::set<std::uintptr_t> racy;
  for (int r = 0; r < reps + warmup; ++r) {
    tape.rewind();
    session s(session::options{.backend = backend,
                               .granule = tape.header().granule,
                               .replay_batch = at.batch,
                               .sample_rate = at.rate,
                               .shadow_history_depth = at.depth});
    wall_timer t;
    s.replay(tape);
    const double secs = t.seconds();
    if (r >= warmup) times.push_back(secs);
    racy = s.report().racy_granules();
  }
  tape.rewind();

  std::size_t detected = 0;
  for (const std::uintptr_t g : racy) {
    if (gold.racy_granules.count(static_cast<std::uint64_t>(g))) ++detected;
  }
  if (at.full()) {
    FRD_CHECK_MSG(racy.size() == gold.racy_granules.size() &&
                      detected == gold.racy_granules.size(),
                  "full-detection replay diverged from the corpus golden "
                  "— run frd-corpus verify");
  } else {
    FRD_CHECK_MSG(detected == racy.size(),
                  "sampled/bounded replay reported a granule the full "
                  "detector does not — the per-granule carve-out leaked");
  }

  row out;
  out.trace = e.name;
  out.format = e.trace_file.ends_with(".frdtz") ? "frdtz" : "frdt";
  out.backend = backend;
  out.at = at;
  out.events = tape.size();
  out.min_s = minimum(times);
  out.events_per_sec = static_cast<double>(tape.size()) / out.min_s;
  out.detected = detected;
  out.golden = gold.racy_granules.size();
  return out;
}

// Full-detection rows are the replay trajectory, grouped by backend; the
// sweep's rows are the frontier, grouped by (rate, depth) point. A
// full-detection row of the sweep belongs to both, so it is written once
// to each family.
std::vector<snapshot::row> snapshot_rows(const std::vector<row>& rows) {
  std::vector<snapshot::row> out;
  for (const row& r : rows) {
    const std::vector<std::pair<std::string, std::string>> key{
        {"trace", r.trace},
        {"format", r.format},
        {"backend", r.backend},
        {"batch", std::to_string(r.at.batch)},
        {"rate", rate_label(r.at.rate)},
        {"depth", depth_label(r.at.depth)}};
    if (r.at.full()) {
      out.push_back({"replay", r.backend, key, "events_per_sec",
                     r.events_per_sec, snapshot::better::higher});
    }
    if (r.frontier) {
      const std::string group =
          "r" + rate_label(r.at.rate) + "/d" + depth_label(r.at.depth);
      out.push_back({"frontier", group, key, "events_per_sec",
                     r.events_per_sec, snapshot::better::higher});
      out.push_back({"frontier", group, key, "detected_fraction",
                     r.detected_fraction(), snapshot::better::higher});
    }
  }
  return out;
}

void print_table(const std::vector<row>& rows, const std::string& title) {
  text_table table({"trace", "backend", "batch", "rate", "depth", "events",
                    "min", "events/sec", "detected"});
  for (const row& r : rows) {
    char eps[64];
    std::snprintf(eps, sizeof eps, "%.3g", r.events_per_sec);
    table.add_row({r.trace, r.backend, std::to_string(r.at.batch),
                   rate_label(r.at.rate), depth_label(r.at.depth),
                   std::to_string(r.events), text_table::seconds(r.min_s),
                   eps,
                   std::to_string(r.detected) + "/" +
                       std::to_string(r.golden)});
  }
  std::printf("\n== Replay throughput: %s ==\n%s", title.c_str(),
              table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  flag_parser flags(argc, argv);
  auto& corpus_dir =
      flags.string_flag("corpus", "", "trace corpus directory (required)");
  auto& reps = flags.int_flag("reps", 5, "measured replays per point");
  auto& warmup = flags.int_flag(
      "warmup", 1, "discarded replays before the measured ones");
  auto& batch_spec = flags.string_flag(
      "batch-size", "256",
      "player run length(s) per on_accesses batch, comma-separated to "
      "sweep (e.g. 64,256,1024)");
  auto& rate_spec = flags.string_flag(
      "sample-rate", "1",
      "sampling rate(s) in (0, 1], comma-separated to sweep (e.g. 1,0.1)");
  auto& depth_spec = flags.string_flag(
      "history-depth", "0",
      "retained readers per granule, comma-separated to sweep; 0 = "
      "unbounded, N >= 1 keeps the most recent N (e.g. 0,8,2)");
  auto& entries_spec = flags.string_flag(
      "entries",
      "mm-structured-xl,tracking-structured-xl,wavefront-structured-large",
      "corpus entries the sampled and bounded points replay, "
      "comma-separated (empty = every entry)");
  auto& sweep_backend = flags.string_flag(
      "backend", "multibags+",
      "backend the sampled and bounded points replay");
  auto& json_path = flags.string_flag("json", "BENCH_replay_throughput.json",
                                      "snapshot output file");
  flags.parse();

  if (corpus_dir.empty()) {
    std::fprintf(stderr, "replay_throughput: --corpus is required\n%s",
                 flags.usage().c_str());
    return 2;
  }
  if (reps < 1 || warmup < 0) {
    std::fprintf(stderr,
                 "replay_throughput: --reps must be >= 1, --warmup >= 0\n");
    return 2;
  }
  std::vector<point> points;
  for (const std::int64_t batch :
       list_flag::integers("batch-size", batch_spec, 1, 1 << 20)) {
    for (const std::int64_t depth :
         list_flag::integers("history-depth", depth_spec, 0, 1 << 20)) {
      for (const double rate : list_flag::rates("sample-rate", rate_spec)) {
        points.push_back({static_cast<std::size_t>(batch), rate,
                          depth == 0 ? shadow::kUnboundedHistory
                                     : static_cast<std::size_t>(depth)});
      }
    }
  }
  if (points.empty()) {
    std::fprintf(stderr, "replay_throughput: --batch-size, --sample-rate "
                         "and --history-depth each need a value\n");
    return 2;
  }
  const std::vector<std::string> wanted =
      list_flag::names("entries", entries_spec);
  const auto named = [&](const corpus::corpus_entry& e) {
    return wanted.empty() ||
           std::find(wanted.begin(), wanted.end(), e.name) != wanted.end();
  };

  try {
    const corpus::manifest m =
        corpus::load_manifest(corpus_dir + "/MANIFEST");
    // A sweep that replays fewer entries than it was asked to would read
    // as a smaller frontier, not as a typo.
    if (std::any_of(points.begin(), points.end(),
                    [](const point& at) { return !at.full(); })) {
      std::size_t swept = 0;
      for (const corpus::corpus_entry& e : m.entries) {
        const std::vector<std::string> b =
            corpus::eligible_backends(e.futures);
        if (named(e) &&
            std::find(b.begin(), b.end(), sweep_backend) != b.end()) {
          ++swept;
        }
      }
      if (swept == 0 || (!wanted.empty() && swept != wanted.size())) {
        std::fprintf(stderr,
                     "replay_throughput: backend '%s' can replay %zu of the "
                     "entries --entries names ('%s'); each must be a "
                     "corpus entry it can replay\n",
                     sweep_backend.c_str(), swept, entries_spec.c_str());
        return 2;
      }
    }
    std::vector<row> rows;
    for (const corpus::corpus_entry& e : m.entries) {
      trace::memory_trace tape = corpus::load_trace(corpus_dir + "/" +
                                                    e.trace_file);
      const corpus::golden_report gold =
          corpus::load_golden(corpus_dir + "/" + e.golden_file);
      for (const std::string& backend :
           corpus::eligible_backends(e.futures)) {
        const bool frontier = named(e) && backend == sweep_backend;
        for (const point& at : points) {
          if (!at.full() && !frontier) continue;
          row r = bench_point(tape, e, gold, backend, at,
                              static_cast<int>(reps),
                              static_cast<int>(warmup));
          r.frontier = frontier;
          rows.push_back(std::move(r));
        }
      }
    }
    print_table(rows, std::to_string(m.entries.size()) + "-entry corpus, " +
                          std::to_string(reps) + " reps + " +
                          std::to_string(warmup) + " warmup");
    snapshot::write(json_path, "replay_throughput", snapshot_rows(rows));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay_throughput: %s\n", e.what());
    return 1;
  }
  return 0;
}
