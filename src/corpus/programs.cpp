#include "corpus/programs.hpp"

#include <array>
#include <functional>

#include "api/session.hpp"
#include "bench_suite/bst.hpp"
#include "bench_suite/dedup.hpp"
#include "bench_suite/heartwall.hpp"
#include "bench_suite/lcs.hpp"
#include "bench_suite/mm.hpp"
#include "bench_suite/sw.hpp"
#include "graph/fuzz.hpp"
#include "image/phantom.hpp"
#include "image/tracking.hpp"
#include "support/check.hpp"

namespace frd::corpus {

namespace {

using detect::hooks::active;

// Shared cells of the adversarial and fuzz shapes. Cache-line aligned so the
// cell→granule grouping is a property of the program, not of where the
// linker happened to place the array (normalized traces stay byte-identical
// across builds).
alignas(64) std::array<int, 96> g_cells;

// ------------------------------------------------------- paper kernels ----

void run_lcs(session& s, std::uint64_t seed, bool structured) {
  const auto in = bench::make_lcs_input(24, seed);
  const int want = bench::lcs_reference(in);
  const int got = s.run([&](auto& rt) {
    return structured ? bench::lcs_structured<active>(rt, in, 8)
                      : bench::lcs_general<active>(rt, in, 8);
  });
  FRD_CHECK_MSG(got == want, "lcs kernel miscomputed while recording");
}

void run_sw(session& s, std::uint64_t seed) {
  const auto in = bench::make_sw_input(16, seed);
  const std::int32_t want = bench::sw_reference(in);
  const std::int32_t got = s.run([&](auto& rt) {
    return bench::sw_structured<active>(rt, in, 8);
  });
  FRD_CHECK_MSG(got == want, "sw kernel miscomputed while recording");
}

void run_bst(session& s, std::uint64_t seed, bool structured) {
  auto in = bench::make_bst_input(40, 40, seed);
  const std::size_t want_n = in.n1 + in.n2;
  const std::int64_t want_sum =
      bench::bst_key_sum(in.t1) + bench::bst_key_sum(in.t2);
  bench::bst_node* merged = s.run([&](auto& rt) {
    return structured ? bench::bst_structured<active>(rt, in, 3)
                      : bench::bst_general<active>(rt, in, 3);
  });
  FRD_CHECK_MSG(bench::bst_count(merged) == want_n &&
                    bench::bst_is_search_tree(merged) &&
                    bench::bst_key_sum(merged) == want_sum,
                "bst merge miscomputed while recording");
}

// dedup's two-stage pipeline (§6): parallel chunk+fingerprint futures, then
// an ordered dedup/compress stage chained through single-touch futures. The
// compressor stays uninstrumented (CH = hooks::none), reproducing the
// paper's uninstrumentable-library caveat and keeping the trace repro-sized.
void run_dedup(session& s, std::uint64_t seed) {
  const auto in = bench::make_dedup_corpus(2048, 50, seed);
  const auto want = bench::dedup_reference(in, 512);
  const auto got = s.run([&](auto& rt) {
    return bench::dedup_pipeline<active, detect::hooks::none>(rt, in, 512);
  });
  FRD_CHECK_MSG(got == want, "dedup pipeline miscomputed while recording");
}

// heartwall's per-point tracking pipeline in its general-futures form (§6):
// tracker (t, p) joins the frame-(t-1) handles of p and both neighbours, so
// every handle is touched up to three times — the multi-touch shape that
// motivated general futures. Small frames and radii keep the template scans
// repro-sized. Validated against the uninstrumented run of the same kernel:
// instrumentation must not perturb tracking.
void run_heartwall(session& s, std::uint64_t seed) {
  auto in = bench::make_heartwall_input(40, 40, 4, 3, seed);
  in.tmpl_rad = 1;
  in.search_rad = 2;
  rt::serial_runtime plain;
  const auto want = bench::heartwall_general<detect::hooks::none>(plain, in);
  const auto got = s.run([&](auto& rt) {
    return bench::heartwall_general<active>(rt, in);
  });
  FRD_CHECK_MSG(got.size() == want.size(),
                "heartwall tracked a different point count while recording");
  for (std::size_t p = 0; p < got.size(); ++p) {
    FRD_CHECK_MSG(got[p].x == want[p].x && got[p].y == want[p].y,
                  "heartwall tracking diverged while recording");
  }
}

// mm's serialized k-partial chains (§6): one future chain per C block,
// (n/B)³ futures in total — the paper's clearest k² stress at repro scale.
void run_mm(session& s, std::uint64_t seed) {
  const auto in = bench::make_mm_input(12, seed);
  const auto want = bench::mm_reference(in);
  const auto got = s.run([&](auto& rt) {
    return bench::mm_structured<active>(rt, in, 4);
  });
  FRD_CHECK_MSG(got == want, "mm kernel miscomputed while recording");
}

// The same kernel an order of magnitude up (ROADMAP "corpus at scale"):
// n=28 with 7-wide blocks emits ~55k access events in ~784-access runs per
// future body — runs that overflow the player's default 256-entry batch
// capacity, so runs split across batches and shadow pages are exercised
// for real, not just at repro size.
void run_mm_large(session& s, std::uint64_t seed) {
  const auto in = bench::make_mm_input(28, seed);
  const auto want = bench::mm_reference(in);
  const auto got = s.run([&](auto& rt) {
    return bench::mm_structured<active>(rt, in, 7);
  });
  FRD_CHECK_MSG(got == want, "mm-large kernel miscomputed while recording");
}

// The same kernel again at container scale (ROADMAP "corpus at 100×"):
// n=80 with 16-wide blocks is ~1.1M access events through 125 future
// chains — the first corpus entry whose artifact only stays reviewable as
// a compressed .frdtz container. Strand count stays in the hundreds, so
// the quadratic reference oracle still replays it in test time.
void run_mm_xl(session& s, std::uint64_t seed) {
  const auto in = bench::make_mm_input(80, seed);
  const auto want = bench::mm_reference(in);
  const auto got = s.run([&](auto& rt) {
    return bench::mm_structured<active>(rt, in, 16);
  });
  FRD_CHECK_MSG(got == want, "mm-xl kernel miscomputed while recording");
}

// Heartwall's tracking pipeline rebuilt in its STRUCTURED form on the raw
// image substrate (phantom + track_point — unused by any corpus entry until
// now): one single-touch future chain per sample point, each link tracking
// the point one frame forward from where the previous link left it. A
// monitor spawn reads every point's published position while the chains are
// still running — those granules race; the end-of-run reads are joined
// through the chain tails and do not. ~1.25M access events from the
// template-scan inner loops.
void run_tracking_xl(session& s, std::uint64_t seed) {
  constexpr int kFrames = 26, kTmplRad = 2, kSearchRad = 2;
  constexpr std::size_t kPoints = 40;
  const image::phantom_sequence seq(64, 64, static_cast<int>(kPoints), seed);
  std::vector<image::frame> frames;
  frames.reserve(kFrames);
  for (int t = 0; t < kFrames; ++t) frames.push_back(seq.make_frame(t));
  const std::vector<image::point> start = seq.initial_points();
  FRD_CHECK_MSG(start.size() == kPoints,
                "phantom produced an unexpected point count");

  std::vector<int> xs(kPoints), ys(kPoints);
  s.run([&](auto& rt) {
    using RT = std::decay_t<decltype(rt)>;
    rt.run([&] {
    std::vector<typename RT::template future_of<image::point>> chain(kPoints);
    for (std::size_t p = 0; p < kPoints; ++p) {
      chain[p] = rt.create_future([&, p] {
        xs[p] = start[p].x;
        ys[p] = start[p].y;
        s.write(&xs[p]);
        s.write(&ys[p]);
        return start[p];
      });
    }
    // The monitor races every chain's position writes (including the seed
    // writes above): 2*kPoints racy granules, deterministically.
    rt.spawn([&] {
      for (std::size_t p = 0; p < kPoints; ++p) {
        s.read(&xs[p]);
        s.read(&ys[p]);
      }
    });
    for (int t = 1; t < kFrames; ++t) {
      for (std::size_t p = 0; p < kPoints; ++p) {
        auto prev = std::move(chain[p]);
        chain[p] = rt.create_future(
            [&, t, p, prev = std::move(prev)]() mutable {
              const image::point at = prev.get();  // single touch: structured
              const image::point next = image::track_point<active>(
                  frames[static_cast<std::size_t>(t - 1)],
                  frames[static_cast<std::size_t>(t)], at, kTmplRad,
                  kSearchRad);
              xs[p] = next.x;
              ys[p] = next.y;
              s.write(&xs[p]);
              s.write(&ys[p]);
              return next;
            });
      }
    }
    for (std::size_t p = 0; p < kPoints; ++p) {
      const image::point end = chain[p].get();
      s.read(&xs[p]);  // ordered through the tail get: race-free
      s.read(&ys[p]);
      FRD_CHECK_MSG(frames[0].contains(end.x, end.y),
                    "tracking-xl walked a point off the frame");
    }
    rt.sync();  // joins the monitor
    });
  });
}

// The LCS wavefront at sampling-frontier scale (PR 9): n=288 with 16-wide
// tiles is an 18x18 structured create-down/get-left grid over ~370k hooked
// DP accesses — big enough that the sampling fast path has real work to
// skip, small enough to replay in test time. Unlike lcs-structured, a
// monitor spawn reads the DP diagonal at stride 9 while the wavefront is
// still sweeping, so the entry carries 32 deterministic racy granules for
// the frontier's detection-fraction scoring (an all-race-free entry would
// score every sample rate at fraction 1.0 and say nothing).
void run_wavefront_large(session& s, std::uint64_t seed) {
  constexpr std::size_t kN = 288, kBase = 16, kStride = 9;
  const auto in = bench::make_lcs_input(kN, seed);
  const int want = bench::lcs_reference(in);
  const bench::tile_grid g(kN, kBase);
  std::vector<std::int32_t> d((g.n + 1) * (g.n + 1), 0);
  const std::size_t row = g.n + 1;
  int got = -1;
  s.run([&](auto& rt) {
    using RT = std::decay_t<decltype(rt)>;
    rt.run([&] {
    std::vector<typename RT::template future_of<int>> fut(g.tiles * g.tiles);
    std::function<void(std::size_t, std::size_t)> make_tile =
        [&](std::size_t ti, std::size_t tj) {
          fut[g.index(ti, tj)] = rt.create_future([&, ti, tj]() -> int {
            if (tj > 0) fut[g.index(ti, tj - 1)].get();
            bench::detail::lcs_tile<active>(in, d, g, ti, tj);
            if (ti + 1 < g.tiles) make_tile(ti + 1, tj);
            return 1;
          });
        };
    for (std::size_t tj = 0; tj < g.tiles; ++tj) make_tile(0, tj);
    // The monitor stays parallel to every tile until the closing sync, so
    // each diagonal read races exactly the one write of its DP cell.
    rt.spawn([&] {
      for (std::size_t i = kStride; i <= g.n; i += kStride) {
        s.read(&d[i * row + i]);
      }
    });
    for (std::size_t ti = 0; ti < g.tiles; ++ti)
      fut[g.index(ti, g.tiles - 1)].get();
    rt.sync();  // joins the monitor
    got = d[g.n * row + g.n];
    });
  });
  FRD_CHECK_MSG(got == want,
                "wavefront-large kernel miscomputed while recording");
}

// --------------------------------------------------- adversarial shapes ----

// Deep get-chain (§5 stress): future i joins future i-1 inside its own body,
// building the longest possible chain of non-local joins; main then
// re-touches a spread of handles (multi-touch ⇒ general). A spawn races the
// chain on cells[5] (future-vs-spawn write/write) and on cells[64]
// (spawn-vs-continuation).
void run_deep_get_chain(session& s, std::uint64_t /*seed*/) {
  constexpr int kChain = 48;
  s.run([&](auto& rt) {
    using RT = std::decay_t<decltype(rt)>;
    rt.run([&] {
    // Pre-sized: body i reads slot i-1, which main wrote before creating
    // future i (a creation edge) — growth during the loop would race the
    // in-body reads under a parallel runtime.
    std::vector<typename RT::template future_of<int>> chain(kChain);
    chain[0] = rt.create_future([&] {
      s.write(&g_cells[0]);
      return 0;
    });
    for (int i = 1; i < kChain; ++i) {
      chain[i] = rt.create_future([&, i] {
        chain[static_cast<std::size_t>(i - 1)].get();
        s.read(&g_cells[i - 1]);
        s.write(&g_cells[i]);
        return i;
      });
    }
    rt.spawn([&] {
      s.write(&g_cells[5]);   // races chain future #5's write
      s.write(&g_cells[64]);  // races main's continuation below
    });
    s.write(&g_cells[64]);
    rt.sync();
    // Fan over the chain with strided re-touches: every handle below the
    // stride point is touched twice (once by its successor, once here).
    for (int i = 0; i < kChain; i += 7) chain[i].get();
    chain[kChain - 1].get();
    s.read(&g_cells[kChain - 1]);  // ordered: joined through the chain
    });
  });
}

// Wide future fan-in: many sibling futures, pairwise parallel, all writing
// one shared granule (one racy granule, Θ(width²) parallel pairs — the
// reader-list/purge pressure case) before main joins them all; two handles
// are then touched a second time, putting the trace in the general class.
void run_wide_fanin(session& s, std::uint64_t /*seed*/) {
  constexpr int kWidth = 40;
  s.run([&](auto& rt) {
    using RT = std::decay_t<decltype(rt)>;
    rt.run([&] {
    // A reader future created first: its read stays parallel to every
    // sibling writer until main joins it at the very end.
    auto reader = rt.create_future([&] {
      s.read(&g_cells[80]);
      return -1;
    });
    // Only the main strand touches the handle container (bodies never read
    // their siblings' slots), so growth is fine under any runtime.
    std::vector<typename RT::template future_of<int>> futs;
    futs.reserve(kWidth);
    for (int i = 0; i < kWidth; ++i) {
      futs.push_back(rt.create_future([&, i] {
        s.write(&g_cells[i]);   // private: race-free
        s.write(&g_cells[80]);  // shared: races every sibling and the reader
        return i;
      }));
    }
    for (int i = 0; i < kWidth; ++i) {
      futs[i].get();
      s.read(&g_cells[i]);  // ordered by the get just above
    }
    futs[0].get();           // second touches: general futures
    futs[kWidth / 2].get();
    reader.get();
    s.write(&g_cells[80]);   // ordered after every sibling: race-free
    });
  });
}

// Purge stress (§3): rounds of spawn-R-readers / sync / write grow the
// shadow reader list and then purge it once the readers become ordered;
// a future-flavored variant does the same through create/get. The tail
// leaves one reader unsynced, so exactly cells[0] is racy.
void run_purge_stress(session& s, std::uint64_t /*seed*/) {
  constexpr int kReaders = 6, kRounds = 5, kCells = 4;
  s.run([&](auto& rt) {
    rt.run([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (int c = 0; c < kCells; ++c) {
        for (int r = 0; r < kReaders; ++r) {
          rt.spawn([&, c] { s.read(&g_cells[c]); });
        }
        rt.sync();
        s.write(&g_cells[c]);  // every reader is ordered: purge, no race
      }
    }
    for (int c = 0; c < kCells; ++c) {
      auto f = rt.create_future([&, c] {
        s.read(&g_cells[c]);
        return c;
      });
      f.get();               // single touch, creator precedes getter
      s.write(&g_cells[c]);  // ordered through the get: purge, no race
    }
    rt.spawn([&] { s.read(&g_cells[0]); });
    s.write(&g_cells[0]);  // reader still parallel: the one real race
    rt.sync();
    });
  });
}

// Sync-heavy structured recursion: every body runs two sync spans (two
// sibling subtrees, then a straggler leaf). Sibling subtrees at depth d both
// write cells[d] after their internal syncs, and siblings are parallel, so
// cells[0..depth-1] are racy while main's cells[depth] is not.
void run_sync_heavy(session& s, std::uint64_t /*seed*/) {
  constexpr int kDepth = 5;
  s.run([&](auto& rt) {
    rt.run([&] {
    std::function<void(int)> rec = [&](int d) {
      if (d == 0) {
        s.read(&g_cells[16]);  // read-shared by every leaf: race-free
        return;
      }
      rt.spawn([&, d] { rec(d - 1); });
      rt.spawn([&, d] { rec(d - 1); });
      rt.sync();
      s.write(&g_cells[d - 1]);  // parallel with the sibling subtree's write
      rt.spawn([&, d] { s.read(&g_cells[d - 1]); });
      rt.sync();  // second span: the straggler joins before the body returns
    };
    rec(kDepth);
    s.write(&g_cells[kDepth]);  // after the implicit join: race-free
    });
  });
}

// ------------------------------------------------------------- fuzzing ----

void run_fuzz(session& s, std::uint64_t seed, bool structured) {
  graph::fuzz_config cfg;
  cfg.seed = seed;
  cfg.structured = structured;
  cfg.max_depth = 6;
  cfg.max_actions_per_body = 12;
  cfg.n_cells = 16;
  cfg.max_futures = 64;
  if (!structured) {
    cfg.max_touches_per_future = 6;  // §5 multi-touch pressure
    cfg.w_get = 5;
  }
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

}  // namespace

const std::vector<corpus_program>& corpus_programs() {
  using fs = detect::future_support;
  static const std::vector<corpus_program> progs = {
      {"lcs-structured", fs::structured,
       "§6 LCS tiled wavefront (n=24, B=8): create-edge down, get left",
       [](session& s, std::uint64_t seed) { run_lcs(s, seed, true); }},
      {"lcs-general", fs::general,
       "§6 LCS tiled wavefront (n=24, B=8): one multi-touch future per tile",
       [](session& s, std::uint64_t seed) { run_lcs(s, seed, false); }},
      {"sw-structured", fs::structured,
       "§6 Smith-Waterman wavefront (n=16, B=8), Θ(n³) work per future",
       [](session& s, std::uint64_t seed) { run_sw(s, seed); }},
      {"bst-structured", fs::structured,
       "§6 BRM pipelined BST merge (40+40 keys, cutoff 3), top-down resolve",
       [](session& s, std::uint64_t seed) { run_bst(s, seed, true); }},
      {"bst-general", fs::general,
       "§6 BRM pipelined BST merge (40+40 keys, cutoff 3), bottom-up resolve",
       [](session& s, std::uint64_t seed) { run_bst(s, seed, false); }},
      {"dedup-structured", fs::structured,
       "§6 dedup two-stage pipeline (2 KiB corpus, 512 B fragments), "
       "uninstrumented compressor",
       run_dedup},
      {"heartwall-general", fs::general,
       "§6 heartwall neighbour-smoothed tracking (40x40, 4 points, 3 "
       "frames): handles touched up to 3x",
       run_heartwall},
      {"mm-structured", fs::structured,
       "§6 blocked mm without temporaries (n=12, B=4): one future chain per "
       "C block, (n/B)^3 futures",
       run_mm},
      {"mm-structured-large", fs::structured,
       "§6 blocked mm at ~10x corpus scale (n=28, B=7): ~784-access runs "
       "that overflow the replay batch capacity",
       run_mm_large},
      {"mm-structured-xl", fs::structured,
       "§6 blocked mm at container scale (n=80, B=16): ~1.1M events, "
       "stored as a .frdtz container",
       run_mm_xl},
      {"tracking-structured-xl", fs::structured,
       "§6 heartwall tracking, structured chains on the raw phantom "
       "substrate (40 points x 25 frame steps): ~1.25M events, .frdtz",
       run_tracking_xl},
      {"wavefront-structured-large", fs::structured,
       "§6 LCS wavefront at frontier scale (n=288, B=16, 18x18 tiles) with "
       "a monitor spawn racing the DP diagonal: ~370k events, .frdtz",
       run_wavefront_large},
      {"deep-get-chain", fs::general,
       "48-deep chain of in-body gets with strided multi-touch re-joins",
       run_deep_get_chain},
      {"wide-fanin", fs::general,
       "40 sibling futures racing on one shared granule, joined by one strand",
       run_wide_fanin},
      {"purge-stress", fs::structured,
       "reader-list grow/purge rounds via sync and via single-touch gets",
       run_purge_stress},
      {"sync-heavy", fs::structured,
       "two sync spans per body over a depth-5 spawn tree, sibling races",
       run_sync_heavy},
      {"fuzz-structured", fs::structured,
       "graph::fuzzer, structured discipline (depth 6, 64 futures)",
       [](session& s, std::uint64_t seed) { run_fuzz(s, seed, true); }},
      {"fuzz-general", fs::general,
       "graph::fuzzer, general futures, max_touches_per_future=6",
       [](session& s, std::uint64_t seed) { run_fuzz(s, seed, false); }},
  };
  return progs;
}

const corpus_program* find_program(std::string_view name) {
  for (const corpus_program& p : corpus_programs())
    if (p.name == name) return &p;
  return nullptr;
}

}  // namespace frd::corpus
