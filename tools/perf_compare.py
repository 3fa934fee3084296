#!/usr/bin/env python3
"""Compare fresh perf snapshots against the perf/ history.

Snapshots come from different machines, so absolute events/sec is not the
signal (perf/README.md): what is comparable across snapshots is each
backend's *relative* standing — its geometric-mean throughput normalized by
the geomean over all backends in the same snapshot. This script computes
that share per backend in the fresh snapshot and in a baseline (by default
the highest-numbered perf/pr*_replay_throughput.json), takes the ratio, and
exits non-zero when any backend's share dropped below --threshold of its
baseline share — i.e. a backend got slower *relative to the others*, which
no machine change explains.

Only rows present in BOTH snapshots (same trace, same backend) measured at
the default replay batch size participate, so corpus growth and
--batch-size sweeps never skew the comparison. Rows without a "batch" field
(older snapshots) count as default rows.

With --fresh-micro the same relative-share guard also runs over the
BENCH_micro_shadow.json Google-Benchmark snapshot, grouped by benchmark
family (the name before the first '/', e.g. "BM_ReadStepRandom"): a family
whose per-op speed share fell below the threshold fails the run with the
family named.

With --fresh-frontier the guard runs over the BENCH_sampling_frontier.json
snapshot, grouped by (sample_rate, history_depth) frontier point. Two extra
gates ride along: full-detection rows (rate 1.0, unbounded depth) must
report detection_fraction 1.0 exactly, and every row's detection fraction
must match the baseline bit-for-bit (the sampled set is a pure seeded
function of the versioned corpus traces, so fractions never legitimately
vary across machines).

With --fresh-online the guard runs over the BENCH_online_overhead.json
snapshot from bench/online_overhead. Each online row's overhead_vs_bare is
already a same-machine ratio (online median / bare uninstrumented parallel
median), so machine speed cancels per row and no share math is needed: the
gate is the per-(program, backend, workers) growth ratio fresh/baseline,
failing when any point's overhead factor grew beyond 1/threshold (default
2x) of the baseline's.

Usage:
  perf_compare.py --fresh build/BENCH_replay_throughput.json [--history perf]
                  [--baseline FILE] [--threshold 0.5]
                  [--fresh-micro build/BENCH_micro_shadow.json]
                  [--baseline-micro FILE]
                  [--fresh-frontier build/BENCH_sampling_frontier.json]
                  [--baseline-frontier FILE]
                  [--fresh-online build/BENCH_online_overhead.json]
                  [--baseline-online FILE]
  perf_compare.py --self-test

Exit codes: 0 ok / no usable baseline, 1 regression, 2 bad invocation.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

DEFAULT_BATCH = 256


def load_rows(path):
    """(trace, backend) -> events_per_sec for default-batch rows of one
    replay snapshot.

    Newer snapshots may carry extra row fields ("format" — frdt vs frdtz
    container vs in-memory — or "container" details); those never affect
    matching. Replay throughput is measured after decode, so a trace is the
    same trajectory point whether its artifact was flat or compressed. If a
    snapshot ever benches two artifact forms of the same (trace, backend),
    the first row wins so the pair still maps to one comparable number.
    """
    with open(path) as f:
        snap = json.load(f)
    rows = {}
    for row in snap.get("rows", []):
        if row.get("batch", DEFAULT_BATCH) != DEFAULT_BATCH:
            continue
        # Sampling-mode and bounded-history rows skip most of the measured
        # work on purpose; only full-detection rows belong to the serial
        # trajectory. Absent field = pre-PR-9 snapshot = full detection.
        if float(row.get("sample_rate", 1.0)) != 1.0:
            continue
        if str(row.get("history_depth", "unbounded")) != "unbounded":
            continue
        eps = float(row["events_per_sec"])
        if eps > 0:
            rows.setdefault((row["trace"], row["backend"]), eps)
    return rows


def load_micro_rows(path):
    """benchmark name -> per-op speed (1/cpu_time) for iteration rows of a
    Google-Benchmark snapshot."""
    with open(path) as f:
        snap = json.load(f)
    rows = {}
    for b in snap.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        t = float(b["cpu_time"])
        if t > 0:
            rows[b["name"]] = 1.0 / t
    return rows


def micro_family_of(name):
    """BM_ReadStepRandom/65536 -> BM_ReadStepRandom."""
    return name.split("/")[0]


def load_frontier_rows(path):
    """(trace, rate, depth-str) -> {"eps", "fraction"} for one
    sampling_frontier snapshot. history_depth is kept as a string so the
    "unbounded" sentinel and numeric depths share one key space."""
    with open(path) as f:
        snap = json.load(f)
    rows = {}
    for row in snap.get("rows", []):
        eps = float(row["events_per_sec"])
        if eps > 0:
            rows.setdefault(
                (row["trace"], float(row["sample_rate"]),
                 str(row["history_depth"])),
                {"eps": eps,
                 "fraction": float(row["detection_fraction"])})
    return rows


def load_online_rows(path):
    """(program, backend, workers) -> overhead_vs_bare for the online rows
    of one online_overhead snapshot. Bare rows carry no overhead factor
    (they ARE the denominator) and are skipped."""
    with open(path) as f:
        snap = json.load(f)
    rows = {}
    for row in snap.get("rows", []):
        if row.get("mode") != "online":
            continue
        ov = float(row["overhead_vs_bare"])
        if ov > 0:
            rows.setdefault(
                (row["program"], row["backend"], int(row["workers"])), ov)
    return rows


def online_point(key):
    """('lcs-structured', 'multibags+', 4) -> 'lcs-structured/multibags+/w4'."""
    return f"{key[0]}/{key[1]}/w{key[2]}"


def compare_overheads(base, fresh, limit):
    """Prints the per-point overhead table; returns the points whose factor
    grew beyond `limit` x baseline. Overhead is lower-is-better and already
    machine-normalized, so the gate is a plain per-point growth ratio — no
    cross-point shares."""
    print(f"  {'point':<34} {'base x':>7} {'fresh x':>8} {'growth':>6}")
    regressions = []
    for key in sorted(base):
        b, f = base[key], fresh[key]
        growth = f / b
        marker = ""
        if growth > limit:
            regressions.append(online_point(key))
            marker = "  <-- REGRESSION"
        print(f"  {online_point(key):<34} {b:>7.1f} {f:>8.1f} "
              f"{growth:>6.2f}{marker}")
    return regressions


def frontier_group(key):
    """(trace, 0.1, '8') -> 'r0.1/d8' — one group per frontier point."""
    return f"r{key[1]:g}/d{key[2]}"


def frontier_exact_violations(rows):
    """Keys of full-detection rows (rate 1.0, unbounded depth) whose
    detection fraction is not 1.0 — sampling must be a strict fast-path
    carve-out, so the exact configuration catching less than the golden is
    a correctness bug, not a perf regression."""
    return sorted(k for k, v in rows.items()
                  if k[1] == 1.0 and k[2] == "unbounded"
                  and abs(v["fraction"] - 1.0) > 1e-9)


def frontier_fraction_drift(base, fresh):
    """Common keys whose detection fraction changed between snapshots.
    The sampled set is a pure seeded function of the versioned corpus
    traces, so fractions are machine-independent: any drift means the
    sampling decision or the detector semantics changed."""
    return sorted(k for k in set(base) & set(fresh)
                  if abs(base[k]["fraction"] - fresh[k]["fraction"]) > 1e-6)


def latest_baseline(history_dir, suffix):
    """Highest-numbered perf/prN_<suffix>.json, or None."""
    best, best_n = None, -1
    for p in Path(history_dir).glob(f"pr*_{suffix}.json"):
        m = re.match(r"pr(\d+)_", p.name)
        if m and int(m.group(1)) > best_n:
            best, best_n = p, int(m.group(1))
    return best


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def shares(rows, group_of):
    """group -> geomean(speed) normalized by the all-group geomean."""
    per_group = {}
    for key, speed in rows.items():
        per_group.setdefault(group_of(key), []).append(speed)
    means = {g: geomean(v) for g, v in per_group.items()}
    scale = geomean(list(means.values()))
    return {g: m / scale for g, m in means.items()}


def compare_shares(label, base_shares, fresh_shares, threshold):
    """Prints the share table; returns the group names that regressed."""
    print(f"  {label:<26} {'base share':>10} {'fresh share':>11} {'ratio':>6}")
    regressions = []
    for group in sorted(base_shares):
        b, f = base_shares[group], fresh_shares[group]
        ratio = f / b
        marker = ""
        if ratio < threshold:
            regressions.append(group)
            marker = "  <-- REGRESSION"
        print(f"  {group:<26} {b:>10.3f} {f:>11.3f} {ratio:>6.2f}{marker}")
    return regressions


def self_test():
    """Fixture-driven checks of the comparison logic itself (no build
    artifacts needed). Exercises the replay row filter, the share math, the
    regression trip-wire, and baseline discovery."""
    import tempfile

    failures = []

    def check(name, cond):
        print(f"  self-test: {name}: {'ok' if cond else 'FAIL'}")
        if not cond:
            failures.append(name)

    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        # 1. load_rows must keep only default-batch rows and treat missing
        #    fields (older snapshots) as defaults.
        mixed = td / "mixed.json"
        mixed.write_text(json.dumps({"rows": [
            {"trace": "t", "backend": "a", "events_per_sec": 10.0},
            {"trace": "t", "backend": "b", "batch": DEFAULT_BATCH,
             "events_per_sec": 20.0},
            {"trace": "t", "backend": "e", "batch": 4096,
             "events_per_sec": 99.0},
            {"trace": "t", "backend": "f", "sample_rate": 0.1,
             "events_per_sec": 99.0},
            {"trace": "t", "backend": "g", "history_depth": 8,
             "events_per_sec": 99.0},
            {"trace": "t", "backend": "h", "sample_rate": 1.0,
             "history_depth": "unbounded", "events_per_sec": 30.0},
        ]}))
        rows = load_rows(mixed)
        check("load_rows keeps field-less rows as defaults",
              ("t", "a") in rows and ("t", "b") in rows)
        check("load_rows drops non-default batch rows",
              ("t", "e") not in rows)
        check("load_rows drops sampled and bounded-history rows",
              ("t", "f") not in rows and ("t", "g") not in rows)
        check("load_rows keeps explicit full-detection rows",
              ("t", "h") in rows)

        # 2. share math: identical snapshots never regress; a backend that
        #    halved relative to its peers trips the default threshold.
        base = {("t1", "a"): 100.0, ("t1", "b"): 100.0,
                ("t2", "a"): 50.0, ("t2", "b"): 50.0}
        same = compare_shares("backend", shares(base, lambda k: k[1]),
                              shares(base, lambda k: k[1]), 0.5)
        check("identical snapshots pass", same == [])
        slow_b = {k: (v / 8 if k[1] == "b" else v) for k, v in base.items()}
        regressed = compare_shares("backend", shares(base, lambda k: k[1]),
                                   shares(slow_b, lambda k: k[1]), 0.5)
        check("8x relative slowdown trips the threshold", regressed == ["b"])

        # 3. micro rows group by benchmark family: a family that slowed 8x
        #    relative to the others trips the gate, named by its family.
        micro = td / "micro.json"
        micro.write_text(json.dumps({"benchmarks": [
            {"name": "BM_WriteStepSequential", "cpu_time": 2.0},
            {"name": "BM_ReadStepRandom/65536", "cpu_time": 4.0},
            {"name": "BM_ReadStepRandom/4194304", "cpu_time": 8.0},
            {"name": "BM_ListenerMuxDispatch/listeners:1", "cpu_time": 1.0},
            {"name": "BM_ReadStepRandom/65536", "cpu_time": 4.0,
             "run_type": "aggregate"},
        ]}))
        mrows = load_micro_rows(micro)
        check("load_micro_rows keeps iteration rows only", len(mrows) == 4)
        check("micro rows group by the name before the first '/'",
              {micro_family_of(k) for k in mrows}
              == {"BM_WriteStepSequential", "BM_ReadStepRandom",
                  "BM_ListenerMuxDispatch"})
        check("identical micro snapshots pass",
              compare_shares("family", shares(mrows, micro_family_of),
                             shares(mrows, micro_family_of), 0.5) == [])
        slow_read = {k: (v / 8 if k.startswith("BM_ReadStepRandom/") else v)
                     for k, v in mrows.items()}
        check("an 8x relative family slowdown trips the micro gate",
              compare_shares("family", shares(mrows, micro_family_of),
                             shares(slow_read, micro_family_of), 0.5)
              == ["BM_ReadStepRandom"])

        # 4. frontier rows: exactness gate and fraction-drift detection.
        frontier = td / "frontier.json"
        frontier.write_text(json.dumps({"rows": [
            {"trace": "t", "sample_rate": 1.0, "history_depth": "unbounded",
             "events_per_sec": 100.0, "detection_fraction": 1.0},
            {"trace": "t", "sample_rate": 0.1, "history_depth": "unbounded",
             "events_per_sec": 400.0, "detection_fraction": 0.25},
            {"trace": "t", "sample_rate": 0.1, "history_depth": 8,
             "events_per_sec": 450.0, "detection_fraction": 0.25},
        ]}))
        frows = load_frontier_rows(frontier)
        check("load_frontier_rows keys on (trace, rate, depth-str)",
              ("t", 1.0, "unbounded") in frows and ("t", 0.1, "8") in frows)
        check("frontier groups label rate and depth",
              frontier_group(("t", 0.1, "8")) == "r0.1/d8")
        check("exact full-detection rows pass the exactness gate",
              frontier_exact_violations(frows) == [])
        leaky = dict(frows)
        leaky[("t", 1.0, "unbounded")] = {"eps": 100.0, "fraction": 0.9}
        check("a leaky full-detection row trips the exactness gate",
              frontier_exact_violations(leaky) == [("t", 1.0, "unbounded")])
        drifted = {k: dict(v) for k, v in frows.items()}
        drifted[("t", 0.1, "8")]["fraction"] = 0.5
        check("a changed sampled fraction trips the drift gate",
              frontier_fraction_drift(frows, drifted) == [("t", 0.1, "8")])
        check("identical fractions produce no drift",
              frontier_fraction_drift(frows, frows) == [])

        # 5. online rows: bare rows are the denominator, not data points;
        #    the gate is per-point overhead growth, not a share.
        online = td / "online.json"
        online.write_text(json.dumps({"rows": [
            {"program": "lcs", "backend": "multibags+", "workers": 4,
             "mode": "bare", "mean_seconds": 0.01},
            {"program": "lcs", "backend": "multibags+", "workers": 4,
             "mode": "online", "mean_seconds": 0.8,
             "overhead_vs_bare": 80.0},
            {"program": "mm", "backend": "multibags", "workers": 1,
             "mode": "online", "mean_seconds": 0.5,
             "overhead_vs_bare": 50.0},
        ]}))
        orows = load_online_rows(online)
        check("load_online_rows keeps only mode=online rows",
              orows == {("lcs", "multibags+", 4): 80.0,
                        ("mm", "multibags", 1): 50.0})
        check("identical overheads pass the growth gate",
              compare_overheads(orows, orows, 2.0) == [])
        bloated = dict(orows)
        bloated[("lcs", "multibags+", 4)] = 250.0
        check("a >2x overhead growth trips the gate",
              compare_overheads(orows, bloated, 2.0)
              == ["lcs/multibags+/w4"])

        # 6. baseline discovery picks the highest PR number per suffix.
        for name in ("pr3_replay_throughput.json", "pr10_replay_throughput.json",
                     "pr7_online_overhead.json"):
            (td / name).write_text("{}")
        check("latest_baseline picks the highest PR",
              latest_baseline(td, "replay_throughput").name
              == "pr10_replay_throughput.json")
        check("latest_baseline matches the suffix",
              latest_baseline(td, "online_overhead").name
              == "pr7_online_overhead.json")
        check("latest_baseline returns None when empty",
              latest_baseline(td, "micro_shadow") is None)

    if failures:
        print(f"perf_compare --self-test: FAILED: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("perf_compare --self-test: all checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh",
                    help="BENCH_replay_throughput.json from this build")
    ap.add_argument("--history", default="perf",
                    help="directory of prN_*.json snapshots")
    ap.add_argument("--baseline", default=None,
                    help="explicit replay baseline (overrides --history)")
    ap.add_argument("--threshold", type=float, default=0.5,
                    help="flag a backend/family whose relative share fell "
                         "below THRESHOLD x its baseline share (default 0.5 "
                         "— loose on purpose; times on small traces and "
                         "per-op microbenches are noisy)")
    ap.add_argument("--fresh-micro", default=None,
                    help="BENCH_micro_shadow.json from this build; also "
                         "guard the per-family microbench trajectory")
    ap.add_argument("--baseline-micro", default=None,
                    help="explicit micro-shadow baseline (overrides "
                         "--history)")
    ap.add_argument("--fresh-frontier", default=None,
                    help="BENCH_sampling_frontier.json from this build; "
                         "guard the detection-vs-throughput frontier (per "
                         "(rate, depth) throughput shares + exact detection "
                         "fractions)")
    ap.add_argument("--baseline-frontier", default=None,
                    help="explicit sampling-frontier baseline (overrides "
                         "--history)")
    ap.add_argument("--fresh-online", default=None,
                    help="BENCH_online_overhead.json from this build; guard "
                         "the online-detection overhead factor per "
                         "(program, backend, workers) point")
    ap.add_argument("--baseline-online", default=None,
                    help="explicit online-overhead baseline (overrides "
                         "--history)")
    ap.add_argument("--self-test", action="store_true",
                    help="run fixture-driven checks of the comparison logic "
                         "and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.fresh is None:
        ap.error("--fresh is required (unless --self-test)")

    failed = False

    baseline_path = args.baseline or latest_baseline(args.history,
                                                     "replay_throughput")
    if baseline_path is None:
        print(f"perf_compare: no pr*_replay_throughput.json under "
              f"'{args.history}' — nothing to compare against")
    else:
        try:
            fresh = load_rows(args.fresh)
            base = load_rows(baseline_path)
        except (OSError, ValueError, KeyError) as e:
            print(f"perf_compare: unreadable snapshot: {e}", file=sys.stderr)
            return 2
        common = sorted(set(fresh) & set(base))
        if not common:
            print("perf_compare: the snapshots share no (trace, backend) "
                  "rows — corpus or backend set changed completely; not "
                  "comparable", file=sys.stderr)
            return 2
        print(f"perf_compare: {args.fresh} vs {baseline_path} "
              f"({len(common)} common rows, threshold {args.threshold})")
        regressions = compare_shares(
            "backend",
            shares({k: base[k] for k in common}, lambda k: k[1]),
            shares({k: fresh[k] for k in common}, lambda k: k[1]),
            args.threshold)
        if regressions:
            print(f"perf_compare: relative replay regression in backend(s): "
                  f"{', '.join(regressions)} (share ratio < "
                  f"{args.threshold}); if intentional, land the new "
                  f"perf/prN snapshot with the change and say why",
                  file=sys.stderr)
            failed = True

    if args.fresh_micro:
        micro_base_path = args.baseline_micro or latest_baseline(
            args.history, "micro_shadow")
        if micro_base_path is None:
            print(f"perf_compare: no pr*_micro_shadow.json under "
                  f"'{args.history}' — skipping the micro trajectory")
        else:
            try:
                fresh_m = load_micro_rows(args.fresh_micro)
                base_m = load_micro_rows(micro_base_path)
            except (OSError, ValueError, KeyError) as e:
                print(f"perf_compare: unreadable micro snapshot: {e}",
                      file=sys.stderr)
                return 2
            common_m = sorted(set(fresh_m) & set(base_m))
            if not common_m:
                print("perf_compare: the micro snapshots share no benchmark "
                      "rows — benchmark set changed completely; not "
                      "comparable", file=sys.stderr)
                return 2
            print(f"perf_compare: {args.fresh_micro} vs {micro_base_path} "
                  f"({len(common_m)} common rows, threshold "
                  f"{args.threshold})")
            regressions = compare_shares(
                "family",
                shares({k: base_m[k] for k in common_m}, micro_family_of),
                shares({k: fresh_m[k] for k in common_m}, micro_family_of),
                args.threshold)
            if regressions:
                print(f"perf_compare: relative micro-shadow regression in "
                      f"family(ies): {', '.join(regressions)} (share ratio < "
                      f"{args.threshold}); if intentional, land the new "
                      f"perf/prN snapshot with the change and say why",
                      file=sys.stderr)
                failed = True

    if args.fresh_frontier:
        try:
            fresh_f = load_frontier_rows(args.fresh_frontier)
        except (OSError, ValueError, KeyError) as e:
            print(f"perf_compare: unreadable frontier snapshot: {e}",
                  file=sys.stderr)
            return 2
        # Exactness gate first: it needs no baseline and guards correctness,
        # not speed. The rate-1.0/unbounded rows ARE the full detector.
        exact_bad = frontier_exact_violations(fresh_f)
        if exact_bad:
            print(f"perf_compare: full-detection frontier rows missed golden "
                  f"races: {', '.join(str(k) for k in exact_bad)} — the "
                  f"sampling fast path leaked into the exact configuration",
                  file=sys.stderr)
            failed = True
        frontier_base_path = args.baseline_frontier or latest_baseline(
            args.history, "sampling_frontier")
        if frontier_base_path is None:
            print(f"perf_compare: no pr*_sampling_frontier.json under "
                  f"'{args.history}' — skipping the frontier trajectory")
        else:
            try:
                base_f = load_frontier_rows(frontier_base_path)
            except (OSError, ValueError, KeyError) as e:
                print(f"perf_compare: unreadable frontier snapshot: {e}",
                      file=sys.stderr)
                return 2
            common_f = sorted(set(fresh_f) & set(base_f))
            if not common_f:
                print("perf_compare: the frontier snapshots share no "
                      "(trace, rate, depth) rows — sweep changed completely; "
                      "not comparable", file=sys.stderr)
                return 2
            print(f"perf_compare: {args.fresh_frontier} vs "
                  f"{frontier_base_path} ({len(common_f)} common rows, "
                  f"threshold {args.threshold})")
            regressions = compare_shares(
                "rate/depth",
                shares({k: base_f[k]["eps"] for k in common_f},
                       frontier_group),
                shares({k: fresh_f[k]["eps"] for k in common_f},
                       frontier_group),
                args.threshold)
            if regressions:
                print(f"perf_compare: frontier throughput regressed at "
                      f"point(s): {', '.join(regressions)} (share ratio < "
                      f"{args.threshold}); if intentional, land the new "
                      f"perf/prN snapshot with the change and say why",
                      file=sys.stderr)
                failed = True
            drift = frontier_fraction_drift(
                {k: base_f[k] for k in common_f},
                {k: fresh_f[k] for k in common_f})
            if drift:
                print(f"perf_compare: detection fraction drifted at "
                      f"frontier point(s): "
                      f"{', '.join(str(k) for k in drift)} — the seeded "
                      f"sampling decision is deterministic on versioned "
                      f"traces, so this means the sampler or the detector "
                      f"semantics changed", file=sys.stderr)
                failed = True

    if args.fresh_online:
        online_base_path = args.baseline_online or latest_baseline(
            args.history, "online_overhead")
        if online_base_path is None:
            print(f"perf_compare: no pr*_online_overhead.json under "
                  f"'{args.history}' — skipping the online trajectory")
        else:
            try:
                fresh_o = load_online_rows(args.fresh_online)
                base_o = load_online_rows(online_base_path)
            except (OSError, ValueError, KeyError) as e:
                print(f"perf_compare: unreadable online snapshot: {e}",
                      file=sys.stderr)
                return 2
            common_o = sorted(set(fresh_o) & set(base_o))
            if not common_o:
                print("perf_compare: the online snapshots share no "
                      "(program, backend, workers) rows — sweep changed "
                      "completely; not comparable", file=sys.stderr)
                return 2
            # Overhead is lower-is-better: the failure direction is growth,
            # so the same --threshold drives the gate from the other side
            # (default 0.5 -> fail when a point's factor more than doubled).
            limit = 1.0 / args.threshold
            print(f"perf_compare: {args.fresh_online} vs {online_base_path} "
                  f"({len(common_o)} common rows, growth limit "
                  f"{limit:.1f}x)")
            regressions = compare_overheads(
                {k: base_o[k] for k in common_o},
                {k: fresh_o[k] for k in common_o}, limit)
            if regressions:
                print(f"perf_compare: online-detection overhead grew beyond "
                      f"{limit:.1f}x baseline at point(s): "
                      f"{', '.join(regressions)}; if intentional, land the "
                      f"new perf/prN snapshot with the change and say why",
                      file=sys.stderr)
                failed = True

    if failed:
        return 1
    print("perf_compare: no relative regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
