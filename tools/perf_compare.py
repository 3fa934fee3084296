#!/usr/bin/env python3
"""Guard fresh bench snapshots against the perf/ history.

Every bench/ snapshot has one schema (bench/snapshot.hpp, perf/README.md):
the bench's name, the host it ran on (CPU model, nproc and build type), and
rows of family, group, key columns, metric, value and direction.
micro_shadow writes Google Benchmark's JSON instead, which a thin adapter
reads into the same rows.

Each fresh file named on the command line is matched by its bench name to
the highest-numbered perf/prN_<bench>.json, and the rows the two share
(same family, group, key and metric) are compared in one of three ways:

  - a same-run ratio (overhead_vs_bare, detected_fraction) row by row, on
    any host: both of its terms come from one run, so the host cancels;
  - any other row through its group: the geomean of the group's
    fresh-over-base ratios, taken directly when the two host fingerprints
    match;
  - and otherwise as the group's share, that geomean over the geomean of
    every group's in the same family and metric. A slower host moves every
    group alike; a group that got slower than the others moves its share.

Groups, not single rows, carry the other comparisons because a row that
replays in a few milliseconds can time 2x slower on a busy host with no
code change.

Each comparison is a ratio oriented so that below 1 is worse, and it fails
below 0.5: a higher-is-better value or share that halved, or a
lower-is-better value (seconds, an overhead factor) that more than doubled.

Usage:
  perf_compare.py FRESH.json [FRESH.json ...] [--history DIR]
  perf_compare.py --self-test

Exit codes: 0 ok or no baseline, 1 regression, 2 bad invocation or an
unreadable or incomparable snapshot.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

THRESHOLD = 0.5
SAME_RUN_RATIOS = {"overhead_vs_bare", "detected_fraction"}


def load(path):
    """{"bench", "host", "rows"}: rows maps (family, group, key, metric) to
    (value, direction); key is the tuple of the key columns in the order
    the bench writes them. A file in neither schema is a ValueError that
    names it."""
    try:
        with open(path) as f:
            snap = json.load(f)
        if "benchmarks" in snap:
            return from_google_benchmark(snap)
        rows = {}
        for r in snap["rows"]:
            if r["direction"] not in ("higher", "lower"):
                raise ValueError(f"direction {r['direction']!r}")
            rows[(r["family"], r["group"], tuple(r["key"].items()),
                  r["metric"])] = (float(r["value"]), r["direction"])
        return {"bench": snap["bench"], "host": snap["host"], "rows": rows}
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ValueError(f"{path} is not a bench snapshot: {e!r}") from e


def from_google_benchmark(snap):
    """micro_shadow's Google Benchmark JSON as rows of family "micro": one
    per iteration row, grouped by benchmark family (the name before the
    first '/'), cpu_time lower-is-better. The host is the fingerprint
    micro_shadow adds to the context; a file without one has none."""
    ctx = snap.get("context", {})
    rows = {}
    for b in snap["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        rows[("micro", b["name"].split("/")[0], (("name", b["name"]),),
              "cpu_time")] = (float(b["cpu_time"]), "lower")
    host = ({"cpu": ctx["cpu"], "nproc": int(ctx["nproc"]),
             "build": ctx["build"]} if "cpu" in ctx else None)
    return {"bench": Path(ctx["executable"]).name, "host": host,
            "rows": rows}


def latest_baseline(history_dir, bench):
    """Highest-numbered prN_<bench>.json in history_dir, or None."""
    best, best_n = None, -1
    for p in Path(history_dir).iterdir():
        m = re.fullmatch(rf"pr(\d+)_{re.escape(bench)}\.json", p.name)
        if m and int(m.group(1)) > best_n:
            best, best_n = p, int(m.group(1))
    return best


def same_host(base, fresh):
    return base["host"] is not None and base["host"] == fresh["host"]


def oriented(base, fresh, direction):
    """fresh against base, oriented so that below 1 is worse."""
    if base == fresh:
        return 1.0
    better, worse = (fresh, base) if direction == "higher" else (base, fresh)
    return better / worse if worse > 0 else math.inf


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def compare(base, fresh):
    """[(label, ratio, per_row)] for every comparison the two snapshots
    allow, in the three ways the module docstring lists."""
    results = []
    groups = {}
    for k in sorted(set(base["rows"]) & set(fresh["rows"])):
        family, group, key, metric = k
        (b, direction), (f, _) = base["rows"][k], fresh["rows"][k]
        if metric in SAME_RUN_RATIOS:
            label = "/".join(v for _, v in key)
            results.append((f"{family} {metric} {label}",
                            oriented(b, f, direction), True))
        elif b > 0 and f > 0:
            groups.setdefault((family, metric), {}).setdefault(
                group, []).append(oriented(b, f, direction))
    for (family, metric), by_group in sorted(groups.items()):
        ratios = {g: geomean(rs) for g, rs in by_group.items()}
        scale = 1.0 if same_host(base, fresh) else geomean(
            list(ratios.values()))
        results += [(f"{family} {metric} {g}", ratios[g] / scale, False)
                    for g in sorted(ratios)]
    return results


def report(fresh_path, base_path, base, fresh, results):
    """Prints the comparison; returns the labels that regressed."""
    how = "directly" if same_host(base, fresh) else "as shares"
    print(f"perf_compare: {fresh_path} vs {base_path} (groups compared "
          f"{how}, fail below {THRESHOLD})")
    regressions = [label for label, r, _ in results if r < THRESHOLD]
    for label, r, per_row in results:
        if not per_row or r < THRESHOLD:
            marker = "  <-- REGRESSION" if r < THRESHOLD else ""
            print(f"  {label:<60} {r:>6.2f}{marker}")
    rows = [(r, label) for label, r, per_row in results if per_row]
    if rows:
        r, label = min(rows)
        print(f"  {len(rows)} same-run ratios, lowest {r:.2f} ({label})")
    return regressions


def self_test():
    """Fixture-driven checks of the loader, the adapter, the three ways of
    comparing, every trip-wire and baseline discovery."""
    import tempfile

    failures = []

    def check(name, cond):
        print(f"  self-test: {name}: {'ok' if cond else 'FAIL'}")
        if not cond:
            failures.append(name)

    def regressed(base, fresh):
        return [label for label, r, _ in compare(base, fresh)
                if r < THRESHOLD]

    def with_value(row, value):
        return row[:4] + (value,) + row[5:]

    this_host = {"cpu": "CPU A", "nproc": 4, "build": "release"}
    other_host = {"cpu": "CPU B", "nproc": 2, "build": "release"}

    def snap(td, name, bench, host, rows):
        """Writes rows [(family, group, key, metric, value, direction)] in
        the writer's schema and loads them back."""
        path = td / name
        path.write_text(json.dumps({"bench": bench, "host": host, "rows": [
            {"family": f, "group": g, "key": k, "metric": m, "value": v,
             "direction": d} for f, g, k, m, v, d in rows]}))
        return load(path)

    def replay_rows(speed):
        """Full rows over two traces x two backends plus a frontier; speed
        maps (backend or point) to a factor on its events/sec."""
        rows = []
        for trace, eps in (("t1", 100.0), ("t2", 50.0)):
            for b in ("a", "b"):
                rows.append(("replay", b, {"trace": trace, "backend": b},
                             "events_per_sec", eps * speed.get(b, 1),
                             "higher"))
            for p, gain in (("r1/dunbounded", 1), ("r0.1/d8", 2)):
                key = {"trace": trace, "backend": "a", "point": p}
                rows.append(("frontier", p, key, "events_per_sec",
                             eps * gain * speed.get(p, 1), "higher"))
                rows.append(("frontier", p, key, "detected_fraction",
                             0.25, "higher"))
        return rows

    def online_rows(overhead):
        rows = []
        for w, bare in (("1", 0.1), ("4", 0.05)):
            key = {"program": "lcs", "backend": "mb", "workers": w}
            rows.append(("online", "bare", dict(key, backend="-"),
                         "median_seconds", bare, "lower"))
            rows.append(("online", "mb", key, "median_seconds",
                         bare * overhead.get(w, 30), "lower"))
            rows.append(("online", "mb", key, "overhead_vs_bare",
                         overhead.get(w, 30), "lower"))
        return rows

    with tempfile.TemporaryDirectory() as td:
        td = Path(td)

        # 1. The writer's schema.
        base = snap(td, "base.json", "replay_throughput", this_host,
                    replay_rows({}))
        check("load keys rows by family, group, key and metric",
              (("replay", "a", (("trace", "t1"), ("backend", "a")),
                "events_per_sec")) in base["rows"] and len(base["rows"]) == 12)
        bad = td / "bad.json"
        bad.write_text(json.dumps({"bench": "x", "host": this_host, "rows": [
            {"family": "f", "group": "g", "key": {}, "metric": "m",
             "value": 1, "direction": "sideways"}]}))
        try:
            load(bad)
            check("load rejects an unknown direction", False)
        except ValueError:
            check("load rejects an unknown direction", True)

        # 2. Across hosts a group counts through its share of the family.
        def scaled(factor, host):
            return snap(td, f"scaled_{factor}_{host['cpu']}.json",
                        "replay_throughput", host,
                        [with_value(r, r[4] * factor)
                         if r[3] == "events_per_sec" else r
                         for r in replay_rows({})])

        check("identical snapshots pass", regressed(base, base) == [])
        check("a uniformly slower host passes",
              regressed(base, scaled(0.4, other_host)) == [])
        slow_b = snap(td, "slow_b.json", "replay_throughput", other_host,
                      replay_rows({"b": 1 / 8}))
        check("a backend's replay share below 0.5x trips",
              regressed(base, slow_b) == ["replay events_per_sec b"])
        slow_point = snap(td, "slow_point.json", "replay_throughput",
                          other_host, replay_rows({"r0.1/d8": 1 / 8}))
        check("a frontier point's share below 0.5x trips",
              regressed(base, slow_point)
              == ["frontier events_per_sec r0.1/d8"])

        # 3. On the same host a group is compared directly.
        check("a same-host direct ratio below 0.5 trips every group",
              regressed(base, scaled(0.4, this_host))
              == ["frontier events_per_sec r0.1/d8",
                  "frontier events_per_sec r1/dunbounded",
                  "replay events_per_sec a", "replay events_per_sec b"])
        one_slow = replay_rows({})
        one_slow[0] = with_value(one_slow[0], one_slow[0][4] * 0.4)
        check("one row at 0.4x on the same host stays inside its group",
              regressed(base, snap(td, "one_slow.json", "replay_throughput",
                                   this_host, one_slow)) == [])

        # 4. Same-run ratios are compared directly on any host.
        online = snap(td, "online.json", "online_overhead", this_host,
                      online_rows({}))
        grown = snap(td, "grown.json", "online_overhead", other_host,
                     online_rows({"4": 65}))
        check("an online point's overhead_vs_bare past 2x trips",
              "online overhead_vs_bare lcs/mb/4" in regressed(online, grown))
        near = snap(td, "near.json", "online_overhead", other_host,
                    online_rows({"4": 55}))
        check("an overhead growth under 2x passes",
              regressed(online, near) == [])
        fewer = snap(td, "fewer.json", "replay_throughput", other_host,
                     [with_value(r, 0.1) if r[3] == "detected_fraction"
                      else r for r in replay_rows({})])
        check("a detected fraction that fell below half trips",
              len(regressed(base, fewer)) == 4)

        # 5. micro_shadow's Google Benchmark JSON, through the adapter.
        def micro(name, host, slow_family=None):
            ctx = {"executable": "./micro_shadow"}
            if host:
                ctx.update(cpu=host["cpu"], nproc=str(host["nproc"]),
                           build=host["build"])
            bms = [{"name": n, "cpu_time": t * (8 if n.startswith(
                        f"{slow_family}/") or n == slow_family else 1)}
                   for n, t in (("BM_Write", 2.0), ("BM_Read/64", 4.0),
                                ("BM_Read/4096", 8.0), ("BM_Mux", 1.0))]
            bms.append({"name": "BM_Read/64", "cpu_time": 4.0,
                        "run_type": "aggregate"})
            path = td / name
            path.write_text(json.dumps({"context": ctx, "benchmarks": bms}))
            return load(path)

        m_base = micro("m_base.json", this_host)
        check("the adapter names the bench and keeps iteration rows",
              m_base["bench"] == "micro_shadow" and len(m_base["rows"]) == 4)
        check("the adapter groups rows by benchmark family",
              {k[1] for k in m_base["rows"]}
              == {"BM_Write", "BM_Read", "BM_Mux"})
        check("the adapter reads the host from the context",
              m_base["host"] == this_host)
        m_slow = micro("m_slow.json", other_host, "BM_Read")
        check("a micro_shadow family's share below 0.5x trips",
              regressed(m_base, m_slow) == ["micro cpu_time BM_Read"])
        no_host = micro("m_nohost.json", None)
        check("a snapshot without a host never counts as the same host",
              no_host["host"] is None and not same_host(no_host, no_host))

        # 6. Baseline discovery.
        hist = td / "perf"
        hist.mkdir()
        for name in ("pr3_replay_throughput.json",
                     "pr10_replay_throughput.json",
                     "pr12_old_replay_throughput.json",
                     "pr7_online_overhead.json"):
            (hist / name).write_text("{}")
        check("latest_baseline picks the highest PR",
              latest_baseline(hist, "replay_throughput").name
              == "pr10_replay_throughput.json")
        check("latest_baseline matches the whole bench name",
              latest_baseline(hist, "online_overhead").name
              == "pr7_online_overhead.json")
        check("latest_baseline returns None when there is none",
              latest_baseline(hist, "micro_shadow") is None)

    if failures:
        print(f"perf_compare --self-test: FAILED: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("perf_compare --self-test: all checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="*",
                    help="fresh snapshots (BENCH_<bench>.json)")
    ap.add_argument("--history",
                    default=str(Path(__file__).resolve().parent.parent
                                / "perf"),
                    help="directory of prN_<bench>.json snapshots (default: "
                         "the repository's perf/)")
    ap.add_argument("--self-test", action="store_true",
                    help="run fixture-driven checks of this script and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.fresh:
        ap.error("name at least one fresh snapshot (or --self-test)")

    failed = False
    for path in args.fresh:
        try:
            fresh = load(path)
            base_path = latest_baseline(args.history, fresh["bench"])
            if base_path is None:
                print(f"perf_compare: no prN_{fresh['bench']}.json under "
                      f"{args.history}; nothing to compare {path} against")
                continue
            base = load(base_path)
        except (OSError, ValueError) as e:
            print(f"perf_compare: {e}", file=sys.stderr)
            return 2
        results = compare(base, fresh)
        if not results:
            print(f"perf_compare: {path} and {base_path} share no rows; "
                  f"not comparable", file=sys.stderr)
            return 2
        regressions = report(path, base_path, base, fresh, results)
        if regressions:
            print(f"perf_compare: {fresh['bench']} regressed: "
                  f"{', '.join(regressions)}; if intentional, land a new "
                  f"perf/prN_{fresh['bench']}.json with the change and say "
                  f"why", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print("perf_compare: no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
