#!/usr/bin/env bash
# The bench snapshot contract (bench/snapshot.hpp): replay_throughput and
# online_overhead each write one small snapshot, and tools/perf_compare.py
# must read each back and pass it against itself. A malformed list flag is
# a usage error (exit 2) in both benches.
#
# usage: bench_snapshot_test.sh REPLAY_THROUGHPUT ONLINE_OVERHEAD PYTHON3 \
#          PERF_COMPARE CORPUS_DIR
set -euo pipefail
replay=$1 online=$2 python=$3 compare=$4 corpus=$5
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$replay" --corpus "$corpus" --reps 1 --warmup 0 --sample-rate 1,0.1 \
  --history-depth 0,2 --json "$work/pr0_replay_throughput.json" > /dev/null
"$online" --workers 1 --reps 1 --scale 0.05 \
  --json "$work/pr0_online_overhead.json" > /dev/null 2>&1
for family in replay frontier; do
  grep -q "\"family\": \"$family\"" "$work/pr0_replay_throughput.json"
done
"$python" "$compare" --history "$work" "$work/pr0_replay_throughput.json" \
  "$work/pr0_online_overhead.json"

expect_usage_error() {
  local status=0
  "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: '$*' exited $status, want 2"
    exit 1
  fi
}
expect_usage_error "$replay" --corpus "$corpus" --sample-rate 1,0.1x
expect_usage_error "$replay" --corpus "$corpus" --history-depth 0,,2
expect_usage_error "$online" --workers 1x
echo "bench snapshot round trip: ok"
