#!/usr/bin/env bash
# CLI surface tests for frd-trace and frd-corpus (registered as ctest
# `cli_tools`). Covers what the unit tests cannot: argv handling, exit
# codes, format auto-detection across processes, no-partial-artifact
# guarantees, and `frd-corpus verify`'s non-zero divergence exit naming the
# backend and granule.
#
# usage: cli_tools_test.sh <frd-trace> <frd-corpus> <corpus-dir> [frd-serve]
set -u

FRD_TRACE=$1
FRD_CORPUS=$2
CORPUS_DIR=$3
FRD_SERVE=${4:-}
# A trace whose strand ids the canonical walk never mints, checked in next
# to this script.
HOSTILE=$(cd "$(dirname "$0")" && pwd)/hostile-strand-ids.frdt

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fails=0
note() { printf '%s\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*" >&2; fails=$((fails + 1)); }

# expect_rc <expected-rc> <description> <cmd...>
expect_rc() {
  local want=$1 what=$2
  shift 2
  "$@" >"$TMP/out" 2>"$TMP/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    fail "$what: expected exit $want, got $got"
    sed 's/^/  stderr: /' "$TMP/err" >&2
  fi
}

# ------------------------------------------------------------- frd-trace --

expect_rc 2 "frd-trace with no arguments prints usage" "$FRD_TRACE"
expect_rc 2 "frd-trace rejects an unknown subcommand" "$FRD_TRACE" frobnicate
expect_rc 2 "frd-trace run without a file argument" "$FRD_TRACE" run
expect_rc 1 "frd-trace run on a missing file" "$FRD_TRACE" run "$TMP/nope.frdt"
expect_rc 2 "frd-trace record without --out" "$FRD_TRACE" record --program demo
expect_rc 2 "frd-trace record with unknown --program" \
  "$FRD_TRACE" record --program nope --out "$TMP/x.frdt"
expect_rc 2 "frd-trace record with a bad --granule" \
  "$FRD_TRACE" record --program demo --granule 3 --out "$TMP/x.frdt"
expect_rc 1 "frd-trace record with unknown --backend" \
  "$FRD_TRACE" record --program demo --backend nope --out "$TMP/x.frdt"
[ -e "$TMP/x.frdt" ] && fail "failed record left a partial artifact behind"

expect_rc 0 "frd-trace records the demo program (binary)" \
  "$FRD_TRACE" record --program demo --out "$TMP/demo.frdt"
expect_rc 1 "frd-trace record rejects the removed --format flag" \
  "$FRD_TRACE" record --program demo --format jsonl --out "$TMP/demo.jsonl"
grep -q 'unknown flag' "$TMP/err" ||
  fail "frd-trace record --format must fail as an unknown flag"
[ -e "$TMP/demo.jsonl" ] && fail "a rejected record left a file behind"
expect_rc 0 "frd-trace stats reads the binary trace" \
  "$FRD_TRACE" stats "$TMP/demo.frdt"
"$FRD_TRACE" dump "$TMP/demo.frdt" >"$TMP/demo.jsonl" 2>&1 ||
  fail "frd-trace dump renders the binary trace as jsonl"
# dump's JSONL is for reading: replay refuses it like any non-FRDT input.
expect_rc 1 "frd-trace run rejects dump's jsonl" \
  "$FRD_TRACE" run "$TMP/demo.jsonl"
grep -q 'not a FutureRD trace: bad magic' "$TMP/err" ||
  fail "replaying jsonl must fail as a typed bad-magic error"

"$FRD_TRACE" run "$TMP/demo.frdt" >"$TMP/run_bin.txt" 2>&1 ||
  fail "replaying the binary demo trace"
grep -q 'mode: *replay' "$TMP/run_bin.txt" ||
  fail "frd-trace run should report replay mode"

# Replay runs every dag event through the canonical walk: ids the walk
# never mints are a typed error, not a crash.
expect_rc 1 "frd-trace run rejects strand ids the walk never mints" \
  "$FRD_TRACE" run "$HOSTILE"
grep -q 'not the canonical walk' "$TMP/err" ||
  fail "a hostile trace must fail naming the canonical walk"

# Online: a run that records keeps every access; one that does not drops
# same-window repeats on the workers. Both must print the same race report,
# and exec must say how many accesses it dropped.
"$FRD_TRACE" exec --program fuzz --seed 7 --runtime-workers 2 \
  --record "$TMP/live.frdt" >"$TMP/exec_rec.txt" 2>&1 ||
  fail "frd-trace exec with --record"
"$FRD_TRACE" exec --program fuzz --seed 7 --runtime-workers 2 \
  >"$TMP/exec.txt" 2>&1 || fail "frd-trace exec without --record"
if ! diff <(grep '^races:' "$TMP/exec_rec.txt") \
          <(grep '^races:' "$TMP/exec.txt") >/dev/null; then
  fail "exec with and without --record disagree on races"
fi
grep -q '^elided: *0 ' "$TMP/exec_rec.txt" ||
  fail "a recording exec must elide nothing and say so"
grep -q '^elided:' "$TMP/exec.txt" || fail "exec must print its elided count"

# A truncated trace must be rejected, not silently shortened.
head -c 16 "$TMP/demo.frdt" >"$TMP/cut.frdt"
expect_rc 1 "frd-trace run rejects a truncated trace" \
  "$FRD_TRACE" run "$TMP/cut.frdt"

# There is one shadow store, so no CLI selects one: --store is an unknown
# flag now, like the removed --workers.
expect_rc 1 "frd-trace run rejects --store as an unknown flag" \
  "$FRD_TRACE" run "$TMP/demo.frdt" --store compact
grep -q 'unknown flag' "$TMP/err" ||
  fail "frd-trace run --store must fail as an unknown flag"
expect_rc 1 "frd-trace run rejects --workers as an unknown flag" \
  "$FRD_TRACE" run "$TMP/demo.frdt" --workers 4
expect_rc 2 "frd-trace run rejects --batch 0" \
  "$FRD_TRACE" run "$TMP/demo.frdt" --batch 0

# ----------------------------------------------- .frdtz container surface --

expect_rc 2 "frd-trace pack without --out" "$FRD_TRACE" pack "$TMP/demo.frdt"
expect_rc 1 "frd-trace pack on a missing file" \
  "$FRD_TRACE" pack "$TMP/nope.frdt" --out "$TMP/nope.frdtz"
[ -e "$TMP/nope.frdtz" ] && fail "failed pack left a partial artifact behind"
expect_rc 2 "frd-trace unpack without --out" "$FRD_TRACE" unpack "$TMP/demo.frdtz"
expect_rc 1 "frd-trace unpack rejects a flat trace" \
  "$FRD_TRACE" unpack "$TMP/demo.frdt" --out "$TMP/flat.frdt"

# pack -> unpack must reproduce the flat trace byte for byte.
expect_rc 0 "frd-trace pack wraps the demo trace" \
  "$FRD_TRACE" pack "$TMP/demo.frdt" --out "$TMP/demo.frdtz"
expect_rc 0 "frd-trace unpack restores the flat trace" \
  "$FRD_TRACE" unpack "$TMP/demo.frdtz" --out "$TMP/demo.roundtrip.frdt"
cmp -s "$TMP/demo.frdt" "$TMP/demo.roundtrip.frdt" ||
  fail "pack/unpack round trip is not byte-identical"

# Writing over the input would truncate it before it is read, and the
# failed run's clean-up would delete the only copy: both verbs must refuse
# and leave the file as it was.
cp "$TMP/demo.frdt" "$TMP/self.frdt"
expect_rc 2 "frd-trace pack refuses --out naming its input" \
  "$FRD_TRACE" pack "$TMP/self.frdt" --out "$TMP/self.frdt"
cmp -s "$TMP/demo.frdt" "$TMP/self.frdt" ||
  fail "pack onto its own input changed or removed the input"
cp "$TMP/demo.frdtz" "$TMP/self.frdtz"
expect_rc 2 "frd-trace unpack refuses --out naming its input" \
  "$FRD_TRACE" unpack "$TMP/self.frdtz" --out "$TMP/./self.frdtz"
cmp -s "$TMP/demo.frdtz" "$TMP/self.frdtz" ||
  fail "unpack onto its own input changed or removed the input"

# Packing is deterministic: unpacking each checked-in container and packing
# the result again must reproduce the artifact byte for byte.
for packed in "$CORPUS_DIR"/*.frdtz; do
  name=$(basename "$packed" .frdtz)
  if "$FRD_TRACE" unpack "$packed" --out "$TMP/$name.frdt" >/dev/null 2>&1 &&
     "$FRD_TRACE" pack "$TMP/$name.frdt" --out "$TMP/$name.frdtz" \
       >/dev/null 2>&1; then
    cmp -s "$packed" "$TMP/$name.frdtz" ||
      fail "re-packing $name does not reproduce the checked-in container"
  else
    fail "unpacking and re-packing $name"
  fi
  rm -f "$TMP/$name.frdt" "$TMP/$name.frdtz"
done

# Replay auto-detects the container and agrees with the flat replay.
"$FRD_TRACE" run "$TMP/demo.frdtz" >"$TMP/run_frdtz.txt" 2>&1 ||
  fail "replaying the packed demo trace (container auto-detect)"
if ! diff <(grep '^races:' "$TMP/run_bin.txt") \
          <(grep '^races:' "$TMP/run_frdtz.txt") >/dev/null; then
  fail "flat and container replays of the same trace disagree on races"
fi

# record --compress writes a container directly.
expect_rc 0 "frd-trace record --compress writes a container" \
  "$FRD_TRACE" record --program demo --compress --out "$TMP/rec.frdtz"
expect_rc 0 "frd-trace run replays a recorded container" \
  "$FRD_TRACE" run "$TMP/rec.frdtz"

# stats on a container reports the container section.
expect_rc 0 "frd-trace stats reads the container" \
  "$FRD_TRACE" stats "$TMP/demo.frdtz"
grep -q '^container:' "$TMP/out" ||
  fail "stats on a .frdtz must print the container section"
grep -q 'ratio' "$TMP/out" ||
  fail "stats on a .frdtz must print the compression ratio"

# A corrupted container must be rejected with a named diagnosis.
cp "$TMP/demo.frdtz" "$TMP/bad.frdtz"
printf 'X' | dd of="$TMP/bad.frdtz" bs=1 seek=20 conv=notrunc 2>/dev/null
expect_rc 1 "frd-trace run rejects a corrupted container" \
  "$FRD_TRACE" run "$TMP/bad.frdtz"
grep -q 'corrupt trace container' "$TMP/err" ||
  fail "corrupted-container error must name the container layer"
head -c 40 "$TMP/demo.frdtz" >"$TMP/cut.frdtz"
expect_rc 1 "frd-trace run rejects a truncated container" \
  "$FRD_TRACE" run "$TMP/cut.frdtz"

# ----------------------------------------------------- windowed replay --

expect_rc 2 "frd-trace run rejects --to <= --from" \
  "$FRD_TRACE" run "$TMP/demo.frdt" --from 10 --to 10
expect_rc 2 "frd-trace run rejects a negative --from" \
  "$FRD_TRACE" run "$TMP/demo.frdt" --from -1

# --to alone is an exact prefix replay; --to beyond the end is the full run.
"$FRD_TRACE" run "$TMP/demo.frdt" --to 999999 >"$TMP/run_prefix.txt" 2>&1 ||
  fail "prefix replay with --to past the end"
if ! diff <(grep '^races:' "$TMP/run_bin.txt") \
          <(grep '^races:' "$TMP/run_prefix.txt") >/dev/null; then
  fail "--to past the end must equal the full replay"
fi
"$FRD_TRACE" run "$TMP/demo.frdt" --to 3 >"$TMP/out" 2>&1 ||
  fail "short prefix replay (--to 3)"
grep -q '^window:' "$TMP/out" || fail "prefix replay must print the window"
# The demo's events 4 and 5 are one access run, which the player takes as a
# run from either reader: --to 5 must still end the window between them.
for f in demo.frdt demo.frdtz; do
  "$FRD_TRACE" run "$TMP/$f" --to 5 >"$TMP/out" 2>&1 ||
    fail "prefix replay of $f (--to 5)"
  grep -q '^window: *events \[0, 5)' "$TMP/out" ||
    fail "--to 5 must end the window inside the access run of $f"
done

# A prefix keeps every walk step whole, so --to M replays at every cut of
# the 24-event demo, flat and packed; --to 24 is the full run.
grep -q '^trace events: *24$' "$TMP/run_bin.txt" ||
  fail "the demo trace should hold 24 events"
for f in demo.frdt demo.frdtz; do
  for m in $(seq 1 24); do
    "$FRD_TRACE" run "$TMP/$f" --to "$m" >"$TMP/out" 2>&1 ||
      fail "prefix replay of $f with --to $m"
  done
  if ! diff <(grep '^races:' "$TMP/run_bin.txt") \
            <(grep '^races:' "$TMP/out") >/dev/null; then
    fail "--to 24 on $f must print the full run's races line"
  fi
done

# --from > 0 degrades (explicitly) to the reachability-free conflict scan;
# on a container it seeks through the footer index first.
"$FRD_TRACE" run "$TMP/demo.frdtz" --from 2 --to 20 >"$TMP/out" 2>&1 ||
  fail "window conflict scan on a container"
grep -q '^window scan:' "$TMP/out" && grep -q 'reachability-free' "$TMP/out" ||
  fail "a --from window must label itself a reachability-free scan"

# stats on a freshly packed container reports the seekable index.
"$FRD_TRACE" stats "$TMP/demo.frdtz" >"$TMP/out" 2>&1
grep -q 'seekable event index' "$TMP/out" ||
  fail "stats must report the v2 seek index"

# --------------------------------------------------------- serve daemon --

if [ -n "$FRD_SERVE" ]; then
  SOCK="$TMP/frd.sock"
  expect_rc 2 "frd-serve without --socket prints usage" "$FRD_SERVE"
  # The removed per-stream detection-workers knob is an unknown flag now
  # (spelled in two pieces so searching the tree for it finds no use).
  expect_rc 1 "frd-serve rejects the removed detection-workers flag" \
    "$FRD_SERVE" --socket "$SOCK" "--detect-""workers" 2
  expect_rc 2 "frd-trace submit without --socket" \
    "$FRD_TRACE" submit "$TMP/demo.frdt"
  expect_rc 1 "frd-trace submit with no daemon listening" \
    "$FRD_TRACE" submit "$TMP/demo.frdt" --socket "$SOCK"
  expect_rc 1 "frd-trace shutdown with no daemon listening" \
    "$FRD_TRACE" shutdown --socket "$SOCK"

  "$FRD_SERVE" --socket "$SOCK" --workers 2 >"$TMP/serve.log" 2>&1 &
  SERVE_PID=$!
  # Readiness: the daemon prints its listening line once the socket is live.
  for _ in $(seq 1 50); do
    grep -q 'listening on' "$TMP/serve.log" && break
    sleep 0.1
  done
  grep -q 'listening on' "$TMP/serve.log" || fail "frd-serve never came up"

  # A served replay must agree with the offline replay of the same trace.
  "$FRD_TRACE" submit "$TMP/demo.frdt" --socket "$SOCK" \
    >"$TMP/submit.txt" 2>&1 || fail "submitting the demo trace"
  if ! diff <(grep '^races:' "$TMP/run_bin.txt") \
            <(grep '^races:' "$TMP/submit.txt") >/dev/null; then
    fail "served and offline replays disagree on races"
  fi
  # Containers are auto-detected over the wire too, and a golden written by
  # the client matches the checked-in corpus golden byte for byte.
  "$FRD_TRACE" submit "$CORPUS_DIR/mm-structured-xl.frdtz" --socket "$SOCK" \
    --golden-out "$TMP/xl.golden" >/dev/null 2>&1 ||
    fail "submitting the million-event container"
  cmp -s "$TMP/xl.golden" "$CORPUS_DIR/mm-structured-xl.golden" ||
    fail "served golden of mm-structured-xl is not byte-identical"
  # One bad stream must not take the daemon down.
  expect_rc 1 "submit rejects a truncated trace via the daemon" \
    "$FRD_TRACE" submit "$TMP/cut.frdt" --socket "$SOCK"
  expect_rc 1 "submit rejects a hostile trace via the daemon" \
    "$FRD_TRACE" submit "$HOSTILE" --socket "$SOCK"
  grep -q 'bad-trace' "$TMP/err" ||
    fail "a hostile stream must fail as bad-trace"
  expect_rc 0 "daemon still serves after a failed stream" \
    "$FRD_TRACE" submit "$TMP/demo.frdt" --socket "$SOCK"

  expect_rc 0 "frd-trace shutdown stops the daemon" \
    "$FRD_TRACE" shutdown --socket "$SOCK"
  wait "$SERVE_PID"
  [ $? -eq 0 ] || fail "frd-serve exited non-zero after shutdown"
  grep -q 'stopped:' "$TMP/serve.log" ||
    fail "frd-serve must print its final stats line"
  [ -e "$SOCK" ] && fail "frd-serve left its socket file behind"

  # A degraded daemon says so on its readiness line.
  "$FRD_SERVE" --socket "$SOCK" --workers 1 --sample-rate 0.5 \
    >"$TMP/serve_sampled.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 50); do
    grep -q 'listening on' "$TMP/serve_sampled.log" && break
    sleep 0.1
  done
  grep -q 'listening on.*sample rate 0.5 (seed 1)' "$TMP/serve_sampled.log" ||
    fail "a sampling frd-serve must announce its sample rate when ready"
  if ! "$FRD_TRACE" shutdown --socket "$SOCK" >/dev/null 2>&1; then
    fail "stopping the sampling daemon"
    kill "$SERVE_PID" 2>/dev/null
  fi
  wait "$SERVE_PID"
else
  note "frd-serve binary not provided; skipping serve checks"
fi

# ------------------------------------------------------------ frd-corpus --

expect_rc 2 "frd-corpus with no arguments prints usage" "$FRD_CORPUS"
expect_rc 2 "frd-corpus rejects an unknown subcommand" "$FRD_CORPUS" nope
expect_rc 1 "frd-corpus verify on a missing directory" \
  "$FRD_CORPUS" verify --dir "$TMP/no-such-corpus"
expect_rc 0 "frd-corpus list prints the manifest" \
  "$FRD_CORPUS" list --dir "$CORPUS_DIR"
expect_rc 1 "frd-corpus verify rejects an unknown --backend" \
  "$FRD_CORPUS" verify --dir "$CORPUS_DIR" --backend nope
expect_rc 1 "frd-corpus verify rejects --store as an unknown flag" \
  "$FRD_CORPUS" verify --dir "$CORPUS_DIR" --store compact
grep -q 'unknown flag' "$TMP/err" ||
  fail "frd-corpus verify --store must fail as an unknown flag"
expect_rc 1 "frd-corpus verify fails when --backend matches zero checks" \
  "$FRD_CORPUS" verify --dir "$CORPUS_DIR" --backend sp-bags
expect_rc 1 "frd-corpus generate rejects an unknown --only" \
  "$FRD_CORPUS" generate --dir "$TMP" --only nope

expect_rc 0 "frd-corpus verify passes on the checked-in corpus" \
  "$FRD_CORPUS" verify --dir "$CORPUS_DIR"

# Regenerating the corpus runs live recording, address normalisation and
# both writers for every entry: every checked-in file but the README must
# come back byte for byte, and nothing else may appear.
mkdir "$TMP/regen"
expect_rc 0 "frd-corpus generate writes the corpus" \
  "$FRD_CORPUS" generate --dir "$TMP/regen"
for f in "$CORPUS_DIR"/*; do
  name=$(basename "$f")
  [ "$name" = README.md ] && continue
  cmp -s "$f" "$TMP/regen/$name" ||
    fail "frd-corpus generate: $name differs from the checked-in corpus"
done
for f in "$TMP/regen"/*; do
  [ -e "$CORPUS_DIR/$(basename "$f")" ] ||
    fail "frd-corpus generate wrote $(basename "$f"), which the corpus lacks"
done

# Tamper with a copy: verify must exit non-zero and say WHICH backend
# diverged on WHICH granule.
cp -r "$CORPUS_DIR" "$TMP/corpus"
# Portable rewrite (BSD sed reads -i differently): swap the racy list for a
# granule no backend will ever report.
sed -e 's/^racy_granules .*/racy_granules 1/' -e '/^racy 0x/d' \
  "$TMP/corpus/sync-heavy.golden" >"$TMP/golden.tmp"
printf 'racy 0xdead00\n' >>"$TMP/golden.tmp"
mv "$TMP/golden.tmp" "$TMP/corpus/sync-heavy.golden"
"$FRD_CORPUS" verify --dir "$TMP/corpus" >"$TMP/out" 2>"$TMP/err"
rc=$?
if [ "$rc" -eq 0 ]; then
  fail "verify passed on a tampered golden"
fi
grep -q 'FAIL sync-heavy \[' "$TMP/err" ||
  fail "verify divergence must name the entry and backend"
grep -q '0xdead00' "$TMP/err" ||
  fail "verify divergence must name the granule that diverged"

# A corpus with a missing trace file fails loudly too.
rm "$TMP/corpus/wide-fanin.frdt"
expect_rc 1 "frd-corpus verify fails when a manifest trace is missing" \
  "$FRD_CORPUS" verify --dir "$TMP/corpus"

if [ "$fails" -ne 0 ]; then
  note "$fails CLI check(s) failed"
  exit 1
fi
note "all CLI checks passed"
