#!/usr/bin/env bash
# Kill-resume smoke test for the per-cell epoch journals (DESIGN.md §10).
# Exercises the one contract the unit tests cannot: a real process death
# between journal writes, across process boundaries.
#
# The driver is killed via PPDC_EPOCH_CRASH_AFTER=N, which _Exit()s the
# process immediately after the Nth durable epoch-journal write — the
# moral equivalent of SIGKILL at the worst possible instant the journal
# still promises to survive. Both kills land mid-cell. The run is then
# resumed (twice, to prove resume composes) and its stdout must be
# byte-identical to an uninterrupted run of the same command. Rerunning
# the finished checkpoint must replay every cell from its journal and
# print the same tables again.
#
# Usage: tools/smoke_resume.sh [--build-dir DIR]
#   --build-dir DIR   where to find bench/bench_ablation_replication
#                     (default: build)
set -u

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR=build
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir)
      BUILD_DIR=$2
      shift 2
      ;;
    *)
      echo "unknown option: $1" >&2
      exit 2
      ;;
  esac
done

BENCH=$BUILD_DIR/bench/bench_ablation_replication
if [ ! -x "$BENCH" ]; then
  echo "smoke_resume: $BENCH not built (configure with PPDC_BUILD_BENCH=ON)" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
JNL=$WORK/journal.jnl

# Small but non-trivial grid: 3 policies x 2 trials = 6 cells of 12
# epochs, one journal write per epoch (72 in all). --threads 1 keeps the
# crash points deterministic.
run() {
  "$BENCH" --k 4 --trials 2 --l 12 --n 2 --replicas 2 --threads 1 "$@"
}

fail() {
  echo "smoke_resume: FAIL: $*" >&2
  exit 1
}

echo "== smoke_resume: reference run (no checkpoint)"
run > "$WORK/reference.out" 2> "$WORK/reference.err" ||
  fail "reference run exited $?"

echo "== smoke_resume: crash after journal write 30 (cell t0p2, epoch 5)"
PPDC_EPOCH_CRASH_AFTER=30 run --checkpoint "$JNL" \
  > "$WORK/crash1.out" 2> "$WORK/crash1.err"
status=$?
[ "$status" -eq 37 ] || fail "crash run exited $status, expected 37"
[ -f "$JNL.t0p2" ] || fail "journal of the interrupted cell missing"

echo "== smoke_resume: resume, crash again 20 writes later (cell t1p1)"
PPDC_EPOCH_CRASH_AFTER=20 run --checkpoint "$JNL" \
  > "$WORK/crash2.out" 2> "$WORK/crash2.err"
status=$?
[ "$status" -eq 37 ] || fail "second crash run exited $status, expected 37"
grep -q "resuming from epoch journal '$JNL.t0p2': 6 of 12 epochs" \
  "$WORK/crash2.err" ||
  fail "second run did not resume cell t0p2 mid-run (stderr: $(cat "$WORK/crash2.err"))"

echo "== smoke_resume: final resume must complete and match the reference"
run --checkpoint "$JNL" > "$WORK/resume.out" 2> "$WORK/resume.err" ||
  fail "resume run exited $?"
grep -q "resuming from epoch journal '$JNL.t1p1': 2 of 12 epochs" \
  "$WORK/resume.err" ||
  fail "resume did not continue cell t1p1 mid-run (stderr: $(cat "$WORK/resume.err"))"
diff -u "$WORK/reference.out" "$WORK/resume.out" ||
  fail "resumed stdout differs from the uninterrupted run"

echo "== smoke_resume: rerunning a complete checkpoint replays every cell"
run --checkpoint "$JNL" > "$WORK/replay.out" 2> "$WORK/replay.err" ||
  fail "replay run exited $?"
replayed=$(grep -c "12 of 12 epochs already journaled" "$WORK/replay.err")
[ "$replayed" -eq 6 ] ||
  fail "replay found $replayed of 6 cells complete (stderr: $(cat "$WORK/replay.err"))"
diff -u "$WORK/reference.out" "$WORK/replay.out" ||
  fail "replayed stdout differs from the uninterrupted run"

echo "== smoke_resume: OK — kill, resume, and replay are byte-identical"
exit 0
