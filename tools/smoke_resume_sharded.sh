#!/usr/bin/env bash
# Kill-resume smoke test for the epoch journals of sharded cells
# (DESIGN.md §10). Exercises the contract the unit tests cannot: a real
# process death between epoch-journal writes, across process boundaries,
# inside a pod-sharded grid cell.
#
# The driver is killed via PPDC_EPOCH_CRASH_AFTER=N, which _Exit()s the
# process immediately after the Nth durable epoch-journal write — SIGKILL
# at the worst instant the journal still promises to survive. The run is
# then resumed (twice, to prove resume composes): finished cells replay
# from their journals, and the in-flight cell resumes mid-run. The final
# stdout must be byte-identical to an uninterrupted run, and exactly one
# journal per cell must remain (a failed cell would leave none).
#
# Usage: tools/smoke_resume_sharded.sh [--build-dir DIR]
#   --build-dir DIR   where to find bench/bench_chaos (default: build)
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

BENCH=$BUILD_DIR/bench/bench_chaos
if [ ! -x "$BENCH" ]; then
  echo "smoke_resume_sharded: $BENCH not built (configure with PPDC_BUILD_BENCH=ON)" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
JNL=$WORK/grid.jnl

# The sharded chaos smoke: 2 scenarios x 2 policies x 1 trial = 4 cells,
# 16 epochs each, one epoch-journal write per epoch. --threads 1 keeps
# the crash points deterministic.
run() {
  "$BENCH" --smoke --sharded --threads 1 "$@"
}

fail() {
  echo "smoke_resume_sharded: FAIL: $*" >&2
  exit 1
}

echo "== smoke_resume_sharded: reference run (no journals)"
run > "$WORK/reference.out" 2> "$WORK/reference.err" ||
  fail "reference run exited $?"

echo "== smoke_resume_sharded: crash mid-cell after epoch write 10"
PPDC_EPOCH_CRASH_AFTER=10 run --checkpoint "$JNL" \
  > "$WORK/crash1.out" 2> "$WORK/crash1.err"
status=$?
[ "$status" -eq 37 ] || fail "crash run exited $status, expected 37"
[ -f "$JNL.pod-outage.t0p0" ] ||
  fail "cell journal missing after crash"

echo "== smoke_resume_sharded: resume mid-cell, crash again 20 writes later"
PPDC_EPOCH_CRASH_AFTER=20 run --checkpoint "$JNL" \
  > "$WORK/crash2.out" 2> "$WORK/crash2.err"
status=$?
[ "$status" -eq 37 ] || fail "second crash run exited $status, expected 37"
grep -q "resuming from epoch journal '$JNL.pod-outage.t0p0': 10 of 16" \
  "$WORK/crash2.err" ||
  fail "second run did not resume from the epoch journal (stderr: $(cat "$WORK/crash2.err"))"

echo "== smoke_resume_sharded: final resume must complete and match"
run --checkpoint "$JNL" > "$WORK/resume.out" 2> "$WORK/resume.err" ||
  fail "resume run exited $?"
grep -q "resuming from epoch journal '$JNL.pod-outage.t0p0': 16 of 16" \
  "$WORK/resume.err" ||
  fail "final run did not replay the finished cell (stderr: $(cat "$WORK/resume.err"))"
diff -u "$WORK/reference.out" "$WORK/resume.out" ||
  fail "resumed stdout differs from the uninterrupted run"

# A finished cell keeps its journal as its terminal record; a failed cell
# (none here) would have none. Anything else left behind is a leak.
expected="grid.jnl.gray-links.t0p0 grid.jnl.gray-links.t0p1 grid.jnl.pod-outage.t0p0 grid.jnl.pod-outage.t0p1"
left=$(cd "$WORK" && ls grid.jnl.* | sort | tr '\n' ' ' | sed 's/ $//')
[ "$left" = "$expected" ] ||
  fail "expected one journal per cell, found: $left"

echo "== smoke_resume_sharded: OK — mid-cell kill and resume are byte-identical"
exit 0
