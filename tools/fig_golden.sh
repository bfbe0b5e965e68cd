#!/usr/bin/env bash
# Golden-stdout check of the dynamic-simulation figure benches. Runs
# bench_fig11_dynamic (all five Fig. 11 policies, PLAN/MCF included),
# bench_ablation_faults (switch/link failures, quarantine, recovery) and
# bench_chaos, monolithic and sharded (degradation ladder, quarantine,
# invariant auditor), and the exhaustive chain-search paths: the Fig. 3
# worked example (its TOM tie pick), Fig. 7 and Fig. 10 Optimal columns
# and the multi-SFC ablation. Runs each at a smoke size and diffs its
# stdout against the file recorded in tests/golden/. No bench prints timings, --threads is
# pinned and the measured "peak RSS:" line is dropped, so any difference
# is a change in simulated results: an intentional one lands as a
# reviewed golden diff (rerun with --update). The streaming engine's
# bench_scale prints timings, so only its total-cost line is pinned, at
# 1 and at 4 threads against one golden file.
#
# Usage: tools/fig_golden.sh [--build-dir DIR] [--update]
#   --build-dir DIR   where to find bench/ (default: build)
#   --update          rewrite the golden files instead of diffing
set -u

cd "$(dirname "$0")/.." || exit 1

BUILD_DIR=build
UPDATE=0
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir)
      BUILD_DIR=$2
      shift 2
      ;;
    --update)
      UPDATE=1
      shift
      ;;
    *)
      echo "unknown option: $1" >&2
      exit 2
      ;;
  esac
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
status=0

# check [--keep PATTERN] NAME ARGS...: runs build/bench/BENCH ARGS, where
# BENCH is NAME up to its first '.', and compares its stdout with
# tests/golden/NAME.txt. With --keep, only the stdout lines matching the
# grep PATTERN are compared.
check() {
  local keep=
  if [ "$1" = --keep ]; then
    keep=$2
    shift 2
  fi
  local name=$1
  shift
  local bench=$BUILD_DIR/bench/${name%%.*}
  local golden=tests/golden/$name.txt
  if [ ! -x "$bench" ]; then
    echo "fig_golden: $bench not built (configure with PPDC_BUILD_BENCH=ON)" >&2
    exit 2
  fi
  "$bench" "$@" > "$WORK/$name.raw" 2> "$WORK/$name.err" || {
    echo "fig_golden: FAIL: $name exited $? (stderr: $(cat "$WORK/$name.err"))" >&2
    status=1
    return
  }
  if [ -n "$keep" ]; then
    grep -e "$keep" "$WORK/$name.raw" > "$WORK/$name.out"
  else
    grep -v '^peak RSS:' "$WORK/$name.raw" > "$WORK/$name.out"
  fi
  if [ "$UPDATE" -eq 1 ]; then
    cp "$WORK/$name.out" "$golden"
    echo "== fig_golden: rewrote $golden"
  elif diff -u "$golden" "$WORK/$name.out"; then
    echo "== fig_golden: $name matches $golden"
  else
    echo "fig_golden: FAIL: $name stdout differs from $golden" >&2
    status=1
  fi
}

check bench_fig11_dynamic --k 8 --trials 2 --l 200 --n 5 --hours 12 \
  --lvalues 100,200 --nvalues 3,5 --mu 1000 --host-capacity 0 --seed 7 \
  --threads 2
check bench_ablation_faults --trials 3 --hours 48 --seed 7 --threads 2
check bench_chaos --smoke --threads 2
check bench_chaos.sharded --smoke --sharded --threads 2
check bench_fig3_example
check bench_fig7_top1 --k 8 --trials 2 --nmax 7
check bench_fig10_top_weighted --k 4 --trials 2
check bench_ablation_extensions
check --keep '^total cost ' bench_scale.smoke --smoke --threads 1
check --keep '^total cost ' bench_scale.smoke --smoke --threads 4

exit $status
