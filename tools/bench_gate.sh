#!/usr/bin/env bash
# Perf-trajectory regression gate (EXPERIMENTS.md "BENCH artifacts").
#
# Runs the pinned micro-kernel scenarios in smoke mode from the Release
# bench build and compares the fresh BENCH_*.json artifacts against the
# committed baselines in bench/baselines/ with tools/bench_compare.
#
# Degrades to SKIPPED (exit 77, CTest's skip code) when any ingredient is
# missing — the bench-preset binary, the comparator, or committed
# baselines — so the gate never fails a box that simply has not built the
# bench preset. It fails loudly (exit 1) on a >tolerance regression, an
# output-checksum drift, or incomparable build metadata (bench_compare
# exit 3): a mismatched baseline must be refreshed, never ignored.
#
# Usage: tools/bench_gate.sh [--bench-dir DIR] [--compare BIN]
#   --bench-dir DIR  bench-preset build dir (default: build-bench)
#   --compare BIN    bench_compare binary (default: first of
#                    build-bench/tools/bench_compare, build/tools/bench_compare)
set -u

cd "$(dirname "$0")/.." || exit 2

BENCH_DIR=build-bench
COMPARE=
while [ $# -gt 0 ]; do
  case "$1" in
    --bench-dir) BENCH_DIR=$2; shift 2 ;;
    --compare)   COMPARE=$2;   shift 2 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

MICRO=$BENCH_DIR/bench/micro_kernels
BASELINES=bench/baselines
if [ -z "$COMPARE" ]; then
  for c in "$BENCH_DIR/tools/bench_compare" build/tools/bench_compare; do
    [ -x "$c" ] && COMPARE=$c && break
  done
fi

skip() { echo "bench_gate: SKIPPED ($*)"; exit 77; }

[ -x "$MICRO" ] || skip "no $MICRO — cmake --preset bench && cmake --build --preset bench"
[ -n "$COMPARE" ] && [ -x "$COMPARE" ] || skip "no bench_compare binary"
ls "$BASELINES"/BENCH_*.json >/dev/null 2>&1 || skip "no committed baselines in $BASELINES"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "bench_gate: emitting smoke artifacts from $MICRO"
if ! "$MICRO" --bench_json "$tmp" --smoke; then
  echo "bench_gate: FAIL — pinned scenario emission failed" >&2
  exit 1
fi

"$COMPARE" "$BASELINES" "$tmp"
rc=$?
case "$rc" in
  0) echo "bench_gate: OK" ;;
  3) echo "bench_gate: FAIL — artifacts incomparable with committed" \
          "baselines (build metadata mismatch); refresh bench/baselines" \
          "from the bench preset" >&2 ;;
  *) echo "bench_gate: FAIL — see bench_compare output above" >&2 ;;
esac
exit "$rc"
