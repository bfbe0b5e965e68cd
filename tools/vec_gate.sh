#!/usr/bin/env bash
# Vectorization gate over the PR-6 flat kernels (ROADMAP follow-up):
# every loop tagged `// ppdc-vec: <name>` in the files below must be
# reported as "loop vectorized" by the compiler at -O3. The tags sit on
# the `for` line, which is exactly where GCC's -fopt-info-vec attributes
# its records, so the match is by (file, line).
#
# The gate is compile-only — nothing is executed — so it pins a fixed
# ISA (-march=x86-64-v3: AVX2+FMA) regardless of the build machine: the
# level-relax select needs it, where a double compare picks an int32
# successor (plain SSE2 -O3 leaves it scalar). A kernel refactor that silently drops back to
# scalar code fails here instead of surfacing as a bench regression
# three PRs later.
#
# Exit: 0 all pinned loops vectorize, 1 regression (or tags missing),
# 77 skipped (non-GNU compiler or non-x86 target, same SKIPPED
# degradation as the other optional check.sh stages).
set -u

cd "$(dirname "$0")/.." || exit 1

CXX=${CXX:-g++}
FILES="src/core/stroll_dp.cpp src/core/cost_model.cpp"
FLAGS="-std=c++20 -O3 -march=x86-64-v3 -I. -Isrc"

if ! command -v "$CXX" >/dev/null 2>&1; then
  echo "vec_gate: SKIPPED ($CXX not found)"
  exit 77
fi
if ! "$CXX" --version 2>/dev/null | head -1 | grep -qiE 'g\+\+|\(GCC\)|gcc'; then
  echo "vec_gate: SKIPPED ($CXX is not GCC; -fopt-info-vec unavailable)"
  exit 77
fi
# Non-x86 hosts cannot target x86-64-v3 even for a compile-only check.
probe=$(mktemp --suffix=.cpp)
trap 'rm -f "$probe"' EXIT
echo 'int main(){return 0;}' > "$probe"
if ! "$CXX" -march=x86-64-v3 -fsyntax-only "$probe" 2>/dev/null; then
  echo "vec_gate: SKIPPED (target does not accept -march=x86-64-v3)"
  exit 77
fi

failures=0
checked=0
for f in $FILES; do
  pins=$(grep -n 'ppdc-vec:' "$f" |
         sed -E 's/^([0-9]+):.*ppdc-vec: *([A-Za-z0-9-]+).*/\1 \2/')
  if [ -z "$pins" ]; then
    echo "vec_gate: FAIL: no ppdc-vec pins found in $f (tags removed?)" >&2
    failures=$((failures + 1))
    continue
  fi
  report=$(mktemp)
  if ! "$CXX" $FLAGS -c "$f" -o /dev/null \
       -fopt-info-vec-optimized="$report" 2>/dev/null; then
    echo "vec_gate: FAIL: $f does not compile with $FLAGS" >&2
    failures=$((failures + 1))
    rm -f "$report"
    continue
  fi
  while read -r line name; do
    checked=$((checked + 1))
    if grep -q "^$f:$line:[0-9]*: optimized: loop vectorized" "$report"; then
      echo "vec_gate: OK   $name ($f:$line)"
    else
      echo "vec_gate: FAIL $name ($f:$line) no longer vectorizes" >&2
      failures=$((failures + 1))
    fi
  done <<EOF
$pins
EOF
  rm -f "$report"
done

if [ "$failures" -ne 0 ]; then
  echo "vec_gate: $failures pinned loop(s) regressed" >&2
  exit 1
fi
echo "vec_gate: all $checked pinned loop(s) vectorize"
exit 0
