#!/usr/bin/env bash
# Vectorization gate over the PR-6 flat kernels (ROADMAP follow-up):
# every loop tagged `// ppdc-vec: <name>` in the files below must be
# reported as "loop vectorized" by the compiler. A tag may add
# `bytes=<N>` to require N-byte vectors (`// ppdc-vec: <name> bytes=32`).
# The tags sit on the `for` line, which is exactly where GCC's
# -fopt-info-vec attributes its records, so the match is by (file, line).
#
# The gate is compile-only — nothing is executed — and compiles with the
# library's Release flags (-std=c++20 -O3 -DNDEBUG, no -march), so it
# checks the code that ships. The cost-model pins vectorize at the
# baseline x86-64 ISA. The level-relax select, where a double compare
# picks an int32 successor, stays scalar there; the kernel carries a
# target_clones x86-64-v3 clone (stroll_dp.cpp), and its pin requires
# that clone's 32-byte (AVX2) vectors. A kernel refactor that silently
# drops back to scalar code, or loses its clone, fails here instead of
# surfacing as a bench regression three PRs later.
#
# Exit: 0 all pinned loops vectorize, 1 regression (or tags missing),
# 77 skipped (non-GNU compiler or non-x86-64 target, same SKIPPED
# degradation as the other optional check.sh stages).
set -u

cd "$(dirname "$0")/.." || exit 1

CXX=${CXX:-g++}
FILES="src/core/stroll_dp.cpp src/core/cost_model.cpp"
FLAGS="-std=c++20 -O3 -DNDEBUG -I. -Isrc"

if ! command -v "$CXX" >/dev/null 2>&1; then
  echo "vec_gate: SKIPPED ($CXX not found)"
  exit 77
fi
if ! "$CXX" --version 2>/dev/null | head -1 | grep -qiE 'g\+\+|\(GCC\)|gcc'; then
  echo "vec_gate: SKIPPED ($CXX is not GCC; -fopt-info-vec unavailable)"
  exit 77
fi
# The pins name x86-64 vector widths; other targets build the plain kernels.
if ! "$CXX" -dM -E -x c++ /dev/null 2>/dev/null | grep -q '__x86_64__'; then
  echo "vec_gate: SKIPPED (target is not x86-64)"
  exit 77
fi

failures=0
checked=0
for f in $FILES; do
  pins=$(grep -n 'ppdc-vec:' "$f" |
         sed -E 's/^([0-9]+):.*ppdc-vec: *([A-Za-z0-9-]+)( +bytes=([0-9]+))?.*/\1 \2 \4/')
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
  while read -r line name bytes; do
    checked=$((checked + 1))
    want="loop vectorized"
    [ -n "$bytes" ] && want="loop vectorized using $bytes byte vectors"
    if grep -q "^$f:$line:[0-9]*: optimized: $want" "$report"; then
      echo "vec_gate: OK   $name ($f:$line${bytes:+, $bytes-byte vectors})"
    else
      echo "vec_gate: FAIL $name ($f:$line) no longer reports \"$want\"" >&2
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
