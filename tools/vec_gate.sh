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
# checks the code that ships. The level-relax select, where a double
# compare picks an int32 successor, stays scalar at the baseline x86-64
# ISA; the kernel carries a target_clones x86-64-v3 clone (stroll_dp.cpp),
# and its pin requires that clone's 32-byte (AVX2) vectors. The
# cost-model loops inline into kernels with an AVX clone (cost_model.cpp),
# and their pins require that clone's 32-byte vectors. A kernel refactor
# that silently drops back to scalar code, or loses its clone, fails here
# instead of surfacing as a bench regression three PRs later.
#
# Kernels written with GCC generic vectors (`vector_size`) have no loop
# for -fopt-info-vec to report, so they take a second tag,
# `// ppdc-ymm: <name> fn=<function>`, anywhere in the file: the gate
# compiles the file to assembly with the same flags and requires the
# function's x86-64-v3 clone (`<mangled>.arch_x86_64_v3`) to compare
# packed doubles in 32-byte ymm registers (`vcmp...pd ... %ymm`). Losing
# the clone attribute, or code that GCC lowers to scalar, fails it.
#
# Exit: 0 all pinned kernels vectorize, 1 regression (or tags missing),
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

  ymm_pins=$(grep -n 'ppdc-ymm:' "$f" |
             sed -E 's/^([0-9]+):.*ppdc-ymm: *([A-Za-z0-9-]+) +fn=([A-Za-z0-9_]+).*/\1 \2 \3/')
  [ -z "$ymm_pins" ] && continue
  asm=$(mktemp)
  if ! "$CXX" $FLAGS -S "$f" -o "$asm" 2>/dev/null; then
    echo "vec_gate: FAIL: $f does not compile to assembly with $FLAGS" >&2
    failures=$((failures + 1))
    rm -f "$asm"
    continue
  fi
  while read -r line name fn; do
    checked=$((checked + 1))
    # The clone's body runs from its label to the end of its CFI region.
    if awk -v fn="$fn" '
         $0 ~ ("^_Z[A-Za-z0-9_]*[0-9]" fn "E[A-Za-z0-9_]*[.]arch_x86_64_v3:$") { on = 1 }
         on && /vcmp[a-z]*pd[ \t].*%ymm/ { found = 1 }
         on && /[.]cfi_endproc/ { on = 0 }
         END { exit found ? 0 : 1 }' "$asm"; then
      echo "vec_gate: OK   $name ($f:$line, $fn's x86-64-v3 clone on ymm)"
    else
      echo "vec_gate: FAIL $name ($f:$line) $fn has no x86-64-v3 clone" \
           "comparing packed doubles on ymm" >&2
      failures=$((failures + 1))
    fi
  done <<EOF
$ymm_pins
EOF
  rm -f "$asm"
done

# The attraction kernels' AVX clones (cost_model.cpp, DESIGN.md §11)
# give the baseline clone's bits only while they hold no fused
# multiply-add: AVX has none, but a target or flag that brings FMA in
# (x86-64-v3, avx+fma, -march=native) lets GCC contract a·c + g into one
# rounding. The file must carry `.avx` clones, and no function in its
# assembly, clone or not, may use an FMA mnemonic.
f=src/core/cost_model.cpp
checked=$((checked + 1))
asm=$(mktemp)
if ! "$CXX" $FLAGS -S "$f" -o "$asm" 2>/dev/null; then
  echo "vec_gate: FAIL: $f does not compile to assembly with $FLAGS" >&2
  failures=$((failures + 1))
else
  clones=$(grep -c '^_Z[A-Za-z0-9_]*[.]avx:$' "$asm")
  fma=$(awk '/^[^.\t ][^ \t]*:$/ { fn = $0; next }
             /^\tv(fn)?fm(add|sub)/ { print "  " fn " " $1 }' "$asm")
  if [ "$clones" -eq 0 ]; then
    echo "vec_gate: FAIL no-fma ($f) has no .avx clones" >&2
    failures=$((failures + 1))
  elif [ -n "$fma" ]; then
    printf 'vec_gate: FAIL no-fma (%s) uses FMA:\n%s\n' "$f" "$fma" >&2
    failures=$((failures + 1))
  else
    echo "vec_gate: OK   no-fma ($f, $clones .avx clone(s) without FMA)"
  fi
fi
rm -f "$asm"

if [ "$failures" -ne 0 ]; then
  echo "vec_gate: $failures pinned kernel(s) regressed" >&2
  exit 1
fi
echo "vec_gate: all $checked pinned kernel(s) vectorize"
exit 0
