#!/usr/bin/env bash
# Vectorization gate over the flat kernels: every loop tagged
# `// ppdc-vec: <name>` in the files below must be reported as "loop
# vectorized" by the compiler. A tag may add `bytes=<N>[,<N>...]` to
# require vectors of each listed width (`// ppdc-vec: <name> bytes=64,32`
# needs one 64-byte and one 32-byte vectorization of the loop, i.e. two
# clones). The tags sit on the `for` line, which is exactly where GCC's
# -fopt-info-vec attributes its records, so the match is by (file, line).
#
# The gate is compile-only — nothing is executed — and compiles with the
# library's Release flags (-std=c++20 -O3 -DNDEBUG, no -march) plus the
# file's own options from src/CMakeLists.txt (a one-line
# `set_source_files_properties(<file> PROPERTIES COMPILE_OPTIONS ...)`),
# so it checks the code that ships. The level-relax select, where a double
# compare picks an int32 successor, stays scalar at the baseline x86-64
# ISA; the kernel carries target_clones x86-64-v4 and x86-64-v3 clones
# (stroll_dp.cpp), and its pin requires their 64-byte (AVX-512) and
# 32-byte (AVX2) vectors. The cost-model loops inline into kernels with
# x86-64-v4 and AVX clones (cost_model.cpp), and their pins require
# those clones' 64- and 32-byte vectors. The AllPairs summary scans
# (apsp.cpp) fold block rows into per-column max and min lanes under the
# level kernels' clone tiers; their pins require the v4 and v3 clones'
# vectors and their packed vmaxpd / vminpd. A kernel refactor that silently
# drops back to scalar code, or loses a clone, fails here instead of
# surfacing as a bench regression three PRs later.
#
# Two more tags name a function and check its clone's assembly, anywhere
# in the file: the gate compiles the file to assembly with the same
# flags and requires
#   `// ppdc-ymm: <name> fn=<function>` — the function's x86-64-v3 clone
#     (`<mangled>.arch_x86_64_v3`) compares packed doubles in 32-byte ymm
#     registers (`vcmp...pd ... %ymm`). Kernels written with GCC generic
#     vectors (`vector_size`) have no loop for -fopt-info-vec to report,
#     so this is their only pin;
#   `// ppdc-zmm: <name> fn=<function>` — the function's x86-64-v4 clone
#     (`<mangled>.arch_x86_64_v4`) compares packed doubles in 64-byte zmm
#     registers into a mask register (`vcmp...pd ... %zmm<i>, %k<j>`), the
#     compare whose mask stores the selected lanes with no narrowing step;
#   `// ppdc-zmm: <name> fn=<function> insn=<mnemonic>` — that clone
#     runs the packed instruction <mnemonic> on zmm registers, for
#     kernels that compute without comparing (the attraction kernels'
#     `vmulpd`).
# Losing the clone attribute or a clone target, or code that GCC lowers
# to scalar, fails them.
#
# Exit: 0 all pinned kernels vectorize, 1 regression (or tags missing),
# 77 skipped (non-GNU compiler or non-x86-64 target, same SKIPPED
# degradation as the other optional check.sh stages).
set -u

cd "$(dirname "$0")/.." || exit 1

CXX=${CXX:-g++}
FILES="src/core/stroll_dp.cpp src/core/cost_model.cpp src/graph/apsp.cpp"
FLAGS="-std=c++20 -O3 -DNDEBUG -I. -Isrc"

# The per-source COMPILE_OPTIONS src/CMakeLists.txt gives file $1.
file_flags() {
  sed -n -E "s|^set_source_files_properties\(${1#src/} +PROPERTIES +COMPILE_OPTIONS +([^)]*)\)\$|\1|p" \
    src/CMakeLists.txt
}

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
         sed -E 's/^([0-9]+):.*ppdc-vec: *([A-Za-z0-9-]+)( +bytes=([0-9,]+))?.*/\1 \2 \4/')
  if [ -z "$pins" ]; then
    echo "vec_gate: FAIL: no ppdc-vec pins found in $f (tags removed?)" >&2
    failures=$((failures + 1))
    continue
  fi
  fflags="$FLAGS $(file_flags "$f")"
  report=$(mktemp)
  if ! "$CXX" $fflags -c "$f" -o /dev/null \
       -fopt-info-vec-optimized="$report" 2>/dev/null; then
    echo "vec_gate: FAIL: $f does not compile with $fflags" >&2
    failures=$((failures + 1))
    rm -f "$report"
    continue
  fi
  while read -r line name widths; do
    checked=$((checked + 1))
    at="^$f:$line:[0-9]*: optimized: loop vectorized"
    missing=
    if [ -z "$widths" ]; then
      grep -q "$at" "$report" || missing=" any"
    fi
    for bytes in ${widths//,/ }; do
      grep -q "$at using $bytes byte vectors" "$report" ||
        missing="$missing $bytes-byte"
    done
    if [ -z "$missing" ]; then
      echo "vec_gate: OK   $name ($f:$line${widths:+, $widths-byte vectors})"
    else
      echo "vec_gate: FAIL $name ($f:$line) no longer reports" \
           "\"loop vectorized\" with${missing} vectors" >&2
      failures=$((failures + 1))
    fi
  done <<EOF
$pins
EOF
  rm -f "$report"

  asm_pins=$(grep -n -E 'ppdc-(ymm|zmm):' "$f" |
             sed -E 's/^([0-9]+):.*ppdc-(ymm|zmm): *([A-Za-z0-9-]+) +fn=([A-Za-z0-9_]+)( +insn=([a-z0-9]+))?.*/\1 \2 \3 \4 \6/')
  [ -z "$asm_pins" ] && continue
  asm=$(mktemp)
  if ! "$CXX" $fflags -S "$f" -o "$asm" 2>/dev/null; then
    echo "vec_gate: FAIL: $f does not compile to assembly with $fflags" >&2
    failures=$((failures + 1))
    rm -f "$asm"
    continue
  fi
  while read -r line reg name fn insn; do
    checked=$((checked + 1))
    if [ "$reg" = zmm ]; then
      arch=x86-64-v4
      cmp='vcmp[a-z]*pd[ \t].*%zmm[0-9]+, *%k[0-7]$'
      what="comparing packed doubles on zmm into a mask"
    else
      arch=x86-64-v3
      cmp='vcmp[a-z]*pd[ \t].*%ymm'
      what="comparing packed doubles on ymm"
    fi
    if [ -n "$insn" ]; then
      cmp="$insn[ \t].*%$reg"
      what="running $insn on $reg"
    fi
    # The clone's body runs from its label to the end of its CFI region.
    if awk -v fn="$fn" -v clone="${arch//-/_}" -v cmp="$cmp" '
         $0 ~ ("^_Z[A-Za-z0-9_]*[0-9]" fn "E[A-Za-z0-9_]*[.]arch_" clone ":$") { on = 1 }
         on && $0 ~ cmp { found = 1 }
         on && /[.]cfi_endproc/ { on = 0 }
         END { exit found ? 0 : 1 }' "$asm"; then
      echo "vec_gate: OK   $name ($f:$line, $fn's $arch clone on $reg)"
    else
      echo "vec_gate: FAIL $name ($f:$line) $fn has no $arch clone $what" >&2
      failures=$((failures + 1))
    fi
  done <<EOF
$asm_pins
EOF
  rm -f "$asm"
done

# The attraction kernels' clones (cost_model.cpp, DESIGN.md §11) give
# the baseline clone's bits only while they hold no fused multiply-add.
# AVX has none; x86-64-v4 has FMA, and so do the targets and flags that
# bring it in (x86-64-v3, avx+fma, -march=native), and there GCC
# contracts a·c + g into one rounding unless the file is built with
# -ffp-contract=off (src/CMakeLists.txt). The file must carry `.avx`
# clones, and no function in its assembly, clone or not, may use an FMA
# mnemonic.
f=src/core/cost_model.cpp
fflags="$FLAGS $(file_flags "$f")"
checked=$((checked + 1))
asm=$(mktemp)
if ! "$CXX" $fflags -S "$f" -o "$asm" 2>/dev/null; then
  echo "vec_gate: FAIL: $f does not compile to assembly with $fflags" >&2
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
