#!/usr/bin/env bash
# Static-analysis gate for ppdc. Designed to run anywhere from a bare
# toolchain container to a full dev box: every stage that needs an
# optional tool (clang-tidy, clang-format) reports SKIPPED when the tool
# is absent instead of failing, while the stages that only need the
# baked-in g++ always run. Exit status is non-zero only when a stage
# that actually ran found a problem.
#
# Usage: tools/check.sh [--build-dir DIR]
#   --build-dir DIR   where to look for compile_commands.json
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

failures=0

note() { printf '== %s\n' "$*"; }

# ---------------------------------------------------------------------------
# Stage 1: header self-containment (always runs; needs only g++).
# Every header must compile as its own translation unit — missing
# includes surface here rather than as mysterious breakage when a
# consumer reorders its include list.
# ---------------------------------------------------------------------------
note "headers: g++ -fsyntax-only self-containment"
header_failures=0
wrapper=$(mktemp --suffix=.cpp)
trap 'rm -f "$wrapper"' EXIT
while IFS= read -r header; do
  # Compiling the header directly would warn about '#pragma once in main
  # file'; include it from a throwaway TU instead.
  printf '#include "%s"\n' "$header" > "$wrapper"
  if ! g++ -std=c++20 -fsyntax-only -Wall -Wextra -Wpedantic -Werror \
       -I. -Isrc "$wrapper"; then
    echo "   FAIL: $header is not self-contained" >&2
    header_failures=$((header_failures + 1))
  fi
done < <(find src -name '*.hpp' | sort)
if [ "$header_failures" -eq 0 ]; then
  echo "   OK: all src headers compile standalone"
else
  failures=$((failures + 1))
fi

# ---------------------------------------------------------------------------
# Stage 2: clang-format (optional tool).
# ---------------------------------------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  note "clang-format: --dry-run -Werror"
  # lint_corpus fixtures are deliberately malformed — not style targets.
  if find src tests bench examples \
       -path '*/lint_corpus/*' -prune -o \
       \( -name '*.hpp' -o -name '*.cpp' \) -print0 2>/dev/null |
     xargs -0 clang-format --dry-run -Werror; then
    echo "   OK"
  else
    failures=$((failures + 1))
  fi
else
  note "clang-format: SKIPPED (not installed)"
fi

# ---------------------------------------------------------------------------
# Stage 3: clang-tidy (optional tool; needs compile_commands.json).
# ---------------------------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    note "clang-tidy: checks from .clang-tidy over src/"
    if find src -name '*.cpp' -print0 | sort -z |
       xargs -0 clang-tidy -p "$BUILD_DIR" --quiet; then
      echo "   OK"
    else
      failures=$((failures + 1))
    fi
  else
    note "clang-tidy: SKIPPED (no $BUILD_DIR/compile_commands.json —" \
         "configure with cmake --preset default first)"
  fi
else
  note "clang-tidy: SKIPPED (not installed)"
fi

# ---------------------------------------------------------------------------
# Stage 4: ppdc_lint — determinism / domain / include-hygiene rules
# (needs the default build: tools/lint/ppdc_lint). The former stage-4
# grep ban (mutable std::vector<MigrationPolicy*>) lives on as the
# `policy-prototype-const` rule and the former stage-4b grep ban
# (system_clock) as `steady-clock-only`; the ban list now has one home —
# the rule registry (DESIGN.md §13) — and the token-level scans no
# longer misfire on comments or string literals the way the greps did.
# Inline `// ppdc-lint: allow(rule reason)` suppressions and the
# committed baseline (tools/lint/ppdc_lint.baseline) are honoured.
# ---------------------------------------------------------------------------
LINT_BIN=$BUILD_DIR/tools/lint/ppdc_lint
if [ -x "$LINT_BIN" ]; then
  note "ppdc_lint: $LINT_BIN"
  if "$LINT_BIN"; then
    echo "   OK: no findings outside the committed baseline"
  else
    echo "   FAIL: ppdc_lint found rule violations (fix, suppress with" \
         "'// ppdc-lint: allow(rule reason)', or baseline)" >&2
    failures=$((failures + 1))
  fi
else
  note "ppdc_lint: SKIPPED (no $LINT_BIN — build the default preset first)"
fi

# ---------------------------------------------------------------------------
# Stage 4b: vectorization gate over the flat kernels (needs only g++;
# SKIPs on non-GNU toolchains and non-x86-64 targets). Compiles the
# `// ppdc-vec:`-tagged loops (stroll_dp.cpp: the level-relax column
# pass; cost_model.cpp: the attraction pass and the one- and two-term
# churn row patches) with the library's Release flags, no -march, and
# fails if any of them stops being reported as "loop vectorized".
# level-relax must report 32-byte vectors: its runtime-dispatched
# x86-64-v3 clone. The source-row argmin is written
# in generic vectors, which -fopt-info does not report; its `// ppdc-ymm:`
# pin requires packed ymm compares in the x86-64-v3 clone's assembly.
# ---------------------------------------------------------------------------
note "vec gate: tools/vec_gate.sh"
tools/vec_gate.sh
vec_rc=$?
if [ "$vec_rc" -eq 0 ]; then
  echo "   OK: all pinned kernel loops vectorize"
elif [ "$vec_rc" -eq 77 ]; then
  note "vec gate: SKIPPED (toolchain cannot run the -fopt-info probe)"
else
  echo "   FAIL: a pinned kernel loop no longer vectorizes" >&2
  failures=$((failures + 1))
fi

# ---------------------------------------------------------------------------
# Stage 5: ThreadSanitizer over the executor and everything that runs on
# it (optional; needs the tsan preset built: cmake --preset tsan &&
# cmake --build --preset tsan): the executor itself, the experiment job
# pool, the sharded engine's shard pool (epoch-journal resumes included:
# a replay drives the same pool), the parallel APSP and cost-model
# rescans the kernel suite builds at full width, the per-shard churn
# apply (routed on one thread, then applied and drained by each shard's
# own epoch task, or by apply_churn's tasks, in any order), the grouped
# build's one (model, switch block) grid over every shard, the stroll
# levels that warm and cold tables on many threads extend while others
# read them (a warm table builds level r for its readout), and the hop
# APSP build, whose 64-source stripes write disjoint columns of one block
# concurrently (apsp_leaf_test builds it serially and at full width).
# ---------------------------------------------------------------------------
for t in executor_test experiment_parallel_test sharded_equivalence_test \
         checkpoint_test kernel_equivalence_test incremental_refresh_test \
         stroll_dp_test apsp_leaf_test; do
  TSAN_RUNNER=build-tsan/tests/$t
  if [ -x "$TSAN_RUNNER" ]; then
    note "tsan: $TSAN_RUNNER"
    if "$TSAN_RUNNER" >/dev/null; then
      echo "   OK: $t is race-free under TSan"
    else
      echo "   FAIL: TSan flagged $t" >&2
      failures=$((failures + 1))
    fi
  else
    note "tsan: SKIPPED (no $TSAN_RUNNER — build the tsan preset first)"
  fi
done

# The sharded streaming loop solves shards concurrently on its own worker
# pool (sim/sharded.cpp); re-run the scale_smoke scenario instrumented so
# the per-shard phase / fixed-order merge handoffs are TSan-checked too.
TSAN_SCALE=build-tsan/bench/bench_scale
if [ -x "$TSAN_SCALE" ]; then
  note "tsan: $TSAN_SCALE --smoke"
  if "$TSAN_SCALE" --smoke >/dev/null; then
    echo "   OK: sharded epoch loop is race-free under TSan"
  else
    echo "   FAIL: TSan flagged the sharded epoch loop" >&2
    failures=$((failures + 1))
  fi
else
  note "tsan: SKIPPED (no $TSAN_SCALE — build the tsan preset first)"
fi

# ---------------------------------------------------------------------------
# Stage 6: kill-resume smokes under the sanitizers (optional; needs the
# sanitize preset built: cmake --preset sanitize && cmake --build --preset
# sanitize). The default build already runs tools/smoke_resume.sh and
# tools/smoke_resume_sharded.sh as the tier1 resume_smoke and
# resume_sharded_smoke CTests; this stage repeats them instrumented, so
# the cell journals' crash/resume paths (raw POSIX I/O, _Exit mid-cell,
# replay of journaled answers) are also exercised under AddressSanitizer
# + UBSan — monolithic cells through bench_ablation_replication, sharded
# cells through the chaos soak, the latter under TSan too.
# ---------------------------------------------------------------------------
ASAN_BENCH=build-asan/bench/bench_ablation_replication
if [ -x "$ASAN_BENCH" ]; then
  note "resume smoke (asan): tools/smoke_resume.sh --build-dir build-asan"
  if tools/smoke_resume.sh --build-dir build-asan > /dev/null; then
    echo "   OK: kill-resume round trip is clean under ASan"
  else
    echo "   FAIL: checkpoint kill-resume smoke failed under ASan" >&2
    failures=$((failures + 1))
  fi
else
  note "resume smoke (asan): SKIPPED (no $ASAN_BENCH — build the" \
       "sanitize preset first)"
fi

for resume_build in build-asan build-tsan; do
  RESUME_BIN=$resume_build/bench/bench_chaos
  if [ -x "$RESUME_BIN" ]; then
    note "sharded resume smoke ($resume_build): tools/smoke_resume_sharded.sh"
    if tools/smoke_resume_sharded.sh --build-dir "$resume_build" > /dev/null; then
      echo "   OK: sharded-cell kill-resume is clean under $resume_build"
    else
      echo "   FAIL: sharded kill-resume smoke failed under $resume_build" >&2
      failures=$((failures + 1))
    fi
  else
    note "sharded resume smoke ($resume_build): SKIPPED (no $RESUME_BIN —" \
         "build that preset first)"
  fi
done

# ---------------------------------------------------------------------------
# Stage 6b: the APSP, stroll DP, chain search, fault, assignment,
# churn-patch, epoch-journal, streaming-workload and generator suites
# under ASan + UBSan (optional; needs the sanitize preset built). The
# AllPairs build indexes a core-only adjacency; its hop kernel scatters
# each 64-source stripe's distances into that stripe's columns of every
# row, and its weighted kernel writes each source's row, through raw
# pointers, on masked fabrics too; path() walks parent chains of an
# early-exit search over the same adjacency (apsp_leaf_test). The
# stroll DP reads the fabric's AllPairs core through raw row and column
# pointers, masked by a restricted (degraded) universe. Its source-row
# argmin reads four rows per step through unaligned copies and runs the
# last partial step on a padded copy, so no load reads past a row's end;
# the find scratch is reused across queries. Its level kernel relaxes 4
# to 16 rows a step with a scalar tail, into slabs that later tables on
# the thread reuse unzeroed (kernel_equivalence_test's
# LevelsMatchScalarRecurrence). The fault suite drives the degraded
# fabrics that produce those masks. The assignment solver walks each
# augmenting path back through labels that only its current early-exit
# Dijkstra set, and relinks per-host intrusive VM lists as it goes; the
# VM-migration baselines drive it. The exact chain search (TOP, TOM and
# multi-SFC) reads flat s×s distance and order matrices through raw row
# pointers. The queued churn patches are drained later than they were
# queued, into base rows that may have grown meanwhile, and read the
# AllPairs core rows and columns (a hop metric's rows, a weighted
# metric's transposed copy) through raw pointers
# (incremental_refresh_test). Routed churn events carry the local slots
# they touch, and each shard applies them into vectors the router grew
# for it (incremental_refresh_test, and sharded_equivalence_test through
# the engine, VM moves included). The epoch-journal codec appends raw field
# bytes and reads them back through a bounds-checked cursor with raw
# memcpy, from frames whose length and CRC come off the disk
# (checkpoint_test). The streaming workload's churn draw computes
# re-spawned and appended slot ids from its free list by arithmetic, and
# its commit writes flows through them (streaming_test); rng_test pins
# the inline generator the draw runs on. masked_copy builds a degraded
# graph's neighbour lists straight into its private storage, and the
# AllPairs summary scans fold each block row into per-column lanes
# through raw pointers (masked_copy_test). Algorithm 3's pair loop walks
# its ingress candidates through a sorted index permutation and stops
# rows early (pair_loop_test).
# ---------------------------------------------------------------------------
for t in apsp_leaf_test stroll_dp_test kernel_equivalence_test \
         placement_test fault_test assignment_test vm_migration_test \
         chain_search_test multi_sfc_test incremental_refresh_test \
         sharded_equivalence_test checkpoint_test streaming_test rng_test \
         masked_copy_test pair_loop_test; do
  ASAN_RUNNER=build-asan/tests/$t
  if [ -x "$ASAN_RUNNER" ]; then
    note "asan: $ASAN_RUNNER"
    if "$ASAN_RUNNER" >/dev/null; then
      echo "   OK: $t is clean under ASan+UBSan"
    else
      echo "   FAIL: ASan+UBSan flagged $t" >&2
      failures=$((failures + 1))
    fi
  else
    note "asan: SKIPPED (no $ASAN_RUNNER — build the sanitize preset first)"
  fi
done

# ---------------------------------------------------------------------------
# Stage 7: BENCH_*.json perf-trajectory gate (optional; needs the bench
# preset built plus committed baselines in bench/baselines/). Runs the
# pinned micro-kernel scenarios in smoke mode and rejects >tolerance
# best_ns regressions, output-checksum drift, and build-metadata
# mismatches against the committed artifacts. bench_gate.sh exits 77
# when an ingredient is missing (same SKIPPED degradation as the
# sanitizer stages).
# ---------------------------------------------------------------------------
note "bench gate: tools/bench_gate.sh"
tools/bench_gate.sh
gate_rc=$?
if [ "$gate_rc" -eq 0 ]; then
  echo "   OK: pinned kernels within tolerance of committed baselines"
elif [ "$gate_rc" -eq 77 ]; then
  note "bench gate: SKIPPED (build the bench preset first)"
else
  echo "   FAIL: perf gate flagged a regression or incomparable baseline" >&2
  failures=$((failures + 1))
fi

# ---------------------------------------------------------------------------
# Stage 8: chaos soak under the sanitizers (optional; needs the sanitize
# and/or tsan presets built). The default build already runs bench_chaos
# --smoke as the tier1 chaos_smoke CTest; this stage repeats the full
# fault-domain sweep — degradation ladder plus per-epoch invariant
# auditing — instrumented, so the fault/recovery/ladder code paths are
# exercised under ASan+UBSan and TSan too. Any audit violation exits
# nonzero and fails the stage.
# ---------------------------------------------------------------------------
for chaos_build in build-asan build-tsan; do
  CHAOS_BIN=$chaos_build/bench/bench_chaos
  if [ -x "$CHAOS_BIN" ]; then
    note "chaos soak ($chaos_build): $CHAOS_BIN --smoke"
    if "$CHAOS_BIN" --smoke > /dev/null; then
      echo "   OK: chaos soak clean (0 audit violations) under $chaos_build"
    else
      echo "   FAIL: chaos soak failed under $chaos_build" >&2
      failures=$((failures + 1))
    fi
    note "chaos soak ($chaos_build): $CHAOS_BIN --smoke --sharded"
    if "$CHAOS_BIN" --smoke --sharded > /dev/null; then
      echo "   OK: sharded chaos soak clean under $chaos_build"
    else
      echo "   FAIL: sharded chaos soak failed under $chaos_build" >&2
      failures=$((failures + 1))
    fi
  else
    note "chaos soak ($chaos_build): SKIPPED (no $CHAOS_BIN — build that" \
         "preset first)"
  fi
done

# ---------------------------------------------------------------------------
if [ "$failures" -eq 0 ]; then
  note "check.sh: all executed stages passed"
  exit 0
fi
note "check.sh: $failures stage(s) failed"
exit 1
