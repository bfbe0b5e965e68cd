#!/usr/bin/env python3
"""End-to-end benchmark of the dynamic placement loop.

    python3 perfbench/run.py --workload shard_resolve --seed 1 --seconds 10 --trace 0

Builds the library and the harness from this checkout (Release, into
$CARGO_TARGET_DIR or .bench_build), pins the thread settings of the
workload, runs it, and passes its output through: the last line of stdout
is the result object. Build output goes to stderr. Exits nonzero, without a
result, when the build fails or the checkout lacks the library sources.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# OpenMP threads per workload. The sharded workloads run OpenMP only on the
# main thread during set-up (APSP, cost-model builds); their shard workers
# never enter an OpenMP region on a pristine fabric. fig11_faults job
# workers do (degraded APSPs, full refreshes), so OpenMP is pinned to one
# thread there and the harness's 4-worker pool alone fills the 4 cores.
OMP_THREADS = {"shard_resolve": "4", "churn_hold": "4", "fig11_faults": "1"}
BUILD_JOBS = 4


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(BUILD_JOBS)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OMP_THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: the same code path in seconds")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = OMP_THREADS[args.workload]
    env["OMP_WAIT_POLICY"] = "PASSIVE"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
