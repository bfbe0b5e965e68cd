#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py --tiny, untraced and
traced, twice each, and parses the command's own output. It fails unless
every run is correct, every metric BENCHMARK.json names appears with its
unit, and the exact counts (and the deterministic total cost) repeat
across the two invocations.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["churn.flows_p50", "dp.solves", "sim.shard_resolves",
         "sim.shard_holds", "policy.calls", "stroll.tables",
         "fault.topology_changes"]


def run(workload, trace, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}\n{proc.stdout}")
    return json.loads(lines[-1])


def check_shape(result, spec, where):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, \
        f"{where}: metric names {sorted(metrics)}"
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(got["value"], (int, float)), where


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            first, second = (run(name, trace, seed=3) for _ in range(2))
            for i, r in enumerate((first, second)):
                check_shape(r, spec, f"{name} trace={trace} run {i}")
            keys = EXACT if trace else ["total_cost"]
            for k in keys:
                a = first["metrics"][k]["value"]
                b = second["metrics"][k]["value"]
                assert a == b, f"{name}: {k} differs across runs ({a} vs {b})"
        print(f"ok: {name}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
