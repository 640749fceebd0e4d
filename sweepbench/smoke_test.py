#!/usr/bin/env python3
"""Smoke test of the sweepbench benchmark.

Run from the root of a checkout:

    python3 sweepbench/smoke_test.py

Builds the benchmark like run.py does, then runs every workload at its
smallest input size (--smoke: two passes, one setup before each) and
checks that

  * no simulation fails and the result says correct,
  * two runs with one seed print the same simulated-statistics digest,
  * a second seed also runs clean,
  * a traced run reports every per-layer metric and writes its trace,
  * a behaviour knob in the environment makes the benchmark refuse to run.

Prints "sweepbench smoke ok" and exits 0 on success.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    PER_LAYER = [m["name"] for m in json.load(f)["per_layer"]]


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def digest_field(line, key):
    return dict(t.split("=", 1) for t in line.split()[2:])[key]


def smoke(binary, workload, seed, trace=0):
    code, out = run.run_bench(binary, run.bench_args(
        workload, seed, 1, trace, ["--smoke"]))
    check(code == 0, f"{workload} seed {seed}: benchmark exited {code}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0,
          f"{workload} seed {seed}: {result['failed']} of "
          f"{result['attempted']} simulations failed")
    digest = [l for l in lines if l.startswith("# digest ")]
    check(len(digest) == 1, f"{workload}: no digest line")
    return result, digest[0]


def main():
    binary = run.build()
    for workload in run.WORKLOADS:
        _, first = smoke(binary, workload, 1)
        _, again = smoke(binary, workload, 1)
        check(first == again,
              f"{workload}: one seed gave two digests:\n{first}\n{again}")
        _, other = smoke(binary, workload, 2)
        check(digest_field(other, "sweep") != digest_field(first, "sweep"),
              f"{workload}: seed 2 repeated seed 1's simulated statistics")
        print(f"{workload}: {first[2:]}")

    result, _ = smoke(binary, "in-order", 1, trace=1)
    missing = [m for m in PER_LAYER if m not in result["metrics"]]
    check(not missing, f"traced run lacks per-layer metrics {missing}")
    trace_file = os.path.join(run.build_dir(), "trace-in-order-1.json")
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    check(any(e["name"] == "engine.simulate" for e in events),
          "trace file has no engine.simulate span")

    env = dict(os.environ, FGP_VERIFY="1")
    proc = subprocess.run([binary] + run.bench_args(
        "in-order", 1, 1, 0, ["--smoke"]), capture_output=True, text=True,
        env=env)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "benchmark timed a run with FGP_VERIFY set")
    print("sweepbench smoke ok")


if __name__ == "__main__":
    main()
