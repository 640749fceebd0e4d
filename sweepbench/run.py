#!/usr/bin/env python3
"""Build and run the fgpsim host-cost benchmark.

Run from the root of a checkout:

    python3 sweepbench/run.py --workload wide-window --seed 1 --seconds 30 --trace 0

The first run configures and builds the simulator libraries from ``src/``
together with the benchmark program (Release) under ``$CARGO_TARGET_DIR/sweepbench``,
default ``.bench_build/sweepbench``; later runs rebuild incrementally. The
program's stdout is passed through; its last line is the JSON result. A
traced run also writes its spans as Chrome trace-event JSON to
``<build dir>/trace-<workload>-<seed>.json``.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide-window", "in-order", "paper-grid")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"sweepbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "sweepbench")


def run_logged(cmd, what):
    """Run a build step; show its output only when it fails."""
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=dict(os.environ, TMPDIR=tmp))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    """Configure once, then build incrementally; returns the program path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_logged(["cmake", "--build", out, "--target", "sweepbench",
                "-j", "2"], "build")
    return os.path.join(out, "sweepbench")


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                           "--dirty"], capture_output=True, text=True,
                          env=env)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_bench(binary, args):
    """Run the benchmark program to completion; returns (exit code, stdout)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, out


def bench_args(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--git", git_describe()]
    if trace:
        args += ["--trace-out", os.path.join(
            build_dir(), f"trace-{workload}-{seed}.json")]
    return args + list(extra)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    code, out = run_bench(binary, bench_args(
        opts.workload, opts.seed, opts.seconds, opts.trace))
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail(f"benchmark exited with {code}", code)


if __name__ == "__main__":
    main()
