#!/usr/bin/env python3
"""Build spicebench from source and run it.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --check [--workload NAME]
    python3 benchmark/run.py --workload NAME --runs N [--seed N] [--seconds S]
    python3 benchmark/run.py --workload serve_open --capacity [--runs N]

The first call configures and compiles the runtime (src/) together with the
benchmark into .bench_build/spicebench under the repository root; later
calls rebuild only what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result.

--runs N runs the workload N times with seeds --seed, --seed + 1, ... and
prints each metric's median, quartiles and spread (interquartile range
over median), the figures the bounds in BENCHMARK.json are set from.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "spicebench")
BINARY = os.path.join(BUILD_DIR, "spicebench")
WORKLOADS = ["paper_ro", "conflict_rw", "submit_storm", "serve_open"]
# One run must end within 180 s; stop it a little earlier.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("spicebench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "SpiceRuntime.h")):
        fail("the runtime sources (src/) are missing next to benchmark/")
    if not shutil.which("cmake"):
        fail("cmake is required to build the benchmark")
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_binary(args, capture):
    env = dict(os.environ, SPICEBENCH_GIT_SHA=git_sha())
    try:
        return subprocess.run([BINARY] + args, env=env, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)), 1)


def binary_args(opts, seed):
    args = ["--workload", opts.workload, "--seed", str(seed),
            "--seconds", str(opts.seconds)]
    if opts.capacity:
        return args + ["--capacity"]
    args += ["--trace", str(opts.trace)]
    if opts.trace:
        out = opts.trace_out or os.path.join(
            ROOT, ".bench_build", "traces", "%s-seed%d.json" % (opts.workload, seed))
        args += ["--trace-out", out]
    return args


def parse_metrics(stdout, capacity):
    """The metrics of one run: the JSON result line, or the capacity lines."""
    lines = stdout.strip().splitlines()
    if capacity:
        metrics = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "metric":
                metrics[parts[1]] = float(parts[2])
        return True, metrics
    result = json.loads(lines[-1])
    return result["correct"] and result["failed"] == 0, {
        name: m["value"] for name, m in result["metrics"].items()}


def calibrate(opts):
    """--runs: N runs with consecutive seeds, then the spread of each metric."""
    per_metric = {}
    all_ok = True
    for i in range(opts.runs):
        seed = opts.seed + i
        done = run_binary(binary_args(opts, seed), capture=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("run with seed %d exited with %d" % (seed, done.returncode), 1)
        ok, metrics = parse_metrics(done.stdout, opts.capacity)
        all_ok &= ok
        print("seed %d %s %s" % (seed, "ok" if ok else "FAILED",
                                 " ".join("%s=%.6g" % kv for kv in metrics.items())))
        sys.stdout.flush()
        for name, value in metrics.items():
            per_metric.setdefault(name, []).append(value)
    summary = {}
    print("%-32s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name, values in per_metric.items():
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print("%-32s %12.6g %12.6g %12.6g %7.2f%%" % (name, med, q1, q3, 100 * spread))
    print(json.dumps({"workload": opts.workload, "runs": opts.runs,
                      "seconds": opts.seconds, "correct": all_ok,
                      "metrics": summary}))
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--check", action="store_true",
                        help="oracle-check a few hundred requests per workload")
    parser.add_argument("--capacity", action="store_true",
                        help="serve_open: measure the closed-loop capacity")
    parser.add_argument("--runs", type=int, default=0,
                        help="run N seeds and print each metric's spread")
    opts = parser.parse_args()
    if opts.seconds == int(opts.seconds):
        opts.seconds = int(opts.seconds)

    if opts.check:
        build()
        args = ["--check"] + (["--workload", opts.workload] if opts.workload else [])
        return run_binary(args, capture=False).returncode
    if not opts.workload:
        parser.error("--workload is required")
    if opts.capacity and opts.workload != "serve_open":
        parser.error("--capacity applies to serve_open only")
    build()
    if opts.runs:
        return calibrate(opts)
    sys.stdout.flush()
    return run_binary(binary_args(opts, opts.seed), capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
