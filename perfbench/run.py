#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark; prints one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_window --seed 1 --seconds 40 --trace 0

The first call configures and builds the library sources under src/ plus
perfbench/pipeline_bench.cpp into .bench_build/perfbench, then simulates the
paper trace into the benchmark's trace cache (a few minutes in all); later
calls only re-check both. The measured run is single-threaded
(REPRO_THREADS=1) so that figures do not depend on the machine's core count.
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones; see perfbench/pipeline_bench.cpp for what each workload does.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("train_window", "score_hourly")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BENCH_BIN = os.path.join(BUILD_DIR, "pipeline_bench")
# A measured run must end within 180 s; the first call of a checkout, which
# builds and fills the trace cache, is allowed 900 s.
RUN_TIMEOUT_S = 170.0
PREPARE_TIMEOUT_S = 700.0
PARALLEL_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out: {' '.join(cmd)}")
    return proc.returncode, out


def prepare():
    """Builds the benchmark and fills the paper-trace cache (once each)."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no library sources under src/: run from the root of a checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    deadline = time.monotonic() + PREPARE_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", PARALLEL_JOBS])
    steps.append([BENCH_BIN, "--prepare"])
    # The simulator gives the same trace at any thread count.
    env = dict(os.environ, REPRO_THREADS=PARALLEL_JOBS)
    # One preparation at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD_DIR, "prepare.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            code, _ = run(cmd, deadline - time.monotonic(), env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
            if code != 0:
                fail(f"failed ({code}): {' '.join(cmd)}")


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or \
                not isinstance(metric["value"], (int, float)):
            raise ValueError(f"malformed metric {name}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    prepare()
    env = dict(os.environ, REPRO_THREADS="1")
    for var in ("REPRO_TRACE", "REPRO_AUDIT"):
        env.pop(var, None)
    cmd = [BENCH_BIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE,
                    stderr=sys.stderr, text=True)
    if code != 0:
        fail(f"{BENCH_BIN} exited with {code}")
    lines = out.strip().splitlines()
    try:
        result = check_result(lines[-1] if lines else "")
    except ValueError as e:
        fail(f"{BENCH_BIN} printed no valid result: {e}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
