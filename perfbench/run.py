#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload solve|serve|enumerate --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/; later
runs reuse that build. Each workload runs in its own process, so its peak
memory is its own. The child's log is relayed; the last line is the result
object, with each metric's unit taken from BENCHMARK.json. With --trace 1 the spans are written to
.bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run measures for --seconds; set-up, input generation and checks come on
# top. Beyond this the run is abandoned as hung.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(command, timeout, **kwargs):
    """Runs `command` in its own process group and returns (exit code,
    stdout). If it outlives `timeout` seconds the whole group is killed and
    reaped, and TimeoutExpired is raised."""
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          start_new_session=True, **kwargs) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    return child.returncode, out


def build():
    if not (os.path.isdir("src")
            and os.path.isfile("perfbench/CMakeLists.txt")):
        fail("run from the root of a checkout that has src/ and perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            code, out = run(step, max(1, deadline - time.monotonic()),
                            stderr=subprocess.STDOUT)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail(f"build step {' '.join(step)} exited {code}")


def metric_units(trace):
    """Name -> unit of every metric a run reports, in the order of
    BENCHMARK.json, the one place metrics are named."""
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["solve", "serve", "enumerate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        code, out = run(command, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} exited {code} without a result")
    units = metric_units(args.trace)
    values = result["metrics"]
    unknown = sorted(set(values) - set(units))
    # Every workload measures every end-to-end metric; a per-layer metric of
    # a layer the workload never calls is not reported and reads 0.
    missing = [] if args.trace else sorted(set(units) - set(values))
    if unknown or missing:
        fail(f"metrics not in BENCHMARK.json {unknown}, missing {missing}")
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
