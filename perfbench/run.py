#!/usr/bin/env python3
"""Builds and runs the request-level routing benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (the routing library from src/ plus route_bench.cpp) into
.bench_build/perfbench; later calls only re-check the build. The output of
route_bench is relayed to stdout, a record with host metadata is written to
.bench_build/records/, and the last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names and units are checked against BENCHMARK.json. Exits
nonzero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RECORD_DIR = os.path.join(ROOT, ".bench_build", "records")
BINARY = os.path.join(BUILD_DIR, "route_bench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-spin-us", type=float, default=0.0,
                    help="busy-wait added to every route() call (self-test)")
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--plant-spin-us", repr(args.plant_spin_us)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a result object: {lines[-1]!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")

    meta = {}
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        else:
            print(line)
    meta["git_describe"] = git_describe()
    os.makedirs(RECORD_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RECORD_DIR, name), "w") as f:
        json.dump({"schema": "perfbench-record-v1", "args": vars(args),
                   "host": meta, "log": lines[:-1], "result": result}, f,
                  indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
