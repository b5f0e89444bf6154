#!/usr/bin/env python3
"""Planted-slowdown self-test: does the benchmark catch a 10% slower route()?

    python3 perfbench/selftest/planted_slowdown.py [--runs 3] [--seconds S]
                                                   [--workload NAME ...]

For each workload, runs the benchmark --runs times as is, then --runs times
with a busy-wait of 10% of the baseline route_p50_us added inside every
timed route() call (route_bench --plant-spin-us). Seeds differ per run and
are shared by the two arms. A metric flags the slowdown when the planted
median is worse than the baseline median by more than the metric's bound in
BENCHMARK.json. Prints one row per (workload, metric) and exits 1 when the
planted slowdown moves no timing bound on any workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
TIMING = ("route_p50_us", "route_p99_us", "throughput_rps")


def run(workload, seed, seconds, spin_us):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--plant-spin-us", repr(spin_us)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, cwd=ROOT, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: benchmark reported incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    default=None, help="default: every workload")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    flagged_any = False
    print(f"{'workload':26} {'metric':16} {'base':>11} {'planted':>11} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for wl in workloads:
        seeds = range(101, 101 + args.runs)
        base = [run(wl, s, args.seconds, 0.0) for s in seeds]
        spin = 0.1 * statistics.median(b["route_p50_us"] for b in base)
        planted = [run(wl, s, args.seconds, spin) for s in seeds]
        for name in TIMING:
            m = metrics[name]
            b = statistics.median(r[name] for r in base)
            p = statistics.median(r[name] for r in planted)
            worse = (p - b) / b if m["better"] == "lower" else (b - p) / b
            flagged = worse > m["bound"]
            flagged_any |= flagged
            print(f"{wl:26} {name:16} {b:11.4g} {p:11.4g} {worse:9.3f} "
                  f"{m['bound']:6.2f}  {'FLAGGED' if flagged else 'missed'}")
        print(f"{wl:26} planted spin {spin:.1f} us per route() call")
    sys.exit(0 if flagged_any else 1)


if __name__ == "__main__":
    main()
