#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload (or the ones named) --runs times, each time with
another seed, and prints for every end-to-end metric the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound. With --overhead it also
runs the traced run on the same seeds and prints the tracing overhead
(the traced end-to-end medians against the untraced ones) and the
median of every per-layer metric.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload replay_large --overhead
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

TRACED = re.compile(r"^traced end-to-end (\S+) = (\S+) (\S+)$")


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    traced = {}
    for line in proc.stderr.splitlines():
        m = TRACED.match(line)
        if m:
            traced[m.group(1)] = float(m.group(2))
    return result, traced, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        traced = {name: [] for name in bounds}
        layers = {}
        shares = set()
        for i in range(args.runs):
            seed = args.seed_base + i
            result, _, wall = run_once(bench["command"], workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            shares.add((result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s wall, attempted {result['attempted']}"
                  f" failed {result['failed']}", flush=True)
            if args.overhead:
                layered, t, _ = run_once(bench["command"], workload, seed, seconds, 1)
                for name in bounds:
                    traced[name].append(t[name])
                for name, m in layered["metrics"].items():
                    layers.setdefault(name, (m["unit"], []))[1].append(m["value"])
        ratios = sorted({f / a for f, a in shares})
        print(f"\n{workload}: failed share {ratios}")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            med, q1, q3, s = spread(values[name])
            flag = "" if s <= bound / 3 else "  <-- above a third of the bound"
            if s > bound:
                flag = "  <-- ABOVE THE BOUND"
            worst = max(worst, s / bound)
            print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {bound:>6}{flag}")
            if args.overhead:
                t = statistics.median(traced[name])
                print(f"  {'':<18} traced median {t:.6g}: overhead {t / med - 1:+.2%}")
        for name, (unit, vals) in layers.items():
            print(f"  {name:<34} {statistics.median(vals):>12.6g} {unit}")
        print(flush=True)
    print(f"largest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
