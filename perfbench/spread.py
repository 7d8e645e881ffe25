#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (IQR / median), next to its bound.

    python3 perfbench/spread.py --workloads plan-grid serve-mixed --seeds 1 2 3 4 5

Run from the repository root. Every metric's spread is printed next to its
bound, and any spread above a third of its bound is marked, `setup_s`
included. The script only reports: it exits 0 once every run has passed its
output checks, whatever the spreads.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return result["metrics"]


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write every measured value here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            metrics = run(spec["command"], workload, seed, args.seconds, 0)
            for name in bounds:
                values[name].append(metrics[name]["value"])
        record[workload] = values
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = "  <-- above bound/3" if spread > bounds[name] / 3 else ""
            print(f"  {name:<16} median {median:<14.6g} spread {spread:7.4f}"
                  f"  bound {bounds[name]}{flag}")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(record, out, indent=1)


if __name__ == "__main__":
    main()
