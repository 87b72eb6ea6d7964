#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on each workload (tracing off) and prints,
per metric, the median, the quartiles and the spread: the distance between the
first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them. The spread is compared with the
metric's bound in BENCHMARK.json; a steady metric stays below a third of it.
Run from the root of a source tree:

    python3 perfbench/spread.py --seeds 10 [--workloads hot_read,worldset_read]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.seeds + 1):
            out = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: run failed (exit {out.returncode})\n"
                      f"{out.stdout}{out.stderr[-2000:]}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.seeds} seeds, {args.seconds:g} s each)")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            limit = bounds[name] / 3
            ok = spread < limit
            steady = steady and ok
            print(f"  {name:14s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}  (limit {limit:6.2%}){'' if ok else '  UNSTEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
