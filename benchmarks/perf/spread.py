"""Run-to-run spread of the end-to-end metrics, the data the bounds rest on.

    python3 benchmarks/perf/spread.py [--runs 10] [--first-seed 100] [-o F] [W ...]

Runs ``run.py --workload W --seed N --seconds <run_seconds> --trace 0``
``--runs`` times per workload (all five by default), each with another
seed, one after another.  For each end-to-end metric it prints the
median of the runs and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) over the median.
A bound in BENCHMARK.json should be at least three times the spread.
``-o`` keeps every run's values with the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, load_spec
from suite import WORKLOADS


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="W",
                    help="workloads to run (default: all five)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("-o", "--output", help="write every run's values as JSON")
    args = ap.parse_args(argv)
    names = args.workloads or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name}")
    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    worst = 0
    for name in names:
        values = {metric: [] for metric in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                return 1
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        summary = {}
        for metric, vals in values.items():
            med, s = statistics.median(vals), spread(vals)
            summary[metric] = {"median": med, "spread": s, "values": vals}
            ok = s < bounds[metric] / 3
            worst += not ok
            print(f"{name:<14s} {metric:<16s} median {med:9.5g}"
                  f"  spread {s:6.2%}  bound {bounds[metric]:4.0%}"
                  f"  {'ok' if ok else 'over a third of the bound'}",
                  flush=True)
        doc["workloads"][name] = summary
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 1 if worst else 0


if __name__ == "__main__":
    raise SystemExit(main())
