"""Compare two full-run result files of the benchmark.

    python3 benchmarks/perf/compare.py A.json B.json

A and B are ``-o`` files of ``run.py`` (A the parent, B the change).
For each workload and end-to-end metric it prints both medians and
quartiles, B's change as a share of A's median, the metric's bound from
BENCHMARK.json, and a verdict:

* ``improved`` / ``regressed``: the medians differ by more than the
  bound, in the metric's better / worse direction;
* ``within bound``: they differ by no more than the bound;
* ``unresolved``: the spread (quartile distance over median, the wider
  of A's and B's) exceeds the bound, so the medians cannot tell a
  change from noise.  When every round of one side beats every round
  of the other, the shift is real and the two rules above decide.

It then prints every per-layer counter that differs, exactly.  Exit
status is 1 when any verdict is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json

from run import load_spec, quartiles
from suite import COUNTERS


def samples_of(record: dict, metric: str) -> list:
    """The metric's value in each round of a workload run."""
    return [rnd[metric] for rnd in record["rounds"]]


def verdict(a: list, b: list, bound: float, better: str) -> tuple:
    """(verdict, change as a share of A's median, spread)."""
    a25, a50, a75 = quartiles(a)
    b25, b50, b75 = quartiles(b)
    change = (b50 - a50) / a50
    spread = max((a75 - a25) / a50, (b75 - b25) / b50)
    # Flip higher-is-better metrics so that lower is better below.
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * change
    if spread > bound:
        fa = [sign * v for v in a]
        fb = [sign * v for v in b]
        separated = max(fb) < min(fa) or min(fb) > max(fa)
        if not separated:
            return "unresolved", change, spread
    if worse > bound:
        return "regressed", change, spread
    if worse < -bound:
        return "improved", change, spread
    return "within bound", change, spread


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="parent run (run.py -o file)")
    ap.add_argument("b", help="changed run (run.py -o file)")
    args = ap.parse_args(argv)
    with open(args.a) as fh:
        doc_a = json.load(fh)
    with open(args.b) as fh:
        doc_b = json.load(fh)
    spec = load_spec()

    bad = 0
    print(f"{'workload':<14s} {'metric':<12s} {'A p25/p50/p75':>30s} "
          f"{'B p25/p50/p75':>30s} {'change':>8s} {'bound':>6s} "
          f"{'spread':>7s}  verdict")
    for name, rec_a in doc_a["workloads"].items():
        rec_b = doc_b["workloads"].get(name)
        if rec_b is None:
            print(f"{name:<14s} missing from {args.b}")
            bad += 1
            continue
        for m in spec["end_to_end"]:
            a = samples_of(rec_a, m["name"])
            b = samples_of(rec_b, m["name"])
            what, change, spread = verdict(a, b, m["bound"], m["better"])
            bad += what in ("regressed", "unresolved")
            qa = "/".join(f"{v:.4g}" for v in quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{name:<14s} {m['name']:<12s} {qa:>30s} {qb:>30s} "
                  f"{change:>+8.2%} {m['bound']:>6.0%} {spread:>7.2%}  "
                  f"{what}")

    for name, rec_a in doc_a["workloads"].items():
        rec_b = doc_b["workloads"].get(name)
        if rec_b is None or rec_a["per_layer"] is None or (
            rec_b["per_layer"] is None
        ):
            continue
        diffs = [
            (c, rec_a["per_layer"][c], rec_b["per_layer"][c])
            for c in COUNTERS
            if rec_a["per_layer"][c] != rec_b["per_layer"][c]
        ]
        if not diffs:
            print(f"{name}: counters identical")
        for c, va, vb in diffs:
            print(f"{name}: {c} {va} -> {vb} ({vb - va:+})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
