"""Layer-by-layer host-time benchmark of the compiler and the simulator.

One workload (the form a regression gate runs)::

    python3 benchmarks/perf/run.py --workload mm-vbus --seed 0 \\
        --seconds 15 --trace 0

All five workloads, with the per-layer table (a full run)::

    PYTHONPATH=src python -m benchmarks.perf [--seed N] [--quick] [-o out.json]

A workload run is a closed loop with one client: ``ROUNDS`` fresh worker
processes (``worker.py``), one after another, each between fresh
interpreters that only import and build inputs (the set-up probes).
Nothing runs in parallel, so one core is busy at a time.  Each round
yields one value per end-to-end metric; the run reports their median.
Rep and set-up times are best-of-round seconds normalized to the host's
current speed (``hostspeed.py``); the raw median and quartiles of every
rep are printed alongside.

The run prints each metric by name with its unit, checks every output,
and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
of the last round's traced and counting reps (``--trace 1``, the
default).  It exits non-zero when any rep failed.  ``--pin`` re-derives
the pinned outputs in ``expect.json`` instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import hostspeed
from suite import (
    QUICK_REPS, ROUNDS, SETUP_PROBES, TIMED_BOUNDARIES, WORKLOADS,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKER = os.path.join(HERE, "worker.py")

#: A worker process taking longer than this is killed.
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A worker process failed outright (no result to report)."""


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _worker(args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        text=True,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker {' '.join(args)} exited with {proc.returncode}"
        )
    return proc


def _worker_json(args) -> dict:
    lines = _worker(args).stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def quartiles(values):
    """(p25, p50, p75), interpolated between samples.

    The ``inclusive`` method keeps quartiles inside the data: of three
    rounds, p25 and p75 lie halfway between the median and the extremes.
    """
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def setup_probe(name) -> tuple:
    """(seconds, reference seconds) of one fresh interpreter that only
    imports and builds inputs, and of the faster of the two start-up
    references around it."""
    before = hostspeed.startup_sample()
    t0 = time.perf_counter()
    _worker(["--workload", name, "--setup-only"])
    seconds = time.perf_counter() - t0
    return seconds, min(before, hostspeed.startup_sample())


def measure_round(name, args) -> tuple:
    """One worker between set-up probes; returns (round values, raw).

    Half the probes run before the worker and half after, seconds
    apart, so a burst of host load rarely covers all of them.  The
    round keeps the probe in the calmest stretch: the reference and the
    probe never slow by quite the same factor, so the least-loaded
    probe needs the smallest correction.
    """
    probes = [setup_probe(name) for _ in range(SETUP_PROBES // 2)]
    raw = _worker_json(args)
    probes += [setup_probe(name) for _ in range(SETUP_PROBES - len(probes))]
    setup, setup_ref = min(probes, key=lambda probe: probe[1])
    values = {
        "setup_s": hostspeed.normalize(
            setup, setup_ref, hostspeed.STARTUP_REF_S),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if raw["samples"]:
        values["rep_s.hostnorm"] = hostspeed.normalize(
            min(raw["samples"]), min(raw["ref"]))
    values["raw"] = {"rep_s": raw["samples"], "rep_ref_s": raw["ref"],
                     "setup_probes": probes}
    return values, raw


def run_workload(name, seed, reps=None, seconds=None, trace=True) -> dict:
    """Measure one workload; the record a full run's ``-o`` file keeps."""
    rounds, raws = [], []
    for r in range(ROUNDS):
        args = ["--workload", name, "--seed", str(seed)]
        if seconds is None:
            args += ["--reps", str(math.ceil(reps / ROUNDS))]
        else:
            args += ["--seconds", str(seconds / ROUNDS)]
        if trace and r == ROUNDS - 1:
            args.append("--trace")
        values, raw = measure_round(name, args)
        rounds.append(values)
        raws.append(raw)

    samples = [s for raw in raws for s in raw["samples"]]
    attempted = sum(raw["attempted"] for raw in raws)
    failed = sum(raw["failed"] for raw in raws)
    record = {
        "n": len(samples),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": [e for raw in raws for e in raw["errors"]][:5],
        "rounds": rounds,
        "end_to_end": {
            metric: statistics.median(rnd[metric] for rnd in rounds)
            for metric in ("rep_s.hostnorm", "setup_s", "peak_rss_mb")
            if all(metric in rnd for rnd in rounds)
        },
        "raw_rep_s": dict(zip(("p25", "p50", "p75"), quartiles(samples)))
        if samples else {},
        "per_layer": None,
    }

    last = raws[-1]
    traced = last["trace"]
    if traced is not None and last["samples"]:
        layer = {f"{k}.self_s": v for k, v in traced["self_s"].items()}
        layer["trace.overhead"] = traced["duration_s"] / min(last["samples"])
        for bname in TIMED_BOUNDARIES:
            layer[f"{bname}.s"] = statistics.median(
                v for raw in raws for v in raw["bounds"][bname])
        for bname, total in traced["spans"].items():
            if bname not in TIMED_BOUNDARIES:
                layer[f"{bname}.s"] = total
        layer.update(traced["counters"])
        record["per_layer"] = layer
        record["trace"] = {
            "duration_s": traced["duration_s"],
            "self_sum_s": traced["self_sum_s"],
            "spans_s": traced["spans"],
            "file": traced["trace_file"],
        }
    return record


def _fmt(value: float, unit: str) -> str:
    if isinstance(value, int):
        return f"{value} {unit}"
    return f"{value:.6g} {unit}"


def print_record(name: str, rec: dict, units: dict) -> None:
    print(f"== {name}: {rec['n']} timed reps in {len(rec['rounds'])} "
          f"rounds, {rec['failed']}/{rec['attempted']} reps failed "
          f"(fail_ratio {rec['fail_ratio']:.3g})")
    for why in rec["errors"]:
        print(f"   FAILED: {why.strip()}")
    for metric, value in rec["end_to_end"].items():
        per_round = ", ".join(
            f"{rnd[metric]:.5g}" for rnd in rec["rounds"])
        print(f"   {metric:<28s} {_fmt(value, units[metric]):<18s}"
              f" rounds: {per_round}")
    if rec["raw_rep_s"]:
        raw = rec["raw_rep_s"]
        print(f"   {'raw rep_s p25/p50/p75':<28s} {raw['p25']:.4g} / "
              f"{raw['p50']:.4g} / {raw['p75']:.4g} s (n={rec['n']}, "
              f"not normalized)")
    layer = rec["per_layer"]
    if layer is None:
        return
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    print(f"   -- traced rep {rec['trace']['duration_s']:.4f} s, "
          f"self times sum {rec['trace']['self_sum_s']:.4f} s; "
          f"spans in {rec['trace']['file']}")
    for metric, value in sorted(
        ((k, v) for k, v in layer.items() if k.endswith(".self_s")),
        key=lambda kv: -kv[1],
    ):
        share = value / self_total if self_total else 0.0
        print(f"   {metric:<28s} {_fmt(value, units[metric]):<18s}"
              f" {share:6.1%}")
    for metric, value in layer.items():
        if not metric.endswith(".self_s"):
            print(f"   {metric:<28s} {_fmt(value, units[metric])}")


def pin_all() -> int:
    """Rewrite expect.json from fresh runs (stepwise-checked on V-Bus)."""
    pins = {}
    for name, workload in WORKLOADS.items():
        if any(cell.mode != "value" for cell in workload.cells):
            print(f"pinning {name} ...", flush=True)
            pins.update(_worker_json(["--workload", name, "--pin"]))
    path = os.path.join(HERE, "expect.json")
    with open(path, "w") as fh:
        json.dump(dict(sorted(pins.items())), fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)} ({len(pins)} cells)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes program order within a pass")
    ap.add_argument("--seconds", type=float,
                    help="measure for this long instead of a fixed rep count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="1: also run the traced and counting reps and "
                         "report per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help=f"{QUICK_REPS} timed rep(s) per round")
    ap.add_argument("-o", "--output", help="write every record as JSON")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite the pinned outputs in expect.json")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        return pin_all()

    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in
              (spec["per_layer"] if args.trace else spec["end_to_end"])]
    names = [args.workload] if args.workload else list(WORKLOADS)

    records, metrics = {}, {}
    attempted = failed = 0
    for name in names:
        reps = QUICK_REPS * ROUNDS if args.quick else WORKLOADS[name].reps
        try:
            rec = run_workload(name, args.seed, reps=reps,
                               seconds=args.seconds, trace=bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        records[name] = rec
        print_record(name, rec, units)
        attempted += rec["attempted"]
        failed += rec["failed"]
        values = dict(rec["end_to_end"])
        values.update(rec["per_layer"] or {})
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric in wanted:
            if metric in values:
                metrics[prefix + metric] = {
                    "value": values[metric], "unit": units[metric]}

    correct = failed == 0 and len(metrics) == len(wanted) * len(names)
    if args.output:
        doc = {
            "seed": args.seed,
            "quick": args.quick,
            "seconds": args.seconds,
            "host": {"python": sys.version.split()[0],
                     "platform": sys.platform,
                     "cpus": os.cpu_count()},
            "correct": correct,
            "workloads": records,
        }
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.output}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
