"""One workload in a fresh interpreter: the process the benchmark measures.

``run.py`` starts this script once per round of a workload run (and
once per ``setup_s`` probe); it is not meant to be run by hand.  It calls the
program only through its public entry points (``compile_source``,
``run_program``, ``run_sequential``, ``tune_per_region``) and prints
one JSON object on its last stdout line.

Modes::

    worker.py --workload W --setup-only     import + build inputs, exit
    worker.py --workload W --pin            print fresh pins for W's cells
    worker.py --workload W --seed N (--reps R | --seconds S) [--trace]

A measuring run makes one untimed warm-up pass, then timed passes, each
cold: the compile cache and the two memoized LMAD functions are cleared
before every cell, as every ``repro`` invocation starts cold.  A sample
of the reference kernel (``hostspeed.py``) follows the warm-up and every
timed pass, so the parent can scale the best pass to host speed.  With
``--trace`` it then makes one pass under ``cProfile`` with the boundary
spans installed, and one counting pass with ``run_program(trace=True)``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import random
import resource
import sys
import time
import traceback
from dataclasses import replace

from repro.compiler import pipeline
from repro.compiler.analysis import lmad
from repro.runtime import executor
from repro.sweep.runner import BACKENDS
from repro.vbus import params as P
from repro.workloads import source_for

import hostspeed
from hosttrace import Spans, self_time_by_layer
from suite import COUNTERS, MIN_REPS, TIMED_BOUNDARIES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECT_PATH = os.path.join(HERE, "expect.json")
OUT_DIR = os.path.join(HERE, "out")

#: Traced self times must add up to the traced rep's duration this well.
SELF_SUM_TOLERANCE = 0.05


class Inputs:
    """What one cell needs before its first rep: source and machine."""

    def __init__(self, cell):
        self.source = source_for(cell.spec)
        self.params = replace(
            P.cluster_for(cell.nprocs, getattr(P, BACKENDS[cell.backend])),
            fast_path=True,
        )
        #: (array digest, stdout) of ``run_sequential`` for value cells.
        self.reference = None


def build(workload):
    """Import the workload's entry modules and build its inputs."""
    if any(cell.mode == "tune" for cell in workload.cells):
        import repro.tools.tuneplan  # noqa: F401  (an entry module)
    return {cell: Inputs(cell) for cell in workload.cells}


def cold() -> None:
    pipeline.clear_compile_cache()
    lmad._enumerate_impl.cache_clear()
    lmad._intersect_count.cache_clear()


def run_cell(cell, inp, bounds, trace=False):
    """One cold cell; returns (host seconds, output) and adds the
    seconds of each boundary call to ``bounds``."""
    cold()
    if cell.mode == "tune":
        from repro.tools import tuneplan

        t0 = time.perf_counter()
        plan = tuneplan.tune_per_region(
            inp.source, nprocs=cell.nprocs, metric="comm",
            backend=cell.backend, cache_dir=None, tune_partition=True,
        )
        dt = time.perf_counter() - t0
        bounds["tune_per_region"] += dt
        return dt, plan
    t0 = time.perf_counter()
    prog = pipeline.compile_source(inp.source, nprocs=cell.nprocs)
    t1 = time.perf_counter()
    report = executor.run_program(
        prog, cluster_params=inp.params, execute=cell.mode == "value",
        trace=trace,
    )
    t2 = time.perf_counter()
    bounds["compile_source"] += t1 - t0
    bounds["run_program"] += t2 - t1
    return t2 - t0, (prog, report)


def options_doc(options) -> dict:
    """A compiled plan's options as JSON-comparable data."""
    return json.loads(json.dumps({
        "nprocs": options.nprocs,
        "granularity": options.granularity,
        "partition": options.partition,
        "grain_map": options.grain_map,
        "partition_map": options.partition_map,
    }))


def observed(cell, output) -> dict:
    """The outputs a cell's pin holds."""
    if cell.mode == "tune":
        return {"options": options_doc(output.options())}
    _prog, report = output
    return {
        "simulated_s": report.total_s,
        "messages": int(report.hw.get("messages", 0)),
    }


def check(cell, inp, output, expect):
    """``None`` when the cell's output is right, else why not."""
    if cell.mode == "value":
        _prog, report = output
        got = (report.array_digest(), list(report.stdout))
        if got != inp.reference:
            return (f"{cell.key}: digest/stdout {got[0]} differs from "
                    f"run_sequential {inp.reference[0]}")
        return None
    want = expect.get(cell.key)
    if want is None:
        return f"{cell.key}: no pin in expect.json (run with --pin)"
    got = observed(cell, output)
    if got != want:
        return f"{cell.key}: got {got}, pinned {want}"
    return None


class Tally:
    """Reps attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, *why) -> None:
        self.failed += 1
        self.errors.extend(why[: max(0, 5 - len(self.errors))])

    def rep(self, order, inputs, expect):
        """One checked pass; returns (seconds, bounds), or None when a
        cell raised."""
        self.attempted += 1
        bounds = {name: 0.0 for name in TIMED_BOUNDARIES}
        total, bad = 0.0, []
        try:
            for cell in order:
                dt, out = run_cell(cell, inputs[cell], bounds)
                total += dt
                why = check(cell, inputs[cell], out, expect)
                if why:
                    bad.append(why)
        except Exception:
            self.fail(traceback.format_exc(limit=4))
            return None
        if bad:
            self.fail(*bad)
        return total, bounds


def counters_of(cell, output) -> dict:
    """Exact work counts of one counting-pass cell (traced run)."""
    c = dict.fromkeys(COUNTERS, 0)
    enum = lmad._enumerate_impl.cache_info()
    inter = lmad._intersect_count.cache_info()
    c["analysis.lmad_enum_calls"] = enum.hits + enum.misses
    c["analysis.lmad_enum_misses"] = enum.misses
    c["analysis.intersect_calls"] = inter.hits + inter.misses
    stats = pipeline.compile_cache_stats()
    c["compile.cache_hits"] = stats["hits"]
    c["compile.cache_misses"] = stats["misses"]
    if cell.mode == "tune":
        c["tune.profiles"] = output.profiles
        c["tune.evaluated_candidates"] = output.evaluated_candidates
        c["tune.pruned_candidates"] = output.pruned_candidates
        return c
    prog, report = output
    hw = report.hw
    c["sim.events"] = report.trace.kernel_events
    c["mpi2.messages"] = int(hw.get("messages", 0))
    c["mpi2.bytes"] = int(hw.get("bytes", 0))
    for key in ("fast_legs", "fast_fallbacks", "fast_promotions",
                "fast_fallback_busy", "fast_fallback_peek",
                "dma_transfers", "freezes"):
        c[f"vbus.{key}"] = int(hw.get(key, 0))
    c["runtime.scatter_messages"] = report.scatter_messages
    c["runtime.collect_messages"] = report.collect_messages
    c["runtime.strided_transfers"] = report.strided_transfers
    c["postpass.regions"] = len(prog.plans)
    c["postpass.transfers"] = sum(
        len(ts)
        for plan in prog.plans.values()
        for aplan in plan.arrays.values()
        for side in (aplan.scatter, aplan.collect)
        for ts in side.values()
    )
    return c


def counting_pass(tally, order, inputs, expect) -> dict:
    """One checked pass with ``run_program(trace=True)``, its counters
    summed over the cells."""
    total = dict.fromkeys(COUNTERS, 0)
    bounds = {name: 0.0 for name in TIMED_BOUNDARIES}
    bad = []
    tally.attempted += 1
    try:
        for cell in order:
            _dt, out = run_cell(cell, inputs[cell], bounds, trace=True)
            why = check(cell, inputs[cell], out, expect)
            if why:
                bad.append(why)
            for key, value in counters_of(cell, out).items():
                total[key] += value
    except Exception:
        bad.append(traceback.format_exc(limit=4))
    if bad:
        tally.fail(*bad)
    msgs = total["mpi2.messages"]
    total["sim.events_per_message"] = total["sim.events"] / msgs if msgs else 0
    return total


def traced_pass(tally, workload, order, inputs, expect) -> dict:
    """One rep under cProfile with the boundary spans installed."""
    gc.collect()
    prof = cProfile.Profile(builtins=False)
    with Spans() as spans:
        t0 = time.perf_counter()
        prof.enable()
        try:
            got = tally.rep(order, inputs, expect)
        finally:
            prof.disable()
            duration = time.perf_counter() - t0
    self_s = self_time_by_layer(prof.getstats())
    self_sum = sum(self_s.values())
    if got is not None and abs(self_sum / duration - 1) > SELF_SUM_TOLERANCE:
        tally.fail(
            f"traced self times sum to {self_sum:.4f} s, rep took "
            f"{duration:.4f} s (tolerance {SELF_SUM_TOLERANCE:.0%})"
        )
    path = os.path.join(OUT_DIR, f"{workload.name}.host-trace.json")
    spans.write(path, workload.name)
    return {
        "duration_s": duration,
        "self_s": self_s,
        "self_sum_s": self_sum,
        "spans": spans.totals(),
        "trace_file": os.path.relpath(path, HERE),
    }


def load_expect() -> dict:
    with open(EXPECT_PATH) as fh:
        return json.load(fh)


def measure(workload, inputs, seed, reps, seconds, trace) -> dict:
    expect = load_expect()
    for cell, inp in inputs.items():
        if cell.mode == "value":
            seq = executor.run_sequential(
                pipeline.compile_source(inp.source, nprocs=cell.nprocs)
            )
            inp.reference = (seq.array_digest(), list(seq.stdout))

    rng = random.Random(seed)

    def order():
        return rng.sample(workload.cells, len(workload.cells))

    tally = Tally()
    tally.rep(order(), inputs, expect)  # warm-up: lazy imports, untimed

    # Reference-kernel samples bracket every timed rep (hostspeed.py).
    samples, ref = [], [hostspeed.sample()]
    bounds = {name: [] for name in TIMED_BOUNDARIES}
    done, start = 0, time.perf_counter()
    while True:
        if reps is not None and done >= reps:
            break
        if reps is None and done >= MIN_REPS and (
            time.perf_counter() - start >= seconds
        ):
            break
        gc.collect()
        got = tally.rep(order(), inputs, expect)
        ref.append(hostspeed.sample())
        done += 1
        if got is None:
            continue
        samples.append(got[0])
        for name, value in got[1].items():
            bounds[name].append(value)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "samples": samples,
        "ref": ref,
        "bounds": bounds,
        "peak_rss_mb": peak_rss_mb,
        "trace": None,
    }
    if trace:
        out["trace"] = traced_pass(tally, workload, order(), inputs, expect)
        out["trace"]["counters"] = counting_pass(
            tally, order(), inputs, expect
        )
    out.update(attempted=tally.attempted, failed=tally.failed,
               errors=tally.errors)
    return out


def pin(workload, inputs) -> dict:
    """Fresh pins for the workload's timing and tune cells.

    A V-Bus cell is pinned only after its fast-path outputs equal the
    stepwise oracle's (``fast_path=False``).
    """
    pins = {}
    for cell in workload.cells:
        if cell.mode == "value":
            continue
        inp = inputs[cell]
        bounds = {name: 0.0 for name in TIMED_BOUNDARIES}
        _dt, out = run_cell(cell, inp, bounds)
        pins[cell.key] = observed(cell, out)
        if cell.mode == "timing" and cell.backend == "vbus":
            oracle = Inputs(cell)
            oracle.params = replace(inp.params, fast_path=False)
            _dt, slow = run_cell(cell, oracle, bounds)
            if observed(cell, slow) != pins[cell.key]:
                raise SystemExit(
                    f"{cell.key}: fast path {pins[cell.key]} differs from "
                    f"the stepwise oracle {observed(cell, slow)}"
                )
    return pins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = build(workload)
    if args.setup_only:
        return 0
    if args.pin:
        result = pin(workload, inputs)
    else:
        if (args.reps is None) == (args.seconds is None):
            ap.error("give exactly one of --reps and --seconds")
        result = measure(workload, inputs, args.seed, args.reps,
                         args.seconds, args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
