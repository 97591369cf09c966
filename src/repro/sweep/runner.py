"""One sweep job: config in, deterministic result row out.

:func:`run_job` is the unit the engine executes — inline for serial
sweeps, in a forked worker for ``--jobs N``.  It is a pure function of
its config: workload sources are parameterized Fortran text, the
simulator is deterministic, fault plans carry their own seeds, and the
job's RNG seed is derived from its cache key — so the row a job returns
is byte-for-byte the same wherever and whenever it runs.  That is what
makes the content-addressed cache sound and serial/parallel output
byte-identical.

Outcomes follow the typed-error contract (docs/FAULTS.md): a job ends
``ok``, ``fault`` (a typed :class:`MpiFaultError` from an injected fault
plan), or ``error`` (any other exception, recorded by type — including
:class:`SweepWorkerLost` when the engine loses the worker process
itself).  No outcome corrupts the sweep: every job yields exactly one
row.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.vbus.params import BACKENDS, backend_params

__all__ = [
    "BACKENDS",
    "GRANULARITIES",
    "SweepWorkerLost",
    "parse_workload",
    "run_job",
]


class SweepWorkerLost(RuntimeError):
    """The worker process executing a job died (crash, kill, OOM)."""


GRANULARITIES = ("fine", "middle", "coarse")


def parse_workload(spec: str) -> Tuple[str, Optional[int], Optional[int]]:
    """Split a workload spec like ``MM-256`` or ``JACOBI-64x10``.

    The grammar is owned by :mod:`repro.workloads` (shared with the
    autotuner and the benchmark tools); this wrapper converts its
    :class:`~repro.workloads.WorkloadSpecError` into the sweep's own
    :class:`~repro.sweep.grid.SweepConfigError`.
    """
    from repro.sweep.grid import SweepConfigError
    from repro.workloads import WorkloadSpecError, parse_spec

    try:
        return parse_spec(spec)
    except WorkloadSpecError as exc:
        raise SweepConfigError(str(exc)) from exc


def _workload_source(spec: str) -> str:
    kind, size, _extra = parse_workload(spec)
    if kind == "CRASH":
        # Deterministic worker death, after the fork and inside the job:
        # the engine must surface this as a typed per-job error without
        # corrupting the rest of the sweep.
        os._exit(size if size is not None else 137)
    from repro.workloads import source_for

    return source_for(spec)


def _cluster_params(config: Dict):
    return replace(
        backend_params(config["backend"], config["nprocs"]),
        fast_path=config["fast_path"],
    )


def job_seed(config: Dict, key: str) -> int:
    """The job's RNG seed: explicit, else derived from its cache key."""
    if config.get("seed") is not None:
        return config["seed"]
    return int(key[:8], 16)


def run_job(config: Dict, key: str) -> Dict:
    """Execute one job config; always returns a deterministic row."""
    seed = job_seed(config, key)
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % (2**32))
    except ImportError:  # pragma: no cover - numpy is a core dependency
        pass

    row = dict(config)
    row["key"] = key
    row["seed"] = seed
    try:
        source = _workload_source(config["workload"])
        from repro.compiler.pipeline import compile_source
        from repro.faults.plan import FaultPlan
        from repro.mpi2.exceptions import MpiFaultError
        from repro.runtime.executor import run_program

        plan = None
        if config["faults"] is not None:
            import json

            plan = FaultPlan.from_json(json.dumps(config["faults"]))
        grain_map = config.get("tune_plan") or None
        partition = config.get("partition")
        if grain_map or partition is not None:
            # A mixed plan: ``tune_plan`` is the ``grain_map`` of a
            # TunePlan JSON artifact (docs/AUTOTUNE.md), ``partition``
            # a global §5.3 strategy spec or the per-region
            # ``partition_map`` (docs/PARTITION.md).
            from repro.compiler.pipeline import CompileOptions

            kw = dict(
                nprocs=config["nprocs"],
                granularity=config["granularity"],
            )
            if grain_map:
                kw["grain_map"] = {int(k): v for k, v in grain_map.items()}
            if isinstance(partition, dict):
                kw["partition_map"] = {
                    int(k): v for k, v in partition.items()
                }
            elif partition is not None:
                kw["partition"] = partition
            prog = compile_source(source, options=CompileOptions(**kw))
        else:
            prog = compile_source(
                source,
                nprocs=config["nprocs"],
                granularity=config["granularity"],
            )
        params = _cluster_params(config)
        calibration = config.get("calibration")
        if calibration is not None:
            # A calibrated job carries the fitted model's per-region comm
            # prediction next to the measured result — the row is the
            # model-validation record.  Configs without the axis emit no
            # ``model`` field, keeping their row bytes unchanged.
            from repro.tools.calibrate import CalibratedModel
            from repro.tools.tuneplan import region_model_cost

            cal = CalibratedModel.from_jsonable(calibration)
            costs = [
                region_model_cost(prog.plans[rid], params, calibration=cal)
                for rid in sorted(prog.plans)
            ]
            row["model"] = {
                "comm_s": sum(c.elapsed_s for c in costs),
                "messages": int(sum(c.messages for c in costs)),
            }
        try:
            report = run_program(
                prog,
                cluster_params=params,
                execute=config["execute"],
                faults=plan,
            )
        except MpiFaultError as exc:
            row["status"] = "fault"
            row["result"] = None
            row["error"] = {"type": type(exc).__name__, "message": str(exc)}
            return row
        row["status"] = "ok"
        row["result"] = report.to_jsonable()
        row["error"] = None
        return row
    except Exception as exc:  # noqa: BLE001 - typed per-job error row
        row["status"] = "error"
        row["result"] = None
        row["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return row


def worker_lost_row(config: Dict, key: str) -> Dict:
    """The typed row for a job whose worker process died."""
    row = dict(config)
    row["key"] = key
    row["seed"] = job_seed(config, key)
    row["status"] = "error"
    row["result"] = None
    row["error"] = {
        "type": SweepWorkerLost.__name__,
        "message": "worker process died while running this job",
    }
    return row
