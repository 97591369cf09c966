"""Trace-calibrated constants for the analytic cost model (docs/AUTOTUNE.md).

The per-region tuner's analytic tier prices §5.6 transfer plans against
static :class:`~repro.vbus.params.ClusterParams` — and PR 8 measured
that pricing to be ~2-3x optimistic for strided cyclic descriptors on
Ethernet (the model charges one message where the simulator charges
per-element programmed I/O), which forces whole-program flip probes.
This module fits those constants to *measured* data instead, the same
way APEnet+ and the Cluster Computing White Paper validate link models
against microbenchmarks:

1. run a small deterministic microbenchmark suite on the target backend
   (unit-stride DMA/PIO, strided descriptors, broadcast fan-out, and the
   frame/switch legs exercised by every transfer), traced;
2. attribute each run per region with :func:`repro.obs.region_rollup`
   and extract the matching :func:`repro.tools.tuneplan.region_features`;
3. least-squares fit one coefficient per feature — per-message latency,
   per-byte bandwidth, strided-descriptor penalty, broadcast fan-out —
   clamped non-negative, per backend.

The result is a :class:`CalibratedModel`, serialized as a versioned JSON
artifact and content-address-cached through :mod:`repro.sweep.cache`
(per-cell rows *and* the finished artifact, so warm calls touch no
simulator).  The simulator is deterministic, so the fit is too: two cold
fits of the same (backend, nprocs, suite) produce byte-identical
artifacts.

Calibration never changes *what* a plan computes — granularity and
partition strategy are results-invariant — only how the tuner prices
candidates, and therefore how few probes it needs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.sweep.cache import (
    DEFAULT_CACHE_DIR,
    canonical_json,
    job_key,
    load_row,
    store_row,
)
from repro.tools.tuneplan import FEATURES
from repro.vbus.params import backend_params

__all__ = [
    "SUITE_VERSION",
    "CalibratedModel",
    "calibrate",
    "calibration_cache_key",
    "suite_cells",
]

#: Bump when the microbenchmark suite changes: a different suite fits
#: different constants, so it must produce a different artifact (and
#: different cache keys) than the old one.
SUITE_VERSION = 1

#: Fitted coefficient per :data:`~repro.tools.tuneplan.FEATURES` entry,
#: in fit order.
CONSTANTS = (
    "per_message_s",
    "per_byte_s",
    "strided_per_element_s",
    "fanout_per_dest_s",
)


@dataclass(frozen=True)
class CalibratedModel:
    """Trace-fitted constants of the linear per-region cost model.

    ``elapsed = per_message_s * messages + per_byte_s * bytes
    + strided_per_element_s * strided_elements
    + fanout_per_dest_s * fanout_dests`` over the features of
    :func:`repro.tools.tuneplan.region_features`.  Coefficients are
    non-negative; a feature the backend's suite never exercises (e.g.
    broadcast fan-out on Ethernet, which has no fused bcast) fits to 0.
    """

    backend: str
    nprocs: int
    per_message_s: float
    per_byte_s: float
    strided_per_element_s: float
    fanout_per_dest_s: float
    #: Fit provenance: sample count and RMS residual of the fit.
    samples: int = 0
    residual_s: float = 0.0
    suite: int = SUITE_VERSION
    #: True when this model came from the on-disk artifact cache.
    cached: bool = field(default=False, compare=False)

    def constants(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in CONSTANTS}

    def to_jsonable(self) -> Dict:
        return {
            "kind": "calibration",
            "version": 1,
            "backend": self.backend,
            "nprocs": self.nprocs,
            "suite": self.suite,
            "constants": self.constants(),
            "fit": {"samples": self.samples, "residual_s": self.residual_s},
        }

    @classmethod
    def from_jsonable(cls, doc: Dict) -> "CalibratedModel":
        if not isinstance(doc, dict) or doc.get("kind") != "calibration":
            raise ValueError(
                f"not a calibration document (kind={doc.get('kind') if isinstance(doc, dict) else doc!r})"
            )
        constants = doc.get("constants", {})
        missing = [name for name in CONSTANTS if name not in constants]
        if missing:
            raise ValueError(f"calibration constants missing {missing}")
        fit = doc.get("fit", {})
        return cls(
            backend=doc["backend"],
            nprocs=int(doc["nprocs"]),
            suite=int(doc.get("suite", SUITE_VERSION)),
            samples=int(fit.get("samples", 0)),
            residual_s=float(fit.get("residual_s", 0.0)),
            **{name: float(constants[name]) for name in CONSTANTS},
        )

    def sha256(self) -> str:
        """Content hash of the canonical artifact (plan-cache keying)."""
        return hashlib.sha256(
            canonical_json(self.to_jsonable()).encode("utf-8")
        ).hexdigest()

    def save(self, path: str) -> None:
        """Write the canonical JSON artifact (byte-deterministic)."""
        with open(path, "w") as fh:
            fh.write(canonical_json(self.to_jsonable()))
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibratedModel":
        with open(path) as fh:
            return cls.from_jsonable(json.load(fh))

    def summary(self) -> str:
        mbps = 1.0 / self.per_byte_s / 1e6 if self.per_byte_s > 0 else 0.0
        lines = [
            f"calibrated model ({self.backend}, np={self.nprocs}, "
            f"suite v{self.suite}):",
            f"  per-message latency : {self.per_message_s * 1e6:10.3f} us",
            f"  per-byte bandwidth  : {self.per_byte_s * 1e9:10.3f} ns/B"
            + (f"  (~{mbps:.1f} MB/s)" if mbps else ""),
            f"  strided penalty     : "
            f"{self.strided_per_element_s * 1e6:10.3f} us/element",
            f"  bcast fan-out       : "
            f"{self.fanout_per_dest_s * 1e6:10.3f} us/dest",
            f"  fit: {self.samples} samples, "
            f"rms residual {self.residual_s * 1e6:.3f} us",
        ]
        if self.cached:
            lines.append("  (loaded from calibration cache)")
        return "\n".join(lines)


def suite_cells() -> Tuple[Tuple[str, str, str, Optional[str]], ...]:
    """The microbenchmark suite: ``(name, source, grain, partition)``.

    Each cell isolates one pricing regime of the backends: unit-stride
    bulk transfers at two sizes (separates per-message latency from
    per-byte bandwidth), strided collects at fine vs coarse grain (PIO
    per-element vs redundant contiguous bytes), a dense multi-phase
    stride, a matrix multiply whose B-operand scatter fuses into the
    V-Bus broadcast (fan-out), and triangular/stencil nests under forced
    block and cyclic partitioning — the strided-cyclic-descriptor case
    the static model is optimistic about.  Sizes are small enough that
    the whole suite simulates in a few seconds, and every run is
    deterministic, which is what makes the fit reproducible.
    """
    from repro.workloads import mm, synthetic

    return (
        ("copy-small", synthetic.copy_kernel(256), "fine", None),
        ("copy-large", synthetic.copy_kernel(4096), "fine", None),
        ("stride-fine", synthetic.stride_kernel(192, 4), "fine", None),
        ("stride-coarse", synthetic.stride_kernel(192, 4), "coarse", None),
        ("phase-fine", synthetic.phased_stride_kernel(96, 3), "fine", None),
        ("bcast-mm", mm.source(24), "fine", None),
        ("tri-cyclic", synthetic.triangular_kernel(48), "fine", "cyclic"),
        ("tri-block", synthetic.triangular_kernel(48), "fine", "block"),
        (
            "pxover-cyclic",
            synthetic.partition_crossover_kernel(16),
            "fine",
            "cyclic",
        ),
    )


def calibration_cache_key(backend: str, nprocs: int) -> str:
    """Content-address of one finished calibration artifact."""
    return job_key(
        {
            "kind": "calibration",
            "backend": backend,
            "nprocs": nprocs,
            "suite": SUITE_VERSION,
        }
    )


def _cell_config(
    name: str, backend: str, nprocs: int, grain: str, partition: Optional[str]
) -> Dict:
    cfg = {
        "kind": "calibration-cell",
        "suite": SUITE_VERSION,
        "cell": name,
        "backend": backend,
        "nprocs": nprocs,
        "granularity": grain,
    }
    if partition is not None:
        cfg["partition"] = partition
    return cfg


def _measure_cell(
    source: str, grain: str, partition: Optional[str], nprocs: int, params
) -> List[Dict]:
    """One traced timing-mode run -> per-region ``features``/``measured``.

    ``measured_s`` is the region's busiest-rank MPI time
    (``rollup.mpi_max_s``) — the same quantity the tuner's ``comm``
    metric profiles, so the fitted model predicts exactly what it will
    later be asked to rank.
    """
    from repro.compiler.pipeline import compile_source
    from repro.obs import region_rollup
    from repro.runtime.executor import run_program
    from repro.tools.tuneplan import region_features

    kw = {} if partition is None else {"partition": partition}
    prog = compile_source(source, nprocs=nprocs, granularity=grain, **kw)
    report = run_program(
        prog, cluster_params=params, execute=False, trace=True
    )
    rollups = region_rollup(report.trace)
    rows: List[Dict] = []
    for rid in sorted(prog.plans):
        roll = rollups.get(rid)
        if roll is None:
            continue
        feats = region_features(prog.plans[rid], params)
        if not any(feats[f] > 0.0 for f in FEATURES):
            continue  # a comm-free region carries no information
        rows.append(
            {
                "region_id": rid,
                "features": {f: feats[f] for f in FEATURES},
                "measured_s": roll.mpi_max_s,
            }
        )
    return rows


def _fit(samples: List[Dict]) -> Tuple[Dict[str, float], float]:
    """Non-negative least squares over the suite's per-region samples.

    Plain ``lstsq`` with iterative clamping: fit, zero out the most
    negative coefficient's column, refit — at most once per feature, so
    the loop is bounded and (with numpy's deterministic SVD) the result
    is a pure function of the samples.  All-zero columns (a feature this
    backend never exercises) fit to 0 outright.
    """
    import numpy as np

    X = np.array(
        [[s["features"][f] for f in FEATURES] for s in samples], dtype=float
    )
    y = np.array([s["measured_s"] for s in samples], dtype=float)
    active = [i for i in range(len(FEATURES)) if np.any(X[:, i] != 0.0)]
    coef = np.zeros(len(FEATURES))
    while active:
        sol, *_ = np.linalg.lstsq(X[:, active], y, rcond=None)
        if np.all(sol >= 0.0):
            for i, c in zip(active, sol):
                coef[i] = c
            break
        worst = active[int(np.argmin(sol))]
        active = [i for i in active if i != worst]
    residual = float(np.sqrt(np.mean((X @ coef - y) ** 2))) if len(y) else 0.0
    return (
        {name: float(coef[i]) for i, name in enumerate(CONSTANTS)},
        residual,
    )


def calibrate(
    backend: str = "vbus",
    nprocs: int = 4,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
) -> CalibratedModel:
    """Fit a :class:`CalibratedModel` for one backend at one rank count.

    Per-cell traced runs and the finished artifact are both
    content-address-cached under ``cache_dir`` (the sweep cache); a warm
    call returns the cached artifact byte-identically without touching
    the simulator.  ``cache_dir=None`` disables caching.
    """
    if nprocs < 2:
        raise ValueError("calibration needs nprocs >= 2 (no comm otherwise)")
    params = backend_params(backend, nprocs)

    key = calibration_cache_key(backend, nprocs)
    if cache_dir is not None:
        row = load_row(cache_dir, key)
        if row is not None:
            try:
                return replace(CalibratedModel.from_jsonable(row), cached=True)
            except (KeyError, TypeError, ValueError):
                pass  # a stale/corrupt artifact is a miss; refit below

    samples: List[Dict] = []
    for name, source, grain, partition in suite_cells():
        cell_key = None
        rows = None
        if cache_dir is not None:
            cell_key = job_key(
                _cell_config(name, backend, nprocs, grain, partition)
            )
            cached = load_row(cache_dir, cell_key)
            if isinstance(cached, dict):
                rows = cached.get("regions")
        if rows is None:
            rows = _measure_cell(source, grain, partition, nprocs, params)
            if cache_dir is not None:
                store_row(cache_dir, cell_key, {"regions": rows})
        samples.extend(rows)
    if not samples:
        raise RuntimeError(
            f"calibration suite produced no samples on {backend!r}"
        )

    constants, residual = _fit(samples)
    model = CalibratedModel(
        backend=backend,
        nprocs=nprocs,
        samples=len(samples),
        residual_s=residual,
        **constants,
    )
    if cache_dir is not None:
        store_row(cache_dir, key, model.to_jsonable())
    return model
