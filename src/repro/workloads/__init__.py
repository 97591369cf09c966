"""The paper's benchmark programs as parameterized Fortran 77 sources.

* :mod:`repro.workloads.mm` — the MM matrix multiply of Table 1/Table 2;
* :mod:`repro.workloads.swim` — a SWIM-like shallow-water kernel with the
  SPEC code's loop/stencil structure (Table 2, ITMAX=1);
* :mod:`repro.workloads.cffzinit` — a CFFZINIT-like stride-2 trig-table
  initialization from the NASA TFFT code (Table 2, M=11);
* :mod:`repro.workloads.synthetic` — microkernels for the figure
  reproductions and ablations (stride-k sweeps, triangular loops,
  reductions, AVPG chains).

Real SPEC/NASA sources are not redistributable; these kernels preserve
the loop nests and LMAD stride structure the paper's evaluation depends
on (see DESIGN.md §2 for the substitution argument).

This package also owns the **workload spec grammar** shared by the sweep
engine, the autotuner, and the benchmark tools: ``KIND[-SIZE[xEXTRA]]``
strings such as ``MM-256``, ``SWIM-64x2``, ``JACOBI-64x10``, or
``CFFZINIT-9`` (:func:`parse_spec` / :func:`source_for`).
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

from repro.workloads import cffzinit, jacobi, mm, swim, synthetic

__all__ = [
    "cffzinit",
    "jacobi",
    "mm",
    "swim",
    "synthetic",
    "WorkloadSpecError",
    "WORKLOAD_KINDS",
    "parse_spec",
    "source_for",
    "is_spec",
]


class WorkloadSpecError(ValueError):
    """A malformed or unknown workload spec string."""


#: Spec kinds with real Fortran sources.  ``CRASH`` (test-only: kills the
#: worker process running it) parses but has no source here — it lives in
#: :mod:`repro.sweep.runner`, which pins the engine's lost-worker path.
WORKLOAD_KINDS = ("MM", "SWIM", "CFFZINIT", "JACOBI", "XOVER", "PXOVER")

_SPEC_RE = re.compile(r"^([A-Z]+)(?:-(\d+)(?:x(\d+))?)?$")

#: kind -> (smallest SIZE, largest SIZE or None, smallest EXTRA): the
#: floors the source generators enforce, checked when a spec is parsed.
_LIMITS = {
    "MM": (1, None, 0),
    "SWIM": (8, None, 0),
    "CFFZINIT": (2, 24, 0),
    "JACOBI": (8, None, 0),
    "XOVER": (8, None, 1),
    "PXOVER": (8, None, 1),
}


def parse_spec(spec: str) -> Tuple[str, Optional[int], Optional[int]]:
    """Split a workload spec like ``MM-256`` or ``JACOBI-64x10``.

    Grammar: ``KIND[-SIZE[xEXTRA]]``.  Kinds: ``MM`` (matrix multiply,
    SIZE = n), ``SWIM`` (shallow water, SIZE = n, EXTRA = itmax),
    ``CFFZINIT`` (trig tables, SIZE = m), ``JACOBI`` (SIZE = n, EXTRA =
    steps), ``XOVER`` (the mixed-grain crossover kernel, SIZE = n,
    EXTRA = stride), ``PXOVER`` (the mixed-partition crossover kernel,
    SIZE = n, EXTRA = width), and the test-only ``CRASH``.  Raises
    :class:`WorkloadSpecError` on anything else, and on a SIZE or EXTRA
    below the generator's floor (``SWIM-4``, ``XOVER-64x0``).
    """
    m = _SPEC_RE.match(spec or "")
    if not m:
        raise WorkloadSpecError(f"bad workload spec {spec!r}")
    kind, size, extra = m.group(1), m.group(2), m.group(3)
    size = int(size) if size is not None else None
    extra = int(extra) if extra is not None else None
    if kind == "CRASH":
        return kind, size, extra
    if kind not in WORKLOAD_KINDS:
        raise WorkloadSpecError(f"unknown workload kind {kind!r} in {spec!r}")
    if size is None:
        raise WorkloadSpecError(
            f"workload {spec!r} needs a size (e.g. {kind}-64)"
        )
    lo, hi, extra_lo = _LIMITS[kind]
    if size < lo or (hi is not None and size > hi):
        span = f"{lo}..{hi}" if hi is not None else f">= {lo}"
        raise WorkloadSpecError(
            f"workload {spec!r}: {kind} size must be {span}, got {size}"
        )
    if extra is not None and extra < extra_lo:
        raise WorkloadSpecError(
            f"workload {spec!r}: {kind} extra must be >= {extra_lo}, "
            f"got {extra}"
        )
    return kind, size, extra


def source_for(spec: str) -> str:
    """The Fortran source of a workload spec (``MM-256`` → MM at 256²)."""
    kind, size, extra = parse_spec(spec)
    if kind == "MM":
        return mm.source(size)
    if kind == "SWIM":
        return swim.source(size, itmax=extra if extra is not None else 1)
    if kind == "CFFZINIT":
        return cffzinit.source(size)
    if kind == "JACOBI":
        return jacobi.source(n=size, steps=extra if extra is not None else 25)
    if kind == "XOVER":
        return synthetic.crossover_kernel(
            size, stride=extra if extra is not None else 8
        )
    if kind == "PXOVER":
        return synthetic.partition_crossover_kernel(
            size, width=extra if extra is not None else 4
        )
    raise WorkloadSpecError(f"workload {spec!r} has no Fortran source")


def is_spec(candidate: str) -> bool:
    """Whether a string is meant as a workload spec: the grammar and a
    kind with a source.  Its sizes may still be out of range, which
    :func:`source_for` reports as a :class:`WorkloadSpecError`."""
    m = _SPEC_RE.match(candidate or "")
    return bool(m) and m.group(1) in WORKLOAD_KINDS and bool(m.group(2))
