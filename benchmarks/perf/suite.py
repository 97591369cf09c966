"""The benchmark's workloads and the layer map, as plain data.

This module imports nothing from ``repro``: the parent process
(``run.py``) and the self-tests read it without paying for the
program's imports.  ``worker.py`` turns each :class:`Cell` into calls
on the program's public entry points.

A *pass* runs every cell of a workload once, in an order the seed
permutes.  Every cell compiles cold, so the order changes no output and
no counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Cell:
    """One program of a pass.

    ``mode`` is ``timing`` (compile + ``run_program(execute=False)``),
    ``value`` (compile + ``run_program(execute=True)``, checked against
    ``run_sequential``) or ``tune`` (one joint ``tune_per_region``).
    ``backend`` is a sweep backend name (``vbus``, ``gige``,
    ``ethernet100``); V-Bus cells run with the mesh fast path on.
    """

    spec: str
    backend: str
    nprocs: int
    mode: str

    @property
    def key(self) -> str:
        """The cell's name in ``expect.json`` and in error messages."""
        return f"{self.spec}/{self.backend}/{self.nprocs}"


@dataclass(frozen=True)
class Workload:
    """A named pass of cells and the rep count of a full run."""

    name: str
    reps: int
    cells: Tuple[Cell, ...]


def _timing(spec: str, backend: str = "vbus", nprocs: int = 16) -> Cell:
    return Cell(spec, backend, nprocs, "timing")


def _tune(spec: str, backend: str) -> Cell:
    return Cell(spec, backend, 4, "tune")


#: A full run makes ``reps`` timed reps, split over ``ROUNDS``; a run
#: given ``--seconds`` measures for that long instead.  The order is the
#: order of a full run.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # 78% of host time in sim + vbus; ~11 kernel events per message.
        Workload("mm-vbus", 24, (_timing("MM-512"),)),
        # Same compile and MPI traffic on switched GigE: no mesh fast path.
        Workload("mm-gige", 24, (_timing("MM-512", "gige"),)),
        # Compiler-dominated; bypasses every runtime and network change.
        Workload(
            "compile-suite",
            24,
            tuple(
                _timing(spec)
                for spec in (
                    "SWIM-64", "SWIM-96", "CFFZINIT-11", "PXOVER-48",
                    "XOVER-256",
                )
            ),
        ),
        # The only workload where the numeric interpreter dominates.
        Workload("swim-exec", 30, (Cell("SWIM-32x2", "vbus", 4, "value"),)),
        # Joint grain x partition tuner: nine compiled variants per cell.
        Workload(
            "tune",
            24,
            (
                _tune("PXOVER-48", "gige"),
                _tune("XOVER-256", "gige"),
                _tune("MM-96", "ethernet100"),
            ),
        ),
    )
}

#: Each workload run measures in this many fresh worker processes, one
#: after another; an end-to-end metric is the median of its rounds.
ROUNDS = 3

#: Timed reps per round of ``--quick`` (the self-tests' smoke run).
QUICK_REPS = 1

#: Fresh interpreters timed for ``setup_s`` in each round, half before
#: and half after its worker.
SETUP_PROBES = 2

#: Fewest timed reps a round of a ``--seconds`` run makes.
MIN_REPS = 3

#: Source packages the traced rep charges self time to, as
#: (path under ``repro/``, layer name).  Everything else is ``other``.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("compiler/frontend", "frontend"),
    ("compiler/analysis", "analysis"),
    ("compiler/postpass", "postpass"),
    ("runtime", "runtime"),
    ("mpi2", "mpi2"),
    ("vbus", "vbus"),
    ("sim", "sim"),
    ("tools", "tools"),
)

#: Module-level names the traced rep wraps, as (module, attribute).  A
#: dotted attribute names a method on a class of that module.
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("repro.compiler.pipeline", "compile_source"),
    ("repro.runtime.executor", "run_program"),
    ("repro.tools.tuneplan", "tune_per_region"),
    ("repro.compiler.frontend.parser", "parse"),
    ("repro.compiler.frontend.lower", "lower_program"),
    ("repro.compiler.postpass.driver", "run_postpass"),
    ("repro.compiler.analysis.parallel", "detect_parallelism"),
    ("repro.sim.kernel", "Simulator.run"),
)

#: Boundaries timed around the benchmark's own calls in every timed rep.
TIMED_BOUNDARIES = ("compile_source", "run_program", "tune_per_region")

_MM = ("mm-vbus", "mm-gige")
_COMPILER = ("compile-suite", "tune")
_ALL = tuple(WORKLOADS)

_REP = "rep_s.hostnorm"

#: Per-layer metric -> (end-to-end metric it should move, workloads on
#: which it should move it).  The self-tests hold it equal to
#: ``per_layer`` in BENCHMARK.json and check it against the committed
#: baselines: every metric reads non-zero on a workload listed for it.
LAYER_MAP: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "sim.self_s": (_REP, _MM),
    "vbus.self_s": (_REP, _MM),
    "mpi2.self_s": (_REP, _MM),
    "frontend.self_s": (_REP, _COMPILER),
    "analysis.self_s": (_REP, _COMPILER),
    "postpass.self_s": (_REP, _COMPILER),
    "runtime.self_s": (_REP, ("swim-exec",)),
    "tools.self_s": (_REP, ("tune",)),
    "other.self_s": (_REP, _ALL),
    "trace.overhead": (_REP, _ALL),
    "compile_source.s": (_REP, _MM + ("compile-suite", "swim-exec")),
    "run_program.s": (_REP, _MM + ("compile-suite", "swim-exec")),
    "tune_per_region.s": (_REP, ("tune",)),
    "parse.s": (_REP, _COMPILER),
    "lower_program.s": (_REP, _COMPILER),
    "run_postpass.s": (_REP, _COMPILER),
    "detect_parallelism.s": (_REP, _COMPILER),
    "Simulator.run.s": (_REP, _MM + ("swim-exec",)),
    "sim.events": (_REP, _MM),
    "sim.events_per_message": (_REP, _MM),
    "mpi2.messages": (_REP, _MM),
    "mpi2.bytes": (_REP, _MM),
    "vbus.fast_legs": (_REP, ("mm-vbus",)),
    "vbus.fast_fallbacks": (_REP, ("mm-vbus",)),
    "vbus.fast_promotions": (_REP, ("mm-vbus",)),
    "vbus.fast_fallback_busy": (_REP, ("mm-vbus",)),
    "vbus.fast_fallback_peek": (_REP, ("mm-vbus",)),
    "vbus.dma_transfers": (_REP, ("mm-vbus",)),
    "vbus.freezes": (_REP, ("mm-vbus",)),
    "runtime.scatter_messages": (_REP, _MM),
    "runtime.collect_messages": (_REP, _MM),
    "runtime.strided_transfers": (_REP, ("compile-suite",)),
    "postpass.regions": (_REP, ("compile-suite",)),
    "postpass.transfers": (_REP, ("compile-suite",)),
    "analysis.lmad_enum_calls": (_REP, _COMPILER),
    "analysis.lmad_enum_misses": (_REP, _COMPILER),
    "analysis.intersect_calls": (_REP, _COMPILER),
    "compile.cache_hits": (_REP, ("tune",)),
    "compile.cache_misses": (_REP, ("tune",)),
    "tune.profiles": (_REP, ("tune",)),
    "tune.evaluated_candidates": (_REP, ("tune",)),
    "tune.pruned_candidates": (_REP, ("tune",)),
}

#: Per-layer metrics that are exact counts of work: they must repeat
#: byte for byte across runs and seeds.
COUNTERS = tuple(
    name
    for name in LAYER_MAP
    if not name.endswith((".self_s", ".s")) and name != "trace.overhead"
)
