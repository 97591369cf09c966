"""Automatic communication-granularity selection.

The paper leaves the fine/middle/coarse choice to the user: "For now, it
is up to the user that selects the optimal granularity to minimize the
communication time.  The profiling tools recently provided in Polaris
would be useful to guide the user" (§5.6).  This module is that guide,
automated: it compiles the program at every granularity, profiles each
variant in timing mode (the full communication schedule with analytic
compute costs, so even 1024² problems profile in seconds), and selects
the granularity that minimizes the chosen communication metric.

Near-ties go to the plan that moves **fewer messages**: when two grains
sit within ``epsilon`` (relative) of each other, the measured gap is
inside the model's noise floor, and fewer transfers means less per-rank
software overhead on any real machine.  The winning margin is recorded
on the report either way.

For *per-region* tuning — one grain per parallel region instead of one
global winner — see :mod:`repro.tools.tuneplan` (docs/AUTOTUNE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.compiler.pipeline import CompileOptions
from repro.compiler.postpass.granularity import GRAINS
from repro.runtime.program import SpmdProgram
from repro.runtime.report import RunReport
from repro.tools.tuneplan import (
    DEFAULT_EPSILON,
    METRICS,
    _check_args,
    _compile,
    _margin,
    _probe,
    _report_value,
    _Table,
)

__all__ = ["GranularityReport", "choose_granularity", "METRICS"]


@dataclass
class GranularityReport:
    """Outcome of one auto-tuning session."""

    best: str
    metric: str
    #: grain -> metric value (seconds).
    values: Dict[str, float] = field(default_factory=dict)
    #: grain -> full run report (timing mode).
    reports: Dict[str, RunReport] = field(default_factory=dict)
    #: The winning compiled program, ready to run.
    program: Optional[SpmdProgram] = None
    #: grain -> total planned messages (the tie-break key).
    messages: Dict[str, int] = field(default_factory=dict)
    #: Relative gap between the two best metric values.
    margin: float = 0.0
    #: The near-tie threshold the selection used.
    epsilon: float = DEFAULT_EPSILON
    #: ``"messages"`` when the winner came from the fewer-transfers
    #: tie-break rather than the raw metric; ``None`` otherwise.
    tie_break: Optional[str] = None

    def summary(self) -> str:
        lines = [f"granularity auto-tune (metric: {self.metric}):"]
        for grain in GRAINS:
            star = " <- selected" if grain == self.best else ""
            msgs = (
                f" ({self.messages[grain]} msgs)"
                if grain in self.messages
                else ""
            )
            lines.append(
                f"  {grain:7s} {self.values[grain] * 1e3:10.3f} ms"
                f"{msgs}{star}"
            )
        if self.tie_break:
            lines.append(
                f"  near-tie (margin {self.margin * 100:.1f}% < "
                f"{self.epsilon * 100:.0f}%): broken by fewer {self.tie_break}"
            )
        else:
            lines.append(f"  margin: {self.margin * 100:.1f}%")
        return "\n".join(lines)


def choose_granularity(
    source: str,
    nprocs: int = 4,
    metric: str = "comm",
    options: Optional[CompileOptions] = None,
    cluster_params=None,
    epsilon: float = DEFAULT_EPSILON,
    faults=None,
) -> GranularityReport:
    """Profile all three granularities and pick the best.

    ``metric`` is one of ``"total"`` (simulated wall-clock), ``"comm"``
    (busiest rank's elapsed MPI time), or ``"comm_cpu"`` (busiest rank's
    CPU time driving communication).  Grains within ``epsilon``
    (relative) of the leader count as tied and the tie goes to the plan
    with fewer messages, then to the finer grain.  Returns a
    :class:`GranularityReport` whose ``program`` field holds the winning
    compiled program.

    This is the uniform-plan mode of the per-region tuner's candidate
    table: its compile tier builds the three variants and its probe
    helper measures each one whole-program.
    """
    _check_args(metric, epsilon)
    base = (
        CompileOptions(nprocs=nprocs)
        if options is None
        else replace(options, nprocs=nprocs, grain_map=None)
    )
    t = _Table(
        source=source,
        base=base,
        params=cluster_params,
        metric=metric,
        epsilon=epsilon,
        faults=faults,
    )
    _compile(t)
    out = GranularityReport(best="", metric=metric, epsilon=epsilon)
    for grain in GRAINS:
        report = _probe(t, grain)
        out.reports[grain] = report
        out.values[grain] = _report_value(report, metric)
        plans = t.programs[(grain, None)].plans
        out.messages[grain] = sum(p.total_messages() for p in plans.values())

    by_value = sorted(GRAINS, key=lambda g: (out.values[g], GRAINS.index(g)))
    leader_val = out.values[by_value[0]]
    near = [
        g
        for g in GRAINS
        if out.values[g] <= 0.0
        or (out.values[g] - leader_val) / out.values[g] < epsilon
    ]
    if len(near) > 1:
        out.best = min(
            near, key=lambda g: (out.messages[g], GRAINS.index(g))
        )
        out.tie_break = "messages"
    else:
        out.best = by_value[0]
    out.margin = _margin(sorted(out.values.values()))
    out.program = t.programs[(out.best, None)]
    return out
