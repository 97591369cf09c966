"""Seeded-defect pragmas for the verifier/sanitizer test corpus.

``C$BUG`` comment lines (tests/badprogs, docs/CHECK.md) mutate a freshly
planned program's transfer schedule *after* the postpass, planting one
class of communication defect per program so `repro check` (RV1xx–RV3xx)
and the ``--sanitize`` shadow-access mode have real bugs to catch.  The
planner itself never produces these plans — that is the point: each
pragma undoes one guarantee the planner establishes.

Pragmas (one per line, anywhere in the source)::

    C$BUG DROP-SCATTER <ARRAY> <RANK>   scatter transfers to one rank vanish
    C$BUG DROP-COLLECT <ARRAY>          all collect transfers vanish
    C$BUG DROP-FENCE <SCATTER|COLLECT>  the fence closing that phase vanishes
    C$BUG KEEP-GRAIN <ARRAY>            undo the §5.6 collect demotion

Each pragma applies to the first parallel region where it has an effect
and raises :class:`BugSeedError` (a ``ValueError``) when it has none —
a corpus program whose planted bug evaporated (e.g. after a planner
change, or under options that plan no such transfer) must fail loudly,
not silently go green.
"""

from __future__ import annotations

from typing import List, Optional

from repro.compiler.postpass.scatter import (
    RegionCommPlan,
    _mask_to_transfers,
    _transfers_mask,
)

__all__ = ["BugSeedError", "apply_bug_pragmas"]

#: Pragma sentinel scanned for by :func:`repro.compiler.pipeline.compile_source`.
PRAGMA = "C$BUG"


class BugSeedError(ValueError):
    """A ``C$BUG`` pragma that is malformed or finds nothing to mutate.

    ``pragma`` is the pragma's text and ``options`` the
    :class:`~repro.compiler.pipeline.CompileOptions` it was planned under.
    """

    def __init__(self, pragma: str, why: str, options=None):
        where = ""
        if options is not None:
            where = (
                f" (nprocs={options.nprocs}, granularity="
                f"{options.granularity}, partition={options.partition})"
            )
        super().__init__(f"{PRAGMA} {pragma}: {why}{where}")
        self.pragma = pragma
        self.options = options


def _pragma_lines(source: str) -> List[List[str]]:
    out = []
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.upper().startswith(PRAGMA):
            out.append(stripped[len(PRAGMA) :].split())
    return out


def _sorted_plans(program) -> List[RegionCommPlan]:
    return [program.plans[rid] for rid in sorted(program.plans)]


def _drop_scatter(program, array: str, rank: int) -> Optional[str]:
    for plan in _sorted_plans(program):
        aplan = plan.arrays.get(array)
        if aplan is not None and aplan.scatter.get(rank):
            del aplan.scatter[rank]
            # A broadcast wave would still reach the rank; make the drop real.
            aplan.scatter_bcast = False
            plan.notes.append(
                f"bugseed: dropped scatter of {array} to rank {rank}"
            )
            return None
    return "no region scatters it"


def _drop_collect(program, array: str) -> Optional[str]:
    for plan in _sorted_plans(program):
        aplan = plan.arrays.get(array)
        if aplan is not None and aplan.collect:
            aplan.collect.clear()
            plan.notes.append(f"bugseed: dropped collect of {array}")
            return None
    return "no region collects it"


def _drop_fence(program, phase: str) -> Optional[str]:
    for plan in _sorted_plans(program):
        if phase == "SCATTER" and any(
            a.scatter for a in plan.arrays.values()
        ):
            plan.scatter_fence = False
            plan.notes.append("bugseed: dropped the scatter fence")
            return None
        if phase == "COLLECT" and any(
            a.collect for a in plan.arrays.values()
        ):
            plan.collect_fence = False
            plan.notes.append("bugseed: dropped the collect fence")
            return None
    return "no region has that phase"


def _keep_grain(program, array: str) -> Optional[str]:
    for plan in _sorted_plans(program):
        aplan = plan.arrays.get(array)
        if aplan is None or aplan.demotion_reason is None:
            continue
        size = program.env.sizes[array]
        for rank, transfers in list(aplan.collect.items()):
            mask = _transfers_mask(transfers, size)
            aplan.collect[rank] = _mask_to_transfers(mask, aplan.grain)
        aplan.collect_grain = aplan.grain
        aplan.demotion_reason = None
        plan.notes.append(
            f"bugseed: kept {aplan.grain} collect grain for {array} "
            "(demotion undone)"
        )
        return None
    return "no demoted collect found"


def apply_bug_pragmas(program, source: str) -> None:
    """Apply every ``C$BUG`` pragma in ``source`` to ``program`` in place.

    Each applier returns ``None`` once it mutated a region, else why it
    could not; either failure raises :class:`BugSeedError`.
    """
    options = getattr(program, "options", None)
    for words in _pragma_lines(source):
        if not words:
            raise BugSeedError("", "empty pragma", options)
        op, args = words[0].upper(), words[1:]
        if op == "DROP-SCATTER" and len(args) == 2:
            why = _drop_scatter(program, args[0].upper(), int(args[1]))
        elif op == "DROP-COLLECT" and len(args) == 1:
            why = _drop_collect(program, args[0].upper())
        elif op == "DROP-FENCE" and len(args) == 1 and args[0].upper() in (
            "SCATTER",
            "COLLECT",
        ):
            why = _drop_fence(program, args[0].upper())
        elif op == "KEEP-GRAIN" and len(args) == 1:
            why = _keep_grain(program, args[0].upper())
        else:
            why = "unknown pragma"
        if why is not None:
            raise BugSeedError(" ".join(words), why, options)
