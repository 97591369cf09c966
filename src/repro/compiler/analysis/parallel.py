"""Parallelism detection driver (the Polaris FE of Figure 1).

Walks the unit's loops outermost-first.  For each candidate:

1. recognize scalar reductions (``S = S op expr``);
2. privatize WriteFirst scalars — but only those *dead after the loop*
   (a privatized copy never flows back to the master, so a scalar read
   later in the program cannot be privatized);
3. reject if any other shared scalar is written;
4. run the Access Region Test on the array accesses;
5. on success mark the loop ``parallel`` (with its ``reductions`` and
   ``private`` annotations) and stop descending — the postpass works on
   outermost parallel loops; otherwise recurse into the body.

Loops the user annotated with ``CSRD$ PARALLEL`` are honored as-is.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.compiler.analysis.access import (
    AccessError,
    loop_context,
    record_accesses,
)
from repro.compiler.analysis.art import test_loop_parallel
from repro.compiler.analysis.privatize import find_private_scalars
from repro.compiler.analysis.reduction import find_reductions
from repro.compiler.analysis.summary import summarize_record
from repro.compiler.frontend import fast as F

__all__ = ["detect_parallelism", "ParallelizationLog"]


class ParallelizationLog:
    """Human-readable account of what the detector decided and why."""

    def __init__(self):
        self.entries: List[str] = []

    def note(self, msg: str) -> None:
        self.entries.append(msg)

    def __str__(self):
        return "\n".join(self.entries)


def _scalar_reads(stmts: Sequence[F.Stmt]) -> Set[str]:
    """Names of scalars read anywhere in a statement list."""
    out: Set[str] = set()
    for s in F.walk_stmts(stmts):
        if isinstance(s, F.Assign):
            subs = s.lhs.subs if isinstance(s.lhs, F.ArrayRef) else []
            exprs = [s.rhs, *subs]
        elif isinstance(s, F.Do):
            exprs = [s.lo, s.hi, s.step]
        elif isinstance(s, F.If):
            exprs = [s.cond] + [c for c, _blk in s.elifs]
        elif isinstance(s, F.PrintStmt):
            exprs = [i for i in s.items if not isinstance(i, F.Str)]
        else:
            continue
        for expr in exprs:
            out.update(
                n.name for n in F.walk_exprs(expr) if isinstance(n, F.Var)
            )
    return out


def detect_parallelism(
    unit: F.Unit, env: Optional[Dict[str, int]] = None
) -> ParallelizationLog:
    """Annotate the unit's loops; returns the decision log."""
    log = ParallelizationLog()
    _walk(unit.body, unit, env or {}, log, live_after=set())
    return log


def _walk(
    stmts: Sequence[F.Stmt],
    unit: F.Unit,
    env,
    log,
    live_after: Set[str],
) -> None:
    for idx, stmt in enumerate(stmts):
        if isinstance(stmt, F.Do):
            later = _scalar_reads(stmts[idx + 1 :]) | live_after
            if not _try_loop(stmt, unit, env, log, later):
                # Serial loop: its body re-executes, so everything read
                # anywhere in the body is also live across inner loops.
                inner_live = later | _scalar_reads(stmt.body)
                _walk(stmt.body, unit, env, log, inner_live)
        elif isinstance(stmt, F.If):
            later = _scalar_reads(stmts[idx + 1 :]) | live_after
            _walk(stmt.then, unit, env, log, later)
            for _c, blk in stmt.elifs:
                _walk(blk, unit, env, log, later)
            _walk(stmt.orelse, unit, env, log, later)


def _try_loop(
    loop: F.Do, unit: F.Unit, env, log, live_after: Set[str]
) -> bool:
    """Attempt to mark ``loop`` parallel; True when marked."""
    if loop.parallel:
        # User directive: annotate reductions/privates, trust the directive.
        loop.reductions = find_reductions(loop)
        body_sum = summarize_record(record_accesses(loop.body, unit.symtab, env))
        loop.private = find_private_scalars(
            loop, body_sum, exclude=[r for r, _ in loop.reductions]
        )
        log.note(f"DO {loop.var} (loop {loop.loop_id}): PARALLEL by directive")
        return True

    # Profitability: a loop with fewer than two iterations gains nothing
    # from SPMDization and would mask parallelism in its body.
    try:
        trip = loop_context(loop, (), env).count
    except AccessError:
        trip = None
    if trip is not None and trip < 2:
        log.note(
            f"DO {loop.var} (loop {loop.loop_id}): serial "
            f"(trip count {trip}; not profitable)"
        )
        return False

    reductions = find_reductions(loop)
    red_names = [r for r, _ in reductions]
    # One record of the body serves the summary and the ART.
    record = record_accesses(loop.body, unit.symtab, env)
    body_sum = summarize_record(record)
    private = [
        name
        for name in find_private_scalars(loop, body_sum, exclude=red_names)
        if name not in live_after
    ]

    blocked = None
    for s in body_sum.scalars.values():
        if s.written and s.name not in private and s.name not in red_names:
            blocked = f"shared scalar {s.name} is written"
            break

    if blocked is None:
        report = test_loop_parallel(loop, unit.symtab, (), env, record)
        if not report.independent:
            blocked = "; ".join(report.conflicts) or "dependence"

    if blocked is None:
        loop.parallel = True
        loop.reductions = reductions
        loop.private = private
        log.note(
            f"DO {loop.var} (loop {loop.loop_id}): PARALLEL"
            + (f", reductions={reductions}" if reductions else "")
            + (f", private={private}" if private else "")
        )
        return True

    log.note(f"DO {loop.var} (loop {loop.loop_id}): serial ({blocked})")
    return False
