"""Extract LMADs from array references inside loop nests (paper §4.1).

The subscript tuple of a reference is linearized against the array's
column-major layout into a single affine offset expression; every loop
index with a non-zero coefficient contributes one LMAD dimension with
stride ``coef * step`` and count ``niter``.  Non-affine subscripts fall
back to a conservative whole-array descriptor.

:func:`record_accesses` is the one walk of a statement list for its
accesses; summaries, the Access Region Test and the AVPG replay its
record instead of re-walking and re-linearizing the AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.analysis.intaffine import Affine, affine_from_expr
from repro.compiler.analysis.lmad import LMAD
from repro.compiler.frontend import fast as F
from repro.compiler.frontend.lower import expr_as_int
from repro.compiler.frontend.symtab import Symbol, SymbolTable

__all__ = [
    "AccessError",
    "AccessRecord",
    "LoopCtx",
    "RefAccess",
    "loop_context",
    "offset_lmad",
    "record_accesses",
    "ref_lmad",
    "ref_offset_affine",
    "whole_array",
]


class AccessError(ValueError):
    """Reference cannot be summarized even conservatively."""


@dataclass(frozen=True)
class LoopCtx:
    """One enclosing loop with concrete (possibly widened) bounds.

    ``exact`` is False when the bounds were widened to cover a
    triangular/imperfect nest conservatively.
    """

    var: str
    lo: int
    hi: int
    step: int
    exact: bool = True

    @property
    def count(self) -> int:
        if self.step > 0:
            n = (self.hi - self.lo) // self.step + 1
        else:
            n = (self.lo - self.hi) // (-self.step) + 1
        return max(0, n)

    def values(self) -> range:
        return range(self.lo, self.hi + (1 if self.step > 0 else -1), self.step)


def _bound(
    expr: F.Expr, outer: Sequence[LoopCtx], env: Mapping[str, int], widest
) -> Tuple[Optional[int], bool]:
    """(value, exact) of a loop bound.  A bound affine in outer loop
    indices widens to ``widest`` (min or max) over their iteration space.
    """
    value = expr_as_int(expr)
    if value is not None:
        return value, True
    aff = affine_from_expr(expr, env)
    if aff is None:
        return None, False
    total = aff.const
    by_var: Dict[str, LoopCtx] = {c.var: c for c in outer}
    for v, coef in aff.terms.items():
        ctx = by_var.get(v)
        if ctx is None:
            return None, False  # a non-loop symbol with unknown value
        last = ctx.lo + ctx.step * (ctx.count - 1)
        total += widest(coef * ctx.lo, coef * last)
    return total, aff.is_const


def loop_context(
    loop: F.Do,
    outer: Sequence[LoopCtx] = (),
    env: Optional[Mapping[str, int]] = None,
) -> LoopCtx:
    """Concrete bounds for a loop, widening over outer indices if needed."""
    env = env or {}
    step = expr_as_int(loop.step)
    if step is None or step == 0:
        raise AccessError(f"DO {loop.var}: non-constant step")
    lo, lo_exact = _bound(loop.lo, outer, env, min if step > 0 else max)
    hi, hi_exact = _bound(loop.hi, outer, env, max if step > 0 else min)
    if lo is None or hi is None:
        raise AccessError(
            f"DO {loop.var}: bounds not resolvable to integers "
            f"({loop.lo} .. {loop.hi})"
        )
    return LoopCtx(loop.var, lo, hi, step, exact=lo_exact and hi_exact)


def whole_array(sym: Symbol) -> LMAD:
    """Conservative descriptor covering the entire array."""
    return LMAD.from_counts(sym.name, 0, [(1, sym.size)], exact=False)


def ref_offset_affine(
    ref: F.ArrayRef,
    symtab: SymbolTable,
    env: Optional[Mapping[str, int]] = None,
) -> Optional[Affine]:
    """The raw linearized offset of a reference as an affine expression.

    Loop indices stay symbolic; returns None when any subscript is
    non-affine.  This is the form the Access Region Test consumes.
    """
    sym = symtab.lookup(ref.name)
    if sym is None or not sym.is_array:
        raise AccessError(f"{ref.name} is not a declared array")
    if len(ref.subs) != sym.rank:
        raise AccessError(
            f"{ref.name}: {len(ref.subs)} subscripts for rank {sym.rank}"
        )
    env = env or {}
    offset = Affine.constant(0)
    for sub, (lower, _), mult in zip(ref.subs, sym.dims, sym.multipliers()):
        aff = affine_from_expr(sub, env)
        if aff is None:
            return None
        offset = offset + (aff - Affine.constant(lower)).scale(mult)
    return offset


def offset_lmad(
    sym: Symbol,
    offset: Affine,
    loops: Sequence[LoopCtx],
    bind: Optional[Mapping[str, int]] = None,
) -> LMAD:
    """The LMAD of a linearized offset under the given enclosing loops.

    Names in ``bind`` take their bound value (the exact substitution of
    a binding the offset was derived without); any other name that is
    not a loop index yields the whole-array descriptor.
    """
    bind = bind or {}
    loop_by_var = {c.var: c for c in loops}
    base = offset.const
    for v, coef in offset.terms.items():
        if v in bind:
            base += coef * bind[v]
        elif v in loop_by_var:
            base += coef * loop_by_var[v].lo
        else:
            return whole_array(sym)
    dims: List[Tuple[int, int]] = []
    indices: List[str] = []
    exact = True
    for c in loops:
        coef = 0 if c.var in bind else offset.coef(c.var)
        if coef == 0 or c.count <= 1:
            continue
        dims.append((coef * c.step, c.count))
        indices.append(c.var)
        exact = exact and c.exact
    lmad = LMAD.from_counts(sym.name, base, dims, indices, exact=exact)
    if lmad.min_offset < 0 or lmad.max_offset >= sym.size:
        # Widened (triangular) bounds can step outside the array; clamp to
        # the whole array conservatively.
        return whole_array(sym)
    return lmad


def ref_lmad(
    ref: F.ArrayRef,
    symtab: SymbolTable,
    loops: Sequence[LoopCtx],
    env: Optional[Mapping[str, int]] = None,
) -> LMAD:
    """The LMAD of one reference under the given enclosing loops.

    ``env`` supplies integer values for non-loop scalars appearing in
    subscripts; unresolvable subscripts yield the whole-array descriptor.
    """
    offset = ref_offset_affine(ref, symtab, env)
    sym = symtab.lookup(ref.name)
    if offset is None:
        return whole_array(sym)
    return offset_lmad(sym, offset, loops)


# ---------------------------------------------------------------------------
# The access record: one walk of a statement list
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefAccess:
    """One array reference, linearized once under the record's env.

    ``offset`` is None when a subscript is not affine with the replay's
    bindings left symbolic, or when the reference is malformed (then
    ``error`` holds the :class:`AccessError` message).  ``echo`` marks
    the summary's second read of a subscript nested in a subscript.
    """

    kind: str  # "r" | "w"
    ref: F.ArrayRef
    sym: Optional[Symbol]
    offset: Optional[Affine]
    error: Optional[str]
    conditional: bool
    echo: bool


@dataclass(frozen=True)
class AccessRecord:
    """The accesses of a statement list, in Fortran execution order.

    Each event is ``(tag, arg)``: ``("array", RefAccess)``,
    ``("sread", name)``, ``("swrite", (name, conditional))``, an inner
    loop's ``("do", F.Do)`` ... ``("end", None)`` around its body's
    events, and ``("call", F.Call)``.
    """

    symtab: SymbolTable
    env: Mapping[str, int]
    events: Tuple[Tuple[str, object], ...]


def record_accesses(
    stmts: Sequence[F.Stmt],
    symtab: SymbolTable,
    env: Optional[Mapping[str, int]] = None,
) -> AccessRecord:
    """Walk ``stmts`` once and record every access, in execution order.

    Per assignment the right-hand side is read first, then the
    left-hand side's subscripts, then the left-hand side is written;
    an IF reads its conditions and makes its branches conditional.
    Each array read is followed by reads of its subscripts, so a
    subscript nested in another is read twice: there (an ``echo``)
    and again when the expression walk reaches it.  Reads of
    PARAMETERs and whole arrays are not recorded.
    """
    env = dict(env or {})
    events: List[Tuple[str, object]] = []

    def array(kind: str, ref: F.ArrayRef, conditional: bool, echo: bool):
        try:
            offset, error = ref_offset_affine(ref, symtab, env), None
        except AccessError as exc:
            offset, error = None, str(exc)
        sym = symtab.lookup(ref.name)
        acc = RefAccess(kind, ref, sym, offset, error, conditional, echo)
        events.append(("array", acc))

    def read(expr: F.Expr, conditional: bool, echo: bool = False) -> None:
        for node in F.walk_exprs(expr):
            if isinstance(node, F.ArrayRef):
                array("r", node, conditional, echo)
                for sub in node.subs:
                    read(sub, conditional, True)
            elif isinstance(node, F.Var):
                sym = symtab.lookup(node.name)
                if sym is None or not (sym.is_param or sym.is_array):
                    events.append(("sread", node.name))

    def walk(stmts: Sequence[F.Stmt], conditional: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, F.Assign):
                read(stmt.rhs, conditional)
                if isinstance(stmt.lhs, F.ArrayRef):
                    for sub in stmt.lhs.subs:
                        read(sub, conditional)
                    array("w", stmt.lhs, conditional, False)
                else:
                    events.append(("swrite", (stmt.lhs.name, conditional)))
            elif isinstance(stmt, F.Do):
                events.append(("do", stmt))
                walk(stmt.body, conditional)
                events.append(("end", None))
            elif isinstance(stmt, F.If):
                read(stmt.cond, conditional)
                walk(stmt.then, True)
                for c, blk in stmt.elifs:
                    read(c, conditional)
                    walk(blk, True)
                walk(stmt.orelse, True)
            elif isinstance(stmt, F.PrintStmt):
                for item in stmt.items:
                    if not isinstance(item, F.Str):
                        read(item, conditional)
            elif isinstance(stmt, F.Call):
                events.append(("call", stmt))

    walk(stmts, False)
    return AccessRecord(symtab, env, tuple(events))
