"""Summary sets: classified access regions per program section (paper §4.2).

For a code section (loop body, loop, region) and each array we maintain
the three classified LMAD groups the paper defines:

* **ReadOnly** — regions only read;
* **WriteFirst** — regions written before any (possible) read;
* **ReadWrite** — regions read first, then read or written.

The postpass consumes the classification directly (§5.4): ReadOnly →
data-scattering, WriteFirst → data-collecting, ReadWrite → both.

Classification replays the section's access record (see
:func:`~repro.compiler.analysis.access.record_accesses`) in execution
order, tracking which regions have certainly been written (a read
covered by an earlier write in the same iteration is not *exposed*).
Values the caller binds (an iteration's index) are substituted into
offsets the record derived with them symbolic, which is exact; only a
reference affine just once bound (``I*J``) is re-derived.  Inner loops
resolve under the replay's contexts; one that does not keeps the
context, and its accesses degrade to whole-array.  Writes under IF
guards are treated as both read and written (scatter + collect), since a
slave that skips the guarded write must still hold current values for the
inflated collect regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.compiler.analysis.access import (
    AccessError,
    AccessRecord,
    LoopCtx,
    RefAccess,
    loop_context,
    offset_lmad,
    record_accesses,
    ref_offset_affine,
    whole_array,
)
from repro.compiler.analysis.lmad import LMAD
from repro.compiler.frontend import fast as F
from repro.compiler.frontend.symtab import SymbolTable

__all__ = [
    "READ_ONLY",
    "WRITE_FIRST",
    "READ_WRITE",
    "ArraySummary",
    "ScalarSummary",
    "SummarySet",
    "summarize_loop",
    "summarize_record",
    "summarize_statements",
]

READ_ONLY = "ReadOnly"
WRITE_FIRST = "WriteFirst"
READ_WRITE = "ReadWrite"


@dataclass
class ArraySummary:
    """Per-array regions and classification within one section."""

    array: str
    reads: List[LMAD] = field(default_factory=list)
    writes: List[LMAD] = field(default_factory=list)
    exposed_read: bool = False
    conditional_write: bool = False

    @property
    def classification(self) -> str:
        if not self.writes:
            return READ_ONLY
        if self.exposed_read or self.conditional_write:
            return READ_WRITE
        return WRITE_FIRST


@dataclass
class ScalarSummary:
    """Scalar usage inside a section (feeds privatization/reduction)."""

    name: str
    read: bool = False
    written: bool = False
    exposed_read: bool = False  # read before any write in the section


@dataclass
class SummarySet:
    """All array and scalar summaries for a section."""

    arrays: Dict[str, ArraySummary] = field(default_factory=dict)
    scalars: Dict[str, ScalarSummary] = field(default_factory=dict)

    def array(self, name: str) -> ArraySummary:
        if name not in self.arrays:
            self.arrays[name] = ArraySummary(name)
        return self.arrays[name]

    def scalar(self, name: str) -> ScalarSummary:
        if name not in self.scalars:
            self.scalars[name] = ScalarSummary(name)
        return self.scalars[name]

    def classified(self, cls: str) -> List[ArraySummary]:
        return [a for a in self.arrays.values() if a.classification == cls]


def summarize_record(
    record: AccessRecord,
    loops: Sequence[LoopCtx] = (),
    bind: Optional[Mapping[str, int]] = None,
) -> SummarySet:
    """Summary set of a recorded statement list under the given loop
    context; ``bind`` gives values to names the record left symbolic
    (it must not rebind a name of ``record.env``)."""
    bind = bind or {}
    env = {**record.env, **bind}
    summary = SummarySet()
    loops = list(loops)
    saved: List[List[LoopCtx]] = []
    #: Regions certainly written so far, per array.
    written: Dict[str, List[LMAD]] = {}
    scalar_written: Set[str] = set()

    def region(acc: RefAccess) -> LMAD:
        if acc.error is not None:
            if acc.sym is None or not acc.sym.is_array:
                raise AccessError(acc.error)
            return whole_array(acc.sym)
        if acc.offset is not None:
            return offset_lmad(acc.sym, acc.offset, loops, bind)
        # Not affine with the bindings symbolic; maybe with them bound.
        offset = ref_offset_affine(acc.ref, record.symtab, env) if bind else None
        if offset is None:
            return whole_array(acc.sym)
        return offset_lmad(acc.sym, offset, loops)

    for tag, arg in record.events:
        if tag == "array":
            lmad = region(arg)
            a = summary.array(arg.ref.name)
            if arg.kind == "r":
                a.reads.append(lmad)
                if not any(w.contains(lmad) for w in written.get(a.array, [])):
                    a.exposed_read = True
            else:
                a.writes.append(lmad)
                if arg.conditional:
                    a.conditional_write = True
                else:
                    written.setdefault(a.array, []).append(lmad)
        elif tag == "sread":
            if any(c.var == arg for c in loops):
                continue  # loop indices are implicitly private
            sc = summary.scalar(arg)
            sc.read = True
            if arg not in scalar_written:
                sc.exposed_read = True
        elif tag == "swrite":
            name, conditional = arg
            summary.scalar(name).written = True
            if not conditional:
                scalar_written.add(name)
        elif tag == "do":
            saved.append(loops)
            try:
                loops = loops + [loop_context(arg, loops, env)]
            except AccessError:
                # Bounds depend on symbols outside this context (e.g. the
                # index of a loop we are summarizing the body of); keep the
                # context as-is — array refs degrade to whole-array.
                pass
        elif tag == "end":
            loops = saved.pop()
        elif tag == "call":  # pragma: no cover - inlined earlier
            raise AccessError("CALL must be inlined before summarization")
    return summary


def summarize_statements(
    stmts: Sequence[F.Stmt],
    symtab: SymbolTable,
    loops: Sequence[LoopCtx] = (),
    env: Optional[Mapping[str, int]] = None,
) -> SummarySet:
    """Summary set of a statement sequence under the given loop context."""
    return summarize_record(record_accesses(stmts, symtab, env), loops)


def summarize_loop(
    loop: F.Do,
    symtab: SymbolTable,
    outer: Sequence[LoopCtx] = (),
    env: Optional[Mapping[str, int]] = None,
) -> Tuple[SummarySet, LoopCtx]:
    """Summary set of a whole loop (its body expanded by its own index)."""
    ctx = loop_context(loop, outer, env or {})
    return summarize_statements(loop.body, symtab, [*outer, ctx], env), ctx
