"""Pinned access analysis: summary sets and ART access lists of a corpus.

For every loop of the corpus this hashes a canonical dump of

* the summary set of its body in the region context ``[pctx]``,
* the summary set in each rank's context at 4 ranks, block and cyclic,
* the summary set at each iteration value (loops of ≤ 64 iterations),
* the Access Region Test's access list (``art_accesses``),

so a change to how accesses are walked, linearized or classified shows
up as a changed digest.  Each body is recorded once and replayed per
context, as the planner and the verifier do; the per-iteration replays
substitute the bound index into offsets derived with it symbolic, and
``test_bound_replay_equals_fresh_walk`` holds them to a walk made with
the index already bound.  The dump covers the LMAD lists in order, their
exactness, the exposed-read and conditional flags and the scalar
summaries; an :class:`AccessError` dumps as its message.

Regenerate with ``python tests/make_access_goldens.py`` only when the
analysis changes on purpose, and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.compiler.analysis.access import (
    AccessError,
    loop_context,
    record_accesses,
)
from repro.compiler.analysis.art import art_accesses
from repro.compiler.analysis.summary import (
    summarize_record,
    summarize_statements,
)
from repro.compiler.frontend import fast as F
from repro.compiler.frontend.lower import lower_program
from repro.compiler.frontend.parser import parse
from repro.compiler.postpass.partition import Partition
from repro.workloads import source_for

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "access_summaries.json"

WORKLOADS = ("MM-32", "SWIM-32", "CFFZINIT-9", "PXOVER-32", "XOVER-64")

#: Loops of at most this many iterations are summarized per value.
PER_ITER_MAX = 64

#: A nested subscript: the summary reads B twice, the ART once.
NESTED_SUBSCRIPT = """
      PROGRAM NESTED
      PARAMETER (N = 16)
      REAL*8 A(N)
      INTEGER B(N), C(N)
      DO I = 1, N
        B(I) = N + 1 - I
        C(I) = I
      ENDDO
      DO I = 1, N
        A(I) = A(B(I)) + 1.0
      ENDDO
      DO I = 1, N
        A(I) = A(B(C(I))) + 1.0
      ENDDO
      END
"""

#: Shapes the corpus barely has: triangular and non-affine inner bounds,
#: subscripts affine only once the loop index is bound, guarded writes,
#: scalar reads before and after writes, and PRINT.
CORNER_CASES = """
      PROGRAM CORNER
      PARAMETER (N = 12)
      REAL*8 A(N, N), X(N * N), Y(N), Z(N)
      DO I = 1, N
        DO J = I, N
          A(J, I) = I + J
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = 1, N / 2
          X(I * J) = Y(J)
          Y((I + 1) / 2) = Z(I) + X(2 * J)
        ENDDO
      ENDDO
      DO I = 2, N
        T = Z(I - 1)
        IF (T .GT. 0.5) THEN
          Z(I) = T
          S = Y(I)
        ELSE IF (T .LT. 0.1) THEN
          Y(I) = S
        ELSE
          A(I, I) = A(I - 1, I) + T
        ENDIF
        DO J = 1, I * I
          X(J) = Z(I)
        ENDDO
        DO J = I, I + 1
          Y(J) = Y(J) + X(J + I)
        ENDDO
      ENDDO
      DO I = N, 1, -2
        PRINT *, 'Y', Y(I), A(I, N + 1 - I)
        Z(I) = Y(I) * 2.0
      ENDDO
      END
"""


def corpus():
    """(name, source) of every program the golden covers."""
    out = [(spec, source_for(spec)) for spec in WORKLOADS]
    for folder in ("tests/badprogs", "examples"):
        for path in sorted((ROOT / folder).glob("*.f")):
            out.append((f"{folder}/{path.name}", path.read_text()))
    out.append(("nested-subscript", NESTED_SUBSCRIPT))
    out.append(("corner-cases", CORNER_CASES))
    return out


def _lmad_doc(l):
    dims = [[d.stride, d.span, d.index] for d in l.dims]
    return [l.array, l.base, dims, l.exact]


def summary_doc(summary):
    """Canonical dump of a SummarySet (dicts in insertion order)."""
    return {
        "arrays": [
            [
                a.array,
                [_lmad_doc(l) for l in a.reads],
                [_lmad_doc(l) for l in a.writes],
                a.exposed_read,
                a.conditional_write,
            ]
            for a in summary.arrays.values()
        ],
        "scalars": [
            [s.name, s.read, s.written, s.exposed_read]
            for s in summary.scalars.values()
        ],
    }


def accesses_doc(accesses):
    """Canonical dump of an ART access list."""
    return [
        [
            acc.kind,
            acc.name,
            None if acc.aff is None
            else [acc.aff.const, sorted(acc.aff.terms.items())],
            [[c.var, c.lo, c.hi, c.step, c.exact] for c in acc.inner],
            acc.conditional,
        ]
        for acc in accesses
    ]


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _summary_or_error(summarize, *args):
    try:
        return summary_doc(summarize(*args))
    except AccessError as exc:
        return f"AccessError: {exc}"


def _loops_with_outer(stmts, outer):
    """(loop, enclosing contexts) of every DO, outermost first.  An
    enclosing loop whose bounds do not resolve adds no context."""
    for stmt in stmts:
        if isinstance(stmt, F.Do):
            yield stmt, outer
            try:
                inner = outer + [loop_context(stmt, outer, {})]
            except AccessError:
                inner = outer
            yield from _loops_with_outer(stmt.body, inner)
        elif isinstance(stmt, F.If):
            for blk in [stmt.then] + [b for _c, b in stmt.elifs]:
                yield from _loops_with_outer(blk, outer)
            yield from _loops_with_outer(stmt.orelse, outer)


def loop_digests(loop, symtab, outer):
    """Digest per context kind of one loop body."""
    record = record_accesses(loop.body, symtab)
    try:
        pctx = loop_context(loop, outer, {})
    except AccessError as exc:
        pctx = None
        error = f"AccessError: {exc}"
    out = {"art": _digest(accesses_doc(art_accesses(record, pctx)))}
    if pctx is None:
        out["region"] = _digest(error)
        return out
    out["region"] = _digest(
        _summary_or_error(summarize_record, record, outer + [pctx])
    )
    for strategy in ("block", "cyclic"):
        part = Partition(pctx=pctx, nprocs=4, strategy=strategy)
        docs = []
        for r in range(4):
            rctx = part.rank_ctx(r)
            docs.append(
                None if rctx is None
                else _summary_or_error(summarize_record, record, outer + [rctx])
            )
        out[strategy] = _digest(docs)
    if pctx.count <= PER_ITER_MAX:
        out["iters"] = _digest([
            _summary_or_error(summarize_record, record, outer, {loop.var: v})
            for v in pctx.values()
        ])
    return out


def program_digests(source: str) -> dict:
    unit = lower_program(parse(source)).main
    return {
        f"{n}:DO {loop.var}": loop_digests(loop, unit.symtab, outer)
        for n, (loop, outer) in enumerate(_loops_with_outer(unit.body, []))
    }


def compute() -> dict:
    return {name: program_digests(src) for name, src in corpus()}


def test_golden_covers_the_corpus():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        name for name, _src in corpus()
    )


@pytest.mark.parametrize("name", [name for name, _src in corpus()])
def test_access_digests_match_golden(name):
    source = dict(corpus())[name]
    assert program_digests(source) == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", [name for name, _src in corpus()])
def test_bound_replay_equals_fresh_walk(name):
    """Substituting a bound index into a symbolic record gives the summary
    of a walk made with the index bound, at every iteration value."""
    unit = lower_program(parse(dict(corpus())[name])).main
    for loop, outer in _loops_with_outer(unit.body, []):
        try:
            pctx = loop_context(loop, outer, {})
        except AccessError:
            continue
        record = record_accesses(loop.body, unit.symtab)
        for v in list(pctx.values())[:PER_ITER_MAX]:
            bind = {loop.var: v}
            assert _summary_or_error(
                summarize_record, record, outer, bind
            ) == _summary_or_error(
                summarize_statements, loop.body, unit.symtab, outer, bind
            )


def test_nested_subscript_drift():
    """The summary reads B in ``A(B(I))`` twice, the ART once."""
    unit = lower_program(parse(NESTED_SUBSCRIPT)).main
    loop = unit.body[1]
    summary = summarize_statements(loop.body, unit.symtab)
    assert len(summary.arrays["B"].reads) == 2
    names = [a.name for a in art_accesses(record_accesses(loop.body, unit.symtab))]
    assert names == ["A", "B", "A"]
