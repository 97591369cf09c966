"""Tests for the communication planner: scatter/collect plans, AVPG
filtering, broadcast detection, demotion, and triangular regions."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_source
from repro.compiler.postpass.granularity import COARSE, FINE, MIDDLE
from repro.compiler.postpass.spmd import ParRegion, iter_regions
from repro.runtime.executor import run_program, run_sequential
from repro.workloads import cffzinit, mm, synthetic

MM16 = mm.source(16)


def plans_for(src, **kw):
    prog = compile_source(src, **kw)
    return prog, prog.plans


def par_regions(prog):
    return [r for r in iter_regions(prog.regions) if isinstance(r, ParRegion)]


def test_mm_classifications_and_roles():
    prog, plans = plans_for(MM16, nprocs=4, granularity="fine")
    plan = plans[par_regions(prog)[0].region_id]
    assert plan.arrays["A"].classification == "ReadOnly"
    assert plan.arrays["B"].classification == "ReadOnly"
    assert plan.arrays["C"].classification == "WriteFirst"
    assert not plan.arrays["A"].collect  # ReadOnly: scatter only
    assert not plan.arrays["C"].scatter  # WriteFirst: collect only


def test_mm_b_matrix_becomes_broadcast():
    prog, plans = plans_for(MM16, nprocs=4, granularity="fine")
    plan = plans[par_regions(prog)[0].region_id]
    assert plan.arrays["B"].scatter_bcast
    assert any("broadcast" in n for n in plan.notes)


def test_mm_coarse_demotes_collect_of_interleaved_rows():
    """Row-block C regions interleave across columns: coarse bounding
    boxes overlap, so the §5.6 check falls back to fine."""
    prog, plans = plans_for(MM16, nprocs=4, granularity="coarse")
    aplan = plans[par_regions(prog)[0].region_id].arrays["C"]
    assert aplan.grain == COARSE
    assert aplan.collect_grain == FINE
    assert "overlap" in aplan.demotion_reason


def test_single_rank_has_no_communication():
    prog, plans = plans_for(MM16, nprocs=1)
    plan = plans[par_regions(prog)[0].region_id]
    assert plan.total_messages() == 0


def test_cffzinit_middle_not_demoted():
    """Stride-2 pairs union to contiguous coverage: middle collect safe."""
    prog, plans = plans_for(cffzinit.source(6), nprocs=4, granularity="middle")
    region = par_regions(prog)[0]
    aplan = plans[region.region_id].arrays["TRIG"]
    assert aplan.collect_grain == MIDDLE
    assert aplan.demotion_reason is None
    # And at fine grain the same collects are strided.
    prog2, plans2 = plans_for(cffzinit.source(6), nprocs=4, granularity="fine")
    aplan2 = plans2[par_regions(prog2)[0].region_id].arrays["TRIG"]
    strided = [
        t for ts in aplan2.collect.values() for t in ts if not t.contiguous
    ]
    assert strided


def test_isolated_stride_write_demotes_middle_collect():
    """A lone stride-3 write: middle inflation would carry stale bytes."""
    prog, plans = plans_for(
        synthetic.stride_kernel(32, 3), nprocs=4, granularity="middle"
    )
    regions = par_regions(prog)
    aplan = plans[regions[1].region_id].arrays["A"]
    assert aplan.collect_grain == FINE
    assert "stale" in aplan.demotion_reason


def test_avpg_scatter_elimination_between_loops():
    """Second loop re-reads A unchanged: its scatter is eliminated."""
    src = """
      PROGRAM P
      PARAMETER (N = 32)
      REAL*8 A(N), B(N), C(N)
      INTEGER I
      DO I = 1, N
        A(I) = DBLE(I)
      ENDDO
      DO I = 1, N
        B(I) = A(I) + 1.0
      ENDDO
      DO I = 1, N
        C(I) = A(I) * 2.0
      ENDDO
      END
"""
    prog, plans = plans_for(src, nprocs=4, granularity="fine")
    regions = par_regions(prog)
    # Loop 2 scatters A to slaves (each needs only its block, which it
    # already holds from its own loop-1 writes... actually loop 1 wrote A,
    # so slaves hold their own blocks; reads in loops 2/3 are block-local).
    plan2 = plans[regions[1].region_id].arrays["A"]
    plan3 = plans[regions[2].region_id].arrays["A"]
    # Slaves computed their own A blocks in loop 1: both later scatters
    # are eliminated by the validity mask.
    assert not plan2.scatter
    assert len(plan2.scatter_skipped) == 3
    assert not plan3.scatter
    assert len(plan3.scatter_skipped) == 3


def test_scatter_needed_after_master_writes():
    """A master (sequential) write invalidates slave copies."""
    src = """
      PROGRAM P
      PARAMETER (N = 32)
      REAL*8 A(N), B(N)
      INTEGER I
      DO I = 1, N
        A(I) = DBLE(I)
      ENDDO
      A(20) = -1.0
      DO I = 1, N
        B(I) = A(I) + 1.0
      ENDDO
      END
"""
    prog, plans = plans_for(src, nprocs=4, granularity="fine")
    regions = par_regions(prog)
    plan2 = plans[regions[1].region_id].arrays["A"]
    # Element 20 lives in rank 2's block: that slave is re-scattered;
    # the other slaves' copies remain valid.
    assert list(plan2.scatter) == [2]
    assert sorted(plan2.scatter_skipped) == [1, 3]


def test_collect_elimination_with_live_out():
    src = synthetic.avpg_chain(32)
    prog, plans = plans_for(
        src, nprocs=4, granularity="fine", live_out=frozenset({"D"})
    )
    regions = par_regions(prog)
    # B is written in loop 0 and never used again: collect eliminated.
    plan0 = plans[regions[0].region_id]
    assert plan0.arrays["B"].collect_skipped is not None
    assert not plan0.arrays["B"].collect
    # A is used later: collected.
    assert plan0.arrays["A"].collect or plan0.arrays["A"].collect_skipped is None


def test_collect_kept_by_default_liveness():
    prog, plans = plans_for(synthetic.avpg_chain(32), nprocs=4)
    regions = par_regions(prog)
    plan0 = plans[regions[0].region_id]
    assert plan0.arrays["B"].collect  # default: everything observable


def test_triangular_loop_cyclic_and_exact_collect():
    """Triangular nest: cyclic partition, per-iteration exact regions,
    and a value-correct run."""
    src = synthetic.triangular_kernel(12)
    prog = compile_source(src, nprocs=3, granularity="fine")
    region = par_regions(prog)[0]
    assert region.partition.strategy == "cyclic"
    seq = run_sequential(prog)
    par = run_program(prog)
    assert np.array_equal(
        par.memory.array("L"), seq.memory.array("L")
    )


def test_triangular_coarse_demoted_when_overlapping():
    prog = compile_source(
        synthetic.triangular_kernel(12), nprocs=3, granularity="coarse"
    )
    region = par_regions(prog)[0]
    aplan = prog.plans[region.region_id].arrays["L"]
    # Cyclic column ownership interleaves: coarse regions overlap.
    assert aplan.collect_grain == FINE
    par = run_program(prog)
    seq = run_sequential(prog)
    assert np.array_equal(par.memory.array("L"), seq.memory.array("L"))


def test_scalars_in_recorded():
    src = """
      PROGRAM P
      PARAMETER (N = 16)
      REAL*8 A(N)
      REAL*8 ALPHA
      INTEGER I
      ALPHA = 2.5
      DO I = 1, N
        A(I) = ALPHA * DBLE(I)
      ENDDO
      END
"""
    prog, plans = plans_for(src, nprocs=4)
    region = par_regions(prog)[0]
    assert "ALPHA" in plans[region.region_id].scalars_in


def test_plan_message_and_byte_accounting():
    prog, plans = plans_for(MM16, nprocs=2, granularity="fine")
    plan = plans[par_regions(prog)[0].region_id]
    total = plan.total_messages()
    assert total == sum(
        a.scatter_messages() + a.collect_messages()
        for a in plan.arrays.values()
    )
    assert plan.total_bytes() > 0


# ---------------------------------------------------------------------------
# Per-planner memo of per-rank summaries (fixpoint revisits reuse them)
# ---------------------------------------------------------------------------

def _count_rank_work(monkeypatch):
    """Record (visits, per-rank summarize keys, per-iteration mask keys)
    of every planner run while the fixture is active."""
    import sys

    from repro.compiler.postpass import scatter

    visits, summaries, masks = [], [], []
    real_summarize = scatter.summarize_statements
    real_rank_regions = scatter.CommPlanner._rank_regions
    real_masks = scatter.CommPlanner._per_iteration_masks

    def summarize(stmts, symtab, ctxs, bindings):
        if sys._getframe(1).f_code.co_name == "_summaries_per_rank":
            summaries.append((id(stmts), tuple(ctxs)))
        return real_summarize(stmts, symtab, ctxs, bindings)

    def rank_regions(self, loop, partition, region_summary):
        visits.append((id(loop), partition))
        return real_rank_regions(self, loop, partition, region_summary)

    def per_iteration_masks(self, loop, rctx, stmts, base):
        masks.append((id(loop), rctx))
        return real_masks(self, loop, rctx, stmts, base)

    monkeypatch.setattr(scatter, "summarize_statements", summarize)
    monkeypatch.setattr(scatter.CommPlanner, "_rank_regions", rank_regions)
    monkeypatch.setattr(
        scatter.CommPlanner, "_per_iteration_masks", per_iteration_masks
    )
    return visits, summaries, masks


def _plans_digest(plans) -> str:
    import hashlib
    from dataclasses import asdict

    from repro.sweep.cache import canonical_json

    doc = {str(rid): asdict(p) for rid, p in plans.items()}
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def test_rank_summaries_once_per_planner_swim(monkeypatch):
    """SWIM's time loop makes the fixpoint revisit every region; each
    (loop, partition, rank) is still summarized once, and the program —
    Fortran, plans, simulated seconds and array digest — is unchanged
    (values pinned before the memo existed)."""
    import hashlib

    from repro.compiler.pipeline import clear_compile_cache
    from repro.workloads import source_for

    clear_compile_cache()
    visits, summaries, _masks = _count_rank_work(monkeypatch)
    prog = compile_source(source_for("SWIM-64"), nprocs=16)
    monkeypatch.undo()
    assert len(visits) > len(set(visits))  # the fixpoint did revisit
    assert summaries and len(summaries) == len(set(summaries))
    assert len(summaries) == 16 * len(set(visits))
    assert hashlib.sha256(prog.fortran.encode()).hexdigest() == (
        "caa27b23ec81f30c959b1e13eb411950ea9a88666502ba0ccc112ad120d6a2e8"
    )
    assert sorted(prog.plans) == [1, 3, 4, 5]
    assert _plans_digest(prog.plans) == (
        "59e6d38e2ac39d24ff10019d25034a7da9c460779e09be475d5701e8dd51817c"
    )
    rep = run_program(prog, execute=True)
    assert rep.total_s == 0.02744831999999858
    assert rep.array_digest() == (
        "dce53dfa13b90b4f2d2ced6a7a63abc7bfee0bd9e834638d3757571014407364"
    )


TRIANGULAR_IN_TIME_LOOP = """
      PROGRAM TRIT
      PARAMETER (N = 12)
      REAL*8 L(N,N)
      INTEGER I, J, T
      DO T = 1, 3
        DO I = 1, N
          DO J = 1, I
            L(J,I) = DBLE(I + T) + 0.001 * DBLE(J)
          ENDDO
        ENDDO
      ENDDO
      PRINT *, L(1,1), L(N,N)
      END
"""


def test_per_iteration_masks_once_per_planner(monkeypatch):
    """Widened (triangular) regions keep their exact per-iteration masks
    across revisits; the plans equal those of a planner that re-derives
    everything on every visit."""
    from repro.compiler.pipeline import clear_compile_cache
    from repro.compiler.postpass import scatter

    clear_compile_cache()
    visits, _summaries, masks = _count_rank_work(monkeypatch)
    memo = compile_source(TRIANGULAR_IN_TIME_LOOP, nprocs=3)
    monkeypatch.undo()
    assert len(visits) > len(set(visits))
    assert masks and len(masks) == len(set(masks))
    assert len(masks) == 3 * len(set(visits))

    real = scatter.CommPlanner._summaries_per_rank

    def forgetful(self, loop, partition):
        self._rank_summaries.clear()
        return real(self, loop, partition)

    clear_compile_cache()
    monkeypatch.setattr(
        scatter.CommPlanner, "_summaries_per_rank", forgetful
    )
    again = compile_source(TRIANGULAR_IN_TIME_LOOP, nprocs=3)
    monkeypatch.undo()
    clear_compile_cache()
    assert again.fortran == memo.fortran
    assert _plans_digest(again.plans) == _plans_digest(memo.plans)
    seq = run_sequential(memo)
    par = run_program(memo)
    assert np.array_equal(par.memory.array("L"), seq.memory.array("L"))
