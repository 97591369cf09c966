"""Additional MPI-2 coverage: requests, Ethernet collectives, hypothesis
properties on collective results."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi2 import SUM
from repro.vbus.params import ClusterParams, ETHERNET_100, cluster_for

from tests.mpiutil import run_ranks


def test_request_test_and_double_wait():
    def body(comm, rank):
        if rank == 0:
            req = comm.isend("payload", dest=1)
            assert req.test() in (True, False)
            yield from req.wait()
            assert req.test() is True
        else:
            data = yield from comm.recv(source=0)
            return data

    results, _rt, _cl = run_ranks(2, body)
    assert results[1] == "payload"


def test_collectives_over_ethernet():
    """The MPI layer is interconnect-agnostic: same results on Ethernet."""

    def body(comm, rank):
        data = yield from comm.bcast("x" if rank == 0 else None, root=0)
        total = yield from comm.allreduce(rank, SUM)
        gathered = yield from comm.gather(rank * rank, root=1)
        return data, total, gathered

    results, _rt, cl = run_ranks(4, body, params=cluster_for(4, ETHERNET_100))
    for r in range(4):
        assert results[r][0] == "x"
        assert results[r][1] == 6
    assert results[1][2] == [0, 1, 4, 9]
    assert cl.network.messages > 0


def test_barrier_heavy_sequence():
    """Many consecutive barriers stay matched and cheap."""

    def body(comm, rank):
        for _ in range(20):
            yield from comm.barrier()
        return comm.sim.now

    results, rt, _cl = run_ranks(4, body)
    times = set(results.values())
    assert len(times) == 1  # everyone exits the last barrier together
    assert rt.comm(0)._state.slots == {}


@settings(max_examples=30, deadline=None)
@given(
    nprocs=st.integers(1, 5),
    root=st.data(),
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
)
def test_property_allreduce_matches_numpy(nprocs, root, values):
    """Simulated Allreduce(SUM) of per-rank vectors == numpy's sum."""
    vec = np.array(values)

    def body(comm, rank):
        out = yield from comm.allreduce(vec * (rank + 1), SUM)
        return out

    results, _rt, _cl = run_ranks(nprocs, body)
    expected = vec * sum(r + 1 for r in range(nprocs))
    for r in range(nprocs):
        assert np.allclose(results[r], expected)


@settings(max_examples=25, deadline=None)
@given(nprocs=st.integers(2, 5), root=st.integers(0, 4))
def test_property_bcast_any_root(nprocs, root):
    root = root % nprocs

    def body(comm, rank):
        payload = {"v": 42} if rank == root else None
        out = yield from comm.bcast(payload, root=root)
        return out["v"]

    results, _rt, _cl = run_ranks(nprocs, body)
    assert all(v == 42 for v in results.values())


def test_elif_region_execution():
    """Replicated ELSE IF control in a compiled program."""
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program, run_sequential

    src = """
      PROGRAM P
      PARAMETER (N = 16)
      REAL*8 A(N)
      INTEGER MODE, I
      MODE = 2
      IF (MODE .EQ. 1) THEN
        DO I = 1, N
          A(I) = 1.0
        ENDDO
      ELSE IF (MODE .EQ. 2) THEN
        DO I = 1, N
          A(I) = 2.0
        ENDDO
      ELSE
        DO I = 1, N
          A(I) = 3.0
        ENDDO
      ENDIF
      END
"""
    prog = compile_source(src, nprocs=4)
    seq = run_sequential(prog)
    par = run_program(prog)
    assert np.array_equal(par.memory.array("A"), seq.memory.array("A"))
    assert par.memory.array("A")[0] == 2.0
