"""MPI-2 memory windows: one-sided Put/Get/Accumulate, Fence, Lock.

This is the primitive set the parallelizing compiler targets.  Semantics
follow the MPI-2 fence-epoch discipline:

* ``put``/``get``/``accumulate`` *initiate* a transfer.  Data values move
  logically at initiation (the origin buffer is captured, the target
  window is updated immediately in the functional model), but the
  *hardware* leg — DMA or PIO plus the wire — completes asynchronously.
* ``fence`` closes the epoch: each rank first drains its own outstanding
  hardware legs, then joins a barrier.  Time spent draining is exactly the
  paper's "fence wait"; a program that computes between initiation and
  fence gets the DMA overlap for free.
* Contiguous transfers (``stride == 1``) ride the DMA engine; strided ones
  use programmed I/O and occupy the CPU for every element — the paper's
  contiguous vs. stride ``MPI_PUT``/``MPI_GET`` distinction.

Correct usage (which the compiler guarantees) never reads window memory
that a concurrent epoch is writing, so apply-at-initiation is
value-equivalent to apply-at-fence.

The window synchronization model, as the paper uses it
------------------------------------------------------

The compiler emits exactly two synchronization patterns:

* **Fence epochs** for data movement: scatter (master puts to slaves) →
  fence → compute → collect (slaves put to master) → fence.  Because a
  put only *initiates* its hardware leg, all of a rank's puts inside an
  epoch overlap each other (and any compute issued before the fence) on
  the DMA engine; the fence then pays only the *residual* wait — this is
  the paper's "data from the user buffer can be copied ... without
  interrupting the processor".  :meth:`Win.drain` is the fence's
  drain-own-legs half without the barrier, letting the executor fence
  many windows with a single shared barrier.
* **Lock/accumulate** for reduction combine: each slave takes
  ``MPI_WIN_LOCK`` on the master's scalar window, ``MPI_ACCUMULATE``-s
  its partial, and unlocks.  Exclusive locks serialize the combines;
  the lock resource's contention is visible as ``resource.wait.win.lock``
  metrics when tracing.

Passive-target lock epochs and fence epochs are never mixed on the same
window by generated code; the model does not need ``MPI_WIN_POST`` /
``MPI_WIN_START`` generality.

With a tracer attached (``sim.tracer``), every initiation, fence, drain,
and lock shows up as a span on the calling rank's track — the per-phase
DMA/PIO overlap the paper could only infer is directly visible in the
Chrome-trace export (docs/TRACE_FORMAT.md).
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional

import numpy as np

from repro.mpi2.exceptions import MpiError
from repro.mpi2.ops import ReduceOp
from repro.sim import AllOf, Event, Resource

__all__ = ["Win"]


class _WinState:
    """Shared state of one window: every rank's exposed buffer."""

    def __init__(self, cluster, buffers: List[np.ndarray]):
        if len(buffers) != cluster.nprocs:
            raise MpiError(
                f"need one buffer per rank ({cluster.nprocs}), got {len(buffers)}"
            )
        for b in buffers:
            if not isinstance(b, np.ndarray) or b.ndim != 1:
                raise MpiError("window buffers must be 1-D numpy arrays")
        self.cluster = cluster
        self.buffers = buffers
        self.locks = [
            Resource(cluster.sim, capacity=1, obs_name=f"win.lock.{r}")
            for r in range(len(buffers))
        ]


class Win:
    """Per-rank handle to a memory window (create via :meth:`create`)."""

    def __init__(self, state: _WinState, comm):
        self._state = state
        self._comm = comm
        self.rank = comm.rank
        #: Open hardware legs: stepwise wire Processes or fast-path
        #: completion Events — both are events with ``triggered``.
        self._outstanding: List[Event] = []
        #: Counters, split by primitive flavour (feeds Table 2's analysis).
        self.puts_contig = 0
        self.puts_strided = 0
        self.gets_contig = 0
        self.gets_strided = 0
        self.bytes_moved = 0
        #: Simulated seconds spent waiting in fences (drain + barrier).
        self.fence_wait_s = 0.0
        #: Mirrors Comm's construction-time tracer cache (hot-path guard).
        self._tracer = comm._tracer

    # -- creation -----------------------------------------------------------
    @classmethod
    def create(cls, comms, buffers: List[np.ndarray]) -> List["Win"]:
        """Collectively create a window over per-rank buffers.

        ``comms`` is the list of per-rank :class:`~repro.mpi2.comm.Comm`
        facades (the runtime holds them all); returns one :class:`Win`
        facade per rank, sharing state.
        """
        if not comms:
            raise MpiError("need at least one communicator")
        state = _WinState(comms[0]._state.cluster, buffers)
        return [cls(state, c) for c in comms]

    # -- local access ---------------------------------------------------------
    @property
    def local(self) -> np.ndarray:
        """This rank's exposed buffer (local loads/stores are free)."""
        return self._state.buffers[self.rank]

    def buffer(self, rank: int) -> np.ndarray:
        """Direct (test/debug) view of any rank's buffer."""
        return self._state.buffers[rank]

    # -- validation -----------------------------------------------------------
    def _check_span(self, target: int, offset: int, count: int, stride: int):
        if not 0 <= target < len(self._state.buffers):
            raise MpiError(f"target rank {target} out of range")
        if count < 0:
            raise MpiError("negative count")
        if stride < 1:
            raise MpiError(f"stride must be >= 1, got {stride}")
        buf = self._state.buffers[target]
        if count and not (0 <= offset and offset + (count - 1) * stride < buf.size):
            raise MpiError(
                f"access [{offset}:{offset + (count - 1) * stride}] outside "
                f"window of size {buf.size} on rank {target}"
            )

    def _indices(self, offset: int, count: int, stride: int) -> slice:
        if stride == 1:
            return slice(offset, offset + count)
        return slice(offset, offset + (count - 1) * stride + 1, stride)

    # -- one-sided operations ----------------------------------------------
    def put(
        self,
        data: Optional[np.ndarray],
        target: int,
        offset: int = 0,
        stride: int = 1,
        count: Optional[int] = None,
        itemsize: int = 8,
    ) -> Generator:
        """MPI_PUT: write ``data`` into ``target``'s window.

        ``stride == 1`` is a contiguous put (DMA); ``stride > 1`` writes
        every ``stride``-th element (programmed I/O).  ``data=None`` with
        an explicit ``count`` performs the hardware leg without moving
        values (the runtime's timing-only mode).
        """
        yield from self.put_all(
            [(data, target, offset, stride, count)], itemsize
        )

    def put_all(self, puts: Iterable[tuple], itemsize: int = 8) -> Generator:
        """MPI_PUT each ``(data, target, offset, stride, count)`` of
        ``puts`` in order, as a loop of :meth:`put` calls would.

        ``puts`` is read lazily: each put is fetched, and its payload
        read, when the previous put's blocking phase ends.  On the fast
        path the whole loop is one put stream (see
        :meth:`~repro.vbus.cluster.Cluster.rma_legs`), so the caller
        yields once.
        """
        yield from self._state.cluster.rma_legs(
            self.rank, self._put_legs(puts, itemsize)
        )

    def _put_legs(self, puts: Iterable[tuple], itemsize: int) -> Generator:
        """The ``rma_legs`` coroutine of :meth:`put_all`."""
        for data, target, offset, stride, count in puts:
            size = itemsize
            if data is not None:
                data = np.ascontiguousarray(data).ravel()
                count = data.size
                size = data.itemsize
            elif count is None:
                raise MpiError("put(data=None) requires count")
            self._check_span(target, offset, count, stride)
            if data is not None:
                buf = self._state.buffers[target]
                buf[self._indices(offset, count, stride)] = data
            nbytes = count * size
            t0, t1, cpu_s, completion = yield (
                target, nbytes, count, stride == 1, "put"
            )
            self._book_leg(nbytes, stride == 1, "put", cpu_s, completion)
            if self._tracer is not None:
                self._comm._obs_call(
                    "MPI_Put", t0,
                    {"target": target, "bytes": nbytes, "stride": stride},
                    t1,
                )

    def get(
        self,
        target: int,
        offset: int = 0,
        count: int = 1,
        stride: int = 1,
        dtype=None,
    ) -> Generator:
        """MPI_GET: read ``count`` elements from ``target``'s window."""
        self._check_span(target, offset, count, stride)
        tr = self._tracer
        t0 = self._comm.sim.now if tr is not None else 0.0
        buf = self._state.buffers[target]
        values = buf[self._indices(offset, count, stride)].copy()
        yield from self._hardware_leg(
            target, count, buf.itemsize, stride, direction="get"
        )
        if tr is not None:
            self._comm._obs_call(
                "MPI_Get", t0,
                {"target": target, "bytes": count * buf.itemsize,
                 "stride": stride},
            )
        return values

    def accumulate(
        self,
        data: np.ndarray,
        target: int,
        op: ReduceOp,
        offset: int = 0,
        stride: int = 1,
    ) -> Generator:
        """MPI_ACCUMULATE: element-wise ``op`` into the target window."""
        if not isinstance(op, ReduceOp):
            raise MpiError(f"op must be a ReduceOp, got {op!r}")
        data = np.ascontiguousarray(data).ravel()
        count = data.size
        self._check_span(target, offset, count, stride)
        tr = self._tracer
        t0 = self._comm.sim.now if tr is not None else 0.0
        buf = self._state.buffers[target]
        idx = self._indices(offset, count, stride)
        buf[idx] = op(buf[idx], data)
        yield from self._hardware_leg(
            target, count, data.itemsize, stride, direction="put"
        )
        if tr is not None:
            self._comm._obs_call(
                "MPI_Accumulate", t0,
                {"target": target, "bytes": count * data.itemsize,
                 "stride": stride},
            )

    def _hardware_leg(
        self, target: int, count: int, itemsize: int, stride: int, direction: str
    ) -> Generator:
        contiguous = stride == 1
        nbytes = count * itemsize
        cpu_s, completion = yield from self._state.cluster.rma_start(
            self.rank,
            target,
            nbytes,
            elements=count,
            contiguous=contiguous,
            direction=direction,
        )
        self._book_leg(nbytes, contiguous, direction, cpu_s, completion)

    def _book_leg(self, nbytes, contiguous, direction, cpu_s, completion):
        """Window accounting of one initiated hardware leg."""
        self._outstanding.append(completion)
        self.bytes_moved += nbytes
        if direction == "put":
            if contiguous:
                self.puts_contig += 1
            else:
                self.puts_strided += 1
        else:
            if contiguous:
                self.gets_contig += 1
            else:
                self.gets_strided += 1
        self._comm.comm_s += cpu_s

    # -- datatype-shaped operations ---------------------------------------
    def put_datatype(
        self,
        data: Optional[np.ndarray],
        target: int,
        datatype,
        offset: int = 0,
        itemsize: int = 8,
    ) -> Generator:
        """MPI_PUT with a derived datatype (MPI_Type_vector et al.).

        The datatype's hardware decomposition drives the transfer modes:
        dense runs ride DMA, blocklength-1 vectors use one strided PIO
        transfer, general vectors issue one DMA transfer per block.
        """
        if data is not None:
            data = np.ascontiguousarray(data).ravel()
            if data.size != datatype.size:
                raise MpiError(
                    f"datatype moves {datatype.size} elements, got {data.size}"
                )
            itemsize = data.itemsize
        consumed = 0
        for rel, count, stride in datatype.segments():
            chunk = None
            if data is not None:
                chunk = data[consumed : consumed + count]
            consumed += count
            yield from self.put(
                chunk,
                target,
                offset=offset + rel,
                stride=stride,
                count=count,
                itemsize=itemsize,
            )

    def get_datatype(
        self, target: int, datatype, offset: int = 0
    ) -> Generator:
        """MPI_GET with a derived datatype; returns the gathered elements."""
        parts = []
        for rel, count, stride in datatype.segments():
            vals = yield from self.get(
                target, offset=offset + rel, count=count, stride=stride
            )
            parts.append(vals)
        return np.concatenate(parts) if parts else np.empty(0)

    # -- synchronization -------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Number of initiated operations whose hardware leg is still open."""
        return sum(1 for p in self._outstanding if not p.triggered)

    def drain(self) -> Generator:
        """Wait for this rank's outstanding hardware legs (no barrier).

        The executor drains every window, then issues one shared barrier —
        semantically a multi-window fence at a fraction of the cost.

        Under an active fault plan this is also where retransmit queues
        flush: a leg's completion event only succeeds once its
        retransmission rounds are done, and it *fails* with a typed
        :class:`~repro.mpi2.exceptions.MpiFaultError` when recovery was
        impossible — the AllOf below propagates that failure out of the
        fence, so no epoch ever closes over an undelivered transfer.
        """
        sim = self._comm.sim
        t0 = sim.now
        open_ops = [p for p in self._outstanding if not p.triggered]
        if open_ops:
            yield AllOf(sim, open_ops)
        self._outstanding.clear()
        self.fence_wait_s += sim.now - t0
        self._comm.comm_s += sim.now - t0
        if self._tracer is not None:
            self._comm._obs_call("win-drain", t0, {"open": len(open_ops)})

    def fence(self) -> Generator:
        """MPI_WIN_FENCE: drain own operations, then barrier."""
        sim = self._comm.sim
        t0 = sim.now
        open_ops = [p for p in self._outstanding if not p.triggered]
        if open_ops:
            yield AllOf(sim, open_ops)
        self._outstanding.clear()
        # Drain time is comm time; barrier() accounts for its own span.
        self._comm.comm_s += sim.now - t0
        yield from self._comm.barrier()
        self.fence_wait_s += sim.now - t0
        if self._tracer is not None:
            self._comm._obs_call("MPI_Win_fence", t0, {"open": len(open_ops)})

    Fence = fence

    def lock(self, target: int) -> Generator:
        """Exclusive lock on ``target``'s window (MPI_WIN_LOCK)."""
        if not 0 <= target < len(self._state.locks):
            raise MpiError(f"target rank {target} out of range")
        tr = self._tracer
        t0 = self._comm.sim.now if tr is not None else 0.0
        yield self._state.locks[target].request()
        if tr is not None:
            self._comm._obs_call("MPI_Win_lock", t0, {"target": target})

    def unlock(self, target: int) -> None:
        """Release the exclusive lock (MPI_WIN_UNLOCK)."""
        self._state.locks[target].release()
