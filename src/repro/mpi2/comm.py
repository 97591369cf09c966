"""Communicators: two-sided point-to-point messaging and the MPI runtime."""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.mpi2.exceptions import MpiError
from repro.mpi2.request import Request
from repro.mpi2.status import Status
from repro.mpi2.collective import CollectiveMixin
from repro.sim import Event, Simulator
from repro.vbus.cluster import Cluster

__all__ = ["ANY_SOURCE", "ANY_TAG", "Comm", "Mpi2Runtime"]

ANY_SOURCE = -1
ANY_TAG = -1


def payload_nbytes(obj: Any) -> int:
    """Wire size of a payload: exact for buffers, pickled size otherwise."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    try:
        return len(pickle.dumps(obj))
    except Exception:
        return 64  # conservative default for unpicklable sentinels


def copy_payload(obj: Any) -> Any:
    """Defensive copy, so sender-side mutation cannot leak across ranks."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (int, float, complex, str, bytes, bool, type(None))):
        return obj
    return copy.deepcopy(obj)


@dataclass
class _Msg:
    source: int
    tag: int
    nbytes: int
    payload: Any


@dataclass
class _Mailbox:
    pending: List[_Msg] = field(default_factory=list)
    #: (match predicate, event) for recvs posted before their message.
    waiting: List[Tuple[Any, Event]] = field(default_factory=list)


class _CommState:
    """State shared by all per-rank facades of one communicator."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.size = cluster.nprocs
        self.mailboxes = [_Mailbox() for _ in range(self.size)]
        #: Collective slots, keyed by per-rank call ordinal (SPMD order).
        self.slots: Dict[int, Any] = {}

    def deliver(self, dst: int, msg: _Msg) -> None:
        """Hand a fully-transferred message to the destination mailbox."""
        box = self.mailboxes[dst]
        for i, (match, ev) in enumerate(box.waiting):
            if match(msg):
                del box.waiting[i]
                ev.succeed(msg)
                return
        box.pending.append(msg)


def _matcher(source: int, tag: int):
    def match(msg: _Msg) -> bool:
        return (source in (ANY_SOURCE, msg.source)) and (tag in (ANY_TAG, msg.tag))

    return match


class Comm(CollectiveMixin):
    """Per-rank view of a communicator (analogous to ``MPI.COMM_WORLD``).

    All operations are generators driven with ``yield from`` inside a rank's
    simulation process.  ``comm_s`` accumulates the simulated time this rank
    spent inside communication calls — the metric behind the paper's
    Table 2.
    """

    def __init__(self, state: _CommState, rank: int):
        self._state = state
        self.rank = rank
        self._coll_ordinal = 0
        #: Simulated seconds this rank has spent inside MPI calls.
        self.comm_s = 0.0
        #: Message/byte counters for reports.
        self.sent_messages = 0
        self.sent_bytes = 0
        #: Cached at construction so per-call hooks cost one attribute
        #: test when tracing is off — attach tracers (ClusterParams.trace
        #: or sim.tracer) *before* building the MPI runtime.
        self._tracer = state.cluster.sim.tracer

    # -- basics ---------------------------------------------------------
    @property
    def size(self) -> int:
        return self._state.size

    @property
    def sim(self) -> Simulator:
        return self._state.cluster.sim

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    def _check_rank(self, r: int, what: str = "rank") -> None:
        if not 0 <= r < self.size:
            raise MpiError(f"{what} {r} out of range (size={self.size})")

    def _obs_call(
        self, name: str, t0: float, args: Optional[dict] = None,
        t1: Optional[float] = None,
    ) -> None:
        """Record a completed MPI call on this rank's track.

        Callers guard with ``if self._tracer is not None`` so the hot
        path pays one attribute test, not a function call, when tracing
        is off.  Emits the ``[t0, t1]`` span (``t1`` defaults to now)
        plus ``mpi.<name>.calls`` / ``mpi.<name>.s`` metrics.
        """
        tr = self._tracer
        if tr is not None:
            if t1 is None:
                t1 = tr.sim.now
            tr.span(("rank", self.rank), name, t0, t1, args=args)
            tr.count(f"mpi.{name}.calls")
            tr.observe(f"mpi.{name}.s", t1 - t0, "s")

    # -- transfer plumbing ------------------------------------------------
    def _transfer(
        self,
        dst: int,
        nbytes: int,
        *,
        elements: Optional[int] = None,
        contiguous: bool = True,
    ) -> Generator:
        """Point-to-point hardware transfer from this rank to ``dst``."""
        receipt = yield from self._state.cluster.transfer(
            self.rank, dst, nbytes, elements=elements, contiguous=contiguous
        )
        self.sent_messages += 1
        self.sent_bytes += nbytes
        return receipt

    def _hw_broadcast(self, nbytes: int) -> Generator:
        receipt = yield from self._state.cluster.hw_broadcast(self.rank, nbytes)
        self.sent_messages += 1
        self.sent_bytes += nbytes
        return receipt

    # -- two-sided ----------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> Generator:
        """Blocking (eager) send of a Python object or numpy buffer."""
        self._check_rank(dest, "dest")
        t0 = self.sim.now
        nbytes = payload_nbytes(obj)
        msg = _Msg(self.rank, tag, nbytes, copy_payload(obj))
        if dest == self.rank:
            self._state.deliver(dest, msg)
        else:
            yield from self._transfer(dest, nbytes)
            self._state.deliver(dest, msg)
        self.comm_s += self.sim.now - t0
        if self._tracer is not None:
            self._obs_call(
                "MPI_Send", t0, {"dest": dest, "tag": tag, "bytes": nbytes}
            )

    #: Buffer-mode alias (mpi4py capitalizes buffer ops; semantics match here).
    Send = send

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator:
        """Blocking receive; returns the payload (see :meth:`recv_status`)."""
        msg = yield from self._recv_msg(source, tag)
        return msg.payload

    Recv = recv

    def recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator:
        """Blocking receive; returns ``(payload, Status)``."""
        msg = yield from self._recv_msg(source, tag)
        return msg.payload, Status(msg.source, msg.tag, msg.nbytes)

    def _recv_msg(self, source: int, tag: int) -> Generator:
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        t0 = self.sim.now
        box = self._state.mailboxes[self.rank]
        match = _matcher(source, tag)
        msg = None
        for i, m in enumerate(box.pending):
            if match(m):
                msg = box.pending.pop(i)
                break
        if msg is None:
            ev = Event(self.sim)
            box.waiting.append((match, ev))
            msg = yield ev
        self.comm_s += self.sim.now - t0
        if self._tracer is not None:
            self._obs_call(
                "MPI_Recv", t0,
                {"source": msg.source, "tag": msg.tag, "bytes": msg.nbytes},
            )
        return msg

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send: starts immediately, completes in the background."""
        proc = self.sim.process(
            self.send(obj, dest, tag), name=f"isend[{self.rank}->{dest}]"
        )
        return Request(proc)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``wait()`` yields the payload."""
        proc = self.sim.process(
            self.recv(source, tag), name=f"irecv[{self.rank}<-{source}]"
        )
        return Request(proc)

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Generator:
        """Combined send+receive without deadlock (both posted at once)."""
        req = self.isend(obj, dest, sendtag)
        data = yield from self.recv(source, recvtag)
        yield from req.wait()
        return data

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe: Status of the first matching pending message."""
        match = _matcher(source, tag)
        for m in self._state.mailboxes[self.rank].pending:
            if match(m):
                return Status(m.source, m.tag, m.nbytes)
        return None


class Mpi2Runtime:
    """Binds a cluster to a world communicator; hands out per-rank views."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._world = _CommState(cluster)
        self._comms = [Comm(self._world, r) for r in range(cluster.nprocs)]

    @property
    def size(self) -> int:
        return self.cluster.nprocs

    def comm(self, rank: int) -> Comm:
        """The world communicator as seen by ``rank``."""
        if not 0 <= rank < self.size:
            raise MpiError(f"rank {rank} out of range")
        return self._comms[rank]

    def total_comm_s(self) -> float:
        return sum(c.comm_s for c in self._comms)
