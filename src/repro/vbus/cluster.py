"""Cluster assembly: hosts + NICs + one network object behind one transfer API.

:class:`Cluster` is the facade the MPI-2 library talks to.  It holds one
network object — a :class:`~repro.vbus.router.WormholeMesh` (V-Bus) or an
:class:`~repro.vbus.ethernet.EthernetNetwork` — and drives it through the
interface both answer:

* ``unicast(src, dst, nbytes, rate_cap)`` — the stepwise wire leg, a
  generator: the oracle, run only with ``fast_path=False`` or under an
  active fault plan;
* ``start_send_leg(...)`` (a send's leg) and ``start_leg(...)`` (a
  one-sided leg) — the fast path's leg entry points: a completion event,
  or ``None`` only under an active fault plan, meaning "run the
  stepwise leg"; the mesh answers with analytic or queued callback legs
  (:mod:`repro.vbus.fastpath`), Ethernet with callback legs
  (:mod:`repro.vbus.ethernet`);
* ``plan_leg(...)`` (a plan, or ``None`` when the leg cannot be booked),
  ``book_leg(plan)`` and ``claim_leg(plan, ...)`` — a put stream's legs
  ahead of the event horizon (:class:`_RmaStream`);
* ``stats()`` — the network's own counters.

Its operations:

* :meth:`Cluster.transfer` — one point-to-point message, through the source
  NIC (DMA or PIO, :meth:`~repro.vbus.nic.Nic.inject`) and the network.
* :meth:`Cluster.rma_legs` — one-sided legs: the same injection phase,
  then a background wire leg.
* :meth:`Cluster.hw_broadcast` — the V-Bus hardware broadcast (freezes
  point-to-point traffic, streams one wave to all nodes), or the Ethernet
  physical-bus broadcast; ``None``-capable when the hardware lacks it.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, List, Optional, Union

from repro.obs import Tracer
from repro.sim import Event, Simulator
from repro.vbus.ethernet import EthernetNetwork
from repro.vbus.host import Host
from repro.vbus.mesh import MeshTopology
from repro.vbus.nic import Nic, RECV_OVERHEAD_S, TransferReceipt
from repro.vbus.params import ClusterParams, VBUS_SKWP, cluster_for
from repro.vbus.router import WormholeMesh
from repro.vbus.vbusctl import FreezeDomain, VBusController

__all__ = ["Cluster", "build_cluster"]


def _noop():
    """An immediately-completing process body."""
    return
    yield  # pragma: no cover - makes this a generator function


def _one_leg(leg):
    """A :meth:`Cluster.rma_legs` coroutine of the single ``leg``."""
    return (yield leg)


class _RmaStream:
    """One origin's one-sided legs, run as a chain of kernel callbacks.

    Each leg goes through the fast path's :meth:`~repro.vbus.nic.Nic.inject`
    phases with the same heap entries in the same order: the setup timer
    (merged with a strided leg's per-element copy), the DMA engine (taken
    at once when free, else requested and granted), the ``dma_setup``
    timer, then the network's ``start_leg`` (or, where that answers
    ``None``, the ``rma-wire`` process of :meth:`Cluster._wire`).  Only
    the generator frames are gone: the caller yields once for the whole
    stream, and the callback that ends the last leg's blocking phase
    resumes it inline (:meth:`Simulator.fire`), where the generator would
    have continued.

    **Booking ahead of the horizon.**  When a leg reaches the wire
    at ``t`` and the network plans it (``plan_leg``: the mesh's
    claim-time proof, or Ethernet's idle ports), let ``F`` be the next
    live heap entry (``sim.peek()``).  If the leg's tail, and every
    phase of the next leg up to its own wire time, end strictly before
    ``F``, and the network plans the next leg then too, nothing else can
    run in between: no other entry pops before ``F``, only this rank
    uses its DMA engine, a held channel or port stays held until an
    entry at or after ``F`` releases it, and a freeze can only start in
    a popped entry.  So the leg is *booked* (``book_leg``): its wire,
    NIC and trace accounting is charged in closed form with the stepwise
    float sums, no entry is scheduled, and the stream moves on to the
    next leg at its wire time.  The last planned leg that cannot be
    followed this way is claimed (``claim_leg``): at once when more legs
    follow (the stream's next entry is scheduled at its absolute time),
    else in the stream's last step at its wire time (:meth:`_on_finish`),
    the step the stepwise stream would have started it in.
    """

    __slots__ = (
        "cluster", "sim", "origin", "nic", "network", "legs",
        "done", "value", "leg", "t", "t0", "setup_s", "dma_setup_s",
        "dma_rate_Bps", "claim",
    )

    def __init__(self, cluster, origin: int, legs):
        self.cluster = cluster
        self.sim = cluster.sim
        self.origin = origin
        self.nic = cluster.nics[origin]
        self.network = cluster.network
        self.legs = legs
        self.setup_s = self.nic.software_setup_s()
        self.dma_setup_s = cluster.params.nic.dma_setup_s
        self.dma_rate_Bps = cluster.params.nic.dma_rate_Bps
        #: Fired with ``legs``' return value once the last leg started.
        self.done: Optional[Event] = None
        self.value = None
        #: The current leg and the stream's clock: ``t`` runs ahead of
        #: ``sim.now`` while legs are booked.
        self.leg = None
        self.t = cluster.sim.now
        self.t0 = self.t
        #: ``(plan, at_tail, done)`` of a last leg planned ahead of the
        #: clock, claimed when the stream finishes (:meth:`_on_finish`).
        self.claim = None

    def start(self) -> Optional[Event]:
        """Start the first leg; returns the event the caller waits on, or
        ``None`` when every leg finished at once (see ``value``)."""
        if not self._send(None):
            return None
        self.done = Event(self.sim)
        self._first_timer()
        return self.done

    # -- the coroutine -----------------------------------------------------
    def _send(self, reply) -> bool:
        """Send ``reply`` to ``legs`` and fetch the next leg; rank-local
        and empty legs finish on the spot.  False once ``legs`` returns."""
        cluster = self.cluster
        while True:
            try:
                leg = self.legs.send(reply)
            except StopIteration as stop:
                self.value = stop.value
                return False
            remote, nbytes, elements, contiguous, direction = leg
            cluster._check_leg(self.origin, remote, direction)
            self.t0 = self.t
            if remote == self.origin or nbytes == 0:
                reply = (self.t, self.t, 0.0, self.sim.completed_event())
                continue
            if elements is None:
                leg = (remote, nbytes, max(1, nbytes // 8), contiguous,
                       direction)
            self.leg = leg
            return True

    # -- the blocking phase of one leg ----------------------------------------
    def _first_timer(self) -> None:
        _remote, _nbytes, elements, contiguous, _dir = self.leg
        at = self.t + self.setup_s
        if contiguous:
            self.sim.pooled_timeout_at(at, self._on_setup)
        else:
            self.sim.pooled_timeout_at(
                at + self.nic.pio_s(elements), self._on_wire
            )

    def _on_setup(self, _ev) -> None:
        self.t = self.sim.now
        dma = self.nic._dma
        if dma.try_acquire():
            self._on_grant(None)
        else:
            dma.request()._add_cb(self._on_grant)

    def _on_grant(self, _ev) -> None:
        self.t = now = self.sim.now
        self.sim.pooled_timeout_at(now + self.dma_setup_s, self._on_wire)

    def _on_wire(self, _ev) -> None:
        self.t = self.sim.now
        try:
            self._reach_wire()
        except BaseException as exc:
            if self.done.triggered:
                raise
            self.sim.fire(self.done, exc, ok=False)

    def _on_finish(self, _ev) -> None:
        if self.claim is not None:
            # A planned last leg ahead of the clock reaches the wire now,
            # in the step the stepwise stream would have started it in.
            plan, at_tail, done = self.claim
            self.claim = None
            self.network.claim_leg(plan, at_tail, done)
        self.sim.fire(self.done, self.value)

    # -- legs reach the wire --------------------------------------------------
    def _src_dst(self, remote: int, direction: str):
        if direction == "put":
            return self.origin, remote
        return remote, self.origin

    def _reach_wire(self) -> None:
        """The current leg reaches the wire at ``t``: start (or book) it,
        then fetch and start the next leg."""
        cluster = self.cluster
        sim = self.sim
        nic = self.nic
        network = self.network
        plan = horizon = None
        while True:
            remote, nbytes, elements, contiguous, direction = self.leg
            src, dst = self._src_dst(remote, direction)
            cap = self.dma_rate_Bps if contiguous else None
            at_tail = nic._dma.release if contiguous else None
            if plan is None:
                horizon = sim.peek()
                # Booking needs at least the next leg's setup before the
                # horizon; otherwise start_leg claims or queues as usual.
                if horizon > self.t + self.setup_s:
                    plan = network.plan_leg(
                        src, dst, nbytes, cap, RECV_OVERHEAD_S, self.t,
                        horizon,
                    )
            if plan is not None:
                completion = Event(sim)
            else:
                completion = network.start_leg(
                    src, dst, nbytes, cap, RECV_OVERHEAD_S, at_tail=at_tail
                )
                if completion is None:
                    completion = cluster._wire(
                        self.origin, remote, nbytes, contiguous, direction
                    )
            if contiguous:
                cpu_s = self.setup_s + self.dma_setup_s
            else:
                cpu_s = self.setup_s + nic.pio_s(elements)
            cluster._charge_leg(
                self.origin, remote, nbytes, elements, contiguous, direction,
                cpu_s, self.t0, self.t,
            )
            t = self.t
            more = self._send((self.t0, t, cpu_s, completion))
            if plan is not None:
                nxt = None
                if more:
                    nxt = self._next_plan(plan.t_end, contiguous, horizon)
                if nxt is not None:
                    network.book_leg(plan)
                    sim.settle(completion)
                    self._pass_dma(contiguous, t, plan.t_end)
                    self.t = nxt.t
                    plan = nxt
                    continue
                if more or t == sim.now:
                    network.claim_leg(plan, at_tail, completion)
                else:
                    self.claim = (plan, at_tail, completion)
            if more:
                self._first_timer()
            elif self.t == sim.now:
                sim.fire(self.done, self.value)
            else:
                sim.pooled_timeout_at(self.t, self._on_finish)
            return

    def _next_plan(self, t_end: float, held: bool, horizon: float):
        """The (just fetched) current leg's plan at the time it would
        reach the wire, if the previous leg ends by ``t_end`` before then
        and that time lies before ``horizon``; else ``None``.  ``held``:
        the previous leg holds the DMA engine."""
        remote, nbytes, elements, contiguous, direction = self.leg
        at = self.t + self.setup_s
        if contiguous:
            if held:
                at = max(at, t_end)
            elif self.nic._dma.in_use:
                return None  # a claimed leg holds it past the horizon
            t = at + self.dma_setup_s
        else:
            t = at + self.nic.pio_s(elements)
        if not (t_end < t < horizon):
            return None
        src, dst = self._src_dst(remote, direction)
        return self.network.plan_leg(
            src, dst, nbytes, self.dma_rate_Bps if contiguous else None,
            RECV_OVERHEAD_S, t, horizon,
        )

    def _pass_dma(self, held: bool, t: float, t_end: float) -> None:
        """The DMA engine across a booked leg: the booked leg (if it
        ``held`` it) lets it go at ``t_end``; a contiguous next leg takes
        it at its setup end, after queueing when it comes first."""
        dma = self.nic._dma
        if held:
            dma.release()
        if self.leg[3]:
            dma.try_acquire()
            tr = self.sim.tracer
            if held and tr is not None and t_end > t + self.setup_s:
                tr.count(f"resource.wait.{dma.obs_name}")


class Cluster:
    """A simulated PC-cluster instance bound to one simulation."""

    def __init__(self, sim: Simulator, params: ClusterParams):
        self.sim = sim
        self.params = params
        if params.trace and sim.tracer is None:
            sim.tracer = Tracer(sim)
        #: The attached tracer (None = tracing off); all layers share it.
        self.tracer = sim.tracer
        self.topology = MeshTopology(*params.mesh)
        self.hosts: List[Host] = [
            Host(sim, rank, params.cpu) for rank in range(self.nprocs)
        ]
        self.nics: List[Nic] = [
            Nic(sim, rank, params.nic) for rank in range(self.nprocs)
        ]
        self.domain = FreezeDomain(sim)

        #: The V-Bus broadcast engine (the mesh only).
        self.vbusctl: Optional[VBusController] = None
        #: The one network object every leg runs through.
        self.network: Union[WormholeMesh, EthernetNetwork]
        if params.network == "vbus":
            self.network = WormholeMesh(
                sim, self.topology, params.link, self.domain
            )
            setup = (
                max(1, self.topology.diameter) * params.link.router_delay_s + 1e-6
            )
            self.vbusctl = VBusController(
                sim, self.domain, setup_s=setup, fast=params.fast_path
            )
        else:
            self.network = EthernetNetwork(sim, params.ethernet, self.nprocs)

        #: Fault injection (see repro.faults): one injector per run, wired
        #: into every layer that models the wire.  Imported lazily — the
        #: injector module pulls in the typed MPI errors, which would close
        #: an import cycle back to this module.
        self.injector = None
        if params.faults is not None and params.faults.active:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(sim, params.faults, self.nprocs)
            for part in self.nics + [self.network]:
                part.injector = self.injector
            if self.vbusctl is not None:
                self.vbusctl.injector = self.injector
                self.vbusctl.width_bits = params.link.width_bits
        #: One-sided legs run as callback streams (see :class:`_RmaStream`).
        self.streams = params.fast_path and self.injector is None

    # -- shape -----------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self.params.nprocs

    @property
    def has_hw_broadcast(self) -> bool:
        """True when a one-shot all-node broadcast primitive exists."""
        if self.params.network == "vbus":
            return self.params.vbus_broadcast
        return True  # Ethernet is a physical bus

    # -- operations --------------------------------------------------------
    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        elements: Optional[int] = None,
        contiguous: bool = True,
    ) -> Generator:
        """One point-to-point message; returns a ``TransferReceipt``."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            return TransferReceipt(
                nbytes=nbytes,
                elements=elements or max(1, nbytes // 8),
                contiguous=contiguous,
                cpu_s=0.0,
                total_s=0.0,
            )

        network = self.network
        fast = self.params.fast_path
        fast_start = None
        if fast:
            fast_start = partial(network.start_send_leg, src, dst, nbytes)
        receipt = yield from self.nics[src].transfer(
            partial(network.unicast, src, dst, nbytes), nbytes,
            elements=elements, contiguous=contiguous, fast=fast,
            fast_start=fast_start,
        )
        self.hosts[src].charge_comm_cpu(receipt.cpu_s)
        return receipt

    def hw_broadcast(
        self,
        src: int,
        nbytes: int,
        *,
        elements: Optional[int] = None,
        contiguous: bool = True,
    ) -> Generator:
        """Hardware broadcast from ``src`` to every other node."""
        self._check_rank(src)
        if not self.has_hw_broadcast:
            raise RuntimeError("cluster has no hardware broadcast facility")
        if self.nprocs == 1:
            return None
        if self.vbusctl is not None:
            rate = min(self.network.link_rate_Bps, self.params.nic.dma_rate_Bps)
            network_call = lambda cap: self.vbusctl.broadcast(
                nbytes, rate if cap is None else min(rate, cap), src=src
            )
        else:
            network_call = partial(self.network.broadcast, src, nbytes)
        # The fast path's injection rules; the broadcast itself stays
        # stepwise (a V-Bus wave or an Ethernet flood).
        receipt = yield from self.nics[src].transfer(
            network_call, nbytes, elements=elements, contiguous=contiguous,
            fast=self.params.fast_path,
        )
        self.hosts[src].charge_comm_cpu(receipt.cpu_s)
        return receipt

    def rma_start(
        self,
        origin: int,
        remote: int,
        nbytes: int,
        *,
        elements: Optional[int] = None,
        contiguous: bool = True,
        direction: str = "put",
    ) -> Generator:
        """Split-phase one-sided transfer (MPI_PUT / MPI_GET hardware leg).

        Blocks the caller only for the CPU-occupied phase — message-queue
        enqueue plus either DMA descriptor programming (contiguous) or the
        full per-element programmed-I/O copy (strided).  The wire/DMA
        streaming leg runs in the background (an analytic or queued leg
        on the fast path, else a process); the returned
        ``(cpu_s, completion)`` pair lets the window layer overlap it with
        computation until the next fence.  This is the paper's "data from
        the user buffer can be copied ... without interrupting the
        processor" for contiguous PUT/GET, and the processor-bound
        element-by-element path for strided PUT/GET.  One leg of
        :meth:`rma_legs`.
        """
        _t0, _t1, cpu_s, completion = yield from self.rma_legs(
            origin, _one_leg((remote, nbytes, elements, contiguous, direction))
        )
        return cpu_s, completion

    def rma_legs(self, origin: int, legs: Generator) -> Generator:
        """Run the one-sided legs of the coroutine ``legs`` from ``origin``.

        ``legs`` yields ``(remote, nbytes, elements, contiguous,
        direction)`` per leg and is sent ``(t0, t1, cpu_s, completion)``
        back: the caller was blocked over ``[t0, t1]``, ``cpu_s`` of it on
        the CPU, and ``completion`` fires when the background wire leg
        ends.  Legs start one after another, each when the previous one's
        blocking phase ends; the coroutine builds each leg when it starts.
        Returns what ``legs`` returns.

        With the fast path on and no active fault plan the legs run as one
        :class:`_RmaStream` and the caller yields once; otherwise each leg
        is a :meth:`_rma_leg` generator (the stepwise oracle).
        """
        if self.streams:
            stream = _RmaStream(self, origin, legs)
            done = stream.start()
            if done is None:
                return stream.value
            return (yield done)
        try:
            leg = next(legs)
        except StopIteration as stop:
            return stop.value
        while True:
            t0 = self.sim.now
            cpu_s, completion = yield from self._rma_leg(origin, *leg)
            try:
                leg = legs.send((t0, self.sim.now, cpu_s, completion))
            except StopIteration as stop:
                return stop.value

    def _rma_leg(
        self, origin, remote, nbytes, elements, contiguous, direction
    ) -> Generator:
        """One leg as a generator: the oracle the streams reproduce.

        It also runs every leg under an active fault plan; there the fast
        path keeps its injection rules (:meth:`~repro.vbus.nic.Nic.inject`),
        and each wire leg is an ``rma-wire`` process so faults interleave
        with other traffic as the oracle orders them.
        """
        self._check_leg(origin, remote, direction)
        if elements is None:
            elements = max(1, nbytes // 8)
        if origin == remote or nbytes == 0:
            if self.params.fast_path:
                # No hardware leg: a pre-completed event costs zero kernel
                # steps (the stepwise _noop process costs two per call).
                return 0.0, self.sim.completed_event()
            return 0.0, self.sim.process(_noop(), name="rma-local")
        t0 = self.sim.now
        cpu_s = yield from self.nics[origin].inject(
            elements, contiguous, self.params.fast_path
        )
        completion = self._wire(origin, remote, nbytes, contiguous, direction)
        self._charge_leg(
            origin, remote, nbytes, elements, contiguous, direction, cpu_s,
            t0, self.sim.now,
        )
        return cpu_s, completion

    def _check_leg(self, origin: int, remote: int, direction: str) -> None:
        if direction != "put" and direction != "get":
            raise ValueError(f"bad RMA direction {direction!r}")
        n = self.params.nprocs
        if not (0 <= origin < n and 0 <= remote < n):
            self._check_rank(origin)
            self._check_rank(remote)

    def _wire(self, origin, remote, nbytes, contiguous, direction):
        """The ``rma-wire`` process of one leg: the wire, the receive
        tail, and (contiguous) the DMA engine's release after both."""
        src, dst = (origin, remote) if direction == "put" else (remote, origin)
        dma = self.nics[origin]._dma
        cap = self.params.nic.dma_rate_Bps if contiguous else None

        def wire():
            try:
                yield from self.network.unicast(src, dst, nbytes, cap)
                yield self.sim.timeout(RECV_OVERHEAD_S)
            finally:
                if contiguous:
                    dma.release()

        return self.sim.process(wire(), name=f"rma-wire[{origin}->{remote}]")

    def _charge_leg(
        self, origin, remote, nbytes, elements, contiguous, direction, cpu_s,
        t0, t1,
    ) -> None:
        """NIC, host and trace accounting of one leg whose blocking phase
        spans ``[t0, t1]``."""
        nic = self.nics[origin]
        if contiguous:
            nic.dma_transfers += 1
        else:
            nic.pio_elements += elements
        nic.messages += 1
        nic.bytes += nbytes
        nic.cpu_busy_s += cpu_s
        self.hosts[origin].charge_comm_cpu(cpu_s)
        tr = self.sim.tracer
        if tr is not None:
            # The CPU-occupied initiation phase; the wire/DMA leg shows up
            # on the channel tracks (and "wire" node spans) as it streams.
            tr.span(
                ("node", origin), f"rma-{direction} {origin}->{remote}", t0,
                t1, args={"bytes": nbytes, "contiguous": contiguous,
                          "cpu_s": cpu_s},
            )
            tr.count(f"rma.{direction}_bytes", nbytes, "B")

    # -- bookkeeping ---------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range (nprocs={self.nprocs})")

    def stats(self) -> Dict[str, float]:
        """Aggregate hardware counters for reports and tests."""
        out: Dict[str, float] = {
            "messages": sum(n.messages for n in self.nics),
            "bytes": sum(n.bytes for n in self.nics),
            "dma_transfers": sum(n.dma_transfers for n in self.nics),
            "pio_elements": sum(n.pio_elements for n in self.nics),
            "nic_cpu_busy_s": sum(n.cpu_busy_s for n in self.nics),
            "freezes": self.domain.freeze_count,
            "frozen_s": self.domain.total_frozen_s,
        }
        for part in (self.vbusctl, self.network, self.injector):
            if part is not None:
                out.update(part.stats())
        return out


def build_cluster(
    nprocs: int = 4,
    params: Optional[ClusterParams] = None,
    sim: Optional[Simulator] = None,
) -> Cluster:
    """Convenience constructor: a fresh simulator + a cluster of ``nprocs``."""
    sim = sim or Simulator()
    base = params if params is not None else VBUS_SKWP
    if base.nprocs != nprocs:
        base = cluster_for(nprocs, base)
    return Cluster(sim, base)
