"""Cluster assembly: hosts + NICs + interconnect behind one transfer API.

:class:`Cluster` is the facade the MPI-2 library talks to.  It hides which
interconnect is configured (V-Bus mesh or Fast Ethernet) behind two
operations:

* :meth:`Cluster.transfer` — one point-to-point message, through the source
  NIC (DMA or PIO) and the network.
* :meth:`Cluster.hw_broadcast` — the V-Bus hardware broadcast (freezes
  point-to-point traffic, streams one wave to all nodes), or the Ethernet
  physical-bus broadcast; ``None``-capable when the hardware lacks it.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.obs import Tracer
from repro.sim import Event, Simulator
from repro.vbus.ethernet import EthernetNetwork
from repro.vbus.host import Host
from repro.vbus.mesh import MeshTopology
from repro.vbus.nic import Nic, RECV_OVERHEAD_S, TransferReceipt
from repro.vbus.fastpath import (
    book_leg, claim_leg, claimable, leg_times, start_fast_leg, start_leg,
)
from repro.vbus.params import ClusterParams, VBUS_SKWP, cluster_for
from repro.vbus.router import WormholeMesh
from repro.vbus.signal import bandwidth_Bps
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

    Each leg goes through :meth:`Cluster._rma_leg`'s phases with the same
    heap entries in the same order: the setup timer (on the mesh merged
    with a strided leg's per-element copy), the DMA engine (taken at once
    when free on the mesh, else requested and granted), the
    ``dma_setup`` timer, then the wire leg (:func:`start_leg`, or the
    ``rma-wire`` process on Ethernet).  Only the generator frames are
    gone: the caller yields once for the whole stream, and the callback
    that ends the last leg's blocking phase resumes it inline
    (:meth:`Simulator.fire`), where the generator would have continued.

    **Booking ahead of the horizon** (mesh only).  When a leg reaches the
    wire at ``t`` and the fast path would claim it, let ``F`` be the
    next live heap entry (``sim.peek()``).  If the leg's release and
    tail, and every phase of the next leg up to its own wire time, end
    strictly before ``F``, and the next leg could be claimed then too,
    nothing else can run in between: no other entry pops before ``F``,
    only this rank uses its DMA engine, a held channel stays held until
    an entry at or after ``F`` releases it, and a freeze can only start
    in a popped entry.  So the leg is *booked*: its channel, wire, NIC
    and trace accounting is charged in closed form with the stepwise
    float sums, no entry is scheduled, and the stream moves on to the
    next leg at its wire time.  The last booked leg that cannot be
    followed this way is claimed as a real analytic leg, and the
    stream's next entry is scheduled at its absolute time.
    """

    __slots__ = (
        "cluster", "sim", "origin", "nic", "mesh", "legs", "done", "value",
        "leg", "t", "t0", "setup_s", "dma_setup_s", "dma_rate_Bps",
    )

    def __init__(self, cluster, origin: int, legs):
        self.cluster = cluster
        self.sim = cluster.sim
        self.origin = origin
        self.nic = cluster.nics[origin]
        self.mesh = cluster.mesh
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
        if contiguous or self.mesh is None:
            self.sim.pooled_timeout_at(at, self._on_setup)
        else:
            self.sim.pooled_timeout_at(
                at + self.cluster._pio_s(elements), self._on_wire
            )

    def _on_setup(self, _ev) -> None:
        self.t = now = self.sim.now
        if self.leg[3]:
            dma = self.nic._dma
            if self.mesh is not None and dma.try_acquire():
                self._on_grant(None)
            else:
                dma.request()._add_cb(self._on_grant)
        else:
            # Ethernet: the per-element copy is its own timer.
            self.sim.pooled_timeout_at(
                now + self.cluster._pio_s(self.leg[2]), self._on_wire
            )

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
        self.sim.fire(self.done, self.value)

    # -- legs reach the wire --------------------------------------------------
    def _reach_wire(self) -> None:
        """The current leg reaches the wire at ``t``: start (or book) it,
        then fetch and start the next leg."""
        cluster = self.cluster
        sim = self.sim
        mesh = self.mesh
        nic = self.nic
        horizon = None
        while True:
            remote, nbytes, elements, contiguous, direction = self.leg
            if direction == "put":
                src, dst = self.origin, remote
            else:
                src, dst = remote, self.origin
            cap = self.dma_rate_Bps if contiguous else None
            at_tail = nic._dma.release if contiguous else None
            pending = None
            if horizon is not None:
                # Proved claimable by the look-ahead that brought us here.
                pending = Event(sim)
            elif mesh is not None and not mesh.domain.frozen:
                horizon = sim.peek()
                # Booking needs at least the next leg's setup before the
                # horizon; otherwise start_leg claims or queues as usual.
                if horizon > self.t + self.setup_s and claimable(
                    mesh, mesh.channel_path(src, dst), self.t, horizon
                ):
                    pending = Event(sim)
            if pending is not None:
                completion = pending
            else:
                completion = None
                if mesh is not None:
                    completion = start_leg(
                        mesh, src, dst, nbytes, cap, RECV_OVERHEAD_S,
                        at_tail=at_tail,
                    )
                if completion is None:
                    completion = cluster._wire(
                        self.origin, remote, nbytes, contiguous, direction
                    )
            if contiguous:
                cpu_s = self.setup_s + self.dma_setup_s
            else:
                cpu_s = self.setup_s + cluster._pio_s(elements)
            cluster._charge_leg(
                self.origin, remote, nbytes, elements, contiguous, direction,
                cpu_s, self.t0, self.t,
            )
            t = self.t
            more = self._send((self.t0, t, cpu_s, completion))
            if pending is not None:
                channels = mesh.channel_path(src, dst)
                hop_starts, body_start, body_s = leg_times(
                    mesh, len(channels), t, nbytes, cap
                )
                t_rel = body_start + body_s
                t_end = t_rel + RECV_OVERHEAD_S
                nxt = None
                if more:
                    nxt = self._next_wire_time(t_end, contiguous, horizon)
                if nxt is not None:
                    book_leg(mesh, channels, hop_starts, t_rel, nbytes)
                    pending._value = None
                    pending._processed = True
                    self._pass_dma(contiguous, t, t_end)
                    self.t = nxt
                    continue
                claim_leg(
                    mesh, channels, t, nbytes, cap, RECV_OVERHEAD_S,
                    at_tail=at_tail, done=pending,
                )
            if more:
                self._first_timer()
            elif self.t == sim.now:
                sim.fire(self.done, self.value)
            else:
                sim.pooled_timeout_at(self.t, self._on_finish)
            return

    def _next_wire_time(self, t_end: float, held: bool, horizon: float):
        """When the (just fetched) current leg would reach the wire, if
        the previous leg ends by ``t_end`` before then, that time lies
        before ``horizon``, and the fast path could claim the leg then;
        else ``None``.  ``held``: the previous leg holds the DMA engine."""
        remote, _nbytes, elements, contiguous, direction = self.leg
        at = self.t + self.setup_s
        if contiguous:
            if held:
                at = max(at, t_end)
            elif self.nic._dma.in_use:
                return None  # a claimed leg holds it past the horizon
            t = at + self.dma_setup_s
        else:
            t = at + self.cluster._pio_s(elements)
        if not (t_end < t < horizon):
            return None
        if direction == "put":
            channels = self.mesh.channel_path(self.origin, remote)
        else:
            channels = self.mesh.channel_path(remote, self.origin)
        if not claimable(self.mesh, channels, t, horizon):
            return None
        return t

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

        if params.network == "vbus":
            self.mesh: Optional[WormholeMesh] = WormholeMesh(
                sim, self.topology, params.link, self.domain
            )
            # Batched accounting on: the stepwise unicast may re-prove a
            # fallen-back leg safe mid-route and promote it (fastpath).
            self.mesh.fast_path = params.fast_path
            self.ethernet: Optional[EthernetNetwork] = None
            setup = (
                max(1, self.topology.diameter) * params.link.router_delay_s + 1e-6
            )
            self.vbusctl: Optional[VBusController] = VBusController(
                sim, self.domain, setup_s=setup, fast=params.fast_path
            )
        else:
            self.mesh = None
            self.vbusctl = None
            self.ethernet = EthernetNetwork(sim, params.ethernet, self.nprocs)

        #: Fault injection (see repro.faults): one injector per run, wired
        #: into every layer that models the wire.  Imported lazily — the
        #: injector module pulls in the typed MPI errors, which would close
        #: an import cycle back to this module.
        self.injector = None
        if params.faults is not None and params.faults.active:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(sim, params.faults, self.nprocs)
            for nic in self.nics:
                nic.injector = self.injector
            if self.mesh is not None:
                self.mesh.injector = self.injector
            if self.vbusctl is not None:
                self.vbusctl.injector = self.injector
                self.vbusctl.width_bits = params.link.width_bits
            if self.ethernet is not None:
                self.ethernet.injector = self.injector
        #: One-sided legs run as callback streams (see :class:`_RmaStream`).
        self.streams = params.fast_path and self.injector is None

    # -- shape -----------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self.params.nprocs

    @property
    def link_rate_Bps(self) -> float:
        if self.mesh is not None:
            return self.mesh.link_rate_Bps
        return self.ethernet.params.rate_Bps

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

        fast_start = None
        if self.mesh is not None:
            network_call = lambda cap: self.mesh.unicast(src, dst, nbytes, cap)
            if self.params.fast_path:
                fast_start = lambda cap, tail_s, at_release: start_fast_leg(
                    self.mesh, src, dst, nbytes, cap, tail_s,
                    at_release=at_release,
                )
        else:
            network_call = lambda cap: self.ethernet.unicast(src, dst, nbytes, cap)
        receipt = yield from self.nics[src].transfer(
            network_call, nbytes, elements=elements, contiguous=contiguous,
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
            rate = min(self.link_rate_Bps, self.params.nic.dma_rate_Bps)
            network_call = lambda cap: self.vbusctl.broadcast(
                nbytes, rate if cap is None else min(rate, cap), src=src
            )
        else:
            network_call = lambda cap: self.ethernet.broadcast(src, nbytes, cap)
        receipt = yield from self.nics[src].transfer(
            network_call, nbytes, elements=elements, contiguous=contiguous
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
        path keeps its synchronous DMA take and merged PIO timer, and each
        wire leg is an ``rma-wire`` process so faults interleave with
        other traffic as the oracle orders them.
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
        nic = self.nics[origin]
        setup_s = nic.software_setup_s()
        cpu_s = setup_s
        fast = self.params.fast_path and self.mesh is not None
        if not fast or contiguous:
            yield self.sim.timeout(setup_s)
        if contiguous:
            if not (fast and nic._dma.try_acquire()):
                yield nic._dma.request()
            yield self.sim.timeout(self.params.nic.dma_setup_s)
            cpu_s += self.params.nic.dma_setup_s
        else:
            pio = self._pio_s(elements)
            if fast:
                # Merged setup + per-element copy: one event, bit-identical
                # end time (sequential additions, as stepwise fires them).
                yield self.sim.timeout_at((t0 + setup_s) + pio)
            else:
                yield self.sim.timeout(pio)
            cpu_s += pio
        completion = self._wire(origin, remote, nbytes, contiguous, direction)
        self._charge_leg(
            origin, remote, nbytes, elements, contiguous, direction, cpu_s,
            t0, self.sim.now,
        )
        return cpu_s, completion

    def _pio_s(self, elements: int) -> float:
        """CPU seconds of a strided leg's per-element copy."""
        nic = self.params.nic
        return nic.pio_setup_s + elements * nic.pio_per_element_s

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
        nic = self.nics[origin]
        if self.mesh is not None:
            wire_call = lambda cap: self.mesh.unicast(src, dst, nbytes, cap)
        else:
            wire_call = lambda cap: self.ethernet.unicast(src, dst, nbytes, cap)
        if contiguous:

            def wire():
                try:
                    yield from wire_call(self.params.nic.dma_rate_Bps)
                    yield self.sim.timeout(RECV_OVERHEAD_S)
                finally:
                    nic._dma.release()

        else:

            def wire():
                yield from wire_call(None)
                yield self.sim.timeout(RECV_OVERHEAD_S)

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
        if self.vbusctl is not None:
            out["hw_broadcasts"] = self.vbusctl.broadcast_count
            out["hw_broadcast_bytes"] = self.vbusctl.broadcast_bytes
        if self.mesh is not None:
            out["mesh_messages"] = self.mesh.messages
            out["mesh_bytes"] = self.mesh.bytes
            out["fast_legs"] = self.mesh.fast_legs
            out["fast_fallbacks"] = self.mesh.fast_fallbacks
            out["fast_demotions"] = self.mesh.fast_demotions
            out["fast_promotions"] = self.mesh.fast_promotions
            out["fast_fallback_injector"] = self.mesh.fast_fallback_injector
            out["fast_fallback_frozen"] = self.mesh.fast_fallback_frozen
            out["fast_fallback_peek"] = self.mesh.fast_fallback_peek
            out["fast_fallback_busy"] = self.mesh.fast_fallback_busy
        if self.ethernet is not None:
            out["ether_messages"] = self.ethernet.messages
            out["ether_bytes"] = self.ethernet.bytes
        if self.injector is not None:
            out.update(self.injector.stats())
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
