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
from repro.sim import Simulator
from repro.vbus.ethernet import EthernetNetwork
from repro.vbus.host import Host
from repro.vbus.mesh import MeshTopology
from repro.vbus.nic import Nic, RECV_OVERHEAD_S, TransferReceipt
from repro.vbus.fastpath import start_fast_leg, start_leg
from repro.vbus.params import ClusterParams, VBUS_SKWP, cluster_for
from repro.vbus.router import WormholeMesh
from repro.vbus.signal import bandwidth_Bps
from repro.vbus.vbusctl import FreezeDomain, VBusController

__all__ = ["Cluster", "build_cluster"]


def _noop():
    """An immediately-completing process body."""
    return
    yield  # pragma: no cover - makes this a generator function


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
        element-by-element path for strided PUT/GET.
        """
        if direction not in ("put", "get"):
            raise ValueError(f"bad RMA direction {direction!r}")
        tr = self.sim.tracer
        t0 = self.sim.now if tr is not None else 0.0
        self._check_rank(origin)
        self._check_rank(remote)
        if elements is None:
            elements = max(1, nbytes // 8)
        if origin == remote or nbytes == 0:
            if self.params.fast_path:
                # No hardware leg: a pre-completed event costs zero kernel
                # steps (the stepwise _noop process costs two per call).
                return 0.0, self.sim.completed_event()
            done = self.sim.process(_noop(), name="rma-local")
            return 0.0, done

        nic = self.nics[origin]
        setup_s = nic.software_setup_s()
        cpu_s = setup_s

        src, dst = (origin, remote) if direction == "put" else (remote, origin)
        if self.mesh is not None:
            wire_call = lambda cap: self.mesh.unicast(src, dst, nbytes, cap)
        else:
            wire_call = lambda cap: self.ethernet.unicast(src, dst, nbytes, cap)

        fast = self.params.fast_path and self.mesh is not None
        completion = None
        if not fast or contiguous:
            yield self.sim.timeout(setup_s)
        if contiguous:
            # Fast path: take a free DMA engine synchronously (same
            # simulated instant as the immediately-granted request).
            if not (fast and nic._dma.try_acquire()):
                yield nic._dma.request()
            yield self.sim.timeout(self.params.nic.dma_setup_s)
            cpu_s += self.params.nic.dma_setup_s

            if fast:
                # The stepwise wire process releases the DMA engine in its
                # ``finally`` — after the receive tail — so hook it there.
                completion = start_leg(
                    self.mesh, src, dst, nbytes,
                    self.params.nic.dma_rate_Bps, RECV_OVERHEAD_S,
                    at_tail=nic._dma.release,
                )
            if completion is None:

                def wire():
                    try:
                        yield from wire_call(self.params.nic.dma_rate_Bps)
                        yield self.sim.timeout(RECV_OVERHEAD_S)
                    finally:
                        nic._dma.release()

            nic.dma_transfers += 1
        else:
            pio = (
                self.params.nic.pio_setup_s
                + elements * self.params.nic.pio_per_element_s
            )
            if fast:
                # Merged setup + per-element copy: one event, bit-identical
                # end time (sequential additions, as stepwise fires them).
                yield self.sim.timeout_at((self.sim.now + setup_s) + pio)
            else:
                yield self.sim.timeout(pio)
            cpu_s += pio
            nic.pio_elements += elements

            if fast:
                completion = start_leg(
                    self.mesh, src, dst, nbytes, None, RECV_OVERHEAD_S
                )
            if completion is None:

                def wire():
                    yield from wire_call(None)
                    yield self.sim.timeout(RECV_OVERHEAD_S)

        if completion is None:
            completion = self.sim.process(
                wire(), name=f"rma-wire[{origin}->{remote}]"
            )
        nic.messages += 1
        nic.bytes += nbytes
        nic.cpu_busy_s += cpu_s
        self.hosts[origin].charge_comm_cpu(cpu_s)
        if tr is not None:
            # The CPU-occupied initiation phase; the wire/DMA leg shows up
            # on the channel tracks (and "wire" node spans) as it streams.
            tr.span(
                ("node", origin), f"rma-{direction} {origin}->{remote}", t0,
                args={"bytes": nbytes, "contiguous": contiguous,
                      "cpu_s": cpu_s},
            )
            tr.count(f"rma.{direction}_bytes", nbytes, "B")
        return cpu_s, completion

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
