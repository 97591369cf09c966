"""Ethernet interconnects: shared Fast Ethernet and modeled switched GigE.

The paper's headline hardware comparison: the V-Bus card offers about four
times the bandwidth and a quarter of the latency of a Fast Ethernet card.
The shared-medium model charges a kernel software latency on each side of a
message plus serialization on the single shared 100 Mb/s medium.  Broadcast
rides the physical bus for free (one transmission heard by all) — the fair
version of the comparison, since Ethernet *is* a bus.

With :attr:`EthernetParams.switched` the same class models a store-and-
forward switch with per-port full duplex: a message occupies only its
source port (uplink), the switch fabric for a forwarding latency, and its
destination port (downlink), so disjoint pairs communicate concurrently
and the bisection grows with node count.  Broadcast is switch flooding —
one uplink transmission replicated onto every downlink in parallel.  This
is the "modeled switched GigE" leg of the three-backend crossover sweep
(EXPERIMENTS.md).

It answers the mesh's network interface (:mod:`repro.vbus.cluster`);
its fast-path leg entry points answer ``None``: run the stepwise leg.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, Optional

from repro.sim import AllOf, Resource, Simulator
from repro.vbus.params import EthernetParams

__all__ = ["EthernetNetwork"]


class EthernetNetwork:
    """An Ethernet segment: one shared medium, or a per-port switch."""

    #: Put streams book legs ahead of the event horizon only on the mesh.
    can_book = False

    def __init__(self, sim: Simulator, params: EthernetParams, nnodes: int):
        self.sim = sim
        self.params = params
        self.nnodes = nnodes
        self._medium = Resource(sim, capacity=1)
        #: Switched mode: one full-duplex port pair per node.
        self._tx = self._rx = None
        if params.switched:
            self._tx = [
                Resource(sim, capacity=1, obs_name=f"eth.tx.{i}")
                for i in range(nnodes)
            ]
            self._rx = [
                Resource(sim, capacity=1, obs_name=f"eth.rx.{i}")
                for i in range(nnodes)
            ]
        #: Optional :class:`repro.faults.FaultInjector`; ``None`` = healthy.
        #: Ethernet legs see drop/corrupt/delay and node kills; channel
        #: stalls are a mesh concept and do not apply to Ethernet.
        self.injector = None
        #: Statistics.
        self.messages = 0
        self.bytes = 0

    def start_fast_leg(self, *_leg, **_hooks) -> None:
        """The fast path's leg entry points (``start_leg`` too): no
        closed-form Ethernet leg exists yet, so run :meth:`unicast`."""
        return None

    start_leg = start_fast_leg

    def stats(self) -> Dict[str, float]:
        """Wire counters for :meth:`Cluster.stats`."""
        return {"ether_messages": self.messages, "ether_bytes": self.bytes}

    def _wire_time(self, nbytes: int) -> float:
        """Medium occupancy: per-frame framing overhead plus payload bits."""
        p = self.params
        nframes = max(1, math.ceil(nbytes / p.mtu_bytes))
        return max(p.min_frame_s, nbytes / p.rate_Bps + nframes * p.min_frame_s * 0.15)

    def unicast(
        self, src: int, dst: int, nbytes: int, rate_cap_Bps: Optional[float] = None
    ) -> Generator:
        """Point-to-point message over the shared segment."""
        if src == dst:
            return 0.0
        inj = self.injector
        if inj is not None and not inj.active:
            inj = None
        if inj is not None:
            inj.check_alive(src, dst)
        t0 = self.sim.now
        p = self.params
        yield self.sim.timeout(p.sw_latency_s)  # sender kernel stack
        wire = self._wire_time(nbytes)
        if rate_cap_Bps is not None and rate_cap_Bps < p.rate_Bps:
            wire = max(wire, nbytes / rate_cap_Bps)
        if self._tx is not None:
            # Switched: uplink serialization, forwarding decision, then
            # downlink serialization (store-and-forward buffering frees
            # the uplink before the downlink is needed, so port locking
            # cannot deadlock).
            yield self._tx[src].request()
            try:
                yield self.sim.timeout(wire)
                if inj is not None:
                    nframes = max(1, math.ceil(nbytes / p.mtu_bytes))
                    yield from inj.wire_deliver(
                        src, dst, nframes, wire / nframes
                    )
            finally:
                self._tx[src].release()
            yield self.sim.timeout(p.switch_latency_s)
            yield self._rx[dst].request()
            try:
                # Downlink at line rate: the switch buffered the frames.
                yield self.sim.timeout(self._wire_time(nbytes))
            finally:
                self._rx[dst].release()
        else:
            yield self._medium.request()
            try:
                yield self.sim.timeout(wire)
                if inj is not None:
                    # Frame-granularity faults; retransmitted frames
                    # re-occupy the shared medium, so this runs while it
                    # is still held.
                    nframes = max(1, math.ceil(nbytes / p.mtu_bytes))
                    yield from inj.wire_deliver(
                        src, dst, nframes, wire / nframes
                    )
            finally:
                self._medium.release()
        yield self.sim.timeout(p.sw_latency_s)  # receiver kernel stack
        self.messages += 1
        self.bytes += nbytes
        return self.sim.now - t0

    def broadcast(
        self, src: int, nbytes: int, rate_cap_Bps: Optional[float] = None
    ) -> Generator:
        """One transmission delivered to every node on the segment."""
        inj = self.injector
        if inj is not None and not inj.active:
            inj = None
        if inj is not None:
            inj.check_alive(src)
        t0 = self.sim.now
        p = self.params
        yield self.sim.timeout(p.sw_latency_s)
        wire = self._wire_time(nbytes)
        if self._tx is not None:
            # Switch flooding: one uplink transmission, replicated onto
            # every downlink in parallel.
            yield self._tx[src].request()
            try:
                yield self.sim.timeout(wire)
                if inj is not None:
                    nframes = max(1, math.ceil(nbytes / p.mtu_bytes))
                    yield from inj.wire_deliver(
                        src, None, nframes, wire / nframes
                    )
            finally:
                self._tx[src].release()
            yield self.sim.timeout(p.switch_latency_s)
            deliveries = [
                self.sim.process(
                    self._downlink(dst, nbytes), name=f"eth-flood[{dst}]"
                )
                for dst in range(self.nnodes)
                if dst != src
            ]
            if deliveries:
                yield AllOf(self.sim, deliveries)
        else:
            yield self._medium.request()
            try:
                yield self.sim.timeout(wire)
                if inj is not None:
                    nframes = max(1, math.ceil(nbytes / p.mtu_bytes))
                    yield from inj.wire_deliver(
                        src, None, nframes, wire / nframes
                    )
            finally:
                self._medium.release()
        yield self.sim.timeout(p.sw_latency_s)
        self.messages += 1
        self.bytes += nbytes * (self.nnodes - 1)
        return self.sim.now - t0

    def _downlink(self, dst: int, nbytes: int) -> Generator:
        """One flooded copy occupying ``dst``'s downlink port."""
        yield self._rx[dst].request()
        try:
            yield self.sim.timeout(self._wire_time(nbytes))
        finally:
            self._rx[dst].release()
