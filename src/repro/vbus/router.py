"""Wormhole routing over the mesh: channels, head advancement, body streaming.

A point-to-point message claims the directed channels along its XY route
hop by hop (the head flit), then streams its body pipelined at the link
rate while holding the whole path — the classic wormhole discipline.  Both
head advancement and body streaming run inside the cluster's
:class:`~repro.vbus.vbusctl.FreezeDomain`, so an incoming V-Bus broadcast
freezes them in place mid-flight.

XY dimension-order acquisition keeps the channel dependency graph acyclic,
so path locking cannot deadlock.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.sim import Resource, Simulator
from repro.vbus import fastpath
from repro.vbus.flit import flit_count
from repro.vbus.mesh import MeshTopology
from repro.vbus.params import LinkParams
from repro.vbus.signal import bandwidth_Bps
from repro.vbus.vbusctl import FreezeDomain

__all__ = ["Channel", "WormholeMesh"]


class Channel:
    """One directed link between adjacent routers (capacity: one message)."""

    def __init__(self, sim: Simulator, u: int, v: int):
        self.sim = sim
        self.u = u
        self.v = v
        self.name = f"{u}->{v}"
        self._res = Resource(sim, capacity=1, obs_name=f"chan.{u}->{v}")
        #: Utilization statistics.
        self.busy_s = 0.0
        self.messages = 0
        self._acquired_at: Optional[float] = None

    def acquire(self):
        return self._res.request()

    def on_acquired(self) -> None:
        self._acquired_at = self.sim.now
        self.messages += 1

    @property
    def is_free(self) -> bool:
        return self._res.available > 0 and self._acquired_at is None

    def claim(self, acquired_at: float) -> None:
        """Nonblocking acquire for the fast path.

        ``acquired_at`` is the (possibly future) hop time the stepwise
        path would have acquired this channel at — busy-time accounting
        stays exact because :meth:`release` charges from that timestamp.
        """
        if not self._res.try_acquire():
            raise RuntimeError(f"claim() on busy channel {self!r}")
        self._acquired_at = acquired_at
        self.messages += 1

    def book(self, acquired_at: float, released_at: float) -> None:
        """Account one message held over ``[acquired_at, released_at]``
        without taking the channel: a leg booked ahead of the event
        horizon, which nothing else can observe (see fastpath)."""
        self.messages += 1
        tr = self.sim.tracer
        if tr is not None:
            tr.span(("chan", self.name), "held", acquired_at, released_at)
        self.busy_s += released_at - acquired_at

    def release(self) -> None:
        if self._acquired_at is not None:
            tr = self.sim.tracer
            if tr is not None:
                # One occupancy span per held message — identical for the
                # stepwise and fast paths (both claim and release here).
                tr.span(("chan", self.name), "held", self._acquired_at)
            self.busy_s += self.sim.now - self._acquired_at
            self._acquired_at = None
        self._res.release()

    def __repr__(self) -> str:
        return f"<Channel {self.u}->{self.v}>"


class WormholeMesh:
    """The switched mesh network: channels + the stepwise wormhole
    unicast, and the fast path's leg entry points
    (:mod:`repro.vbus.fastpath`)."""

    start_send_leg = fastpath.start_send_leg
    start_leg = fastpath.start_leg
    plan_leg = fastpath.plan_leg
    book_leg = fastpath.book_leg
    claim_leg = fastpath.claim_leg

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        link: LinkParams,
        domain: FreezeDomain,
    ):
        self.sim = sim
        self.topology = topology
        self.link = link
        self.domain = domain
        self.channels: Dict[Tuple[int, int], Channel] = {
            (u, v): Channel(sim, u, v) for (u, v) in topology.links()
        }
        #: Raw link streaming rate under the configured pipelining mode.
        self.link_rate_Bps = bandwidth_Bps(link)
        #: Statistics.
        self.messages = 0
        self.bytes = 0
        self.flits = 0
        #: Fast-path accounting (see :mod:`repro.vbus.fastpath`).
        self.fast_legs = 0
        self.fast_fallbacks = 0
        self.fast_demotions = 0
        #: Stepwise legs promoted back to analytic charging mid-route.
        self.fast_promotions = 0
        #: Claim-time fallback causes (sum == fast_fallbacks).
        self.fast_fallback_injector = 0
        self.fast_fallback_frozen = 0
        self.fast_fallback_peek = 0
        self.fast_fallback_busy = 0
        #: Optional :class:`repro.faults.FaultInjector`; ``None`` = healthy.
        self.injector = None
        self._path_cache: Dict[Tuple[int, int], list] = {}

    def channel_path(self, src: int, dst: int) -> list:
        """The Channel objects along the XY route (cached per pair)."""
        key = (src, dst)
        path = self._path_cache.get(key)
        if path is None:
            path = [self.channels[hop] for hop in self.topology.route(src, dst)]
            self._path_cache[key] = path
        return path

    def unicast(
        self, src: int, dst: int, nbytes: int, rate_cap_Bps: Optional[float] = None
    ) -> Generator:
        """Deliver ``nbytes`` from ``src`` to ``dst`` through the mesh.

        ``rate_cap_Bps`` throttles streaming below the raw link rate (e.g.
        when the source DMA engine, not the wire, is the bottleneck).
        Returns (via StopIteration) the network time consumed.

        The stepwise oracle: it serves ``fast_path=False`` and active
        fault plans only.  On the fast path every leg is analytic or a
        callback leg that pops this generator's entries
        (:mod:`repro.vbus.fastpath`).
        """
        if src == dst:
            return 0.0
        inj = self.injector
        if inj is not None and not inj.active:
            inj = None
        if inj is not None:
            inj.check_alive(src, dst)
        t0 = self.sim.now
        path = self.channel_path(src, dst)
        acquired = []
        try:
            for ch in path:
                yield ch.acquire()
                ch.on_acquired()
                acquired.append(ch)
                if inj is not None:
                    # A stalled channel holds the head flit in place until
                    # its fault window closes.
                    extra = inj.stall_extra(ch.u, ch.v)
                    if extra > 0.0:
                        st0 = self.sim.now
                        yield from self.domain.interruptible_delay(extra)
                        inj.note_stall(self.sim.now - st0, ch.u, ch.v, st0)
                # Head-flit fall-through; pauses if the V-Bus freezes us.
                yield from self.domain.interruptible_delay(self.link.router_delay_s)
            rate = self.link_rate_Bps
            if rate_cap_Bps is not None:
                rate = min(rate, rate_cap_Bps)
            # Body streams pipelined along the held path.
            yield from self.domain.interruptible_delay(nbytes / rate)
            if inj is not None:
                # Drop/corrupt/delay faults and their retransmission
                # rounds run while the path is still held (selective
                # repeat reuses the claimed route).
                nflits = flit_count(nbytes, self.link.width_bits)
                yield from inj.wire_deliver(
                    src, dst, nflits, (nbytes / rate) / nflits,
                    wait=self.domain.interruptible_delay,
                )
        finally:
            for ch in reversed(acquired):
                ch.release()
        self.count_leg(src, dst, nbytes, len(path), t0)
        return self.sim.now - t0

    def stats(self) -> Dict[str, float]:
        """Wire and fast-path counters for :meth:`Cluster.stats`."""
        out = {"mesh_messages": self.messages, "mesh_bytes": self.bytes}
        for key in ("fast_legs", "fast_fallbacks", "fast_demotions",
                    "fast_promotions", "fast_fallback_injector",
                    "fast_fallback_frozen", "fast_fallback_peek",
                    "fast_fallback_busy"):
            out[key] = getattr(self, key)
        return out

    def count_leg(
        self, src: int, dst: int, nbytes: int, hops: int, t0: float,
        t1: Optional[float] = None,
    ) -> None:
        """Account one finished wire leg: stats and the ``wire`` span.

        Every leg flavour (stepwise, analytic, queued) calls this at wire
        end, after releasing its path, so the counters and traces agree.
        A booked leg passes its wire end as ``t1`` (default: now).
        """
        self.messages += 1
        self.bytes += nbytes
        self.flits += flit_count(nbytes, self.link.width_bits)
        tr = self.sim.tracer
        if tr is not None:
            tr.span(
                ("node", src), f"wire {src}->{dst}", t0, t1,
                args={"bytes": nbytes, "hops": hops},
            )
            tr.count("mesh.messages")
            tr.count("mesh.bytes", nbytes, "B")
