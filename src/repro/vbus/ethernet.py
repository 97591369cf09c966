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

It answers the mesh's network interface (:mod:`repro.vbus.cluster`).
With the fast path on and no active fault plan, a send's leg
(:meth:`EthernetNetwork.start_fast_leg`) and a one-sided leg
(:meth:`EthernetNetwork.start_leg`) run as a :class:`_Leg`: kernel
callbacks instead of a generator.  It pops the stepwise leg's entries —
sender stack timer, uplink (or medium) grant, wire timer, switch timer,
downlink grant, downlink timer, receiver stack timer, receive tail — at
the same times in the same order, less two kinds that provably change no
order:

* a one-sided leg has no URGENT start entry of its own: it starts through
  :meth:`~repro.sim.Simulator.urgent`, where that entry would have run;
* a free port is taken synchronously (``try_acquire``) when no other
  entry is queued at ``now``: the grant would then be the next entry
  popped, and all it does is schedule the next timer.

Its unwaited completion is dropped by :func:`~repro.vbus.fastpath._complete`.
A put stream may also *book* a leg ahead of the event horizon
(:meth:`plan_leg`, :meth:`book_leg`): when both its ports
are idle with no waiters, and the leg's tail and the stream's next wire
time end before the next foreign entry, nothing else can touch those
ports meanwhile, so the leg is charged in closed form.  Fault plans,
flood broadcasts (``eth-flood``) and ``fast_path=False`` keep the
stepwise :meth:`unicast`, the oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Generator, Optional

from repro.sim import AllOf, Event, Resource, Simulator
from repro.vbus.fastpath import LegPlan, _complete
from repro.vbus.params import EthernetParams

__all__ = ["EthernetNetwork"]


class _Leg:
    """One Ethernet wire leg, sender stack to receive tail, as callbacks.

    The mirror of :meth:`EthernetNetwork.unicast` followed by the receive
    tail (see the module docstring for the entries it pops).  ``t0`` is
    when the leg reaches the wire; ``at_release`` runs when the unicast
    ends, ``at_tail`` after the tail, then ``finish(done)``.
    """

    __slots__ = (
        "net", "sim", "src", "dst", "nbytes", "wire", "down", "t0",
        "tail_s", "at_release", "at_tail", "done", "finish",
    )

    def __init__(self, net, src, dst, nbytes, rate_cap_Bps, tail_s, t0,
                 done, finish, at_release=None, at_tail=None):
        self.net = net
        self.sim = net.sim
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.wire = net._uplink_time(nbytes, rate_cap_Bps)
        self.down = net._wire_time(nbytes)
        self.t0 = t0
        self.tail_s = tail_s
        self.at_release = at_release
        self.at_tail = at_tail
        self.done = done
        self.finish = finish

    def start(self) -> None:
        """The unicast's first step: the sender stack timer."""
        self.sim.pooled_timeout_at(
            self.t0 + self.net.params.sw_latency_s, self._on_stack
        )

    def _take(self, port: Resource, then) -> None:
        """Request ``port``; ``then`` runs on the grant.

        A free port is taken at once when no other entry is queued at
        ``now``: the grant would be the next entry popped (this step runs
        only the leg's callback), and ``then`` only schedules a timer, so
        scheduling it here keeps every entry's order.
        """
        sim = self.sim
        if sim.peek() > sim.now and port.try_acquire():
            then(None)
        else:
            port.request()._add_cb(then)

    def _on_stack(self, _ev) -> None:
        net = self.net
        port = net._medium if net._tx is None else net._tx[self.src]
        self._take(port, self._on_up)

    def _on_up(self, _ev) -> None:
        self.sim.pooled_timeout_at(self.sim.now + self.wire, self._on_wire)

    def _on_wire(self, _ev) -> None:
        net = self.net
        sim = self.sim
        if net._tx is None:
            net._medium.release()
            sim.pooled_timeout_at(
                sim.now + net.params.sw_latency_s, self._on_recv
            )
        else:
            net._tx[self.src].release()
            sim.pooled_timeout_at(
                sim.now + net.params.switch_latency_s, self._on_switch
            )

    def _on_switch(self, _ev) -> None:
        self._take(self.net._rx[self.dst], self._on_down)

    def _on_down(self, _ev) -> None:
        self.sim.pooled_timeout_at(self.sim.now + self.down, self._on_down_end)

    def _on_down_end(self, _ev) -> None:
        self.net._rx[self.dst].release()
        self.sim.pooled_timeout_at(
            self.sim.now + self.net.params.sw_latency_s, self._on_recv
        )

    def _on_recv(self, _ev) -> None:
        net = self.net
        net.messages += 1
        net.bytes += self.nbytes
        if self.at_release is not None:
            self.at_release()
        self.sim.pooled_timeout_at(self.sim.now + self.tail_s, self._on_tail)

    def _on_tail(self, _ev) -> None:
        if self.at_tail is not None:
            self.at_tail()
        self.finish(self.done)


class EthernetNetwork:
    """An Ethernet segment: one shared medium, or a per-port switch."""

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

    # -- the fast path's leg entry points ----------------------------------
    def _faulty(self) -> bool:
        inj = self.injector
        return inj is not None and inj.active

    def start_fast_leg(
        self, src: int, dst: int, nbytes: int,
        rate_cap_Bps: Optional[float], tail_s: float,
        at_release: Optional[Callable[[], None]] = None,
        at_tail: Optional[Callable[[], None]] = None,
    ) -> Optional[Event]:
        """A send's leg (``Nic.transfer``), or ``None`` under an active
        fault plan.  It starts now, where the stepwise unicast runs inside
        the sender's step, and its tail resumes the sender inline
        (:meth:`~repro.sim.Simulator.fire`), where the sender's own tail
        timer would have."""
        if self._faulty():
            return None
        sim = self.sim
        leg = _Leg(self, src, dst, nbytes, rate_cap_Bps, tail_s, sim.now,
                   Event(sim), sim.fire, at_release, at_tail)
        leg.start()
        return leg.done

    def start_leg(
        self, src: int, dst: int, nbytes: int,
        rate_cap_Bps: Optional[float], tail_s: float,
        at_tail: Optional[Callable[[], None]] = None,
    ) -> Optional[Event]:
        """A one-sided leg: the ``rma-wire`` process's entries from a
        callback chain, or ``None`` under an active fault plan."""
        if self._faulty():
            return None
        return self._queue_leg(
            src, dst, nbytes, rate_cap_Bps, tail_s, self.sim.now,
            Event(self.sim), at_tail,
        )

    def _queue_leg(self, src, dst, nbytes, rate_cap_Bps, tail_s, t, done,
                   at_tail) -> Event:
        leg = _Leg(self, src, dst, nbytes, rate_cap_Bps, tail_s, t, done,
                   _complete, at_tail=at_tail)
        # Where the rma-wire process's URGENT start entry would run.
        self.sim.urgent(leg.start)
        return done

    def plan_leg(
        self, src: int, dst: int, nbytes: int,
        rate_cap_Bps: Optional[float], tail_s: float, t: float,
        _horizon: float,
    ) -> Optional[LegPlan]:
        """A put stream's leg reaching the wire at ``t``, planned when its
        ports are idle with no waiters (a port's waiters only queue while
        it is held).  The stream books it only when its tail and the next
        wire time end before the horizon, so no other leg can take those
        ports first."""
        if self._faulty():
            return None
        if self._tx is None:
            if self._medium.in_use:
                return None
        elif self._tx[src].in_use or self._rx[dst].in_use:
            return None
        p = self.params
        end = (t + p.sw_latency_s) + self._uplink_time(nbytes, rate_cap_Bps)
        if self._tx is not None:
            end = (end + p.switch_latency_s) + self._wire_time(nbytes)
        end = (end + p.sw_latency_s) + tail_s
        return LegPlan(src, dst, nbytes, rate_cap_Bps, tail_s, t, end)

    def book_leg(self, plan: LegPlan) -> None:
        """Charge a planned leg that ends before the event horizon: only
        its wire counters are visible (its ports are granted at once)."""
        self.messages += 1
        self.bytes += plan.nbytes

    def claim_leg(self, plan: LegPlan, at_tail, done: Event) -> None:
        """Run a planned leg reaching the wire at ``plan.t`` (``now`` or,
        after booked legs, ahead of it) as a callback leg completing
        ``done``."""
        self._queue_leg(
            plan.src, plan.dst, plan.nbytes, plan.rate_cap_Bps, plan.tail_s,
            plan.t, done, at_tail,
        )

    def stats(self) -> Dict[str, float]:
        """Wire counters for :meth:`Cluster.stats`."""
        return {"ether_messages": self.messages, "ether_bytes": self.bytes}

    def _wire_time(self, nbytes: int) -> float:
        """Medium occupancy: per-frame framing overhead plus payload bits."""
        p = self.params
        nframes = max(1, math.ceil(nbytes / p.mtu_bytes))
        return max(p.min_frame_s, nbytes / p.rate_Bps + nframes * p.min_frame_s * 0.15)

    def _uplink_time(self, nbytes: int, rate_cap_Bps: Optional[float]) -> float:
        """The sender's wire time: line rate, or a slower source cap."""
        wire = self._wire_time(nbytes)
        if rate_cap_Bps is not None and rate_cap_Bps < self.params.rate_Bps:
            wire = max(wire, nbytes / rate_cap_Bps)
        return wire

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
        wire = self._uplink_time(nbytes, rate_cap_Bps)
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
