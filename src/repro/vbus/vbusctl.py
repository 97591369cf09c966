"""The virtual-bus controller and the freeze domain (paper §2.1).

V-Bus supports broadcast on a switched mesh *without* a dedicated physical
bus: when a broadcast request is issued, the network dynamically constructs
a transient bus from the source to all destinations.  In-flight
point-to-point wormhole messages are **frozen in their router buffers** for
the duration, then resume where they stopped.

:class:`FreezeDomain` is the mechanism: point-to-point transfers perform all
their waiting through :meth:`FreezeDomain.interruptible_delay`, which parks
the transfer while the domain is frozen and resumes with the remaining time
afterwards.  :class:`VBusController` arbitrates the bus, freezes the domain,
streams the broadcast wave, and thaws.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.sim import AnyOf, Event, Resource, SimulationError, Simulator
from repro.vbus.flit import flit_count

__all__ = ["FreezeDomain", "VBusController"]


class FreezeDomain:
    """A set of transfers that a virtual bus may collectively pause."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.frozen = False
        self._freeze_event = Event(sim)  # fires when freeze() is called
        self._thaw_event = Event(sim)  # fires when thaw() is called
        #: Cumulative statistics.
        self.freeze_count = 0
        self.total_frozen_s = 0.0
        self._frozen_since: Optional[float] = None
        #: Live analytically-charged transfers (see repro.vbus.fastpath);
        #: a freeze demotes each back to the stepwise oracle.
        self._fast_legs: list = []

    # -- fast-leg ledger ----------------------------------------------------
    def register_fast_leg(self, leg) -> None:
        self._fast_legs.append(leg)

    def unregister_fast_leg(self, leg) -> None:
        try:
            self._fast_legs.remove(leg)
        except ValueError:
            pass

    # -- state transitions --------------------------------------------------
    def freeze(self) -> None:
        if self.frozen:
            raise SimulationError("freeze domain already frozen")
        self.frozen = True
        self.freeze_count += 1
        self._frozen_since = self.sim.now
        if self._fast_legs:
            now = self.sim.now
            for leg in list(self._fast_legs):
                leg.demote(now)
        ev, self._freeze_event = self._freeze_event, Event(self.sim)
        ev.succeed()

    def thaw(self) -> None:
        if not self.frozen:
            raise SimulationError("freeze domain not frozen")
        self.frozen = False
        tr = self.sim.tracer
        if tr is not None:
            tr.span(("vbus", 0), "freeze", self._frozen_since)
            tr.count("vbus.freezes")
            tr.observe("vbus.frozen_s", self.sim.now - self._frozen_since, "s")
        self.total_frozen_s += self.sim.now - self._frozen_since
        self._frozen_since = None
        ev, self._thaw_event = self._thaw_event, Event(self.sim)
        ev.succeed()

    # -- waiting primitives ---------------------------------------------------
    def wait_thaw(self) -> Generator:
        """Block while the domain is frozen (no-op otherwise)."""
        while self.frozen:
            yield self._thaw_event

    def interruptible_delay(self, duration: float) -> Generator:
        """Wait ``duration`` seconds of *unfrozen* time.

        If a freeze begins mid-wait, progress pauses and the remaining time
        is served after the thaw — exactly how a wormhole body stream frozen
        in router buffers behaves.
        """
        if duration < 0:
            raise SimulationError(f"negative duration {duration}")
        remaining = duration
        while True:
            yield from self.wait_thaw()
            if remaining <= 0:
                return
            started = self.sim.now
            timeout = self.sim.timeout(remaining)
            freeze_ev = self._freeze_event
            wake = AnyOf(self.sim, [timeout, freeze_ev])
            yield wake
            if timeout.processed:
                # The timer won: detach from the shared freeze event, or a
                # dead no-op check would sit on it until the next freeze.
                freeze_ev._remove_cb(wake._check)
                return
            remaining -= self.sim.now - started


class VBusController:
    """Arbitrates the single virtual bus and drives broadcasts."""

    def __init__(
        self,
        sim: Simulator,
        domain: FreezeDomain,
        *,
        setup_s: float,
        release_s: float = 0.0,
        fast: bool = False,
    ):
        self.sim = sim
        self.domain = domain
        self.setup_s = setup_s
        self.release_s = release_s
        #: Merge the setup/wave/release timeouts into one scheduled event.
        self.fast = fast
        self._bus = Resource(sim, capacity=1, obs_name="vbus.arbiter")
        #: Optional :class:`repro.faults.FaultInjector` (``None`` = healthy)
        #: and the link width its flit-level faults are framed against.
        self.injector = None
        self.width_bits = 8
        #: Statistics.
        self.broadcast_count = 0
        self.broadcast_bytes = 0

    def stats(self) -> Dict[str, float]:
        """Broadcast counters for :meth:`Cluster.stats`."""
        return {"hw_broadcasts": self.broadcast_count,
                "hw_broadcast_bytes": self.broadcast_bytes}

    def broadcast(
        self, nbytes: int, rate_Bps: float, src: Optional[int] = None
    ) -> Generator:
        """One hardware broadcast: freeze, configure, stream, release.

        The bus reaches every node simultaneously, so streaming time is a
        single ``nbytes / rate`` term regardless of node count — this is
        what makes V-Bus broadcast beat software trees and shared Ethernet.
        """
        if rate_Bps <= 0:
            raise SimulationError("broadcast rate must be positive")
        inj = self.injector
        if inj is not None and not inj.active:
            inj = None
        if inj is not None and src is not None:
            inj.check_alive(src)
        t0 = self.sim.now
        yield self._bus.request()
        self.domain.freeze()
        try:
            if self.fast:
                # One scheduled event for setup + wave + release.  The
                # end time is built by the same sequence of additions the
                # stepwise timeouts perform (each timeout fires at
                # ``start + delay``), so it is bit-identical; the domain
                # is frozen throughout, so nothing can observe the
                # missing intermediate wakeups.
                t = self.sim.now + self.setup_s
                t = t + nbytes / rate_Bps
                if self.release_s:
                    t = t + self.release_s
                yield self.sim.timeout_at(t)
            else:
                # Bus construction: claim a path to all destinations.
                yield self.sim.timeout(self.setup_s)
                # One wave carries the payload to every node.
                yield self.sim.timeout(nbytes / rate_Bps)
                if self.release_s:
                    yield self.sim.timeout(self.release_s)
            if inj is not None and src is not None:
                # Flit-level faults on the broadcast wave.  The domain is
                # frozen by this very broadcast, so retransmission rounds
                # wait with plain timeouts (the default), holding the bus.
                nflits = flit_count(nbytes, self.width_bits)
                yield from inj.wire_deliver(
                    src, None, nflits, (nbytes / rate_Bps) / nflits
                )
            self.broadcast_count += 1
            self.broadcast_bytes += nbytes
        finally:
            self.domain.thaw()
            self._bus.release()
        tr = self.sim.tracer
        if tr is not None:
            # Arbitration wait + bus construction + wave + release.
            tr.span(("vbus", 0), "broadcast", t0, args={"bytes": nbytes})
            tr.count("vbus.broadcasts")
            tr.count("vbus.broadcast_bytes", nbytes, "B")
