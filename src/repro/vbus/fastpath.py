"""Batched (closed-form) wire-leg accounting for the wormhole mesh.

The stepwise :meth:`~repro.vbus.router.WormholeMesh.unicast` spends ~10
kernel events per message: one resource grant + one interruptible delay
per hop, a body-streaming delay, and the bookkeeping around each.  For
the overwhelmingly common case — all channels free, no V-Bus freeze in
sight — the entire leg is analytically determined at injection time, so
this module charges it with **two** scheduled events (path release at
``T_rel``, receive tail at ``T_end``) while producing bit-identical
simulated times, byte counts, and channel statistics.

Exactness argument (the equivalence suite in
``tests/test_fastpath_equivalence.py`` verifies it empirically):

* All timestamps are computed by the *same sequence of float additions*
  the stepwise path performs (``t += router_delay`` per hop, then
  ``t += nbytes/rate``) and scheduled at absolute times, so no
  re-rounding can creep in.
* A leg is claimed only when it passes the claim-time proof
  (:func:`claim_miss`, the one place it is written): no active fault
  plan, the freeze domain thawed, every channel on the route free,
  and — for multi-hop routes — no other event scheduled at or before
  ``now + (hops-1) * router_delay`` (``sim.peek()`` strictly later).
  Under that guard no other process can run, request a claimed
  channel, or start a freeze while the head would still be advancing
  hop by hop, so holding the whole path from ``now`` is observationally
  identical to acquiring it hop by hop.
  Single-hop legs are exempt: their claim point coincides exactly with
  the stepwise acquire.
* A leg that misses the claim-time proof runs as a :class:`_QueuedLeg`,
  the one callback leg machine for sends (:func:`start_send_leg`) and
  one-sided legs (:func:`start_leg`): kernel callbacks, not a generator,
  but the *same events* — same timestamps, priorities and scheduling
  order, freezes included — as the stepwise leg it replaces (``unicast``
  inside the sender, or an ``rma-wire`` process; see the class).  A
  send's leg starts inline in the sender's step, where its unicast
  would start; a one-sided leg starts through
  :meth:`~repro.sim.Simulator.urgent`, where the process's URGENT start
  entry would run (the leg is made in a step that runs only the
  stream's callback, so nothing is reordered around it).  With
  identical heap entries, every later decision (``sim.peek`` guards
  included) is identical too.  Fault plans keep the stepwise leg: both
  entry points return ``None``.
* A queued leg re-attempts the proof at every hop boundary (and once
  more just before body streaming) via :func:`try_promote`.  The claim
  point of hop *k* is an event boundary, so the same guard applies to
  the remaining sub-path — the already-held hops stay held either way,
  and the promoted remainder uses the identical claim-time float
  sequence the hop-by-hop walk would have produced.  Promotions are
  counted in ``mesh.fast_promotions``; claim-time misses are broken
  down by cause in ``mesh.fast_fallback_{injector,frozen,peek,busy}``.
* These functions are the mesh's leg entry points:
  :class:`~repro.vbus.router.WormholeMesh` has :func:`start_send_leg`,
  :func:`start_leg`, :func:`plan_leg`, :func:`book_leg` and
  :func:`claim_leg` as methods, which ``Nic.transfer`` and the put
  streams call on whatever network the cluster holds
  (:class:`~repro.vbus.ethernet.EthernetNetwork` answers the same
  methods with its own callback legs).  The generator ``unicast``
  serves only fault plans and ``fast_path=False``: it is the oracle.
* A freeze *can* still land inside the last head hop or the body
  stream (those lie beyond the guard window).  The
  :class:`~repro.vbus.vbusctl.FreezeDomain` keeps a ledger of live fast
  legs and **demotes** an affected leg on freeze: the two scheduled
  events are cancelled and a stepwise continuation process serves the
  exact remainder (computed with the same ``remaining -= now - started``
  arithmetic ``interruptible_delay`` uses), releases the path, and runs
  the receive tail.

* **Unwaited completions** (:meth:`~repro.sim.Simulator.settle`).  A
  leg whose completion event has no callback when it ends is marked
  triggered and processed without a heap entry.  Windows drain only legs not yet triggered, so
  no callback can attach later, and dropping a no-op entry leaves every
  acting entry in the same order.  (The peek guard above stops seeing
  such entries; it stays sound, since they cannot act.)
* **Booked legs** (:func:`plan_leg`, :func:`book_leg`, driven by the RMA
  put streams in :mod:`repro.vbus.cluster`).  At the moment a stream's
  leg reaches the wire, let ``F = sim.peek()`` be the event horizon.
  When the leg passes the claim-time proof (its :class:`LegPlan`) and
  its release and tail, and every phase of the stream's next leg up to
  that leg's own wire time, end strictly before ``F`` (and the next leg
  passes the proof then), nothing else can run meanwhile: no entry pops
  before ``F``, a held channel stays held until an entry at or after
  ``F`` releases it, only the stream's rank uses its DMA engine, and a
  freeze can only start in a popped entry.  The leg is then charged in
  closed form — per-channel ``busy_s`` and ``messages`` (last hop
  first), :meth:`count_leg` and ``fast_legs``, with the same float sums
  and explicit trace end times — and neither claimed nor scheduled.  The
  last leg the stream cannot follow this way is claimed for real
  (:func:`claim_leg`, possibly at a time ahead of ``sim.now``).  The
  collect hotspot is not booked: there the next channel is busy (real
  wormhole contention), which needs a per-channel FIFO model rather
  than a horizon.

Per-channel ``busy_s``/``messages`` counters stay exact because a claim
backdates each channel's ``_acquired_at`` to the hop time the stepwise
path would have acquired it at.

The same backdating keeps **traces** exact: when a tracer is attached
(``sim.tracer``), channel-occupancy spans are emitted from
:meth:`Channel.release` and the wire-leg span from
:meth:`_FastLeg._release_channels`, covering the identical simulated
intervals the stepwise path would record — a trace taken with
``fast_path=True`` is indistinguishable from the stepwise one.  Tracing
hooks only *read* simulation state, so they cannot affect the
equivalence argument above.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.kernel import Event

__all__ = [
    "LegPlan", "book_leg", "claim_leg", "claim_miss", "faulty", "leg_times",
    "plan_leg", "start_leg", "start_send_leg", "try_promote",
]


class LegPlan:
    """A put stream's leg proved claimable at ``t`` (a network's
    ``plan_leg``): ``t_end`` is when its receive tail ends, by the
    stepwise float sums, and ``route`` is the network's own detail (the
    mesh: its channels and :func:`leg_times`)."""

    __slots__ = ("src", "dst", "nbytes", "rate_cap_Bps", "tail_s", "t",
                 "t_end", "route")

    def __init__(self, src, dst, nbytes, rate_cap_Bps, tail_s, t, t_end,
                 route=None):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.rate_cap_Bps = rate_cap_Bps
        self.tail_s = tail_s
        self.t = t
        self.t_end = t_end
        self.route = route


class _FastLeg:
    """One analytically-charged wire leg (claim → release → tail)."""

    __slots__ = (
        "mesh",
        "sim",
        "domain",
        "nbytes",
        "channels",
        "hop_starts",
        "head_s",
        "body_start",
        "body_s",
        "t_rel",
        "t_end",
        "tail_s",
        "at_release",
        "at_tail",
        "done",
        "span_t0",
        "_release_ev",
        "_tail_ev",
    )

    def __init__(self, mesh, channels, hop_starts, body_start, body_s, tail_s,
                 nbytes, at_release, at_tail, span_t0=None, done=None):
        self.mesh = mesh
        self.sim = mesh.sim
        self.domain = mesh.domain
        self.nbytes = nbytes
        self.channels = channels
        self.hop_starts = hop_starts
        #: Wire-span start for the tracer: injection time.  A promoted leg
        #: passes its queued leg's start time; a full leg starts now.
        self.span_t0 = hop_starts[0] if span_t0 is None else span_t0
        self.head_s = mesh.link.router_delay_s
        self.body_start = body_start
        self.body_s = body_s
        self.t_rel = body_start + body_s
        self.t_end = self.t_rel + tail_s
        self.tail_s = tail_s
        self.at_release = at_release
        self.at_tail = at_tail
        #: The caller-visible completion event (succeeds at ``t_end``); a
        #: put stream passes the one it already handed to the window.
        self.done = Event(self.sim) if done is None else done
        self._release_ev = self.sim.pooled_timeout_at(self.t_rel, self._on_release)
        self._tail_ev = self.sim.pooled_timeout_at(self.t_end, self._on_tail)
        self.domain.register_fast_leg(self)

    # -- the happy path ----------------------------------------------------
    def _on_release(self, _ev) -> None:
        """Path teardown at ``t_rel`` — mirrors unicast's ``finally``."""
        self.domain.unregister_fast_leg(self)
        self._release_channels()

    def _on_tail(self, _ev) -> None:
        """Receive-side dequeue done at ``t_end``."""
        if self.at_tail is not None:
            self.at_tail()
        self.sim.settle(self.done)

    def _release_channels(self) -> None:
        channels = self.channels
        for ch in reversed(channels):
            ch.release()
        # Same stats and span the stepwise unicast records at wire end.
        self.mesh.count_leg(
            channels[0].u, channels[-1].v, self.nbytes, len(channels),
            self.span_t0,
        )
        if self.at_release is not None:
            self.at_release()

    # -- freeze demotion ---------------------------------------------------
    def demote(self, frozen_at: float) -> None:
        """A freeze started at ``frozen_at``: fall back to stepwise.

        Called synchronously from :meth:`FreezeDomain.freeze`.  The claim
        guard guarantees ``frozen_at`` lies strictly after the last hop's
        start, so the path is fully held — only the last head hop, the
        body stream, or nothing (boundary ties, where stepwise completes
        too) can remain.
        """
        if frozen_at >= self.t_rel:
            # Boundary tie with the body-completion timeout: stepwise
            # completes the transfer (the timeout fires and wins the
            # AnyOf), so leave the scheduled events alone.
            return
        self.domain.unregister_fast_leg(self)
        self.sim.cancel(self._release_ev)
        self.sim.cancel(self._tail_ev)
        self.mesh.fast_demotions += 1
        if frozen_at >= self.body_start:
            # Frozen mid-body (or exactly at the head/body boundary, where
            # stepwise finishes the head and parks the full body).
            head_rem = None
            body_rem = self.body_s - (frozen_at - self.body_start)
        else:
            head_rem = self.head_s - (frozen_at - self.hop_starts[-1])
            body_rem = self.body_s
        self.sim.process(
            self._continuation(head_rem, body_rem), name="fastleg-demoted"
        )

    def _continuation(self, head_rem: Optional[float], body_rem: float):
        """Serve the remainder exactly as the stepwise path would."""
        if head_rem is not None:
            yield from self.domain.interruptible_delay(head_rem)
        yield from self.domain.interruptible_delay(body_rem)
        self._release_channels()
        yield self.sim.timeout(self.tail_s)
        if self.at_tail is not None:
            self.at_tail()
        self.sim.settle(self.done)


class _QueuedLeg:
    """A contended wire leg driven by kernel callbacks instead of a process.

    Event-for-event mirror of the stepwise leg it replaces:
    :meth:`WormholeMesh.unicast` (run inside the sender for a send, in an
    ``rma-wire`` process for a one-sided leg), then the receive-tail
    timeout.  Every kernel event that leg schedules is scheduled here too
    — same time, same priority, same point in the scheduling order — so
    ``sim.events``, the heap tie order and every result stay identical.
    Only the generator frames, the ``Process`` and the per-wait ``AnyOf``
    objects are gone:

    * :meth:`start` is the unicast's first step, run where it would run;
    * each hop is a channel grant, then an interruptible ``router_delay``
      wait; :func:`try_promote` runs at the same hop boundaries;
    * each interruptible wait is a timer plus a wake registered on the
      domain's ``_freeze_event`` in the slot the ``AnyOf`` would take; the
      first of the two schedules a NORMAL wake event at ``now`` (the
      ``AnyOf`` firing), and the wake runs the code the resumed generator
      would run.  A freeze-woken wait serves its remainder after the thaw
      with ``interruptible_delay``'s arithmetic, and a frozen domain
      parks the leg on ``_thaw_event`` as ``wait_thaw`` does;
    * at wire end ``at_release`` runs (a send's DMA release, where
      ``Nic.transfer``'s ``finally`` runs it), then the tail timer; on
      it ``at_tail`` runs, then ``finish(done)``.
    """

    __slots__ = (
        "mesh", "sim", "domain", "path", "nbytes", "rate_cap_Bps", "tail_s",
        "done", "finish", "at_release", "at_tail", "t0", "k", "then",
        "remaining", "started", "timer", "timer_won", "woken", "freeze_ev",
    )

    def __init__(self, mesh, src, dst, nbytes, rate_cap_Bps, tail_s, done,
                 finish, at_release=None, at_tail=None):
        self.mesh = mesh
        self.sim = mesh.sim
        self.domain = mesh.domain
        self.path = mesh.channel_path(src, dst)
        self.nbytes = nbytes
        self.rate_cap_Bps = rate_cap_Bps
        self.tail_s = tail_s
        self.done = done
        self.finish = finish
        self.at_release = at_release
        self.at_tail = at_tail

    # -- the unicast walk ----------------------------------------------------
    def start(self) -> None:
        """The unicast's first step: request the first channel."""
        self.t0 = self.sim.now
        self.k = 0
        self.path[0].acquire()._add_cb(self._on_grant)

    def _on_grant(self, _ev) -> None:
        self.path[self.k].on_acquired()
        self._delay(self.mesh.link.router_delay_s, self._on_hop)

    def _on_hop(self) -> None:
        """Head flit through hop ``k``: promote, or claim the next hop."""
        self.k = k = self.k + 1
        promoted = try_promote(
            self.mesh, self.path, k, self.t0, self.nbytes, self.rate_cap_Bps
        )
        if promoted is not None:
            # The analytic leg owns the whole path and accounts for it.
            promoted._add_cb(self._on_wire_end)
        elif k < len(self.path):
            self.path[k].acquire()._add_cb(self._on_grant)
        else:
            rate = self.mesh.link_rate_Bps
            if self.rate_cap_Bps is not None:
                rate = min(rate, self.rate_cap_Bps)
            self._delay(self.nbytes / rate, self._on_body)

    def _on_body(self) -> None:
        path = self.path
        for ch in reversed(path):
            ch.release()
        self.mesh.count_leg(
            path[0].u, path[-1].v, self.nbytes, len(path), self.t0
        )
        self._on_wire_end(None)

    def _on_wire_end(self, _ev) -> None:
        if self.at_release is not None:
            self.at_release()
        # ``yield sim.timeout(tail_s)``: fires at ``now + tail_s``.
        self.sim.pooled_timeout_at(self.sim.now + self.tail_s, self._on_tail)

    def _on_tail(self, _ev) -> None:
        if self.at_tail is not None:
            self.at_tail()
        self.finish(self.done)

    # -- FreezeDomain.interruptible_delay, unrolled into callbacks ----------
    def _delay(self, duration: float, then) -> None:
        self.remaining = duration
        self.then = then
        self._wait()

    def _wait(self, _ev=None) -> None:
        """The loop head: park while frozen, else arm timer + freeze wake."""
        domain = self.domain
        if domain.frozen:
            domain._thaw_event._add_cb(self._wait)
            return
        if self.remaining <= 0:
            self.then()
            return
        sim = self.sim
        self.started = now = sim.now
        self.timer_won = False
        self.woken = False
        # ``sim.timeout(remaining)`` schedules at ``now + remaining``.
        self.timer = sim.pooled_timeout_at(now + self.remaining, self._on_timer)
        self.freeze_ev = domain._freeze_event
        self.freeze_ev._add_cb(self._check)

    def _on_timer(self, ev) -> None:
        if ev is not self.timer:
            return  # outlived by a freeze: the AnyOf's late no-op check
        self.timer_won = True
        if not self.woken:
            self.woken = True
            self.sim.pooled_timeout_at(self.sim.now, self._on_wake)

    def _check(self, _ev) -> None:
        """The freeze's AnyOf check: wake unless the timer already did."""
        if not self.woken:
            self.woken = True
            self.sim.pooled_timeout_at(self.sim.now, self._on_wake)

    def _on_wake(self, _ev) -> None:
        """The resumed generator: done if the timer fired, else re-wait."""
        if self.timer_won:
            self.freeze_ev._remove_cb(self._check)
            self.then()
            return
        self.timer = None
        self.remaining -= self.sim.now - self.started
        self._wait()


def leg_times(mesh, hops: int, t: float, nbytes: int,
              rate_cap_Bps: Optional[float]):
    """``(hop_starts, body_start, body_s)`` of a leg whose head enters
    the first of ``hops`` channels at ``t``, by the stepwise additions."""
    rd = mesh.link.router_delay_s
    hop_starts: List[float] = []
    for _ in range(hops):
        hop_starts.append(t)
        t = t + rd
    rate = mesh.link_rate_Bps
    if rate_cap_Bps is not None:
        rate = min(rate, rate_cap_Bps)
    return hop_starts, t, nbytes / rate


def claim_miss(mesh, channels, t: float,
               horizon: Optional[float] = None) -> Optional[str]:
    """The claim-time proof for a leg injected at ``t`` over ``channels``.

    Returns ``None`` when it holds, else the mesh counter naming the
    first check that failed: an active fault plan (``injector``), a
    frozen domain (``frozen``), a foreign heap entry inside the head's
    advance over a 2+ hop route (``peek``), or a held channel
    (``busy``).  ``horizon`` is the next foreign entry's time; ``None``
    peeks the heap, and only when a 2+ hop route needs it.
    """
    if faulty(mesh):
        return "fast_fallback_injector"
    if mesh.domain.frozen:
        return "fast_fallback_frozen"
    h = len(channels)
    if h > 1:
        if horizon is None:
            horizon = mesh.sim.peek()
        if not (horizon > t + (h - 1) * mesh.link.router_delay_s):
            return "fast_fallback_peek"
    for ch in channels:
        if not ch.is_free:
            return "fast_fallback_busy"
    return None


def _claim(mesh, channels, times, nbytes: int, tail_s: float,
           at_release=None, at_tail=None, done=None) -> _FastLeg:
    """Claim ``channels`` for an analytic leg with :func:`leg_times`
    ``times``.

    Its injection time may lie ahead of ``sim.now`` when a put stream
    books ahead of the event horizon: each channel is backdated
    (forward-dated) to its stepwise hop time either way, and the leg's
    two events are scheduled at absolute times.
    """
    hop_starts, body_start, body_s = times
    for ch, hop_t in zip(channels, hop_starts):
        ch.claim(hop_t)
    mesh.fast_legs += 1
    return _FastLeg(
        mesh, channels, hop_starts, body_start, body_s, tail_s,
        nbytes, at_release, at_tail, done=done,
    )


def plan_leg(mesh, src: int, dst: int, nbytes: int,
             rate_cap_Bps: Optional[float], tail_s: float, t: float,
             horizon: float) -> Optional[LegPlan]:
    """A put stream's leg injected at ``t``, planned when it passes the
    claim-time proof (:func:`claim_miss`) against ``horizon``."""
    channels = mesh.channel_path(src, dst)
    if claim_miss(mesh, channels, t, horizon) is not None:
        return None
    times = leg_times(mesh, len(channels), t, nbytes, rate_cap_Bps)
    t_rel = times[1] + times[2]
    return LegPlan(src, dst, nbytes, rate_cap_Bps, tail_s, t,
                   t_rel + tail_s, (channels, times))


def claim_leg(mesh, plan: LegPlan, at_tail, done: Event) -> None:
    """Claim a planned leg as an analytic leg completing ``done``."""
    channels, times = plan.route
    _claim(mesh, channels, times, plan.nbytes, plan.tail_s,
           at_tail=at_tail, done=done)


def book_leg(mesh, plan: LegPlan) -> None:
    """Charge a whole planned leg that ends before the event horizon.

    Nothing is claimed or scheduled: no other entry can run before the
    leg's release, so only its accounting is visible.  That accounting
    is the claimed leg's, in its order: each channel's message and
    ``busy_s`` (released last hop first), then :meth:`count_leg`.
    """
    channels, (hop_starts, body_start, body_s) = plan.route
    t_rel = body_start + body_s
    for ch, hop_t in zip(reversed(channels), reversed(hop_starts)):
        ch.book(hop_t, t_rel)
    mesh.count_leg(
        channels[0].u, channels[-1].v, plan.nbytes, len(channels),
        hop_starts[0], t1=t_rel,
    )
    mesh.fast_legs += 1


def _claim_now(mesh, src, dst, nbytes, rate_cap_Bps, tail_s, at_release,
               at_tail) -> Optional[Event]:
    """Charge a ``src → dst`` wire leg injected now analytically.

    Returns the completion event (succeeds at wire-end + ``tail_s``, after
    invoking ``at_release`` at path-release time and ``at_tail`` just
    before completion) — or ``None`` when the leg cannot be proven safe.

    Each miss is counted by cause (:func:`claim_miss`).  Under an active
    fault plan every leg misses: faulty wire legs run stepwise so stall
    windows, drops and retransmission rounds interleave with other
    traffic exactly as the oracle orders them.  Full demotion — not
    per-leg — keeps the contract trivially provable (pinned by
    tests/test_fastpath_equivalence.py).  A foreign entry inside the
    head's advance could act while the head would still be moving, so
    claiming the whole path then might steal a channel early; only the
    hop-by-hop walk orders that correctly.
    """
    channels = mesh.channel_path(src, dst)
    now = mesh.sim.now
    miss = claim_miss(mesh, channels, now)
    if miss is not None:
        mesh.fast_fallbacks += 1
        setattr(mesh, miss, getattr(mesh, miss) + 1)
        return None
    times = leg_times(mesh, len(channels), now, nbytes, rate_cap_Bps)
    return _claim(
        mesh, channels, times, nbytes, tail_s,
        at_release=at_release, at_tail=at_tail,
    ).done


def faulty(network) -> bool:
    """Whether ``network`` runs under an active fault plan, where every
    leg stays stepwise."""
    inj = network.injector
    return inj is not None and inj.active


def start_send_leg(
    mesh, src: int, dst: int, nbytes: int, rate_cap_Bps: Optional[float],
    tail_s: float, at_release: Optional[Callable[[], None]] = None,
    at_tail: Optional[Callable[[], None]] = None,
) -> Optional[Event]:
    """A send's ``src → dst`` wire leg plus receive tail (``Nic.transfer``).

    An analytic leg when the claim-time proof holds, else a
    :class:`_QueuedLeg` started now, where the stepwise unicast runs
    inside the sender's step; its tail resumes the sender inline
    (:meth:`~repro.sim.Simulator.fire`), where the sender's own tail
    timer would have.  Returns the completion event, or ``None`` under
    an active fault plan — faulty legs stay stepwise.
    """
    done = _claim_now(
        mesh, src, dst, nbytes, rate_cap_Bps, tail_s, at_release, at_tail
    )
    if done is None and not faulty(mesh):
        sim = mesh.sim
        leg = _QueuedLeg(mesh, src, dst, nbytes, rate_cap_Bps, tail_s,
                         Event(sim), sim.fire, at_release, at_tail)
        leg.start()
        done = leg.done
    return done


def try_promote(
    mesh,
    path,
    k: int,
    span_t0: float,
    nbytes: int,
    rate_cap_Bps: Optional[float],
) -> Optional[Event]:
    """Mid-route promotion: charge the remaining leg analytically.

    Called by a :class:`_QueuedLeg` at the hop-``k`` claim boundary
    (``k == len(path)`` means all hops are held and only the body stream
    remains).  The first ``k`` channels are already held by the leg; if
    the remaining sub-path passes the claim-time proof (:func:`claim_miss`)
    — no active fault plan, domain thawed, every remaining channel free,
    and (for 2+ remaining hops) no foreign event inside the head-advance
    window — the analytic leg takes ownership of the *whole* path and
    finishes it with two scheduled events.

    Returns the completion event (succeeds at wire end; the queued leg
    still owes the receive tail, and its own accounting is skipped
    because the analytic leg performs it) or ``None`` to continue hop by
    hop.  Failed attempts are not re-counted as fallbacks — the
    injection-time miss already was.
    """
    now = mesh.sim.now
    rest = path[k:]
    if claim_miss(mesh, rest, now) is not None:
        return None

    # Claim the remainder; hop timestamps follow stepwise float
    # arithmetic from *this* claim boundary.  ``r == 0`` (body-only) and
    # ``r == 1`` need no peek guard: the claim point coincides with the
    # stepwise acquire, and a held path cannot be stolen.
    hop_starts, body_start, body_s = leg_times(
        mesh, len(rest), now, nbytes, rate_cap_Bps
    )
    for ch, t in zip(rest, hop_starts):
        ch.claim(t)

    mesh.fast_promotions += 1
    # tail_s=0: the queued leg still serves the receive tail after the
    # wire leg completes, exactly as the stepwise leg would.
    leg = _FastLeg(
        mesh, list(path), hop_starts, body_start, body_s, 0.0,
        nbytes, None, None, span_t0=span_t0,
    )
    return leg.done


def start_leg(
    mesh, src: int, dst: int, nbytes: int, rate_cap_Bps: Optional[float],
    tail_s: float, at_tail: Optional[Callable[[], None]] = None,
) -> Optional[Event]:
    """Start a one-sided ``src → dst`` wire leg plus receive tail without
    a process.

    An analytic leg when the claim-time proof holds, else a
    :class:`_QueuedLeg` started where the ``rma-wire`` process it
    replaces would start.  Returns the completion event, or ``None``
    under an active fault plan — faulty legs stay stepwise.
    """
    done = _claim_now(
        mesh, src, dst, nbytes, rate_cap_Bps, tail_s, None, at_tail
    )
    if done is None and not faulty(mesh):
        sim = mesh.sim
        leg = _QueuedLeg(mesh, src, dst, nbytes, rate_cap_Bps, tail_s,
                         Event(sim), sim.settle, at_tail=at_tail)
        # Where the rma-wire process's URGENT start entry would run.
        sim.urgent(leg.start)
        done = leg.done
    return done
