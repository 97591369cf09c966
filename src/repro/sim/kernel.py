"""Discrete-event simulation kernel: events, processes, and the scheduler.

The kernel is the wall-clock bottleneck of the whole simulator (every NIC
setup, DMA grant, router hop, and fence turns into events), so the data
structures are tuned:

* events carry ``__slots__`` and store their first waiter in a dedicated
  slot (``_cb1``) — the common single-waiter case never allocates a
  callback list;
* a monotonically increasing sequence number breaks heap ties, giving
  deterministic FIFO ordering of same-time, same-priority events;
* scheduled events can be *cancelled* lazily (the heap entry is skipped
  when popped) — the batched transfer fast path uses this to retract an
  analytically scheduled completion when a V-Bus freeze interrupts it;
* internal single-shot timeouts can be *pooled*: the fast path marks them
  ``_poolable`` and the kernel recycles them through a free list instead
  of allocating a fresh object per event.

Fast-path / stepwise equivalence contract
-----------------------------------------

The batched transfer fast path (:mod:`repro.vbus.fastpath`) is an
*accounting* optimization layered on this kernel, and the kernel supplies
the primitives its bit-identity proof needs:

* :meth:`Simulator.timeout_at` and :meth:`Simulator.pooled_timeout_at`
  schedule at **absolute** timestamps.  The fast path precomputes an end
  time with the same sequence of float additions the stepwise timeouts
  would perform (``t += delay`` per step); scheduling that value directly
  means no ``now + delay`` re-rounding can perturb the final bits.
* :meth:`Simulator.cancel` retracts a scheduled event lazily, so a V-Bus
  freeze can *demote* an analytically charged transfer back to the
  stepwise oracle without disturbing heap order.
* :meth:`Simulator.peek` exposes the next live event time, letting the
  fast path prove "no other process can run inside my head window"
  before claiming a whole route at once, and letting an RMA put stream
  book whole puts that end before it (the event horizon).
* :meth:`Simulator.fire` triggers an event and runs its callbacks inside
  the current step, so a callback chain can resume a waiting process
  where that process would itself have continued.
* :meth:`Simulator.urgent` runs a callback where a fresh URGENT entry at
  ``now`` would run, without the entry when no URGENT entry at ``now``
  is queued ahead of it: a callback leg starts where the process it
  replaces would have started.

Changing tie-breaking (the ``(time, priority, seq)`` heap key), timestamp
arithmetic, or cancellation semantics invalidates that proof — the
equivalence suite (``tests/test_fastpath_equivalence.py``) asserts ``==``
on end times, receipts, and counters, never ``pytest.approx``.

Observability
-------------

``Simulator.tracer`` (default ``None``) may hold a
:class:`repro.obs.tracer.Tracer`; instrumented layers consult it with a
single ``is None`` guard, so tracing off costs one attribute test and
tracing on only *records* — it never schedules, so simulated results are
identical either way.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
]

#: Scheduling priorities: URGENT items at the same timestamp run before NORMAL.
URGENT = 0
NORMAL = 1

#: Sentinel distinguishing "not yet triggered" from a triggered None value.
_PENDING = object()

#: Upper bound on the recycled-timeout free list.
_POOL_MAX = 256


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, yielding a non-event, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) triggers it,
    scheduling all registered callbacks at the current simulation time.
    Processes wait on events by yielding them.
    """

    __slots__ = (
        "sim",
        "_cb1",
        "_cbs",
        "_value",
        "_ok",
        "_processed",
        "_defused",
        "_cancelled",
        "_poolable",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self._poolable = False

    # -- callback storage --------------------------------------------------
    # The first waiter lives in ``_cb1``; only a second waiter allocates the
    # overflow list.  ``processed`` is a flag, not "callbacks is None", so
    # the single-waiter case costs one attribute store.
    def _add_cb(self, cb: Callable[["Event"], None]) -> None:
        if self._cb1 is None and self._cbs is None:
            self._cb1 = cb
        elif self._cbs is None:
            self._cbs = [cb]
        else:
            self._cbs.append(cb)

    def _remove_cb(self, cb: Callable[["Event"], None]) -> None:
        # ``==`` not ``is``: bound methods are re-created on each attribute
        # access, so identity would never match a previously stored one.
        if self._cb1 == cb:
            self._cb1 = None
            if self._cbs:
                self._cb1 = self._cbs.pop(0)
        elif self._cbs is not None:
            try:
                self._cbs.remove(cb)
            except ValueError:
                pass

    @property
    def callbacks(self) -> Optional[List[Callable[["Event"], None]]]:
        """Pending callbacks (None once processed) — debugging/introspection."""
        if self._processed:
            return None
        out: List[Callable[["Event"], None]] = []
        if self._cb1 is not None:
            out.append(self._cb1)
        if self._cbs:
            out.extend(self._cbs)
        return out

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully consumed)."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when triggered with :meth:`succeed` rather than :meth:`fail`."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``; callbacks run at the current time."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.sim._schedule(self, priority=NORMAL)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exc`` raised."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, priority=NORMAL)
        return self

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.9g}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        sim._schedule(self, priority=NORMAL, delay=delay)


class _Initialize(Event):
    """Internal: kicks a new process on the next scheduler step."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._value = None
        self._cb1 = process._resume
        sim._schedule(self, priority=URGENT)


class Process(Event):
    """A running process wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, so processes can wait on each other.
    """

    __slots__ = ("name", "_generator", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self._target is not None and not isinstance(self._target, _Initialize):
            # Detach from the event we were waiting on.
            if not self._target._processed:
                self._target._remove_cb(self._resume)
        hit = Event(self.sim)
        hit._value = Interrupt(cause)
        hit._ok = False
        hit._defused = True
        hit._cb1 = self._resume
        self.sim._schedule(hit, priority=URGENT)

    def kill(self, cause: Any = None) -> None:
        """Terminate the process immediately, without resuming it.

        Unlike :meth:`interrupt` (which throws a catchable
        :class:`Interrupt` *into* the generator), ``kill`` closes the
        generator — ``finally`` blocks run, so held resources and channels
        are released — and fails the process event with ``cause`` so
        waiters (e.g. an :class:`AllOf` over all ranks) see a typed error.

        The event the process was waiting on is detached and, when it is a
        scheduled one-shot nobody else waits on (a timeout or an init
        ping), eagerly reclaimed via :meth:`Simulator.reclaim` — a lazy
        ``cancel`` would still drag the clock to the orphan's timestamp
        when the entry is popped.  Events owned by other parties (resource
        grants, peer processes) are merely detached; their owner remains
        responsible for them.

        No-op on an already-finished process.  Must not be called from
        inside the process itself (a running generator cannot be closed).
        """
        if self.triggered:
            return
        sim = self.sim
        target = self._target
        self._target = None
        if target is not None and not target._processed:
            target._remove_cb(self._resume)
            self._reclaim_orphan(target)
        self._generator.close()
        exc = cause if isinstance(cause, BaseException) else Interrupt(cause)
        self._ok = False
        self._value = exc
        # Pre-defused: the kill is deliberate, so a kill nobody waits on
        # must not crash the event loop.
        self._defused = True
        sim._schedule(self, priority=URGENT)

    def _reclaim_orphan(self, event: Event) -> None:
        """Reclaim scheduled one-shots orphaned by a kill (best effort).

        Guarded on ``_processed``, not ``triggered``: timeouts preload
        their value at construction, so they are *born* triggered.
        """
        if event._processed or event.callbacks:
            return
        if isinstance(event, _Condition):
            for ev in event.events:
                if not ev._processed:
                    ev._remove_cb(event._check)
                    self._reclaim_orphan(ev)
        elif isinstance(event, (Timeout, _Initialize)):
            self.sim.reclaim(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the event's outcome."""
        if self.triggered:
            # Killed while a stale resume (e.g. an already-processed-target
            # ping) was still queued: the generator is closed, drop it.
            return
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                step = self._generator.send(event._value)
            else:
                event._defused = True
                step = self._generator.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self._target = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self._target = None
            self.fail(exc)
            return
        sim._active_process = None

        if not isinstance(step, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {step!r}"
            )
        if step.sim is not sim:
            raise SimulationError("yielded event belongs to another simulator")
        self._target = step
        if step._processed:
            # Already processed: resume immediately on the next step.
            ping = Event(sim)
            ping._value = step._value
            ping._ok = step._ok
            ping._cb1 = self._resume
            sim._schedule(ping, priority=URGENT)
        else:
            step._add_cb(self._resume)

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._processed:
                self._check(ev)
            else:
                ev._add_cb(self._check)

    def _collect(self) -> dict:
        # Only *processed* events count: a Timeout carries its value from
        # construction, so `triggered` alone would over-collect.
        return {
            i: ev._value
            for i, ev in enumerate(self.events)
            if ev._processed and ev._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every constituent event has triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as any constituent event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Simulator:
    """The event loop: a priority queue of (time, priority, seq, event)."""

    def __init__(self):
        self._now: float = 0.0
        self._queue: list = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._tpool: List[Timeout] = []
        #: Calls standing in for URGENT entries at ``now`` (:meth:`urgent`).
        self._later: List[Callable[[], None]] = []
        #: Optional :class:`repro.obs.tracer.Tracer`; ``None`` = tracing off.
        #: Instrumented layers guard every hook with ``if tracer is not
        #: None`` — the tracer observes, it never schedules.
        self.tracer = None

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def completed_event(self, value: Any = None) -> Event:
        """An event that is already triggered *and* processed.

        Waiting on it resumes on the next step at the current time, with
        no scheduling of its own — the zero-cost stand-in for degenerate
        work (e.g. a rank-local transfer) on the fast path.
        """
        ev = Event(self)
        ev._value = value
        ev._processed = True
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def fire(self, event: Event, value: Any = None, ok: bool = True) -> None:
        """Trigger ``event`` and run its callbacks now, inside this step.

        No heap entry is made: a waiting process resumes at exactly the
        point where it would have continued had it run the caller's code
        itself.  Callback chains that stand in for a process (the RMA put
        streams) use this to hand control back to the waiting generator
        without adding an event.  ``ok=False`` fires a failure: ``value``
        must be an exception, and it is raised here when no callback
        takes it.
        """
        if event._value is not _PENDING:
            raise SimulationError(f"{event!r} already triggered")
        event._value = value
        event._ok = ok
        event._processed = True
        cb1, event._cb1 = event._cb1, None
        if cb1 is not None:
            cb1(event)
        if event._cbs is not None:
            cbs, event._cbs = event._cbs, None
            for cb in cbs:
                cb(event)
        if not ok and not event._defused:
            raise value

    def urgent(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` where a new URGENT entry at ``now`` would run.

        Such an entry pops after every URGENT entry at ``now`` queued
        before it and before every other entry.  When none of the former
        is queued, it is simply the next entry: the run loop calls
        ``callback`` between two steps, in the order of the calls, and no
        entry is made (``sim.events`` does not count it).  Otherwise the
        entry is scheduled for real.  Either way every other entry runs
        in the same order.  :meth:`peek` sees a pending call as an entry
        at ``now``.
        """
        q = self._queue
        if q and q[0][1] == URGENT and q[0][0] == self._now:
            ev = Event(self)
            ev._value = None
            ev._cb1 = lambda _ev: callback()
            self._schedule(ev, priority=URGENT)
        else:
            self._later.append(callback)

    def _run_later(self) -> None:
        """Run the pending :meth:`urgent` calls, oldest first (a call may
        add more)."""
        later = self._later
        while later:
            later.pop(0)()

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def timeout_at(self, at: float, value: Any = None) -> Timeout:
        """A timeout firing at *absolute* time ``at``.

        Unlike ``timeout(at - now)``, the heap entry carries ``at`` exactly
        — no ``now + delay`` re-rounding — which the batched transfer fast
        path relies on to reproduce stepwise float arithmetic bit-for-bit.
        """
        if at < self._now:
            raise SimulationError(f"timeout at {at} lies in the past")
        t = Timeout.__new__(Timeout)
        Event.__init__(t, self)
        t.delay = at - self._now
        t._value = value
        self._schedule_at(t, at, priority=NORMAL)
        return t

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- pooled one-shot timeouts -----------------------------------------
    def pooled_timeout_at(
        self, at: float, callback: Callable[[Event], None]
    ) -> Timeout:
        """A recycled single-callback timeout scheduled at absolute time ``at``.

        Internal fast-path use only: the caller promises to drop its
        reference once the timeout fires or is cancelled, so the kernel may
        hand the object out again.  ``at`` must not lie in the past.
        """
        now = self._now
        if at < now:
            raise SimulationError(f"pooled timeout at {at} lies in the past")
        if self._tpool:
            t = self._tpool.pop()
        else:
            t = Timeout.__new__(Timeout)
            Event.__init__(t, self)
            t._poolable = True
        t.delay = at - now
        t._value = None
        t._cb1 = callback
        heapq.heappush(self._queue, (at, NORMAL, self._seq, t))
        self._seq += 1
        return t

    def _recycle(self, t: Timeout) -> None:
        # Pooled timeouts never fail and are handed out again only by
        # pooled_timeout_at, which sets their value and callback.
        if len(self._tpool) < _POOL_MAX:
            t._cb1 = None
            t._cbs = None
            t._processed = False
            t._cancelled = False
            self._tpool.append(t)

    def cancel(self, event: Event) -> None:
        """Retract a scheduled-but-unprocessed event (lazy heap deletion)."""
        if event._processed:
            raise SimulationError("cannot cancel a processed event")
        event._cancelled = True

    def reclaim(self, event: Event) -> None:
        """Eagerly remove a scheduled-but-unprocessed event from the queue.

        ``cancel`` leaves the heap entry behind and the clock still
        advances to its timestamp when it is popped; ``reclaim`` filters
        the entry out (one O(n) pass + heapify), so an orphaned far-future
        timeout — e.g. one owned by a killed process — cannot drag ``now``
        forward or keep the run alive.  Poolable timeouts go back to the
        free list immediately.
        """
        if event._processed:
            raise SimulationError("cannot reclaim a processed event")
        event._cancelled = True
        # In place: run() holds a reference to the queue list, so rebinding
        # self._queue would desynchronize an in-flight run loop.
        kept = [entry for entry in self._queue if entry[3] is not event]
        if len(kept) != len(self._queue):
            heapq.heapify(kept)
            self._queue[:] = kept
        if event._poolable:
            self._recycle(event)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))
        self._seq += 1

    def _schedule_at(self, event: Event, at: float, priority: int) -> None:
        """Schedule at an absolute timestamp (no ``now + delay`` rounding)."""
        heapq.heappush(self._queue, (at, priority, self._seq, event))
        self._seq += 1

    def _step(self) -> None:
        when, _prio, _seq, event = heapq.heappop(self._queue)
        if event._cancelled:
            # Lazily deleted: advance the clock (monotonic; `when` is still
            # the earliest queued timestamp) and recycle if pooled.
            self._now = when
            if event._poolable:
                self._recycle(event)
            return
        self._now = when
        event._processed = True
        cb1, event._cb1 = event._cb1, None
        if cb1 is not None:
            cb1(event)
        if event._cbs is not None:
            cbs, event._cbs = event._cbs, None
            for cb in cbs:
                cb(event)
        if not event._ok and not event._defused:
            # A failure nobody waited on must not pass silently.
            raise event._value
        if event._poolable:
            self._recycle(event)

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the queue drains, a time limit, or an event triggers.

        ``until`` may be ``None`` (drain), a number (absolute time), or an
        :class:`Event` (stop when it is processed, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("until lies in the past")

        queue = self._queue
        later = self._later
        step = self._step
        while queue or later:
            if stop_event is not None and stop_event._processed:
                break
            if later:
                self._run_later()
                continue
            if stop_time is not None and queue[0][0] > stop_time:
                self._now = stop_time
                return None
            step()

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run() ended before the target event triggered (deadlock?)"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time is not None:
            self._now = stop_time
        return None

    def peek(self) -> float:
        """Time of the next live scheduled event, or +inf when drained.

        Cancelled entries are discarded (and recycled) on the way."""
        if self._later:
            return self._now
        q = self._queue
        while q and q[0][3]._cancelled:
            _, _, _, ev = heapq.heappop(q)
            if ev._poolable:
                self._recycle(ev)
        return q[0][0] if q else float("inf")
