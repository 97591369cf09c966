"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
)


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.5)
        log.append(sim.now)
        yield sim.timeout(2.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [1.5, 4.0]


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter():
        val = yield ev
        seen.append((sim.now, val))

    def trigger():
        yield sim.timeout(3.0)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert seen == [(3.0, 42)]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failure_propagates_from_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        sim.run()


def test_process_return_value_via_run_until():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return 99

    p = sim.process(proc())
    assert sim.run(until=p) == 99
    assert sim.now == 2.0


def test_process_waits_on_process():
    sim = Simulator()
    order = []

    def child():
        yield sim.timeout(5.0)
        order.append("child")
        return "payload"

    def parent():
        val = yield sim.process(child())
        order.append("parent")
        assert val == "payload"

    sim.process(parent())
    sim.run()
    assert order == ["child", "parent"]


def test_waiting_on_already_processed_event():
    sim = Simulator()
    results = []

    def early():
        yield sim.timeout(1.0)
        return "done-early"

    p = sim.process(early())

    def late():
        yield sim.timeout(10.0)
        v = yield p  # p completed long ago
        results.append((sim.now, v))

    sim.process(late())
    sim.run()
    assert results == [(10.0, "done-early")]


def test_yield_non_event_raises():
    sim = Simulator()

    def bad():
        yield 123

    sim.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_exception_in_process_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("inner")

    sim.process(bad())
    with pytest.raises(KeyError):
        sim.run()


def test_exception_in_child_caught_by_parent():
    sim = Simulator()
    seen = []

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            seen.append(str(exc))

    sim.process(parent())
    sim.run()
    assert seen == ["child died"]


def test_run_until_time_stops_clock():
    sim = Simulator()
    ticks = []

    def clock():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    sim.process(clock())
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.process(iter_timeout(sim, 5.0))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def iter_timeout(sim, t):
    yield sim.timeout(t)


def test_deterministic_fifo_order_at_same_time():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done = []

    def proc():
        t1 = sim.timeout(1.0, value="x")
        t2 = sim.timeout(3.0, value="y")
        vals = yield AllOf(sim, [t1, t2])
        done.append((sim.now, sorted(vals.values())))

    sim.process(proc())
    sim.run()
    assert done == [(3.0, ["x", "y"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    done = []

    def proc():
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(3.0, value="slow")
        vals = yield AnyOf(sim, [t1, t2])
        done.append((sim.now, list(vals.values())))

    sim.process(proc())
    sim.run()
    assert done == [(1.0, ["fast"])]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered


def test_interrupt_raises_in_target():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            log.append((sim.now, exc.cause))

    def killer(proc):
        yield sim.timeout(2.0)
        proc.interrupt("wakeup")

    p = sim.process(sleeper())
    sim.process(killer(p))
    sim.run()
    assert log == [(2.0, "wakeup")]


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    assert sim.peek() == 7.0


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


# -- fast-path kernel primitives (cancellation, pooling, absolute timeouts) --
def test_cancel_removes_pending_timeout():
    sim = Simulator()
    fired = []
    t1 = sim.timeout(1.0)
    t1._add_cb(lambda ev: fired.append("t1"))
    t2 = sim.timeout(2.0)
    t2._add_cb(lambda ev: fired.append("t2"))
    sim.cancel(t1)
    sim.run()
    assert fired == ["t2"]
    assert sim.now == 2.0
    assert not t1.processed


def test_cancel_processed_event_rejected():
    sim = Simulator()
    t = sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.cancel(t)


def test_cancelled_head_does_not_pollute_peek():
    sim = Simulator()
    t1 = sim.timeout(1.0)
    sim.timeout(2.0)
    sim.cancel(t1)
    assert sim.peek() == 2.0


def test_timeout_at_fires_at_exact_absolute_time():
    sim = Simulator()
    sim.run(until=0.3)
    at = 0.3 + 0.7  # deliberately not representable as a round sum
    t = sim.timeout_at(at, value="v")
    sim.run()
    assert sim.now == at
    assert t.value == "v"


def test_timeout_at_in_past_rejected():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.timeout_at(1.0)


def test_pooled_timeout_recycled_and_reused():
    sim = Simulator()
    calls = []
    t = sim.pooled_timeout_at(1.0, lambda ev: calls.append(sim.now))
    sim.run()
    assert calls == [1.0]
    # The fired object returns to the free list and is handed out again.
    t2 = sim.pooled_timeout_at(2.0, lambda ev: calls.append(sim.now))
    assert t2 is t
    sim.run()
    assert calls == [1.0, 2.0]


def test_cancelled_pooled_timeout_is_recycled():
    sim = Simulator()
    t = sim.pooled_timeout_at(1.0, lambda ev: None)
    sim.timeout(2.0)
    sim.cancel(t)
    sim.run()
    assert sim.now == 2.0
    t2 = sim.pooled_timeout_at(3.0, lambda ev: None)
    assert t2 is t


def test_completed_event_is_processed_and_free():
    sim = Simulator()
    ev = sim.completed_event(value=42)
    assert ev.processed and ev.ok and ev.value == 42
    # Waiting on it resumes via the ping path without advancing time.
    out = []

    def proc():
        v = yield ev
        out.append((sim.now, v))

    sim.process(proc())
    sim.run()
    assert out == [(0.0, 42)]


def test_all_of_skips_pre_completed_events():
    sim = Simulator()
    done = sim.completed_event(value="x")
    t = sim.timeout(1.0, value="y")
    results = []

    def proc():
        got = yield AllOf(sim, [done, t])
        results.append(got)

    sim.process(proc())
    sim.run()
    assert sim.now == 1.0 and len(results) == 1


# ---------------------------------------------------------------------------
# Process.kill / Simulator.reclaim (fault-injection support)
# ---------------------------------------------------------------------------
def test_kill_reclaims_orphaned_timeout():
    """Killing a process must not leave its pending timeout dragging the
    clock: the orphaned event is reclaimed from the heap, so the run ends
    at the last *live* event's time."""
    sim = Simulator()
    log = []

    def victim():
        yield sim.timeout(10.0)
        log.append("victim")  # pragma: no cover - must never run

    def other():
        yield sim.timeout(1.0)
        log.append("other")

    p = sim.process(victim())
    sim.process(other())

    def killer():
        yield sim.timeout(0.5)
        p.kill(RuntimeError("node down"))

    sim.process(killer())
    sim.run()
    assert log == ["other"]
    assert sim.now == 1.0  # not 10.0: the orphan did not advance the clock
    assert not sim._queue  # nothing leaked into the heap
    assert p.processed and not p.ok
    assert isinstance(p.value, RuntimeError)


def test_kill_runs_finally_blocks_releasing_resources():
    """kill() closes the generator, so try/finally cleanup runs and held
    resources are released to waiters (no orphaned lock after node death)."""
    from repro.sim import Resource

    sim = Simulator()
    res = Resource(sim)
    got = []

    def holder():
        yield res.request()
        try:
            yield sim.timeout(100.0)
        finally:
            res.release()

    def waiter():
        yield sim.timeout(1.0)
        yield res.request()
        got.append(sim.now)
        res.release()

    p = sim.process(holder())
    sim.process(waiter())

    def killer():
        yield sim.timeout(2.0)
        p.kill()

    sim.process(killer())
    sim.run()
    assert got == [2.0]  # waiter acquired the instant the holder died


def test_kill_defuses_failure():
    """A killed process nobody waits on must not crash the run."""
    sim = Simulator()

    def victim():
        yield sim.timeout(5.0)

    p = sim.process(victim())

    def killer():
        yield sim.timeout(1.0)
        p.kill(ValueError("boom"))

    sim.process(killer())
    sim.run()  # no SimulationError: the failure is pre-defused
    assert not p.ok and isinstance(p.value, ValueError)


def test_kill_propagates_to_condition_waiters():
    """AllOf over a killed process fails with the kill cause."""
    sim = Simulator()
    seen = []

    def victim():
        yield sim.timeout(5.0)

    def bystander():
        yield sim.timeout(3.0)

    pv = sim.process(victim())
    pb = sim.process(bystander())

    def watcher():
        try:
            yield AllOf(sim, [pv, pb])
        except RuntimeError as exc:
            seen.append((sim.now, str(exc)))

    sim.process(watcher())

    def killer():
        yield sim.timeout(1.0)
        pv.kill(RuntimeError("node 3 died"))

    sim.process(killer())
    sim.run()
    assert seen == [(1.0, "node 3 died")]


def test_kill_reclaims_condition_orphans():
    """A victim parked on AnyOf(timeouts) leaves no heap entries behind."""
    sim = Simulator()

    def victim():
        yield AnyOf(sim, [sim.timeout(50.0), sim.timeout(80.0)])

    p = sim.process(victim())

    def killer():
        yield sim.timeout(1.0)
        p.kill()

    sim.process(killer())
    sim.run()
    assert sim.now == 1.0
    assert not sim._queue


def test_reclaim_returns_pooled_timeout_to_pool():
    """The event pool leaks nothing when a pooled timeout is reclaimed
    (the kill path routes orphaned poolable events through reclaim): the
    object is recycled and handed out again by the very next request."""
    sim = Simulator()
    hits = []
    t = sim.pooled_timeout_at(5.0, hits.append)
    sim.reclaim(t)
    assert not sim._queue  # eagerly removed, clock will not reach 5.0
    t2 = sim.pooled_timeout_at(1.0, hits.append)
    assert t2 is t  # recycled, not leaked
    sim.run()
    assert sim.now == 1.0
    assert hits == [t2]


def test_kill_is_idempotent_and_noop_after_completion():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(quick())
    sim.run()
    assert p.ok and p.value == "done"
    p.kill()  # no-op on a completed process
    assert p.ok and p.value == "done"


def test_kill_after_interrupt_swallows_stale_ping():
    """interrupt() queues an URGENT resume ping that is *not* the victim's
    target; a kill() in the same timestep cannot detach it.  When the stale
    ping pops, _resume must drop it instead of resuming a closed generator."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(10.0)
        except Interrupt:  # pragma: no cover - the kill must win
            log.append("interrupted")

    p = sim.process(victim())

    def killer():
        yield sim.timeout(1.0)
        p.interrupt("hiccup")  # stale ping enters the heap ...
        p.kill(RuntimeError("node down"))  # ... and the kill lands first

    sim.process(killer())
    sim.run()
    assert log == []
    assert not p.ok and isinstance(p.value, RuntimeError)


def test_reclaim_unprocessed_event():
    sim = Simulator()
    t = sim.timeout(5.0)
    sim.timeout(1.0)
    sim.reclaim(t)
    sim.run()
    assert sim.now == 1.0


def test_reclaim_processed_event_rejected():
    sim = Simulator()
    t = sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.reclaim(t)


def _real_urgent(sim, callback):
    """The reference ``urgent``: always a real URGENT entry at ``now``."""
    from repro.sim.kernel import URGENT

    ev = sim.event()
    ev._value = None
    ev._cb1 = lambda _ev: callback()
    sim._schedule(ev, priority=URGENT)


def _urgent_scenario(sim, urgent):
    """Callbacks deferred around process starts and same-instant timers;
    returns the log of who ran when."""
    log = []

    def note(name):
        def run():
            log.append((name, sim.now))
            if name == "a":  # a deferred call makes another one
                urgent(note("a2"))
        return run

    def child(name):
        log.append((name, sim.now))
        yield sim.timeout(1.0)
        log.append((name + "-end", sim.now))

    def parent():
        yield sim.timeout(1.0)
        urgent(note("a"))
        sim.process(child("p"))
        urgent(note("b"))  # queued behind p's URGENT start: a real entry
        sim.timeout(1.0)._add_cb(lambda _ev: log.append(("t", sim.now)))
        yield sim.timeout(0.5)
        urgent(note("c"))
        urgent(note("d"))
        log.append(("peek", sim.peek()))

    urgent(note("first"))  # outside any step: runs when the run starts
    sim.process(parent())
    sim.run()
    return log


def test_urgent_runs_where_an_urgent_entry_would():
    sim = Simulator()
    log = _urgent_scenario(sim, sim.urgent)
    ref_sim = Simulator()
    ref = _urgent_scenario(ref_sim, lambda cb: _real_urgent(ref_sim, cb))
    assert log == ref
    assert ("peek", 1.5) in log
    # Four of the six calls needed no heap entry: "b" and "a2" did, each
    # behind p's URGENT start.
    events = sim._seq - len(sim._queue)
    ref_events = ref_sim._seq - len(ref_sim._queue)
    assert events == ref_events - 4


def test_settle_needs_no_entry_when_nobody_waits():
    sim = Simulator()
    alone = sim.event()
    sim.settle(alone)
    assert alone.triggered and alone.processed
    assert sim._seq == 0  # no heap entry was made
    with pytest.raises(SimulationError):
        sim.settle(alone)

    waited = sim.event()
    woke = []

    def waiter():
        yield waited
        woke.append(sim.now)

    sim.process(waiter())
    sim.run()
    sim.settle(waited)  # a waiter is attached: succeeds through an entry
    assert not waited.processed
    sim.run()
    assert woke == [0.0] and waited.processed
