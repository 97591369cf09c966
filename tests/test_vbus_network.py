"""Tests for wormhole routing, the freeze domain, and the V-Bus broadcast."""

import pytest

from repro.sim import Simulator
from repro.vbus.mesh import MeshTopology
from repro.vbus.params import LinkParams
from repro.vbus.router import WormholeMesh
from repro.vbus.signal import bandwidth_Bps
from repro.vbus.vbusctl import FreezeDomain, VBusController


def make_mesh(rows=2, cols=2, **link_kw):
    sim = Simulator()
    domain = FreezeDomain(sim)
    link = LinkParams(**link_kw)
    mesh = WormholeMesh(sim, MeshTopology(rows, cols), link, domain)
    return sim, domain, mesh


def run_unicast(sim, mesh, src, dst, nbytes):
    proc = sim.process(mesh.unicast(src, dst, nbytes))
    return sim.run(until=proc)


def test_unicast_latency_formula():
    sim, _domain, mesh = make_mesh()
    nbytes = 4000
    t = run_unicast(sim, mesh, 0, 3, nbytes)  # 2 hops on a 2x2
    expected = 2 * mesh.link.router_delay_s + nbytes / mesh.link_rate_Bps
    assert t == pytest.approx(expected)


def test_unicast_same_node_free():
    sim, _domain, mesh = make_mesh()
    assert run_unicast(sim, mesh, 1, 1, 1000) == 0.0


def test_rate_cap_slows_streaming():
    sim, _domain, mesh = make_mesh()
    cap = mesh.link_rate_Bps / 10
    proc = sim.process(mesh.unicast(0, 1, 10000, rate_cap_Bps=cap))
    t = sim.run(until=proc)
    expected = mesh.link.router_delay_s + 10000 / cap
    assert t == pytest.approx(expected)


def test_contention_serializes_on_shared_channel():
    """Two messages over the same link: the second waits for the first."""
    sim, _domain, mesh = make_mesh(1, 3)  # line: 0-1-2
    done = {}

    def send(tag, src, dst, nbytes):
        t = yield from mesh.unicast(src, dst, nbytes)
        done[tag] = sim.now

    sim.process(send("a", 0, 2, 8000))
    sim.process(send("b", 0, 2, 8000))
    sim.run()
    solo = 2 * mesh.link.router_delay_s + 8000 / mesh.link_rate_Bps
    assert done["a"] == pytest.approx(solo)
    # b cannot even start hop 0 until a releases the whole path (wormhole).
    assert done["b"] == pytest.approx(2 * solo, rel=0.01)


def test_disjoint_paths_run_concurrently():
    sim, _domain, mesh = make_mesh(2, 2)
    done = {}

    def send(tag, src, dst):
        yield from mesh.unicast(src, dst, 8000)
        done[tag] = sim.now

    sim.process(send("a", 0, 1))
    sim.process(send("b", 2, 3))
    sim.run()
    assert done["a"] == pytest.approx(done["b"])


def test_freeze_pauses_streaming_and_resumes():
    sim, domain, mesh = make_mesh()
    nbytes = 50000
    proc = sim.process(mesh.unicast(0, 1, nbytes))

    freeze_len = 1e-3

    def freezer():
        yield sim.timeout(mesh.link.router_delay_s + 1e-6)  # mid-stream
        domain.freeze()
        yield sim.timeout(freeze_len)
        domain.thaw()

    sim.process(freezer())
    t = sim.run(until=proc)
    unfrozen = mesh.link.router_delay_s + nbytes / mesh.link_rate_Bps
    assert t == pytest.approx(unfrozen + freeze_len, rel=1e-6)
    assert domain.freeze_count == 1
    assert domain.total_frozen_s == pytest.approx(freeze_len)


def test_head_advancement_blocked_while_frozen():
    sim, domain, mesh = make_mesh(1, 3)
    domain.freeze()
    proc = sim.process(mesh.unicast(0, 2, 100))

    def thawer():
        yield sim.timeout(5e-3)
        domain.thaw()

    sim.process(thawer())
    t = sim.run(until=proc)
    assert t >= 5e-3



def test_timer_won_waits_leave_no_check_on_freeze_event():
    """A wait its timer wins detaches from the shared freeze event, so a
    long run with no freeze keeps only the live waiters there."""
    sim = Simulator()
    domain = FreezeDomain(sim)
    live = []

    def waiter(i):
        yield from domain.interruptible_delay((i + 1) * 1e-6)

    def probe():
        yield sim.timeout(100.5e-6)
        live.append(len(domain._freeze_event.callbacks))

    for i in range(200):
        sim.process(waiter(i))
    sim.process(probe())
    sim.run()
    assert live == [100]  # waits 101..200 us are still running
    assert domain._freeze_event.callbacks == []


def test_contended_unicasts_leave_no_check_on_freeze_event():
    sim, domain, mesh = make_mesh(2, 2)
    for src in (1, 2, 3):
        for _ in range(20):
            sim.process(mesh.unicast(src, 0, 512))
    sim.run()
    assert mesh.messages == 60
    assert domain._freeze_event.callbacks == []

def test_vbus_broadcast_timing():
    sim = Simulator()
    domain = FreezeDomain(sim)
    ctl = VBusController(sim, domain, setup_s=2e-6)
    rate = 50e6
    proc = sim.process(ctl.broadcast(10000, rate))
    sim.run(until=proc)
    assert sim.now == pytest.approx(2e-6 + 10000 / rate)
    assert ctl.broadcast_count == 1
    assert ctl.broadcast_bytes == 10000
    assert not domain.frozen


def test_vbus_broadcast_freezes_p2p_traffic():
    sim, domain, mesh = make_mesh()
    ctl = VBusController(sim, domain, setup_s=2e-6)
    events = []

    def p2p():
        t = yield from mesh.unicast(0, 1, 100000)
        events.append(("p2p", sim.now, t))

    def bcaster():
        yield sim.timeout(100e-6)  # let p2p get going
        yield from ctl.broadcast(5000, 50e6)
        events.append(("bcast", sim.now))

    sim.process(p2p())
    sim.process(bcaster())
    sim.run()
    by_tag = {e[0]: e for e in events}
    p2p_done, p2p_time = by_tag["p2p"][1], by_tag["p2p"][2]
    b_done = by_tag["bcast"][1]
    # The broadcast finishes first; the p2p transfer was paused for its
    # entire duration and completes later than it would have unfrozen.
    unfrozen = mesh.link.router_delay_s + 100000 / mesh.link_rate_Bps
    bcast_busy = 2e-6 + 5000 / 50e6
    assert b_done < p2p_done
    assert p2p_time == pytest.approx(unfrozen + bcast_busy, rel=1e-6)


def test_broadcasts_serialize_on_the_bus():
    sim = Simulator()
    domain = FreezeDomain(sim)
    ctl = VBusController(sim, domain, setup_s=1e-6)
    ends = []

    def b():
        yield from ctl.broadcast(50000, 50e6)
        ends.append(sim.now)

    sim.process(b())
    sim.process(b())
    sim.run()
    one = 1e-6 + 50000 / 50e6
    assert ends == [pytest.approx(one), pytest.approx(2 * one)]


def test_channel_stats_accumulate():
    sim, _domain, mesh = make_mesh()
    run_unicast(sim, mesh, 0, 1, 1000)
    ch = mesh.channels[(0, 1)]
    assert ch.messages == 1
    assert ch.busy_s > 0
    assert mesh.messages == 1
    assert mesh.bytes == 1000


def test_skwp_mesh_faster_than_conventional():
    _s1, _d1, skwp = make_mesh(mode="skwp")
    _s2, _d2, conv = make_mesh(mode="conventional")
    assert skwp.link_rate_Bps > 3 * conv.link_rate_Bps
