"""The batched fast path must be *bit-identical* to the stepwise oracle.

Every scenario here runs twice — ``fast_path=False`` (the stepwise
reference, event-per-hop/chunk) and ``fast_path=True`` (analytic charging,
see :mod:`repro.vbus.fastpath`) — and asserts ``==`` on simulated end
times, per-transfer receipts, hardware counters, and per-channel usage.
No tolerances: the fast path reproduces the oracle's floating-point
arithmetic operation by operation.
"""

import hashlib
import json
import math
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from repro.sim import AllOf, AnyOf, Event, Process, Simulator
from repro.sim.kernel import URGENT
from repro.vbus import cluster as cluster_mod
from repro.vbus import ethernet, fastpath
from repro.vbus.cluster import Cluster
from repro.vbus.ethernet import EthernetNetwork
from repro.vbus.nic import RECV_OVERHEAD_S
from repro.vbus.params import VBUS_SKWP, backend_params
from repro.vbus.router import Channel, WormholeMesh

#: Keys that only exist (or only count) on the fast path.
def _is_fast_key(key):
    return key.startswith("fast_")


def _params(rows, cols, fast):
    return replace(VBUS_SKWP, mesh=(rows, cols), fast_path=fast)


def _snapshot(cluster, records, fast_keys=False):
    stats = {
        k: v for k, v in cluster.stats().items()
        if fast_keys or not _is_fast_key(k)
    }
    channels = {
        key: (ch.messages, ch.busy_s)
        for key, ch in getattr(cluster.network, "channels", {}).items()
    }
    snap = {
        "now": cluster.sim.now,
        "records": sorted(records),
        "stats": stats,
        "channels": channels,
    }
    if cluster.tracer is not None:
        snap["spans"] = sorted(map(repr, cluster.tracer.spans))
        snap["metrics"] = cluster.tracer.metrics.rows()
    return snap


def _run(params, scenario, sim=None, fast_keys=False):
    """Run ``scenario(cluster, records)`` -> list of (name, generator);
    ``fast_keys`` keeps the fast-path counters in the snapshot."""
    records = []
    cluster = _run_cluster(params, scenario, sim, records)
    return _snapshot(cluster, records, fast_keys)


def _run_cluster(params, scenario, sim=None, records=None):
    """Run ``scenario`` on a new cluster; returns the cluster."""
    sim = sim or Simulator()
    cluster = Cluster(sim, params)
    records = [] if records is None else records

    def wrap(name, gen):
        def body():
            out = yield from gen
            end = sim.now
            if out is not None and hasattr(out, "total_s"):
                out = (out.nbytes, out.elements, out.contiguous,
                       out.cpu_s, out.total_s)
            records.append((name, end, out))

        return body()

    for name, gen in scenario(cluster, records):
        sim.process(wrap(name, gen), name=name)
    sim.run()
    return cluster


def assert_equivalent(rows, cols, scenario, trace=False):
    slow = _run(replace(_params(rows, cols, False), trace=trace), scenario)
    fast = _run(replace(_params(rows, cols, True), trace=trace), scenario)
    assert fast["now"] == slow["now"]
    assert fast["records"] == slow["records"]
    assert fast["stats"] == slow["stats"]
    assert fast["channels"] == slow["channels"]
    assert fast.get("spans") == slow.get("spans")
    assert fast.get("metrics") == slow.get("metrics")


MESHES = [(2, 2), (2, 4)]


# ---------------------------------------------------------------------------
# Micro scenarios
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rows,cols", MESHES)
def test_contiguous_dma_transfer(rows, cols):
    def scenario(cluster, records):
        n = cluster.nprocs
        return [
            ("dma", cluster.transfer(0, n - 1, 64 * 1024, contiguous=True)),
        ]

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_strided_pio_transfer(rows, cols):
    def scenario(cluster, records):
        return [
            ("pio", cluster.transfer(
                0, 1, 8 * 1024, elements=1024, contiguous=False)),
        ]

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_concurrent_staggered_transfers(rows, cols):
    """Overlapping transfers that contend for channels and DMA engines."""

    def scenario(cluster, records):
        n = cluster.nprocs
        sim = cluster.sim

        def staggered(delay, src, dst, nbytes, contiguous):
            yield sim.timeout(delay)
            r = yield from cluster.transfer(
                src, dst, nbytes, contiguous=contiguous
            )
            return r

        jobs = []
        for i in range(n):
            jobs.append((
                f"t{i}",
                staggered(i * 3e-6, i, (i + 1) % n, 16 * 1024, True),
            ))
            jobs.append((
                f"s{i}",
                staggered(i * 5e-6, i, (i + 2) % n, 2048, False),
            ))
        return jobs

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_broadcast_freezes_inflight_body(rows, cols):
    """A hardware broadcast freezes a unicast mid-body; the demoted fast
    leg must finish at the oracle's exact time."""

    def scenario(cluster, records):
        sim = cluster.sim

        def bcast():
            # 64 KiB at 50 MB/s DMA rate gives a ~1.3 ms body; freeze at
            # 0.5 ms lands squarely inside it.
            yield sim.timeout(0.5e-3)
            r = yield from cluster.hw_broadcast(1, 4096)
            return r

        return [
            ("long", cluster.transfer(0, cluster.nprocs - 1, 64 * 1024)),
            ("bcast", bcast()),
        ]

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_direct_freeze_during_head_phase(rows, cols):
    """A freeze landing inside the single-hop head window (router-delay
    wide) exercises the head-remainder demotion branch."""

    def scenario(cluster, records):
        sim = cluster.sim
        rd = cluster.params.link.router_delay_s
        # Adjacent ranks: one hop, claimed right after software setup
        # (6 us) + DMA programming (2 us).
        t_claim = (
            cluster.params.nic.setup_shared_queue_s
            + cluster.params.nic.dma_setup_s
        )

        def freezer():
            yield sim.timeout(t_claim + rd / 2)
            cluster.domain.freeze()
            yield sim.timeout(7e-6)
            cluster.domain.thaw()

        return [
            ("adj", cluster.transfer(0, 1, 32 * 1024)),
            ("freezer", freezer()),
        ]

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_rma_put_get_overlap(rows, cols):
    """Split-phase RMA legs (contiguous DMA + strided PIO) overlapping,
    with completions awaited fence-style."""

    def scenario(cluster, records):
        sim = cluster.sim
        n = cluster.nprocs

        def origin(rank):
            pending = []
            cpu, done = yield from cluster.rma_start(
                rank, (rank + 1) % n, 4096, contiguous=True
            )
            pending.append(done)
            cpu, done = yield from cluster.rma_start(
                rank, (rank + 2) % n, 1024, elements=128,
                contiguous=False, direction="get",
            )
            pending.append(done)
            cpu, done = yield from cluster.rma_start(rank, rank, 512)
            pending.append(done)
            live = [p for p in pending if not p.triggered]
            if live:
                yield AllOf(sim, live)
            return sim.now

        return [(f"rma{r}", origin(r)) for r in range(n)]

    assert_equivalent(rows, cols, scenario)


# ---------------------------------------------------------------------------
# Whole-program equivalence
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("granularity", ["fine", "middle", "coarse"])
def test_program_equivalence_mm(granularity):
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.workloads import mm

    prog = compile_source(mm.source(64), nprocs=4, granularity=granularity)
    slow = run_program(
        prog, cluster_params=_params(2, 2, False), execute=False
    )
    fast = run_program(
        prog, cluster_params=_params(2, 2, True), execute=False
    )
    assert fast.total_s == slow.total_s
    fast_hw = {k: v for k, v in fast.hw.items() if not _is_fast_key(k)}
    slow_hw = {k: v for k, v in slow.hw.items() if not _is_fast_key(k)}
    assert fast_hw == slow_hw


@pytest.mark.slow
def test_program_equivalence_cffzinit():
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.workloads import cffzinit

    prog = compile_source(cffzinit.source(8), nprocs=4, granularity="fine")
    slow = run_program(
        prog, cluster_params=_params(2, 2, False), execute=False
    )
    fast = run_program(
        prog, cluster_params=_params(2, 2, True), execute=False
    )
    assert fast.total_s == slow.total_s


def _wire_and_held(report):
    """Trace spans of wire legs and channel occupancy, order-free."""
    spans = [
        (track, name, t0, dur, repr(args))
        for track, name, t0, dur, args in report.trace.spans
        if name == "held" or name.startswith("wire ")
    ]
    return sorted(spans)


def _channel_usage(report):
    """Per-channel (messages, busy_s) from the traced run's metric rows."""
    rows = {row["name"]: row["value"] for row in report.metrics_rows}
    return {
        name: (value, rows[name.replace("messages", "busy_s")])
        for name, value in rows.items()
        if name.startswith("channel.messages")
    }


def test_program_equivalence_mm_collect_hotspot_16_ranks():
    """MM-64 x 16 ranks on a 4x4 mesh: every slave puts its block back to
    the master, so the channels into node 0 queue hundreds of legs."""
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.workloads import mm

    prog = compile_source(mm.source(64), nprocs=16)
    slow = run_program(
        prog, cluster_params=_params(4, 4, False), execute=False, trace=True
    )
    fast = run_program(
        prog, cluster_params=_params(4, 4, True), execute=False, trace=True
    )
    assert fast.hw["fast_fallbacks"] > 800
    assert fast.total_s == slow.total_s
    fast_hw = {k: v for k, v in fast.hw.items() if not _is_fast_key(k)}
    slow_hw = {k: v for k, v in slow.hw.items() if not _is_fast_key(k)}
    assert fast_hw == slow_hw
    usage = _channel_usage(fast)
    assert len(usage) == 48  # directed channels of a 4x4 mesh
    assert usage == _channel_usage(slow)
    assert _wire_and_held(fast) == _wire_and_held(slow)


#: Programs the Ethernet oracle cells run: (workload spec, ranks).
ETHERNET_PROGRAMS = [("MM-64", 16), ("SWIM-32", 4), ("XOVER-64", 4)]


def _traced_outputs(program, params):
    """A traced timing run's report JSON, Chrome trace and metric rows.

    The ``sim.*`` rows count kernel entries, which the fast path pops
    fewer of; every other output must be identical."""
    from repro.obs.export import chrome_trace
    from repro.runtime.executor import run_program

    report = run_program(
        program, cluster_params=params, execute=False, trace=True
    )
    rows = [
        row for row in report.metrics_rows
        if not row["name"].startswith("sim.")
    ]
    return (
        json.dumps(report.to_jsonable(), sort_keys=True),
        json.dumps(chrome_trace(report.trace), sort_keys=True),
        rows,
    )


@pytest.mark.slow
@pytest.mark.parametrize("granularity", ["fine", "coarse"])
@pytest.mark.parametrize("backend", ["gige", "ethernet100"])
@pytest.mark.parametrize("spec,nprocs", ETHERNET_PROGRAMS)
def test_program_equivalence_ethernet(spec, nprocs, backend, granularity):
    """Ethernet backends: the fast path's NIC rules (merged PIO timer,
    synchronous DMA take, put streams) leave every output of the
    stepwise oracle unchanged."""
    from repro.compiler.pipeline import compile_source
    from repro.vbus.params import backend_params
    from repro.workloads import source_for

    prog = compile_source(
        source_for(spec), nprocs=nprocs, granularity=granularity
    )
    params = backend_params(backend, nprocs)
    slow = _traced_outputs(prog, replace(params, fast_path=False))
    fast = _traced_outputs(prog, replace(params, fast_path=True))
    assert fast == slow


@pytest.mark.slow
def test_mm_vbus_benchmark_pin():
    """The benchmark's mm-vbus pin (MM-512 x 16: fast path == stepwise
    oracle, checked inside ``pin()``) still matches expect.json."""
    import sys
    from pathlib import Path

    perf = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
    sys.path.insert(0, str(perf))
    from suite import WORKLOADS
    from worker import build, load_expect, pin

    workload = WORKLOADS["mm-vbus"]
    pins = pin(workload, build(workload))
    expect = load_expect()
    assert pins == {key: expect[key] for key in pins}


@pytest.mark.slow
def test_mm_gige_benchmark_cell_matches_stepwise():
    """The benchmark's mm-gige cell (MM-512 x 16 on switched GigE, fast
    path on, as ``benchmarks/perf`` runs it): report JSON, Chrome trace
    and metric rows minus ``sim.*`` equal the stepwise oracle's, and the
    simulated seconds and messages equal the benchmark's pin."""
    import sys
    from pathlib import Path

    from repro.compiler.pipeline import compile_source
    from repro.workloads import source_for

    perf = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
    sys.path.insert(0, str(perf))
    from worker import load_expect

    params = backend_params("gige", 16)
    prog = compile_source(source_for("MM-512"), nprocs=16)
    slow = _traced_outputs(prog, replace(params, fast_path=False))
    fast = _traced_outputs(prog, replace(params, fast_path=True))
    assert fast == slow
    report = json.loads(fast[0])
    pin = load_expect()["MM-512/gige/16"]
    assert report["simulated_s"] == pin["simulated_s"]
    assert report["hw"]["messages"] == pin["messages"]


# ---------------------------------------------------------------------------
# Fast-path bookkeeping
# ---------------------------------------------------------------------------
def test_fast_path_actually_engages():
    """The fast configuration must actually charge legs analytically."""
    params = _params(2, 2, True)
    sim = Simulator()
    cluster = Cluster(sim, params)
    proc = sim.process(cluster.transfer(0, 1, 4096))
    sim.run(until=proc)
    assert cluster.network.fast_legs == 1
    assert cluster.network.fast_fallbacks == 0


def _spy_unicast(monkeypatch):
    """Record every entry into the mesh's stepwise ``unicast``."""
    entered = []
    unicast = WormholeMesh.unicast

    def spy(mesh, *args, **kwargs):
        entered.append(args)
        return unicast(mesh, *args, **kwargs)

    monkeypatch.setattr(WormholeMesh, "unicast", spy)
    return entered


@pytest.mark.parametrize("spec,nprocs", [("MM-64", 16), ("SWIM-32", 4)])
def test_no_mesh_send_runs_the_generator(spec, nprocs, monkeypatch):
    """Fast path on, no fault plan: a mesh send that misses the claim
    runs as a queued leg, never as the stepwise ``unicast`` generator."""
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.workloads import source_for

    entered = _spy_unicast(monkeypatch)
    misses = []
    start_send_leg = WormholeMesh.start_send_leg

    def spy(mesh, *args, **kwargs):
        before = mesh.fast_fallbacks
        done = start_send_leg(mesh, *args, **kwargs)
        misses.append(mesh.fast_fallbacks - before)
        return done

    monkeypatch.setattr(WormholeMesh, "start_send_leg", spy)
    run_program(
        compile_source(source_for(spec), nprocs=nprocs),
        cluster_params=replace(backend_params("vbus", nprocs), fast_path=True),
        execute=False,
    )
    assert sum(misses) > 0  # some sends did miss the claim
    assert entered == []


def test_stepwise_mode_never_uses_fast_legs():
    params = _params(2, 2, False)
    sim = Simulator()
    cluster = Cluster(sim, params)
    proc = sim.process(cluster.transfer(0, 1, 4096))
    sim.run(until=proc)
    assert cluster.network.fast_legs == 0


# ---------------------------------------------------------------------------
# Fault plans and the fast path
# ---------------------------------------------------------------------------
def _fault_params(rows, cols, fast):
    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan(
        seed=17,
        specs=(
            FaultSpec(kind="drop", rate=0.05),
            FaultSpec(kind="delay", rate=0.25, delay_s=2e-6),
        ),
    )
    return replace(_params(rows, cols, fast), faults=plan)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_fault_plan_fast_vs_slow_equivalent(rows, cols):
    """With an active plan the fast config must replay faults identically.

    It does so by demoting itself wholesale (every leg goes stepwise), so
    fast and slow runs are the *same* injection sequence — end times,
    receipts, counters, and fault statistics all match exactly.
    """

    def scenario(cluster, records):
        return [
            ("a", cluster.transfer(0, 1, 4096)),
            ("b", cluster.transfer(1, 0, 2048)),
            ("c", cluster.transfer(0, rows * cols - 1, 8192)),
        ]

    slow = _run(_fault_params(rows, cols, False), scenario)
    fast = _run(_fault_params(rows, cols, True), scenario)
    assert fast["now"] == slow["now"]
    assert fast["records"] == slow["records"]
    assert fast["stats"] == slow["stats"]  # includes fault_* counters
    assert fast["channels"] == slow["channels"]
    assert slow["stats"]["fault_dropped_flits"] > 0


def test_active_fault_plan_demotes_every_leg(monkeypatch):
    """fast_path=True + active plan => zero fast legs, fallbacks counted,
    and the send runs the stepwise ``unicast``."""
    entered = _spy_unicast(monkeypatch)
    params = _fault_params(2, 2, True)
    sim = Simulator()
    cluster = Cluster(sim, params)
    proc = sim.process(cluster.transfer(0, 1, 4096))
    sim.run(until=proc)
    assert cluster.network.fast_legs == 0
    assert cluster.network.fast_fallbacks >= 1
    assert entered == [(0, 1, 4096, VBUS_SKWP.nic.dma_rate_Bps)]


def test_empty_fault_plan_keeps_fast_path():
    """A plan with no specs is inactive: no injector, fast path engages."""
    from repro.faults import FaultPlan

    params = replace(_params(2, 2, True), faults=FaultPlan(seed=3))
    sim = Simulator()
    cluster = Cluster(sim, params)
    assert cluster.injector is None
    proc = sim.process(cluster.transfer(0, 1, 4096))
    sim.run(until=proc)
    assert cluster.network.fast_legs == 1


# ---------------------------------------------------------------------------
# Queued legs: contended RMA legs driven by callbacks, not processes
# ---------------------------------------------------------------------------
#: Bytes/elements of each collect put, and puts per origin rank.
COLLECT_BYTES = 2048
COLLECT_PUTS = 2

#: Where a freeze lands in the collect hotspot (see ``_hotspot``).
FREEZES = ["none", "queue", "head", "inject", "short"]


def _legs(puts, completions):
    """An ``rma_legs`` coroutine putting ``(remote, nbytes, contiguous)``
    for each of ``puts``; collects the completion events."""
    for remote, nbytes, contiguous in puts:
        _t0, _t1, _cpu, done = yield (
            remote, nbytes, None, contiguous, "put"
        )
        completions.append(done)


def _collect_scenario(contiguous, bcast_at=None, freeze=None, stream=False,
                      bcast_src=0, send=False):
    """Ranks 1..15 of a 4x4 mesh each put twice to rank 0 at once (the
    master/slave collect hotspot).  Optionally rank ``bcast_src`` starts
    a hardware broadcast at ``bcast_at``, or the domain freezes directly
    for ``freeze = (at, seconds)``.  ``stream``: each origin issues its
    puts as one ``rma_legs`` call, not one ``rma_start`` per put.
    ``send``: each rank sends (``Cluster.transfer``) instead of putting,
    the send hotspot."""

    def scenario(cluster, records):
        sim = cluster.sim

        def origin(rank):
            pending = []
            if stream:
                puts = [(0, COLLECT_BYTES, contiguous)] * COLLECT_PUTS
                yield from cluster.rma_legs(rank, _legs(puts, pending))
            for _ in range(0 if stream else COLLECT_PUTS):
                _cpu, done = yield from cluster.rma_start(
                    rank, 0, COLLECT_BYTES, elements=COLLECT_BYTES // 8,
                    contiguous=contiguous,
                )
                pending.append(done)
            live = [p for p in pending if not p.triggered]
            if live:
                yield AllOf(sim, live)
            return sim.now

        def sender(rank):
            for _ in range(COLLECT_PUTS):
                yield from cluster.transfer(
                    rank, 0, COLLECT_BYTES, elements=COLLECT_BYTES // 8,
                    contiguous=contiguous,
                )
            return sim.now

        if send:
            jobs = [(f"send{r}", sender(r)) for r in range(1, cluster.nprocs)]
        else:
            jobs = [(f"put{r}", origin(r)) for r in range(1, cluster.nprocs)]
        if bcast_at is not None:

            def bcast():
                yield sim.timeout(bcast_at)
                r = yield from cluster.hw_broadcast(bcast_src, 4096)
                return r

            jobs.append(("bcast", bcast()))
        if freeze is not None:

            def freezer():
                yield sim.timeout_at(freeze[0])
                cluster.domain.freeze()
                yield sim.timeout(freeze[1])
                cluster.domain.thaw()

            jobs.append(("freezer", freezer()))
        return jobs

    return scenario


def _bcast_start_for_freeze_at(t_freeze):
    """The broadcast start whose freeze lands exactly at ``t_freeze``.

    Rank 0's NIC is idle, so its broadcast freezes the mesh after the
    software setup and DMA programming: at ``(t + setup) + dma_setup``.
    Nudge ``t`` by ulps until that float sum hits ``t_freeze`` exactly.
    """
    nic = VBUS_SKWP.nic
    setup, dma = nic.setup_shared_queue_s, nic.dma_setup_s
    t = max(0.0, t_freeze - setup - dma)
    for _ in range(64):
        got = (t + setup) + dma
        if got == t_freeze:
            return t
        t = math.nextafter(t, math.inf if got < t_freeze else -math.inf)
    raise AssertionError(f"no broadcast start freezes at {t_freeze!r}")


def _first_put_injection(contiguous):
    """When every origin's first put (or send) reaches the wire (all
    start at 0)."""
    nic = VBUS_SKWP.nic
    setup = nic.setup_shared_queue_s
    if contiguous:
        return (0.0 + setup) + nic.dma_setup_s
    pio = nic.pio_setup_s + (COLLECT_BYTES // 8) * nic.pio_per_element_s
    return (0.0 + setup) + pio


def _grants(scenario):
    """Hop-by-hop channel-grant times in a fast run of ``scenario``
    (analytic legs claim their channels instead)."""
    grants = []
    on_acquired = Channel.on_acquired

    def spy(ch):
        grants.append(ch.sim.now)
        on_acquired(ch)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Channel, "on_acquired", spy)
        _run(_params(4, 4, True), scenario)
    return grants


def _hotspot(contiguous, where, stream=False, send=False):
    """The collect (or ``send``) hotspot with a freeze landing ``where``:

    * ``queue`` — a broadcast while legs wait in a channel queue (10 us
      after the first legs inject, one leg streams and the rest queue);
    * ``head`` — a broadcast inside a queued leg's head hop;
    * ``inject`` — a broadcast at the first legs' injection instant (the
      second legs then inject into the frozen domain);
    * ``short`` — a direct freeze inside a queued head hop that thaws
      before the hop's timer would have fired.
    """
    hotspot = partial(_collect_scenario, contiguous, stream=stream, send=send)
    if where == "none":
        return hotspot()
    t_inject = _first_put_injection(contiguous)
    if where == "queue":
        return hotspot(_bcast_start_for_freeze_at(t_inject + 10e-6))
    if where == "inject":
        return hotspot(_bcast_start_for_freeze_at(t_inject))
    rd = VBUS_SKWP.link.router_delay_s
    grant = _grants(_collect_scenario(contiguous, send=send))[4]
    if where == "head":
        return hotspot(_bcast_start_for_freeze_at(grant + rd / 2))
    assert where == "short"
    return hotspot(freeze=(grant + rd / 2, rd / 4))


def _spy_freeze_wakes(monkeypatch):
    """Record when a freeze (not the timer) wakes a queued leg's wait."""
    freeze_wakes = []
    on_wake = fastpath._QueuedLeg._on_wake

    def spy(leg, ev):
        if not leg.timer_won:
            freeze_wakes.append(leg.sim.now)
        on_wake(leg, ev)

    monkeypatch.setattr(fastpath._QueuedLeg, "_on_wake", spy)
    return freeze_wakes


@pytest.mark.parametrize("where", FREEZES)
@pytest.mark.parametrize("contiguous", [True, False])
def test_collect_hotspot_queued_legs(contiguous, where, monkeypatch):
    scenario = _hotspot(contiguous, where)
    freeze_wakes = _spy_freeze_wakes(monkeypatch)
    assert_equivalent(4, 4, scenario)
    if where in ("head", "short"):
        assert freeze_wakes  # the freeze did cut a queued leg's head hop


@pytest.mark.parametrize("where", FREEZES)
@pytest.mark.parametrize("contiguous", [True, False])
def test_send_hotspot_matches_stepwise(contiguous, where, monkeypatch):
    """Fifteen ranks send to rank 0 at once, with each freeze placement:
    end times, receipts, counters and channel use equal the stepwise
    oracle's."""
    scenario = _hotspot(contiguous, where, send=True)
    freeze_wakes = _spy_freeze_wakes(monkeypatch)
    assert_equivalent(4, 4, scenario)
    if where in ("head", "short"):
        assert freeze_wakes  # the freeze did cut a queued send's head hop


def _wakes(event):
    """Who a popped event wakes; every step of a wire leg reads ``leg``."""
    cb = event._cb1 or (event._cbs[0] if event._cbs else None)
    if isinstance(cb, partial):
        cb = cb.args[0]  # a leg start made a real entry (_Stage1Simulator)
    owner = getattr(cb, "__self__", None)
    if isinstance(owner, (fastpath._QueuedLeg, ethernet._Leg, AnyOf)):
        return "leg"
    if isinstance(owner, Process):
        return "leg" if owner.name.startswith("rma-wire") else owner.name
    return getattr(cb, "__qualname__", None)


def _rank_of(name):
    """``r<k>`` for a job or ``rma-wire`` process acting for rank ``k``
    (``put<k>``, ``send<k>``, ``rma-wire[<k>->...]``), else ``name``."""
    m = re.match(r"(?:put|send|rma-wire\[)(\d+)", name)
    return f"r{m.group(1)}" if m else name


class _RankLabels:
    """Who a popped event wakes, as the rank it acts for.

    A wire step reads the same whether it runs in the sending rank's
    process, an ``rma-wire`` process or a leg callback: the rank whose
    data it carries (a leg's source).  Named jobs (``bcast``,
    ``freezer``, ``fastleg-demoted``) keep their names, other callbacks
    their qualified names.  An ``AnyOf`` reads as the process it wakes,
    remembered from its first entry: once it fired, a late timer's
    no-op check still names that process.
    """

    def __init__(self):
        self.anyof = {}

    def __call__(self, event):
        cbs = [event._cb1] if event._cb1 is not None else []
        cbs += event._cbs or []
        labels = [self.of(cb) for cb in cbs]
        return labels[0] if labels else None

    def of(self, cb):
        if isinstance(cb, partial):
            cb = cb.args[0]  # a leg start made a real entry (_Stage1Simulator)
        owner = getattr(cb, "__self__", None)
        if isinstance(owner, AnyOf):
            if owner._cb1 is not None:
                self.anyof[owner] = self.of(owner._cb1)
            return self.anyof[owner]
        if isinstance(owner, Process):
            return _rank_of(owner.name)
        if isinstance(owner, fastpath._QueuedLeg):
            return f"r{owner.path[0].u}"
        if isinstance(owner, fastpath._FastLeg):
            return f"r{owner.channels[0].u}"
        if isinstance(owner, cluster_mod._RmaStream):
            return f"r{owner.origin}"
        return cb.__qualname__


class _LoggingSimulator(Simulator):
    """A simulator recording each heap entry it pops: (time, priority,
    seq, ``label(event)``, by default what the event wakes)."""

    def __init__(self, label=_wakes):
        super().__init__()
        self.label = label
        self.popped = []

    def _step(self):
        when, prio, seq, event = self._queue[0]
        self.popped.append((when, prio, seq, self.label(event)))
        super()._step()


def _run_start(callback, _ev):
    callback()


class _Stage1Simulator(_LoggingSimulator):
    """A logging simulator on which every ``urgent`` call schedules its
    URGENT entry for real, as a process start does."""

    def urgent(self, callback):
        start = Event(self)
        start._value = None
        start._cb1 = partial(_run_start, callback)
        self._schedule(start, priority=URGENT)


def _acting(popped):
    """The popped entries that run a callback, each seq replaced by its
    rank among them: entries nobody waits on (a finished ``rma-wire``
    process, a leg completion no drain holds) are dropped by the fast
    path, which shifts the seq values but not their order."""
    acting = [entry for entry in popped if entry[3] is not None]
    rank = {seq: i for i, seq in enumerate(sorted(e[2] for e in acting))}
    return [(when, prio, rank[seq], what) for when, prio, seq, what in acting]


#: The pop-log golden: per hotspot cell ``<kind>-<dma|pio>-<where>``,
#: the number and sha256 of its acting entries ``(time, priority, rank,
#: label)`` under :class:`_RankLabels` on a :class:`_Stage1Simulator`,
#: and its fast-path counters.  Recorded from the stepwise wire legs
#: (promoting ``rma-wire`` processes and sends' ``unicast`` inside the
#: rank) with ``python tests/make_poplog_goldens.py``.
POP_GOLDEN = Path(__file__).parent / "golden" / "pop_logs.json"
POP_CELLS = {
    f"{kind}-{'dma' if contiguous else 'pio'}-{where}": (
        kind, contiguous, where
    )
    for kind in ("collect", "send")
    for contiguous in (True, False)
    for where in FREEZES
}


def pop_log(name):
    """One pop-log golden cell, measured."""
    kind, contiguous, where = POP_CELLS[name]
    sim = _Stage1Simulator(_RankLabels())
    cluster = _run_cluster(
        _params(4, 4, True), _hotspot(contiguous, where, send=kind == "send"),
        sim,
    )
    acting = _acting(sim.popped)
    blob = json.dumps(acting).encode()
    stats = cluster.stats()
    return {
        "entries": len(acting),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "fast": {k: v for k, v in sorted(stats.items()) if _is_fast_key(k)},
    }


def _pop_golden(kind, contiguous, where):
    name = f"{kind}-{'dma' if contiguous else 'pio'}-{where}"
    return name, json.loads(POP_GOLDEN.read_text())[name]


def test_pop_golden_covers_every_cell():
    assert sorted(json.loads(POP_GOLDEN.read_text())) == sorted(POP_CELLS)


@pytest.mark.parametrize("where", FREEZES)
@pytest.mark.parametrize("contiguous", [True, False])
def test_queued_legs_pop_the_rma_wire_events(contiguous, where):
    """Queued legs pop exactly the acting entries of the promoting
    ``rma-wire`` processes they replaced (the golden): same times,
    priorities, order and ranks, and the same fast-path counters."""
    name, golden = _pop_golden("collect", contiguous, where)
    assert pop_log(name) == golden


@pytest.mark.parametrize("where", FREEZES)
@pytest.mark.parametrize("contiguous", [True, False])
def test_queued_send_legs_pop_the_unicast_events(contiguous, where):
    """Sends that miss the claim pop exactly the acting entries of the
    promoting ``unicast`` run inside the sending rank (the golden)."""
    name, golden = _pop_golden("send", contiguous, where)
    assert pop_log(name) == golden


def _rma_processes(params, contiguous):
    """Run the collect hotspot; return (cluster, names of the processes
    rma_start started)."""
    sim = Simulator()
    cluster = Cluster(sim, params)
    names = []
    start_process = sim.process

    def spy(generator, name=""):
        names.append(name)
        return start_process(generator, name=name)

    sim.process = spy
    for name, gen in _collect_scenario(contiguous)(cluster, []):
        start_process(gen, name=name)
    sim.run()
    return cluster, names


@pytest.mark.parametrize("contiguous", [True, False])
def test_queued_legs_start_no_process(contiguous):
    """fast_path on, no fault plan: a contended rma_start leg is a
    callback-driven queued leg, never an ``rma-wire`` process."""
    cluster, names = _rma_processes(_params(4, 4, True), contiguous)
    assert cluster.network.fast_fallbacks > 0
    assert not [n for n in names if n.startswith("rma-wire")]
    assert cluster.domain._freeze_event.callbacks == []


@pytest.mark.parametrize("contiguous", [True, False])
def test_active_fault_plan_keeps_rma_wire_processes(contiguous):
    cluster, names = _rma_processes(_fault_params(4, 4, True), contiguous)
    assert cluster.network.fast_legs == 0
    wires = [n for n in names if n.startswith("rma-wire")]
    assert len(wires) == (cluster.nprocs - 1) * COLLECT_PUTS


# ---------------------------------------------------------------------------
# Put streams: one rank's puts as one callback chain
# ---------------------------------------------------------------------------
def _generator_leg(cluster, origin, remote, nbytes, elements, contiguous,
                   direction):
    """A fast-path leg as one generator per put (the put loop the streams
    replace): setup timer, DMA take or grant, ``dma_setup`` timer (or
    the merged PIO timer), then ``start_leg``."""
    sim = cluster.sim
    nic = cluster.nics[origin]
    if elements is None:
        elements = max(1, nbytes // 8)
    if origin == remote or nbytes == 0:
        return 0.0, sim.completed_event()
    t0 = sim.now
    setup_s = nic.software_setup_s()
    src, dst = (origin, remote) if direction == "put" else (remote, origin)
    if contiguous:
        yield sim.timeout(setup_s)
        if not nic._dma.try_acquire():
            yield nic._dma.request()
        yield sim.timeout(cluster.params.nic.dma_setup_s)
        cpu_s = setup_s + cluster.params.nic.dma_setup_s
        done = fastpath.start_leg(
            cluster.network, src, dst, nbytes, cluster.params.nic.dma_rate_Bps,
            RECV_OVERHEAD_S, at_tail=nic._dma.release,
        )
    else:
        pio = nic.pio_s(elements)
        yield sim.timeout_at((t0 + setup_s) + pio)
        cpu_s = setup_s + pio
        done = fastpath.start_leg(
            cluster.network, src, dst, nbytes, None, RECV_OVERHEAD_S
        )
    cluster._charge_leg(
        origin, remote, nbytes, elements, contiguous, direction, cpu_s, t0,
        sim.now,
    )
    return cpu_s, done


def _origin_label(popped):
    """Name every entry that advances an origin's puts ``origin``: a
    stream callback, or the origin process itself in the generator run."""
    out = []
    for when, prio, seq, what in popped:
        if what and (what.startswith("put") or what.startswith("_RmaStream")):
            what = "origin"
        out.append((when, prio, seq, what))
    return out


@pytest.mark.parametrize("where", FREEZES)
@pytest.mark.parametrize("contiguous", [True, False])
def test_put_streams_pop_the_generator_put_loop_events(
    contiguous, where, monkeypatch
):
    """With booking off, a put stream pops exactly the entries of the
    generator put loop: same times, priorities and relative order."""
    scenario = _hotspot(contiguous, where, stream=True)
    monkeypatch.setattr(
        cluster_mod._RmaStream, "_next_plan", lambda *a: None
    )
    runs = []
    for streams in (False, True):
        sim = _LoggingSimulator()
        with monkeypatch.context() as m:
            if not streams:
                m.setattr(Cluster, "_rma_leg", _generator_leg)
                init = Cluster.__init__

                def no_streams(self, *a, **k):
                    init(self, *a, **k)
                    self.streams = False

                m.setattr(Cluster, "__init__", no_streams)
            snapshot = _run(_params(4, 4, True), scenario, sim)
        runs.append((snapshot, _acting(_origin_label(sim.popped))))
    assert runs[1] == runs[0]


def _spy_booking(monkeypatch, network=WormholeMesh):
    """Count legs the streams book and legs they claim."""
    seen = {"booked": 0, "claimed": 0}
    book, claim = network.book_leg, network.claim_leg

    def booked(*a, **k):
        seen["booked"] += 1
        return book(*a, **k)

    def claimed(*a, **k):
        seen["claimed"] += 1
        return claim(*a, **k)

    monkeypatch.setattr(network, "book_leg", booked)
    monkeypatch.setattr(network, "claim_leg", claimed)
    return seen


def _scatter(batches, extra=()):
    """Rank 0 issues each batch of ``(remote, nbytes, contiguous)`` puts
    as one stream, then drains; ``extra`` jobs run alongside."""

    def scenario(cluster, records):
        sim = cluster.sim

        def master():
            pending = []
            for puts in batches:
                yield from cluster.rma_legs(0, _legs(puts, pending))
            live = [p for p in pending if not p.triggered]
            if live:
                yield AllOf(sim, live)
            return sim.now

        return [("master", master())] + [
            (name, job(cluster)) for name, job in extra
        ]

    return scenario


SCATTER = [(r, 2048, True) for r in range(1, 16)]


def _later(at, work):
    def job(cluster):
        yield cluster.sim.timeout(at)
        out = yield from work(cluster)
        return out

    return job


BOOKING = {
    # A foreign timer inside the stream: booking stops at it, and the
    # legs after it book again from the next horizon.
    "foreign": _scatter(
        [SCATTER],
        [("foreign", _later(230e-6, lambda c: c.transfer(1, 3, 8192)))],
    ),
    # A broadcast whose first entry lies just past a booked run: its
    # freeze demotes the claimed leg that ends the run.
    "bcast": _scatter(
        [SCATTER],
        [("bcast", _later(300e-6, lambda c: c.hw_broadcast(3, 4096)))],
    ),
    # Single-hop legs pass the head-window guard at any horizon, so only
    # the horizon itself stops booking before the freeze.
    "one_hop_bcast": _scatter(
        [[(1, 2048, True)] * 15],
        [("bcast", _later(300e-6, lambda c: c.hw_broadcast(3, 4096)))],
    ),
    # A long foreign leg holds 1->2 before the stream starts: the leg to
    # 8 may not be booked, since the next one (to 2) must queue.
    "held_route": _scatter(
        [[(4, 2048, True), (8, 2048, True), (2, 2048, True),
          (3, 2048, True), (12, 2048, True)]],
        [("foreign", _later(1e-6, lambda c: c.transfer(1, 3, 65536)))],
    ),
    "two_windows": _scatter([SCATTER, SCATTER[::-1]]),
    "strided": _scatter([[(r, 1024, False) for r in range(1, 16)]]),
    "mixed": _scatter([
        [(1, 2048, True), (0, 2048, True), (2, 0, True), (3, 512, False),
         (4, 2048, True), (0, 64, False), (5, 4096, True), (6, 256, False),
         (7, 2048, True)],
    ]),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(BOOKING))
def test_booked_puts_match_stepwise(name, trace, monkeypatch):
    """Puts booked ahead of the event horizon: end times, receipts,
    counters, per-channel (messages, busy_s) and (traced) every span
    equal the stepwise oracle's."""
    seen = _spy_booking(monkeypatch)
    assert_equivalent(4, 4, BOOKING[name], trace=trace)
    assert seen["booked"] > 0
    if name in ("foreign", "bcast", "one_hop_bcast", "two_windows"):
        assert seen["claimed"] > 1  # booking stopped and resumed
    # Booked legs count as fast legs: every fast-path counter equals a
    # run whose streams never book.
    fast = _run(_params(4, 4, True), BOOKING[name], fast_keys=True)["stats"]
    monkeypatch.setattr(
        cluster_mod._RmaStream, "_next_plan", lambda *a: None
    )
    unbooked = _run(
        _params(4, 4, True), BOOKING[name], fast_keys=True
    )["stats"]
    assert fast == unbooked


def test_booking_stops_at_the_horizon(monkeypatch):
    """No booked leg's tail reaches the next foreign entry."""
    ends = []
    book = WormholeMesh.book_leg

    def spy(mesh, plan):
        ends.append((mesh.sim.now, plan.t_end))
        return book(mesh, plan)

    monkeypatch.setattr(WormholeMesh, "book_leg", spy)
    _run(_params(4, 4, True), BOOKING["foreign"])
    assert ends
    foreign = 230e-6
    for booked_at, tail in ends:
        assert tail < foreign or booked_at >= foreign


def test_unwaited_completions_are_not_scheduled():
    """A leg completion nobody waits on is retired without a heap
    entry; one a drain holds still wakes it."""
    params = _params(2, 2, True)
    sim = Simulator()
    cluster = Cluster(sim, params)
    out = {}

    def origin():
        _cpu, first = yield from cluster.rma_start(0, 1, 4096)
        _cpu, second = yield from cluster.rma_start(0, 1, 4096)
        yield sim.timeout(1.0)  # both legs end while nobody waits
        out["first"] = (first.triggered, first.processed)
        _cpu, third = yield from cluster.rma_start(0, 1, 4096)
        yield third
        out["third"] = sim.now

    sim.process(origin())
    sim.run()
    assert out["first"] == (True, True)
    assert out["third"] > 1.0


# ---------------------------------------------------------------------------
# Ethernet legs: callback legs and booking on switched GigE and the medium
# ---------------------------------------------------------------------------
ETHERNETS = ["gige", "ethernet100"]


def _ethernet(backend, fast, trace=False, faults=None):
    """The backend's 16-node preset."""
    return replace(
        backend_params(backend, 16), fast_path=fast, trace=trace,
        faults=faults,
    )


def assert_equivalent_ethernet(backend, scenario, trace=True):
    slow = _run(_ethernet(backend, False, trace), scenario)
    fast = _run(_ethernet(backend, True, trace), scenario)
    assert fast == slow


def _request_port(leg, port, then):
    """``_Leg._take`` without the synchronous take: always request."""
    port.request()._add_cb(then)


#: A flood broadcast from rank 1 while the first collect legs are on
#: the wire: on GigE its copy to rank 0 queues on the hotspot downlink
#: behind the legs, on the medium its transmission queues behind them.
FLOOD_AT = 30e-6


@pytest.mark.parametrize("flood", [False, True])
@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("backend", ETHERNETS)
def test_ethernet_legs_pop_the_rma_wire_events(
    backend, contiguous, flood, monkeypatch
):
    """With every start a real URGENT entry, every port requested and no
    booking, Ethernet callback legs pop exactly the acting entries of the
    ``rma-wire`` processes they replace: same times, priorities and
    order."""
    scenario = _collect_scenario(
        contiguous, FLOOD_AT if flood else None, bcast_src=1
    )
    monkeypatch.setattr(EthernetNetwork, "plan_leg", lambda *a, **k: None)
    monkeypatch.setattr(ethernet._Leg, "_take", _request_port)
    runs = []
    for stepwise in (True, False):
        with monkeypatch.context() as m:
            if stepwise:
                m.setattr(EthernetNetwork, "start_leg", lambda *a, **k: None)
            sim = _Stage1Simulator()
            snapshot = _run(_ethernet(backend, True), scenario, sim)
        runs.append((snapshot, _acting(sim.popped)))
    assert runs[1] == runs[0]
    stage1 = runs[1][1]
    assert sum(what == "leg" for *_, what in stage1) > 100
    if flood:
        flooded = {what for *_, what in stage1 if what.startswith("eth-flood")}
        assert len(flooded) == (15 if backend == "gige" else 0)


@pytest.mark.parametrize("stream", [False, True])
@pytest.mark.parametrize("flood", [False, True])
@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("backend", ETHERNETS)
def test_ethernet_collect_hotspot(backend, contiguous, flood, stream):
    """The collect hotspot, with a flood broadcast landing mid-leg:
    callback legs with synchronous port takes and booking give the
    stepwise oracle's end times, receipts, counters, spans and
    metrics."""
    assert_equivalent_ethernet(backend, _collect_scenario(
        contiguous, FLOOD_AT if flood else None, stream=stream, bcast_src=1
    ))


@pytest.mark.parametrize("name", sorted(BOOKING))
@pytest.mark.parametrize("backend", ETHERNETS)
def test_ethernet_booked_puts_match_stepwise(backend, name, monkeypatch):
    """Puts booked ahead of the event horizon on Ethernet: every output
    equals the stepwise oracle's.  In ``mixed`` no leg ends before the
    next one's (short) setup, so every planned leg is claimed."""
    seen = _spy_booking(monkeypatch, EthernetNetwork)
    assert_equivalent_ethernet(backend, BOOKING[name])
    assert (seen["booked"] > 0) == (name != "mixed")
    if name in ("foreign", "bcast", "one_hop_bcast", "two_windows", "mixed"):
        assert seen["claimed"] > 1  # booking stopped and resumed


def test_ethernet_booking_stops_at_the_horizon(monkeypatch):
    """No booked Ethernet leg's tail reaches the next foreign entry."""
    ends = []
    book = EthernetNetwork.book_leg

    def spy(network, plan):
        ends.append((network.sim.now, plan.t_end))
        return book(network, plan)

    monkeypatch.setattr(EthernetNetwork, "book_leg", spy)
    _run(_ethernet("gige", True), BOOKING["foreign"])
    assert ends
    for booked_at, tail in ends:
        assert tail < 230e-6 or booked_at >= 230e-6


@pytest.mark.parametrize("backend", ETHERNETS)
def test_ethernet_sends_and_puts_contend(backend):
    """Staggered sends (contiguous and strided) and collect puts share
    the ports, or on ``ethernet100`` the one medium, with a flood
    broadcast in the middle."""

    def scenario(cluster, records):
        sim = cluster.sim
        n = cluster.nprocs

        def later(delay, work):
            yield sim.timeout(delay)
            out = yield from work()
            return out

        jobs = []
        for i in range(n):
            jobs.append((f"t{i}", later(
                i * 3e-6,
                partial(cluster.transfer, i, (i + 1) % n, 16 * 1024),
            )))
            jobs.append((f"s{i}", later(
                i * 5e-6,
                partial(cluster.transfer, i, (i + 5) % n, 2048,
                        elements=256, contiguous=False),
            )))
        jobs += [
            (name, job) for name, job in
            _collect_scenario(True, 40e-6, bcast_src=3)(cluster, records)
        ]
        return jobs

    assert_equivalent_ethernet(backend, scenario)


@pytest.mark.parametrize("backend", ETHERNETS)
def test_ethernet_legs_start_no_process(backend):
    """A healthy fast-path run starts no ``rma-wire`` process."""
    cluster, names = _rma_processes(_ethernet(backend, True), True)
    assert cluster.network.messages == (cluster.nprocs - 1) * COLLECT_PUTS
    assert not [n for n in names if n.startswith("rma-wire")]


@pytest.mark.parametrize("backend", ETHERNETS)
def test_ethernet_fault_plan_keeps_rma_wire_processes(backend):
    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan(seed=17, specs=(FaultSpec(kind="delay", rate=0.25,
                                               delay_s=2e-6),))
    cluster, names = _rma_processes(_ethernet(backend, True, faults=plan),
                                    True)
    wires = [n for n in names if n.startswith("rma-wire")]
    assert len(wires) == (cluster.nprocs - 1) * COLLECT_PUTS


# ---------------------------------------------------------------------------
# Hardware broadcasts take the fast path's injection rules
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("backend", ["vbus"] + ETHERNETS)
def test_broadcast_injection_matches_stepwise(backend, contiguous,
                                              monkeypatch):
    """A broadcast (DMA or strided) among puts and a send: the merged
    setup/PIO timer and the synchronous DMA take change no output, and
    save the broadcast one entry (the PIO timer or the DMA grant)."""

    def scenario(cluster, records):
        sim = cluster.sim

        def bcast():
            yield sim.timeout(5e-6)
            r = yield from cluster.hw_broadcast(
                2, 4096, elements=512, contiguous=contiguous
            )
            return r

        def send():
            r = yield from cluster.transfer(2, 5, 8192)
            return r

        return [("bcast", bcast()), ("send", send())] + [
            (name, job) for name, job in
            _collect_scenario(contiguous)(cluster, records)
        ]

    params = replace(backend_params(backend, 16), trace=True)
    runs = {}
    for fast in (False, True):
        sim = Simulator()
        runs[fast] = _run(replace(params, fast_path=fast), scenario, sim)
        runs[fast]["events"] = sim._seq - len(sim._queue)
    slow_events, fast_events = runs[False].pop("events"), runs[True].pop(
        "events")
    fast_keys = {k for k in runs[True]["stats"] if _is_fast_key(k)}
    for snap in runs.values():
        for key in fast_keys:
            snap["stats"].pop(key, None)
    assert runs[True] == runs[False]
    assert fast_events < slow_events

    # The broadcast alone, fast path on, with and without the injection
    # rules.
    def alone(cluster, records):
        return [("bcast", cluster.hw_broadcast(
            2, 4096, elements=512, contiguous=contiguous))]

    from repro.vbus.nic import Nic

    counts = []
    inject = Nic.inject
    for rules in (True, False):
        with monkeypatch.context() as m:
            m.setattr(Nic, "inject", lambda nic, e, c, fast, **k: inject(
                nic, e, c, fast and rules, **k))
            sim = Simulator()
            _run(replace(params, fast_path=True, trace=False), alone, sim)
        counts.append(sim._seq - len(sim._queue))
    assert counts[0] == counts[1] - 1
