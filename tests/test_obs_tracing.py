"""Tracing must observe, never perturb.

Every scenario here runs with tracing off and on (crossed with both
routing paths) and asserts ``==`` — no tolerances — on simulated end
times, transfer receipts, hardware counters, and per-channel usage:
attaching a :class:`repro.obs.Tracer` may only *record*.  The second
half checks trace *content* (tracks, spans, metrics) and pins the
exporters with golden files.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.obs.export import (
    chrome_trace,
    metrics_rows,
    timeline_summary,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.sim import AllOf, Simulator
from repro.vbus.cluster import Cluster
from repro.vbus.params import VBUS_SKWP
from repro.vbus.stats import cluster_metrics_rows

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Keys that only exist (or only count) on the fast path.
def _is_fast_key(key):
    return key.startswith("fast_")


def _params(fast: bool, trace: bool, mesh=(2, 2)):
    return replace(VBUS_SKWP, mesh=mesh, fast_path=fast, trace=trace)


def _run(params, scenario):
    """Run ``scenario(cluster) -> [(name, gen)]``; snapshot like the
    fast-path equivalence suite does."""
    sim = Simulator()
    cluster = Cluster(sim, params)
    records = []

    def wrap(name, gen):
        def body():
            out = yield from gen
            if out is not None and hasattr(out, "total_s"):
                out = (out.nbytes, out.elements, out.contiguous,
                       out.cpu_s, out.total_s)
            records.append((name, sim.now, out))

        return body()

    for name, gen in scenario(cluster):
        sim.process(wrap(name, gen), name=name)
    sim.run()
    snapshot = {
        "now": sim.now,
        "records": sorted(records),
        "stats": {
            k: v for k, v in cluster.stats().items() if not _is_fast_key(k)
        },
        "channels": {
            key: (ch.messages, ch.busy_s)
            for key, ch in cluster.network.channels.items()
        },
    }
    return snapshot, cluster


# ---------------------------------------------------------------------------
# Scenarios (mirroring test_fastpath_equivalence.py's coverage)
# ---------------------------------------------------------------------------
def _scn_dma(cluster):
    n = cluster.nprocs
    return [("dma", cluster.transfer(0, n - 1, 64 * 1024, contiguous=True))]


def _scn_pio(cluster):
    return [
        ("pio", cluster.transfer(0, 1, 8 * 1024, elements=1024,
                                 contiguous=False)),
    ]


def _scn_staggered(cluster):
    n = cluster.nprocs
    sim = cluster.sim

    def staggered(delay, src, dst, nbytes, contiguous):
        yield sim.timeout(delay)
        r = yield from cluster.transfer(src, dst, nbytes,
                                        contiguous=contiguous)
        return r

    jobs = []
    for i in range(n):
        jobs.append(
            (f"t{i}", staggered(i * 3e-6, i, (i + 1) % n, 16 * 1024, True))
        )
        jobs.append(
            (f"s{i}", staggered(i * 5e-6, i, (i + 2) % n, 2048, False))
        )
    return jobs


def _scn_broadcast_freeze(cluster):
    sim = cluster.sim

    def bcast():
        yield sim.timeout(0.5e-3)
        r = yield from cluster.hw_broadcast(1, 4096)
        return r

    return [
        ("long", cluster.transfer(0, cluster.nprocs - 1, 64 * 1024)),
        ("bcast", bcast()),
    ]


def _scn_rma(cluster):
    sim = cluster.sim
    n = cluster.nprocs

    def origin(rank):
        pending = []
        _cpu, done = yield from cluster.rma_start(
            rank, (rank + 1) % n, 4096, contiguous=True
        )
        pending.append(done)
        _cpu, done = yield from cluster.rma_start(
            rank, (rank + 2) % n, 1024, elements=128,
            contiguous=False, direction="get",
        )
        pending.append(done)
        live = [p for p in pending if not p.triggered]
        if live:
            yield AllOf(sim, live)
        return sim.now

    return [(f"rma{r}", origin(r)) for r in range(n)]


SCENARIOS = {
    "dma": _scn_dma,
    "pio": _scn_pio,
    "staggered": _scn_staggered,
    "broadcast_freeze": _scn_broadcast_freeze,
    "rma": _scn_rma,
}


# ---------------------------------------------------------------------------
# Tracing on/off is bit-identical (both routing paths)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fast", [False, True], ids=["stepwise", "fastpath"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tracing_is_bit_identical(name, fast):
    scenario = SCENARIOS[name]
    base, _ = _run(_params(fast, trace=False), scenario)
    traced, cluster = _run(_params(fast, trace=True), scenario)
    assert cluster.tracer is not None
    assert traced == base


def test_tracing_is_bit_identical_whole_program():
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.workloads import mm

    prog = compile_source(mm.source(24), nprocs=4)
    base = run_program(prog)
    traced = run_program(prog, trace=True)
    assert base.trace is None and traced.trace is not None
    assert traced.total_s == base.total_s
    assert traced.hw == base.hw
    assert traced.comm_s == base.comm_s
    assert traced.compute_s == base.compute_s
    assert traced.stdout == base.stdout


def test_traces_match_across_routing_paths():
    """Wire/held spans must be identical stepwise vs fast path, so traces
    stay comparable across ``fast_path`` settings."""
    _, slow = _run(_params(False, trace=True), _scn_staggered)
    _, fast = _run(_params(True, trace=True), _scn_staggered)

    def network_spans(cluster):
        return sorted(
            s for s in cluster.tracer.spans
            if s[0][0] == "chan" or s[1].startswith("wire ")
        )

    assert network_spans(fast) == network_spans(slow)


# ---------------------------------------------------------------------------
# Trace content
# ---------------------------------------------------------------------------
def test_trace_content_covers_all_layers():
    _, cluster = _run(_params(False, trace=True), _scn_broadcast_freeze)
    tr = cluster.tracer
    groups = {t[0] for t in tr.tracks()}
    assert {"node", "chan", "vbus"} <= groups
    names = {s[1] for s in tr.spans}
    assert "dma send" in names
    assert "freeze" in names and "broadcast" in names
    assert any(n.startswith("wire ") for n in names)
    for metric in ("nic.dma_bytes", "mesh.messages", "vbus.freezes",
                   "vbus.broadcast_bytes"):
        assert metric in tr.metrics, metric
    assert tr.metrics.get("vbus.freezes").value == 1.0
    assert tr.kernel_events > 0


def test_cluster_metrics_rows_cover_acceptance_set():
    _, cluster = _run(_params(False, trace=True), _scn_staggered)
    rows = metrics_rows(cluster.tracer, cluster_metrics_rows(cluster))
    names = {r["name"] for r in rows}
    assert "nic.dma_bytes" in names and "nic.pio_bytes" in names
    assert "hw.freezes" in names and "hw.frozen_s" in names
    assert any(n.startswith("channel.utilization{") for n in names)
    assert names == {r["name"] for r in sorted(rows, key=lambda r: r["name"])}
    by_name = {r["name"]: r for r in rows}
    assert by_name["nic.dma_bytes"]["unit"] == "B"
    util = [r for r in rows if r["name"].startswith("channel.utilization{")]
    assert all(0.0 <= r["value"] <= 1.0 for r in util)


def test_mpi_call_spans_on_rank_tracks():
    from repro.mpi2 import Mpi2Runtime

    sim = Simulator()
    cluster = Cluster(sim, _params(False, trace=True))
    runtime = Mpi2Runtime(cluster)

    def sender():
        yield from runtime.comm(0).send(b"x" * 1024, dest=1, tag=7)

    def receiver():
        data = yield from runtime.comm(1).recv(source=0, tag=7)
        assert data == b"x" * 1024

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    tr = sim.tracer
    assert [s[1] for s in tr.spans_on(("rank", 0))] == ["MPI_Send"]
    assert [s[1] for s in tr.spans_on(("rank", 1))] == ["MPI_Recv"]
    assert tr.metrics.get("mpi.MPI_Send.calls").value == 1.0
    assert tr.metrics.get("mpi.MPI_Recv.s").count == 1


def test_interp_loop_counters():
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.workloads import mm

    prog = compile_source(mm.source(16), nprocs=4)
    rep = run_program(prog, trace=True)
    assert rep.trace.metrics.get("interp.loops_vectorized").value > 0
    rep_t = run_program(prog, execute=False, trace=True)
    assert rep_t.trace.metrics.get("interp.loops_analytic").value > 0


def test_timeline_summary_mentions_every_active_track():
    _, cluster = _run(_params(False, trace=True), _scn_dma)
    text = timeline_summary(cluster.tracer)
    assert "node 0:" in text and "span(s)" in text
    assert text.startswith("trace:")


# ---------------------------------------------------------------------------
# Exporters: structure + golden files
# ---------------------------------------------------------------------------
def _golden_tracer():
    """A small deterministic run exercising every track group."""
    params = _params(False, trace=True)
    sim = Simulator()
    cluster = Cluster(sim, params)

    def bcast():
        yield sim.timeout(2e-5)
        yield from cluster.hw_broadcast(0, 512)

    def xfer():
        yield from cluster.transfer(
            0, 3, 4096, contiguous=True
        )
        yield from cluster.transfer(
            1, 2, 1024, elements=128, contiguous=False
        )

    sim.process(bcast(), name="bcast")
    sim.process(xfer(), name="xfer")
    sim.run()
    return cluster


def test_chrome_trace_structure():
    cluster = _golden_tracer()
    doc = chrome_trace(cluster.tracer)
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in events}
    assert phases <= {"M", "X", "i"}
    names = {
        e["args"]["name"] for e in events if e["name"] == "process_name"
    }
    assert {"nodes (NIC)", "mesh channels", "V-Bus"} <= names
    body = [e for e in events if e["ph"] != "M"]
    keys = [(e["ts"], e["pid"], e["tid"], e["name"]) for e in body]
    assert keys == sorted(keys)
    assert all(e["dur"] >= 0 for e in body if e["ph"] == "X")


def test_exporter_golden_files(tmp_path):
    """Byte-stable exports: identical runs produce identical files.

    Regenerate after an intentional schema change with:
    ``PYTHONPATH=src python tests/make_obs_goldens.py``
    """
    cluster = _golden_tracer()
    trace_path = tmp_path / "trace.json"
    mjson_path = tmp_path / "metrics.json"
    mcsv_path = tmp_path / "metrics.csv"
    write_chrome_trace(cluster.tracer, str(trace_path))
    rows = metrics_rows(cluster.tracer, cluster_metrics_rows(cluster))
    write_metrics_json(rows, str(mjson_path))
    write_metrics_csv(rows, str(mcsv_path))

    golden_trace = json.loads((GOLDEN_DIR / "obs_trace.json").read_text())
    golden_metrics = json.loads((GOLDEN_DIR / "obs_metrics.json").read_text())
    assert json.loads(trace_path.read_text()) == golden_trace
    assert json.loads(mjson_path.read_text()) == golden_metrics
    assert (
        mcsv_path.read_text() == (GOLDEN_DIR / "obs_metrics.csv").read_text()
    )


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------
def test_tracer_off_by_default():
    sim = Simulator()
    Cluster(sim, _params(False, trace=False))
    assert sim.tracer is None


def test_external_tracer_is_reused():
    sim = Simulator()
    mine = Tracer(sim)
    sim.tracer = mine
    cluster = Cluster(sim, _params(False, trace=True))
    assert cluster.tracer is mine


# ---------------------------------------------------------------------------
# Region-rollup edge cases: mpi_net_max_s on degenerate traces
# ---------------------------------------------------------------------------
# region_rollup only reads ``tracer.spans`` — hand-built 5-tuples
# ``(track, name, t0, dur, args)`` let each edge case state its expected
# attribution exactly, including the truncated span stream a killed node
# leaves behind (the executor surfaces the kill itself as a typed
# MpiFaultError, so the trace a monitor sees is precisely this: a rank
# track that just stops).
from types import SimpleNamespace

from repro.obs.rollup import region_rollup


def _trace(*spans):
    return SimpleNamespace(spans=list(spans))


def test_rollup_single_rank_net_excludes_own_fence():
    roll = region_rollup(_trace(
        (("rank", 0), "par-region 0", 0.0, 10.0, None),
        (("rank", 0), "MPI_Put", 1.0, 3.0, None),
        (("rank", 0), "win-drain", 5.0, 4.0, None),
    ))
    ru = roll[0]
    assert ru.visits == 1
    assert ru.mpi_max_s == pytest.approx(7.0)
    assert ru.fence_max_s == pytest.approx(4.0)
    # The single rank is the busiest rank; net strips its fence share.
    assert ru.mpi_net_max_s == pytest.approx(3.0)


def test_rollup_all_fence_region_nets_exactly_zero():
    # A region that only synchronizes (fences + barrier, no data calls)
    # must net to exactly 0.0 — not a small float residue — because the
    # per-rank net is computed as (mpi - fence) of identical sums.
    spans = [(("rank", r), "par-region 0", 0.0, 10.0, None) for r in (0, 1)]
    for r in (0, 1):
        spans += [
            (("rank", r), "MPI_Win_fence", 1.0, 2.0, None),
            (("rank", r), "MPI_Barrier", 4.0, 1.0, None),
            (("rank", r), "win-drain", 6.0, 3.0, None),
        ]
    ru = region_rollup(_trace(*spans))[0]
    assert ru.mpi_max_s == pytest.approx(6.0)
    assert ru.mpi_net_max_s == 0.0
    assert ru.fence_s == pytest.approx(12.0)


def test_rollup_without_master_track_is_empty():
    # Region phases are defined by rank 0's timeline; a trace that lost
    # the master track (e.g. a killed node 0) attributes nothing rather
    # than guessing.
    assert region_rollup(_trace(
        (("rank", 3), "par-region 0", 0.0, 10.0, None),
        (("rank", 3), "MPI_Put", 1.0, 2.0, None),
    )) == {}


def test_rollup_killed_node_truncated_trace():
    # Rank 2 died between regions: its track has region 0 but no region
    # 1 interval, plus one orphan span after death.  Survivors' region 1
    # must still roll up, the orphan must be dropped (it starts outside
    # every rank-2 region interval), and the net invariant must hold for
    # both regions.
    spans = []
    for r in (0, 1, 3):
        spans += [
            (("rank", r), "par-region 0", 0.0, 10.0, None),
            (("rank", r), "MPI_Put", 1.0, 2.0, None),
            (("rank", r), "win-drain", 4.0, 1.0, None),
            (("rank", r), "par-region 1", 20.0, 10.0, None),
            (("rank", r), "MPI_Put", 21.0, 4.0, None),
            (("rank", r), "win-drain", 26.0, 2.0, None),
        ]
    spans += [
        (("rank", 2), "par-region 0", 0.0, 10.0, None),
        (("rank", 2), "MPI_Put", 1.0, 5.0, None),
        (("rank", 2), "win-drain", 7.0, 1.0, None),
        (("rank", 2), "MPI_Put", 15.0, 9.0, None),  # orphan: after death
    ]
    roll = region_rollup(_trace(*spans))
    assert sorted(roll) == [0, 1]
    # Region 0's busiest rank is the dead one's last full region...
    assert roll[0].mpi_max_s == pytest.approx(6.0)
    assert roll[0].mpi_net_max_s == pytest.approx(5.0)
    # ...region 1 rolls up from survivors only, orphan span dropped.
    assert roll[1].mpi_max_s == pytest.approx(6.0)
    assert roll[1].mpi_net_max_s == pytest.approx(4.0)
    for ru in roll.values():
        assert 0.0 <= ru.mpi_net_max_s <= ru.mpi_max_s + 1e-12
