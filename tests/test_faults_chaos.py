"""Chaos/property tests: randomized fault plans over real workloads.

The standing invariant of the fault subsystem (docs/FAULTS.md): a run
under an active fault plan either **recovers** — producing results
bit-identical to the fault-free run, with the recovery work visible in
``fault_stats`` — or raises a **typed**
:class:`~repro.mpi2.exceptions.MpiFaultError`.  Never a silently
corrupted result, never a hung scheduler (every plan here carries a
``max_sim_s`` watchdog, so a hang would surface as ``MpiWatchdogError``).
"""

import json

import numpy as np
import pytest

from repro.compiler.pipeline import compile_source
from repro.faults import FaultPlan, FaultSpec, RetxParams
from repro.mpi2.exceptions import (
    MpiFaultError,
    MpiLinkError,
    MpiNodeDeadError,
    MpiWatchdogError,
)
from repro.runtime.executor import run_program
from repro.sweep import run_sweep
from repro.tools.cli import main as cli_main
from repro.vbus.params import VBUS_SKWP, cluster_for
from repro.workloads import jacobi, mm


def _arrays_equal(a, b):
    assert set(a.memory.arrays) == set(b.memory.arrays)
    for name in a.memory.arrays:
        assert np.array_equal(a.memory.arrays[name], b.memory.arrays[name]), name


@pytest.fixture(scope="module")
def jacobi4():
    return compile_source(jacobi.source(n=16, steps=2), nprocs=4, granularity="coarse")


@pytest.fixture(scope="module")
def mm4():
    return compile_source(mm.source(12), nprocs=4, granularity="coarse")


@pytest.fixture(scope="module")
def params4():
    return cluster_for(4, VBUS_SKWP)


@pytest.fixture(scope="module")
def clean4(jacobi4, mm4, params4):
    return {
        "jacobi": run_program(jacobi4, cluster_params=params4),
        "mm": run_program(mm4, cluster_params=params4),
    }


# ---------------------------------------------------------------------------
# The acceptance scenario: 4x4 mesh Jacobi, >= 5% flit drop, full recovery
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_jacobi_4x4_drop5_recovers_bit_identical():
    prog = compile_source(
        jacobi.source(n=32, steps=3), nprocs=16, granularity="coarse"
    )
    params = cluster_for(16, VBUS_SKWP)
    clean = run_program(prog, cluster_params=params)
    plan = FaultPlan(
        seed=11, specs=(FaultSpec(kind="drop", rate=0.05),), max_sim_s=10.0
    )
    faulty = run_program(prog, cluster_params=params, faults=plan)
    # Retransmission did real work ...
    assert faulty.fault_stats["fault_dropped_flits"] > 0
    assert faulty.fault_stats["fault_retx_rounds"] > 0
    assert faulty.total_s > clean.total_s
    # ... and recovered to the bit-identical result.
    _arrays_equal(clean, faulty)
    assert "faults" in faulty.summary()


# ---------------------------------------------------------------------------
# Randomized plans (property style): recover bit-identically or raise typed
# ---------------------------------------------------------------------------
def _random_plan(rng, nprocs):
    specs = []
    for _ in range(int(rng.randint(1, 4))):
        kind = ["drop", "corrupt", "delay", "stall", "kill"][
            int(rng.choice(5, p=[0.35, 0.2, 0.2, 0.15, 0.1]))
        ]
        if kind in ("drop", "corrupt"):
            specs.append(
                FaultSpec(
                    kind=kind,
                    rate=float(rng.uniform(0.005, 0.08)),
                    src=int(rng.randint(nprocs)) if rng.rand() < 0.3 else None,
                )
            )
        elif kind == "delay":
            specs.append(
                FaultSpec(
                    kind="delay",
                    rate=float(rng.uniform(0.05, 0.5)),
                    delay_s=float(rng.uniform(1e-6, 40e-6)),
                )
            )
        elif kind == "stall":
            t0 = float(rng.uniform(0.0, 2e-4))
            specs.append(
                FaultSpec(
                    kind="stall",
                    node=int(rng.randint(nprocs)),
                    t0=t0,
                    t1=t0 + float(rng.uniform(1e-5, 3e-4)),
                )
            )
        else:
            specs.append(
                FaultSpec(
                    kind="kill",
                    node=int(rng.randint(nprocs)),
                    at_s=float(rng.uniform(1e-5, 2e-3)),
                )
            )
    return FaultPlan(seed=int(rng.randint(1 << 30)), specs=tuple(specs), max_sim_s=10.0)


@pytest.mark.parametrize("workload", ["jacobi", "mm"])
@pytest.mark.parametrize("case", range(6))
def test_random_plans_never_corrupt_never_hang(
    workload, case, jacobi4, mm4, params4, clean4
):
    prog = {"jacobi": jacobi4, "mm": mm4}[workload]
    rng = np.random.RandomState(7000 + 31 * case)
    plan = _random_plan(rng, params4.nprocs)
    try:
        rep = run_program(prog, cluster_params=params4, faults=plan)
    except MpiFaultError:
        # A typed error is an allowed outcome (node death, link give-up,
        # watchdog) — the forbidden outcomes are silent corruption and a
        # hang, both of which would fail below / never return.
        return
    _arrays_equal(clean4[workload], rep)
    assert rep.fault_stats["fault_silent_corruptions"] == 0


# ---------------------------------------------------------------------------
# Targeted outcomes
# ---------------------------------------------------------------------------
def test_timed_node_kill_raises_typed_error(jacobi4, params4):
    plan = FaultPlan(
        seed=1,
        specs=(FaultSpec(kind="kill", node=2, at_s=5e-5),),
        max_sim_s=5.0,
    )
    with pytest.raises(MpiNodeDeadError):
        run_program(jacobi4, cluster_params=params4, faults=plan)


def test_after_sends_node_kill_raises_typed_error(jacobi4, params4):
    plan = FaultPlan(
        seed=1,
        specs=(FaultSpec(kind="kill", node=1, after_sends=3),),
        max_sim_s=5.0,
    )
    with pytest.raises(MpiNodeDeadError):
        run_program(jacobi4, cluster_params=params4, faults=plan)


def test_watchdog_bounds_overlong_runs(jacobi4, params4):
    # A half-second stall of every channel out of node 0 cannot finish
    # inside a 1 ms watchdog: the run must end with the typed error, not
    # by hanging or silently overrunning.
    plan = FaultPlan(
        seed=1,
        specs=(FaultSpec(kind="stall", node=0, t0=0.0, t1=0.5),),
        max_sim_s=1e-3,
    )
    with pytest.raises(MpiWatchdogError):
        run_program(jacobi4, cluster_params=params4, faults=plan)


def test_exhausted_retransmission_raises_link_error(jacobi4, params4):
    plan = FaultPlan(
        seed=2,
        specs=(FaultSpec(kind="drop", rate=0.9),),
        retx=RetxParams(max_rounds=2),
        max_sim_s=5.0,
    )
    with pytest.raises(MpiLinkError):
        run_program(jacobi4, cluster_params=params4, faults=plan)


def test_crc_off_counts_silent_corruptions(jacobi4, params4):
    # With the CRC check disabled, corrupted flits are accepted — but the
    # injector still counts them, so the harness can always prove whether
    # a run was exposed to undetected corruption.
    plan = FaultPlan(
        seed=3,
        specs=(FaultSpec(kind="corrupt", rate=0.05),),
        retx=RetxParams(crc_check=False),
        max_sim_s=5.0,
    )
    rep = run_program(jacobi4, cluster_params=params4, faults=plan)
    assert rep.fault_stats["fault_silent_corruptions"] > 0
    assert rep.fault_stats["fault_retx_rounds"] == 0


def test_recovered_stall_is_accounted(jacobi4, params4, clean4):
    plan = FaultPlan(
        seed=4,
        specs=(FaultSpec(kind="stall", node=1, t0=0.0, t1=2e-4),),
        max_sim_s=5.0,
    )
    rep = run_program(jacobi4, cluster_params=params4, faults=plan)
    assert rep.fault_stats["fault_stalls"] > 0
    assert rep.fault_stats["fault_stall_s"] > 0.0
    _arrays_equal(clean4["jacobi"], rep)


def test_delay_faults_slow_but_never_corrupt(mm4, params4, clean4):
    plan = FaultPlan(
        seed=5,
        specs=(FaultSpec(kind="delay", rate=0.5, delay_s=20e-6),),
        max_sim_s=5.0,
    )
    rep = run_program(mm4, cluster_params=params4, faults=plan)
    assert rep.fault_stats["fault_delays"] > 0
    assert rep.total_s > clean4["mm"].total_s
    _arrays_equal(clean4["mm"], rep)


# ---------------------------------------------------------------------------
# Seeded plans as a sweep axis: every faulted row recovers or is typed
# ---------------------------------------------------------------------------
#: One pure-loss plan, one corruption+jitter plan, one availability plan.
SWEEP_PLANS = {
    "drop5": FaultPlan(
        seed=11, specs=(FaultSpec(kind="drop", rate=0.05),), max_sim_s=10.0
    ),
    "corrupt+delay": FaultPlan(
        seed=22,
        specs=(
            FaultSpec(kind="corrupt", rate=0.03),
            FaultSpec(kind="delay", rate=0.2, delay_s=5e-6),
        ),
        max_sim_s=10.0,
    ),
    "stall+kill": FaultPlan(
        seed=33,
        specs=(
            FaultSpec(kind="stall", node=1, t0=0.0, t1=1e-4),
            FaultSpec(kind="kill", node=2, at_s=2e-4),
        ),
        max_sim_s=10.0,
    ),
}

#: (workload, plan) -> pinned outcome: ``recovered`` with the
#: (dropped, corrupt, retx, stall) counts, or the typed error's name.
SWEEP_OUTCOMES = {
    ("JACOBI-16x2", "drop5"): ("recovered", 112, 0, 63, 0),
    ("JACOBI-16x2", "corrupt+delay"): ("recovered", 0, 56, 42, 0),
    ("JACOBI-16x2", "stall+kill"): ("fault", "MpiNodeDeadError"),
    ("MM-12", "drop5"): ("recovered", 307, 0, 42, 0),
    ("MM-12", "corrupt+delay"): ("recovered", 0, 170, 27, 0),
    ("MM-12", "stall+kill"): ("fault", "MpiNodeDeadError"),
}


def _sweep_outcome(row, clean_digest):
    if row["status"] != "ok":
        return (row["status"], row["error"]["type"])
    res = row["result"]
    if res["array_digest"] != clean_digest:
        return ("corrupted",)
    fs = res["fault_stats"]
    return ("recovered",) + tuple(
        int(fs.get(f"fault_{key}", 0))
        for key in ("dropped_flits", "corrupt_flits", "retx_rounds", "stalls")
    )


def test_seeded_fault_sweep_recovers_or_raises_typed():
    docs = {name: json.loads(p.to_json()) for name, p in SWEEP_PLANS.items()}
    grid = {
        "name": "chaos",
        "axes": {
            "workload": ["JACOBI-16x2", "MM-12"],
            # null is the fault-free control each faulted row is held to.
            "faults": [None] + list(docs.values()),
        },
        "defaults": {"nprocs": 4, "granularity": "coarse", "execute": True},
    }
    # Uncached: replayed rows would stop exercising the fault layer.
    rows = run_sweep(grid, cache_dir=None).rows
    clean = {r["workload"]: r for r in rows if r["faults"] is None}
    assert [r["status"] for r in clean.values()] == ["ok", "ok"]
    got = {}
    for row in rows:
        if row["faults"] is not None:
            (plan,) = [n for n, d in docs.items() if d == row["faults"]]
            digest = clean[row["workload"]]["result"]["array_digest"]
            got[row["workload"], plan] = _sweep_outcome(row, digest)
    assert got == SWEEP_OUTCOMES


# ---------------------------------------------------------------------------
# CLI surface: --faults plan.json, retry counters in `repro trace` output
# ---------------------------------------------------------------------------
@pytest.fixture
def jacobi_file(tmp_path):
    path = tmp_path / "jac.f"
    path.write_text(jacobi.source(n=16, steps=2))
    return str(path)


def test_cli_trace_shows_retry_counters(jacobi_file, tmp_path, capsys):
    plan = FaultPlan(seed=11, specs=(FaultSpec(kind="drop", rate=0.05),))
    plan_path = tmp_path / "plan.json"
    plan.dump(str(plan_path))
    prefix = str(tmp_path / "out")
    assert cli_main([
        "trace", jacobi_file, "--nprocs", "4", "--granularity", "coarse",
        "--faults", str(plan_path), "--out", prefix,
    ]) == 0
    out = capsys.readouterr().out
    assert "faults" in out  # summary line with dropped/retx counters
    metrics = json.loads((tmp_path / "out.metrics.json").read_text())
    names = {row["name"] for row in metrics["metrics"]}
    assert "faults.retx_rounds" in names
    trace = json.loads((tmp_path / "out.trace.json").read_text())
    assert any(
        ev.get("cat") == "fault" and ev["name"].startswith("retx")
        for ev in trace["traceEvents"]
    )


def test_cli_run_fault_error_exit_code(jacobi_file, tmp_path, capsys):
    plan = FaultPlan(
        seed=1,
        specs=(FaultSpec(kind="kill", node=1, at_s=5e-5),),
        max_sim_s=5.0,
    )
    plan_path = tmp_path / "kill.json"
    plan.dump(str(plan_path))
    assert cli_main([
        "run", jacobi_file, "--nprocs", "4", "--granularity", "coarse",
        "--faults", str(plan_path),
    ]) == 3
    assert "MpiNodeDeadError" in capsys.readouterr().err
