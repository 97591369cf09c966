"""Per-region mixed-grain plans: correctness, tuning, caching, CLI.

The granularity of a region changes *how* data moves, never *what* ends
up in the arrays — so every mixed-grain plan must produce numeric state
bit-identical to the single-grain oracles, healthy or faulted.  On top
of that invariant, the per-region tuner's plan must never lose to the
best global grain, its plan cache must round-trip byte-identically, and
the CLI artifact must drive ``repro run --tune-plan``.
"""

import json

import numpy as np
import pytest

from repro.compiler.pipeline import CompileOptions, compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.faults.plan import FaultPlan, FaultSpec
from repro.runtime.executor import run_program
from repro.sweep.cache import canonical_json
from repro.tools.tuneplan import TunePlan, tune_per_region
from repro.vbus.params import backend_params
from repro.workloads import source_for

#: Two parallel regions with opposing grain preferences (see
#: ``synthetic.crossover_kernel``): the canonical mixed-plan workload.
XOVER = source_for("XOVER-64")

#: Multi-region stencil (region ids 0, 2, 4, 5 at these parameters).
JACOBI = source_for("JACOBI-32x3")


def _digest(source, options, faults=None, backend="vbus"):
    params = backend_params(backend, options.nprocs)
    prog = compile_source(source, options=options)
    rep = run_program(
        prog, cluster_params=params, execute=True, faults=faults
    )
    return rep.array_digest()


# ------------------------------------------------- CompileOptions


def test_grain_map_canonicalizes_and_validates():
    a = CompileOptions(nprocs=4, granularity="fine", grain_map={2: "coarse", 0: "middle"})
    b = CompileOptions(nprocs=4, granularity="fine", grain_map=[(0, "middle"), (2, "coarse")])
    assert a == b and hash(a) == hash(b)
    assert a.grain_map == ((0, "middle"), (2, "coarse"))
    assert a.mixed_grain
    assert a.grain_for(0) == "middle"
    assert a.grain_for(2) == "coarse"
    assert a.grain_for(7) == "fine"  # falls back to the default grain
    # Empty maps normalize to None: the options stay single-grain.
    c = CompileOptions(nprocs=4, granularity="fine", grain_map={})
    assert c.grain_map is None and not c.mixed_grain
    with pytest.raises(ValueError):
        CompileOptions(grain_map={-1: "fine"})
    with pytest.raises(ValueError):
        CompileOptions(grain_map={0: "chunky"})
    with pytest.raises(ValueError):
        CompileOptions(grain_map=[(0, "fine"), (0, "coarse")])


# ------------------------------------------------- bit-identical runs


@pytest.mark.parametrize(
    "grain_map",
    [
        {1: "coarse"},
        {2: "coarse"},
        {1: "middle", 2: "coarse"},
        {1: "coarse", 2: "fine"},
    ],
)
def test_xover_mixed_plans_match_single_grain_oracles(grain_map):
    oracle = {
        g: _digest(XOVER, CompileOptions(nprocs=4, granularity=g))
        for g in GRAINS
    }
    # Granularity is results-invariant to begin with ...
    assert len(set(oracle.values())) == 1
    # ... and every mixed plan lands on the same digest.
    mixed = _digest(
        XOVER,
        CompileOptions(nprocs=4, granularity="fine", grain_map=grain_map),
    )
    assert mixed == oracle["fine"]


def test_jacobi_mixed_plan_matches_oracle_on_gige():
    opts = CompileOptions(
        nprocs=4, granularity="fine", grain_map={0: "coarse", 4: "middle"}
    )
    assert _digest(JACOBI, opts, backend="gige") == _digest(
        JACOBI, CompileOptions(nprocs=4, granularity="fine"), backend="gige"
    )


def test_mixed_plan_matches_oracle_under_active_faults():
    plan = FaultPlan(
        seed=23, specs=(FaultSpec(kind="drop", rate=0.03),), max_sim_s=10.0
    )
    clean = _digest(XOVER, CompileOptions(nprocs=4, granularity="fine"))
    faulted = _digest(
        XOVER,
        CompileOptions(
            nprocs=4, granularity="fine", grain_map={2: "coarse"}
        ),
        faults=plan,
    )
    assert faulted == clean


def test_executor_report_carries_grain_map():
    opts = CompileOptions(nprocs=4, granularity="fine", grain_map={2: "coarse"})
    prog = compile_source(XOVER, options=opts)
    rep = run_program(prog, execute=False)
    assert rep.granularity == "mixed"
    assert rep.grain_map == {2: "coarse"}
    assert rep.to_jsonable()["grain_map"] == {"2": "coarse"}
    # Single-grain rows keep the pre-PR7 shape (no key at all).
    plain = run_program(
        compile_source(XOVER, nprocs=4, granularity="fine"), execute=False
    )
    assert "grain_map" not in plain.to_jsonable()


# ------------------------------------------------- the tuner


def _comm(source, options, backend):
    params = backend_params(backend, options.nprocs)
    prog = compile_source(source, options=options)
    return run_program(prog, cluster_params=params, execute=False).comm_max_s


@pytest.mark.parametrize("backend", ["gige", "vbus"])
def test_tuned_plan_never_loses_to_globals(backend):
    plan = tune_per_region(
        XOVER, nprocs=4, metric="comm", backend=backend, cache_dir=None
    )
    tuned = _comm(XOVER, plan.options(), backend)
    for g in GRAINS:
        glob = _comm(
            XOVER, CompileOptions(nprocs=4, granularity=g), backend
        )
        assert tuned <= glob


def test_tuned_plan_strictly_beats_globals_on_gige():
    """The acceptance cell: per-region disagreement -> strict comm win."""
    src = source_for("XOVER-256")
    plan = tune_per_region(
        src, nprocs=4, metric="comm", backend="gige", cache_dir=None
    )
    assert plan.mixed  # regions genuinely disagree
    tuned = _comm(src, plan.options(), "gige")
    for g in GRAINS:
        glob = _comm(src, CompileOptions(nprocs=4, granularity=g), "gige")
        assert tuned < glob


def test_uniform_preference_compresses_to_global_plan():
    # MM has one parallel region: the plan must stay single-grain.
    plan = tune_per_region(
        source_for("MM-16"), nprocs=4, backend="gige", cache_dir=None
    )
    assert not plan.mixed
    assert plan.options().grain_map is None


def test_tuner_validates_inputs():
    with pytest.raises(ValueError):
        tune_per_region(XOVER, metric="vibes", cache_dir=None)
    with pytest.raises(ValueError):
        tune_per_region(XOVER, epsilon=1.5, cache_dir=None)
    with pytest.raises(ValueError):
        tune_per_region(XOVER, backend="myrinet", cache_dir=None)


# ------------------------------------------------- plan cache + artifact


def test_plan_cache_warm_hit_is_byte_identical(tmp_path):
    cache = str(tmp_path / "cache")
    cold = tune_per_region(XOVER, nprocs=4, backend="gige", cache_dir=cache)
    warm = tune_per_region(XOVER, nprocs=4, backend="gige", cache_dir=cache)
    assert not cold.cached and warm.cached
    assert canonical_json(cold.to_jsonable()) == canonical_json(
        warm.to_jsonable()
    )
    p_cold, p_warm = tmp_path / "cold.json", tmp_path / "warm.json"
    cold.save(str(p_cold))
    warm.save(str(p_warm))
    assert p_cold.read_bytes() == p_warm.read_bytes()


def test_tuneplan_json_round_trip(tmp_path):
    plan = tune_per_region(XOVER, nprocs=4, backend="gige", cache_dir=None)
    path = str(tmp_path / "plan.json")
    plan.save(path)
    loaded = TunePlan.load(path)
    assert loaded == plan
    assert loaded.options() == plan.options()
    with pytest.raises(ValueError):
        TunePlan.from_jsonable({"kind": "nonsense"})


def test_cli_round_trip(tmp_path, capsys):
    from repro.tools.cli import main

    plan_path = str(tmp_path / "plan.json")
    assert main(
        [
            "autotune", "XOVER-64", "--per-region", "--backend", "gige",
            "--plan-out", plan_path,
            "--cache-dir", str(tmp_path / "cache"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "per-region tune plan" in out
    assert main(
        [
            "run", "XOVER-64", "--backend", "gige", "--timing",
            "--tune-plan", plan_path,
        ]
    ) == 0
    assert "mixed" in capsys.readouterr().out


# ------------------------------------------------- sweep integration


def test_sweep_job_honors_tune_plan():
    from repro.sweep.cache import job_key
    from repro.sweep.runner import run_job

    plan = tune_per_region(XOVER, nprocs=4, backend="gige", cache_dir=None)
    base = {
        "workload": "XOVER-64", "nprocs": 4, "backend": "gige",
        "granularity": plan.default_grain, "fast_path": True,
        "execute": True, "faults": None, "seed": None,
    }
    tuned_cfg = dict(base)
    tuned_cfg["tune_plan"] = {
        str(rid): g for rid, g in plan.grain_map.items()
    }
    plain = run_job(base, job_key(base))
    tuned = run_job(tuned_cfg, job_key(tuned_cfg))
    assert plain["status"] == tuned["status"] == "ok"
    assert (
        tuned["result"]["array_digest"] == plain["result"]["array_digest"]
    )
    if plan.mixed:
        assert tuned["result"]["granularity"] == "mixed"
        assert tuned["key"] != plain["key"]


def test_grid_validates_tune_plan():
    from repro.sweep.grid import SweepConfigError, expand_grid

    good = {
        "axes": {"workload": ["XOVER-64"]},
        "defaults": {"tune_plan": {"2": "coarse"}},
    }
    cfgs = expand_grid(good)
    assert cfgs[0]["tune_plan"] == {"2": "coarse"}
    with pytest.raises(SweepConfigError):
        expand_grid(
            {
                "axes": {"workload": ["XOVER-64"]},
                "defaults": {"tune_plan": {"2": "chunky"}},
            }
        )
    with pytest.raises(SweepConfigError):
        expand_grid(
            {
                "axes": {"workload": ["XOVER-64"]},
                "defaults": {"tune_plan": {}},
            }
        )
