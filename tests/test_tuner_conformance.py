"""Conformance oracle suite for the tuner stack (docs/AUTOTUNE.md).

Every cell of a (workload x backend x fault-plan) matrix must satisfy
the tuner's external contract, independent of which tier decided it:
the plan is *valid* (region ids exist in the compiled program, grains
and §5.3 strategy specs parse), its cache key is *stable* and derivable
by hand from the documented fields, and a ``--tune-partition`` plan
never measures worse than any uniform grain x strategy variant on a
healthy run.
Fault plans perturb the tuner's profile timings, never its contract —
the faulted cells pin exactly that.
"""

import hashlib

import pytest

import repro.tools.tuneplan as tuneplan_mod
from repro.compiler.pipeline import CompileOptions, compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.compiler.postpass.partition import STRATEGIES, parse_strategy
from repro.faults.plan import FaultPlan, FaultSpec
from repro.runtime.executor import run_program
from repro.sweep.cache import job_key
from repro.tools.tuneplan import plan_cache_key, tune_per_region
from repro.vbus.params import backend_params
from repro.workloads import source_for, synthetic

WORKLOADS = ("XOVER-48", "MM-24", "PXOVER-24")
MATRIX_BACKENDS = ("vbus", "gige")

#: Uniform delay noise on every flit: perturbs profile timings without
#: changing which transfers a plan emits.
DELAYS = FaultPlan(
    seed=7,
    specs=(FaultSpec(kind="delay", rate=0.25, delay_s=2e-6),),
    max_sim_s=10.0,
)

MATRIX = [
    (w, b, f)
    for w in WORKLOADS
    for b in MATRIX_BACKENDS
    for f in (None, DELAYS)
]


def _comm(src, options, backend):
    params = backend_params(backend, options.nprocs)
    prog = compile_source(src, options=options)
    return run_program(prog, cluster_params=params, execute=False).comm_max_s


def _tune(src, backend, faults):
    return tune_per_region(
        src,
        nprocs=4,
        metric="comm",
        backend=backend,
        cache_dir=None,
        tune_partition=True,
        faults=faults,
    )


@pytest.mark.parametrize(
    "spec,backend,faults",
    MATRIX,
    ids=[f"{w}-{b}-{'delay' if f else 'healthy'}" for w, b, f in MATRIX],
)
def test_plan_is_valid_and_never_loses_to_uniform(spec, backend, faults):
    src = source_for(spec)
    plan = _tune(src, backend, faults)
    prog = compile_source(src, nprocs=4)

    # Validity: every tuned region exists, every choice parses.
    assert set(plan.grain_map) <= set(prog.plans)
    assert set(plan.partition_map) <= set(prog.plans)
    assert all(g in GRAINS for g in plan.grain_map.values())
    assert plan.default_grain in GRAINS
    for spec_str in plan.partition_map.values():
        parse_strategy(spec_str)  # raises ValueError on a bad spec
    for d in plan.decisions:
        assert d.region_id in prog.plans
        assert d.grain in GRAINS
        assert d.how in ("model", "profile")
    # The plan compiles: the ultimate validity check.
    compile_source(src, options=plan.options())

    # Oracle: the joint plan never measures worse than any uniform
    # grain x strategy variant (healthy runs — faults only ever
    # perturbed the search).
    tuned = _comm(src, plan.options(), backend)
    for grain in GRAINS:
        for strategy in STRATEGIES:
            uniform = _comm(
                src,
                CompileOptions(nprocs=4, granularity=grain, partition=strategy),
                backend,
            )
            assert tuned <= uniform * (1 + 1e-9), (
                f"tuned plan loses to uniform {grain}/{strategy} on "
                f"{spec}/{backend}"
            )


@pytest.mark.parametrize("spec,backend,faults", [MATRIX[0], MATRIX[-1]])
def test_cache_key_is_stable_and_hand_recomputable(spec, backend, faults):
    src = source_for(spec)
    key = plan_cache_key(
        source=src, backend=backend, nprocs=4, metric="comm",
        epsilon=0.05, tune_partition=True,
    )
    # Stable across calls...
    assert key == plan_cache_key(
        source=src, backend=backend, nprocs=4, metric="comm",
        epsilon=0.05, tune_partition=True,
    )
    # ...and exactly the documented derivation: the sweep-cache job key
    # of the tuning problem's canonical fields, with ``partition`` (and
    # ``calibration``) joining only when the search actually uses them.
    assert key == job_key({
        "kind": "tuneplan",
        "source_sha256": hashlib.sha256(src.encode("utf-8")).hexdigest(),
        "backend": backend,
        "nprocs": 4,
        "metric": "comm",
        "epsilon": 0.05,
        "partition": True,
    })
    grain_only = plan_cache_key(
        source=src, backend=backend, nprocs=4, metric="comm", epsilon=0.05,
    )
    assert grain_only != key
    assert grain_only == job_key({
        "kind": "tuneplan",
        "source_sha256": hashlib.sha256(src.encode("utf-8")).hexdigest(),
        "backend": backend,
        "nprocs": 4,
        "metric": "comm",
        "epsilon": 0.05,
    })


def test_warm_plan_round_trips_byte_identically(tmp_path):
    src = source_for("PXOVER-24")
    kw = dict(
        nprocs=4, metric="comm", backend="gige",
        cache_dir=str(tmp_path), tune_partition=True,
    )
    cold = tune_per_region(src, **kw)
    warm = tune_per_region(src, **kw)
    assert not cold.cached and warm.cached
    assert warm == cold
    assert warm.to_jsonable() == cold.to_jsonable()


def test_uniform_imbalance_skips_baseline_profile(monkeypatch):
    """A workload whose block and cyclic owner maps are equally (im)balanced
    gives the imbalance term a common factor across every candidate — a
    common factor cannot reorder them, so the joint tuner must not spin
    up the instrumented baseline profile at all.  copy_kernel(30) at
    np=4 owns 8/8/7/7 elements under both strategies; on V-Bus block
    then wins by a clear margin, so the whole search is model-decided:
    zero simulator runs."""
    calls = []
    real = tuneplan_mod.run_program

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tuneplan_mod, "run_program", counting)
    plan = tune_per_region(
        synthetic.copy_kernel(30),
        nprocs=4,
        metric="comm",
        backend="vbus",
        cache_dir=None,
        tune_partition=True,
    )
    assert plan.profiles == 0
    assert not calls, f"{len(calls)} instrumented run(s) on a model-decidable search"
    assert all(d.how == "model" for d in plan.decisions)
