"""Whole-corpus contracts of the tuners and the checking stack.

Slow (``-m slow``): each test sweeps workload cells wider than the
tier-1 unit tests, asserting only what no faster test already does.

* the per-region tuner never loses the ``comm`` metric to the best
  global grain, and its mixed plan digests identically to the
  single-grain oracle (docs/AUTOTUNE.md);
* on the PXOVER partition-crossover cells the §5.3 mixed plan strictly
  beats both uniform strategies where required, the joint tuner never
  loses to the best of auto/block/cyclic, and every one of those plans
  digests identically — healthy and under a seeded recoverable fault
  plan (docs/PARTITION.md);
* every healthy workload kind, at every granularity x partition
  strategy, checks statically clean and runs sanitizer-clean
  (docs/CHECK.md).
"""

import pytest

from repro.compiler.pipeline import CompileOptions, compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.faults import FaultPlan, FaultSpec
from repro.runtime.executor import run_program
from repro.tools.check import check_source
from repro.tools.tuneplan import tune_per_region
from repro.vbus.params import backend_params
from repro.workloads import source_for

pytestmark = pytest.mark.slow

#: Recoverable wire faults for the digest-invariance-under-faults leg.
FAULTS = FaultPlan(
    seed=17,
    specs=(
        FaultSpec(kind="drop", rate=0.02),
        FaultSpec(kind="corrupt", rate=0.01),
    ),
    max_sim_s=10.0,
)


def _run(source, options, backend, **kw):
    params = backend_params(backend, options.nprocs)
    prog = compile_source(source, options=options)
    return run_program(prog, cluster_params=params, **kw)


def _comm(source, options, backend):
    return _run(source, options, backend, execute=False).comm_max_s


def _digest(source, options, backend, faults=None):
    return _run(
        source, options, backend, execute=True, faults=faults
    ).array_digest()


@pytest.mark.parametrize("spec,backend", [
    ("XOVER-64", "ethernet100"),
    ("MM-64", "vbus"),
    ("JACOBI-32x3", "gige"),
])
def test_tuned_plan_never_loses_and_keeps_digests(spec, backend):
    source = source_for(spec)
    plan = tune_per_region(
        source, nprocs=4, metric="comm", backend=backend, cache_dir=None
    )
    tuned = _comm(source, plan.options(), backend)
    best = min(
        _comm(source, CompileOptions(nprocs=4, granularity=g), backend)
        for g in GRAINS
    )
    assert tuned <= best
    oracle = CompileOptions(nprocs=4, granularity="fine")
    assert _digest(source, plan.options(), backend) == _digest(
        source, oracle, backend
    )


@pytest.mark.parametrize("spec,backend,strict", [
    ("PXOVER-48", "gige", True),
    ("PXOVER-48", "ethernet100", True),
    ("PXOVER-32", "vbus", False),
])
def test_partition_plans_win_and_keep_digests(spec, backend, strict):
    source = source_for(spec)
    plans = {
        s: CompileOptions(nprocs=4, partition=s)
        for s in ("auto", "block", "cyclic")
    }
    uniform = {s: _comm(source, o, backend) for s, o in plans.items()}
    if strict:
        assert uniform["auto"] < uniform["block"]
        assert uniform["auto"] < uniform["cyclic"]
    plan = tune_per_region(
        source, nprocs=4, metric="comm", backend=backend, cache_dir=None,
        tune_partition=True,
    )
    tuned = _comm(source, plan.options(), backend)
    assert tuned <= min(uniform.values()) * (1 + 1e-9)
    plans["tuned"] = plan.options()
    for faults in (None, FAULTS):
        digests = {
            name: _digest(source, o, backend, faults=faults)
            for name, o in plans.items()
        }
        assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize(
    "spec",
    ["MM-16", "SWIM-16", "JACOBI-12", "CFFZINIT-5", "XOVER-24", "PXOVER-24"],
)
def test_static_clean_implies_sanitizer_clean_corpus(spec):
    source = source_for(spec)
    for grain in GRAINS:
        for partition in ("auto", "block", "cyclic"):
            kw = dict(nprocs=4, granularity=grain, partition=partition)
            report = check_source(source, cache_dir=None, **kw)
            assert report.clean, report.summary()
            run = run_program(
                compile_source(source, **kw), execute=True, sanitize=True
            )
            assert run.sanitizer["clean"], (grain, partition, run.sanitizer)
