"""Per-region partition plans: §5.3 overrides, invariance, tuner, CLI.

The partition strategy of a region changes which rank runs which
iteration — never what the iterations compute — so every strategy mix
must produce numeric state bit-identical to the §5.3 auto oracle,
healthy or faulted.  On top of that invariant, the joint grain x
strategy tuner must never lose to the best uniform variant (on MM over
GigE that means out-tuning the paper's own rule), its plan artifacts
must round-trip byte-identically through the plan cache and the CLI,
and bad overrides must surface as :class:`PartitionError` with region
provenance rather than a traceback.
"""

import pytest

from repro.compiler.pipeline import CompileOptions, compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.compiler.postpass.partition import STRATEGIES, PartitionError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.runtime.executor import run_program
from repro.sweep.cache import canonical_json
from repro.tools.tuneplan import TunePlan, tune_per_region
from repro.vbus.params import backend_params
from repro.workloads import source_for

#: Triangular accumulation + rectangular stencil with opposing §5.3
#: preferences (see ``synthetic.partition_crossover_kernel``).
PXOVER = source_for("PXOVER-16")

FAULTS = FaultPlan(
    seed=29, specs=(FaultSpec(kind="drop", rate=0.03),), max_sim_s=10.0
)


def _run(source, options, backend="vbus", faults=None, execute=True):
    params = backend_params(backend, options.nprocs)
    prog = compile_source(source, options=options)
    return run_program(
        prog, cluster_params=params, execute=execute, faults=faults
    )


def _digest(source, options, **kw):
    return _run(source, options, **kw).array_digest()


# ------------------------------------------------- CompileOptions


def test_partition_map_canonicalizes_and_validates():
    a = CompileOptions(nprocs=4, partition_map={2: "cyclic", 0: "block:1"})
    b = CompileOptions(
        nprocs=4, partition_map=[(0, "block:1"), (2, "cyclic")]
    )
    assert a == b and hash(a) == hash(b)
    assert a.partition_map == ((0, "block:1"), (2, "cyclic"))
    assert a.mixed_partition
    assert a.partition_for(0) == "block:1"
    assert a.partition_for(2) == "cyclic"
    assert a.partition_for(7) == "auto"  # falls back to the global spec
    # Empty maps normalize to None: the options stay uniform.
    c = CompileOptions(nprocs=4, partition_map={})
    assert c.partition_map is None and not c.mixed_partition
    with pytest.raises(ValueError):
        CompileOptions(partition_map={-1: "block"})
    with pytest.raises(ValueError):
        CompileOptions(partition_map={0: "zigzag"})
    with pytest.raises(ValueError):
        CompileOptions(partition_map=[(0, "block"), (0, "cyclic")])
    with pytest.raises(ValueError):
        CompileOptions(partition="diagonal")
    # Global split-dim specs are legal CompileOptions values.
    assert CompileOptions(partition="block:1").partition == "block:1"


# ------------------------------------------------- bit-identical runs


@pytest.mark.parametrize("backend", ["vbus", "gige"])
def test_pxover_strategies_match_auto_oracle(backend):
    oracle = _digest(
        PXOVER, CompileOptions(nprocs=4, partition="auto"), backend=backend
    )
    for s in STRATEGIES:
        assert (
            _digest(
                PXOVER,
                CompileOptions(nprocs=4, partition=s),
                backend=backend,
            )
            == oracle
        )
    # A hand-mixed per-region override lands on the same digest too.
    mixed = _digest(
        PXOVER,
        CompileOptions(
            nprocs=4, partition_map={0: "block", 1: "cyclic"}
        ),
        backend=backend,
    )
    assert mixed == oracle


def test_partition_mix_matches_oracle_under_active_faults():
    clean = _digest(PXOVER, CompileOptions(nprocs=4))
    for options in (
        CompileOptions(nprocs=4, partition="cyclic"),
        CompileOptions(nprocs=4, partition_map={0: "block"}),
    ):
        assert _digest(PXOVER, options, faults=FAULTS) == clean


def test_split_dim_partition_matches_oracle():
    # MM's rectangular nest is perfect: splitting dimension 1 is a
    # genuinely different comm shape that must still digest identically.
    src = source_for("MM-16")
    oracle = _digest(src, CompileOptions(nprocs=4))
    assert _digest(src, CompileOptions(nprocs=4, partition="block:1")) == oracle
    assert _digest(src, CompileOptions(nprocs=4, partition="cyclic:1")) == oracle


def test_executor_report_carries_partition():
    rep = _run(
        PXOVER,
        CompileOptions(nprocs=4, partition_map={1: "block"}),
        execute=False,
    )
    assert rep.partition == "auto"
    assert rep.partition_map == {1: "block"}
    assert rep.to_jsonable()["partition_map"] == {"1": "block"}
    # Default (auto, no overrides) rows keep the pre-PR8 byte shape.
    plain = _run(PXOVER, CompileOptions(nprocs=4), execute=False)
    doc = plain.to_jsonable()
    assert "partition" not in doc and "partition_map" not in doc


# ------------------------------------------------- PartitionError


def test_partition_error_carries_provenance():
    with pytest.raises(PartitionError) as err:
        compile_source(
            source_for("MM-16"),
            options=CompileOptions(nprocs=4, partition_map={0: "block:7"}),
        )
    assert err.value.region_id == 0
    assert "region 0" in str(err.value)
    assert "split dimension 7" in str(err.value)


def test_cli_surfaces_partition_error(tmp_path, capsys):
    from repro.tools.cli import main

    assert main(["run", "MM-16", "--partition", "block:7"]) == 2
    msg = capsys.readouterr().err
    assert msg.startswith("partition:") and "region 0" in msg
    # Syntactically bad specs die in argparse, before compilation.
    with pytest.raises(SystemExit):
        main(["run", "MM-16", "--partition", "zigzag"])


# ------------------------------------------------- the joint tuner


def _uniform_comms(source, backend):
    out = {}
    for g in GRAINS:
        for s in ("auto",) + STRATEGIES:
            rep = _run(
                source,
                CompileOptions(nprocs=4, granularity=g, partition=s),
                backend=backend,
                execute=False,
            )
            out[f"{g}/{s}"] = rep.comm_max_s
    return out


@pytest.mark.parametrize("spec,backend", [
    ("PXOVER-32", "gige"),
    ("MM-32", "gige"),
    ("MM-32", "vbus"),
])
def test_joint_plan_never_loses_to_any_uniform_variant(spec, backend):
    src = source_for(spec)
    plan = tune_per_region(
        src, nprocs=4, metric="comm", backend=backend, cache_dir=None,
        tune_partition=True,
    )
    tuned = _run(
        src, plan.options(), backend=backend, execute=False
    ).comm_max_s
    best = min(_uniform_comms(src, backend).values())
    assert tuned <= best * (1 + 1e-9)


def test_joint_tuner_out_tunes_the_paper_rule_on_mm_gige():
    """MM is rectangular, so §5.3 says block — but on switched GigE at
    small n the block scatter serializes through the master's NIC and
    cyclic wins by ~3x.  The tuner must override auto."""
    src = source_for("MM-32")
    plan = tune_per_region(
        src, nprocs=4, metric="comm", backend="gige", cache_dir=None,
        tune_partition=True,
    )
    assert plan.partition_map == {0: "cyclic"}
    tuned = _run(src, plan.options(), backend="gige", execute=False)
    auto = _run(
        src, CompileOptions(nprocs=4), backend="gige", execute=False
    )
    assert tuned.comm_max_s < auto.comm_max_s


def test_family_flip_probe_decides_mm_at_larger_n():
    """At n = 64 bandwidth overtakes latency and block is best again.
    The analytic model (cyclic-optimistic on Ethernet) cannot see that;
    the decision must come from a measured whole-program flip probe."""
    plan = tune_per_region(
        source_for("MM-64"), nprocs=4, metric="comm", backend="gige",
        cache_dir=None, tune_partition=True,
    )
    d = plan.decisions[0]
    assert (d.grain, d.partition) == ("coarse", "block")
    assert d.how == "profile"  # flip-probe measured, not model margin
    assert plan.partition_map == {}  # block == auto: nothing to carry


def test_grain_only_tuner_is_unchanged_by_partition_fields():
    """tune_partition=False must keep pre-PR8 artifacts byte-identical:
    no partition keys in the JSON, no strategy in the decisions."""
    plan = tune_per_region(
        source_for("MM-32"), nprocs=4, backend="gige", cache_dir=None
    )
    doc = plan.to_jsonable()
    assert "tune_partition" not in doc and "partition_map" not in doc
    assert all("partition" not in d for d in doc["decisions"])


# ------------------------------------------------- plan cache + CLI


def test_joint_plan_cache_warm_hit_is_byte_identical(tmp_path):
    cache = str(tmp_path / "cache")
    kw = dict(
        nprocs=4, backend="gige", cache_dir=cache, tune_partition=True
    )
    cold = tune_per_region(PXOVER, **kw)
    warm = tune_per_region(PXOVER, **kw)
    assert not cold.cached and warm.cached
    assert canonical_json(cold.to_jsonable()) == canonical_json(
        warm.to_jsonable()
    )
    # The joint search keys its cache entries separately: a grain-only
    # call with the same inputs must NOT hit the joint entry.
    grain_only = tune_per_region(
        PXOVER, nprocs=4, backend="gige", cache_dir=cache
    )
    assert not grain_only.cached


def test_joint_plan_json_round_trip(tmp_path):
    plan = tune_per_region(
        source_for("MM-32"), nprocs=4, backend="gige", cache_dir=None,
        tune_partition=True,
    )
    path = str(tmp_path / "plan.json")
    plan.save(path)
    loaded = TunePlan.load(path)
    assert loaded == plan
    assert loaded.partition_map == {0: "cyclic"}
    assert loaded.options().partition_map == ((0, "cyclic"),)


def test_cli_joint_round_trip(tmp_path, capsys):
    from repro.tools.cli import main

    plan_path = str(tmp_path / "plan.json")
    assert main(
        [
            "autotune", "MM-32", "--per-region", "--tune-partition",
            "--backend", "gige", "--plan-out", plan_path,
            "--cache-dir", str(tmp_path / "cache"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "partition override" in out
    assert main(
        [
            "run", "MM-32", "--backend", "gige", "--timing",
            "--tune-plan", plan_path,
        ]
    ) == 0
    assert "0:cyclic" in capsys.readouterr().out


def test_cli_tune_partition_needs_per_region(capsys):
    from repro.tools.cli import main

    assert main(["autotune", "MM-32", "--tune-partition"]) == 2
    assert "--per-region" in capsys.readouterr().err


# ------------------------------------------------- sweep integration


def test_sweep_job_honors_partition_axis():
    from repro.sweep.cache import job_key
    from repro.sweep.runner import run_job

    base = {
        "workload": "PXOVER-16", "nprocs": 4, "backend": "gige",
        "granularity": "fine", "fast_path": True, "execute": True,
        "faults": None, "seed": None,
    }
    cyc = dict(base, partition="cyclic")
    mixed = dict(base, partition={"0": "block", "1": "cyclic"})
    rows = {
        name: run_job(cfg, job_key(cfg))
        for name, cfg in (("auto", base), ("cyc", cyc), ("mixed", mixed))
    }
    assert all(r["status"] == "ok" for r in rows.values())
    digests = {r["result"]["array_digest"] for r in rows.values()}
    assert len(digests) == 1  # results-invariant across the axis
    assert rows["cyc"]["key"] != rows["auto"]["key"]
    assert rows["mixed"]["key"] != rows["cyc"]["key"]
    # Unset partition keeps the pre-PR8 row bytes: no key at all.
    assert "partition" not in rows["auto"]["result"]
    assert rows["cyc"]["result"]["partition"] == "cyclic"


def test_grid_validates_partition_axis():
    from repro.sweep.grid import SweepConfigError, expand_grid

    cfgs = expand_grid(
        {
            "axes": {
                "workload": ["PXOVER-16"],
                "partition": ["auto", "block", "cyclic"],
            }
        }
    )
    assert [c["partition"] for c in cfgs] == ["auto", "block", "cyclic"]
    with pytest.raises(SweepConfigError):
        expand_grid(
            {
                "axes": {"workload": ["PXOVER-16"]},
                "defaults": {"partition": "zigzag"},
            }
        )
    with pytest.raises(SweepConfigError):
        expand_grid(
            {
                "axes": {"workload": ["PXOVER-16"]},
                "defaults": {"partition": {}},
            }
        )


# ------------------------------------------------- rollup observability


def test_rollup_reports_net_mpi_time():
    from repro.obs.rollup import region_rollup

    rep = _run(
        PXOVER,
        CompileOptions(nprocs=4),
        backend="gige",
        execute=False,
    )
    prog = compile_source(PXOVER, options=CompileOptions(nprocs=4))
    params = backend_params("gige", 4)
    traced = run_program(
        prog, cluster_params=params, execute=False, trace=True
    )
    rollup = region_rollup(traced.trace)
    assert rollup  # both parallel regions attributed
    for rid, ru in rollup.items():
        # Net MPI time excludes the fence share of the busiest rank, so
        # it can never exceed the gross per-rank maximum.
        assert 0.0 <= ru.mpi_net_max_s <= ru.mpi_max_s + 1e-12
    assert any(ru.mpi_net_max_s > 0.0 for ru in rollup.values())
