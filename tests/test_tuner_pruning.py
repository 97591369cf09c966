"""The autotuner's pruning tier (docs/CHECK.md, docs/AUTOTUNE.md).

Pruning always runs, and the committed TunePlan goldens
(tests/test_tuneplan_goldens.py) hold its artifacts byte-stable.  The
contract pinned here is the accounting: every (region, candidate) pair
is either priced or pruned — dropped as verifier-illegal before pricing,
or collapsed onto a structural duplicate's evaluation — and pruning
always saves something on the golden cells.
"""

from pathlib import Path

import pytest

from repro.compiler.pipeline import compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.compiler.postpass.partition import STRATEGIES
from repro.tools.check import bad_region_map
from repro.tools.tuneplan import TunePlan, _plan_price_key, tune_per_region
from repro.workloads import source_for
from tests.test_tuneplan_goldens import CELLS, tune_cell

BADPROG_DIR = Path(__file__).parent / "badprogs"


@pytest.mark.parametrize("name", sorted(CELLS))
def test_every_candidate_is_evaluated_or_pruned(name):
    _what, _backend, joint, calibrated, _counts = CELLS[name]
    plan = tune_cell(name)
    candidates = len(GRAINS) * (len(STRATEGIES) if joint else 1)
    pricings = 2 if calibrated else 1
    assert (
        plan.evaluated_candidates + plan.pruned_candidates
        == len(plan.decisions) * candidates * pricings
    )
    assert plan.pruned_candidates > 0


def test_counters_stay_out_of_the_artifact():
    plan = tune_per_region(
        source_for("MM-16"), nprocs=4, metric="comm", backend="vbus",
        cache_dir=None,
    )
    row = plan.to_jsonable()
    assert "evaluated_candidates" not in row
    assert "pruned_candidates" not in row
    # ...so round-tripped plans count zero but still compare equal.
    again = TunePlan.from_jsonable(row)
    assert again.evaluated_candidates == 0
    assert again == plan


def test_all_illegal_region_falls_back_to_full_list():
    """A seeded-bug region is illegal at *every* candidate; the tuner
    must keep the full list (something has to be chosen)."""
    source = (BADPROG_DIR / "unfenced_scatter.f").read_text()
    illegal = [
        set(bad_region_map(compile_source(source, nprocs=4, granularity=g)))
        for g in GRAINS
    ]
    assert set.intersection(*illegal), "no region is illegal everywhere"
    plan = tune_per_region(
        source, nprocs=4, metric="comm", backend="vbus", cache_dir=None
    )
    for d in plan.decisions:
        assert set(d.model) == set(GRAINS)


def test_price_key_identifies_structural_duplicates():
    """Variants whose region plans emit the same transfers share a
    price key even though the plan objects differ (grain field)."""
    source = source_for("MM-16")
    auto = compile_source(source, nprocs=4, granularity="fine")
    block = compile_source(
        source, nprocs=4, granularity="fine", partition="block"
    )
    rid = sorted(auto.plans)[0]
    # MM's rectangular loops resolve auto -> block, so the forced-block
    # variant is a structural duplicate of the auto one.
    assert _plan_price_key(auto.plans[rid]) == _plan_price_key(
        block.plans[rid]
    )
    cyclic = compile_source(
        source, nprocs=4, granularity="fine", partition="cyclic"
    )
    assert _plan_price_key(auto.plans[rid]) != _plan_price_key(
        cyclic.plans[rid]
    )


def test_prune_runs_rv401_once_per_region_partition(monkeypatch):
    """RV401 depends on a region's partition, not its grain: one joint
    search analyses each distinct (region, partition) exactly once,
    however many grain variants share it."""
    from repro.tools.check import _VerifyingPlanner

    calls = []
    real = _VerifyingPlanner._check_partition

    def counting(self, region, notes):
        calls.append((region.region_id, region.partition))
        return real(self, region, notes)

    monkeypatch.setattr(_VerifyingPlanner, "_check_partition", counting)
    plan = tune_cell("pxover32_vbus")
    assert plan.pruned_candidates > 0
    assert calls and len(calls) == len(set(calls))
    # Block and cyclic variants of every region: more than one partition
    # per region, each analysed once.
    assert len(set(calls)) > len({rid for rid, _p in calls})
