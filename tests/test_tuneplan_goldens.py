"""Pinned TunePlan artifacts and ``repro autotune`` output (docs/AUTOTUNE.md).

Every cell below pins the full canonical ``TunePlan.to_jsonable()``
bytes under tests/golden/tuneplan_<name>.json, plus the search's work
counters (instrumented profiles, analytic evaluations, pruned
candidates).  A refactor of the tuner must keep both: the plan bytes
say *what* it decided, the counters say it did no more work getting
there.  Regenerate with ``python tests/make_tuneplan_goldens.py`` after
an intentional change.
"""

import json
from pathlib import Path

import pytest

from repro.sweep.cache import canonical_json
from repro.tools.cli import main
from repro.tools.tuneplan import tune_per_region
from repro.workloads import source_for

BADPROG_DIR = Path(__file__).parent / "badprogs"
GOLDEN_DIR = Path(__file__).parent / "golden"

#: name -> (workload spec or badprog file, backend, tune_partition,
#: calibrated, (profiles, evaluated, pruned)).
CELLS = {
    "pxover48_gige": ("PXOVER-48", "gige", True, False, (3, 5, 7)),
    "pxover48_ethernet100": (
        "PXOVER-48", "ethernet100", True, False, (3, 5, 7)
    ),
    "pxover32_vbus": ("PXOVER-32", "vbus", True, False, (3, 5, 7)),
    "mm32_gige": ("MM-32", "gige", True, False, (2, 4, 2)),
    "mm96_ethernet100": ("MM-96", "ethernet100", True, False, (2, 4, 2)),
    "xover256_gige": ("XOVER-256", "gige", False, False, (0, 4, 2)),
    "mm64_vbus": ("MM-64", "vbus", False, False, (2, 2, 1)),
    "unfenced_scatter_vbus": (
        "unfenced_scatter.f", "vbus", False, False, (0, 2, 4)
    ),
    "mm96_ethernet100_calibrated": (
        "MM-96", "ethernet100", True, True, (0, 8, 4)
    ),
}

#: name -> argv of a pinned ``repro autotune`` stdout (global tuner).
AUTOTUNE_OUTPUTS = {
    "mm16": ["autotune", "MM-16"],
    "cffzinit9_comm_cpu": ["autotune", "CFFZINIT-9", "--metric", "comm_cpu"],
}


def _source(what: str) -> str:
    if what.endswith(".f"):
        return (BADPROG_DIR / what).read_text()
    return source_for(what)


def tune_cell(name: str):
    """Run one golden cell's search (uncached, np=4, metric=comm)."""
    what, backend, joint, calibrated, _counts = CELLS[name]
    calibration = None
    if calibrated:
        from repro.tools.calibrate import calibrate

        calibration = calibrate(backend, nprocs=4, cache_dir=None)
    return tune_per_region(
        _source(what),
        nprocs=4,
        metric="comm",
        backend=backend,
        cache_dir=None,
        tune_partition=joint,
        calibration=calibration,
    )


def autotune_stdout(name: str, capsys) -> str:
    assert main(AUTOTUNE_OUTPUTS[name]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CELLS))
def test_tuneplan_golden_bytes_and_counters(name):
    plan = tune_cell(name)
    golden = (GOLDEN_DIR / f"tuneplan_{name}.json").read_text()
    assert canonical_json(plan.to_jsonable()) + "\n" == golden
    assert (
        plan.profiles, plan.evaluated_candidates, plan.pruned_candidates
    ) == CELLS[name][-1]


def test_calibration_prunes_probes_without_changing_the_plan():
    """The fitted constants let the joint search skip its flip probes on
    an Ethernet study cell while choosing the identical plan."""
    uncal, cal = (
        json.loads((GOLDEN_DIR / f"tuneplan_{name}.json").read_text())
        for name in ("mm96_ethernet100", "mm96_ethernet100_calibrated")
    )
    for field in ("default_grain", "grain_map", "partition_map"):
        assert cal[field] == uncal[field]
    assert cal["profiles"] < uncal["profiles"]


@pytest.mark.parametrize("name", sorted(AUTOTUNE_OUTPUTS))
def test_autotune_golden_stdout(name, capsys):
    golden = (GOLDEN_DIR / f"autotune_{name}.txt").read_text()
    assert autotune_stdout(name, capsys) == golden
