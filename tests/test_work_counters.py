"""Pinned deterministic work counters (the tier-1 performance gate).

Host seconds drift with the machine; these counts do not.  Each cell is
a ``benchmarks/perf`` cell, run cold the way its counting pass runs it
(compile cache and both memoized LMAD functions cleared, traced run):
kernel events and messages for a simulation, LMAD enumerations and
compile misses for a compile, profiles and priced candidates for a
tuner search.  The counts and their names are the benchmark's own
(``worker.counters_of``), on cells small enough for tier-1.

A change that moves a counter on purpose regenerates the golden with
``python tests/make_counter_goldens.py`` and says why in CHANGES.md.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

from suite import Cell  # noqa: E402
from worker import Inputs, counters_of, run_cell  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "work_counters.json"

#: name -> cell.  ``timing`` cells compile and simulate (fast path on,
#: as the benchmark runs them); ``tune`` cells run the uncached joint
#: grain x partition search.
CELLS = {
    "mm64_vbus_16": Cell("MM-64", "vbus", 16, "timing"),
    "mm64_gige_16": Cell("MM-64", "gige", 16, "timing"),
    "mm64_ethernet100_16": Cell("MM-64", "ethernet100", 16, "timing"),
    "swim32_vbus_4": Cell("SWIM-32", "vbus", 4, "timing"),
    "swim32_gige_4": Cell("SWIM-32", "gige", 4, "timing"),
    "tune_pxover32_vbus_4": Cell("PXOVER-32", "vbus", 4, "tune"),
    "tune_mm32_gige_4": Cell("MM-32", "gige", 4, "tune"),
}


def measure(name: str) -> dict:
    """One cold cell's work counters."""
    cell = CELLS[name]
    _dt, output = run_cell(cell, Inputs(cell), defaultdict(float), trace=True)
    counters = counters_of(cell, output)
    if counters["mpi2.messages"]:
        counters["sim.events_per_message"] = (
            counters["sim.events"] / counters["mpi2.messages"]
        )
    return counters


def test_golden_covers_every_cell():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_work_counters_match_golden(name):
    assert measure(name) == json.loads(GOLDEN.read_text())[name]
