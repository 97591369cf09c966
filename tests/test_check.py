"""Tests for the static comm-plan verifier (docs/CHECK.md).

Two contracts anchor the suite:

* **no false positives** — every healthy workload variant that passes
  digest-invariance today must come back clean;
* **no false negatives** — every seeded-bug program in tests/badprogs
  must produce exactly its manifest's diagnostic codes, and the full
  report bytes are pinned as goldens (regenerate with
  ``python tests/make_check_goldens.py`` after intentional changes).
"""

import json
import os
from pathlib import Path

import pytest

from repro.compiler.pipeline import compile_source
from repro.runtime.executor import run_program, run_sequential
from repro.sweep.cache import canonical_json
from repro.tools.check import (
    CHECK_SCHEMA_VERSION,
    DIAGNOSTIC_CODES,
    CheckReport,
    bad_region_map,
    check_program,
    check_source,
)
from repro.workloads import source_for

BADPROG_DIR = Path(__file__).parent / "badprogs"
GOLDEN_DIR = Path(__file__).parent / "golden"
MANIFEST = json.loads((BADPROG_DIR / "manifest.json").read_text())


def badprog(fname: str) -> str:
    return (BADPROG_DIR / fname).read_text()


# ---------------------------------------------------------------------------
# Healthy corpus: no false positives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["MM-16", "JACOBI-12", "XOVER-24"])
@pytest.mark.parametrize("granularity", ["fine", "coarse"])
@pytest.mark.parametrize("partition", ["auto", "block", "cyclic"])
def test_healthy_workloads_are_clean(spec, granularity, partition):
    report = check_source(
        source_for(spec),
        nprocs=4,
        granularity=granularity,
        partition=partition,
    )
    assert report.clean, report.summary()
    assert report.codes() == set()


def test_clean_report_omits_empty_fields():
    report = check_source(source_for("MM-16"))
    row = report.to_jsonable()
    assert "diagnostics" not in row
    assert "notes" not in row
    assert row["version"] == CHECK_SCHEMA_VERSION
    assert CheckReport.from_jsonable(row) == report


# ---------------------------------------------------------------------------
# Seeded-bug corpus: no false negatives, pinned goldens
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fname", sorted(MANIFEST))
def test_badprog_produces_expected_codes(fname):
    spec = MANIFEST[fname]
    report = check_source(badprog(fname), **spec["options"])
    assert not report.clean
    assert set(spec["expected"]) <= report.codes(), report.summary()
    assert report.codes() <= set(DIAGNOSTIC_CODES)


@pytest.mark.parametrize("fname", sorted(MANIFEST))
def test_badprog_golden_report_bytes(fname):
    spec = MANIFEST[fname]
    report = check_source(badprog(fname), **spec["options"])
    stem = os.path.splitext(fname)[0]
    golden = (GOLDEN_DIR / f"check_{stem}.json").read_text()
    assert canonical_json(report.to_jsonable()) + "\n" == golden
    # The golden round-trips to an equal report.
    assert CheckReport.from_jsonable(json.loads(golden)) == report


def test_diagnostics_are_deterministically_ordered():
    spec = MANIFEST["race_coarse_collect.f"]
    a = check_source(badprog("race_coarse_collect.f"), **spec["options"])
    b = check_source(badprog("race_coarse_collect.f"), **spec["options"])
    assert [d.to_jsonable() for d in a.diagnostics] == [
        d.to_jsonable() for d in b.diagnostics
    ]
    keys = [(d.region_id, d.code, d.array or "", d.rank or -1)
            for d in a.diagnostics]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# RV401 is a real-bug detector, not a style warning
# ---------------------------------------------------------------------------

def test_rv401_flags_silently_wrong_answers():
    """The illegal split computes a different SUM than sequential —
    exactly the silent corruption the verifier exists to catch."""
    source = badprog("illegal_split_block.f")
    prog = compile_source(
        source, nprocs=4, granularity="fine", partition="block:1"
    )
    assert "RV401" in check_program(prog).codes()
    par = run_program(prog, execute=True)
    seq = run_sequential(prog, execute=True)
    assert par.stdout != seq.stdout
    # The same program under the auto policy is clean and correct.
    auto = compile_source(source, nprocs=4, granularity="fine")
    assert check_program(auto).clean
    assert run_program(auto, execute=True).stdout == seq.stdout


def test_bad_region_map_for_tuner_pruning():
    source = badprog("illegal_split_cyclic.f")
    prog = compile_source(
        source, nprocs=4, granularity="fine", partition="cyclic:1"
    )
    bad = bad_region_map(prog)
    assert bad and all("RV401" in codes for codes in bad.values())
    assert bad_region_map(compile_source(source_for("MM-16"))) == {}


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------

def test_check_source_warm_cache_byte_identity(tmp_path):
    spec = MANIFEST["uncovered_read.f"]
    src = badprog("uncovered_read.f")
    cold = check_source(src, cache_dir=str(tmp_path), **spec["options"])
    warm = check_source(src, cache_dir=str(tmp_path), **spec["options"])
    assert not cold.cached and warm.cached
    assert canonical_json(cold.to_jsonable()) == canonical_json(
        warm.to_jsonable()
    )
    # ``cached`` is provenance, not content: the reports still compare
    # equal (compare=False field).
    assert cold == warm


def test_check_source_cache_distinguishes_options(tmp_path):
    src = source_for("MM-16")
    fine = check_source(src, granularity="fine", cache_dir=str(tmp_path))
    coarse = check_source(src, granularity="coarse", cache_dir=str(tmp_path))
    assert not coarse.cached  # different option, different cache slot
    assert fine.granularity == "fine" and coarse.granularity == "coarse"


# ---------------------------------------------------------------------------
# The RV401 memo: one analysis per (region, partition), notes replayed
# ---------------------------------------------------------------------------

#: A region above the exact re-derivation cap twice: at top level and
#: inside a sequential loop (so the planner's fixpoint revisits it).
CAPPED_IN_SEQ_LOOP = """
      PROGRAM CAPSEQ
      PARAMETER (N = 9000)
      REAL*8 A(N)
      DO I = 1, N
        A(I) = I * 2.0
      ENDDO
      DO T = 1, 2
        DO I = 1, N
          A(I) = A(I) + 1.0
        ENDDO
      ENDDO
      PRINT *, A(1), A(N)
      END
"""


def test_rv401_notes_survive_sequential_loop_revisits():
    """The cap note belongs to every capped region, including the one
    whose final (post-meet) visit replays a memoized RV401 result."""
    prog = compile_source(CAPPED_IN_SEQ_LOOP, nprocs=4)
    rids = sorted(prog.plans)
    assert len(rids) == 2
    report = check_program(prog)
    assert report.notes == [
        f"region {rid}: 9000 iterations exceed the exact re-derivation "
        "cap; RV401 analysis skipped"
        for rid in rids
    ]
    assert report.clean


@pytest.mark.parametrize(
    "name", sorted(MANIFEST) + ["PXOVER-32", "XOVER-64", "MM-32", "capped"]
)
def test_shared_rv401_memo_matches_fresh_checks(name):
    """One memo shared by every variant of a source gives the reports a
    fresh check per variant gives: 3 grains x {block, cyclic}, plus each
    badprog's own manifest options (the RV401-positive splits)."""
    variants = [
        {"nprocs": 4, "granularity": g, "partition": p}
        for p in ("block", "cyclic")
        for g in ("fine", "middle", "coarse")
    ]
    if name in MANIFEST:
        src = badprog(name)
        variants.append(MANIFEST[name]["options"])
    elif name == "capped":
        src = CAPPED_IN_SEQ_LOOP
    else:
        src = source_for(name)
    memo = {}
    for opts in variants:
        try:
            prog = compile_source(src, **opts)
        except ValueError:
            # A seeded-bug pragma that needs other options, or a split
            # the partitioner rejects (PartitionError): nothing to check.
            assert opts is not variants[-1] or name not in MANIFEST
            continue
        shared = check_program(prog, memo)
        fresh = check_program(prog)
        assert shared == fresh, (name, opts)
        assert shared.notes == fresh.notes
    assert memo
