"""Tests for the workload generators."""

import numpy as np
import pytest

from repro.compiler.frontend.lower import lower_program
from repro.compiler.frontend.parser import parse
from repro.workloads import cffzinit, mm, swim, synthetic


def parses(src):
    return lower_program(parse(src)).main


def test_mm_source_parses_and_parameterizes():
    unit = parses(mm.source(32))
    assert unit.symtab.lookup("A").dims == [(1, 32), (1, 32)]
    with pytest.raises(ValueError):
        mm.source(0)


def test_mm_reference_matches_numpy():
    init = mm.init_arrays(16, seed=3)
    ref = mm.reference(init)
    assert np.allclose(ref, init["A"] @ init["B"])


def test_mm_init_deterministic():
    a = mm.init_arrays(8, seed=1)
    b = mm.init_arrays(8, seed=1)
    assert np.array_equal(a["A"], b["A"])


def test_mm_sizes_constant():
    assert mm.SIZES == (256, 512, 1024)


def test_swim_source_parses():
    unit = parses(swim.source(16, 2))
    names = {s.name for s in unit.symtab.arrays()}
    assert {"U", "V", "P", "CU", "CV", "Z", "H"} <= names
    with pytest.raises(ValueError):
        swim.source(4)


def test_swim_reference_shapes():
    ref = swim.reference_step(12, itmax=1)
    assert ref["U"].shape == (12, 12)
    # A second step changes the fields.
    ref2 = swim.reference_step(12, itmax=2)
    assert not np.allclose(ref["P"], ref2["P"])


def test_cffzinit_source_and_reference():
    unit = parses(cffzinit.source(5))
    trig = unit.symtab.lookup("TRIG")
    assert trig.size == 2 * 32
    ref = cffzinit.reference(5)
    # cos^2 + sin^2 == 1 for every entry.
    assert np.allclose(ref[0::2] ** 2 + ref[1::2] ** 2, 1.0)
    with pytest.raises(ValueError):
        cffzinit.source(1)


def test_synthetic_kernels_parse():
    for src in (
        synthetic.stride_kernel(16, 3),
        synthetic.phased_stride_kernel(16, 3),
        synthetic.copy_kernel(16),
        synthetic.reduction_kernel(16),
        synthetic.triangular_kernel(8),
        synthetic.avpg_chain(16),
        synthetic.figure9_kernel(2),
    ):
        assert parses(src) is not None


def test_synthetic_validation():
    with pytest.raises(ValueError):
        synthetic.stride_kernel(8, 0)
    with pytest.raises(ValueError):
        synthetic.phased_stride_kernel(8, 0)


# One row per spec kind: (the smallest spec that builds, one below it).
SPEC_FLOORS = [
    ("MM-1", "MM-0"),
    ("SWIM-8", "SWIM-7"),
    ("CFFZINIT-2", "CFFZINIT-1"),
    ("JACOBI-8", "JACOBI-7"),
    ("XOVER-8", "XOVER-7"),
    ("PXOVER-8", "PXOVER-7"),
]


@pytest.mark.parametrize("at_floor,below", SPEC_FLOORS)
def test_spec_size_floors_are_parse_errors(at_floor, below):
    from repro.workloads import WorkloadSpecError, parse_spec, source_for

    assert source_for(at_floor)
    with pytest.raises(WorkloadSpecError, match="size must be"):
        parse_spec(below)


@pytest.mark.parametrize("spec", ["CFFZINIT-25", "XOVER-64x0", "PXOVER-64x0"])
def test_spec_ceilings_and_extras_are_parse_errors(spec):
    from repro.workloads import WorkloadSpecError, parse_spec

    with pytest.raises(WorkloadSpecError):
        parse_spec(spec)
