"""Tests for the command-line driver."""

from pathlib import Path

import pytest

from repro.tools.cli import main
from repro.workloads import mm, synthetic

BADPROG_DIR = Path(__file__).parent / "badprogs"


@pytest.fixture
def mm_file(tmp_path):
    path = tmp_path / "mm.f"
    path.write_text(mm.source(12))
    return str(path)


def test_cli_compile_plan_and_log(mm_file, capsys):
    assert main(["compile", mm_file, "--nprocs", "4", "--show", "plan", "log"]) == 0
    out = capsys.readouterr().out
    assert "parallelization log" in out
    assert "communication plan" in out
    assert "PARALLEL" in out


def test_cli_compile_fortran_and_avpg(mm_file, capsys):
    assert main(["compile", mm_file, "--show", "fortran", "avpg"]) == 0
    out = capsys.readouterr().out
    assert "MPI_WIN_CREATE" in out
    assert "Valid" in out


def test_cli_run_with_arrays(tmp_path, capsys):
    path = tmp_path / "red.f"
    path.write_text(synthetic.reduction_kernel(32))
    assert main(["run", str(path), "--nprocs", "2", "--arrays", "A"]) == 0
    out = capsys.readouterr().out
    assert "SUM 528" in out
    assert "total time" in out
    assert "A = [" in out


def test_cli_run_timing_and_compare(mm_file, capsys):
    assert main([
        "run", mm_file, "--timing", "--compare-sequential",
        "--granularity", "coarse",
    ]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_cli_run_unknown_array(mm_file, capsys):
    assert main(["run", mm_file, "--arrays", "NOPE"]) == 0
    assert "no array named NOPE" in capsys.readouterr().out


def test_cli_autotune(mm_file, capsys):
    assert main(["autotune", mm_file, "--metric", "comm_cpu"]) == 0
    out = capsys.readouterr().out
    assert "selected" in out


def test_cli_rejects_bad_granularity(mm_file):
    with pytest.raises(SystemExit):
        main(["compile", mm_file, "--granularity", "chunky"])


def test_cli_check_clean_exits_0(mm_file, capsys):
    assert main(["check", mm_file, "--no-cache"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_check_dirty_exits_2(capsys):
    bad = str(BADPROG_DIR / "uncovered_read.f")
    assert main(["check", bad, "--no-cache"]) == 2
    out = capsys.readouterr().out
    assert "RV101" in out


def test_cli_check_honors_partition_spec(capsys):
    bad = str(BADPROG_DIR / "illegal_split_block.f")
    # The bad split is diagnosed; the auto policy is clean.
    assert main(["check", bad, "--no-cache", "--partition", "block:1"]) == 2
    assert "RV401" in capsys.readouterr().out
    assert main(["check", bad, "--no-cache"]) == 0


def test_cli_run_sanitize_clean_and_dirty(mm_file, capsys):
    assert main(["run", mm_file, "--sanitize"]) == 0
    assert "sanitizer         : clean" in capsys.readouterr().out
    bad = str(BADPROG_DIR / "unfenced_collect.f")
    assert main(["run", bad, "--sanitize"]) == 2
    assert "S-FENCE" in capsys.readouterr().out


def test_cli_sanitize_rejects_timing_mode(mm_file, capsys):
    assert main(["run", mm_file, "--sanitize", "--timing"]) == 2
    assert "value mode" in capsys.readouterr().err


def test_cli_missing_artifacts_exit_2_without_traceback(mm_file, capsys):
    """Unloadable plan/calibration/fault artifacts are CLI errors (exit
    2, message on stderr), never tracebacks."""
    for argv in (
        ["run", mm_file, "--tune-plan", "/no/such/plan.json"],
        ["run", mm_file, "--faults", "/no/such/faults.json"],
        ["autotune", mm_file, "--per-region",
         "--calibration", "/no/such/cal.json"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err


def test_cli_malformed_artifact_exits_2(mm_file, tmp_path, capsys):
    bad = tmp_path / "plan.json"
    bad.write_text("{not json")
    assert main(["run", mm_file, "--tune-plan", str(bad)]) == 2
    assert "cannot load" in capsys.readouterr().err
    # Valid JSON of the wrong kind is equally a clean CLI error.
    bad.write_text('{"kind": "calibration"}')
    assert main(["run", mm_file, "--tune-plan", str(bad)]) == 2
    assert "cannot load" in capsys.readouterr().err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code


@pytest.mark.parametrize(
    "argv, message",
    [
        ([cmd, "MM-16", "--nprocs", "0"], "argument --nprocs")
        for cmd in ("compile", "run", "check", "trace", "autotune")
    ]
    + [
        (["autotune", "MM-16", "--epsilon", "1.5"], "argument --epsilon"),
        (["autotune", "MM-16", "--epsilon", "1.5", "--per-region"],
         "argument --epsilon"),
        (["calibrate", "--nprocs", "0"], "argument --nprocs"),
        (["calibrate", "--nprocs", "1", "--no-cache"],
         "repro: calibrate: calibration needs nprocs >= 2"),
    ],
)
def test_cli_bad_arguments_exit_2_without_traceback(argv, message, capsys):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cli_bug_pragma_without_effect_exits_2(capsys):
    """A seeded-bug pragma that finds nothing to mutate under the given
    options is one ``repro:`` line and exit 2, not a traceback."""
    bad = str(BADPROG_DIR / "race_coarse_collect.f")
    assert main(["check", bad, "--granularity", "fine", "--no-cache"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("repro: C$BUG KEEP-GRAIN")
    assert "granularity=fine" in err[0]


@pytest.mark.parametrize("argv", [
    ["run", "SWIM-4", "--nprocs", "8"],
    ["run", "XOVER-4", "--nprocs", "3"],
])
def test_cli_spec_below_floor_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("repro: workload") and "size must be" in err[0]


@pytest.mark.parametrize("doc, message", [
    ('{"faults": 3}', "'faults' must be a list of objects"),
    ('{"faults": [3]}', "'faults' must be a list of objects"),
    ('{"faults": [{"kind": "drop", "bogus": 1}]}', "unexpected keyword"),
    ('{"retx": 5}', "malformed fault plan"),
])
def test_cli_fault_plan_of_wrong_shape_exits_2(doc, message, tmp_path, capsys):
    """Valid JSON that is not a fault plan is one ``repro: faults:`` line."""
    plan = tmp_path / "plan.json"
    plan.write_text(doc)
    argv = ["run", "MM-16", "--nprocs", "4", "--faults", str(plan)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("repro: faults: cannot load") and message in err[0]


@pytest.mark.parametrize("cmd", ["run", "compile", "check"])
@pytest.mark.parametrize("text, message", [
    ("NOT FORTRAN\n", "line 1: expected PROGRAM or SUBROUTINE"),
    ("      PROGRAM P\n      X = Y(1)\n      END\n", "not declared as an array"),
])
def test_cli_source_not_fortran_exits_2(cmd, text, message, tmp_path, capsys):
    path = tmp_path / "notes.f"
    path.write_text(text)
    assert main([cmd, str(path), "--no-cache"] if cmd == "check"
                else [cmd, str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"repro: {path}: ") and message in err[0]


@pytest.mark.parametrize("kind, message", [
    ("missing", "is neither a file nor a workload spec"),
    ("directory", "cannot read"),
    ("binary", "cannot read"),
])
def test_cli_unreadable_source_exits_2(kind, message, tmp_path, capsys):
    path = tmp_path / "src.f"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe")
    assert _exit_code(["run", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("repro: ") and message in err[0]
