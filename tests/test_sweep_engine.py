"""The sweep engine's contracts: grid expansion, the content-addressed
cache, serial/parallel byte-identity, and lost-worker isolation.

These pin the determinism guarantees documented in docs/SWEEP.md:

* expansion order is fixed (axes iterate in ``AXIS_KEYS`` order), so the
  merged rows and the JSONL bytes never depend on execution order;
* a serial sweep and a ``--jobs N`` sweep emit byte-identical JSONL;
* warm runs replay cached rows bit-for-bit; any config or version change
  misses the cache;
* a job that kills its worker process becomes one typed
  ``SweepWorkerLost`` row while every other job completes normally.
"""

import json
import os

import pytest

from repro.sweep import (
    AXIS_KEYS,
    SweepConfigError,
    cache_path,
    expand_grid,
    job_key,
    parse_workload,
    run_sweep,
    summary_table,
    write_jsonl,
)
from repro.tools.cli import main as cli_main

#: Small but non-trivial: 2 workloads x 2 nprocs, sub-second serially.
GRID = {
    "name": "unit",
    "axes": {
        "workload": ["MM-12", "CFFZINIT-5"],
        "nprocs": [2, 4],
    },
    "defaults": {"granularity": "coarse"},
}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------- grid


def test_expansion_order_is_deterministic():
    configs = expand_grid(GRID)
    assert [(c["workload"], c["nprocs"]) for c in configs] == [
        ("MM-12", 2), ("MM-12", 4), ("CFFZINIT-5", 2), ("CFFZINIT-5", 4),
    ]
    # Every config carries every axis key, in AXIS_KEYS order — except
    # tune_plan (post-PR6), partition (post-PR8), and calibration
    # (post-PR9), omitted when unset so pre-existing cache keys and
    # committed result rows keep their exact bytes.
    for cfg in configs:
        assert tuple(cfg) == tuple(
            k for k in AXIS_KEYS
            if k not in ("tune_plan", "partition", "calibration")
        )


def test_grid_validation_errors():
    with pytest.raises(SweepConfigError):
        expand_grid({"axes": {}})  # no axes
    with pytest.raises(SweepConfigError):
        expand_grid({"axes": {"workload": ["MM-12"]}, "bogus": 1})
    with pytest.raises(SweepConfigError):
        expand_grid({"axes": {"nprocs": [2]}})  # workload required
    with pytest.raises(SweepConfigError):  # axis/default clash
        expand_grid({
            "axes": {"workload": ["MM-12"], "nprocs": [2]},
            "defaults": {"nprocs": 4},
        })
    with pytest.raises(SweepConfigError):  # unknown backend
        expand_grid({
            "axes": {"workload": ["MM-12"]},
            "defaults": {"backend": "myrinet"},
        })
    with pytest.raises(SweepConfigError):  # bad workload spec
        expand_grid({"axes": {"workload": ["mm-12"]}})


def test_parse_workload():
    assert parse_workload("MM-256") == ("MM", 256, None)
    assert parse_workload("JACOBI-64x10") == ("JACOBI", 64, 10)
    assert parse_workload("SWIM-32x2") == ("SWIM", 32, 2)
    with pytest.raises(SweepConfigError):
        parse_workload("MM")  # size required
    with pytest.raises(SweepConfigError):
        parse_workload("FFT-64")


# --------------------------------------------------------------- cache


def test_job_key_changes_with_config_and_version():
    cfg = expand_grid(GRID)[0]
    key = job_key(cfg)
    assert key == job_key(dict(cfg))  # insertion order is irrelevant
    changed = dict(cfg, nprocs=8)
    assert job_key(changed) != key
    assert job_key(cfg, version="0.0.0-other") != key
    assert job_key(cfg, schema=999) != key


def test_cold_then_warm_identical_rows(tmp_path):
    cache = str(tmp_path / "cache")
    cold = run_sweep(GRID, cache_dir=cache)
    warm = run_sweep(GRID, cache_dir=cache)
    assert cold.misses == len(cold.rows) and cold.hits == 0
    assert warm.hits == len(warm.rows) and warm.misses == 0
    assert warm.rows == cold.rows
    # Every cached entry landed at its content-addressed path.
    for key in cold.keys:
        assert os.path.exists(cache_path(cache, key))


def test_config_change_invalidates_cache(tmp_path):
    cache = str(tmp_path / "cache")
    run_sweep(GRID, cache_dir=cache)
    bumped = dict(GRID, defaults={"granularity": "fine"})
    again = run_sweep(bumped, cache_dir=cache)
    assert again.hits == 0 and again.misses == len(again.rows)


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = str(tmp_path / "cache")
    first = run_sweep(GRID, cache_dir=cache)
    path = cache_path(cache, first.keys[0])
    with open(path, "w") as fh:
        fh.write("{truncated")
    again = run_sweep(GRID, cache_dir=cache)
    assert again.hits == len(again.rows) - 1 and again.misses == 1
    assert again.rows == first.rows


# ------------------------------------------- serial/parallel identity


@pytest.mark.slow
def test_serial_and_parallel_jsonl_byte_identical(tmp_path):
    serial = run_sweep(GRID, jobs=1, cache_dir=str(tmp_path / "c1"))
    para = run_sweep(GRID, jobs=4, cache_dir=str(tmp_path / "c2"))
    s_path, p_path = str(tmp_path / "s.jsonl"), str(tmp_path / "p.jsonl")
    write_jsonl(serial.rows, s_path)
    write_jsonl(para.rows, p_path)
    assert _read(s_path) == _read(p_path)
    # And the rows are real: every job simulated something.
    for line in _read(s_path).decode().splitlines():
        row = json.loads(line)
        assert row["status"] == "ok"
        assert row["result"]["simulated_s"] > 0


@pytest.mark.slow
def test_killed_worker_yields_typed_row_without_corrupting_sweep(tmp_path):
    grid = {
        "name": "crash",
        "axes": {"workload": ["MM-12", "CRASH-9", "CFFZINIT-5"]},
        "defaults": {"nprocs": 2, "granularity": "coarse"},
    }
    result = run_sweep(grid, jobs=2, cache_dir=str(tmp_path / "c"))
    assert [r["status"] for r in result.rows] == ["ok", "error", "ok"]
    err = result.rows[1]["error"]
    assert err["type"] == "SweepWorkerLost"
    assert result.errors == 1
    # The innocent jobs cached; the lost-worker row did not.
    warm = run_sweep(grid, jobs=2, cache_dir=str(tmp_path / "c"))
    assert warm.hits == 2 and warm.misses == 1
    # The summary renders the error detail.
    assert "SweepWorkerLost" in summary_table(result)


# ----------------------------------------------------------------- CLI


def test_cli_sweep_warm_run_is_all_cache_hits(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "name": "cli",
        "axes": {
            "workload": ["MM-16", "JACOBI-8x2", "CFFZINIT-5"],
            "nprocs": [2, 4],
        },
        "defaults": {"granularity": "coarse"},
    }))
    common = [str(grid), "--quiet", "--cache-dir", str(tmp_path / "cache")]
    cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    assert cli_main(["sweep", *common, "--jobs", "2", "-o", str(cold)]) == 0
    assert "6 job(s): 0 cache hit(s)" in capsys.readouterr().out
    assert cli_main(["sweep", *common, "-o", str(warm)]) == 0
    assert "6 job(s): 6 cache hit(s)" in capsys.readouterr().out
    assert _read(str(cold)) == _read(str(warm))


# ------------------------------------------------------------ backends


def test_backend_axis_covers_ethernet_and_gige(tmp_path):
    grid = {
        "name": "backends",
        "axes": {"backend": ["vbus", "ethernet100", "gige"]},
        "defaults": {
            "workload": "MM-16", "nprocs": 4, "granularity": "fine",
        },
    }
    result = run_sweep(grid, cache_dir=None)
    sim = {r["backend"]: r["result"]["simulated_s"] for r in result.rows}
    assert all(r["status"] == "ok" for r in result.rows)
    # Fine-grain small messages: the V-Bus user-level stack beats both
    # Ethernet models, and the switched-GigE model beats shared 100 Mb/s
    # (more bandwidth + full duplex, same kernel-stack latency).
    assert sim["vbus"] < sim["gige"] < sim["ethernet100"]
