"""Property tests for the trace-calibrated cost model (docs/AUTOTUNE.md).

The calibration pipeline makes three promises worth pinning as
properties rather than examples.  **Determinism**: the fit is a pure
function of the (deterministic) microbenchmark suite, so two fresh
calibrations of the same backend produce byte-identical artifacts, and
a warm cache returns the same bytes without touching the simulator.
**Results-invariance**: calibration only changes which plan the tuner
*picks*, never what a plan *computes* — calibrated and uncalibrated
tuned programs must produce bit-identical numeric state.  **Physical
sanity**: the fitted per-byte coefficient must order the backends by
their actual bandwidth, or the model would rank cross-family champions
with nonsense.
"""

import importlib
import json

import pytest

from repro.compiler.pipeline import compile_source
from repro.runtime.executor import run_program
from repro.sweep.cache import canonical_json, job_key
from repro.sweep.grid import SweepConfigError, expand_grid
from repro.sweep.runner import run_job
from repro.tools.calibrate import CalibratedModel, calibrate

#: The submodule itself — ``repro.tools`` re-exports the ``calibrate``
#: *function* under the same name, so plain attribute access finds that.
cal_mod = importlib.import_module("repro.tools.calibrate")
from repro.tools.cli import main
from repro.tools.tuneplan import plan_cache_key, tune_per_region
from repro.vbus.params import backend_params
from repro.workloads import synthetic

PXOVER = synthetic.partition_crossover_kernel(16)


def _fit(backend, cache_dir):
    return calibrate(backend, nprocs=4, cache_dir=cache_dir)


def test_artifact_roundtrip_and_hash(tmp_path):
    model = _fit("gige", cache_dir=None)
    doc = model.to_jsonable()
    again = CalibratedModel.from_jsonable(doc)
    assert again == model
    assert again.sha256() == model.sha256()

    path = tmp_path / "cal.json"
    model.save(str(path))
    assert CalibratedModel.load(str(path)) == model
    # The saved artifact is the canonical JSON encoding — the same bytes
    # the sha256 content address is computed over.
    assert path.read_text() == canonical_json(doc) + "\n"


def test_fit_deterministic_across_fresh_caches(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    _fit("gige", cache_dir=str(tmp_path / "cache-a")).save(str(a))
    _fit("gige", cache_dir=str(tmp_path / "cache-b")).save(str(b))
    assert a.read_bytes() == b.read_bytes()


def test_warm_cache_byte_identical_without_simulating(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    cold = _fit("gige", cache_dir=cache)
    assert not cold.cached

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("warm calibration touched the simulator")

    monkeypatch.setattr(cal_mod, "_measure_cell", boom)
    warm = _fit("gige", cache_dir=cache)
    assert warm.cached
    assert warm == cold
    assert canonical_json(warm.to_jsonable()) == canonical_json(
        cold.to_jsonable()
    )


def test_per_byte_monotone_in_backend_bandwidth():
    fits = {b: _fit(b, cache_dir=None) for b in ("vbus", "gige", "ethernet100")}
    # Faster wire -> smaller fitted per-byte cost: V-Bus < switched GigE
    # < shared 100 Mb Ethernet.  Every coefficient is non-negative by
    # construction of the clamped least-squares fit.
    assert (
        fits["vbus"].per_byte_s
        < fits["gige"].per_byte_s
        < fits["ethernet100"].per_byte_s
    )
    for model in fits.values():
        assert all(c >= 0.0 for c in model.constants().values())
    # Only V-Bus has a fused broadcast, so only V-Bus can fit a nonzero
    # fan-out term.
    assert fits["vbus"].fanout_per_dest_s > 0.0
    assert fits["gige"].fanout_per_dest_s == 0.0


def test_results_invariance_calibrated_vs_uncalibrated():
    model = _fit("gige", cache_dir=None)
    digests = []
    for calibration in (None, model):
        plan = tune_per_region(
            PXOVER,
            backend="gige",
            nprocs=4,
            cache_dir=None,
            tune_partition=True,
            calibration=calibration,
        )
        prog = compile_source(PXOVER, options=plan.options())
        params = backend_params("gige", 4)
        report = run_program(prog, cluster_params=params, execute=True)
        digests.append(report.to_jsonable()["array_digest"])
    assert digests[0] == digests[1]


def test_calibration_joins_plan_cache_key_and_artifact(tmp_path):
    model = _fit("gige", cache_dir=None)
    base = dict(
        source=PXOVER,
        nprocs=4,
        metric="comm",
        backend="gige",
        epsilon=0.05,
        tune_partition=True,
    )
    uncal = plan_cache_key(**base)
    cal = plan_cache_key(**base, calibration_sha256=model.sha256())
    assert uncal != cal
    # Uncalibrated searches key and serialize exactly as before the
    # calibration field existed (byte-compat with old plan caches).
    assert uncal == plan_cache_key(**base, calibration_sha256="")

    plan = tune_per_region(
        PXOVER,
        backend="gige",
        nprocs=4,
        cache_dir=str(tmp_path),
        tune_partition=True,
        calibration=model,
    )
    assert plan.calibration_sha256 == model.sha256()
    doc = plan.to_jsonable()
    assert doc["calibration_sha256"] == model.sha256()
    warm = tune_per_region(
        PXOVER,
        backend="gige",
        nprocs=4,
        cache_dir=str(tmp_path),
        tune_partition=True,
        calibration=model,
    )
    assert warm.cached and warm == plan

    unplan = tune_per_region(
        PXOVER,
        backend="gige",
        nprocs=4,
        cache_dir=str(tmp_path),
        tune_partition=True,
    )
    assert "calibration_sha256" not in unplan.to_jsonable()


def test_sweep_axis_prices_rows_and_keeps_byte_compat(tmp_path):
    model = _fit("gige", cache_dir=None)
    grid = {
        "name": "cal",
        "axes": {"workload": ["MM-16"]},
        "defaults": {"backend": "gige"},
    }
    plain_cfg = expand_grid(grid)[0]
    assert "calibration" not in plain_cfg  # unset axis is omitted
    cal_grid = dict(grid)
    cal_grid["defaults"] = dict(
        grid["defaults"], calibration=model.to_jsonable()
    )
    cal_cfg = expand_grid(cal_grid)[0]
    assert job_key(plain_cfg) != job_key(cal_cfg)

    plain_row = run_job(plain_cfg, job_key(plain_cfg))
    cal_row = run_job(cal_cfg, job_key(cal_cfg))
    assert plain_row["status"] == cal_row["status"] == "ok"
    assert "model" not in plain_row
    assert cal_row["model"]["comm_s"] > 0.0
    assert cal_row["model"]["messages"] > 0
    # The axis never perturbs what the job computes.
    assert (
        plain_row["result"]["array_digest"]
        == cal_row["result"]["array_digest"]
    )

    bad = dict(grid)
    bad["defaults"] = dict(grid["defaults"], calibration={"kind": "nope"})
    with pytest.raises(SweepConfigError, match="calibration"):
        expand_grid(bad)


def test_calibrate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown backend"):
        calibrate("token-ring", cache_dir=None)
    with pytest.raises(ValueError, match="nprocs"):
        calibrate("vbus", nprocs=1, cache_dir=None)
    with pytest.raises(ValueError, match="calibration document"):
        CalibratedModel.from_jsonable({"kind": "tuneplan"})
    with pytest.raises(ValueError, match="missing"):
        CalibratedModel.from_jsonable(
            {"kind": "calibration", "backend": "vbus", "nprocs": 4,
             "constants": {"per_message_s": 1e-6}}
        )


def test_cli_calibrate_and_autotune_calibration(tmp_path, capsys):
    art = tmp_path / "cal.json"
    src = tmp_path / "pxover.f"
    src.write_text(PXOVER)
    cache = str(tmp_path / "cache")

    assert main([
        "calibrate", "--backend", "gige", "--cache-dir", cache,
        "-o", str(art),
    ]) == 0
    out = capsys.readouterr().out
    assert "calibrated model (gige" in out
    saved = json.loads(art.read_text())
    assert saved["kind"] == "calibration" and saved["backend"] == "gige"

    assert main([
        "autotune", str(src), "--backend", "gige", "--per-region",
        "--tune-partition", "--calibration", str(art),
        "--cache-dir", cache,
    ]) == 0
    assert "per-region tune plan" in capsys.readouterr().out

    # --calibration without --per-region is a usage error: the global
    # tuner profiles every grain, so fitted constants decide nothing.
    assert main([
        "autotune", str(src), "--calibration", str(art),
    ]) == 2
    assert "--per-region" in capsys.readouterr().err
