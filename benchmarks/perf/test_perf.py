"""Self-tests of the benchmark (not part of tier-1)::

    python -m pytest benchmarks/perf -q

The quick-run tests make three ``--quick`` runs of all five workloads,
about two minutes in all.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from compare import main as compare_main, verdict
from run import HERE, ROOT, load_spec
from suite import COUNTERS, LAYER_MAP, WORKLOADS

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_is_valid():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert 1 <= spec["run_seconds"] <= 60
    workloads, e2e, layer = (spec["workloads"], spec["end_to_end"],
                             spec["per_layer"])
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layer) <= 128
    names = [x["name"] for x in workloads + e2e + layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert [w["name"] for w in workloads] == list(WORKLOADS)
    for w in workloads:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in e2e + layer:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_every_per_layer_metric_names_what_it_should_move():
    spec = load_spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_MAP)
    for name, (target, workloads) in LAYER_MAP.items():
        assert target in e2e, name
        assert workloads and set(workloads) <= set(WORKLOADS), name


@pytest.mark.parametrize("baseline", ["seed0.json", "seed1.json"])
def test_layer_map_matches_the_baselines(baseline):
    """A per-layer metric is mapped only to workloads that exercise it."""
    with open(os.path.join(HERE, "results", baseline)) as fh:
        doc = json.load(fh)
    for name, (_target, workloads) in LAYER_MAP.items():
        for w in workloads:
            assert doc["workloads"][w]["per_layer"][name] > 0, (name, w)


@pytest.mark.parametrize(
    "a, b, want",
    [
        # Tight rounds: the median change against the bound decides.
        ([1.00, 1.01, 1.02], [1.05, 1.06, 1.07], "within bound"),
        ([1.00, 1.01, 1.02], [1.13, 1.14, 1.15], "regressed"),
        ([1.00, 1.01, 1.02], [0.86, 0.87, 0.88], "improved"),
        # Wide rounds, fully separated but shifted less than the bound.
        ([0.80, 1.00, 1.05], [1.06, 1.07, 1.30], "within bound"),
        # Wide rounds, fully separated and shifted more than the bound.
        ([0.80, 1.00, 1.05], [1.10, 1.20, 1.40], "regressed"),
        # Wide, overlapping rounds: noise cannot be told from a change.
        ([0.80, 1.00, 1.20], [0.90, 1.15, 1.30], "unresolved"),
    ],
)
def test_verdict(a, b, want):
    assert verdict(a, b, 0.10, "lower")[0] == want
    flipped = {"improved": "regressed", "regressed": "improved"}
    assert verdict(a, b, 0.10, "higher")[0] == flipped.get(want, want)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Three quick runs of all workloads: seed 0 twice, then seed 1."""
    runs = []
    for seed in (0, 0, 1):
        out = tmp_path_factory.mktemp("quick") / "out.json"
        proc = subprocess.run(
            [sys.executable, RUN, "--quick", "--seed", str(seed),
             "-o", str(out)],
            capture_output=True, text=True, timeout=900,
        )
        assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
        runs.append((proc.stdout, json.loads(out.read_text())))
    return runs


def test_quick_run_emits_every_metric_with_its_unit(quick_runs):
    stdout, doc = quick_runs[0]
    spec = load_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    result = _last_json(stdout)
    assert result["correct"] and result["failed"] == 0
    for name, rec in doc["workloads"].items():
        assert rec["fail_ratio"] == 0
        values = {**rec["end_to_end"], **rec["per_layer"]}
        assert set(values) == {m["name"] for m in metrics}
        for m in spec["per_layer"]:
            assert result["metrics"][f"{name}/{m['name']}"]["unit"] == m["unit"]
    for m in metrics:
        line = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\b"
        assert re.search(line, stdout, re.M), m["name"]


def test_counters_repeat_across_runs_and_seeds(quick_runs):
    def counters(doc):
        return json.dumps(
            {w: {c: rec["per_layer"][c] for c in COUNTERS}
             for w, rec in doc["workloads"].items()},
            sort_keys=True,
        )

    first, again, seed1 = (counters(doc) for _out, doc in quick_runs)
    assert first == again
    assert first == seed1


def _checkout_copy(dst, with_src=True):
    """A checkout holding BENCHMARK.json, the benchmark and maybe src/."""
    shutil.copytree(
        HERE, dst / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "out", "results"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), dst / "src")
    return dst / "benchmarks" / "perf"


def test_wrong_pin_fails_every_rep(tmp_path):
    perf = _checkout_copy(tmp_path)
    expect_path = perf / "expect.json"
    expect = json.loads(expect_path.read_text())
    expect["MM-512/gige/16"]["messages"] += 1
    expect_path.write_text(json.dumps(expect))
    proc = subprocess.run(
        [sys.executable, str(perf / "run.py"), "--workload", "mm-gige",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode != 0
    result = _last_json(proc.stdout)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    perf = _checkout_copy(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, str(perf / "run.py"), "--workload", "mm-vbus",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_committed_baselines_agree(capsys):
    results = os.path.join(HERE, "results")
    rc = compare_main([os.path.join(results, "seed0.json"),
                       os.path.join(results, "seed1.json")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "regressed" not in out and "unresolved" not in out
    assert out.count("counters identical") == len(WORKLOADS)
