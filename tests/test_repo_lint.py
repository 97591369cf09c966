"""The repo-convention lints (tools/lint_repo.py) hold on the tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "tools" / "lint_repo.py"


def test_repo_lint_passes():
    proc = subprocess.run(
        [sys.executable, str(LINT)], cwd=ROOT, capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_kernel_private_rule_flags_event_fields(tmp_path, monkeypatch):
    """Rule 3 flags Simulator and Event private-field assignments outside
    ``src/repro/sim``, and allows them inside it."""
    spec = importlib.util.spec_from_file_location("lint_repo", LINT)
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    layer = tmp_path / "src" / "repro" / "vbus"
    kernel = tmp_path / "src" / "repro" / "sim"
    layer.mkdir(parents=True)
    kernel.mkdir(parents=True)
    body = "ev._value = None\nev._cb1, x = f, 1\nsim._now = 0.0\nev.value = 1\n"
    (layer / "leg.py").write_text(body)
    (kernel / "kernel.py").write_text(body)
    monkeypatch.setattr(lint, "REPO", tmp_path)
    findings = []
    lint.lint_kernel_private(findings)
    assert findings == [
        "src/repro/vbus/leg.py:1: assigns Event field _value outside "
        "src/repro/sim (schedule through the kernel)",
        "src/repro/vbus/leg.py:2: assigns Event field _cb1 outside "
        "src/repro/sim (schedule through the kernel)",
        "src/repro/vbus/leg.py:3: assigns Simulator field _now outside "
        "src/repro/sim (schedule through the kernel)",
    ]
