#!/usr/bin/env bash
# Validate that README/docs code snippets and CLI examples actually run,
# and that intra-repo markdown links and backticked repo paths point at
# files that exist.
#
# Usage: tools/check_docs.sh [pytest args...]
#   e.g. tools/check_docs.sh -m "not slow"   # skip the MM-256 quickstart
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "-- markdown link and path check --"
python - <<'EOF'
"""Fail on dead intra-repo links and stale repo paths in tracked markdown.

Scans every ``[text](target)`` whose target is neither an absolute URL
nor a bare ``#anchor`` and requires the referenced path to exist,
resolved relative to the linking file (``#fragment`` suffixes are
stripped; fragments themselves are not validated).  Inside backticked
spans it also requires every repo path (``tools/x.py``, ``docs/Y.md``,
a root-level ``UPPER_CASE.json``; globs must match something) to exist,
resolved from the repo root; a ``::node`` or ``#anchor`` suffix is not
part of the path.
"""
import re
import subprocess
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SPAN = re.compile(r"`([^`]+)`")
REPO_PATH = re.compile(
    r"(?<![\w/.-])"
    r"((?:benchmarks|tools|tests|docs|src|examples)/[\w./*-]*"
    r"\.(?:py|sh|json|jsonl|md|f|txt)"
    r"|[A-Z][A-Z0-9_]+\.(?:json|md))"
    r"(?![\w/])"
)
# Retrieval artifacts (verbatim paper/code dumps), not authored docs —
# they carry PDF-extraction debris like image refs that never existed.
SKIP = {"PAPER.md", "PAPERS.md", "SNIPPETS.md"}
files = [
    f
    for f in subprocess.run(
        ["git", "ls-files", "*.md"], capture_output=True, text=True,
        check=True,
    ).stdout.split()
    if f not in SKIP
]
# Root-level notes README.md does not link (the change log, the roadmap)
# are history, not a description of the tree: they name removed files on
# purpose, so only their links are checked.
readme_refs = {
    t.split("#", 1)[0] for t in LINK.findall(Path("README.md").read_text())
}
HISTORY = {
    f for f in files
    if "/" not in f and f != "README.md" and f not in readme_refs
}
dead = []
for name in files:
    path = Path(name)
    for lineno, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        for target in LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            ref = target.split("#", 1)[0]
            if ref and not (path.parent / ref).exists():
                dead.append(f"{name}:{lineno}: dead link -> {target}")
        for span in SPAN.findall(line) if name not in HISTORY else ():
            for ref in REPO_PATH.findall(span):
                if not any(Path().glob(ref)):
                    dead.append(f"{name}:{lineno}: stale path -> {ref}")
if dead:
    print("\n".join(dead))
    sys.exit(1)
print(f"markdown links and paths OK ({len(files)} file(s) scanned)")
EOF

echo "-- repo convention lints --"
python tools/lint_repo.py

echo "-- docs snippet tests --"
python -m pytest -q tests/test_docs_snippets.py "$@"
