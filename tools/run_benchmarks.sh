#!/usr/bin/env bash
# Fast lane, slow lane, docs check, the benchmark's self-tests, then the
# host-time benchmark.
#
# Usage: tools/run_benchmarks.sh [--quick] [-o OUT.json]
#   Arguments pass straight to `python -m benchmarks.perf` (see
#   benchmarks/perf/README.md): --quick takes fewer timed reps, -o
#   writes every record as JSON.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 tests (slow whole-program tests excluded) =="
python -m pytest -x -q -m "not slow"
echo
echo "== slow whole-program tests (equivalence, tuner and checker corpora) =="
python -m pytest -x -q -m slow
echo
echo "== docs check (links, repo paths, lints, README/docs examples) =="
tools/check_docs.sh -m "not slow"
echo
echo "== benchmark self-tests (verdict cases, layer map) =="
python -m pytest benchmarks/perf -q
echo
echo "== host-time benchmark (five workloads, per-layer table) =="
python -m benchmarks.perf "$@"
