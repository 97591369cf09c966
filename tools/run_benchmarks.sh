#!/usr/bin/env bash
# Tier-1 tests + wall-clock benchmark, emitting BENCH_PR9.json.
#
# Usage: tools/run_benchmarks.sh [--quick] [-o OUT.json]
#   --quick   skip the MM-1024 scale (fast CI smoke run)
#   -o OUT    benchmark output path (default: BENCH_PR9.json; the
#             summary at the end reads whatever path is in effect)
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

# The benchmark owns its default output path; mirror it here so the
# summary step reads the same file the benchmark wrote (no hardcoding).
BENCH_OUT=BENCH_PR9.json
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[$i]}" in
    -o|--output) BENCH_OUT="${args[$((i + 1))]}" ;;
  esac
done

echo "== tier-1 tests (slow whole-program tests excluded) =="
python -m pytest -x -q -m "not slow"

echo
echo "== slow whole-program tests (equivalence, tuner and checker corpora) =="
python -m pytest -x -q -m slow

echo
echo "== docs snippet check (README/docs examples must run) =="
tools/check_docs.sh -m "not slow"

echo
echo "== chaos smoke (seeded fault plans + fault-off overhead) =="
python tools/chaos_smoke.py

echo
echo "== sweep smoke (cold run, then warm run must hit the cache) =="
SWEEP_TMP="$(mktemp -d)"
trap 'rm -rf "$SWEEP_TMP"' EXIT
cat > "$SWEEP_TMP/grid.json" <<'EOF'
{
  "name": "ci-smoke",
  "axes": {
    "workload": ["MM-16", "JACOBI-8x2", "CFFZINIT-5"],
    "nprocs": [2, 4]
  },
  "defaults": {"granularity": "coarse"}
}
EOF
python -m repro sweep "$SWEEP_TMP/grid.json" --jobs 2 --quiet \
  --cache-dir "$SWEEP_TMP/cache" -o "$SWEEP_TMP/cold.jsonl"
python -m repro sweep "$SWEEP_TMP/grid.json" --quiet \
  --cache-dir "$SWEEP_TMP/cache" -o "$SWEEP_TMP/warm.jsonl" \
  | tee "$SWEEP_TMP/warm.txt"
cmp "$SWEEP_TMP/cold.jsonl" "$SWEEP_TMP/warm.jsonl"
grep -q "6 cache hit(s)" "$SWEEP_TMP/warm.txt" \
  || { echo "sweep smoke: warm run did not hit the cache"; exit 1; }
echo "sweep smoke OK (6 jobs, warm run all cache hits, JSONL identical)"

echo
echo "== wall-clock benchmark =="
python benchmarks/bench_wallclock.py "$@"

echo
echo "$BENCH_OUT:"
python -c "import json,sys; d=json.load(open(sys.argv[1])); print(json.dumps({'suite': d['suite'], 'rows': d['rows']}, indent=2))" "$BENCH_OUT"
