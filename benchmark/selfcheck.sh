#!/usr/bin/env bash
# Runs two full sets of the same build and fails unless every pair of
# (workload, end-to-end metric) compares `ok` under the benchmark's own
# bounds, and every count-type per-layer metric is identical between the
# sets. Takes ~45 minutes (two sets of 10 + 1 runs per workload); pass
# --quick to exercise the plumbing only (tiny sizes, the comparison is
# then reported but not enforced).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=()
[[ "${1:-}" == "--quick" ]] && quick=(--quick)

bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
"${bench[@]}" set "${quick[@]}" --seed 1 --out benchmark/out/selfcheck-a.json
"${bench[@]}" set "${quick[@]}" --seed 1 --out benchmark/out/selfcheck-b.json
if [[ ${#quick[@]} -gt 0 ]]; then
    "${bench[@]}" compare benchmark/out/selfcheck-a.json benchmark/out/selfcheck-b.json || true
    echo "selfcheck --quick: plumbing ran; quick numbers are not comparable"
else
    "${bench[@]}" compare benchmark/out/selfcheck-a.json benchmark/out/selfcheck-b.json
fi
