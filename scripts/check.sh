#!/usr/bin/env bash
# Repository gate: formatting, lints, tier-1 build + tests, and the full
# workspace test suite. Run from anywhere; everything executes at the
# repo root. Pass --quick to skip the workspace-wide test pass.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (root package + every deterministic crate)"
cargo test -q

echo "==> sweep engine: every figure at PQS_JOBS=2, diff vs sequential"
seq_dir="$(mktemp -d)"
par_dir="$(mktemp -d)"
trap 'rm -rf "$seq_dir" "$par_dir"' EXIT
PQS_BENCH_DIR="$seq_dir" PQS_JOBS=1 PQS_SEEDS=1 PQS_SIZES=50 \
    cargo run --release -q -p pqs-bench -- all >/dev/null
PQS_BENCH_DIR="$par_dir" PQS_JOBS=2 PQS_SEEDS=1 PQS_SIZES=50 \
    cargo run --release -q -p pqs-bench -- all >/dev/null
for export in "$seq_dir"/*.json; do
    base="$(basename "$export")"
    [[ "$base" == *.perf.json ]] && continue
    diff "$export" "$par_dir/$base" \
        || { echo "$base differs between PQS_JOBS=1 and 2"; exit 1; }
done

echo "==> scale sweep: fig_scale smoke, sidecar carries throughput + peak RSS"
scale_dir="$(mktemp -d)"
PQS_BENCH_DIR="$scale_dir" PQS_SIZES=2000 \
    cargo run --release -q -p pqs-bench -- fig_scale >/dev/null
grep -q '"events_per_sec":' "$scale_dir/fig_scale.perf.json" \
    || { echo "fig_scale.perf.json: missing events_per_sec"; rm -rf "$scale_dir"; exit 1; }
grep -q '"peak_rss_bytes":' "$scale_dir/fig_scale.perf.json" \
    || { echo "fig_scale.perf.json: missing peak_rss_bytes"; rm -rf "$scale_dir"; exit 1; }
rm -rf "$scale_dir"

echo "==> serve e2e: pqs_serve + serve_load over localhost UDP (120k ops)"
serve_dir="$(mktemp -d)"
ports="$serve_dir/ports.txt"
cargo build --release -q -p pqs-serve
PQS_SERVE_PORTS_FILE="$ports" PQS_SERVE_NODES=5 \
    ./target/release/pqs_serve >"$serve_dir/serve.out" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [[ -s "$ports" ]] && break; sleep 0.1; done
[[ -s "$ports" ]] \
    || { echo "pqs_serve did not publish its ports"; kill "$serve_pid" 2>/dev/null; exit 1; }
targets="$(paste -sd, "$ports")"
PQS_BENCH_DIR="$serve_dir" PQS_SERVE_OPS=120000 \
    timeout 180 ./target/release/serve_load --targets "$targets" --drain >/dev/null \
    || { echo "serve_load burst failed"; kill "$serve_pid" 2>/dev/null; rm -rf "$serve_dir"; exit 1; }
# Clean shutdown: the drained server must exit on its own, promptly.
for _ in $(seq 1 100); do kill -0 "$serve_pid" 2>/dev/null || break; sleep 0.1; done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "pqs_serve did not shut down after the drain"
    kill -9 "$serve_pid"; rm -rf "$serve_dir"; exit 1
fi
wait "$serve_pid" || { echo "pqs_serve exited non-zero"; rm -rf "$serve_dir"; exit 1; }
ratio="$(grep -o '"hit_ratio": *[0-9.e+-]*' "$serve_dir/serve_throughput.json" | awk '{print $2}')"
awk -v r="$ratio" 'BEGIN { exit !(r >= 0.9) }' \
    || { echo "serve hit ratio $ratio below 0.9"; rm -rf "$serve_dir"; exit 1; }
grep -q '"value_mismatches": 0' "$serve_dir/serve_throughput.json" \
    || { echo "serve_load observed corrupted values"; rm -rf "$serve_dir"; exit 1; }
for field in ops_per_sec put_p50_us put_p99_us get_p50_us get_p99_us; do
    grep -q "\"$field\":" "$serve_dir/serve_throughput.perf.json" \
        || { echo "serve_throughput.perf.json: missing $field"; rm -rf "$serve_dir"; exit 1; }
done
rm -rf "$serve_dir"

echo "==> benchmark package: builds against the crates' public API, set --quick passes"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    set --quick --out "$seq_dir/quick.json"

if [[ $quick -eq 0 ]]; then
    echo "==> cargo test --workspace -q"
    cargo test --workspace -q

    echo "==> full-suite export diff: every figure vs committed bench_results"
    full_dir="$(mktemp -d)"
    PQS_BENCH_DIR="$full_dir" cargo run --release -q -p pqs-bench -- all >/dev/null
    for export in bench_results/*.json; do
        base="$(basename "$export")"
        [[ "$base" == *.perf.json ]] && continue
        # Measured over real sockets, not a deterministic sim export.
        [[ "$base" == "serve_throughput.json" ]] && continue
        diff "$export" "$full_dir/$base" \
            || { echo "$base differs from the committed export"; rm -rf "$full_dir"; exit 1; }
    done
    # Advisory, never failing: the suite's wall-clock budget next to the
    # committed one (which also counts serve_load's sidecar).
    cargo run --release -q -p pqs-bench -- summary "$full_dir" "$full_dir/summary.json" >/dev/null
    wall_ms() { grep -m1 -o '"total_wall_ms": *[0-9]*' "$1" | grep -o '[0-9]*$'; }
    echo "suite total_wall_ms: $(wall_ms "$full_dir/summary.json") fresh," \
        "$(wall_ms BENCH_SUMMARY.json) committed"
    rm -rf "$full_dir"
fi

echo "==> all checks passed"
