#!/usr/bin/env bash
# Repository gate: formatting, lints, tier-1 build + tests, and the full
# workspace test suite. Run from anywhere; everything executes at the
# repo root. Pass --quick to skip the workspace-wide test pass.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# Everything temporary lives under one directory, and the one background
# process is recorded here, so that any exit — a passing run, a failed
# check or a `set -e` abort — leaves nothing behind.
tmp="$(mktemp -d)"
serve_pid=""
cleanup() {
    if [[ -n "$serve_pid" ]]; then kill "$serve_pid" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "==> knob table: README.md names exactly the PQS_* variables the parsers read"
diff <(grep -ohE 'PQS_[A-Z_]+' README.md | sort -u) \
    <(grep -ohE '"PQS_[A-Z_]+"' crates/bench/src/lib.rs crates/sim/src/pool.rs \
        crates/serve/src/knobs.rs | tr -d '"' | sort -u) \
    || { echo "README.md and the knob parsers disagree on the PQS_* names"; exit 1; }

echo "==> module names: the docs cite only modules and items that exist"
docs=(DESIGN.md README.md EXPERIMENTS.md)
# `pqs-X::name` / `pqs_X::name` must be a `pub mod`, `pub use` or
# top-level `pub` item of crates/X/src/lib.rs.
for cited in $(grep -ohE '\bpqs[-_][a-z]+::[A-Za-z_][A-Za-z0-9_]*' "${docs[@]}" | tr - _ | sort -u); do
    crate="${cited%%::*}" name="${cited#*::}"
    lib="crates/${crate#pqs_}/src/lib.rs"
    [[ -f "$lib" ]] || { echo "docs cite $cited, but $lib does not exist"; exit 1; }
    exported="$(perl -0ne 'print "$1\n" while /^pub (?:mod|use) ([^;]*);/mg;
        print "$1\n" while /^pub (?:(?:const|unsafe) )*(?:struct|enum|fn|trait|type|const|static) (\w+)/mg' \
        "$lib" | grep -oE '[A-Za-z_][A-Za-z0-9_]*')"
    grep -qx "$name" <<<"$exported" || { echo "docs cite $cited, which $lib does not export"; exit 1; }
done
for name in $(grep -ohE '\bstack::[a-z_][a-z0-9_]*' "${docs[@]}" | sed 's/.*:://' | sort -u); do
    [[ -f "crates/core/src/stack/$name.rs" ]] \
        || { echo "docs cite stack::$name, but crates/core/src/stack/$name.rs does not exist"; exit 1; }
done
# `Type::member` (CamelCase type, lowercase member) must be a fn, const
# or static of one of that type's `impl`/`trait` blocks in crates/*/src, or
# a field of its struct; a type defined outside the crates (a std trait)
# needs the member defined somewhere in them.
perl - "${docs[@]}" <<'PERL'
use strict;
use warnings;
# Strip comments, strings and char literals so only code braces count.
my $src = "";
for my $f (split /\n/, `find crates/*/src -name '*.rs'`) {
    open my $fh, "<", $f or die "$f: $!";
    local $/;
    my $text = <$fh>;
    $text =~ s{(//[^\n]*)|("(?:[^"\\]|\\.)*")|('(?:[^'\\]|\\.)')}{defined $1 ? "" : "\"\""}ge;
    $src .= $text . "\n";
}
my $block = qr/(\{(?:[^{}]++|(?-1))*\})/;
my %seen;
my $bad = 0;
for my $doc (@ARGV) {
    open my $fh, "<", $doc or die "$doc: $!";
    local $/;
    my $text = <$fh>;
    while ($text =~ /\b([A-Z][A-Za-z0-9]*)::([a-z_][a-z0-9_]*)\b/g) {
        my ($ty, $m) = ($1, $2);
        next if $seen{"$ty\::$m"}++;
        my $named = qr/\b(?:fn|const|static)\s+\Q$m\E\b/;
        my $ok;
        if ($src =~ /\b(?:struct|enum|trait|union)\s+\Q$ty\E\b/) {
            while ($src =~ /\b(?:impl\b[^{;]*?\s(?:[\w:<>, ]+\s+for\s+)?\Q$ty\E\b[^{;]*|trait\s+\Q$ty\E\b[^{;]*)$block/g) {
                $ok = 1 if $1 =~ $named;
            }
            while ($src =~ /\bstruct\s+\Q$ty\E\b[^{;]*$block/g) {
                $ok = 1 if $1 =~ /(?:^|[{,])\s*(?:pub(?:\([^)]*\))?\s+)?\Q$m\E\s*:/m;
            }
        } else {
            # A type from outside the crates (e.g. a std trait).
            $ok = $src =~ $named || $src =~ /^\s*(?:pub(?:\([^)]*\))?\s+)?\Q$m\E\s*:/m;
        }
        next if $ok;
        print "$doc cites $ty\::$m, which names no fn, const, static or field of $ty in crates/*/src\n";
        $bad = 1;
    }
}
exit $bad;
PERL

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
PQS_BENCH_DIR="$tmp/seq" PQS_JOBS=1 PQS_SEEDS=1 PQS_SIZES=50 \
    cargo run --release -q -p pqs-bench -- all >/dev/null
PQS_BENCH_DIR="$tmp/par" PQS_JOBS=2 PQS_SEEDS=1 PQS_SIZES=50 \
    cargo run --release -q -p pqs-bench -- all >/dev/null
diff -r "$tmp/seq" "$tmp/par" \
    || { echo "exports differ between PQS_JOBS=1 and 2"; exit 1; }

echo "==> bench summary: BENCH_SUMMARY.json is what pqs-bench summary makes of bench_results/"
cargo run --release -q -p pqs-bench -- summary bench_results "$tmp/summary.json"
diff BENCH_SUMMARY.json "$tmp/summary.json" \
    || { echo "BENCH_SUMMARY.json is stale: regenerate it with scripts/bench_summary"; exit 1; }

echo "==> serve tests: cargo test -q -p pqs-serve (not a default member, so tier-1 skips it)"
cargo test -q -p pqs-serve

echo "==> serve e2e: pqs_serve + serve_load over localhost UDP (120k verified ops)"
mkdir "$tmp/serve"
ports="$tmp/serve/ports.txt"
cargo build --release -q -p pqs-serve
PQS_SERVE_PORTS_FILE="$ports" PQS_SERVE_NODES=5 \
    ./target/release/pqs_serve >"$tmp/serve/serve.out" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [[ -s "$ports" ]] && break; sleep 0.1; done
[[ -s "$ports" ]] || { echo "pqs_serve did not publish its ports"; exit 1; }
# serve_load's exit status is the verdict: ping, verified ops, hit ratio,
# zero mismatches, drain.
timeout 180 ./target/release/serve_load --targets "$(paste -sd, "$ports")" --drain \
    || { echo "serve_load: the cluster failed the smoke"; exit 1; }
# Clean shutdown: the drained server must exit on its own, promptly.
for _ in $(seq 1 100); do kill -0 "$serve_pid" 2>/dev/null || break; sleep 0.1; done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "pqs_serve did not shut down after the drain"
    exit 1
fi
wait "$serve_pid" || { echo "pqs_serve exited non-zero"; exit 1; }
serve_pid=""

echo "==> benchmark package: builds against the crates' public API, set --quick passes"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    set --quick --out "$tmp/quick.json"

if [[ $quick -eq 0 ]]; then
    echo "==> cargo test --workspace -q --exclude pqs-serve (its tests ran above)"
    cargo test --workspace -q --exclude pqs-serve

    echo "==> full-suite export diff: every figure vs committed bench_results"
    PQS_BENCH_DIR="$tmp/full" cargo run --release -q -p pqs-bench -- all >/dev/null
    diff -r bench_results "$tmp/full" \
        || { echo "regenerated exports differ from the committed bench_results/"; exit 1; }
fi

echo "==> all checks passed"
