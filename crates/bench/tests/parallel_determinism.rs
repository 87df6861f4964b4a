//! The sweep engine's headline guarantee: the exported
//! `bench_results/<name>.json` is byte-identical whether the sweep ran
//! sequentially (`PQS_JOBS=1`) or on a wide pool (`PQS_JOBS=4`), for a
//! figure and a table. Wall-clock goes to the `<name>.perf.json`
//! sidecar only, which is allowed to differ.

use pqs_sim::json::JsonValue;
use std::path::PathBuf;
use std::process::Command;

/// Runs `pqs-bench <name>` with the given pool width into a fresh bench
/// dir, returning (main export bytes, perf sidecar bytes).
fn run_figure(name: &str, jobs: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!(
        "pqs_parallel_determinism_{}_{name}_{jobs}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let status = Command::new(env!("CARGO_BIN_EXE_pqs-bench"))
        .arg(name)
        .env("PQS_BENCH_DIR", &dir)
        .env("PQS_JOBS", jobs)
        .env("PQS_SEEDS", "2")
        .env("PQS_SIZES", "50")
        .env_remove("PQS_BASE_SEED")
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn pqs-bench");
    assert!(status.success(), "{name} failed under PQS_JOBS={jobs}");
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).unwrap_or_else(|e| {
            panic!("missing export {}: {e}", p.display());
        })
    };
    let main = read(dir.join(format!("{name}.json")));
    let perf = read(dir.join(format!("{name}.perf.json")));
    let _ = std::fs::remove_dir_all(&dir);
    (main, perf)
}

fn assert_parallel_export_identical(name: &str) {
    let (seq, seq_perf) = run_figure(name, "1");
    let (par, par_perf) = run_figure(name, "4");
    assert_eq!(
        seq, par,
        "{name}: export differs between PQS_JOBS=1 and PQS_JOBS=4"
    );
    JsonValue::parse(&seq).expect("export is valid JSON");
    // The sidecar carries the pool width it actually ran at — that is
    // exactly the part that must stay out of the main export.
    let perf = JsonValue::parse(&par_perf).expect("perf sidecar is valid JSON");
    assert_eq!(perf.get("pool_width").and_then(|v| v.as_u64()), Some(4));
    assert!(perf.get("wall_ms").is_some());
    assert!(perf.get("jobs").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
    let seq_perf = JsonValue::parse(&seq_perf).expect("perf sidecar is valid JSON");
    assert_eq!(seq_perf.get("pool_width").and_then(|v| v.as_u64()), Some(1));
}

#[test]
fn fig8_random_export_is_pool_width_invariant() {
    assert_parallel_export_identical("fig8_random");
}

#[test]
fn table_strategies_export_is_pool_width_invariant() {
    assert_parallel_export_identical("table_strategies");
}

/// The adaptive-controller figure mixes two arm kinds (plain
/// `run_scenario` sweeps and hooked controller runs) in one report —
/// its export must still be pool-width invariant.
#[test]
fn fig_adaptive_export_is_pool_width_invariant() {
    assert_parallel_export_identical("fig_adaptive");
}
