//! The sweep engine's headline guarantee: the exported
//! `bench_results/<name>.json` is byte-identical whether the sweep ran
//! sequentially (`PQS_JOBS=1`) or on a wide pool (`PQS_JOBS=4`), for a
//! figure and a table. (That `PQS_JOBS` sets the pool width at all is
//! held by `pqs_sim::pool`'s own tests and `pqs-core`'s `pool_bound`.)

use pqs_sim::json::JsonValue;
use std::process::Command;

/// Runs `pqs-bench <name>` with the given pool width into a fresh bench
/// dir, returning the export's bytes.
fn run_figure(name: &str, jobs: &str) -> String {
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
    let path = dir.join(format!("{name}.json"));
    let export = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing export {}: {e}", path.display()));
    let _ = std::fs::remove_dir_all(&dir);
    export
}

fn assert_parallel_export_identical(name: &str) {
    let seq = run_figure(name, "1");
    let par = run_figure(name, "4");
    assert_eq!(
        seq, par,
        "{name}: export differs between PQS_JOBS=1 and PQS_JOBS=4"
    );
    JsonValue::parse(&seq).expect("export is valid JSON");
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
