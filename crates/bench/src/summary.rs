//! `pqs-bench summary`: aggregates the per-figure `bench_results/*.json`
//! exports into a single repo-level `BENCH_SUMMARY.json`: an index of
//! every report (section titles, row counts, attached metric keys) plus
//! the headline measured aggregates, sorted by report name so the output
//! is byte-stable across regenerations. Sweep-performance sidecars
//! (`*.perf.json` — pool width, job counts, wall-clock) are folded into
//! a separate `perf` section with a total wall-clock. Those numbers are
//! advisory — the only record of the suite's wall-clock budget; perf
//! regressions are gated by the repository's `BENCHMARK.json`.
//!
//! Missing, unreadable or truncated export files are reported and
//! skipped — one bad file never aborts the whole summary.

use pqs_sim::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Folds the exports under `dir` into the summary file `out`.
pub fn run(dir: &Path, out: &Path) -> ExitCode {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => {
            eprintln!(
                "warning: cannot read {}: {e}; writing an empty summary",
                dir.display()
            );
            Vec::new()
        }
    };
    paths.sort();

    let mut reports = Vec::new();
    let mut perf_entries = Vec::new();
    let mut total_wall_ms = 0u64;
    let mut skipped = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("skipping {}: unreadable ({e})", path.display());
                skipped.push(file_name(path));
                continue;
            }
        };
        let Ok(doc) = JsonValue::parse(&text) else {
            eprintln!("skipping {}: not valid JSON", path.display());
            skipped.push(file_name(path));
            continue;
        };
        if is_perf_sidecar(path) {
            total_wall_ms += doc.get("wall_ms").and_then(|v| v.as_u64()).unwrap_or(0);
            perf_entries.push(doc);
        } else {
            reports.push(summarize(path, &doc));
        }
    }

    let count = reports.len();
    let skipped_count = skipped.len();
    let mut summary = JsonValue::object([
        ("results_dir", JsonValue::from(dir.display().to_string())),
        ("report_count", JsonValue::from(count)),
        ("reports", JsonValue::array(reports)),
    ]);
    if !perf_entries.is_empty() {
        // The serve-throughput headline (real-socket KV service): folded
        // out of its sidecar so ops/sec and latency percentiles are
        // visible at the summary level. Absent when serve_load has not
        // run.
        let serve = perf_entries
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("serve_throughput"))
            .map(fold_serve);
        let mut perf = JsonValue::object([
            ("total_wall_ms", JsonValue::from(total_wall_ms)),
            ("sweeps", JsonValue::array(perf_entries)),
        ]);
        if let Some(serve) = serve {
            perf.insert("serve", serve);
        }
        summary.insert("perf", perf);
    }
    if !skipped.is_empty() {
        summary.insert(
            "skipped",
            JsonValue::array(skipped.into_iter().map(JsonValue::from)),
        );
    }
    if let Err(e) = std::fs::write(out, summary.render()) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({count} reports, {skipped_count} skipped) from {}",
        out.display(),
        dir.display()
    );
    ExitCode::SUCCESS
}

/// The headline serve-throughput numbers from its `.perf.json` sidecar:
/// ops/sec and put/get latency percentiles, whichever are present.
fn fold_serve(sidecar: &JsonValue) -> JsonValue {
    let mut out = JsonValue::object(Vec::<(String, JsonValue)>::new());
    for key in [
        "ops_per_sec",
        "put_p50_us",
        "put_p99_us",
        "get_p50_us",
        "get_p99_us",
        "wall_ms",
    ] {
        if let Some(v) = sidecar.get(key) {
            out.insert(key, v.clone());
        }
    }
    out
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// `<name>.perf.json` sidecars carry wall-clock sweep stats, not report
/// content.
fn is_perf_sidecar(path: &Path) -> bool {
    path.file_stem()
        .is_some_and(|s| s.to_string_lossy().ends_with(".perf"))
}

/// One index entry: name, section titles with row counts, and any
/// structured metrics the binary attached (copied verbatim — they are
/// already deterministic, so the summary stays so).
fn summarize(path: &Path, doc: &JsonValue) -> JsonValue {
    let name = doc
        .get("name")
        .and_then(|v| v.as_str().map(String::from))
        .unwrap_or_else(|| {
            path.file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default()
        });
    let sections = doc
        .get("sections")
        .and_then(|v| v.as_array())
        .map(|secs| {
            JsonValue::array(secs.iter().map(|s| {
                let title = s.get("title").and_then(|t| t.as_str()).unwrap_or("");
                let rows = s
                    .get("rows")
                    .and_then(|r| r.as_array())
                    .map_or(0, |r| r.len());
                JsonValue::object([
                    ("title", JsonValue::from(title)),
                    ("rows", JsonValue::from(rows)),
                ])
            }))
        })
        .unwrap_or_else(|| JsonValue::array(Vec::<JsonValue>::new()));
    let mut entry = JsonValue::object([
        ("name", JsonValue::from(name.as_str())),
        ("sections", sections),
    ]);
    if let Some(metrics) = doc.get("metrics") {
        entry.insert("metrics", metrics.clone());
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_fold_takes_known_keys_and_tolerates_missing_ones() {
        let mut sc = JsonValue::object([
            ("name", JsonValue::from("serve_throughput")),
            ("wall_ms", JsonValue::from(1_500u64)),
        ]);
        sc.insert("ops_per_sec", JsonValue::from(54_000.5));
        sc.insert("get_p50_us", JsonValue::from(440u64));
        sc.insert("get_p99_us", JsonValue::from(544u64));
        sc.insert("pool_width", JsonValue::from(8u64)); // not a headline
        let folded = fold_serve(&sc);
        assert_eq!(
            folded.get("ops_per_sec").and_then(|v| v.as_f64()),
            Some(54_000.5)
        );
        assert_eq!(folded.get("get_p99_us").and_then(|v| v.as_u64()), Some(544));
        assert_eq!(folded.get("wall_ms").and_then(|v| v.as_u64()), Some(1_500));
        assert!(
            folded.get("put_p50_us").is_none(),
            "absent keys stay absent"
        );
        assert!(folded.get("pool_width").is_none());
    }
}
