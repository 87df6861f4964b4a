//! `pqs-bench summary`: aggregates the per-figure `bench_results/*.json`
//! exports into a single repo-level `BENCH_SUMMARY.json`: an index of
//! every report (section titles, row counts, attached metric keys) plus
//! the headline measured aggregates, sorted by report name so the output
//! is byte-stable across regenerations.
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
        reports.push(summarize(path, &doc));
    }

    let count = reports.len();
    let skipped_count = skipped.len();
    let mut summary = JsonValue::object([
        ("results_dir", JsonValue::from(dir.display().to_string())),
        ("report_count", JsonValue::from(count)),
        ("reports", JsonValue::array(reports)),
    ]);
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

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
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
