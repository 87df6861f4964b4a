//! The paper's tables and figures, one module each, and the registry
//! that names them. A figure's registry name is the name of its
//! `bench_results/<name>.json` export.

use pqs_bench::Bench;

/// A figure: prints its tables and records them in the [`Bench`] it is
/// handed.
pub type Figure = fn(&mut Bench);

/// Declares each figure's module and registers its `run` under the
/// module's own name, so the two cannot drift.
macro_rules! figures {
    ($($name:ident,)*) => {
        $(mod $name;)*

        /// Every figure, sorted by name.
        pub const ALL: &[(&str, Figure)] = &[$((stringify!($name), $name::run)),*];
    };
}

figures! {
    ablations,
    fault_resilience,
    fig10_unique_path,
    fig11_flooding,
    fig12_path_path,
    fig13_mobility,
    fig14_repair,
    fig14f_churn,
    fig15_comparison,
    fig4_pct,
    fig5_flooding_coverage,
    fig7_degradation,
    fig8_random,
    fig9_random_opt,
    fig_adaptive,
    fig_byzantine,
    fig_load,
    fig_scale,
    table_combinations,
    table_params,
    table_strategies,
    table_summary,
}

#[cfg(test)]
mod tests {
    use super::ALL;
    use pqs_sim::json::JsonValue;
    use std::path::Path;

    /// The registry and the committed `bench_results/` name the same
    /// figures: no figure without an export, each export carries its
    /// registry name, and the directory holds exactly one export per
    /// registered figure.
    #[test]
    fn registry_matches_committed_exports() {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "ALL must be sorted and duplicate-free: {names:?}"
        );
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
        for name in &names {
            let path = dir.join(format!("{name}.json"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let doc = JsonValue::parse(&text).expect("committed export is valid JSON");
            assert_eq!(doc.get("name").and_then(|v| v.as_str()), Some(*name));
        }
        let expected: Vec<String> = names.iter().map(|name| format!("{name}.json")).collect();
        let mut committed: Vec<String> = std::fs::read_dir(&dir)
            .expect("bench_results/ is committed")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .collect();
        committed.sort();
        assert_eq!(committed, expected);
    }
}
