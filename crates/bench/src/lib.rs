//! Shared plumbing for `pqs-bench`, the one program that regenerates
//! the paper's tables and figures (`pqs-bench <figure>|all|summary`):
//! the environment, parsed once ([`Env`]), and the value a figure reads
//! its settings from, runs its sweeps on and writes its tables to
//! ([`Bench`]).
//!
//! The environment is read in exactly one place, [`Env::from_env`]:
//!
//! - `PQS_SEEDS=k` — runs per data point (default varies per figure; the
//!   paper averaged 10 runs),
//! - `PQS_BASE_SEED=s` — shift the seed window,
//! - `PQS_SIZES=50,100` — override the swept network sizes outright
//!   (smoke tests, CI; `PQS_SIZES=50,100,200,400,800` adds the paper's
//!   largest network to the default list),
//! - `PQS_JOBS=j` — width of the worker pool the sweeps run on
//!   (default: available parallelism; results are identical at every
//!   width),
//! - `PQS_BENCH_DIR=dir` — where the exports are written (default
//!   `bench_results/` relative to the working directory).
//!
//! Knobs that select *which experiments run* (`PQS_SEEDS`,
//! `PQS_BASE_SEED`, `PQS_SIZES`) are rejected when unparseable, before
//! any simulation starts and whether or not the chosen figure reads
//! them — silently falling back to defaults would run a long sweep the
//! user did not ask for. `PQS_JOBS` only bounds resource use and never
//! changes results, so a malformed value is warned about and ignored
//! (see [`pqs_sim::pool::configured_width`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pqs_core::runner::{aggregate, Aggregate, RunMetrics, ScenarioConfig, SweepCell};
use pqs_sim::json::JsonValue;
use std::path::{Path, PathBuf};

/// The most runs per data point a figure may ask [`Bench::seeds`] for by
/// default. With `PQS_SEEDS` unset the base seed must leave this much
/// room below `u64::MAX`, so the window is checked once, at parse time.
const MAX_DEFAULT_SEEDS: u64 = 16;

/// The harness settings, parsed and validated once per process.
#[derive(Clone, Debug)]
pub struct Env {
    seed_count: Option<u64>,
    base_seed: u64,
    sizes: Option<Vec<usize>>,
    jobs: usize,
    out_dir: PathBuf,
}

impl Env {
    /// Reads `PQS_SEEDS`, `PQS_BASE_SEED`, `PQS_SIZES`, `PQS_JOBS` and
    /// `PQS_BENCH_DIR`. Fails on a malformed experiment-selecting knob;
    /// the caller reports the message and exits 2.
    pub fn from_env() -> Result<Env, String> {
        let var = |name: &str| std::env::var(name).ok();
        Env::parse(
            var("PQS_SEEDS").as_deref(),
            var("PQS_BASE_SEED").as_deref(),
            var("PQS_SIZES").as_deref(),
            var("PQS_BENCH_DIR").as_deref(),
            pqs_sim::pool::configured_width(),
        )
    }

    /// [`Env::from_env`] over the raw strings (`None` = unset).
    fn parse(
        seeds: Option<&str>,
        base_seed: Option<&str>,
        sizes: Option<&str>,
        out_dir: Option<&str>,
        jobs: usize,
    ) -> Result<Env, String> {
        let seed_count: Option<u64> = seeds
            .map(|raw| match raw.trim().parse() {
                Ok(0) => Err(format!(
                    "PQS_SEEDS={raw}: a data point needs at least one run"
                )),
                Ok(k) => Ok(k),
                Err(e) => Err(format!("PQS_SEEDS={raw}: not a valid run count ({e})")),
            })
            .transpose()?;
        let base_seed: u64 = match base_seed {
            None => 1,
            Some(raw) => raw
                .trim()
                .parse()
                .map_err(|e| format!("PQS_BASE_SEED={raw}: not a valid seed ({e})"))?,
        };
        let widest = seed_count.unwrap_or(MAX_DEFAULT_SEEDS);
        if base_seed.checked_add(widest).is_none() {
            return Err(format!(
                "PQS_BASE_SEED={base_seed} + {widest} runs: seed window overflows u64"
            ));
        }
        Ok(Env {
            seed_count,
            base_seed,
            sizes: sizes.map(parse_sizes).transpose()?,
            jobs,
            out_dir: PathBuf::from(out_dir.unwrap_or("bench_results")),
        })
    }

    /// Directory the JSON exports are written to.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }
}

/// Parses a `PQS_SIZES` override: a non-empty comma-separated list of
/// positive node counts.
fn parse_sizes(raw: &str) -> Result<Vec<usize>, String> {
    raw.split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(0) => Err(format!("PQS_SIZES={raw}: network size 0 is not valid")),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("PQS_SIZES={raw}: `{s}` is not a node count ({e})")),
        })
        .collect()
}

/// What a figure is handed: the parsed [`Env`] to size its grid from,
/// the bounded pool to run it on, and the report its tables land in.
///
/// Sweeps submit each `(scenario × seed)` cell as one job to the shared
/// bounded pool ([`pqs_sim::pool`], `PQS_JOBS` wide) and collect the
/// results **in submission order** — so every table cell, and therefore
/// every exported `bench_results/*.json`, is byte-identical to the
/// sequential (`PQS_JOBS=1`) run.
///
/// Every header and row is captured beside the human-readable table
/// output; structured metrics (aggregates, histograms) can be attached
/// with [`Bench::add_value`]. All content is insertion-ordered, so a
/// deterministic figure renders a byte-identical `<name>.json`. Nothing
/// host-dependent is written: wall-clock is measured by the
/// repository's `BENCHMARK.json` workloads, not here.
pub struct Bench {
    env: Env,
    sections: Vec<Section>,
    values: Vec<(String, JsonValue)>,
}

struct Section {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Bench {
    /// An empty report over `env`.
    pub fn new(env: Env) -> Bench {
        Bench {
            env,
            sections: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The seed list for experiments: `PQS_SEEDS` seeds starting at
    /// `PQS_BASE_SEED` (default: `default_count` seeds from 1).
    pub fn seeds(&self, default_count: usize) -> Vec<u64> {
        assert!(
            default_count as u64 <= MAX_DEFAULT_SEEDS,
            "default run counts are capped at {MAX_DEFAULT_SEEDS}"
        );
        let count = self.env.seed_count.unwrap_or(default_count as u64);
        (self.env.base_seed..self.env.base_seed + count).collect()
    }

    /// The network sizes swept by the paper, trimmed to keep default
    /// runtimes sane (the paper's `n = 800` is left out); `PQS_SIZES`
    /// overrides the list outright.
    pub fn network_sizes(&self) -> Vec<usize> {
        self.sizes_or(&[50, 100, 200, 400])
    }

    fn sizes_or(&self, default: &[usize]) -> Vec<usize> {
        self.env.sizes.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The largest network included under the current settings.
    pub fn largest_n(&self) -> usize {
        let sizes = self.network_sizes();
        *sizes.iter().max().expect("size lists are non-empty")
    }

    /// The node counts swept by the `fig_scale` substrate figure. These
    /// are deliberately far beyond the paper's sizes — the point is
    /// scheduler and node-state scaling, not protocol fidelity — so they
    /// get their own default instead of [`Bench::network_sizes`];
    /// `PQS_SIZES` still overrides (the check-script smoke runs every
    /// figure at `PQS_SIZES=50`).
    pub fn scale_sizes(&self) -> Vec<usize> {
        self.sizes_or(&[1_000, 10_000, 100_000])
    }

    /// Prints a title and a column header line, and opens a new section
    /// in the report.
    pub fn header(&mut self, title: &str, columns: &[&str]) {
        self.sections.push(Section {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        });
        println!("\n=== {title} ===");
        let line: Vec<String> = columns.iter().map(|c| format!("{c:>14}")).collect();
        println!("{}", line.join(" "));
    }

    /// Prints one row of formatted cells and records it in the report.
    pub fn row(&mut self, cells: &[String]) {
        if self.sections.is_empty() {
            self.sections.push(Section {
                title: String::new(),
                columns: Vec::new(),
                rows: Vec::new(),
            });
        }
        let section = self.sections.last_mut().expect("section exists");
        section.rows.push(cells.to_vec());
        let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
        println!("{}", line.join(" "));
    }

    /// Attaches a structured value (aggregate, histogram, …) to the
    /// report under `key`. Repeated keys are kept in call order.
    pub fn add_value(&mut self, key: &str, value: JsonValue) {
        self.values.push((key.to_string(), value));
    }

    /// Runs arbitrary jobs on the bounded pool and returns their results
    /// in submission order. Use for non-scenario fan-out (graph-walk
    /// profiles etc.); scenario grids should go through [`Bench::runs`]
    /// or [`Bench::aggregates`].
    pub fn run_jobs<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        pqs_sim::pool::run_ordered(self.env.jobs, jobs)
    }

    /// Runs explicit `(scenario, seed)` cells through the prefix-
    /// sharing tree ([`pqs_core::runner::run_cells`]) on the bounded
    /// pool and returns the metrics in cell order. Results are
    /// byte-identical to running each cell alone, at any pool width.
    pub fn run_cells(&self, cells: Vec<SweepCell>) -> Vec<RunMetrics> {
        pqs_core::runner::run_cells(&cells, self.env.jobs)
    }

    /// Runs every `(scenario × seed)` cell on the bounded pool and
    /// returns the per-seed metrics grouped per scenario, in input
    /// order. Cells sharing a warmed topology or advertise-phase prefix
    /// execute as forks of one template simulation.
    pub fn runs(&self, cfgs: &[ScenarioConfig], seeds: &[u64]) -> Vec<Vec<RunMetrics>> {
        let cells: Vec<SweepCell> = cfgs
            .iter()
            .flat_map(|cfg| seeds.iter().map(|&seed| (cfg.clone(), seed)))
            .collect();
        let flat = self.run_cells(cells);
        let mut it = flat.into_iter();
        cfgs.iter()
            .map(|_| {
                seeds
                    .iter()
                    .map(|_| it.next().expect("one result per (scenario, seed)"))
                    .collect()
            })
            .collect()
    }

    /// [`Bench::runs`] reduced to one [`Aggregate`] per scenario.
    pub fn aggregates(&self, cfgs: &[ScenarioConfig], seeds: &[u64]) -> Vec<Aggregate> {
        self.runs(cfgs, seeds)
            .iter()
            .map(|r| aggregate(r))
            .collect()
    }

    /// The report captured so far, as a JSON tree.
    fn to_json(&self, name: &str) -> JsonValue {
        let sections =
            JsonValue::array(self.sections.iter().map(|s| {
                JsonValue::object([
                    ("title", JsonValue::from(s.title.as_str())),
                    (
                        "columns",
                        JsonValue::array(s.columns.iter().map(|c| JsonValue::from(c.as_str()))),
                    ),
                    (
                        "rows",
                        JsonValue::array(s.rows.iter().map(|r| {
                            JsonValue::array(r.iter().map(|c| JsonValue::from(c.trim())))
                        })),
                    ),
                ])
            }));
        let mut out = JsonValue::object([("name", JsonValue::from(name)), ("sections", sections)]);
        if !self.values.is_empty() {
            out.insert("metrics", JsonValue::object(self.values.clone()));
        }
        out
    }

    /// Writes the captured report to `<out_dir>/<name>.json`, returning
    /// the path.
    pub fn finish(&self, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.env.out_dir)?;
        let path = self.env.out_dir.join(format!("{name}.json"));
        std::fs::write(&path, self.to_json(name).render())?;
        Ok(path)
    }
}

/// Formats a float cell.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// A workload scaled for single-core benchmarking: `adv` advertisements
/// paced to the network size (heavier routing load at larger `n` needs a
/// longer window to avoid melting the medium) and `lkp` lookups at the
/// paper's ~2/s.
pub fn bench_workload(adv: usize, lkp: usize, n: usize) -> pqs_core::workload::WorkloadConfig {
    use pqs_sim::{SimDuration, SimTime};
    let adv_secs = ((adv as f64) * (n as f64 / 250.0).max(0.4)).ceil() as u64;
    pqs_core::workload::WorkloadConfig {
        advertisements: adv,
        lookups: lkp,
        lookers: 25.min(lkp.max(1)),
        start: SimTime::from_secs(5),
        advertise_window: SimDuration::from_secs(adv_secs.max(1)),
        phase_gap: SimDuration::from_secs(20),
        lookup_window: SimDuration::from_secs(((lkp as u64) / 2).max(1)),
        present_fraction: if adv == 0 { 0.0 } else { 1.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(seeds: Option<&str>, base: Option<&str>, sizes: Option<&str>) -> Result<Env, String> {
        Env::parse(seeds, base, sizes, None, 1)
    }

    fn seeds(seeds: Option<&str>, base: Option<&str>, default: usize) -> Vec<u64> {
        Bench::new(env(seeds, base, None).expect("valid knobs")).seeds(default)
    }

    #[test]
    fn seed_window_parsing() {
        assert_eq!(seeds(None, None, 3), vec![1, 2, 3]);
        assert_eq!(seeds(Some("2"), Some("10"), 5), vec![10, 11]);
        // Unparseable values are rejected, not silently defaulted; so is
        // zero runs, which would print well-formed tables of nothing.
        assert!(env(Some("0"), None, None).is_err());
        assert!(env(Some("ten"), None, None).is_err());
        assert!(env(Some("-1"), None, None).is_err());
        assert!(env(None, Some("1e3"), None).is_err());
    }

    #[test]
    fn seed_window_overflow_is_rejected() {
        let max = u64::MAX.to_string();
        assert!(env(Some("2"), Some(&max), None).is_err());
        // With no explicit count the base must leave room for any
        // figure's default.
        assert!(env(None, Some(&max), None).is_err());
        // A window ending exactly at u64::MAX is fine.
        let near = (u64::MAX - 3).to_string();
        assert_eq!(
            seeds(Some("3"), Some(&near), 1),
            vec![u64::MAX - 3, u64::MAX - 2, u64::MAX - 1]
        );
    }

    #[test]
    fn sizes_parsing() {
        let bench = |raw| env(None, None, raw).map(Bench::new);
        let sizes = |raw| bench(Some(raw)).map(|b| b.network_sizes());
        assert_eq!(sizes("50"), Ok(vec![50]));
        assert_eq!(sizes("50, 100,200"), Ok(vec![50, 100, 200]));
        assert!(sizes("").is_err());
        assert!(sizes("50,x").is_err());
        assert!(sizes("0").is_err());
        // One override serves every size list; unset, each has its own.
        let b = bench(Some("2000,50")).expect("valid sizes");
        assert_eq!((b.scale_sizes(), b.largest_n()), (vec![2000, 50], 2000));
        let b = bench(None).expect("defaults");
        assert_eq!(b.network_sizes(), vec![50, 100, 200, 400]);
        assert_eq!(b.scale_sizes(), vec![1_000, 10_000, 100_000]);
    }

    /// The environment is validated as a whole, before a figure is
    /// chosen: a malformed `PQS_SIZES` is an error even for a run that
    /// would only ever ask for seeds.
    #[test]
    fn malformed_sizes_fail_without_being_read() {
        let err = env(Some("1"), None, Some("fifty")).expect_err("rejected at parse");
        assert!(err.contains("PQS_SIZES=fifty"), "{err}");
    }

    #[test]
    fn formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.912), "0.912");
        assert_eq!(f(13.37), "13.4");
        assert_eq!(f(456.7), "457");
    }
}
