//! Shared plumbing for the figure-reproduction harness.
//!
//! Each `src/bin/fig*` / `src/bin/table*` binary regenerates one table or
//! figure of the paper. Common knobs come from the environment:
//!
//! - `PQS_SEEDS=k` — runs per data point (default varies per figure; the
//!   paper averaged 10 runs),
//! - `PQS_BASE_SEED=s` — shift the seed window,
//! - `PQS_FULL=1` — include the `n = 800` configurations,
//! - `PQS_SIZES=50,100` — override the swept network sizes outright
//!   (smoke tests, CI),
//! - `PQS_JOBS=j` — width of the worker pool the sweeps run on
//!   (default: available parallelism; results are identical at every
//!   width, see [`sweep`]).
//!
//! Knobs that select *which experiments run* (`PQS_SEEDS`,
//! `PQS_BASE_SEED`, `PQS_FULL`, `PQS_SIZES`) abort with a clear error
//! when set to an unparseable value — silently falling back to defaults
//! would run a long sweep the user did not ask for. `PQS_JOBS` only
//! bounds resource use and never changes results, so a malformed value
//! is warned about and ignored (see [`pqs_sim::pool::configured_width`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Parses a seed window: `count` seeds starting at `base`, both given as
/// the raw environment strings (`None` = unset). Fails on unparseable
/// values and on windows that would overflow `u64`.
pub fn parse_seed_window(
    seeds_raw: Option<&str>,
    base_raw: Option<&str>,
    default_count: usize,
) -> Result<Vec<u64>, String> {
    let count: u64 = match seeds_raw {
        None => default_count as u64,
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|e| format!("PQS_SEEDS={raw}: not a valid run count ({e})"))?,
    };
    let base: u64 = match base_raw {
        None => 1,
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|e| format!("PQS_BASE_SEED={raw}: not a valid seed ({e})"))?,
    };
    let end = base.checked_add(count).ok_or_else(|| {
        format!("PQS_BASE_SEED={base} + PQS_SEEDS={count}: seed window overflows u64")
    })?;
    Ok((base..end).collect())
}

/// Parses a `PQS_FULL`-style boolean: `1/true/yes/on` and
/// `0/false/no/off` (case-insensitive; empty = unset = `false`).
pub fn parse_bool_knob(name: &str, raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Ok(true),
        "" | "0" | "false" | "no" | "off" => Ok(false),
        other => Err(format!(
            "{name}={other}: not a boolean (use 1/true or 0/false)"
        )),
    }
}

/// Parses a `PQS_SIZES` override: a non-empty comma-separated list of
/// positive node counts.
pub fn parse_sizes(raw: &str) -> Result<Vec<usize>, String> {
    let sizes: Vec<usize> = raw
        .split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(0) => Err(format!("PQS_SIZES={raw}: network size 0 is not valid")),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("PQS_SIZES={raw}: `{s}` is not a node count ({e})")),
        })
        .collect::<Result<_, _>>()?;
    if sizes.is_empty() {
        return Err(format!("PQS_SIZES={raw}: empty size list"));
    }
    Ok(sizes)
}

fn fail_knob(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Returns the seed list for experiments: `PQS_SEEDS` seeds starting at
/// `PQS_BASE_SEED` (default: `default_count` seeds from 1). Aborts on
/// malformed values instead of silently running the default sweep.
pub fn seeds(default_count: usize) -> Vec<u64> {
    let seeds_raw = std::env::var("PQS_SEEDS").ok();
    let base_raw = std::env::var("PQS_BASE_SEED").ok();
    parse_seed_window(seeds_raw.as_deref(), base_raw.as_deref(), default_count)
        .unwrap_or_else(|msg| fail_knob(&msg))
}

/// Returns `true` when `PQS_FULL` is set truthy (include the largest
/// networks). Accepts `1/true/yes/on`; aborts on anything unparseable.
pub fn full() -> bool {
    match std::env::var("PQS_FULL") {
        Err(_) => false,
        Ok(raw) => parse_bool_knob("PQS_FULL", &raw).unwrap_or_else(|msg| fail_knob(&msg)),
    }
}

/// The network sizes swept by the paper, trimmed to keep default
/// runtimes sane unless `PQS_FULL=1`; `PQS_SIZES=50,100` overrides the
/// list outright (smoke tests, CI).
pub fn network_sizes() -> Vec<usize> {
    if let Ok(raw) = std::env::var("PQS_SIZES") {
        return parse_sizes(&raw).unwrap_or_else(|msg| fail_knob(&msg));
    }
    if full() {
        vec![50, 100, 200, 400, 800]
    } else {
        vec![50, 100, 200, 400]
    }
}

/// The largest network included under the current settings.
pub fn largest_n() -> usize {
    network_sizes().into_iter().max().expect("non-empty sizes")
}

/// The node counts swept by the `fig_scale` throughput bench. These are
/// deliberately far beyond the paper's sizes — the point is scheduler
/// and node-state scaling, not protocol fidelity — so they get their
/// own default instead of [`network_sizes`]; `PQS_SIZES` still
/// overrides (the check-script smoke runs at `PQS_SIZES=2000`).
pub fn scale_sizes() -> Vec<usize> {
    if let Ok(raw) = std::env::var("PQS_SIZES") {
        return parse_sizes(&raw).unwrap_or_else(|msg| fail_knob(&msg));
    }
    vec![1_000, 10_000, 100_000]
}

/// Prints a title and a column header line, and opens a new section in
/// the machine-readable report (see [`report`]).
pub fn header(title: &str, columns: &[&str]) {
    report::on_header(title, columns);
    println!("\n=== {title} ===");
    let line: Vec<String> = columns.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Prints one row of formatted cells and records it in the report.
pub fn row(cells: &[String]) {
    report::on_row(cells);
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

pub mod sweep {
    //! The bounded, deterministic parallel sweep engine.
    //!
    //! Every bench binary used to walk its `network_sizes() × seeds()`
    //! grid with hand-rolled loops, paying one full simulation of
    //! latency per cell. This module instead submits each
    //! `(scenario × seed)` cell as one job to the shared bounded pool
    //! ([`pqs_sim::pool`], `PQS_JOBS` wide) and collects per-seed
    //! [`RunMetrics`] **in submission order** — so every table cell, and
    //! therefore every exported `bench_results/*.json`, is byte-identical
    //! to the sequential (`PQS_JOBS=1`) run.
    //!
    //! Each sweep also records wall-clock, job count and pool width into
    //! the [`report`](super::report) collector; those land in a
    //! `<name>.perf.json` sidecar (kept out of the deterministic main
    //! export, because wall-clock and pool width legitimately differ
    //! between runs) which `bench_summary` folds into
    //! `BENCH_SUMMARY.json`.

    use pqs_core::runner::{aggregate, Aggregate, RunMetrics, ScenarioConfig, SweepCell};
    use std::time::Instant;

    /// The pool width sweeps run at (`PQS_JOBS`, default: available
    /// parallelism).
    pub fn width() -> usize {
        pqs_sim::pool::configured_width()
    }

    /// Runs arbitrary jobs on the bounded pool, returns their results in
    /// submission order, and records the sweep in the report collector.
    /// Use for non-scenario fan-out (graph-walk profiles etc.); scenario
    /// grids should go through [`runs`] or [`aggregates`].
    pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        super::report::touch_start();
        let width = width();
        let count = jobs.len();
        let start = Instant::now();
        let out = pqs_sim::pool::run_ordered(width, jobs);
        super::report::on_sweep(count, width, start.elapsed());
        out
    }

    /// Runs explicit `(scenario, seed)` cells through the prefix-
    /// sharing tree ([`pqs_core::runner::run_cells`]) on the bounded
    /// pool, returns the metrics in cell order, and records the sweep in
    /// the report collector. Results are byte-identical to running each
    /// cell alone, at any pool width.
    pub fn run_cells(cells: Vec<SweepCell>) -> Vec<RunMetrics> {
        super::report::touch_start();
        let width = width();
        let count = cells.len();
        let start = Instant::now();
        let out = pqs_core::runner::run_cells(&cells, width);
        super::report::on_sweep(count, width, start.elapsed());
        out
    }

    /// Runs every `(scenario × seed)` cell on the bounded pool and
    /// returns the per-seed metrics grouped per scenario, in input
    /// order. Cells sharing a warmed topology or advertise-phase prefix
    /// execute as forks of one template simulation.
    pub fn runs(cfgs: &[ScenarioConfig], seeds: &[u64]) -> Vec<Vec<RunMetrics>> {
        let cells: Vec<SweepCell> = cfgs
            .iter()
            .flat_map(|cfg| seeds.iter().map(|&seed| (cfg.clone(), seed)))
            .collect();
        let flat = run_cells(cells);
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

    /// [`runs`] reduced to one [`Aggregate`] per scenario.
    pub fn aggregates(cfgs: &[ScenarioConfig], seeds: &[u64]) -> Vec<Aggregate> {
        runs(cfgs, seeds).iter().map(|r| aggregate(r)).collect()
    }
}

pub mod report {
    //! Machine-readable bench reports.
    //!
    //! Every [`header`](super::header)/[`row`](super::row) call is
    //! captured into a process-global report; binaries call
    //! [`finish`] as their last statement to write
    //! `bench_results/<name>.json` alongside the human-readable table
    //! output. Structured metrics (aggregates, histograms) can be
    //! attached with [`add_value`]. All content is insertion-ordered, so
    //! a deterministic bench renders a byte-identical export.
    //!
    //! Every bench also gets a `<name>.perf.json` sidecar: total bench
    //! wall-clock plus — when sweeps ran — job count, pool width and
    //! sweep-only wall-clock. The sidecar is separate so the main export
    //! stays byte-identical across pool widths and hosts; `bench_summary`
    //! folds the sidecars into `BENCH_SUMMARY.json` and gates wall-clock
    //! regressions against the committed baseline.

    use pqs_sim::json::JsonValue;
    use std::path::PathBuf;
    use std::sync::{Mutex, OnceLock};
    use std::time::{Duration, Instant};

    struct Section {
        title: String,
        columns: Vec<String>,
        rows: Vec<Vec<String>>,
    }

    #[derive(Default)]
    struct SweepPerf {
        sweeps: usize,
        jobs: usize,
        pool_width: usize,
        wall: Duration,
    }

    struct State {
        sections: Vec<Section>,
        values: Vec<(String, JsonValue)>,
        perf: SweepPerf,
        perf_values: Vec<(String, JsonValue)>,
    }

    static STATE: Mutex<State> = Mutex::new(State {
        sections: Vec::new(),
        values: Vec::new(),
        perf: SweepPerf {
            sweeps: 0,
            jobs: 0,
            pool_width: 0,
            wall: Duration::ZERO,
        },
        perf_values: Vec::new(),
    });

    /// When the bench first touched the report collector — the start of
    /// the measured wall-clock window. Armed idempotently by every
    /// collector entry point, so benches need no explicit start call.
    static STARTED: OnceLock<Instant> = OnceLock::new();

    pub(crate) fn touch_start() {
        let _ = STARTED.get_or_init(Instant::now);
    }

    fn bench_age() -> Duration {
        STARTED
            .get()
            .map(Instant::elapsed)
            .unwrap_or(Duration::ZERO)
    }

    pub(crate) fn on_header(title: &str, columns: &[&str]) {
        touch_start();
        let mut state = STATE.lock().expect("report lock");
        state.sections.push(Section {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        });
    }

    pub(crate) fn on_row(cells: &[String]) {
        touch_start();
        let mut state = STATE.lock().expect("report lock");
        if state.sections.is_empty() {
            state.sections.push(Section {
                title: String::new(),
                columns: Vec::new(),
                rows: Vec::new(),
            });
        }
        let section = state.sections.last_mut().expect("section exists");
        section.rows.push(cells.to_vec());
    }

    pub(crate) fn on_sweep(jobs: usize, pool_width: usize, wall: Duration) {
        touch_start();
        let mut state = STATE.lock().expect("report lock");
        state.perf.sweeps += 1;
        state.perf.jobs += jobs;
        state.perf.pool_width = pool_width;
        state.perf.wall += wall;
    }

    /// Attaches a structured value (aggregate, histogram, …) to the
    /// report under `key`. Repeated keys are kept in call order.
    pub fn add_value(key: &str, value: JsonValue) {
        touch_start();
        let mut state = STATE.lock().expect("report lock");
        state.values.push((key.to_string(), value));
    }

    /// Attaches a measured value (throughput, memory, …) to the
    /// `<name>.perf.json` sidecar instead of the main export. Use this
    /// for anything host-dependent: the main export must stay
    /// byte-identical across machines, pool widths and scheduler
    /// implementations, and the sidecar is where nondeterminism lives.
    pub fn add_perf_value(key: &str, value: JsonValue) {
        touch_start();
        let mut state = STATE.lock().expect("report lock");
        state.perf_values.push((key.to_string(), value));
    }

    /// Peak resident set size of this process in bytes (`VmHWM` from
    /// `/proc/self/status`), or `None` where procfs is unavailable.
    /// No external crates: the field is a plain `VmHWM:  1234 kB` line.
    pub fn peak_rss_bytes() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line
            .trim_start_matches("VmHWM:")
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb * 1024)
    }

    /// The report captured so far, as a JSON tree.
    pub fn to_json(name: &str) -> JsonValue {
        let state = STATE.lock().expect("report lock");
        let sections =
            JsonValue::array(state.sections.iter().map(|s| {
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
        if !state.values.is_empty() {
            out.insert(
                "metrics",
                JsonValue::object(
                    state
                        .values
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect::<Vec<_>>(),
                ),
            );
        }
        out
    }

    /// The performance sidecar: total bench wall-clock plus — when
    /// sweeps ran — pool width, job count and sweep-only wall-clock.
    /// Emitted for every bench (uniformly, so the regression gate skips
    /// none); this is the only place wall-clock appears — it never
    /// enters the deterministic main export.
    pub fn perf_to_json(name: &str) -> JsonValue {
        let state = STATE.lock().expect("report lock");
        let pool_width = if state.perf.sweeps > 0 {
            state.perf.pool_width
        } else {
            pqs_sim::pool::configured_width()
        };
        let mut out = JsonValue::object([
            ("name", JsonValue::from(name)),
            ("pool_width", JsonValue::from(pool_width)),
            ("sweeps", JsonValue::from(state.perf.sweeps)),
            ("jobs", JsonValue::from(state.perf.jobs)),
            (
                "jobs_source",
                JsonValue::from(pqs_sim::pool::width_source()),
            ),
            ("wall_ms", JsonValue::from(bench_age().as_millis() as u64)),
            (
                "sweep_wall_ms",
                JsonValue::from(state.perf.wall.as_millis() as u64),
            ),
        ]);
        for (key, value) in &state.perf_values {
            out.insert(key.as_str(), value.clone());
        }
        out
    }

    /// Directory the JSON exports are written to (`PQS_BENCH_DIR`,
    /// default `bench_results/` relative to the working directory).
    pub fn out_dir() -> PathBuf {
        std::env::var("PQS_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("bench_results"))
    }

    /// Writes the captured report to `bench_results/<name>.json` and the
    /// wall-clock sidecar to `<name>.perf.json`, returning the main
    /// path. Call as the binary's last statement.
    pub fn finish(name: &str) -> std::io::Result<PathBuf> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, to_json(name).render())?;
        std::fs::write(
            dir.join(format!("{name}.perf.json")),
            perf_to_json(name).render(),
        )?;
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

    #[test]
    fn default_seed_window() {
        // Do not set env vars in tests (they are process-global); just
        // exercise the default path when the vars are absent.
        if std::env::var("PQS_SEEDS").is_err() {
            assert_eq!(seeds(3), vec![1, 2, 3]);
        }
    }

    #[test]
    fn seed_window_parsing() {
        assert_eq!(parse_seed_window(None, None, 3), Ok(vec![1, 2, 3]));
        assert_eq!(
            parse_seed_window(Some("2"), Some("10"), 5),
            Ok(vec![10, 11])
        );
        assert_eq!(parse_seed_window(Some("0"), None, 3), Ok(vec![]));
        // Unparseable values are rejected, not silently defaulted.
        assert!(parse_seed_window(Some("ten"), None, 3).is_err());
        assert!(parse_seed_window(Some("-1"), None, 3).is_err());
        assert!(parse_seed_window(None, Some("1e3"), 3).is_err());
    }

    #[test]
    fn seed_window_overflow_is_rejected() {
        let max = u64::MAX.to_string();
        assert!(parse_seed_window(Some("2"), Some(&max), 3).is_err());
        // A window ending exactly at u64::MAX is fine.
        let near = (u64::MAX - 3).to_string();
        assert_eq!(
            parse_seed_window(Some("3"), Some(&near), 1),
            Ok(vec![u64::MAX - 3, u64::MAX - 2, u64::MAX - 1])
        );
    }

    #[test]
    fn bool_knob_parsing() {
        for raw in ["1", "true", "TRUE", "yes", "On"] {
            assert_eq!(parse_bool_knob("PQS_FULL", raw), Ok(true), "{raw}");
        }
        for raw in ["0", "false", "no", "OFF", ""] {
            assert_eq!(parse_bool_knob("PQS_FULL", raw), Ok(false), "{raw}");
        }
        assert!(parse_bool_knob("PQS_FULL", "maybe").is_err());
        assert!(parse_bool_knob("PQS_FULL", "2").is_err());
    }

    #[test]
    fn sizes_parsing() {
        assert_eq!(parse_sizes("50"), Ok(vec![50]));
        assert_eq!(parse_sizes("50, 100,200"), Ok(vec![50, 100, 200]));
        assert!(parse_sizes("").is_err());
        assert!(parse_sizes("50,x").is_err());
        assert!(parse_sizes("0").is_err());
    }

    #[test]
    fn formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.912), "0.912");
        assert_eq!(f(13.37), "13.4");
        assert_eq!(f(456.7), "457");
    }
}
