//! Scheduler scale sweep: raw substrate throughput at n = 1k → 10k →
//! 100k nodes — far beyond the paper's 800 — exercising the timer-wheel
//! event queue and the struct-of-arrays node slabs under a
//! heartbeat-driven load at the paper's constant density (the area
//! grows with n, so per-node work should stay flat).
//!
//! The main export records only deterministic values (node count,
//! events processed over the fixed window); throughput, wall-clock and
//! peak RSS are host-dependent and go into the `fig_scale.perf.json`
//! sidecar via [`Bench::add_perf_value`]. Override the sizes with
//! `PQS_SIZES` (the check-script smoke runs `PQS_SIZES=2000`).

use pqs_bench::{f, peak_rss_bytes, Bench};
use pqs_net::{NetConfig, Network, Stack, Upcall};
use pqs_sim::json::JsonValue;
use pqs_sim::SimTime;
use std::time::{Duration, Instant};

/// Sink stack: the sweep measures the substrate (PHY/MAC/heartbeats/
/// mobility), so upcalls are accepted and dropped.
struct Sink;

impl Stack<()> for Sink {
    fn on_upcall(&mut self, _net: &mut Network<()>, _upcall: Upcall<()>) {}
}

/// Simulated window: several heartbeat cycles per node, so the MAC sees
/// sustained contention and the grid refresh runs many sweeps.
const WINDOW_SECS: u64 = 120;

/// Each size is re-run (from clones of one built network — runs are
/// deterministic, every iteration processes identical events) until
/// this much wall-clock accumulates, so small-n rates are not noise.
const MIN_MEASURE: Duration = Duration::from_secs(1);

pub fn run(b: &mut Bench) {
    let sizes = b.scale_sizes();
    let until = SimTime::from_secs(WINDOW_SECS);

    b.header(
        &format!("Scale sweep: substrate events over {WINDOW_SECS} s simulated"),
        &["n", "events", "events/node"],
    );

    let mut perf_points = Vec::new();
    for &n in &sizes {
        let build_start = Instant::now();
        let template: Network<()> = Network::new(NetConfig::paper(n));
        let build_ms = build_start.elapsed().as_millis() as u64;

        let mut events = 0u64;
        let mut iters = 0u64;
        let mut measured = Duration::ZERO;
        while measured < MIN_MEASURE {
            let mut net = template.clone();
            let run_start = Instant::now();
            let ran = net.run(&mut Sink, until);
            measured += run_start.elapsed();
            iters += 1;
            assert!(
                events == 0 || ran * iters == events + ran,
                "nondeterministic rerun: {ran} events vs {events} over {} prior runs",
                iters - 1
            );
            events += ran;
        }
        let per_run = events / iters;

        b.row(&[
            n.to_string(),
            per_run.to_string(),
            f(per_run as f64 / n as f64),
        ]);

        let events_per_sec = events as f64 / measured.as_secs_f64().max(1e-9);
        // VmHWM is a process-wide high-water mark, so with ascending
        // sizes in one process each reading is the peak *through* this
        // size — exactly the footprint bound the largest run needs.
        // Under `pqs-bench all` it also counts the figures that ran
        // before this one: read it from `pqs-bench fig_scale` alone.
        let peak_rss = peak_rss_bytes().unwrap_or(0);
        perf_points.push(JsonValue::object([
            ("n", JsonValue::from(n)),
            ("events", JsonValue::from(per_run)),
            ("iters", JsonValue::from(iters)),
            ("build_ms", JsonValue::from(build_ms)),
            ("run_wall_ms", JsonValue::from(measured.as_millis() as u64)),
            ("events_per_sec", JsonValue::from(events_per_sec)),
            ("peak_rss_bytes", JsonValue::from(peak_rss)),
        ]));
    }
    b.add_perf_value("scale", JsonValue::array(perf_points));
}
