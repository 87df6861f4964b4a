//! Scheduler scale sweep: the raw substrate at n = 1k → 10k →
//! 100k nodes — far beyond the paper's 800 — exercising the timer-wheel
//! event queue and the struct-of-arrays node slabs under a
//! heartbeat-driven load at the paper's constant density (the area
//! grows with n, so per-node work should stay flat).
//!
//! The export records only deterministic values (node count, events
//! processed over the fixed window). What the same substrate costs in
//! wall-clock and memory is measured by the `sim-substrate-1k` and
//! `sim-substrate-100k` workloads of `BENCHMARK.json`. Override the
//! sizes with `PQS_SIZES`.

use pqs_bench::{f, Bench};
use pqs_net::{NetConfig, Network, Stack, Upcall};
use pqs_sim::SimTime;

/// Sink stack: the sweep measures the substrate (PHY/MAC/heartbeats/
/// mobility), so upcalls are accepted and dropped.
struct Sink;

impl Stack<()> for Sink {
    fn on_upcall(&mut self, _net: &mut Network<()>, _upcall: Upcall<()>) {}
}

/// Simulated window: several heartbeat cycles per node, so the MAC sees
/// sustained contention and the grid refresh runs many sweeps.
const WINDOW_SECS: u64 = 120;

pub fn run(b: &mut Bench) {
    let until = SimTime::from_secs(WINDOW_SECS);

    b.header(
        &format!("Scale sweep: substrate events over {WINDOW_SECS} s simulated"),
        &["n", "events", "events/node"],
    );

    for n in b.scale_sizes() {
        let mut net: Network<()> = Network::new(NetConfig::paper(n));
        let events = net.run(&mut Sink, until);
        b.row(&[
            n.to_string(),
            events.to_string(),
            f(events as f64 / n as f64),
        ]);
    }
}
