//! `sim-substrate-100k` and `sim-substrate-1k`: `Network<()>` under a
//! sink stack. Scheduler wheel, PHY grid, MAC and heartbeats run; no
//! routing, no quorum engine.

use super::{check, measured_section, ArmCost, Ctx, Outcome, Pass, Sink};
use crate::host;
use crate::trace::{Tracer, NONE};
use pqs_net::{NetConfig, NetStats, Network};
use pqs_sim::SimTime;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 100 000 nodes, one network marched forward in 5 s slices to 120
    /// simulated seconds, then built afresh.
    Large,
    /// 1 000 nodes, reruns of 120 simulated seconds from one template.
    Small,
}

impl Size {
    /// Simulated seconds of one pass, and simulated milliseconds of one
    /// timed step within it.
    fn pass_s(self) -> u64 {
        match self {
            Size::Large => LARGE_SLICE_S,
            Size::Small => HORIZON_S,
        }
    }

    fn step_ms(self) -> u64 {
        match self {
            Size::Large => LARGE_STEP_MS,
            Size::Small => SMALL_STEP_MS,
        }
    }
}

/// Simulated seconds per pass on the large network (~0.4 s of host time:
/// long enough to hold the periodic mobility and grid-refresh bursts in
/// every pass, short enough for two dozen passes per run).
const LARGE_SLICE_S: u64 = 5;
/// Simulated milliseconds per timed step: 1 000 steps in a pass of the
/// large network (~0.4 ms of host time and ~150 events each), 1 200 in a
/// rerun of the small one (~30 µs and ~30 events each). Short enough that
/// the steps an interruption of the process lands in stay beyond a pass's
/// p95 (at 240 steps per pass they did not, under bursts every 60 ms),
/// long enough that two clock reads per step cost under 0.3 %.
const LARGE_STEP_MS: u64 = 5;
const SMALL_STEP_MS: u64 = 100;
/// Simulated horizon of one small-network rerun and of one lap of the
/// large network (fig_scale's window).
const HORIZON_S: u64 = 120;
/// Fixed work of a traced run, so that counts repeat exactly per seed.
const LARGE_FIXED_S: u64 = 30;
const SMALL_FIXED_RERUNS: u64 = 20;

fn config(n: usize, seed: u64) -> NetConfig {
    let mut cfg = NetConfig::paper(n);
    cfg.seed = seed;
    cfg
}

pub fn run(ctx: &mut Ctx, size: Size) -> Outcome {
    let n = match (size, ctx.quick) {
        (Size::Large, false) => 100_000,
        (Size::Large, true) => 10_000,
        (Size::Small, _) => 1_000,
    };
    let mut out = Outcome::default();

    // Set-up: build the network; on the small one also a discarded
    // rerun (a 1 ms build alone is too short to time steadily). Each
    // repetition drops the previous build first, so the peak resident
    // set is that of one network.
    let rss_before = host::rss_bytes();
    let mut built: Option<Network<()>> = None;
    let mut build_s = 0.0;
    while ctx.another_setup(&out.setups_s) {
        let rep = out.setups_s.len();
        drop(built.take());
        let t = Instant::now();
        let net = ctx.tracer.span("net.build", rep as u64, NONE, || {
            Network::new(config(n, ctx.seed))
        });
        build_s = t.elapsed().as_secs_f64();
        if size == Size::Small {
            let mut off = Tracer::new(false);
            slice(&mut off, &mut net.clone(), size, HORIZON_S, n);
        }
        out.setups_s.push(t.elapsed().as_secs_f64());
        built = Some(net);
    }
    let mut net = built.expect("at least one set-up repetition");

    let mut event_ns = None;
    if ctx.traced() {
        out.layer("net.build_ms", build_s * 1e3);
        event_ns = Some(fixed_work(ctx, &mut out, &mut net, size, n, rss_before));
    }

    let mut clamped = 0u64;
    let mut rerun_events: Vec<u64> = Vec::new();
    match size {
        Size::Large => {
            let mut horizon = if ctx.traced() { LARGE_FIXED_S } else { 0 };
            let mut events = 0u64;
            let mut net = Some(net);
            let seed = ctx.seed;
            measured_section(ctx, &mut out, ArmCost::Time, |tracer, seconds| {
                super::timebox(seconds, || {
                    if horizon == HORIZON_S {
                        // The lap is over: the same network again from
                        // time 0, between passes, so that the load is the
                        // same 120 simulated seconds however far a faster
                        // machine gets. The old one goes first: the peak
                        // resident set stays that of one network.
                        clamped += net.take().map_or(0, |old| old.scheduler_clamped());
                        net = Some(Network::new(config(n, seed)));
                        horizon = 0;
                    }
                    horizon += LARGE_SLICE_S;
                    let net = net.as_mut().expect("a network between laps");
                    let (pass, ev) = slice(tracer, net, size, horizon, n);
                    events += ev;
                    pass
                })
            });
            clamped += net.map_or(0, |last| last.scheduler_clamped());
            if let Some(event_ns) = event_ns {
                // The parts account for the whole: the per-event cost of
                // the fixed work predicts the time-boxed passes. Printed,
                // not a check: both sides are timings, taken seconds
                // apart, and a neighbour on a shared host moves either;
                // a run must not fail for that.
                let wall_s: f64 = out.passes.iter().map(|p| p.secs).sum();
                let predicted_s = event_ns * events as f64 / 1e9;
                let within = (predicted_s / wall_s - 1.0).abs() <= 0.10;
                out.note(format!(
                    "account {}: net.event_ns x events within 10 % of the passes' wall time: {event_ns:.0} ns x {events} events = {predicted_s:.3} s against {wall_s:.3} s",
                    if within { "ok" } else { "OFF" }
                ));
            }
        }
        Size::Small => {
            let template = net;
            measured_section(ctx, &mut out, ArmCost::Time, |tracer, seconds| {
                super::timebox(seconds, || {
                    let mut net = template.clone();
                    let (pass, events) = slice(tracer, &mut net, size, HORIZON_S, n);
                    rerun_events.push(events);
                    clamped += net.scheduler_clamped();
                    pass
                })
            });
            let first = rerun_events[0];
            out.checks.push(check(
                "rerun event counts identical",
                rerun_events.iter().all(|&e| e == first),
                format!("{} reruns of {first} events", rerun_events.len()),
            ));
        }
    }
    out.checks.push(check(
        "scheduler_clamped == 0",
        clamped == 0,
        format!("{clamped}"),
    ));
    out.attempted = out.passes.len() as u64;
    out
}

/// Runs `net` through the one pass of simulated time that ends at
/// `horizon_s`, step by step inside one span, and returns the pass (ops =
/// node-seconds simulated) and its event count.
fn slice(
    tracer: &mut Tracer,
    net: &mut Network<()>,
    size: Size,
    horizon_s: u64,
    n: usize,
) -> (Pass, u64) {
    let step_ms = size.step_ms();
    let (from_ms, to_ms) = ((horizon_s - size.pass_s()) * 1_000, horizon_s * 1_000);
    let mut step_s = Vec::with_capacity((size.pass_s() * 1_000 / step_ms) as usize);
    let events = tracer.span("net.run", horizon_s, NONE, || {
        let mut events = 0;
        let mut last = Instant::now();
        for until_ms in (from_ms + step_ms..=to_ms).step_by(step_ms as usize) {
            events += net.run(&mut Sink, SimTime::from_millis(until_ms));
            let now = Instant::now();
            step_s.push((now - last).as_secs_f64());
            last = now;
        }
        events
    });
    let node_seconds_per_step = n as f64 * step_ms as f64 / 1e3;
    (Pass::stepped(&mut step_s, node_seconds_per_step), events)
}

/// The traced run's fixed work: a set simulated horizon, from which the
/// count-type layer metrics (exact per seed) and `net.event_ns`, which
/// it returns, come.
fn fixed_work(
    ctx: &mut Ctx,
    out: &mut Outcome,
    net: &mut Network<()>,
    size: Size,
    n: usize,
    rss_before: u64,
) -> f64 {
    let (events, secs, stats, phy_work) = match size {
        Size::Large => {
            let mut events = 0u64;
            let t = Instant::now();
            for s in (LARGE_SLICE_S..=LARGE_FIXED_S).step_by(LARGE_SLICE_S as usize) {
                events += slice(&mut ctx.tracer, net, size, s, n).1;
            }
            (
                events,
                t.elapsed().as_secs_f64(),
                *net.stats(),
                net.phy_work(),
            )
        }
        Size::Small => {
            let mut events = 0u64;
            let mut secs = 0.0;
            let mut last = None;
            let reruns = if ctx.quick { 3 } else { SMALL_FIXED_RERUNS };
            for _ in 0..reruns {
                let mut rerun = net.clone();
                let (pass, ev) = slice(&mut ctx.tracer, &mut rerun, size, HORIZON_S, n);
                events += ev;
                secs += pass.secs;
                last = Some((*rerun.stats(), rerun.phy_work()));
            }
            let (stats, phy_work): (NetStats, u64) = last.expect("at least one rerun");
            (events / reruns, secs / reruns as f64, stats, phy_work)
        }
    };
    // Footprint before the clone below doubles it.
    let grown = host::peak_rss_bytes().saturating_sub(rss_before);
    let t = Instant::now();
    let copy = ctx.tracer.span("net.clone", 0, NONE, || net.clone());
    let clone_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(copy);

    let tx = stats.phy_tx.max(1) as f64;
    let event_ns = secs * 1e9 / events.max(1) as f64;
    out.layer("net.clone_ms", clone_ms);
    out.layer("net.event_ns", event_ns);
    out.layer("net.rss_bytes_per_node", grown as f64 / n as f64);
    out.layer("net.events_per_node", events as f64 / n as f64);
    out.layer("net.phy_work_per_tx", phy_work as f64 / tx);
    out.layer(
        "net.mac_backoff_draws_per_tx",
        stats.mac_backoff_draws as f64 / tx,
    );
    out.layer(
        "net.mac_channel_defers_per_tx",
        stats.mac_channel_defers as f64 / tx,
    );
    out.layer("net.mac_retries_per_tx", stats.mac_retries as f64 / tx);
    out.layer(
        "net.phy_rx_aborted_per_tx",
        stats.phy_rx_aborted as f64 / tx,
    );
    out.note(format!(
        "fixed work: {events} events in {secs:.3} s host, {} PHY tx",
        stats.phy_tx
    ));
    event_ns
}
