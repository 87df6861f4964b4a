//! `sim-quorum-routed` and `sim-quorum-walk`: the paper's two-phase
//! scenario (advertise, then look up) through `run_scenario`, one seed
//! per pass, cycling over a fixed set of seeds. The two workloads drive
//! the same `pqs-core` layer in opposite ways: routed sends every probe
//! through AODV, walk sends almost nothing through it after the advertise
//! phase.

use super::{check, measured_section, ArmCost, Ctx, Outcome, Pass, Sink};
use crate::stats;
use crate::trace::{Tracer, NONE};
use pqs_core::runner::{run_scenario, RunMetrics, ScenarioConfig};
use pqs_core::service::{Fanout, ServiceConfig};
use pqs_core::spec::{AccessStrategy, BiquorumSpec, QuorumSpec};
use pqs_core::workload::WorkloadConfig;
use pqs_net::{MobilityModel, Network};
use pqs_sim::metrics::Histogram;
use pqs_sim::{SimDuration, SimTime};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// n = 200, RANDOM (2√n) x RANDOM (1.15√n), 4 advertises / 40 lookups.
    Routed,
    /// n = 400, `ServiceConfig::paper_default` (RANDOM x UNIQUE-PATH, early
    /// halting, salvation, local repair), 3 advertises / 300 lookups.
    Walk,
}

/// Scenarios a traced run executes before its time-boxed parts: fixed
/// seeds, so the count-type layer metrics repeat exactly.
const FIXED_SCENARIOS: u64 = 2;

impl Kind {
    /// Scenario seeds a run cycles over. The load is these scenarios
    /// whatever the machine's speed; a faster one only repeats the cycle
    /// more often.
    fn seeds(self) -> u64 {
        match self {
            Kind::Routed => 4,
            Kind::Walk => 8,
        }
    }
}

/// The windows `pqs_bench::bench_workload` gives a scenario of this
/// size, restated here so that an edit to `crates/bench` cannot move the
/// ruler: advertises paced to the network size, lookups at ~2/s.
fn windows(adv: usize, lkp: usize, n: usize) -> WorkloadConfig {
    let adv_secs = ((adv as f64) * (n as f64 / 250.0).max(0.4)).ceil() as u64;
    WorkloadConfig {
        advertisements: adv,
        lookups: lkp,
        lookers: 25.min(lkp.max(1)),
        start: SimTime::from_secs(5),
        advertise_window: SimDuration::from_secs(adv_secs.max(1)),
        phase_gap: SimDuration::from_secs(20),
        lookup_window: SimDuration::from_secs(((lkp as u64) / 2).max(1)),
        present_fraction: 1.0,
    }
}

fn config(kind: Kind, quick: bool) -> ScenarioConfig {
    let (n, adv, lkp) = match (kind, quick) {
        (Kind::Routed, false) => (200, 4, 40),
        (Kind::Routed, true) => (100, 2, 20),
        (Kind::Walk, false) => (400, 3, 300),
        (Kind::Walk, true) => (100, 2, 50),
    };
    let mut cfg = ScenarioConfig::paper(n);
    cfg.net.mobility = MobilityModel::walking();
    cfg.workload = windows(adv, lkp, n);
    if kind == Kind::Routed {
        let root = (n as f64).sqrt();
        let mut service = ServiceConfig::paper_default(n);
        service.spec = BiquorumSpec::new(
            QuorumSpec::new(AccessStrategy::Random, (2.0 * root).round() as u32),
            QuorumSpec::new(AccessStrategy::Random, (1.15 * root).ceil() as u32),
        );
        service.lookup_fanout = Fanout::Parallel;
        cfg.service = service;
    }
    cfg
}

/// Seed of the `i`-th scenario of a run.
fn scenario_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i)
}

#[derive(Default)]
struct Totals {
    advertises: u64,
    lookups: u64,
    hits: u64,
    wrong_reads: u64,
    clamped: u64,
}

impl Totals {
    fn add(&mut self, m: &RunMetrics) {
        self.advertises += m.advertises as u64;
        self.lookups += m.lookups as u64;
        self.hits += m.hits as u64;
        self.wrong_reads += m.wrong_reads as u64;
        self.clamped += m.scheduler_clamped;
    }
}

fn one_scenario(tracer: &mut Tracer, cfg: &ScenarioConfig, seed: u64) -> (Pass, RunMetrics) {
    let t = Instant::now();
    let m = tracer.span("core.run_scenario", seed, NONE, || run_scenario(cfg, seed));
    let pass = Pass::whole(t.elapsed().as_secs_f64(), (m.advertises + m.lookups) as f64);
    (pass, m)
}

pub fn run(ctx: &mut Ctx, kind: Kind) -> Outcome {
    let cfg = config(kind, ctx.quick);
    let mut out = Outcome::default();
    let mut totals = Totals::default();
    let mut next = 0u64;

    // Set-up: a discarded warm-up scenario (allocator, page cache,
    // branch predictors), the only thing a caller of `run_scenario` can
    // do ahead of time; the network build is inside the timed call.
    while ctx.another_setup(&out.setups_s) {
        let t = Instant::now();
        let (_, m) = one_scenario(&mut ctx.tracer, &cfg, scenario_seed(ctx.seed, 999));
        out.setups_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(m);
    }

    if ctx.traced() {
        next = if ctx.quick { 1 } else { FIXED_SCENARIOS };
        fixed_work(ctx, &mut out, &cfg, next, &mut totals);
    }

    let seed = ctx.seed;
    measured_section(ctx, &mut out, ArmCost::Time, |tracer, seconds| {
        super::timebox(seconds, || {
            let i = next % kind.seeds();
            let (pass, m) = one_scenario(tracer, &cfg, scenario_seed(seed, i));
            next += 1;
            totals.add(&m);
            pass
        })
    });
    out.note(format!(
        "{next} scenarios run, cycling over seeds {}..={}",
        scenario_seed(seed, 0),
        scenario_seed(seed, kind.seeds() - 1)
    ));

    // A miss is a correct outcome of an ε-intersecting quorum, not a
    // failed operation; what must hold is the hit ratio's floor. A wrong
    // value is a failure.
    let hit_ratio = totals.hits as f64 / totals.lookups.max(1) as f64;
    let floor = match (kind, ctx.quick) {
        (Kind::Routed, false) => 0.70,
        (Kind::Walk, false) => 0.85,
        (_, true) => 0.50,
    };
    out.checks.push(check(
        "hit ratio at or above its floor",
        hit_ratio >= floor,
        format!(
            "{hit_ratio:.4} over {} lookups (floor {floor})",
            totals.lookups
        ),
    ));
    out.checks.push(check(
        "scheduler_clamped == 0",
        totals.clamped == 0,
        format!("{}", totals.clamped),
    ));
    out.checks.push(check(
        "wrong_reads == 0",
        totals.wrong_reads == 0,
        format!("{}", totals.wrong_reads),
    ));
    out.attempted = totals.advertises + totals.lookups;
    out.failed = totals.wrong_reads;
    out
}

/// Host time of the same `NetConfig` and simulated horizon under a sink
/// stack: what the substrate alone costs a scenario.
fn floor_secs(tracer: &mut Tracer, cfg: &ScenarioConfig, seed: u64) -> f64 {
    let mut net_cfg = cfg.net.clone();
    net_cfg.seed = seed;
    let horizon = cfg.workload.lookup_end() + cfg.drain;
    let t = Instant::now();
    tracer.span("net.floor", seed, NONE, || {
        let mut net: Network<()> = Network::new(net_cfg);
        net.run(&mut Sink, horizon)
    });
    t.elapsed().as_secs_f64()
}

fn fixed_work(
    ctx: &mut Ctx,
    out: &mut Outcome,
    cfg: &ScenarioConfig,
    scenarios: u64,
    totals: &mut Totals,
) {
    let mut wall = Vec::new();
    let mut floor = Vec::new();
    let mut lookup_latency = Histogram::new();
    let mut advertise_latency = Histogram::new();
    let (mut control, mut data, mut link) = (0u64, 0u64, 0u64);
    let (mut salvations, mut repairs, mut dropped) = (0u64, 0u64, 0u64);
    let (mut ops, mut lookups, mut hits) = (0u64, 0u64, 0u64);
    for i in 0..scenarios {
        let seed = scenario_seed(ctx.seed, i);
        let (pass, m) = one_scenario(&mut ctx.tracer, cfg, seed);
        wall.push(pass.secs);
        floor.push(floor_secs(&mut ctx.tracer, cfg, seed));
        totals.add(&m);
        lookup_latency.merge(&m.lookup_latency);
        advertise_latency.merge(&m.advertise_latency);
        control += m.advertise_phase.control_tx + m.lookup_phase.control_tx;
        data += m.advertise_phase.data_tx + m.lookup_phase.data_tx;
        link += m.lookup_phase.link_tx;
        salvations += m.counters.salvations;
        repairs += m.counters.local_repairs + m.counters.global_repairs;
        dropped += m.counters.replies_dropped;
        ops += (m.advertises + m.lookups) as u64;
        lookups += m.lookups as u64;
        hits += m.hits as u64;
    }
    let wall_s = stats::median(&mut wall);
    let floor_s = stats::median(&mut floor);
    let per_lookup = |v: u64| v as f64 / lookups.max(1) as f64;
    out.layer("core.runner.wall_s", wall_s);
    out.layer("core.runner.floor_s", floor_s);
    out.layer("core.runner.above_floor_s", wall_s - floor_s);
    out.layer(
        "routing.control_tx_per_op",
        control as f64 / ops.max(1) as f64,
    );
    out.layer("routing.data_tx_per_op", data as f64 / ops.max(1) as f64);
    out.layer("core.stack.hits", hits as f64);
    out.layer("core.stack.hit_ratio", per_lookup(hits));
    out.layer("core.stack.link_tx_per_lookup", per_lookup(link));
    out.layer("core.stack.salvations_per_lookup", per_lookup(salvations));
    out.layer("core.stack.repairs_per_lookup", per_lookup(repairs));
    out.layer("core.stack.replies_dropped_per_lookup", per_lookup(dropped));
    out.layer(
        "core.stack.lookup_p50_sim_ms",
        lookup_latency.percentile(50.0) as f64 / 1e3,
    );
    out.layer(
        "core.stack.advertise_p50_sim_ms",
        advertise_latency.percentile(50.0) as f64 / 1e3,
    );
    out.note(format!(
        "fixed work: {scenarios} scenarios, {ops} ops; wall {wall_s:.3} s = floor {floor_s:.3} s + above floor {:.3} s",
        wall_s - floor_s
    ));
}
