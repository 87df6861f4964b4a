//! The seven workloads and the shape every one of them reports in.
//!
//! A run is: set up (several times, the median is `setup_s`), then a
//! time-boxed measured section made of *passes* — units of fixed,
//! seed-determined work (a slice of simulated time, one scenario, 200
//! engine batches, a 250 ms window of client traffic). End-to-end rates
//! are order statistics over passes ([`over_passes`]), so a preempted
//! pass does not move them; the synchronous workloads' times per
//! operation come from the [`Steps`] a pass is timed in.
//! A traced run sets up once, does a fixed amount of work for the
//! count-type per-layer metrics (which then repeat exactly for a seed),
//! and splits the remaining time between spans off and spans on.

pub mod loopback;
pub mod scenario;
pub mod serve;
pub mod substrate;

use crate::trace::Tracer;
use pqs_net::{Network, Stack, Upcall};
use std::time::{Duration, Instant};

/// A stack that accepts upcalls and drops them: the substrate alone.
pub struct Sink;

impl Stack<()> for Sink {
    fn on_upcall(&mut self, _net: &mut Network<()>, _upcall: Upcall<()>) {}
}

/// What one invocation was asked to do.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Tiny sizes for plumbing checks; results are not comparable.
    pub quick: bool,
    pub tracer: Tracer,
}

impl Ctx {
    /// Whether the workload, having set up `done` times (seconds each),
    /// sets up once more; the median is reported. Three times at least,
    /// and on while they have taken under 0.5 s together (a 37 ms set-up
    /// is timed 14 times over). A traced run sets up once: its time goes
    /// to the layer probes.
    pub fn another_setup(&self, done: &[f64]) -> bool {
        if self.quick || self.tracer.enabled() {
            return done.is_empty();
        }
        done.len() < 3 || (done.len() < 25 && done.iter().sum::<f64>() < 0.5)
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// One unit of measured work.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub secs: f64,
    /// Operations completed: quorum accesses, client operations, or on
    /// the substrate workloads simulated node-seconds.
    pub ops: f64,
    pub steps: Steps,
}

/// The *steps* a pass was timed in — the smallest pieces of work the
/// benchmark can time from outside (a slice of simulated time, one batch of
/// 64 engine operations) — reduced to two order statistics when the pass
/// ends, so a run keeps two numbers per pass however many steps a faster
/// machine gets through. A step is a fraction of a millisecond, so a
/// stall of the machine lands in a few of a pass's steps, beyond its p95,
/// where it would stretch the whole pass; and of the passes, the run
/// reports the first quartile ([`over_passes`]).
#[derive(Debug, Clone, Copy)]
pub struct Steps {
    pub count: usize,
    /// Median over the pass's steps of the step's µs per operation.
    pub p50_us: f64,
    /// Their tail by [`crate::stats::tail`]'s rule, and the percentile used.
    pub tail_us: f64,
    pub tail_p: f64,
}

impl Pass {
    /// A pass that is one indivisible call (a scenario, a window of
    /// client traffic): its own only step. (A window in which nothing
    /// was answered has no time per operation; `serve-*` reports its
    /// operations' own latencies, not this.)
    pub fn whole(secs: f64, ops: f64) -> Pass {
        let us = secs * 1e6 / ops.max(1.0);
        let steps = Steps {
            count: 1,
            p50_us: us,
            tail_us: us,
            tail_p: 1.0,
        };
        Pass { secs, ops, steps }
    }

    /// A pass timed in steps of `ops_per_step` operations each; `step_s`
    /// holds each step's seconds and is left empty for the next pass.
    pub fn stepped(step_s: &mut Vec<f64>, ops_per_step: f64) -> Pass {
        let secs: f64 = step_s.iter().sum();
        step_s.sort_unstable_by(f64::total_cmp);
        let us = 1e6 / ops_per_step;
        let (tail_s, tail_p) = crate::stats::tail(step_s, 0.95);
        let pass = Pass {
            secs,
            ops: ops_per_step * step_s.len() as f64,
            steps: Steps {
                count: step_s.len(),
                p50_us: crate::stats::nearest_rank(step_s, 0.5) * us,
                tail_us: tail_s * us,
                tail_p,
            },
        };
        step_s.clear();
        pass
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name,
        ok,
        detail: detail.into(),
    }
}

/// Everything a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One entry per set-up repetition, seconds.
    pub setups_s: Vec<f64>,
    pub passes: Vec<Pass>,
    /// Per-operation latencies in µs where a caller waits for each
    /// operation (serve-*). Empty elsewhere: the simulator and the
    /// loopback engine are synchronous, nobody waits for one operation,
    /// and the latency distribution is that of each pass's [`Steps`].
    pub op_latencies_us: Vec<f64>,
    /// CPU time (user + system, all threads) of the measured section.
    pub cpu_ms: f64,
    /// `VmHWM` when the measured section ended, before any of the
    /// benchmark's own post-processing allocates.
    pub peak_rss_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Per-layer metrics this workload measured (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// With spans off / on: cost per operation of the two arms of a
    /// traced run's measured section (see [`measured_section`]).
    pub traced_costs: Option<(f64, f64)>,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Calls `pass` until `seconds` have elapsed (at least once).
pub fn timebox(seconds: f64, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    loop {
        passes.push(pass());
        if Instant::now() >= deadline {
            return passes;
        }
    }
}

/// What a run reports of a value that each of its passes gives. Passes
/// timed in many steps repeat like work (the same rerun, the next 12 800
/// operations of one stream, the next 5 s of one network), and one the
/// host disturbed reads worse, never better: the run reports the quartile
/// on the undisturbed side, `best_quartile` (0.25 of times, 0.75 of
/// rates), which three disturbed passes in four would have to move.
/// One-step passes are scenarios and windows of traffic, which differ in
/// work; of those the run reports the median. The second value names the
/// statistic for the output.
pub fn over_passes(
    passes: &[Pass],
    of: fn(&Pass) -> f64,
    best_quartile: f64,
) -> (f64, &'static str) {
    let mut values: Vec<f64> = passes.iter().map(of).collect();
    if passes[0].steps.count == 1 {
        return (crate::stats::median(&mut values), "median");
    }
    values.sort_unstable_by(f64::total_cmp);
    let name = if best_quartile < 0.5 {
        "first quartile"
    } else {
        "third quartile"
    };
    (crate::stats::nearest_rank(&values, best_quartile), name)
}

/// Operations per second, [`over_passes`].
pub fn ops_rate(passes: &[Pass]) -> (f64, &'static str) {
    over_passes(passes, |p| p.ops / p.secs, 0.75)
}

/// What the two arms of a traced run are compared by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmCost {
    /// Host seconds per operation: wherever the system sets the pace.
    Time,
    /// Process CPU per operation: where the generator sets the pace (the
    /// open loop answers 4 000 ops/s with spans on or off).
    Cpu,
}

/// The measured section of a workload. Untraced: one time-box of
/// `ctx.seconds`. Traced: the same seconds in four parts, spans off for
/// two and on for two; all passes are returned and the two arms' costs
/// per operation recorded for `trace.overhead_share`.
pub fn measured_section(
    ctx: &mut Ctx,
    out: &mut Outcome,
    cost: ArmCost,
    mut section: impl FnMut(&mut Tracer, f64) -> Vec<Pass>,
) {
    let cpu0 = crate::host::cpu_ms();
    if ctx.traced() {
        // Off, on, on, off: a drift over the run (caches warming, a
        // simulation growing) lands on both arms alike.
        let quarter = ctx.seconds / 4.0;
        let mut silent = Tracer::new(false);
        let mut arm = |tracer: &mut Tracer| {
            let cpu = crate::host::cpu_ms();
            let passes = section(tracer, quarter);
            (passes, crate::host::cpu_ms() - cpu)
        };
        let (mut off, mut off_cpu) = arm(&mut silent);
        let (mut on, mut on_cpu) = arm(&mut ctx.tracer);
        let (more, cpu) = arm(&mut ctx.tracer);
        on.extend(more);
        on_cpu += cpu;
        let (more, cpu) = arm(&mut silent);
        off.extend(more);
        off_cpu += cpu;
        let ops = |passes: &[Pass]| passes.iter().map(|p| p.ops).sum::<f64>();
        out.traced_costs = Some(match cost {
            ArmCost::Time => (1.0 / ops_rate(&off).0, 1.0 / ops_rate(&on).0),
            ArmCost::Cpu => (off_cpu / ops(&off), on_cpu / ops(&on)),
        });
        off.extend(on);
        out.passes = off;
    } else {
        out.passes = section(&mut ctx.tracer, ctx.seconds);
    }
    out.cpu_ms = crate::host::cpu_ms() - cpu0;
    out.peak_rss_bytes = crate::host::peak_rss_bytes();
}

/// The value every put writes under `key` and every verified get
/// expects back (odd, so never the 0 a failed get carries).
pub fn value_for(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Dispatches a workload by name.
pub fn run(name: &str, ctx: &mut Ctx) -> Outcome {
    match name {
        "sim-substrate-100k" => substrate::run(ctx, substrate::Size::Large),
        "sim-substrate-1k" => substrate::run(ctx, substrate::Size::Small),
        "sim-quorum-routed" => scenario::run(ctx, scenario::Kind::Routed),
        "sim-quorum-walk" => scenario::run(ctx, scenario::Kind::Walk),
        "loopback-engine" => loopback::run(ctx),
        "serve-closed-readheavy" => serve::run(ctx, serve::Loop::Closed),
        "serve-open-writeheavy" => serve::run(ctx, serve::Loop::Open),
        other => unreachable!("workload {other} passed validation but has no runner"),
    }
}
