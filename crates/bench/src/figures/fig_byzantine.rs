//! Byzantine-tolerance harness: hit ratio, wrong-read ratio, detection
//! counters and load cost of vote-verified (masking) reads against
//! seeded adversarial node populations.
//!
//! Two arms per cell:
//!
//! - **trusting** — the paper's protocol verbatim: first reply wins, no
//!   vote verification. Liars poison lookups in proportion to how often
//!   a Byzantine replica answers first.
//! - **masking** — `ByzPolicy::masking(b)` with a parallel RANDOM
//!   lookup side inflated by the masking product bound (DESIGN.md §14),
//!   so `b + 1` concurring honest votes arrive except with probability
//!   ε. Wrong reads drop to zero; the price is the larger `|Qℓ|`.
//!
//! Adversary mixes: `liars` (every Byzantine node fabricates) and
//! `mixed` (silent/liar/stale/equivocator in equal shares).
//! Deterministic per `(scenario, seed)`; pool-width invariant.

use pqs_bench::{f, Bench};
use pqs_core::runner::{run_scenario, RunMetrics, ScenarioConfig};
use pqs_core::service::{ByzPolicy, Fanout};
use pqs_core::spec::{self, AccessStrategy};
use pqs_core::workload::WorkloadConfig;
use pqs_core::RetryPolicy;
use pqs_net::{FaultPlan, NodeBehavior};
use pqs_plan::{Planner, PlannerConfig};
use pqs_sim::SimDuration;

const EPSILON: f64 = 0.1;
/// The bench workload ratio: 40 lookups per 12 advertises.
const TAU: f64 = 40.0 / 12.0;

/// The adversary count implied by a fraction — matches how
/// `FaultPlan::behavior_fraction` resolves its victim set.
fn byz_count(n: usize, frac: f64) -> u32 {
    (frac * n as f64).round() as u32
}

/// One experiment cell: an adversary fraction plus a behavior mix.
struct Cell {
    frac: f64,
    mix_name: &'static str,
    mix: Vec<NodeBehavior>,
}

fn cells() -> Vec<Cell> {
    let mut out = vec![Cell {
        frac: 0.0,
        mix_name: "none",
        mix: Vec::new(),
    }];
    for frac in [0.05, 0.1, 0.2] {
        out.push(Cell {
            frac,
            mix_name: "liars",
            mix: vec![NodeBehavior::Liar],
        });
        out.push(Cell {
            frac,
            mix_name: "mixed",
            mix: vec![
                NodeBehavior::Silent,
                NodeBehavior::Liar,
                NodeBehavior::Stale,
                NodeBehavior::Equivocator,
            ],
        });
    }
    out
}

/// Builds one cell's scenario. The trusting arm is the paper's protocol
/// untouched; the masking arm switches the lookup side to parallel
/// RANDOM probes sized by the masking product bound and verifies votes.
fn scenario(n: usize, cell: &Cell, masking: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(n);
    // Paced workload: the masking fan-out is ~|Qℓ| routed probes per
    // lookup, so the lookup rate stays at the §8 half-per-second point
    // instead of the denser sweep workloads.
    cfg.workload = WorkloadConfig::small(12, 40);
    if !cell.mix.is_empty() {
        cfg.faults = Some(FaultPlan::new().behavior_fraction(cell.frac, &cell.mix));
    }
    if masking {
        let b = byz_count(n, cell.frac);
        // Both sides sized by the byz-aware planner: the masking product
        // bound splits per Lemma 5.6, inflating advertise and lookup
        // quorums together instead of pinning one side at the paper size.
        let planner = Planner::new(PlannerConfig {
            lookup_strategy: AccessStrategy::Random,
            byz_b: b,
            ..PlannerConfig::paper_default()
        });
        cfg.service.spec = planner.plan(n, TAU).spec;
        // Quorum picks draw from the membership view — widen it so the
        // inflated sides are actually reachable (the 2√n default would
        // silently cap them).
        let side = cfg
            .service
            .spec
            .advertise
            .size
            .max(cfg.service.spec.lookup.size);
        cfg.service.membership_view_factor = (f64::from(side) * 1.25 / (n as f64).sqrt()).max(2.0);
        cfg.service.lookup_fanout = Fanout::Parallel;
        // Pace the inflated fan-out: ~100 simultaneous route discoveries
        // per lookup melt the MAC; a verified read cancels the rest.
        cfg.service.probe_spacing = SimDuration::from_millis(30);
        cfg.service.early_halting = false;
        cfg.service.byz = ByzPolicy::masking(b);
        // Retries recover replica sets that came up short of b + 1
        // votes; quorum adaptation stays off so the masking-inflated
        // |Qℓ| is not re-derived from the crash-only bound. The attempt
        // timeout covers the paced fan-out.
        cfg.service.retry = Some(RetryPolicy {
            adapt_quorum: false,
            attempt_timeout: SimDuration::from_secs(10),
            ..RetryPolicy::default_policy()
        });
    }
    cfg
}

fn aggregate(chunk: &[RunMetrics]) -> (f64, f64, f64, f64) {
    let (mut hits, mut wrong, mut lookups) = (0usize, 0usize, 0usize);
    let (mut suspected, mut unverified) = (0u64, 0u64);
    for m in chunk {
        hits += m.hits;
        wrong += m.wrong_reads;
        lookups += m.lookups;
        suspected += m.counters.byz_suspected_replies;
        unverified += m.counters.lookup_unverified;
    }
    let lk = lookups.max(1) as f64;
    (
        hits as f64 / lk,
        wrong as f64 / lk,
        suspected as f64 / lk,
        unverified as f64 / lk,
    )
}

pub fn run(b: &mut Bench) {
    let n = 100;
    let seed_list = b.seeds(3);
    let cell_list = cells();
    let honest_product = spec::min_quorum_product(n, EPSILON);
    b.header(
        &format!(
            "Byzantine arms: trusting first-reply vs masking vote-verified reads \
             (n = {n}, eps = {EPSILON}, {} seeds)",
            seed_list.len()
        ),
        &[
            "arm", "f", "mix", "hit", "wrong", "suspect", "unverif", "qa", "ql", "inflate",
        ],
    );
    // One pool job per (arm, cell, seed): every cell is an independent
    // simulation, so the sweep stays deterministic at any pool width.
    let mut jobs = Vec::new();
    for masking in [false, true] {
        for cell in &cell_list {
            let cfg = scenario(n, cell, masking);
            for &seed in &seed_list {
                let cfg = cfg.clone();
                jobs.push(move || run_scenario(&cfg, seed));
            }
        }
    }
    let results = b.run_jobs(jobs);
    for (arm_idx, arm_chunk) in results
        .chunks(cell_list.len() * seed_list.len())
        .enumerate()
    {
        let masking = arm_idx == 1;
        for (chunk, cell) in arm_chunk.chunks(seed_list.len()).zip(&cell_list) {
            let (hit, wrong, suspect, unverif) = aggregate(chunk);
            let cfg = scenario(n, cell, masking);
            let qa = cfg.service.spec.advertise.size;
            let ql = cfg.service.spec.lookup.size;
            let inflate = f64::from(qa) * f64::from(ql) / honest_product;
            b.row(&[
                if masking { "masking" } else { "trusting" }.to_string(),
                f(cell.frac),
                cell.mix_name.to_string(),
                f(hit),
                f(wrong),
                f(suspect),
                f(unverif),
                qa.to_string(),
                ql.to_string(),
                f(inflate),
            ]);
        }
    }
    println!("\nTrusting reads accept the first reply, so every liar that answers");
    println!("ahead of an honest replica lands a wrong read. Masking reads wait for");
    println!("b+1 concurring votes from a lookup side inflated per DESIGN.md §14:");
    println!("wrong reads vanish and fabricated replies surface in the `suspect`");
    println!("column; the cost is the `inflate` factor over n*ln(1/eps).");
}
