//! Weighted-strategy load balance (PR 10 tentpole): measured per-node
//! load of the optimizer's weighted mixture vs uniform-random sizing,
//! at equal hit ratio.
//!
//! Both arms run the *same* planner-sized quorum product over the same
//! scenario and seeds. The uniform arm accesses one RANDOM/RANDOM pair
//! for every operation — the paper's sizing, which funnels every probe
//! through routed unicasts and concentrates load on relay hubs. The
//! weighted arm keeps the identical sizes but lets each operation draw
//! its quorum candidate from the optimizer's mixture
//! ([`pqs_plan::Optimizer`], DESIGN.md §18), which shifts lookup weight
//! toward access strategies whose work lands flatter (walks, TTL
//! floods) while the mixture ε gate keeps the intersection guarantee.
//!
//! The headline metric is `total_load` — receiver-side upcalls *plus*
//! router forwarding work per node (PR 10 satellite: forwarding used to
//! be invisible to the balance view). On a broadcast medium the
//! `max/mean` ratio is shaped by the topology (every frame is overheard
//! by the whole neighbourhood), so what a strategy mixture can and does
//! move is the *peak itself*: the heaviest node's absolute load and the
//! p99 tail. Acceptance: the weighted arm's measured peak per-node
//! load (p99) drops ≥ 20 % below uniform at a hit ratio within ±0.01.
//!
//! The Malkhi–Reiter–Wool theoretical load `(E[|Qa|] + τ·E[|Qℓ|]) /
//! (n(1+τ))` is reported alongside each arm — the analytic floor any
//! access implementation can at best achieve.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::{aggregate, RunMetrics, ScenarioConfig};
use pqs_core::service::RetryPolicy;
use pqs_core::spec::AccessStrategy;
use pqs_plan::{Optimizer, OptimizerConfig, PlannerConfig};
use pqs_sim::json::JsonValue;

pub fn run(b: &mut Bench) {
    let n = b.largest_n();
    let the_seeds = b.seeds(3);
    let advertises = 30;
    let lookups = 150;
    let tau = lookups as f64 / advertises as f64;

    // Both arms are sized from the same RANDOM/RANDOM planner: this is
    // the "uniform-random sizing" baseline the mixture must beat on
    // measured balance without giving up its hit ratio. ε = 0.02 sizes
    // both arms with margin, so MAC losses leave the measured hit
    // ratios near the ceiling where they can be compared within ±0.01.
    let planner_cfg = PlannerConfig {
        epsilon: 0.02,
        tau,
        lookup_strategy: AccessStrategy::Random,
        ..PlannerConfig::paper_default()
    };
    let opt = Optimizer::new(OptimizerConfig {
        planner: planner_cfg,
        ..OptimizerConfig::paper_default()
    });
    let wp = opt.plan(n, tau);

    let mut base = ScenarioConfig::paper(n);
    base.net.avg_degree = 10.0;
    base.workload = bench_workload(advertises, lookups, n);
    // The planner's ε = 0.02 advertise quorums are ~50 % larger than the
    // paper sizing the stock pacing assumes; stretch the advertise phase
    // so the MAC is not the bottleneck in either arm (this figure
    // compares load placement, not admission control).
    base.workload.advertise_window = base.workload.advertise_window * 4;
    // Retries on, identically, in both arms: single-shot accesses turn
    // every lost frame into a miss, which punishes sequential walks
    // (one loss truncates the tail) harder than independent unicasts
    // and would confound the hit-ratio comparison. The attempt timeout
    // is stretched past a full walk's flight time (the stock 5 s
    // re-issues walks that are still making progress), and quorum
    // adaptation stays off so the planner alone controls the sizes the
    // two arms are compared at.
    base.service.retry = Some(RetryPolicy {
        attempt_timeout: pqs_sim::SimDuration::from_secs(15),
        adapt_quorum: false,
        ..RetryPolicy::default_policy()
    });
    base.service.spec = wp.uniform.spec;

    let mut weighted = base.clone();
    weighted.service.weighted = Some(wp.spec);

    b.header(
        &format!(
            "Weighted plan, n = {n}, eps = {:.2}, tau = {tau}, f = {:.2}",
            wp.epsilon, wp.f_resilience
        ),
        &["side", "strategy", "size", "weight"],
    );
    for (spec, w) in wp.spec.advertise.candidates() {
        b.row(&[
            "advertise".into(),
            spec.strategy.to_string(),
            spec.size.to_string(),
            f(w),
        ]);
    }
    for (spec, w) in wp.spec.lookup.candidates() {
        b.row(&[
            "lookup".into(),
            spec.strategy.to_string(),
            spec.size.to_string(),
            f(w),
        ]);
    }

    b.header(
        "analytic: predicted peak load and MRW floor",
        &["arm", "miss bound", "predicted peak", "MRW load"],
    );
    b.row(&[
        "uniform".into(),
        f(wp.uniform.miss_probability()),
        f(wp.predicted_peak_uniform),
        f(wp.mrw_load_uniform),
    ]);
    b.row(&[
        "weighted".into(),
        f(wp.miss_bound),
        f(wp.predicted_peak),
        f(wp.mrw_load),
    ]);

    let runs = b.runs(&[base, weighted], &the_seeds);
    let arm = |rs: &[RunMetrics]| {
        let k = rs.len() as f64;
        let mean = |pick: fn(&RunMetrics) -> f64| rs.iter().map(pick).sum::<f64>() / k;
        (
            aggregate(rs).hit_ratio,
            mean(|r| r.total_load.imbalance),
            mean(|r| r.total_load.p99 as f64),
            mean(|r| r.total_load.mean),
            mean(|r| r.load.imbalance),
        )
    };
    let (hit_u, imb_u, p99_u, mean_u, app_u) = arm(&runs[0]);
    let (hit_w, imb_w, p99_w, mean_w, app_w) = arm(&runs[1]);

    b.header(
        &format!("measured: per-node load, n = {n} (total = upcalls + forwards)"),
        &[
            "arm",
            "hit",
            "total imb",
            "total p99",
            "total mean",
            "upcall imb",
        ],
    );
    b.row(&[
        "uniform".into(),
        f(hit_u),
        f(imb_u),
        f(p99_u),
        f(mean_u),
        f(app_u),
    ]);
    b.row(&[
        "weighted".into(),
        f(hit_w),
        f(imb_w),
        f(p99_w),
        f(mean_w),
        f(app_w),
    ]);

    let peak_drop = if p99_u > 0.0 {
        1.0 - p99_w / p99_u
    } else {
        0.0
    };
    let hit_delta = (hit_u - hit_w).abs();
    b.header(
        "acceptance: peak per-node load drop at equal hit ratio",
        &[
            "peak (p99) drop",
            "hit delta",
            "target drop",
            "target delta",
        ],
    );
    b.row(&[f(peak_drop), f(hit_delta), "0.200".into(), "0.010".into()]);

    b.add_value("uniform_peak", JsonValue::from(p99_u));
    b.add_value("weighted_peak", JsonValue::from(p99_w));
    b.add_value("peak_drop", JsonValue::from(peak_drop));
    b.add_value("uniform_imbalance", JsonValue::from(imb_u));
    b.add_value("weighted_imbalance", JsonValue::from(imb_w));
    b.add_value("hit_uniform", JsonValue::from(hit_u));
    b.add_value("hit_weighted", JsonValue::from(hit_w));

    println!("\nAcceptance check: the weighted mixture must cut the measured peak");
    println!("(p99) per-node total load by >= 20% against uniform-random sizing");
    println!("while keeping the hit ratio within +-0.01 — balance is bought with");
    println!("weights, never with intersection probability.");
}
