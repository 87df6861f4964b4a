//! Adaptive controller vs. static plan under population-replacement
//! churn: between the phases a fraction `f` of the nodes fails and an
//! equal fraction of fresh nodes joins, so `n` stays constant but the
//! advertise-holding population shrinks to `1 − f`. A static plan
//! (lookup quorum *not* adjusted) degrades toward the §6.1 closed form
//! `1 − ε^(1−f)`; the adaptive controller (pqs-plan) folds the §6.3
//! population estimate, the observed τ and the advertise-survivor
//! fraction into the planner each tick and re-sizes the lookup quorum
//! to keep the measured intersection probability at `1 − ε`.
//!
//! A second, purely analytic section prints the planner's working
//! points across workload ratios τ (Lemma 5.6 split + Corollary 5.3
//! floor + §6.1 refresh budget).

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::analysis::{intersection_after_churn, ChurnRegime};
use pqs_core::runner::{aggregate, ChurnPlan, RunMetrics, ScenarioConfig};
use pqs_plan::{run_adaptive_scenario, ControllerConfig, Planner, PlannerConfig};

pub fn run(b: &mut Bench) {
    let n = b.largest_n();
    let the_seeds = b.seeds(3);

    let mut base = ScenarioConfig::paper(n);
    base.net.avg_degree = 15.0;
    base.workload = bench_workload(30, 150, n);
    let eps0 = 1.0
        - base
            .service
            .spec
            .intersection_lower_bound(n)
            .expect("RANDOM side");
    let ctrl = ControllerConfig::default_config(PlannerConfig::paper_default());

    // The acceptance grid: fail f + join f with a *frozen* lookup
    // quorum — the regime where a static plan visibly decays while the
    // population count alone looks healthy.
    let fracs = [0.0, 0.3, 0.5];
    let cfgs: Vec<ScenarioConfig> = fracs
        .iter()
        .map(|&fr| {
            let mut cfg = base.clone();
            if fr > 0.0 {
                cfg.churn = Some(ChurnPlan {
                    fail_fraction: fr,
                    join_fraction: fr,
                    adjust_lookup: false,
                });
            }
            cfg
        })
        .collect();

    let static_runs = b.runs(&cfgs, &the_seeds);
    let jobs: Vec<_> = cfgs
        .iter()
        .flat_map(|cfg| {
            the_seeds
                .iter()
                .map(move |&seed| move || run_adaptive_scenario(cfg, ctrl, seed))
        })
        .collect();
    let mut flat = b.run_jobs(jobs).into_iter();
    let adaptive_runs: Vec<Vec<RunMetrics>> = cfgs
        .iter()
        .map(|_| {
            the_seeds
                .iter()
                .map(|_| flat.next().expect("one run per (scenario, seed)"))
                .collect()
        })
        .collect();

    b.header(
        &format!("Adaptive vs static under replacement churn, n = {n}, d = 15, eps = {eps0:.3}"),
        &[
            "churn f",
            "static P(∩)",
            "adaptive P(∩)",
            "analytic static",
            "target 1-eps",
            "reconfigs",
            "holds",
        ],
    );
    for (i, &fr) in fracs.iter().enumerate() {
        let static_agg = aggregate(&static_runs[i]);
        let adaptive = &adaptive_runs[i];
        let k = adaptive.len() as f64;
        let mean =
            |pick: fn(&RunMetrics) -> u64| adaptive.iter().map(|r| pick(r) as f64).sum::<f64>() / k;
        b.row(&[
            f(fr),
            f(static_agg.intersection_ratio),
            f(aggregate(adaptive).intersection_ratio),
            f(intersection_after_churn(
                eps0,
                fr,
                ChurnRegime::FailuresAndJoins,
            )),
            f(1.0 - eps0),
            f(mean(|r| r.counters.reconfigures)),
            f(mean(|r| {
                r.counters.controller_holds_no_estimate
                    + r.counters.controller_holds_dead_band
                    + r.counters.controller_holds_dwell
            })),
        ]);
    }

    // Analytic companion: what the planner would provision across
    // workload mixes at this population (Lemma 5.6 + Corollary 5.3 +
    // the §6.1 refresh budget). Deterministic — no simulation involved.
    let planner = Planner::new(PlannerConfig::paper_default());
    b.header(
        &format!("Planner working points, n = {n}, eps = 0.1, Cost_a:Cost_l = 5:1"),
        &["tau", "|Qa|", "|Ql|", "miss bound", "refresh f"],
    );
    for tau in [2.0, 10.0, 50.0] {
        let plan = planner.plan(n, tau);
        b.row(&[
            f(tau),
            plan.spec.advertise.size.to_string(),
            plan.spec.lookup.size.to_string(),
            f(plan.miss_probability()),
            f(plan.refresh_churn),
        ]);
    }

    println!("\nAcceptance check: with f = 0.5 the population is replaced by half");
    println!("while n stays constant — the static arm decays toward 1 - eps^(1-f)");
    println!("whereas the controller's survivor-fraction floor grows the lookup");
    println!("quorum and holds the measured intersection near 1 - eps.");
}
