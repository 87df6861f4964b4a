//! Fig. 14(f) — intersection probability under churn: after the
//! advertise phase, a fraction of nodes fails and an equal fraction of
//! fresh nodes joins (static network, d_avg = 15 to keep connectivity);
//! the lookup quorum is adjusted to the new size. Compared against the
//! §6.1 closed form.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::analysis::{intersection_after_churn, ChurnRegime};
use pqs_core::runner::{ChurnPlan, ScenarioConfig};

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

    let fracs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let cfgs: Vec<ScenarioConfig> = fracs
        .iter()
        .map(|&fr| {
            let mut cfg = base.clone();
            if fr > 0.0 {
                cfg.churn = Some(ChurnPlan {
                    fail_fraction: fr,
                    join_fraction: fr,
                    adjust_lookup: true,
                });
            }
            cfg
        })
        .collect();
    let aggs = b.aggregates(&cfgs, &the_seeds);

    b.header(
        &format!("Fig. 14(f): churn degradation, n = {n}, d = 15, eps0 = {eps0:.3}"),
        &[
            "churn f",
            "measured P(∩)",
            "measured hit",
            "analytic fail+join",
            "analytic fail-only",
        ],
    );
    for (agg, &fr) in aggs.iter().zip(&fracs) {
        b.row(&[
            f(fr),
            f(agg.intersection_ratio),
            f(agg.hit_ratio),
            f(intersection_after_churn(
                eps0,
                fr,
                ChurnRegime::FailuresAndJoins,
            )),
            f(intersection_after_churn(
                eps0,
                fr,
                ChurnRegime::FailuresOnly {
                    adjust_lookup: true,
                },
            )),
        ]);
    }
    println!("\nPaper check (§8.7): outstanding survivability — the measured curve");
    println!("degrades slowly and tracks the §6.1 analysis (e.g. ≈0.87 at f = 0.5");
    println!("for failures with an adjusted lookup quorum).");
}
