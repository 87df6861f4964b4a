//! Churn resilience: measured degradation vs the §6.1 closed forms, and
//! the robustness knobs that counter it.
//!
//! Part 1: after the advertise phase, a fraction `f` of the network
//! crashes and an equal fraction of fresh nodes joins; the lookup phase
//! then measures how far the intersection probability degraded. The
//! paper's analysis (Fig. 7) predicts `ε(t) = ε^(1−f)` for this regime.
//!
//! Part 2: the same service on a lossy medium — a deterministic
//! `FaultPlan` drops 25% of all frames — once bare and once with an
//! operation-level `RetryPolicy` (deadline + jittered exponential
//! backoff, fresh access set per attempt).
//!
//! Run with: `cargo run --release --example churn_resilience`

use pqs::core::analysis::{intersection_after_churn, ChurnRegime};
use pqs::core::runner::{run_scenario, ChurnPlan, ScenarioConfig};
use pqs::core::workload::WorkloadConfig;
use pqs::core::RetryPolicy;
use pqs::net::FaultPlan;

fn main() {
    let n = 100;
    let mut base = ScenarioConfig::paper(n);
    base.net.avg_degree = 15.0; // the §8.7 setup: density 15 keeps the
                                // survivors connected at every churn level
    base.workload = WorkloadConfig::small(20, 120);

    // The initial quorum sizing's nominal ε.
    let eps0 = 1.0
        - base
            .service
            .spec
            .intersection_lower_bound(n)
            .expect("RANDOM advertise side");

    println!("churn resilience, n = {n}, ε₀ = {eps0:.3} (equal failures and joins)");
    println!();
    println!(
        "{:>6} {:>22} {:>16} {:>12}",
        "f", "analytic P(∩) = 1−ε^(1−f)", "measured hits", "measured P(∩)"
    );

    for &f in &[0.0, 0.1, 0.2, 0.3, 0.5] {
        let mut cfg = base.clone();
        if f > 0.0 {
            cfg.churn = Some(ChurnPlan {
                fail_fraction: f,
                join_fraction: f,
                adjust_lookup: false,
            });
        }
        let analytic = intersection_after_churn(eps0, f, ChurnRegime::FailuresAndJoins);
        let runs = pqs::core::run_seeds(&cfg, &[11, 12, 13]);
        let agg = pqs::core::runner::aggregate(&runs);
        println!(
            "{f:>6.1} {analytic:>22.3} {:>16.3} {:>12.3}",
            agg.hit_ratio, agg.intersection_ratio
        );
    }

    println!();
    println!("the measured intersection ratio should track the analytic curve");
    println!("(within simulation noise): probabilistic quorums degrade gracefully");
    println!("and need only periodic re-advertising, never reconfiguration (§6.1).");

    // Part 2: frame loss instead of churn — and the retry layer that
    // wins the lost operations back. The FaultPlan is part of the
    // scenario, so the whole experiment replays bit-identically from
    // (config, seed).
    println!();
    println!("frame-drop resilience, n = {n}, 25% of frames dropped uniformly");
    println!();
    println!("{:>24} {:>12} {:>14}", "service", "hit ratio", "op retries");
    for (label, retry) in [
        ("single-shot", None),
        ("retry w/ backoff", Some(RetryPolicy::default_policy())),
    ] {
        let mut cfg = base.clone();
        cfg.faults = Some(FaultPlan::new().drop_frames(0.25));
        cfg.service.retry = retry;
        let m = run_scenario(&cfg, 11);
        println!(
            "{label:>24} {:>12.3} {:>14}",
            m.hit_ratio(),
            m.counters.op_retries
        );
    }

    println!();
    println!("the retry layer re-issues missed operations against fresh access");
    println!("sets until the deadline; see bench_results/fault_resilience.json for");
    println!("the full recovery table across drop rates.");
}
