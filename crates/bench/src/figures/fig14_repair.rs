//! Fig. 14(a–e) — fast mobility WITH the reply-path local-repair
//! technique (TTL-3 scoped routing plus a global fallback): the hit
//! ratio is restored at the price of some routing; a proactively larger
//! advertise quorum (3√n) helps further.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_net::MobilityModel;

pub fn run(b: &mut Bench) {
    let n = b.largest_n();
    let the_seeds = b.seeds(2);
    let speeds = [2.0, 5.0, 10.0, 20.0];

    let speed_cfgs: Vec<ScenarioConfig> = speeds
        .iter()
        .map(|&speed| {
            let mut cfg = ScenarioConfig::paper(n);
            cfg.net.mobility = MobilityModel::fast(speed);
            cfg.workload = bench_workload(30, 150, n);
            cfg
        })
        .collect();
    let speed_runs = b.runs(&speed_cfgs, &the_seeds);

    b.header(
        &format!("Fig. 14(a-d): fast mobility WITH local repair, n = {n}"),
        &[
            "max speed",
            "hit",
            "intersection",
            "msgs/lkp",
            "+routing/lkp",
            "repairs/lkp",
        ],
    );
    for (runs, &speed) in speed_runs.iter().zip(&speeds) {
        let agg = pqs_core::runner::aggregate(runs);
        let repairs: f64 = runs
            .iter()
            .map(|r| {
                (r.counters.local_repairs + r.counters.global_repairs) as f64 / r.lookups as f64
            })
            .sum::<f64>()
            / runs.len() as f64;
        b.row(&[
            format!("{speed} m/s"),
            f(agg.hit_ratio),
            f(agg.intersection_ratio),
            f(agg.msgs_per_lookup),
            f(agg.routing_per_lookup),
            f(repairs),
        ]);
    }

    let factors = [2.0, 3.0];
    let proactive_cfgs: Vec<ScenarioConfig> = factors
        .iter()
        .map(|&factor| {
            let qa = (factor * (n as f64).sqrt()).round() as u32;
            let mut cfg = ScenarioConfig::paper(n);
            cfg.net.mobility = MobilityModel::fast(20.0);
            cfg.service.spec.advertise = QuorumSpec::new(AccessStrategy::Random, qa);
            cfg.service.membership_view_factor = factor.max(2.0);
            cfg.workload = bench_workload(30, 150, n);
            // A larger advertise quorum sends proportionally more routed
            // stores: widen the advertise window so the comparison is not
            // confounded by extra contention.
            cfg.workload.advertise_window =
                cfg.workload.advertise_window * (factor * 2.0) as u64 / 4;
            cfg
        })
        .collect();
    let proactive_aggs = b.aggregates(&proactive_cfgs, &the_seeds);

    b.header(
        &format!("Fig. 14(e): proactive |Qa| = 3*sqrt(n) at 20 m/s, n = {n}"),
        &["advertise |Q|", "hit ratio", "intersection"],
    );
    for (agg, &factor) in proactive_aggs.iter().zip(&factors) {
        let qa = (factor * (n as f64).sqrt()).round() as u32;
        b.row(&[
            format!("{factor}√n = {qa}"),
            f(agg.hit_ratio),
            f(agg.intersection_ratio),
        ]);
    }
    println!("\nPaper check (Fig. 14): local+global repairs restore the hit ratio");
    println!("that Fig. 13 lost, at a routing price growing with speed; a larger");
    println!("advertise quorum shortens lookups and reduces reply-path breakage.");
    println!("(|Qa| > 2sqrt(n) exceeds the membership view, so the proactive run");
    println!("also refreshes views — compare the hit columns, not absolutes.)");
}
