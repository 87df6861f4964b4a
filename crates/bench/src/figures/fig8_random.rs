//! Fig. 8 — the cost of RANDOM advertise (a: application messages,
//! b: + routing overhead) as the advertise quorum grows, and (c) the
//! RANDOM lookup hit ratio as the lookup quorum grows. Static networks,
//! d_avg = 10.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_core::Fanout;

pub fn run(b: &mut Bench) {
    let factors = [0.5, 1.0, 1.5, 2.0, 2.5];
    let the_seeds = b.seeds(2);
    let sizes = b.network_sizes();

    // (a)+(b): messages per advertise vs |Qa| = factor*sqrt(n). One
    // scenario per (n, factor) cell, all submitted to the pool at once.
    let advertise_cfgs: Vec<ScenarioConfig> = sizes
        .iter()
        .flat_map(|&n| {
            factors.iter().map(move |&factor| {
                let qa = (factor * (n as f64).sqrt()).round().max(1.0) as u32;
                let mut cfg = ScenarioConfig::paper(n);
                cfg.service.spec.advertise = QuorumSpec::new(AccessStrategy::Random, qa);
                cfg.workload = bench_workload(30, 0, n);
                cfg
            })
        })
        .collect();
    let advertise_aggs = b.aggregates(&advertise_cfgs, &the_seeds);

    b.header(
        "Fig. 8(a,b): RANDOM advertise cost (app msgs | +routing overhead)",
        &["n \\ |Qa|", "0.5√n", "1.0√n", "1.5√n", "2.0√n", "2.5√n"],
    );
    for (chunk, n) in advertise_aggs.chunks(factors.len()).zip(&sizes) {
        let mut cells = vec![n.to_string()];
        for agg in chunk {
            cells.push(format!(
                "{}|{}",
                f(agg.msgs_per_advertise),
                f(agg.routing_per_advertise)
            ));
        }
        b.row(&cells);
        println!(
            "   (cost plateaus at |Qa| >= 2sqrt(n): the membership view holds only 2sqrt(n) ids)"
        );
    }

    // (c): RANDOM lookup hit ratio vs |Ql|.
    let lookup_factors = [0.5, 0.75, 1.0, 1.15, 1.5];
    let lookup_cfgs: Vec<ScenarioConfig> = sizes
        .iter()
        .flat_map(|&n| {
            lookup_factors.iter().map(move |&factor| {
                let ql = (factor * (n as f64).sqrt()).round().max(1.0) as u32;
                let mut cfg = ScenarioConfig::paper(n);
                cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::Random, ql);
                cfg.service.lookup_fanout = Fanout::Serial;
                cfg.workload = bench_workload(30, 150, n);
                cfg
            })
        })
        .collect();
    let lookup_aggs = b.aggregates(&lookup_cfgs, &the_seeds);

    b.header(
        "Fig. 8(c): RANDOM lookup hit ratio vs |Ql| (advertise 2√n)",
        &["n \\ |Ql|", "0.5√n", "0.75√n", "1.0√n", "1.15√n", "1.5√n"],
    );
    for (chunk, n) in lookup_aggs.chunks(lookup_factors.len()).zip(&sizes) {
        let mut cells = vec![n.to_string()];
        cells.extend(chunk.iter().map(|agg| f(agg.hit_ratio)));
        b.row(&cells);
    }
    println!("\nPaper check: 0.9 hit ratio at |Ql| ≈ 1.15·sqrt(n) (Lemma 5.1), and");
    println!("routing overhead dominating the application cost of RANDOM advertise.");
}
