//! Fig. 15 — the head-to-head lookup comparison: hit ratio vs messages
//! per lookup for UNIQUE-PATH, FLOODING and RANDOM-OPT against a RANDOM
//! advertise quorum. Each strategy is swept over its control parameter.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_core::Fanout;

pub fn run(b: &mut Bench) {
    let n = b.largest_n();
    let the_seeds = b.seeds(2);

    let sweeps: [(AccessStrategy, Vec<u32>); 3] = [
        (
            AccessStrategy::UniquePath,
            [0.5, 0.75, 1.0, 1.15, 1.5]
                .iter()
                .map(|&x| (x * (n as f64).sqrt()).round() as u32)
                .collect(),
        ),
        (AccessStrategy::Flooding, vec![1, 2, 3, 4]),
        (AccessStrategy::RandomOpt, vec![1, 2, 4, 6]),
    ];

    let cells: Vec<(AccessStrategy, u32)> = sweeps
        .iter()
        .flat_map(|(strategy, params)| params.iter().map(move |&p| (*strategy, p)))
        .collect();
    let cfgs: Vec<ScenarioConfig> = cells
        .iter()
        .map(|&(strategy, param)| {
            let mut cfg = ScenarioConfig::paper(n);
            cfg.service.spec.lookup = QuorumSpec::new(strategy, param);
            cfg.service.lookup_fanout = Fanout::Parallel;
            cfg.workload = bench_workload(30, 150, n);
            cfg
        })
        .collect();
    let aggs = b.aggregates(&cfgs, &the_seeds);

    b.header(
        &format!("Fig. 15: hit ratio vs msgs/lookup, RANDOM advertise, n = {n}"),
        &[
            "lookup strategy",
            "param",
            "msgs/lookup",
            "hit ratio",
            "+routing/lkp",
        ],
    );
    for (agg, &(strategy, param)) in aggs.iter().zip(&cells) {
        b.row(&[
            strategy.to_string(),
            param.to_string(),
            f(agg.msgs_per_lookup),
            f(agg.hit_ratio),
            f(agg.routing_per_lookup),
        ]);
    }
    println!("\nPaper check (Fig. 15 / §8.8): FLOODING is competitive at low hit");
    println!("ratios but its last TTL step is disproportionately expensive;");
    println!("UNIQUE-PATH reaches high hit ratios with fine-grained, near-linear");
    println!("cost; RANDOM-OPT is inferior once its routing price is counted.");
}
