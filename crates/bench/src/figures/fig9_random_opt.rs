//! Fig. 9 — RANDOM advertise with RANDOM-OPT lookup: hit ratio, messages
//! and routing price for a handful of routed probes whose relays answer
//! from their own stores (the §4.5 cross-layer tap). Static and mobile.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_core::Fanout;
use pqs_net::MobilityModel;

pub fn run(b: &mut Bench) {
    let probes = [1u32, 2, 4, 6, 8];
    let the_seeds = b.seeds(2);
    let sizes = [200usize, b.largest_n()];

    // One scenario per (mobility, n, probes) cell, all on the pool.
    let cfgs: Vec<ScenarioConfig> = [false, true]
        .iter()
        .flat_map(|&mobile| {
            sizes.iter().flat_map(move |&n| {
                probes.into_iter().map(move |x| {
                    let mut cfg = ScenarioConfig::paper(n);
                    if mobile {
                        cfg.net.mobility = MobilityModel::walking();
                    }
                    cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::RandomOpt, x);
                    cfg.service.lookup_fanout = Fanout::Parallel;
                    cfg.workload = bench_workload(30, 120, n);
                    cfg
                })
            })
        })
        .collect();
    let aggs = b.aggregates(&cfgs, &the_seeds);

    let mut agg_rows = aggs.chunks(probes.len());
    for mobile in [false, true] {
        let label = if mobile { "mobile 0.5-2 m/s" } else { "static" };
        b.header(
            &format!("Fig. 9: RANDOM-OPT lookup, {label} (hit | msgs | routing per lookup)"),
            &["n \\ probes", "1", "2", "4", "6", "8"],
        );
        for &n in &sizes {
            let chunk = agg_rows.next().expect("one chunk per (mobility, n)");
            let mut cells = vec![n.to_string()];
            for agg in chunk {
                cells.push(format!(
                    "{}|{}|{}",
                    f(agg.hit_ratio),
                    f(agg.msgs_per_lookup),
                    f(agg.routing_per_lookup)
                ));
            }
            b.row(&cells);
        }
    }
    println!("\nPaper check (§8.2): ~ln(n) probes reach 0.9 hit ratio — far fewer");
    println!("targets than RANDOM's 1.15·sqrt(n) — because every relay node also");
    println!("performs the lookup; the routing price still makes it inferior to");
    println!("UNIQUE-PATH, and mobility degrades it slightly (lost replies, longer");
    println!("stale routes).");
}
