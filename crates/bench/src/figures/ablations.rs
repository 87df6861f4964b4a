//! Ablations of the design choices DESIGN.md calls out: each row
//! switches one mechanism off (or swaps a model) relative to the paper
//! default (RANDOM × UNIQUE-PATH), under fast mobility where the
//! maintenance machinery matters.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_net::{MobilityModel, PhyConfig};

fn base(n: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.net.mobility = MobilityModel::fast(10.0);
    cfg.workload = bench_workload(25, 120, n);
    cfg
}

pub fn run(b: &mut Bench) {
    let n = 200;
    let the_seeds = b.seeds(3);
    b.header(
        &format!("ablations, RANDOM x UNIQUE-PATH, n = {n}, 10 m/s mobility"),
        &[
            "variant",
            "hit ratio",
            "intersection",
            "msgs/lkp",
            "+rt/lkp",
        ],
    );

    let variants: Vec<(&str, ScenarioConfig)> = vec![
        ("paper default", base(n)),
        ("no RW salvation", {
            let mut c = base(n);
            c.service.rw_salvation = false;
            c
        }),
        ("no reply repair", {
            let mut c = base(n);
            c.service.reply_repair = false;
            c
        }),
        ("no path reduction", {
            let mut c = base(n);
            c.service.reply_path_reduction = false;
            c
        }),
        ("no early halting", {
            let mut c = base(n);
            c.service.early_halting = false;
            c
        }),
        ("+ caching", {
            let mut c = base(n);
            c.service.caching = true;
            c
        }),
        ("+ promiscuous replies", {
            let mut c = base(n);
            c.service.promiscuous_replies = true;
            c
        }),
        ("simple PATH walks", {
            let mut c = base(n);
            c.service.spec.lookup.strategy = pqs_core::AccessStrategy::Path;
            c
        }),
        ("protocol-model PHY", {
            let mut c = base(n);
            c.net.phy = PhyConfig::protocol_model();
            c
        }),
        ("static network", {
            let mut c = base(n);
            c.net.mobility = MobilityModel::Static;
            c
        }),
    ];

    let cfgs: Vec<ScenarioConfig> = variants.iter().map(|(_, cfg)| cfg.clone()).collect();
    let aggs = b.aggregates(&cfgs, &the_seeds);
    for ((name, _), agg) in variants.iter().zip(&aggs) {
        b.row(&[
            (*name).into(),
            f(agg.hit_ratio),
            f(agg.intersection_ratio),
            f(agg.msgs_per_lookup),
            f(agg.routing_per_lookup),
        ]);
    }
    println!("\nreading the table: salvation protects the intersection column,");
    println!("repair protects the hit column, path reduction and early halting");
    println!("cut msgs/lookup, caching shortens repeat lookups, PATH pays extra");
    println!("steps over UNIQUE-PATH for the same target, and the idealised");
    println!("protocol-model PHY confirms the results are not interference");
    println!("artifacts.");
}
