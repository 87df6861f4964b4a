//! Fig. 16 — the summary table: advertise cost and lookup hit/miss costs
//! for the main strategy combinations, static and mobile, at the paper's
//! quorum sizes (|Qa| = 2√n, |Qℓ| = 1.15√n, intersection ≈ 0.9).

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, BiquorumSpec, QuorumSpec};
use pqs_core::Fanout;
use pqs_net::MobilityModel;

struct Combo {
    name: &'static str,
    advertise: QuorumSpec,
    lookup: QuorumSpec,
}

fn scenario(combo: &Combo, n: usize, mobile: bool, present: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(n);
    if mobile {
        cfg.net.mobility = MobilityModel::walking();
    }
    cfg.service.spec = BiquorumSpec::new(combo.advertise, combo.lookup);
    cfg.service.lookup_fanout = Fanout::Serial;
    cfg.workload = bench_workload(25, 100, n);
    cfg.workload.present_fraction = present;
    cfg
}

pub fn run(b: &mut Bench) {
    let n = b.largest_n();
    let the_seeds = b.seeds(2);
    let sq = (n as f64).sqrt();
    let qa = (2.0 * sq).round() as u32;
    let ql = (1.15 * sq).round() as u32;
    // §8.5 sizing: |Qa| = |Ql| ≈ n/4.7 EACH (combined ≈ n/2.35) is what
    // the paper measured for 0.9 hit at n = 800.
    let walk_q = (n as f64 / 4.7).round() as u32;

    let combos = [
        Combo {
            name: "RANDOM x RANDOM",
            advertise: QuorumSpec::new(AccessStrategy::Random, qa),
            lookup: QuorumSpec::new(AccessStrategy::Random, ql),
        },
        Combo {
            name: "RANDOM x RANDOM-OPT",
            advertise: QuorumSpec::new(AccessStrategy::Random, qa),
            lookup: QuorumSpec::new(AccessStrategy::RandomOpt, 4),
        },
        Combo {
            name: "RANDOM x UNIQUE-PATH",
            advertise: QuorumSpec::new(AccessStrategy::Random, qa),
            lookup: QuorumSpec::new(AccessStrategy::UniquePath, ql),
        },
        Combo {
            name: "RANDOM x FLOODING",
            advertise: QuorumSpec::new(AccessStrategy::Random, qa),
            lookup: QuorumSpec::new(AccessStrategy::Flooding, 3),
        },
        Combo {
            name: "UNIQUE x UNIQUE",
            advertise: QuorumSpec::new(AccessStrategy::UniquePath, walk_q),
            lookup: QuorumSpec::new(AccessStrategy::UniquePath, walk_q),
        },
    ];

    // Two scenarios per (mobility, combo) cell — all-present lookups for
    // the hit costs, all-absent for the miss costs — in one pool batch.
    let cfgs: Vec<ScenarioConfig> = [false, true]
        .iter()
        .flat_map(|&mobile| {
            combos.iter().flat_map(move |combo| {
                [1.0, 0.0]
                    .iter()
                    .map(move |&present| scenario(combo, n, mobile, present))
            })
        })
        .collect();
    let aggs = b.aggregates(&cfgs, &the_seeds);

    let mut pairs = aggs.chunks(2);
    for mobile in [false, true] {
        let label = if mobile { "mobile 0.5-2 m/s" } else { "static" };
        b.header(
            &format!("Fig. 16 summary, n = {n}, {label}, target intersection 0.9"),
            &[
                "combination",
                "adv msgs",
                "adv +rt",
                "lkp hit cost",
                "lkp miss cost",
                "hit ratio",
            ],
        );
        for combo in &combos {
            let pair = pairs.next().expect("hit/miss pair per combo");
            let (hits, misses) = (&pair[0], &pair[1]);
            b.row(&[
                combo.name.into(),
                f(hits.msgs_per_advertise),
                f(hits.routing_per_advertise),
                f(hits.msgs_per_lookup + hits.routing_per_lookup),
                f(misses.msgs_per_lookup + misses.routing_per_lookup),
                f(hits.hit_ratio),
            ]);
        }
    }
    println!("\nPaper check (Fig. 16): RANDOM advertise is the expensive side (much");
    println!("more so when routing overhead is counted, and worse when mobile);");
    println!("UNIQUE-PATH lookups are the cheapest hits (early halting makes hits");
    println!("cheaper than misses); UNIQUE x UNIQUE trades cheap advertises for");
    println!("expensive lookups — per Lemma 5.6 it only wins when lookups are rare.");
}
