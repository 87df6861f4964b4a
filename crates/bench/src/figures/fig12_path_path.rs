//! Fig. 12 — the symmetric UNIQUE-PATH × UNIQUE-PATH combination: hit
//! ratio as a function of the combined walk length. Without a RANDOM
//! side, the crossing-time analysis (Theorem 5.5) demands walks of
//! Θ(n/log n); the paper measures 0.9 hit at a combined length ≈ n/2.
//! Also prints the crossing-time scaling check for Theorem 5.5.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_graph::rgg::RggConfig;
use pqs_graph::walks::{crossing_steps, WalkKind};
use pqs_sim::rng;

pub fn run(b: &mut Bench) {
    let n = b.largest_n();
    let the_seeds = b.seeds(2);

    let fractions = [16.0, 8.0, 4.7, 3.0, 2.0];
    let sides: Vec<u32> = fractions
        .iter()
        .map(|&frac| (n as f64 / frac / 2.0).round().max(2.0) as u32)
        .collect();
    let cfgs: Vec<ScenarioConfig> = sides
        .iter()
        .map(|&each| {
            let mut cfg = ScenarioConfig::paper(n);
            cfg.service.spec = pqs_core::BiquorumSpec::new(
                QuorumSpec::new(AccessStrategy::UniquePath, each),
                QuorumSpec::new(AccessStrategy::UniquePath, each),
            );
            cfg.workload = bench_workload(30, 120, n);
            cfg
        })
        .collect();
    let aggs = b.aggregates(&cfgs, &the_seeds);

    b.header(
        &format!("Fig. 12: UNIQUE-PATH x UNIQUE-PATH, n = {n} (|Qa| = |Ql|)"),
        &[
            "combined |Q|",
            "each side",
            "hit ratio",
            "msgs/lookup",
            "msgs/advertise",
        ],
    );
    for ((agg, &each), &frac) in aggs.iter().zip(&sides).zip(&fractions) {
        b.row(&[
            format!("{} (n/{frac:.1})", 2 * each),
            each.to_string(),
            f(agg.hit_ratio),
            f(agg.msgs_per_lookup),
            f(agg.msgs_per_advertise),
        ]);
    }
    println!("\nPaper check: 0.9 hit needs a combined walk length around n/2 —");
    println!("an order of magnitude more than the RANDOM x UNIQUE-PATH mix, and");
    println!("the right length depends on the topology (no generic sizing rule).");

    // Theorem 5.5: crossing time grows like r^-2 — halving the radius
    // (quartering r^2) roughly quadruples the crossing time. One pool
    // job per (r, seed); the per-pair step counts are folded on the main
    // thread in the original order.
    let radii = [0.12f64, 0.08, 0.06];
    let cross_seeds = b.seeds(3);
    let cross_jobs: Vec<_> = radii
        .iter()
        .flat_map(|&r| {
            cross_seeds.iter().map(move |&seed| {
                move || {
                    let mut gr = rng::stream(seed, 55);
                    let net = RggConfig::unit(1000, r).generate(&mut gr);
                    let comp = net.graph().components().remove(0);
                    let mut steps = Vec::new();
                    if comp.len() < 900 {
                        return steps;
                    }
                    for i in 0..6 {
                        let u = comp[i * comp.len() / 6];
                        let v = comp[(i * comp.len() / 6 + comp.len() / 2) % comp.len()];
                        let mut wr = rng::stream(seed * 31 + i as u64, 56);
                        if let Some(t) =
                            crossing_steps(net.graph(), u, v, WalkKind::Simple, &mut wr)
                        {
                            steps.push(t as f64);
                        }
                    }
                    steps
                }
            })
        })
        .collect();
    let cross_results = b.run_jobs(cross_jobs);

    b.header(
        "Theorem 5.5: crossing time of two simple RWs on G2(n=1000, r)",
        &["r", "measured steps", "r^-2 scale"],
    );
    for (chunk, &r) in cross_results.chunks(cross_seeds.len()).zip(&radii) {
        let mut total = 0.0;
        let mut count = 0.0f64;
        for per_seed in chunk {
            for &t in per_seed {
                total += t;
                count += 1.0;
            }
        }
        b.row(&[format!("{r}"), f(total / count.max(1.0)), f(1.0 / (r * r))]);
    }
    println!("\n(the measured column should grow at least as fast as r^-2)");
}
