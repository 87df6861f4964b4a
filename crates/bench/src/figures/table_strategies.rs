//! Fig. 3 — asymptotic and qualitative comparison of the access
//! strategies, with the asymptotic cost column evaluated for concrete
//! network sizes and the PCT constant measured on real RGGs.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::analysis::asymptotic_access_cost;
use pqs_core::runner::{aggregate, ScenarioConfig};
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_graph::rgg::RggConfig;
use pqs_graph::walks::{partial_cover_steps, WalkKind};
use pqs_sim::json::ToJson;
use pqs_sim::rng;

pub fn run(b: &mut Bench) {
    use AccessStrategy::*;
    b.header(
        "Fig. 3: qualitative strategy properties",
        &[
            "strategy",
            "uniform?",
            "routing?",
            "membership?",
            "early halt?",
        ],
    );
    for s in [Random, RandomOpt, Path, UniquePath, Flooding] {
        b.row(&[
            s.to_string(),
            yn(s.is_uniform_random()),
            yn(s.needs_routing()),
            yn(s == Random),
            yn(s.supports_early_halting()),
        ]);
    }

    b.header(
        "Fig. 3: modelled access cost for |Q| = 2*sqrt(n) (messages)",
        &[
            "n",
            "RANDOM",
            "RANDOM-OPT",
            "PATH",
            "UNIQUE-PATH",
            "FLOODING",
        ],
    );
    for n in [50usize, 100, 200, 400, 800] {
        let q = (2.0 * (n as f64).sqrt()).round() as u32;
        b.row(&[
            n.to_string(),
            f(asymptotic_access_cost(Random, q, n)),
            f(asymptotic_access_cost(RandomOpt, q, n)),
            f(asymptotic_access_cost(Path, q, n)),
            f(asymptotic_access_cost(UniquePath, q, n)),
            f(asymptotic_access_cost(Flooding, q, n)),
        ]);
    }

    // Measured PCT constants on RGGs back the PATH rows: steps per
    // distinct node at |Q| = sqrt(n) (Theorem 4.1 predicts a constant;
    // the paper measured ~1.7 for simple walks at d_avg = 10). One pool
    // job per (n, seed) graph; the per-start ratios are folded on the
    // main thread in the original nesting order, so the means are
    // bit-identical to the sequential run.
    let walk_sizes = [100usize, 200, 400, 800];
    let walk_seeds = b.seeds(5);
    let walk_jobs: Vec<_> = walk_sizes
        .iter()
        .flat_map(|&n| {
            walk_seeds.iter().map(move |&seed| {
                move || {
                    let target = (n as f64).sqrt().round() as usize;
                    let mut r = rng::stream(seed, 77);
                    let net = RggConfig::with_avg_degree(n, 10.0).generate(&mut r);
                    let comp = net.graph().components().remove(0);
                    let mut ratios: Vec<(f64, f64)> = Vec::new();
                    for (i, &start) in comp.iter().step_by(comp.len() / 8).enumerate() {
                        let mut wr = rng::stream(seed * 1000 + i as u64, 78);
                        if let (Some(s), Some(u)) = (
                            partial_cover_steps(
                                net.graph(),
                                start,
                                target,
                                WalkKind::Simple,
                                &mut wr,
                            ),
                            partial_cover_steps(
                                net.graph(),
                                start,
                                target,
                                WalkKind::SelfAvoiding,
                                &mut wr,
                            ),
                        ) {
                            ratios.push((s as f64 / target as f64, u as f64 / target as f64));
                        }
                    }
                    ratios
                }
            })
        })
        .collect();
    let walk_results = b.run_jobs(walk_jobs);

    b.header(
        "measured steps-per-unique-node at |Q| = sqrt(n), d_avg = 10",
        &["n", "PATH (simple)", "UNIQUE-PATH", "paper PATH"],
    );
    for (chunk, n) in walk_results.chunks(walk_seeds.len()).zip(&walk_sizes) {
        let mut simple = 0.0;
        let mut unique = 0.0;
        let mut runs = 0.0;
        for per_seed in chunk {
            for &(s, u) in per_seed {
                simple += s;
                unique += u;
                runs += 1.0;
            }
        }
        b.row(&[
            n.to_string(),
            f(simple / runs),
            f(unique / runs),
            "1.7".into(),
        ]);
    }

    // Measured end-to-end runs: advertise/lookup latency percentiles and
    // the per-layer message counters for the three headline lookup
    // strategies (RANDOM advertise at the paper's 2√n throughout).
    let n = 100usize;
    let the_seeds = b.seeds(2);
    let strategies = [
        ("RANDOM", QuorumSpec::new(Random, 12)),
        ("PATH", QuorumSpec::new(Path, 12)),
        ("FLOODING", QuorumSpec::new(Flooding, 3)),
    ];
    let cfgs: Vec<ScenarioConfig> = strategies
        .iter()
        .map(|&(_, lookup_spec)| {
            let mut cfg = ScenarioConfig::paper(n);
            cfg.service.spec.lookup = lookup_spec;
            cfg.workload = bench_workload(30, 120, n);
            cfg
        })
        .collect();
    let all_runs = b.runs(&cfgs, &the_seeds);

    b.header(
        &format!("measured: lookup strategies end to end, n = {n} (latency in s)"),
        &[
            "strategy", "hit", "lkp p50", "lkp p90", "lkp p99", "adv p50", "adv p90", "adv p99",
        ],
    );
    let mut layer_rows = Vec::new();
    for ((name, _), runs) in strategies.iter().zip(&all_runs) {
        let agg = aggregate(runs);
        b.row(&[
            (*name).into(),
            f(agg.hit_ratio),
            f(agg.lookup_p50_s),
            f(agg.lookup_p90_s),
            f(agg.lookup_p99_s),
            f(agg.advertise_p50_s),
            f(agg.advertise_p90_s),
            f(agg.advertise_p99_s),
        ]);
        let (counters, net): (Vec<_>, Vec<_>) =
            runs.iter().map(|r| (r.counters, r.net_stats)).unzip();
        let k = runs.len() as u64;
        let link_tx: u64 = counters.iter().map(|c| c.link_tx()).sum::<u64>() / k;
        let routed: u64 = runs
            .iter()
            .map(|r| r.advertise_phase.data_tx + r.lookup_phase.data_tx)
            .sum::<u64>()
            / k;
        let control: u64 = runs
            .iter()
            .map(|r| r.advertise_phase.control_tx + r.lookup_phase.control_tx)
            .sum::<u64>()
            / k;
        let mac_retries: u64 = net.iter().map(|s| s.mac_retries).sum::<u64>() / k;
        let backoffs: u64 = net.iter().map(|s| s.mac_backoff_draws).sum::<u64>() / k;
        let defers: u64 = net.iter().map(|s| s.mac_channel_defers).sum::<u64>() / k;
        let load_imbalance = runs.iter().map(|r| r.load.imbalance).sum::<f64>() / runs.len() as f64;
        layer_rows.push(vec![
            name.to_string(),
            link_tx.to_string(),
            routed.to_string(),
            control.to_string(),
            mac_retries.to_string(),
            backoffs.to_string(),
            defers.to_string(),
            f(load_imbalance),
        ]);
        b.add_value(&format!("measured_{name}"), agg.to_json());
    }
    b.header(
        "measured: per-layer counters per run (same scenarios)",
        &[
            "strategy",
            "link tx",
            "routed tx",
            "aodv ctl",
            "mac rtx",
            "backoffs",
            "defers",
            "load imb",
        ],
    );
    for cells in layer_rows {
        b.row(&cells);
    }
    println!("\nThe latency percentiles come from the merged per-run HDR histograms");
    println!("(±3% bucket error); per-layer counters are per-run means. FLOODING");
    println!("answers fastest but pays in link transmissions; RANDOM's cost hides");
    println!("in the AODV control column (route discoveries).");
}

fn yn(b: bool) -> String {
    if b { "yes" } else { "no" }.into()
}
