//! Fig. 10 — RANDOM advertise with UNIQUE-PATH lookup under walking-speed
//! mobility: hit ratio and messages per lookup as the target quorum size
//! grows. The headline numbers of the paper: 0.9 hit at |Qℓ| ≈ 1.15√n,
//! costing *fewer than |Qℓ|* messages including the reply.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_net::MobilityModel;

pub fn run(b: &mut Bench) {
    let factors = [0.5, 0.75, 1.0, 1.15, 1.5, 2.0];
    let the_seeds = b.seeds(2);
    let sizes = b.network_sizes();

    let quorums: Vec<(usize, u32)> = sizes
        .iter()
        .flat_map(|&n| {
            factors
                .iter()
                .map(move |&factor| (n, (factor * (n as f64).sqrt()).round().max(1.0) as u32))
        })
        .collect();
    let cfgs: Vec<ScenarioConfig> = quorums
        .iter()
        .map(|&(n, ql)| {
            let mut cfg = ScenarioConfig::paper(n);
            cfg.net.mobility = MobilityModel::walking();
            cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::UniquePath, ql);
            cfg.workload = bench_workload(30, 150, n);
            cfg
        })
        .collect();
    let aggs = b.aggregates(&cfgs, &the_seeds);

    b.header(
        "Fig. 10(a,b): UNIQUE-PATH lookup hit ratio vs |Ql| (mobile 0.5-2 m/s)",
        &[
            "n \\ |Ql|",
            "0.5√n",
            "0.75√n",
            "1.0√n",
            "1.15√n",
            "1.5√n",
            "2.0√n",
        ],
    );
    let mut msgs_rows = Vec::new();
    for ((chunk, quorum_chunk), n) in aggs
        .chunks(factors.len())
        .zip(quorums.chunks(factors.len()))
        .zip(&sizes)
    {
        let mut hit_cells = vec![n.to_string()];
        let mut msg_cells = vec![n.to_string()];
        for (agg, &(_, ql)) in chunk.iter().zip(quorum_chunk) {
            hit_cells.push(f(agg.hit_ratio));
            msg_cells.push(format!("{} (Q={ql})", f(agg.msgs_per_lookup)));
        }
        b.row(&hit_cells);
        msgs_rows.push(msg_cells);
    }

    b.header(
        "Fig. 10(c,d): messages per lookup (walk steps + reply, no routing)",
        &[
            "n \\ |Ql|",
            "0.5√n",
            "0.75√n",
            "1.0√n",
            "1.15√n",
            "1.5√n",
            "2.0√n",
        ],
    );
    for cells in msgs_rows {
        b.row(&cells);
    }
    println!("\nPaper check: 0.9 hit at |Ql| ≈ 1.15·sqrt(n); messages per lookup stay");
    println!("*below* |Ql| thanks to early halting (~|Ql|/2 to the hit), reply-path");
    println!("reduction, and the originator counting itself in the quorum (§8.3).");
}
