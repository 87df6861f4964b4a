//! Fig. 13 — fast mobility WITHOUT reply-path repair: the hit ratio
//! degrades with speed, the intersection probability itself does not
//! (RW salvation at work), and the gap is exactly the dropped replies.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::ScenarioConfig;
use pqs_net::MobilityModel;

pub fn run(b: &mut Bench) {
    let n = b.largest_n();
    let the_seeds = b.seeds(2);
    let speeds = [2.0, 5.0, 10.0, 20.0];

    let cfgs: Vec<ScenarioConfig> = speeds
        .iter()
        .map(|&speed| {
            let mut cfg = ScenarioConfig::paper(n);
            cfg.net.mobility = MobilityModel::fast(speed);
            cfg.service.reply_repair = false;
            cfg.workload = bench_workload(30, 150, n);
            cfg
        })
        .collect();
    let all_runs = b.runs(&cfgs, &the_seeds);

    b.header(
        &format!("Fig. 13: fast mobility, NO reply-path repair, n = {n}"),
        &[
            "max speed",
            "hit ratio",
            "intersection",
            "reply drop %",
            "salvations/lkp",
        ],
    );
    for (runs, &speed) in all_runs.iter().zip(&speeds) {
        let agg = pqs_core::runner::aggregate(runs);
        let salvages: f64 = runs
            .iter()
            .map(|r| r.counters.salvations as f64 / r.lookups as f64)
            .sum::<f64>()
            / runs.len() as f64;
        b.row(&[
            format!("{speed} m/s"),
            f(agg.hit_ratio),
            f(agg.intersection_ratio),
            f(agg.reply_drop_ratio * 100.0),
            f(salvages),
        ]);
    }
    println!("\nPaper check (Fig. 13): the intersection column stays flat — RW");
    println!("salvation re-aims broken walk steps — while the hit ratio falls with");
    println!("speed because reply messages die on the stale reverse path.");
}
