//! Fig. 5 — flooding coverage: how many nodes a TTL-scoped flood reaches
//! (a, b) and the coverage granularity `CG(i) = N_i / N_{i-1}` (c, d),
//! for varying network sizes and densities.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::runner::{RunMetrics, ScenarioConfig};
use pqs_core::spec::{AccessStrategy, QuorumSpec};

fn flood_cfg(n: usize, d_avg: f64, ttl: u32) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.net.avg_degree = d_avg;
    cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::Flooding, ttl);
    // Pure coverage measurement: flood lookups for absent keys.
    cfg.workload = bench_workload(0, 25, n);
    cfg
}

/// Mean nodes covered by one flood, over the per-seed runs of one cell.
fn coverage(runs: &[RunMetrics]) -> f64 {
    let total: f64 = runs
        .iter()
        .map(|m| m.counters.flood_covered as f64 / m.lookups as f64)
        .sum();
    total / runs.len() as f64
}

pub fn run(b: &mut Bench) {
    let ttls = [1u32, 2, 3, 4, 5, 6];
    let the_seeds = b.seeds(2);
    let sizes = b.network_sizes();
    let densities = [7.0, 10.0, 15.0, 20.0, 25.0];

    // Both sweeps — (n × TTL) at d = 10 and (density × TTL) at n = 400 —
    // go to the pool as one batch of (scenario × seed) jobs.
    let mut cfgs: Vec<ScenarioConfig> = sizes
        .iter()
        .flat_map(|&n| ttls.iter().map(move |&t| flood_cfg(n, 10.0, t)))
        .collect();
    cfgs.extend(
        densities
            .iter()
            .flat_map(|&d| ttls.iter().map(move |&t| flood_cfg(400, d, t))),
    );
    let all_runs = b.runs(&cfgs, &the_seeds);
    let (size_runs, density_runs) = all_runs.split_at(sizes.len() * ttls.len());

    b.header(
        "Fig. 5(a): nodes covered vs TTL (d_avg = 10)",
        &["n \\ TTL", "1", "2", "3", "4", "5", "6"],
    );
    let mut by_n: Vec<(usize, Vec<f64>)> = Vec::new();
    for (chunk, &n) in size_runs.chunks(ttls.len()).zip(&sizes) {
        let cov: Vec<f64> = chunk.iter().map(|runs| coverage(runs)).collect();
        b.row(
            &std::iter::once(n.to_string())
                .chain(cov.iter().map(|&c| f(c)))
                .collect::<Vec<_>>(),
        );
        by_n.push((n, cov));
    }

    b.header(
        "Fig. 5(c): coverage granularity CG(i) = N_i / N_{i-1} (d_avg = 10)",
        &["n \\ TTL", "2", "3", "4", "5", "6"],
    );
    for (n, cov) in &by_n {
        let cells: Vec<String> = std::iter::once(n.to_string())
            .chain(cov.windows(2).map(|w| f(w[1] / w[0])))
            .collect();
        b.row(&cells);
    }

    b.header(
        "Fig. 5(b): nodes covered vs TTL, varying density (n = 400)",
        &["d \\ TTL", "1", "2", "3", "4", "5", "6"],
    );
    let mut by_d: Vec<(f64, Vec<f64>)> = Vec::new();
    for (chunk, &d) in density_runs.chunks(ttls.len()).zip(&densities) {
        let cov: Vec<f64> = chunk.iter().map(|runs| coverage(runs)).collect();
        b.row(
            &std::iter::once(format!("{d}"))
                .chain(cov.iter().map(|&c| f(c)))
                .collect::<Vec<_>>(),
        );
        by_d.push((d, cov));
    }

    b.header(
        "Fig. 5(d): coverage granularity, varying density (n = 400)",
        &["d \\ TTL", "2", "3", "4", "5", "6"],
    );
    for (d, cov) in &by_d {
        let cells: Vec<String> = std::iter::once(format!("{d}"))
            .chain(cov.windows(2).map(|w| f(w[1] / w[0])))
            .collect();
        b.row(&cells);
    }
    println!("\nPaper check: CG(3) is always above 2; CG(4) and CG(5) land between");
    println!("1.25 and 1.75 — TTL is a very coarse control knob for quorum size.");
}
