//! Fig. 4 — random-walk partial cover time: the number of steps per
//! unique visited node, for growing numbers of unique nodes, across
//! network sizes and densities; simple (PATH) vs self-avoiding
//! (UNIQUE-PATH) walks. Also checks Theorem 4.1 (PCT(t) ≤ 2αt).

use pqs_bench::{f, Bench};
use pqs_graph::rgg::RggConfig;
use pqs_graph::walks::{pct_profile, WalkKind};
use pqs_sim::rng;

/// Mean steps-per-unique-node profile over several graphs and starts.
/// Sequential inside one pool job, so every profile is bit-identical at
/// any pool width.
fn profile(seeds: &[u64], n: usize, d_avg: f64, upto: usize, kind: WalkKind) -> Vec<f64> {
    let mut sums = vec![0.0f64; upto];
    let mut count = 0.0f64;
    for &seed in seeds {
        let mut r = rng::stream(seed, 4);
        let net = RggConfig::with_avg_degree(n, d_avg).generate(&mut r);
        let comp = net.graph().components().remove(0);
        if comp.len() < upto {
            continue;
        }
        for (i, &start) in comp.iter().step_by((comp.len() / 6).max(1)).enumerate() {
            let mut wr = rng::stream(seed * 7919 + i as u64, 5);
            if let Some(p) = pct_profile(net.graph(), start, upto, kind, &mut wr) {
                for (k, &steps) in p.iter().enumerate().skip(1) {
                    sums[k] += steps as f64 / (k + 1) as f64;
                }
                count += 1.0;
            }
        }
    }
    sums.iter().map(|s| s / count.max(1.0)).collect()
}

pub fn run(b: &mut Bench) {
    let checkpoints = [10usize, 20, 30, 40, 60];
    let profile_sizes = [100usize, 200, 400, 800];
    let densities = [7.0, 10.0, 15.0, 20.0, 25.0];
    let unique_densities = [7.0, 10.0, 15.0, 25.0];

    let seeds = &b.seeds(5);
    let profile = move |n, d_avg, upto, kind| profile(seeds, n, d_avg, upto, kind);
    // Every profile of the four sections is one pool job; results come
    // back grouped per section, in row order.
    let mut jobs: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>> = Vec::new();
    for &n in &profile_sizes {
        jobs.push(Box::new(move || profile(n, 10.0, 61, WalkKind::Simple)));
    }
    for &d in &densities {
        jobs.push(Box::new(move || profile(400, d, 61, WalkKind::Simple)));
    }
    for &n in &profile_sizes {
        let target = (n as f64).sqrt().round() as usize;
        jobs.push(Box::new(move || profile(n, 10.0, target, WalkKind::Simple)));
        jobs.push(Box::new(move || profile(n, 10.0, target, WalkKind::SelfAvoiding)));
    }
    for &d in &unique_densities {
        jobs.push(Box::new(move || profile(400, d, 61, WalkKind::SelfAvoiding)));
    }
    let mut results = b.run_jobs(jobs).into_iter();

    // (a) simple walk, varying n, d_avg = 10.
    b.header(
        "Fig. 4(a): simple RW, steps per unique node (d_avg = 10)",
        &["n \\ unique", "10", "20", "30", "40", "60"],
    );
    for n in profile_sizes {
        let p = results.next().expect("profile per row");
        let mut cells = vec![n.to_string()];
        cells.extend(checkpoints.iter().map(|&k| f(p[k - 1])));
        b.row(&cells);
    }

    // (b) simple walk, varying density, n = 400.
    b.header(
        "Fig. 4(b): simple RW, varying density (n = 400)",
        &["d_avg \\ unique", "10", "20", "30", "40", "60"],
    );
    for d in densities {
        let p = results.next().expect("profile per row");
        let mut cells = vec![format!("{d}")];
        cells.extend(checkpoints.iter().map(|&k| f(p[k - 1])));
        b.row(&cells);
    }

    // (c) PCT at sqrt(n): the paper's constant ≈ 1.7 for all n ≤ 800.
    b.header(
        "Fig. 4(c): PCT(sqrt(n)) / sqrt(n) (paper: <= 1.7)",
        &["n", "simple RW", "unique RW"],
    );
    for n in profile_sizes {
        let target = (n as f64).sqrt().round() as usize;
        let ps = results.next().expect("simple profile");
        let pu = results.next().expect("unique profile");
        b.row(&[n.to_string(), f(ps[target - 1]), f(pu[target - 1])]);
    }

    // (d) UNIQUE-PATH almost never revisits (ratio ≈ 1), even sparse.
    b.header(
        "Fig. 4(d): UNIQUE-PATH steps per unique node (n = 400)",
        &["d_avg \\ unique", "10", "20", "30", "40", "60"],
    );
    for d in unique_densities {
        let p = results.next().expect("profile per row");
        let mut cells = vec![format!("{d}")];
        cells.extend(checkpoints.iter().map(|&k| f(p[k - 1])));
        b.row(&cells);
    }

    println!("\nTheorem 4.1 check: the columns above are flat-ish in the unique-node");
    println!("count and bounded by a small constant (2*alpha), i.e. PCT(t) = O(t).");
    println!("Paper reference points: simple RW ~1.7 at d_avg=10; ~2.5 at d_avg=7;");
    println!("UNIQUE-PATH ~1.0-1.2 everywhere.");
}
