//! Fig. 6 — asymptotic cost comparison of strategy combinations for
//! `|Q| = Θ(√n)`, plus the Lemma 5.6 optimal-sizing worked examples.

use pqs_bench::{f, Bench};
use pqs_core::analysis::{combination_table, optimal_lookup_size, optimal_quorum_ratio};
use pqs_core::spec::min_quorum_product;

pub fn run(b: &mut Bench) {
    for n in [400usize, 800] {
        b.header(
            &format!("Fig. 6: combination costs, n = {n}, eps = 0.1"),
            &["advertise", "lookup", "adv cost", "lkp cost", "guaranteed?"],
        );
        for c in combination_table(n, 0.1) {
            b.row(&[
                c.advertise.to_string(),
                c.lookup.to_string(),
                f(c.advertise_cost),
                f(c.lookup_cost),
                if c.guaranteed {
                    "yes".into()
                } else {
                    "topology-dep".into()
                },
            ]);
        }
    }

    b.header(
        "Lemma 5.6: optimal |Ql|/|Qa| ratio (worked examples)",
        &["tau", "Cost_a", "Cost_l", "ratio", "optimal |Ql|"],
    );
    // The paper's example: tau = 10, Cost_a = D = 5, Cost_l = 1 → 1/2.
    for (tau, ca, cl) in [
        (10.0, 5.0, 1.0),
        (10.0, 18.0, 1.0),
        (2.5, 2.5, 1.0),
        (1.0, 18.0, 1.0),
    ] {
        let n = 800;
        let ratio = optimal_quorum_ratio(tau, ca, cl);
        let ql = optimal_lookup_size(n, 0.1, tau, ca, cl);
        b.row(&[f(tau), f(ca), f(cl), f(ratio), f(ql)]);
    }
    let product = min_quorum_product(800, 0.1);
    println!("\n(constraint: |Qa|*|Ql| >= n ln(1/eps) = {product:.0} at n = 800, eps = 0.1)");
    println!("§8.8 check: with measured costs Cost_a/Cost_l = 600/33 ≈ 18 for");
    println!("RANDOM×UNIQUE-PATH vs 250/100 = 2.5 for UNIQUE×UNIQUE, the RANDOM mix");
    println!("wins whenever tau > 2.5 lookups per advertise.");
}
