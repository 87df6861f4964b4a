//! Closed-form analysis: churn degradation (§6.1), optimal asymmetric
//! sizing (Lemma 5.6), and the asymptotic cost model behind Figs. 3 & 6.

use crate::spec::AccessStrategy;

// ---------------------------------------------------------------------
// Degradation rate (§6.1, Fig. 7)
// ---------------------------------------------------------------------

/// A churn regime for the degradation-rate analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnRegime {
    /// Nodes only crash; `f` is the crashed fraction. With a *constant*
    /// lookup quorum size the miss probability does not change at all
    /// (case 1a); with the lookup size *adjusted* to `C√n(t)` it degrades
    /// to `ε^√(1−f)` (case 1b).
    FailuresOnly {
        /// Whether `|Qℓ|` tracks the shrinking network size.
        adjust_lookup: bool,
    },
    /// Nodes only join; `f` is the joined fraction. Constant lookup size
    /// gives `ε^(1/(1+f))`; adjusted gives `ε^(1/√(1+f))` (case 2).
    JoinsOnly {
        /// Whether `|Qℓ|` tracks the growing network size.
        adjust_lookup: bool,
    },
    /// Equal amounts fail and join, keeping `n` constant: `ε^(1−f)`
    /// (case 3).
    FailuresAndJoins,
}

/// The §6.1 degradation bound: returns the non-intersection probability
/// `Pr(miss(t))` after a churn fraction `f`, starting from an initial
/// non-intersection probability `epsilon`.
///
/// # Panics
///
/// Panics if `epsilon ∉ (0,1)` or `f ∉ [0,1)` (for failures, `f = 1`
/// would mean the whole network died).
pub fn miss_probability_after_churn(epsilon: f64, f: f64, regime: ChurnRegime) -> f64 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
    assert!((0.0..1.0).contains(&f), "churn fraction in [0,1)");
    match regime {
        ChurnRegime::FailuresOnly {
            adjust_lookup: false,
        } => epsilon,
        ChurnRegime::FailuresOnly {
            adjust_lookup: true,
        } => epsilon.powf((1.0 - f).sqrt()),
        ChurnRegime::JoinsOnly {
            adjust_lookup: false,
        } => epsilon.powf(1.0 / (1.0 + f)),
        ChurnRegime::JoinsOnly {
            adjust_lookup: true,
        } => epsilon.powf(1.0 / (1.0 + f).sqrt()),
        ChurnRegime::FailuresAndJoins => epsilon.powf(1.0 - f),
    }
}

/// Convenience: the intersection probability `1 − Pr(miss)` after churn.
pub fn intersection_after_churn(epsilon: f64, f: f64, regime: ChurnRegime) -> f64 {
    1.0 - miss_probability_after_churn(epsilon, f, regime)
}

/// Refresh-policy solver (§6.1 "Handling quorum degradation"): the
/// largest churn fraction `f` tolerable before the intersection
/// probability drops below `min_intersection`. Returns `None` if even
/// `f → 0⁺` already violates the floor.
pub fn max_tolerable_churn(
    epsilon: f64,
    min_intersection: f64,
    regime: ChurnRegime,
) -> Option<f64> {
    if 1.0 - epsilon < min_intersection {
        return None;
    }
    // All regimes are monotone in f; bisect.
    let (mut lo, mut hi) = (0.0f64, 1.0 - 1e-9);
    if intersection_after_churn(epsilon, hi, regime) >= min_intersection {
        return Some(1.0);
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if intersection_after_churn(epsilon, mid, regime) >= min_intersection {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

// ---------------------------------------------------------------------
// Optimal asymmetric sizing (Lemma 5.6)
// ---------------------------------------------------------------------

/// Lemma 5.6: the cost-optimal ratio `|Qℓ|/|Qa| = (1/τ)·(Cost_a/Cost_ℓ)`
/// where `τ = #lookups/#advertises` and `Cost_x` is the per-node access
/// cost of each side.
///
/// # Panics
///
/// Panics unless all arguments are strictly positive.
pub fn optimal_quorum_ratio(tau: f64, cost_a: f64, cost_l: f64) -> f64 {
    assert!(tau > 0.0 && cost_a > 0.0 && cost_l > 0.0, "positive inputs");
    cost_a / (tau * cost_l)
}

/// The cost-optimal lookup quorum size
/// `|Qℓ| = √(n·ln(1/ε)·Cost_a / (τ·Cost_ℓ))` (proof of Lemma 5.6).
pub fn optimal_lookup_size(n: usize, epsilon: f64, tau: f64, cost_a: f64, cost_l: f64) -> f64 {
    (crate::spec::min_quorum_product(n, epsilon) * cost_a / (tau * cost_l)).sqrt()
}

/// Total cost of `advertises` advertise accesses and `lookups` lookup
/// accesses with the given quorum sizes and per-node costs (the
/// `TotalCost` of Lemma 5.6's proof).
pub fn total_cost(
    advertises: u64,
    lookups: u64,
    qa: f64,
    ql: f64,
    cost_a: f64,
    cost_l: f64,
) -> f64 {
    advertises as f64 * qa * cost_a + lookups as f64 * ql * cost_l
}

// ---------------------------------------------------------------------
// Asymptotic access-cost model (Figs. 3 and 6)
// ---------------------------------------------------------------------

/// Asymptotic per-access message cost of a strategy on a random geometric
/// graph for a target quorum size `q` (the RGG rows of Fig. 3).
///
/// `Random` assumes the membership-based implementation
/// (`q · √(n/ln n)`); `RandomOpt` sends `ln n` probes of average route
/// length `√(n/ln n)`; `Path`/`UniquePath` are linear in `q`
/// (Theorem 4.1); `Flooding` covering `q` nodes costs `Θ(q)`
/// transmissions with a larger constant.
pub fn asymptotic_access_cost(strategy: AccessStrategy, q: u32, n: usize) -> f64 {
    let n_f = n as f64;
    let q_f = f64::from(q);
    match strategy {
        AccessStrategy::Random => q_f * (n_f / n_f.ln()).sqrt(),
        AccessStrategy::RandomOpt => n_f.ln() * (n_f / n_f.ln()).sqrt(),
        AccessStrategy::Path => pqs_graph::bounds::PAPER_SIMPLE_WALK_ALPHA2 * q_f,
        AccessStrategy::UniquePath => q_f,
        AccessStrategy::Flooding => 1.5 * q_f,
    }
}

/// A row of the Fig. 6 comparison: costs of one advertise + one lookup
/// access for a strategy combination at `|Q| = Θ(√n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinationCost {
    /// Advertise-side strategy.
    pub advertise: AccessStrategy,
    /// Lookup-side strategy.
    pub lookup: AccessStrategy,
    /// Modelled advertise cost (messages).
    pub advertise_cost: f64,
    /// Modelled lookup cost (messages).
    pub lookup_cost: f64,
    /// Whether the intersection guarantee is topology-independent.
    pub guaranteed: bool,
}

/// Builds the Fig. 6 table for a network of `n` nodes at `1−ε`
/// intersection.
///
/// For combinations without a RANDOM side the quorum sizes follow the
/// crossing-time analysis (§5.3): both sides need `Θ(n/log n)` members —
/// the paper measured ≈ `n/4.7` each at `n = 800` (§8.5).
pub fn combination_table(n: usize, epsilon: f64) -> Vec<CombinationCost> {
    use AccessStrategy::*;
    let qa = crate::spec::paper_advertise_size(n);
    let ql = crate::spec::min_partner_quorum_size(n, epsilon, f64::from(qa));
    let mut rows = Vec::new();
    for lookup in [Random, RandomOpt, UniquePath, Flooding] {
        rows.push(CombinationCost {
            advertise: Random,
            lookup,
            advertise_cost: asymptotic_access_cost(Random, qa, n),
            lookup_cost: asymptotic_access_cost(lookup, ql, n),
            guaranteed: true,
        });
    }
    // PATH × PATH-style mixes: crossing time forces Θ(n/log n) walks.
    let q_walk = (1.5 * n as f64 / (n as f64).log2()).round() as u32;
    for (adv, lkp) in [(UniquePath, UniquePath), (Flooding, Flooding)] {
        rows.push(CombinationCost {
            advertise: adv,
            lookup: lkp,
            advertise_cost: asymptotic_access_cost(adv, q_walk, n),
            lookup_cost: asymptotic_access_cost(lkp, q_walk, n),
            guaranteed: false,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_with_constant_lookup_do_not_degrade() {
        // The headline result of §6.1 case 1a.
        for f in [0.0, 0.1, 0.3, 0.5, 0.9] {
            let miss = miss_probability_after_churn(
                0.05,
                f,
                ChurnRegime::FailuresOnly {
                    adjust_lookup: false,
                },
            );
            assert_eq!(miss, 0.05);
        }
    }

    #[test]
    fn fig7_mixed_churn_example() {
        // §6.1: starting at 0.95 intersection, 30% churn (fail+join)
        // degrades to "only slightly below 0.9".
        let p = intersection_after_churn(0.05, 0.3, ChurnRegime::FailuresAndJoins);
        assert!(p > 0.875 && p < 0.9, "intersection after churn: {p}");
    }

    #[test]
    fn fig14f_churn_example() {
        // §8.7: 0.95 initial intersection degrades to ≈0.87 at 50%
        // failures, with the lookup quorum adjusted to the new size:
        // ε^√(1−f) = 0.05^√0.5 ≈ 0.12 → intersection ≈ 0.88.
        let p = intersection_after_churn(
            0.05,
            0.5,
            ChurnRegime::FailuresOnly {
                adjust_lookup: true,
            },
        );
        assert!((p - 0.88).abs() < 0.01, "got {p}");
    }

    #[test]
    fn degradation_monotone_in_f() {
        let regimes = [
            ChurnRegime::FailuresOnly {
                adjust_lookup: true,
            },
            ChurnRegime::JoinsOnly {
                adjust_lookup: false,
            },
            ChurnRegime::JoinsOnly {
                adjust_lookup: true,
            },
            ChurnRegime::FailuresAndJoins,
        ];
        for regime in regimes {
            let mut last = 1.0;
            for i in 0..10 {
                let f = i as f64 / 10.0;
                let p = intersection_after_churn(0.1, f, regime);
                assert!(p <= last + 1e-12, "{regime:?} not monotone at f={f}");
                last = p;
            }
        }
    }

    #[test]
    fn adjusted_joins_beat_constant_joins() {
        // Growing the lookup quorum with the network softens degradation.
        let constant = intersection_after_churn(
            0.1,
            0.5,
            ChurnRegime::JoinsOnly {
                adjust_lookup: false,
            },
        );
        let adjusted = intersection_after_churn(
            0.1,
            0.5,
            ChurnRegime::JoinsOnly {
                adjust_lookup: true,
            },
        );
        assert!(adjusted > constant);
    }

    #[test]
    fn refresh_solver() {
        // The §6.1 worked example: floor 0.9, ε = 0.05, mixed churn →
        // refresh roughly when ~30% of the network changed.
        let f = max_tolerable_churn(0.05, 0.9, ChurnRegime::FailuresAndJoins).unwrap();
        assert!((0.2..0.4).contains(&f), "tolerable churn {f}");
        // Constant-lookup failures never degrade → tolerate everything.
        let all = max_tolerable_churn(
            0.05,
            0.9,
            ChurnRegime::FailuresOnly {
                adjust_lookup: false,
            },
        )
        .unwrap();
        assert_eq!(all, 1.0);
        // An impossible floor.
        assert_eq!(
            max_tolerable_churn(0.2, 0.9, ChurnRegime::FailuresAndJoins),
            None
        );
    }

    #[test]
    fn lemma_5_6_worked_example() {
        // §5.4: τ = 10, Cost_a = D = 5, Cost_ℓ = 1 → |Qℓ|/|Qa| = 1/2.
        let ratio = optimal_quorum_ratio(10.0, 5.0, 1.0);
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn optimal_size_minimises_total_cost() {
        let (n, eps, tau, ca, cl) = (800, 0.1, 10.0, 18.0, 1.0);
        let ql_star = optimal_lookup_size(n, eps, tau, ca, cl);
        let product = crate::spec::min_quorum_product(n, eps);
        let lookups = 1000u64;
        let advertises = (lookups as f64 / tau) as u64;
        let cost_at = |ql: f64| total_cost(advertises, lookups, product / ql, ql, ca, cl);
        let optimal = cost_at(ql_star);
        for factor in [0.5, 0.8, 1.25, 2.0] {
            assert!(
                cost_at(ql_star * factor) >= optimal - 1e-6,
                "perturbed size beat the optimum at ×{factor}"
            );
        }
    }

    #[test]
    fn fig16_strategy_choice() {
        // §8.8: RANDOM×UNIQUE-PATH beats UNIQUE-PATH×UNIQUE-PATH exactly
        // when τ > 2.5, using the measured per-access costs.
        let rxu_relative = 600.0 / 33.0; // advertise/lookup cost ratio ≈ 18
        let uxu_relative = 250.0 / 100.0; // ≈ 2.5
        let better_for = |tau: f64| -> &'static str {
            // Cost per lookup of each mix: advertise amortised over τ.
            let rxu = 600.0 / tau + 33.0;
            let uxu = 250.0 / tau + 100.0;
            if rxu < uxu {
                "RxU"
            } else {
                "UxU"
            }
        };
        assert!(rxu_relative > uxu_relative);
        assert_eq!(better_for(10.0), "RxU");
        assert_eq!(better_for(1.0), "UxU");
    }

    #[test]
    fn combination_table_shape() {
        let rows = combination_table(800, 0.1);
        assert_eq!(rows.len(), 6);
        // RANDOM advertise is the expensive side everywhere.
        let random_unique = rows
            .iter()
            .find(|r| {
                r.advertise == AccessStrategy::Random && r.lookup == AccessStrategy::UniquePath
            })
            .unwrap();
        assert!(random_unique.advertise_cost > random_unique.lookup_cost * 5.0);
        assert!(random_unique.guaranteed);
        // PATH×PATH needs Θ(n/log n) walks: costlier lookups than
        // RANDOM×UNIQUE-PATH.
        let path_path = rows
            .iter()
            .find(|r| r.advertise == AccessStrategy::UniquePath)
            .unwrap();
        assert!(!path_path.guaranteed);
        assert!(path_path.lookup_cost > random_unique.lookup_cost);
    }

    #[test]
    #[should_panic(expected = "churn fraction")]
    fn churn_fraction_validated() {
        let _ = miss_probability_after_churn(0.1, 1.0, ChurnRegime::FailuresAndJoins);
    }
}
