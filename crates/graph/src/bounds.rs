//! Closed-form asymptotic bounds from the paper, for comparison against
//! measurements.
//!
//! These functions encode the formulas of §4–§5 so the benchmark harness
//! can print "paper bound" columns next to measured values.

/// Theorem 4.1: on `G²(n, r)` with `r² ≥ c·8·log n / n`, the partial cover
/// time of `t = o(n)` nodes satisfies `PCT(t) ≤ 2αt` w.h.p. The constant
/// `α` is not pinned down by the theorem; the paper measures ≈1.7 steps
/// per unique node at `d_avg = 10` (§4.2), i.e. `2α ≈ 1.7`.
///
/// Returns the bound `2αt` for an empirically calibrated `alpha2 = 2α`.
pub fn pct_upper_bound(t: usize, alpha2: f64) -> f64 {
    alpha2 * t as f64
}

/// The paper's empirical steps-per-unique-node constant for simple walks
/// at the default density (`PCT(√n) ≈ 1.7·√n`, §4.2).
pub const PAPER_SIMPLE_WALK_ALPHA2: f64 = 1.7;

/// Theorem 5.5: the crossing time of two simple random walks on `G²(n, r)`
/// is `Ω(r⁻²)`. Returns the lower-bound scale `r⁻²` (the theorem's hidden
/// constant is ≤ 1, so this is an order-of-magnitude reference).
///
/// # Panics
///
/// Panics if `r` is not strictly positive.
pub fn crossing_time_lower_bound_scale(r: f64) -> f64 {
    assert!(r > 0.0, "radius must be positive");
    1.0 / (r * r)
}

/// With the minimal connectivity radius `r = Θ(√(log n / n))`, the
/// crossing-time lower bound becomes `Ω(n / log n)` (§5.3). Returns
/// `n / ln n`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn crossing_time_minimal_radius(n: usize) -> f64 {
    assert!(n >= 2, "need at least two nodes");
    n as f64 / (n as f64).ln()
}

/// Mixing time of the Maximum-Degree random walk on RGGs: ≈ `n/2`
/// (Bar-Yossef et al. 2008, cited in §4.1). One uniform sample costs this
/// many steps.
pub fn md_mixing_steps(n: usize) -> u64 {
    (n as u64).div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_bound_linear() {
        assert_eq!(pct_upper_bound(10, 1.7), 17.0);
        assert_eq!(pct_upper_bound(0, 1.7), 0.0);
    }

    #[test]
    fn crossing_scales() {
        assert_eq!(crossing_time_lower_bound_scale(0.5), 4.0);
        let c = crossing_time_minimal_radius(800);
        assert!((c - 800.0 / 800f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn md_mixing_is_half_n() {
        assert_eq!(md_mixing_steps(800), 400);
        assert_eq!(md_mixing_steps(801), 401);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        let _ = crossing_time_lower_bound_scale(0.0);
    }
}
