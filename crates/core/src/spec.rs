//! Probabilistic biquorum specifications and intersection mathematics.
//!
//! Implements the quantitative heart of the paper:
//!
//! - Lemma 5.1/5.2 (the **mix-and-match lemma**): if at least one of the
//!   two quorums is chosen uniformly at random,
//!   `Pr(Q_a ∩ Q_ℓ = ∅) ≤ exp(−|Q_a||Q_ℓ|/n)` — regardless of how the
//!   other quorum is picked (nonadversarially),
//! - Corollary 5.3: the sizing rule `|Q_a|·|Q_ℓ| ≥ n·ln(1/ε)` for a
//!   `1−ε` intersection guarantee.

/// How the members of a quorum are reached (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessStrategy {
    /// Uniformly random members from a membership view, reached through
    /// multi-hop routing (§4.1). The only strategy that *guarantees* the
    /// mix-and-match bound.
    Random,
    /// RANDOM with the cross-layer relay tap: every node a probe passes
    /// through also joins the quorum (§4.5). Accessed nodes are *not*
    /// uniform, so this side does not provide the mix-and-match guarantee.
    RandomOpt,
    /// A simple random walk visiting `|Q|` distinct nodes (§4.2).
    Path,
    /// A self-avoiding random walk (§4.3) — same intersection behaviour
    /// as PATH, fewer steps.
    UniquePath,
    /// TTL-scoped flooding (§4.4). The spec's `size` is the TTL.
    Flooding,
}

impl AccessStrategy {
    /// Returns `true` if this strategy yields uniformly random members,
    /// i.e. provides the RANDOM side of the mix-and-match lemma.
    pub fn is_uniform_random(self) -> bool {
        matches!(self, AccessStrategy::Random)
    }

    /// Returns `true` if the strategy needs multi-hop routing (§4, Fig. 3).
    pub fn needs_routing(self) -> bool {
        matches!(self, AccessStrategy::Random | AccessStrategy::RandomOpt)
    }

    /// Returns `true` if the strategy supports early halting of lookups
    /// under the relaxed intersection requirement (§2.5, Fig. 3).
    pub fn supports_early_halting(self) -> bool {
        matches!(self, AccessStrategy::Path | AccessStrategy::UniquePath)
    }
}

impl std::fmt::Display for AccessStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            AccessStrategy::Random => "RANDOM",
            AccessStrategy::RandomOpt => "RANDOM-OPT",
            AccessStrategy::Path => "PATH",
            AccessStrategy::UniquePath => "UNIQUE-PATH",
            AccessStrategy::Flooding => "FLOODING",
        };
        f.write_str(name)
    }
}

/// One side of a biquorum: an access strategy plus its size parameter.
///
/// `size` is the target number of distinct quorum members, except for
/// [`AccessStrategy::Flooding`] where it is the flood TTL (the paper's
/// control knob for flooding scope, §4.4) and
/// [`AccessStrategy::RandomOpt`] where it is the number of routed probes
/// (the accessed quorum is larger, ≈ `probes·√(n/ln n)`, §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuorumSpec {
    /// Access strategy.
    pub strategy: AccessStrategy,
    /// Size parameter (members, probes, or TTL — see type docs).
    pub size: u32,
}

impl QuorumSpec {
    /// Creates a spec.
    pub const fn new(strategy: AccessStrategy, size: u32) -> Self {
        QuorumSpec { strategy, size }
    }
}

impl std::fmt::Display for QuorumSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.strategy, self.size)
    }
}

/// A probabilistic biquorum system: an advertise spec and a lookup spec.
///
/// # Examples
///
/// Build the paper's favourite combination — RANDOM advertise with
/// UNIQUE-PATH lookup — sized for 0.9 intersection on 800 nodes:
///
/// ```
/// use pqs_core::spec::{AccessStrategy, BiquorumSpec};
///
/// let bq = BiquorumSpec::asymmetric_for_epsilon(
///     AccessStrategy::Random,
///     AccessStrategy::UniquePath,
///     800,
///     0.1,
///     2.0, // |Qa| = 2√n like the paper's simulations
/// );
/// assert!(bq.intersection_lower_bound(800).unwrap() >= 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BiquorumSpec {
    /// The advertise (write/update) side.
    pub advertise: QuorumSpec,
    /// The lookup (read/query) side.
    pub lookup: QuorumSpec,
}

impl BiquorumSpec {
    /// Creates a biquorum from explicit specs.
    pub const fn new(advertise: QuorumSpec, lookup: QuorumSpec) -> Self {
        BiquorumSpec { advertise, lookup }
    }

    /// Returns `true` if at least one side is uniformly RANDOM, i.e. the
    /// mix-and-match lemma applies and the intersection probability is
    /// topology-independent (§5.2).
    pub fn has_mix_and_match_guarantee(&self) -> bool {
        self.advertise.strategy.is_uniform_random() || self.lookup.strategy.is_uniform_random()
    }

    /// The guaranteed intersection probability `1 − exp(−|Qa||Qℓ|/n)`, or
    /// `None` when neither side is RANDOM (PATH×PATH-style combinations,
    /// whose intersection depends on the topology — §5.3).
    pub fn intersection_lower_bound(&self, n: usize) -> Option<f64> {
        self.has_mix_and_match_guarantee()
            .then(|| intersection_lower_bound(self.advertise.size, self.lookup.size, n))
    }

    /// An asymmetric biquorum sized for `1−ε` intersection with the
    /// advertise side scaled as `advertise_factor·√n` and the lookup side
    /// sized to satisfy Corollary 5.3 (rounded up).
    ///
    /// # Panics
    ///
    /// Panics if neither strategy is [`AccessStrategy::Random`] (the
    /// sizing rule would not guarantee anything — use
    /// [`BiquorumSpec::new`] for experimental topology-dependent mixes)
    /// or if `epsilon`/`advertise_factor` are out of range.
    pub fn asymmetric_for_epsilon(
        advertise: AccessStrategy,
        lookup: AccessStrategy,
        n: usize,
        epsilon: f64,
        advertise_factor: f64,
    ) -> Self {
        assert!(
            advertise.is_uniform_random() || lookup.is_uniform_random(),
            "mix-and-match needs at least one RANDOM side"
        );
        assert!(
            (0.0..1.0).contains(&epsilon) && epsilon > 0.0,
            "epsilon in (0,1)"
        );
        assert!(advertise_factor > 0.0, "advertise factor must be positive");
        let qa = (advertise_factor * (n as f64).sqrt()).ceil().max(1.0);
        let ql = min_partner_quorum_size(n, epsilon, qa);
        BiquorumSpec {
            advertise: QuorumSpec::new(advertise, qa as u32),
            lookup: QuorumSpec::new(lookup, ql),
        }
    }
}

/// Lemma 5.2 (mix and match): the intersection probability lower bound
/// `1 − exp(−qa·ql/n)` when at least one side is uniformly random.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn intersection_lower_bound(qa: u32, ql: u32, n: usize) -> f64 {
    assert!(n > 0, "empty universe");
    // Quorums at least as large as the universe always intersect.
    if qa as usize + ql as usize > n {
        return 1.0;
    }
    1.0 - (-(f64::from(qa) * f64::from(ql)) / n as f64).exp()
}

/// Corollary 5.3: the minimum required product `|Qa|·|Qℓ| = n·ln(1/ε)`
/// for a `1−ε` intersection guarantee.
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1)`.
pub fn min_quorum_product(n: usize, epsilon: f64) -> f64 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
    n as f64 * (1.0 / epsilon).ln()
}

/// The symmetric quorum size `⌈√(n·ln(1/ε))⌉`.
pub fn symmetric_quorum_size(n: usize, epsilon: f64) -> u32 {
    min_quorum_product(n, epsilon).sqrt().ceil() as u32
}

/// Corollary 5.3 rounding, checked: the smallest integer `|Qℓ|` such
/// that `other_side · |Qℓ| ≥ n·ln(1/ε)`, given the (possibly fractional,
/// e.g. a churn-discounted survivor count) size of the other quorum
/// side. This is the single rounding helper every sizing path in the
/// workspace goes through — `BiquorumSpec::asymmetric_for_epsilon`, the
/// Fig. 6 combination table, the retry layer's churn adaptation, and the
/// `pqs-plan` planner (which re-exports it).
///
/// The result is verified against the bound after rounding; by symmetry
/// the same helper sizes either side.
///
/// # Panics
///
/// Panics if `other_side` is not strictly positive, or if `epsilon`/`n`
/// are out of range (see [`min_quorum_product`]).
pub fn min_partner_quorum_size(n: usize, epsilon: f64, other_side: f64) -> u32 {
    assert!(
        other_side > 0.0 && other_side.is_finite(),
        "partner quorum side must be positive"
    );
    let required = min_quorum_product(n, epsilon);
    let size = (required / other_side).ceil().max(1.0);
    // Post-rounding check: the returned size must actually restore the
    // Corollary 5.3 product (ceil guarantees it; this assert is the
    // contract, kept active so every caller inherits the verification).
    assert!(
        other_side * size >= required - 1e-9,
        "rounding failed to satisfy |Qa|·|Qℓ| ≥ n·ln(1/ε)"
    );
    size as u32
}

/// Whether `(qa, ql)` satisfies the Corollary 5.3 product
/// `qa·ql ≥ n·ln(1/ε)` (with a small tolerance for float rounding).
pub fn satisfies_min_product(qa: u32, ql: u32, n: usize, epsilon: f64) -> bool {
    f64::from(qa) * f64::from(ql) >= min_quorum_product(n, epsilon) - 1e-9
}

/// The Poisson CDF `Pr(X ≤ b)` for `X ~ Poisson(lambda)`, evaluated
/// stably in log space.
fn poisson_cdf(b: u32, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    // Σ_{k=0}^{b} e^{−λ} λ^k / k!, accumulated term-by-term.
    let mut term = (-lambda).exp();
    let mut sum = term;
    for k in 1..=b {
        term *= lambda / f64::from(k);
        sum += term;
    }
    sum.min(1.0)
}

/// The smallest Poisson rate `λ*` with `Pr(X ≤ b) ≤ ε` — the masking
/// generalisation of `ln(1/ε)`: with `b = 0` this is exactly
/// `Pr(X = 0) = e^{−λ} ≤ ε ⇒ λ* = ln(1/ε)`.
///
/// Solved by doubling to bracket, then bisection (the CDF is strictly
/// decreasing in λ).
pub fn poisson_tail_lambda(b: u32, epsilon: f64) -> f64 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
    let mut hi = (1.0 / epsilon).ln().max(1.0);
    while poisson_cdf(b, hi) > epsilon {
        hi *= 2.0;
        assert!(hi.is_finite(), "poisson tail bracket diverged");
    }
    let mut lo = 0.0;
    for _ in 0..128 {
        let mid = 0.5 * (lo + hi);
        if poisson_cdf(b, mid) > epsilon {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Masking-quorum inflation of the Corollary 5.3 product: the minimum
/// `|Qa|·|Qℓ|` such that, with `b` Byzantine nodes among `n`, the number
/// of *honest* advertise∩lookup members still exceeds `b` except with
/// probability ≤ ε — i.e. a vote-verified read finds its `b + 1`
/// concurring honest votes.
///
/// Model: each of the `|Qℓ|` probed nodes holds the key w.p. `|Qa|/n`
/// and is honest w.p. `1 − b/n`, so the honest-vote count is ≈
/// `Poisson(|Qa|·|Qℓ|·(1 − b/n)/n)` (the same Poissonisation as
/// Theorem 5.2). Requiring `Pr(X ≤ b) ≤ ε` gives
/// `|Qa|·|Qℓ| ≥ n·λ*(b, ε)/(1 − b/n)`. At `b = 0` this is
/// [`min_quorum_product`] to the bit (the closed form `n·ln(1/ε)`, not
/// the bisected `λ*`), so crash-only callers need no branch of their
/// own.
///
/// # Panics
///
/// Panics when `b ≥ n` (no honest intersection can exist).
pub fn byz_min_quorum_product(n: usize, epsilon: f64, b: u32) -> f64 {
    assert!(
        (b as usize) < n,
        "masking needs at least one honest node: b={b} n={n}"
    );
    if b == 0 {
        return min_quorum_product(n, epsilon);
    }
    let honest = 1.0 - b as f64 / n as f64;
    n as f64 * poisson_tail_lambda(b, epsilon) / honest
}

/// The masking analogue of `1 − intersection_lower_bound`: an upper
/// bound on the probability that a vote-verified read collects at most
/// `b` honest concurring votes, `Pr(Poisson(qa·ql·(1 − b/n)/n) ≤ b)`.
/// It is `0` when the overlap is certain — `qa + ql > n + 2b`, so
/// `|Qa ∩ Qℓ| ≥ 2b + 1` whatever the sample (the masking condition of
/// Malkhi–Reiter–Wool) — and exactly `1 − intersection_lower_bound` at
/// `b = 0`.
pub fn byz_miss_upper_bound(qa: u32, ql: u32, n: usize, b: u32) -> f64 {
    assert!((b as usize) < n, "masking needs at least one honest node");
    if qa as usize + ql as usize > n + 2 * b as usize {
        return 0.0;
    }
    if b == 0 {
        return 1.0 - intersection_lower_bound(qa, ql, n);
    }
    let honest = 1.0 - b as f64 / n as f64;
    let lambda = f64::from(qa) * f64::from(ql) * honest / n as f64;
    poisson_cdf(b, lambda)
}

/// Whether integer sides `(qa, ql)` satisfy the masking product bound
/// [`byz_min_quorum_product`] (with the same 1e-9 rounding tolerance as
/// [`satisfies_min_product`]).
pub fn byz_satisfies_min_product(qa: u32, ql: u32, n: usize, epsilon: f64, b: u32) -> bool {
    f64::from(qa) * f64::from(ql) >= byz_min_quorum_product(n, epsilon, b) - 1e-9
}

/// Masking counterpart of [`min_partner_quorum_size`]: the smallest
/// integer partner side restoring the [`byz_min_quorum_product`] bound.
pub fn byz_min_partner_quorum_size(n: usize, epsilon: f64, b: u32, other_side: f64) -> u32 {
    assert!(
        other_side > 0.0 && other_side.is_finite(),
        "partner quorum side must be positive"
    );
    let required = byz_min_quorum_product(n, epsilon, b);
    let size = (required / other_side).ceil().max(1.0);
    assert!(
        other_side * size >= required - 1e-9,
        "rounding failed to satisfy the masking product bound"
    );
    size as u32
}

/// The paper's empirical observation (§8.2/§8.3): a 0.9 hit ratio needs
/// `|Qℓ| ≈ 1.15·√n` against a `2√n` advertise quorum. Returns that lookup
/// size.
pub fn paper_lookup_size(n: usize) -> u32 {
    (1.15 * (n as f64).sqrt()).round() as u32
}

/// The paper's default advertise quorum size `2√n` (§8).
pub fn paper_advertise_size(n: usize) -> u32 {
    (2.0 * (n as f64).sqrt()).round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma_5_1_example() {
        // §5.2: for 1−ε = 0.9, |Qa|·|Qℓ| ≥ 2.3·n.
        let product = min_quorum_product(1000, 0.1);
        assert!((product - 2302.585).abs() < 0.01);
    }

    #[test]
    fn intersection_bound_monotone() {
        let n = 800;
        assert!(intersection_lower_bound(20, 20, n) < intersection_lower_bound(40, 20, n));
        assert!(intersection_lower_bound(40, 20, n) < intersection_lower_bound(40, 40, n));
        // Bigger network, same quorums → weaker guarantee.
        assert!(intersection_lower_bound(40, 40, 1600) < intersection_lower_bound(40, 40, 800));
    }

    #[test]
    fn oversized_quorums_always_intersect() {
        assert_eq!(intersection_lower_bound(60, 50, 100), 1.0);
        assert_eq!(intersection_lower_bound(100, 100, 100), 1.0);
        // Masking: qa + ql > n + 2b leaves at least 2b + 1 common members.
        assert_eq!(byz_miss_upper_bound(6, 5, 8, 1), 0.0);
        assert!(byz_miss_upper_bound(5, 5, 8, 1) > 0.0);
    }

    #[test]
    fn paper_sizes() {
        // n = 800: |Qa| = 2√800 ≈ 57, |Qℓ| = 1.15·√800 ≈ 33 (Fig. 16
        // quotes 56 and 33 using √800 ≈ 28).
        assert_eq!(paper_advertise_size(800), 57);
        assert_eq!(paper_lookup_size(800), 33);
        // Their product gives at least 0.9 intersection.
        let p = intersection_lower_bound(56, 33, 800);
        assert!(p > 0.89, "paper sizing gives {p}");
    }

    #[test]
    fn corollary_5_3_sizing_satisfies_bound() {
        for &n in &[50usize, 100, 200, 400, 800] {
            for &eps in &[0.05, 0.1, 0.2] {
                let bq = BiquorumSpec::asymmetric_for_epsilon(
                    AccessStrategy::Random,
                    AccessStrategy::UniquePath,
                    n,
                    eps,
                    2.0,
                );
                let p = bq.intersection_lower_bound(n).expect("has guarantee");
                assert!(
                    p >= 1.0 - eps - 1e-9,
                    "n={n} eps={eps}: bound {p} < {}",
                    1.0 - eps
                );
            }
        }
    }

    #[test]
    fn mix_and_match_detection() {
        let guaranteed = BiquorumSpec::new(
            QuorumSpec::new(AccessStrategy::Random, 50),
            QuorumSpec::new(AccessStrategy::Flooding, 3),
        );
        assert!(guaranteed.has_mix_and_match_guarantee());
        let experimental = BiquorumSpec::new(
            QuorumSpec::new(AccessStrategy::UniquePath, 170),
            QuorumSpec::new(AccessStrategy::UniquePath, 170),
        );
        assert!(!experimental.has_mix_and_match_guarantee());
        assert_eq!(experimental.intersection_lower_bound(800), None);
    }

    #[test]
    #[should_panic(expected = "mix-and-match needs at least one RANDOM side")]
    fn asymmetric_requires_random_side() {
        let _ = BiquorumSpec::asymmetric_for_epsilon(
            AccessStrategy::Path,
            AccessStrategy::Flooding,
            100,
            0.1,
            2.0,
        );
    }

    #[test]
    fn strategy_properties_match_fig3() {
        use AccessStrategy::*;
        assert!(Random.needs_routing() && RandomOpt.needs_routing());
        assert!(!Path.needs_routing() && !UniquePath.needs_routing() && !Flooding.needs_routing());
        assert!(Path.supports_early_halting() && UniquePath.supports_early_halting());
        assert!(!Random.supports_early_halting() && !Flooding.supports_early_halting());
        assert!(Random.is_uniform_random() && !RandomOpt.is_uniform_random());
    }

    #[test]
    fn display_formats() {
        let spec = QuorumSpec::new(AccessStrategy::UniquePath, 33);
        assert_eq!(spec.to_string(), "UNIQUE-PATH(33)");
    }

    #[test]
    fn poisson_tail_with_no_adversaries_is_ln_one_over_eps() {
        for &eps in &[0.2, 0.1, 0.01, 1e-4] {
            let lambda = poisson_tail_lambda(0, eps);
            let exact = (1.0_f64 / eps).ln();
            assert!(
                (lambda - exact).abs() < 1e-9,
                "b=0 must reduce to ln(1/eps): {lambda} vs {exact}"
            );
        }
    }

    #[test]
    fn poisson_tail_lambda_solves_the_cdf_equation() {
        for b in [1u32, 3, 7] {
            for &eps in &[0.1, 0.01] {
                let lambda = poisson_tail_lambda(b, eps);
                assert!(poisson_cdf(b, lambda) <= eps + 1e-12);
                // Just below λ* the tail bound must fail — λ* is minimal.
                assert!(poisson_cdf(b, lambda * 0.999) > eps);
            }
        }
    }

    #[test]
    fn byz_product_reduces_to_corollary_5_3_at_b_zero() {
        for &n in &[50usize, 150, 800] {
            for &eps in &[0.05, 0.1] {
                let honest = min_quorum_product(n, eps);
                let byz = byz_min_quorum_product(n, eps, 0);
                assert_eq!(honest.to_bits(), byz.to_bits(), "{honest} vs {byz}");
                for (qa, ql) in [(5, 9), (20, 20), (30, n as u32)] {
                    let crash = 1.0 - intersection_lower_bound(qa, ql, n);
                    let byz = byz_miss_upper_bound(qa, ql, n, 0);
                    assert_eq!(crash.to_bits(), byz.to_bits(), "{crash} vs {byz}");
                }
            }
        }
    }

    #[test]
    fn byz_product_inflates_monotonically_in_b() {
        let mut prev = byz_min_quorum_product(150, 0.1, 0);
        for b in 1..=30u32 {
            let next = byz_min_quorum_product(150, 0.1, b);
            assert!(next > prev, "product must grow with b: b={b}");
            prev = next;
        }
    }

    #[test]
    fn byz_partner_sizing_satisfies_the_inflated_product() {
        for b in [0u32, 5, 15] {
            let ql = 30.0;
            let qa = byz_min_partner_quorum_size(150, 0.1, b, ql);
            let required = byz_min_quorum_product(150, 0.1, b);
            assert!(f64::from(qa) * ql >= required - 1e-9);
            // One fewer would violate the bound (unless floor is 1).
            if qa > 1 {
                assert!(f64::from(qa - 1) * ql < required);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one honest node")]
    fn byz_product_rejects_all_byzantine_population() {
        let _ = byz_min_quorum_product(10, 0.1, 10);
    }
}
