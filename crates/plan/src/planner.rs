//! The analytic planner: from `(n, ε, τ, costs)` to a checked
//! [`QuorumPlan`].
//!
//! The planner composes three results of the paper:
//!
//! - **Lemma 5.6** gives the cost-optimal continuous split
//!   `|Qℓ|* = √(n·ln(1/ε)·Cost_a/(τ·Cost_ℓ))`,
//! - **Corollary 5.3** gives the feasibility floor
//!   `|Qa|·|Qℓ| ≥ n·ln(1/ε)`,
//! - the **§6.1 degradation closed forms** bound how much churn a sized
//!   plan tolerates before `Pr(miss)` crosses ε again, which yields the
//!   refresh budget (and, with an expected churn rate, a refresh period).
//!
//! Deviations from the continuous optimum (documented in DESIGN.md §12):
//! sizes are integers — `|Qℓ|*` is rounded to the nearest integer and
//! clamped to `[1, n]`, then `|Qa|` is the *checked* Corollary 5.3
//! partner size (rounded up), also clamped to `n`. When both sides hit
//! the `n` cap the quorums overlap deterministically (`|Qa|+|Qℓ| > n`)
//! and the miss probability is 0. Every plan is verified against the
//! bound before it is returned — [`Planner::plan`] panics rather than
//! emit an undersized plan.

use pqs_core::analysis::{self, ChurnRegime};
use pqs_core::spec::{self, AccessStrategy, BiquorumSpec, QuorumSpec};
use pqs_sim::SimDuration;

/// Static planning inputs: the target, the cost model, and the expected
/// churn environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Target miss probability ε (plans guarantee `Pr(miss) ≤ ε`).
    pub epsilon: f64,
    /// Prior workload ratio `τ = lookups/advertises`, used until live
    /// counters provide an observed value.
    pub tau: f64,
    /// Per-node advertise access cost (messages; e.g. the mean route
    /// length for RANDOM stores).
    pub cost_advertise: f64,
    /// Per-node lookup access cost (messages; 1 for walk strategies).
    pub cost_lookup: f64,
    /// Advertise-side access strategy.
    pub advertise_strategy: AccessStrategy,
    /// Lookup-side access strategy.
    pub lookup_strategy: AccessStrategy,
    /// The churn regime assumed for refresh budgeting (§6.1).
    pub churn_regime: ChurnRegime,
    /// Expected churn rate (fraction of the population per second); `0`
    /// means no refresh period can be derived.
    pub churn_per_sec: f64,
    /// Assumed number of Byzantine nodes `b` the plan must mask. `0`
    /// (the paper's model) keeps the crash-only Corollary 5.3 sizing;
    /// `b > 0` inflates the quorum product so the *honest* intersection
    /// exceeds `b` concurring votes except with probability ε.
    pub byz_b: u32,
}

impl PlannerConfig {
    /// The paper's working point: ε = 0.1, τ = 10, RANDOM advertise ×
    /// UNIQUE-PATH lookup with the §5.4 worked-example costs (`Cost_a =
    /// D = 5` routed hops per store, `Cost_ℓ = 1` per walk step, so
    /// `|Qℓ|/|Qa| = 1/2`), mixed fail+join churn.
    pub fn paper_default() -> Self {
        PlannerConfig {
            epsilon: 0.1,
            tau: 10.0,
            cost_advertise: 5.0,
            cost_lookup: 1.0,
            advertise_strategy: AccessStrategy::Random,
            lookup_strategy: AccessStrategy::UniquePath,
            churn_regime: ChurnRegime::FailuresAndJoins,
            churn_per_sec: 0.0,
            byz_b: 0,
        }
    }
}

/// A sized, checked quorum configuration plus its guarantees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumPlan {
    /// Strategies and integer sizes for both sides.
    pub spec: BiquorumSpec,
    /// The population the plan was sized for.
    pub n: usize,
    /// The target ε the plan was sized against.
    pub epsilon: f64,
    /// The plan's actual miss bound `exp(−|Qa||Qℓ|/n)` (0 when the sides
    /// deterministically overlap) — ≤ ε, usually strictly below it due
    /// to integer rounding.
    pub miss_bound: f64,
    /// Churn budget: the largest population fraction that may change
    /// (under the configured regime) before `Pr(miss)` exceeds ε — the
    /// §6.1 refresh trigger. `1.0` means the plan never degrades past ε
    /// under that regime.
    pub refresh_churn: f64,
    /// The churn budget converted to sim-time through the configured
    /// churn rate; `None` when the rate is 0 or the budget is unlimited.
    pub refresh_period: Option<SimDuration>,
}

impl QuorumPlan {
    /// The plan's guaranteed miss probability (alias for
    /// [`QuorumPlan::miss_bound`], named for readability in tests).
    pub fn miss_probability(&self) -> f64 {
        self.miss_bound
    }
}

/// Why a planner input was rejected. Rejections are *inputs'* faults —
/// a live controller feeding the planner a degenerate estimate (τ→0
/// after a zero-collision tick, ε drift, a shrunken n̂ below `b`) must
/// be able to hold its last good plan instead of aborting the process,
/// so every validation is a typed error; panics are reserved for
/// planner-internal invariant violations (an emitted undersized plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// ε outside (0,1) (or not finite).
    BadEpsilon {
        /// The rejected value.
        epsilon: f64,
    },
    /// τ or an access cost not strictly positive and finite at
    /// configuration time.
    BadRates {
        /// Configured τ prior.
        tau: f64,
        /// Advertise access cost.
        cost_advertise: f64,
        /// Lookup access cost.
        cost_lookup: f64,
    },
    /// Neither strategy is RANDOM — no mix-and-match guarantee, so the
    /// planner can guarantee nothing (§5.2/§5.3).
    NoRandomSide,
    /// Negative (or non-finite) expected churn rate.
    BadChurnRate {
        /// The rejected rate.
        churn_per_sec: f64,
    },
    /// `n == 0`: no population to plan for.
    EmptyPopulation,
    /// The plan-time workload ratio was not strictly positive/finite.
    BadTau {
        /// The rejected value.
        tau: f64,
    },
    /// `b ≥ n`: no honest intersection can exist.
    TooManyByzantine {
        /// Byzantine nodes to mask.
        b: u32,
        /// Population.
        n: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PlanError::BadEpsilon { epsilon } => {
                write!(f, "epsilon in (0,1): got {epsilon}")
            }
            PlanError::BadRates {
                tau,
                cost_advertise,
                cost_lookup,
            } => write!(
                f,
                "tau and costs must be positive: tau={tau} \
                 cost_advertise={cost_advertise} cost_lookup={cost_lookup}"
            ),
            PlanError::NoRandomSide => f.write_str("mix-and-match needs at least one RANDOM side"),
            PlanError::BadChurnRate { churn_per_sec } => {
                write!(f, "churn rate must be non-negative: got {churn_per_sec}")
            }
            PlanError::EmptyPopulation => f.write_str("cannot plan for an empty population"),
            PlanError::BadTau { tau } => {
                write!(f, "tau must be positive: got {tau}")
            }
            PlanError::TooManyByzantine { b, n } => {
                write!(f, "cannot mask b={b} Byzantine nodes out of n={n}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The analytic planner: validated configuration plus the sizing rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planner {
    cfg: PlannerConfig,
}

impl Planner {
    /// Builds a planner.
    ///
    /// # Panics
    ///
    /// Panics when ε ∉ (0,1), τ or a cost is not strictly positive, or
    /// neither strategy is RANDOM (without a uniform side the
    /// mix-and-match bound — and with it every guarantee the planner
    /// makes — is void, §5.2/§5.3). Fallible callers (live controllers)
    /// use [`Planner::try_new`].
    pub fn new(cfg: PlannerConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a planner, rejecting invalid configuration as a typed
    /// [`PlanError`] instead of panicking.
    pub fn try_new(cfg: PlannerConfig) -> Result<Self, PlanError> {
        if !(cfg.epsilon > 0.0 && cfg.epsilon < 1.0) {
            return Err(PlanError::BadEpsilon {
                epsilon: cfg.epsilon,
            });
        }
        if !(cfg.tau > 0.0
            && cfg.tau.is_finite()
            && cfg.cost_advertise > 0.0
            && cfg.cost_advertise.is_finite()
            && cfg.cost_lookup > 0.0
            && cfg.cost_lookup.is_finite())
        {
            return Err(PlanError::BadRates {
                tau: cfg.tau,
                cost_advertise: cfg.cost_advertise,
                cost_lookup: cfg.cost_lookup,
            });
        }
        if !(cfg.advertise_strategy.is_uniform_random() || cfg.lookup_strategy.is_uniform_random())
        {
            return Err(PlanError::NoRandomSide);
        }
        if !(cfg.churn_per_sec >= 0.0 && cfg.churn_per_sec.is_finite()) {
            return Err(PlanError::BadChurnRate {
                churn_per_sec: cfg.churn_per_sec,
            });
        }
        Ok(Planner { cfg })
    }

    /// The configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// Emits the checked plan for a population of `n` and a (possibly
    /// observed) workload ratio `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `tau ≤ 0`, and — by construction — if the
    /// emitted sizes ever failed the Corollary 5.3 check. Fallible
    /// callers (live controllers acting on estimates) use
    /// [`Planner::try_plan`].
    pub fn plan(&self, n: usize, tau: f64) -> QuorumPlan {
        self.try_plan(n, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Emits the checked plan, rejecting degenerate inputs (`n = 0`,
    /// `τ ≤ 0`, `b ≥ n`) as a typed [`PlanError`] instead of panicking.
    pub fn try_plan(&self, n: usize, tau: f64) -> Result<QuorumPlan, PlanError> {
        if n == 0 {
            return Err(PlanError::EmptyPopulation);
        }
        if !(tau > 0.0 && tau.is_finite()) {
            return Err(PlanError::BadTau { tau });
        }
        let eps = self.cfg.epsilon;
        let b = self.cfg.byz_b;
        if b as usize >= n {
            return Err(PlanError::TooManyByzantine { b, n });
        }
        let cap = n as u32;
        // Lemma 5.6 continuous optimum, rounded to the nearest integer
        // and clamped to [1, n]. With b > 0 the required product inflates
        // from n·ln(1/ε) to the masking bound; the cost-optimal split
        // keeps the same |Qℓ|/|Qa| ratio, so |Qℓ|* scales by
        // √(P_byz/P_honest) — exactly 1 at b = 0, where the masking
        // product is the Corollary 5.3 one to the bit.
        let inflation =
            (spec::byz_min_quorum_product(n, eps, b) / spec::min_quorum_product(n, eps)).sqrt();
        let (cost_a, cost_l) = (self.cfg.cost_advertise, self.cfg.cost_lookup);
        let ql_star = analysis::optimal_lookup_size(n, eps, tau, cost_a, cost_l) * inflation;
        let partner = |other: f64| spec::byz_min_partner_quorum_size(n, eps, b, other);
        let ql = (ql_star.round() as u32).clamp(1, cap);
        // Corollary 5.3 partner size (checked rounding), capped at n;
        // when the cap binds, re-grow the lookup side toward the bound.
        let qa = partner(f64::from(ql)).min(cap);
        let ql = if qa == cap {
            partner(f64::from(qa)).min(cap).max(ql)
        } else {
            ql
        };
        let spec_pair = BiquorumSpec::new(
            QuorumSpec::new(self.cfg.advertise_strategy, qa),
            QuorumSpec::new(self.cfg.lookup_strategy, ql),
        );
        // The Corollary 5.3 gate (masking-inflated when b > 0): an
        // undersized plan must never escape. Fully capped sides overlap
        // deterministically in at least qa + ql − n members, of which at
        // most b are Byzantine — certain masking needs qa + ql > n + 2b.
        let satisfies = spec::byz_satisfies_min_product(qa, ql, n, eps, b);
        let overlap_certain = qa as usize + ql as usize > n + 2 * b as usize;
        assert!(
            satisfies || overlap_certain,
            "planner produced an undersized plan: qa={qa} ql={ql} n={n} eps={eps} b={b}"
        );
        let miss_bound = spec::byz_miss_upper_bound(qa, ql, n, b);
        debug_assert!(miss_bound <= eps + 1e-9);
        // §6.1 refresh budget: how much churn until the *actual* miss
        // bound (below ε thanks to rounding) degrades up to ε.
        let refresh_churn = if miss_bound <= 0.0 {
            1.0
        } else {
            analysis::max_tolerable_churn(miss_bound, 1.0 - eps, self.cfg.churn_regime)
                .unwrap_or(0.0)
        };
        let refresh_period = (self.cfg.churn_per_sec > 0.0 && refresh_churn < 1.0)
            .then(|| SimDuration::from_secs_f64(refresh_churn / self.cfg.churn_per_sec));
        Ok(QuorumPlan {
            spec: spec_pair,
            n,
            epsilon: eps,
            miss_bound,
            refresh_churn,
            refresh_period,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_working_point_plan() {
        // n = 800, ε = 0.1, τ = 10, Cost_a:Cost_ℓ = 5:1 →
        // |Qℓ|* = √(800·2.303·5/10) ≈ 30.3 and |Qa| = ⌈1842.1/30⌉ = 62,
        // close to the paper's measured 57/33 working point.
        let planner = Planner::new(PlannerConfig::paper_default());
        let plan = planner.plan(800, 10.0);
        assert_eq!(plan.spec.lookup.size, 30);
        assert_eq!(plan.spec.advertise.size, 62);
        assert!(plan.miss_bound <= 0.1);
        assert!(plan.spec.has_mix_and_match_guarantee());
    }

    #[test]
    fn refresh_budget_matches_section_6_1() {
        // A plan sized exactly at ε has no churn headroom; rounding
        // slack buys a positive refresh budget.
        let planner = Planner::new(PlannerConfig::paper_default());
        let plan = planner.plan(800, 10.0);
        assert!(plan.refresh_churn > 0.0, "rounding slack buys headroom");
        // With an expected churn rate, the budget becomes a period.
        let mut cfg = PlannerConfig::paper_default();
        cfg.churn_per_sec = 0.001; // 0.1 %/s
        let plan = Planner::new(cfg).plan(800, 10.0);
        if plan.refresh_churn < 1.0 {
            let period = plan.refresh_period.expect("rate > 0 gives a period");
            let expect = plan.refresh_churn / 0.001;
            assert!((period.as_secs_f64() - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn tiny_populations_cap_at_n_and_still_guarantee() {
        let planner = Planner::new(PlannerConfig::paper_default());
        for n in 1..20 {
            let plan = planner.plan(n, 10.0);
            assert!(plan.spec.advertise.size as usize <= n);
            assert!(plan.spec.lookup.size as usize <= n);
            assert!(plan.miss_probability() <= 0.1 + 1e-9, "n={n}");
        }
    }

    #[test]
    fn higher_tau_shrinks_lookup_side() {
        // Lemma 5.6: more lookups per advertise → cheaper (smaller)
        // lookups, larger advertise quorums.
        let planner = Planner::new(PlannerConfig::paper_default());
        let read_heavy = planner.plan(800, 50.0);
        let write_heavy = planner.plan(800, 2.0);
        assert!(read_heavy.spec.lookup.size < write_heavy.spec.lookup.size);
        assert!(read_heavy.spec.advertise.size > write_heavy.spec.advertise.size);
    }

    #[test]
    #[should_panic(expected = "mix-and-match needs at least one RANDOM side")]
    fn rejects_unguaranteed_strategy_pairs() {
        let cfg = PlannerConfig {
            advertise_strategy: AccessStrategy::UniquePath,
            lookup_strategy: AccessStrategy::UniquePath,
            ..PlannerConfig::paper_default()
        };
        let _ = Planner::new(cfg);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn rejects_empty_population() {
        let _ = Planner::new(PlannerConfig::paper_default()).plan(0, 10.0);
    }

    #[test]
    fn masking_inflates_the_quorum_product() {
        use pqs_core::spec;
        let honest = Planner::new(PlannerConfig::paper_default()).plan(800, 10.0);
        let mut prev = honest.spec.advertise.size as u64 * honest.spec.lookup.size as u64;
        for b in [8u32, 40, 80] {
            let cfg = PlannerConfig {
                byz_b: b,
                ..PlannerConfig::paper_default()
            };
            let plan = Planner::new(cfg).plan(800, 10.0);
            let qa = plan.spec.advertise.size;
            let ql = plan.spec.lookup.size;
            let product = qa as u64 * ql as u64;
            assert!(product > prev, "b={b} must inflate past {prev}");
            assert!(spec::byz_satisfies_min_product(qa, ql, 800, 0.1, b));
            assert!(plan.miss_bound <= 0.1 + 1e-9);
            prev = product;
        }
    }

    #[test]
    fn byz_zero_plans_are_identical_to_honest_plans() {
        let honest = Planner::new(PlannerConfig::paper_default());
        let zero = Planner::new(PlannerConfig {
            byz_b: 0,
            ..PlannerConfig::paper_default()
        });
        for n in [10usize, 150, 800] {
            assert_eq!(honest.plan(n, 10.0), zero.plan(n, 10.0));
        }
    }

    #[test]
    fn masking_plans_survive_tiny_populations() {
        let cfg = PlannerConfig {
            byz_b: 1,
            ..PlannerConfig::paper_default()
        };
        let planner = Planner::new(cfg);
        for n in 4..20 {
            let plan = planner.plan(n, 10.0);
            let qa = plan.spec.advertise.size as usize;
            let ql = plan.spec.lookup.size as usize;
            assert!(qa <= n && ql <= n, "n={n}");
            assert!(plan.miss_probability() <= 0.1 + 1e-9, "n={n}");
        }
    }

    #[test]
    fn try_variants_reject_degenerate_inputs_without_panicking() {
        let planner = Planner::new(PlannerConfig::paper_default());
        assert_eq!(planner.try_plan(0, 10.0), Err(PlanError::EmptyPopulation));
        assert!(matches!(
            planner.try_plan(800, 0.0),
            Err(PlanError::BadTau { .. })
        ));
        assert!(matches!(
            planner.try_plan(800, f64::NAN),
            Err(PlanError::BadTau { .. })
        ));
        let byz = Planner::new(PlannerConfig {
            byz_b: 10,
            ..PlannerConfig::paper_default()
        });
        assert_eq!(
            byz.try_plan(10, 10.0),
            Err(PlanError::TooManyByzantine { b: 10, n: 10 })
        );
        assert!(matches!(
            Planner::try_new(PlannerConfig {
                epsilon: 1.5,
                ..PlannerConfig::paper_default()
            }),
            Err(PlanError::BadEpsilon { .. })
        ));
        assert!(matches!(
            Planner::try_new(PlannerConfig {
                cost_lookup: f64::NAN,
                ..PlannerConfig::paper_default()
            }),
            Err(PlanError::BadRates { .. })
        ));
        // The panic-wrapper message is the error's Display — the
        // documented substrings stay greppable.
        assert_eq!(
            PlanError::NoRandomSide.to_string(),
            "mix-and-match needs at least one RANDOM side"
        );
    }

    #[test]
    #[should_panic(expected = "cannot mask")]
    fn rejects_fully_byzantine_population() {
        let cfg = PlannerConfig {
            byz_b: 10,
            ..PlannerConfig::paper_default()
        };
        let _ = Planner::new(cfg).plan(10, 10.0);
    }
}
