//! The load optimizer: from one `(n, τ)` input to the plain
//! [`BiquorumSpec`] whose lookup strategy is predicted to put the least
//! load on the busiest node, subject to the ε gate.
//!
//! The paper sizes one `(|Qa|, |Qℓ|)` pair, and its mix-and-match lemma
//! (Lemma 5.2) keeps the `1 − ε` guarantee for *any* lookup strategy
//! opposite a RANDOM advertise side. The strategies differ in where
//! their work lands: routed RANDOM probes pay a route per member and
//! funnel through relay hubs, walks pay one transmission per member and
//! linger on high-degree nodes, TTL floods cover a neighbourhood almost
//! flat. The optimizer keeps the planner's advertise side, sizes one
//! lookup candidate per strategy (UNIQUE-PATH, RANDOM, FLOODING), drops
//! every candidate whose [`BiquorumSpec::intersection_lower_bound`] is
//! below `1 − ε`, and returns the one with the lowest predicted peak
//! (DESIGN.md §12).
//!
//! ## The load model
//!
//! Each access gets a work estimate (transmissions caused network-wide)
//! and a concentration factor κ (peak/mean multiplier of where that work
//! lands). With write rate 1 and read rate τ, and assuming hot spots
//! coincide (hub nodes are hubs for every strategy — pessimistic but
//! safe), the predicted peak per-node load of a spec is
//!
//! ```text
//! peak = (κ_a·work_a + τ·κ_ℓ·work_ℓ) / (n·(1 + τ))
//! ```
//!
//! The model only ranks candidates — the ε gate never depends on it —
//! so miscalibration costs optimality, not safety. Alongside the
//! prediction each plan reports the Malkhi–Reiter–Wool load
//! `(|Qa| + τ·|Qℓ|)/(n(1+τ))`, the analytic floor any access
//! implementation can at best achieve.

use crate::planner::{PlanError, Planner, PlannerConfig, QuorumPlan};
use pqs_core::spec::{AccessStrategy, BiquorumSpec, QuorumSpec};

/// Peak/mean concentration of routed RANDOM(-OPT) work: relays on
/// shortest-path trees are shared, so per-node load peaks at the
/// network's cut vertices.
const KAPPA_RANDOM: f64 = 2.0;
/// Peak/mean concentration of walk strategies: stationary random walks
/// visit nodes proportionally to degree, so hubs absorb a degree-ratio
/// multiple of the mean.
const KAPPA_WALK: f64 = 3.0;
/// Peak/mean concentration of TTL flooding: every covered node
/// broadcasts once — nearly flat.
const KAPPA_FLOOD: f64 = 1.1;
/// Mean routed path length in hops (work per routed quorum member) in
/// the simulator's paper-default scenarios.
const ROUTE_HOPS: f64 = 5.0;
/// Mean node degree, driving the quadratic flood-coverage growth
/// `coverage(ttl) ≈ min(n, degree·ttl²)` of a 2-D geometric graph.
const AVG_DEGREE: f64 = 10.0;
/// The lookup strategies ranked.
const LOOKUP_CANDIDATES: [AccessStrategy; 3] = [
    AccessStrategy::UniquePath,
    AccessStrategy::Random,
    AccessStrategy::Flooding,
];

/// The optimizer's input is the planner's. This alias stays only
/// because the benchmark's plan probe (`benchmark/src/probes.rs`) names
/// it.
pub type OptimizerConfig = PlannerConfig;

/// A ranked plan: the winning spec, the uniform plan it is measured
/// against, and both plans' analytic load figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPlan {
    /// The planner's advertise side opposite the winning lookup
    /// candidate.
    pub spec: BiquorumSpec,
    /// The planner's plan for the same `(n, τ)` — the baseline
    /// `fig_load` compares measured load against.
    pub uniform: QuorumPlan,
    /// The winning spec's miss bound `1 − intersection_lower_bound(n)`
    /// (≤ ε).
    pub miss_bound: f64,
    /// Model-predicted peak per-node load of `spec` (normalised work
    /// units per operation).
    pub predicted_peak: f64,
    /// The same prediction for the uniform plan.
    pub predicted_peak_uniform: f64,
    /// Malkhi–Reiter–Wool load of `spec`.
    pub mrw_load: f64,
    /// Malkhi–Reiter–Wool load of the uniform plan.
    pub mrw_load_uniform: f64,
}

/// The load optimizer: a validated [`Planner`] plus the ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimizer {
    planner: Planner,
}

impl Optimizer {
    /// Builds the optimizer.
    ///
    /// # Panics
    ///
    /// Panics on invalid planner configuration (see [`Planner::new`]).
    pub fn new(cfg: PlannerConfig) -> Self {
        Optimizer {
            planner: Planner::new(cfg),
        }
    }

    /// Ranks the lookup candidates for a population of `n` and workload
    /// ratio `tau`. Deterministic: identical inputs give identical
    /// output.
    pub fn try_plan(&self, n: usize, tau: f64) -> Result<RankedPlan, PlanError> {
        let uniform = self.planner.try_plan(n, tau)?;
        let eps = self.planner.config().epsilon;
        let advertise = uniform.spec.advertise;
        // The first of equal peaks wins, so ties break in candidate order.
        let (spec, bound, peak) = LOOKUP_CANDIDATES
            .iter()
            .filter_map(|&strategy| {
                let lookup = lookup_candidate(strategy, n, eps, advertise.size);
                let spec = BiquorumSpec::new(advertise, lookup);
                let bound = spec.intersection_lower_bound(n)?;
                (bound >= 1.0 - eps).then(|| (spec, bound, predicted_peak(spec, n, tau)))
            })
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("the RANDOM candidate restores n·ln(1/ε) opposite any advertise side");
        Ok(RankedPlan {
            spec,
            uniform,
            miss_bound: 1.0 - bound,
            predicted_peak: peak,
            predicted_peak_uniform: predicted_peak(uniform.spec, n, tau),
            mrw_load: mrw_load(spec, n, tau),
            mrw_load_uniform: mrw_load(uniform.spec, n, tau),
        })
    }

    /// Panicking wrapper over [`Optimizer::try_plan`].
    ///
    /// # Panics
    ///
    /// Panics on degenerate inputs (see [`Planner::try_plan`]).
    pub fn plan(&self, n: usize, tau: f64) -> RankedPlan {
        self.try_plan(n, tau).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The lookup candidate of `strategy` opposite an advertise side of
/// `qa`: the Corollary 5.3 partner size, except flooding, whose TTL is
/// sized for a diameter-scale scope capped at 8 (the ε gate then decides
/// whether that scope is enough).
fn lookup_candidate(strategy: AccessStrategy, n: usize, eps: f64, qa: u32) -> QuorumSpec {
    let size = match strategy {
        AccessStrategy::Flooding => ((n as f64 / AVG_DEGREE).sqrt().ceil() as u32).clamp(1, 8),
        _ => pqs_core::spec::min_partner_quorum_size(n, eps, f64::from(qa)).clamp(1, n as u32),
    };
    QuorumSpec::new(strategy, size)
}

/// `(work, κ)` of one access of `spec` in a population of `n`.
fn access_profile(spec: QuorumSpec, n: usize) -> (f64, f64) {
    let size = f64::from(spec.size);
    match spec.strategy {
        AccessStrategy::Random | AccessStrategy::RandomOpt => (size * ROUTE_HOPS, KAPPA_RANDOM),
        AccessStrategy::Path | AccessStrategy::UniquePath => (size, KAPPA_WALK),
        AccessStrategy::Flooding => ((AVG_DEGREE * size * size).min(n as f64), KAPPA_FLOOD),
    }
}

/// The model's predicted peak per-node load of `spec` (module docs).
fn predicted_peak(spec: BiquorumSpec, n: usize, tau: f64) -> f64 {
    let (work_a, kappa_a) = access_profile(spec.advertise, n);
    let (work_l, kappa_l) = access_profile(spec.lookup, n);
    (kappa_a * work_a + tau * (work_l * kappa_l)) / (n as f64 * (1.0 + tau))
}

/// The Malkhi–Reiter–Wool load of `spec`: with write rate 1 and read
/// rate τ, the expected fraction of operations touching any fixed node.
fn mrw_load(spec: BiquorumSpec, n: usize, tau: f64) -> f64 {
    let (qa, ql) = (f64::from(spec.advertise.size), f64::from(spec.lookup.size));
    (qa + tau * ql) / (n as f64 * (1.0 + tau))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_plan_satisfies_gate_and_beats_uniform_prediction() {
        let opt = Optimizer::new(PlannerConfig::paper_default());
        let plan = opt.plan(800, 10.0);
        assert!(plan.miss_bound <= 0.1);
        assert!(plan.spec.has_mix_and_match_guarantee());
        // The uniform plan's spec is the UNIQUE-PATH candidate here, so
        // the ranking cannot predict worse.
        assert!(plan.predicted_peak <= plan.predicted_peak_uniform);
        assert!(plan.mrw_load > 0.0 && plan.mrw_load_uniform > 0.0);
    }

    #[test]
    fn determinism_identical_inputs_identical_output() {
        let opt = Optimizer::new(PlannerConfig::paper_default());
        let a = opt.plan(800, 10.0);
        let b = opt.plan(800, 10.0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn fig_load_point_ranks_a_walk_opposite_random() {
        let opt = Optimizer::new(PlannerConfig {
            epsilon: 0.02,
            tau: 5.0,
            lookup_strategy: AccessStrategy::Random,
            ..PlannerConfig::paper_default()
        });
        let plan = opt.plan(400, 5.0);
        let random = QuorumSpec::new(AccessStrategy::Random, 40);
        assert_eq!(plan.uniform.spec, BiquorumSpec::new(random, random));
        let walk = QuorumSpec::new(AccessStrategy::UniquePath, 40);
        assert_eq!(plan.spec, BiquorumSpec::new(random, walk));
        assert!((plan.predicted_peak - 0.41667).abs() < 1e-5);
        assert!((plan.predicted_peak_uniform - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_population_ranks_a_full_walk() {
        let opt = Optimizer::new(PlannerConfig {
            epsilon: 0.05,
            ..PlannerConfig::paper_default()
        });
        let plan = opt.plan(50, 0.1);
        assert_eq!(
            plan.spec.lookup,
            QuorumSpec::new(AccessStrategy::UniquePath, 50)
        );
        assert!((plan.predicted_peak - 0.81818).abs() < 1e-5);
    }
}
