//! The weighted-strategy load optimizer: from one `(n, ε, τ, f)` input
//! to a [`WeightedBiquorumSpec`] — a small set of quorum candidates
//! with selection weights — minimising a *predicted peak per-node
//! load* subject to the mixture ε gate and an f-resilience constraint.
//!
//! The paper always sizes one `(|Qa|, |Qℓ|)` pair and accesses it
//! uniformly; "Read-Write Quorum Systems Made Practical" (Whittaker et
//! al.) shows that *mixing* read strategies under a shared intersection
//! constraint can cut peak load well below any single pair, because
//! different access strategies concentrate their work on different
//! node populations: routed RANDOM probes hammer relay hubs, random
//! walks linger on high-degree nodes, TTL floods spread almost flat.
//! The optimizer exploits exactly that spread.
//!
//! ## The model (DESIGN.md §18)
//!
//! Each lookup candidate `i` is assigned a per-access work estimate
//! `workᵢ` (transmissions caused network-wide) and a concentration
//! factor `κᵢ` (peak/mean multiplier of where that work lands). With
//! write rate 1 and read rate τ, and assuming hot spots coincide (hub
//! nodes are hubs for every strategy — pessimistic but safe), the
//! predicted peak per-node load of a weighted mixture `w` is
//!
//! ```text
//! peak(w) = (κ_a·work_a + τ·Σᵢ wᵢ·κᵢ·workᵢ) / (n·(1 + τ))
//! ```
//!
//! which is linear in `w`; the ε gate
//! `Σᵢⱼ wᵢwⱼ·miss(i,j) ≤ ε` (evaluated with every side discounted by
//! the survivor fraction `1 − f`) is evaluated exactly through
//! [`WeightedBiquorumSpec::mixture_miss_bound_with_failures`]. The
//! optimum is found by a deterministic grid scan over the weight
//! simplex — no RNG, no float-order sensitivity, byte-identical
//! output for identical inputs.
//!
//! Alongside the model prediction each plan reports the theoretical
//! Malkhi–Reiter–Wool load `(E[|Qa|] + τ·E[|Qℓ|])/(n(1+τ))` — the
//! analytic floor any access implementation can at best achieve.

use crate::planner::{PlanError, Planner, PlannerConfig, QuorumPlan};
use pqs_core::spec::{
    AccessStrategy, QuorumSpec, WeightedBiquorumSpec, WeightedSide, MAX_WEIGHTED_CANDIDATES,
};

/// The coarse per-strategy load model: concentration factors and work
/// units. These are *predictions* used only to rank mixtures — the ε
/// gate never depends on them — so miscalibration costs optimality,
/// not safety.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadModel {
    /// Peak/mean concentration of routed RANDOM(-OPT) work: relays on
    /// shortest-path trees are shared, so per-node load peaks at the
    /// network's cut vertices.
    pub kappa_random: f64,
    /// Peak/mean concentration of walk strategies: stationary random
    /// walks visit nodes proportionally to degree, so hubs absorb a
    /// degree-ratio multiple of the mean.
    pub kappa_walk: f64,
    /// Peak/mean concentration of TTL flooding: every covered node
    /// broadcasts once — nearly flat.
    pub kappa_flood: f64,
    /// Mean routed path length in hops (work per routed quorum member).
    pub route_hops: f64,
    /// Mean node degree, driving the quadratic flood-coverage growth
    /// `coverage(ttl) ≈ min(n, degree·ttl²)` of a 2-D geometric graph.
    pub avg_degree: f64,
}

impl LoadModel {
    /// Defaults matching the simulator's paper-default scenarios
    /// (density ≈ 10 neighbours, routes ≈ 5 hops at n = 800).
    pub fn paper_default() -> Self {
        LoadModel {
            kappa_random: 2.0,
            kappa_walk: 3.0,
            kappa_flood: 1.1,
            route_hops: 5.0,
            avg_degree: 10.0,
        }
    }

    /// `(work, κ)` of one access of `spec` in a population of `n`.
    fn access_profile(&self, spec: QuorumSpec, n: usize) -> (f64, f64) {
        let size = f64::from(spec.size);
        match spec.strategy {
            AccessStrategy::Random | AccessStrategy::RandomOpt => {
                (size * self.route_hops, self.kappa_random)
            }
            AccessStrategy::Path | AccessStrategy::UniquePath => (size, self.kappa_walk),
            AccessStrategy::Flooding => {
                let coverage = (self.avg_degree * size * size).min(n as f64);
                (coverage, self.kappa_flood)
            }
        }
    }
}

/// Inputs of the weighted optimizer: the analytic planner's inputs
/// plus the resilience target, the lookup strategy palette and the
/// load model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// The planner inputs (ε, τ prior, costs, strategies, churn). The
    /// uniform baseline plan is sized from these; the optimizer keeps
    /// `advertise_strategy` as its single advertise candidate.
    pub planner: PlannerConfig,
    /// Fraction `f ∈ [0,1)` of every placed quorum the mixture must
    /// survive: the ε gate is evaluated with each side's effective
    /// size discounted to `⌊size·(1−f)⌋`.
    pub f_resilience: f64,
    /// Lookup-side candidate strategies (`None` slots unused). Each
    /// present strategy contributes one sized candidate.
    pub lookup_palette: [Option<AccessStrategy>; MAX_WEIGHTED_CANDIDATES],
    /// The load model ranking the mixtures.
    pub model: LoadModel,
    /// Weight-grid resolution: weights move in steps of
    /// `1/weight_steps` (20 → 5 % granularity).
    pub weight_steps: u32,
}

impl OptimizerConfig {
    /// Defaults: the paper planner, no resilience discount, a
    /// UNIQUE-PATH + RANDOM + FLOODING palette, the paper load model,
    /// 5 % weight granularity.
    pub fn paper_default() -> Self {
        OptimizerConfig {
            planner: PlannerConfig::paper_default(),
            f_resilience: 0.0,
            lookup_palette: [
                Some(AccessStrategy::UniquePath),
                Some(AccessStrategy::Random),
                Some(AccessStrategy::Flooding),
                None,
            ],
            model: LoadModel::paper_default(),
            weight_steps: 20,
        }
    }
}

/// A weighted plan: the mixture, the uniform single-pair baseline it
/// is measured against, and both plans' analytic load figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPlan {
    /// The optimised mixture.
    pub spec: WeightedBiquorumSpec,
    /// The uniform single-pair plan for the same `(n, τ)` — the
    /// baseline `fig_load` compares measured load against.
    pub uniform: QuorumPlan,
    /// Population planned for.
    pub n: usize,
    /// The ε target.
    pub epsilon: f64,
    /// The resilience discount the gate was evaluated under.
    pub f_resilience: f64,
    /// The mixture's miss bound after f-discounting (≤ ε).
    pub miss_bound: f64,
    /// Model-predicted peak per-node load of the mixture (normalised
    /// work units per operation).
    pub predicted_peak: f64,
    /// The same prediction for the uniform baseline.
    pub predicted_peak_uniform: f64,
    /// Malkhi–Reiter–Wool theoretical load of the mixture.
    pub mrw_load: f64,
    /// Malkhi–Reiter–Wool theoretical load of the uniform baseline.
    pub mrw_load_uniform: f64,
}

/// The weighted-strategy optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimizer {
    cfg: OptimizerConfig,
}

impl Optimizer {
    /// Builds the optimizer, validating both the embedded planner
    /// config and the optimizer-specific knobs.
    pub fn try_new(cfg: OptimizerConfig) -> Result<Self, PlanError> {
        Planner::try_new(cfg.planner)?;
        if !(cfg.f_resilience >= 0.0 && cfg.f_resilience < 1.0) {
            return Err(PlanError::BadResilience {
                f: cfg.f_resilience,
            });
        }
        if cfg.weight_steps == 0 {
            return Err(PlanError::BadWeightGrid);
        }
        if cfg.lookup_palette.iter().all(|s| s.is_none()) {
            return Err(PlanError::EmptyPalette);
        }
        Ok(Optimizer { cfg })
    }

    /// Panicking constructor mirroring [`Planner::new`].
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (see [`Optimizer::try_new`]).
    pub fn new(cfg: OptimizerConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// Computes the weighted plan for a population of `n` and workload
    /// ratio `tau`. Deterministic: identical inputs give identical
    /// output.
    pub fn try_plan(&self, n: usize, tau: f64) -> Result<WeightedPlan, PlanError> {
        let planner = Planner::try_new(self.cfg.planner)?;
        let uniform = planner.try_plan(n, tau)?;
        let f = self.cfg.f_resilience;
        let eps = self.cfg.planner.epsilon;
        let survive = 1.0 - f;
        let cap = n as u32;

        // Advertise side: one candidate, inflated so its f-discounted
        // size matches the uniform plan's (the mixture's guarantee
        // anchor — advertise stays RANDOM, so *every* lookup candidate
        // keeps the mix-and-match bound).
        let qa = ((f64::from(uniform.spec.advertise.size) / survive).ceil() as u32).clamp(1, cap);
        let advertise =
            WeightedSide::single(QuorumSpec::new(self.cfg.planner.advertise_strategy, qa));

        // Lookup candidates: one per palette strategy, each sized so
        // that *alone* (weight 1) it would satisfy the f-discounted
        // gate — except flooding, whose TTL is capped at a practical
        // scope and may only ever carry partial weight.
        let qa_eff = f64::from((f64::from(qa) * survive).floor().max(1.0) as u32);
        let mut candidates: Vec<QuorumSpec> = Vec::new();
        for strategy in self.cfg.lookup_palette.iter().flatten() {
            let spec = match strategy {
                AccessStrategy::Flooding => {
                    // TTL sized for the *expected* diameter-scale scope;
                    // the exact (conservative) gate keeps its weight
                    // honest.
                    let ttl =
                        ((n as f64 / self.cfg.model.avg_degree).sqrt().ceil() as u32).clamp(1, 8);
                    QuorumSpec::new(AccessStrategy::Flooding, ttl)
                }
                s => {
                    let ql = pqs_core::spec::min_partner_quorum_size(n, eps, qa_eff);
                    let ql = ((f64::from(ql) / survive).ceil() as u32).clamp(1, cap);
                    QuorumSpec::new(*s, ql)
                }
            };
            candidates.push(spec);
        }

        // Deterministic simplex scan: minimise predicted peak subject
        // to the exact mixture gate.
        let steps = self.cfg.weight_steps;
        let profiles: Vec<(f64, f64)> = candidates
            .iter()
            .map(|c| self.cfg.model.access_profile(*c, n))
            .collect();
        let (wa, ka) = self
            .cfg
            .model
            .access_profile(QuorumSpec::new(self.cfg.planner.advertise_strategy, qa), n);
        let peak_of = |weights: &[f64]| -> f64 {
            let lookup_work: f64 = weights
                .iter()
                .zip(&profiles)
                .map(|(w, (work, kappa))| w * work * kappa)
                .sum();
            (ka * wa + tau * lookup_work) / (n as f64 * (1.0 + tau))
        };
        let mut best: Option<(f64, WeightedBiquorumSpec, f64)> = None;
        let mut weights = vec![0u32; candidates.len()];
        enumerate_simplex(&mut weights, 0, steps, &mut |grid| {
            let w: Vec<f64> = grid
                .iter()
                .map(|g| f64::from(*g) / f64::from(steps))
                .collect();
            // Zero-weight candidates are dropped so the stored mixture
            // only holds live support points.
            let (specs, ws): (Vec<QuorumSpec>, Vec<f64>) = candidates
                .iter()
                .zip(&w)
                .filter(|(_, w)| **w > 0.0)
                .map(|(s, w)| (*s, *w))
                .unzip();
            if specs.is_empty() {
                return;
            }
            let mix = WeightedBiquorumSpec::new(advertise, WeightedSide::new(&specs, &ws));
            let miss = mix.mixture_miss_bound_with_failures(n, f);
            if miss > eps {
                return;
            }
            let peak = peak_of(&w);
            let better = match &best {
                None => true,
                Some((p, _, _)) => peak < *p - 1e-12,
            };
            if better {
                best = Some((peak, mix, miss));
            }
        });
        let Some((peak, spec, miss_bound)) = best else {
            return Err(PlanError::Infeasible { n, f });
        };
        let uniform_mix = WeightedBiquorumSpec::from_uniform(uniform.spec);
        let (u_work, u_kappa) = self.cfg.model.access_profile(uniform.spec.lookup, n);
        let predicted_peak_uniform = {
            let (uwa, uka) = self.cfg.model.access_profile(uniform.spec.advertise, n);
            (uka * uwa + tau * u_work * u_kappa) / (n as f64 * (1.0 + tau))
        };
        Ok(WeightedPlan {
            spec,
            uniform,
            n,
            epsilon: eps,
            f_resilience: f,
            miss_bound,
            predicted_peak: peak,
            predicted_peak_uniform,
            mrw_load: spec.mrw_load(n, tau),
            mrw_load_uniform: uniform_mix.mrw_load(n, tau),
        })
    }

    /// Panicking wrapper over [`Optimizer::try_plan`].
    ///
    /// # Panics
    ///
    /// Panics on degenerate inputs or an infeasible gate.
    pub fn plan(&self, n: usize, tau: f64) -> WeightedPlan {
        self.try_plan(n, tau).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Enumerates every integer weight vector on the simplex
/// `Σ gᵢ = steps` in lexicographic order (deterministic).
fn enumerate_simplex(grid: &mut [u32], idx: usize, remaining: u32, f: &mut impl FnMut(&[u32])) {
    if idx == grid.len() - 1 {
        grid[idx] = remaining;
        f(grid);
        return;
    }
    for g in 0..=remaining {
        grid[idx] = g;
        enumerate_simplex(grid, idx + 1, remaining - g, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_plan_satisfies_gate_and_beats_uniform_prediction() {
        let opt = Optimizer::new(OptimizerConfig::paper_default());
        let plan = opt.plan(800, 10.0);
        assert!(plan.miss_bound <= 0.1 + 1e-12);
        assert!(plan.spec.has_mix_and_match_guarantee());
        // The mixture can never predict *worse* than the single best
        // candidate, and the palette contains a uniform-shaped one.
        assert!(plan.predicted_peak <= plan.predicted_peak_uniform * 1.5);
        // MRW load is reported for both arms.
        assert!(plan.mrw_load > 0.0 && plan.mrw_load_uniform > 0.0);
    }

    #[test]
    fn determinism_identical_inputs_identical_output() {
        let opt = Optimizer::new(OptimizerConfig::paper_default());
        let a = opt.plan(800, 10.0);
        let b = opt.plan(800, 10.0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn resilience_discount_inflates_sizes() {
        let mut cfg = OptimizerConfig::paper_default();
        cfg.f_resilience = 0.3;
        let resilient = Optimizer::new(cfg).plan(800, 10.0);
        let baseline = Optimizer::new(OptimizerConfig::paper_default()).plan(800, 10.0);
        assert!(
            resilient.spec.advertise.mean_size() > baseline.spec.advertise.mean_size(),
            "f-discounting must inflate the advertise anchor"
        );
        assert!(resilient.miss_bound <= 0.1 + 1e-12);
    }

    #[test]
    fn rejects_bad_config() {
        let mut cfg = OptimizerConfig::paper_default();
        cfg.f_resilience = 1.0;
        assert!(matches!(
            Optimizer::try_new(cfg),
            Err(PlanError::BadResilience { .. })
        ));
        let mut cfg = OptimizerConfig::paper_default();
        cfg.lookup_palette = [None; MAX_WEIGHTED_CANDIDATES];
        assert!(matches!(
            Optimizer::try_new(cfg),
            Err(PlanError::EmptyPalette)
        ));
    }
}
