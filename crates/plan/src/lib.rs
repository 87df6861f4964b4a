//! # pqs-plan — adaptive quorum planning for probabilistic biquorums
//!
//! The sizing theory of the reproduced paper (Friedman, Kliot, Avin;
//! DSN'08) as a *closed loop* instead of an offline table:
//!
//! - [`planner`]: the analytic [`Planner`] — from a target ε, per-access
//!   costs, the workload ratio τ and an (estimated) population `n` to a
//!   checked [`QuorumPlan`] (Lemma 5.6 split, Corollary 5.3 floor, §6.1
//!   churn/refresh budget),
//! - [`optimizer`]: the load [`Optimizer`] — ranks one lookup candidate
//!   per strategy opposite the planner's advertise side, drops those
//!   below `1 − ε`, and returns the plain spec with the lowest predicted
//!   peak per-node load, the Malkhi–Reiter–Wool load reported alongside
//!   (DESIGN.md §12),
//! - [`controller`]: the deterministic runtime [`AdaptiveController`] —
//!   periodically folds the §6.3 collision estimate n̂, the observed τ
//!   and the §6.1 advertise-survivor fraction into the planner and
//!   applies re-sizing to a live `QuorumStack` through its
//!   `Reconfigure` path, with dead-band + min-dwell hysteresis.
//!
//! The workload-aware planning angle follows "Read-Write Quorum Systems
//! Made Practical" (Whittaker et al.); the churn/time-driven
//! re-provisioning angle follows "Timed Quorum Systems" (Gramoli &
//! Raynal) — both translated to the MANET sizing rules of the paper.
//!
//! # Examples
//!
//! Plan offline for a measured population and workload:
//!
//! ```
//! use pqs_plan::{Planner, PlannerConfig};
//!
//! let planner = Planner::new(PlannerConfig::paper_default());
//! let plan = planner.plan(800, 10.0);
//! assert!(plan.miss_probability() <= 0.1);
//! // Corollary 5.3 after rounding:
//! let (qa, ql) = (plan.spec.advertise.size, plan.spec.lookup.size);
//! assert!(pqs_plan::satisfies_min_product(qa, ql, 800, 0.1));
//! ```
//!
//! Attach the controller to a simulated scenario:
//!
//! ```
//! use pqs_core::runner::ScenarioConfig;
//! use pqs_core::workload::WorkloadConfig;
//! use pqs_plan::{run_adaptive_scenario, ControllerConfig, PlannerConfig};
//!
//! let mut scenario = ScenarioConfig::paper(50);
//! scenario.workload = WorkloadConfig::small(5, 10);
//! let ctrl = ControllerConfig::default_config(PlannerConfig::paper_default());
//! let metrics = run_adaptive_scenario(&scenario, ctrl, 42);
//! assert!(metrics.counters.controller_ticks > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod optimizer;
pub mod planner;

pub use controller::{run_adaptive_scenario, AdaptiveController, ControllerConfig};
pub use optimizer::{Optimizer, OptimizerConfig, RankedPlan};
pub use planner::{PlanError, Planner, PlannerConfig, QuorumPlan};

// The one checked Corollary 5.3 rounding helper (it lives in
// `pqs_core::spec` because `pqs-plan` sits above `pqs-core` in the
// dependency graph, but this crate is its planning-facing home —
// `spec.rs`, `analysis.rs` and the retry layer all route through it).
pub use pqs_core::spec::{min_partner_quorum_size, min_quorum_product, satisfies_min_product};
