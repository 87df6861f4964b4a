//! Property tests for the load optimizer: over a grid of `(n, ε, τ)`,
//! every ranked plan keeps the mix-and-match guarantee, meets the ε gate
//! *after* integer rounding, keeps the planner's advertise side and
//! stays inside the universe; and the whole pipeline is deterministic —
//! identical inputs give identical plans.

use pqs_core::spec::AccessStrategy;
use pqs_plan::{Optimizer, PlannerConfig};
use proptest::prelude::*;

fn optimizer(epsilon: f64, tau: f64) -> Optimizer {
    Optimizer::new(PlannerConfig {
        epsilon,
        tau,
        ..PlannerConfig::paper_default()
    })
}

proptest! {
    #[test]
    fn every_ranked_plan_satisfies_the_gate(
        n in 30usize..1500,
        eps_mil in 20u32..300,   // ε ∈ [0.02, 0.30)
        tau_deci in 10u32..300,  // τ ∈ [1.0, 30.0)
    ) {
        let epsilon = f64::from(eps_mil) / 1000.0;
        let tau = f64::from(tau_deci) / 10.0;
        let Ok(plan) = optimizer(epsilon, tau).try_plan(n, tau) else {
            return Ok(());
        };
        let spec = plan.spec;

        prop_assert!(spec.has_mix_and_match_guarantee());
        // The ε gate holds on the integer sizes the plan emits.
        let bound = spec.intersection_lower_bound(n).expect("a RANDOM side");
        prop_assert!(
            bound >= 1.0 - epsilon,
            "gate violated: bound {} < {} (n={} spec={:?})", bound, 1.0 - epsilon, n, spec
        );
        prop_assert_eq!(plan.miss_bound, 1.0 - bound);
        prop_assert_eq!(spec.advertise, plan.uniform.spec.advertise);
        for side in [spec.advertise, spec.lookup] {
            if side.strategy != AccessStrategy::Flooding {
                prop_assert!(side.size >= 1 && side.size as usize <= n, "{:?} outside [1, {}]", side, n);
            }
        }
    }

    #[test]
    fn optimizer_output_is_deterministic(
        n in 30usize..1500,
        eps_mil in 20u32..300,
        tau_deci in 10u32..300,
    ) {
        let tau = f64::from(tau_deci) / 10.0;
        let opt = optimizer(f64::from(eps_mil) / 1000.0, tau);
        let a = opt.try_plan(n, tau);
        let b = opt.try_plan(n, tau);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
