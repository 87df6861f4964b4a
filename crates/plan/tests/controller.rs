//! Integration tests for the adaptive controller: hold-on-no-estimate
//! (the satellite bugfix), hysteresis accounting, same-seed trace
//! determinism, and churn compensation end-to-end.

use pqs_core::obs::{HoldReason, TraceEvent};
use pqs_core::runner::{run_scenario, ChurnPlan, ScenarioConfig};
use pqs_core::workload::WorkloadConfig;
use pqs_plan::{run_adaptive_scenario, ControllerConfig, PlannerConfig};
use pqs_sim::{SimDuration, SimTime};

fn small_scenario(n: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.net.avg_degree = 15.0;
    cfg.workload = WorkloadConfig::small(8, 40);
    cfg.service.trace_capacity = 4096;
    cfg
}

fn quick_controller() -> ControllerConfig {
    let mut ctrl = ControllerConfig::default_config(PlannerConfig::paper_default());
    ctrl.first_tick = SimTime::from_secs(10);
    ctrl.tick = SimDuration::from_secs(15);
    ctrl.min_dwell = SimDuration::from_secs(30);
    ctrl
}

/// Satellite bugfix: `estimate_graph_size` returning `None` (zero
/// collisions — forced deterministically here by disabling the
/// estimator) must make the controller hold its last plan, visibly:
/// every tick counted, every hold counted with its reason, and zero
/// reconfigurations.
#[test]
fn estimator_no_collision_holds_plan() {
    let mut scenario = small_scenario(50);
    scenario.service.estimator_sample_factor = 0.0; // n̂ never available
    let metrics = run_adaptive_scenario(&scenario, quick_controller(), 7);

    let c = &metrics.counters;
    assert!(c.controller_ticks > 0, "controller never ran");
    assert_eq!(
        c.controller_holds_no_estimate, c.controller_ticks,
        "every tick must hold on the missing estimate"
    );
    assert_eq!(c.reconfigures, 0, "held plans must not reconfigure");
    assert!(
        c.estimator_unavailable >= c.controller_ticks,
        "unavailable estimates must be counted"
    );
    // The holds are visible in the trace, not silent.
    let held = metrics
        .trace
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::PlanHeld { .. }))
        .count() as u64;
    assert_eq!(held, c.controller_ticks);
    assert!(!metrics
        .trace
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::Reconfigured { .. })));
}

/// Satellite bugfix (PR 10): degenerate planner inputs at tick time —
/// here a configured Byzantine budget no live n̂ can mask — used to
/// abort the whole run through the planner's assertions. The controller
/// must instead hold the last good plan, visibly: an `invalid_input`
/// hold per affected tick in both the counters and the trace, zero
/// reconfigurations, and a run that completes on the seed plan.
#[test]
fn degenerate_plan_inputs_hold_prior_plan() {
    let scenario = small_scenario(50);
    let mut ctrl = quick_controller();
    ctrl.planner.byz_b = 10_000; // n̂ ≈ 50: every try_plan must reject

    let metrics = run_adaptive_scenario(&scenario, ctrl, 7);

    let c = &metrics.counters;
    assert!(c.controller_ticks > 0, "controller never ran");
    assert!(
        c.controller_holds_invalid > 0,
        "invalid planner inputs must be counted"
    );
    assert_eq!(c.reconfigures, 0, "held plans must not reconfigure");
    let held_invalid = metrics
        .trace
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::PlanHeld {
                    reason: HoldReason::InvalidInput
                }
            )
        })
        .count() as u64;
    assert_eq!(held_invalid, c.controller_holds_invalid);
    // The run itself survived on the prior (seed) plan and served ops.
    assert!(c.lookups_issued > 0, "run must complete on the seed plan");
}

/// Every controller tick resolves to exactly one outcome: a
/// reconfiguration or a hold with one reason.
#[test]
fn tick_accounting_is_exhaustive() {
    let scenario = small_scenario(50);
    let metrics = run_adaptive_scenario(&scenario, quick_controller(), 11);
    let c = &metrics.counters;
    assert!(c.controller_ticks > 0);
    assert_eq!(
        c.controller_ticks,
        c.reconfigures
            + c.controller_holds_no_estimate
            + c.controller_holds_invalid
            + c.controller_holds_dead_band
            + c.controller_holds_dwell,
        "tick outcomes must partition the ticks"
    );
}

/// Hysteresis: a huge dead-band means plans never escape it (after the
/// ticks that lack an estimate), so the stack is never reconfigured; a
/// huge dwell lets at most the first eligible tick through.
#[test]
fn hysteresis_dead_band_and_dwell() {
    let scenario = small_scenario(50);

    let mut wide = quick_controller();
    wide.dead_band = 100.0;
    let m = run_adaptive_scenario(&scenario, wide, 13);
    assert_eq!(m.counters.reconfigures, 0);
    assert!(m.counters.controller_holds_dead_band > 0);

    let mut sticky = quick_controller();
    sticky.dead_band = 0.0;
    sticky.min_dwell = SimDuration::from_secs(1_000_000);
    let m = run_adaptive_scenario(&scenario, sticky, 13);
    assert!(m.counters.reconfigures <= 1);
    if m.counters.reconfigures == 1 {
        assert!(m.counters.controller_holds_dwell > 0);
    }
}

/// Same seed, controller enabled → byte-identical trace-event sequences
/// and identical metrics.
#[test]
fn same_seed_controller_runs_are_identical() {
    let scenario = small_scenario(50);
    let ctrl = quick_controller();
    let a = run_adaptive_scenario(&scenario, ctrl, 21);
    let b = run_adaptive_scenario(&scenario, ctrl, 21);
    assert_eq!(a.trace, b.trace, "trace sequences diverged");
    assert_eq!(a, b, "metrics diverged");
}

/// The acceptance scenario: churn replaces half the population between
/// the phases (fail 50 % + join 50 %, so the node count stays constant
/// but the advertise-holding population halves). The static plan
/// degrades toward ε^(1−f) = ε^0.5 while the controller's
/// survivor-fraction floor grows the lookup quorum and keeps the
/// measured intersection close to 1−ε.
#[test]
fn adaptive_beats_static_under_half_population_churn() {
    let mut scenario = small_scenario(60);
    scenario.workload = WorkloadConfig::small(10, 60);
    scenario.churn = Some(ChurnPlan {
        fail_fraction: 0.5,
        join_fraction: 0.5,
        adjust_lookup: false,
    });

    let static_run = run_scenario(&scenario, 5);
    let adaptive = run_adaptive_scenario(&scenario, quick_controller(), 5);

    assert!(
        adaptive.counters.reconfigures >= 1,
        "controller must have resized under churn"
    );
    assert!(
        adaptive.intersection_ratio() > static_run.intersection_ratio(),
        "adaptive {} must beat static {}",
        adaptive.intersection_ratio(),
        static_run.intersection_ratio()
    );
}
