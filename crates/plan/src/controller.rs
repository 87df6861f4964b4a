//! The runtime controller: periodically re-plans against live state and
//! reconfigures the stack, with hysteresis.
//!
//! Each tick the controller folds three live signals into the
//! [`Planner`]:
//!
//! - **n̂** from the §6.3 collision estimator
//!   ([`QuorumStack::estimate_population`]) — when the sample yields no
//!   collisions the tick *holds* the current plan instead of acting on a
//!   fabricated estimate,
//! - **observed τ** from the advertise/lookup issue counters
//!   ([`QuorumStack::observed_tau`]), falling back to the configured
//!   prior before the first advertise,
//! - the **advertise survivor fraction** (§6.1): stored mappings only
//!   live on never-failed original nodes, so the lookup side is floored
//!   at the Corollary 5.3 partner of `|Qa|·survivors` — this is what
//!   lets the controller compensate when churn replaces half the
//!   population while `n` stays constant (the regime where a static
//!   plan degrades to `ε^(1−f)`).
//!
//! Hysteresis (dead-band on relative size change, plus a minimum dwell
//! sim-time between applies) keeps estimator noise from thrashing the
//! configuration; every held tick is counted and traced with its
//! reason, so silent holds are visible in `RunMetrics`.

use crate::planner::{Planner, PlannerConfig, QuorumPlan};
use pqs_core::obs::HoldReason;
use pqs_core::runner::{run_scenario_hooked, RunMetrics, ScenarioConfig};
use pqs_core::spec::{self, BiquorumSpec};
use pqs_core::stack::{QuorumNet, QuorumStack};
use pqs_sim::control::TickSchedule;
use pqs_sim::{SimDuration, SimTime};

/// Controller configuration: the planner inputs plus the tick cadence
/// and hysteresis knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// The analytic planner's inputs.
    pub planner: PlannerConfig,
    /// First evaluation instant (sim-time).
    pub first_tick: SimTime,
    /// Evaluation period.
    pub tick: SimDuration,
    /// Dead-band: a new plan is applied only when some side's relative
    /// size change exceeds this fraction (e.g. `0.15` = 15 %).
    pub dead_band: f64,
    /// Minimum sim-time between two applied reconfigurations.
    pub min_dwell: SimDuration,
    /// EWMA weight of each fresh n̂ sample (`1.0` = no smoothing). The
    /// §6.3 estimator draws only `Θ(√n)` samples, so single estimates
    /// carry heavy variance; smoothing across ticks is what makes the
    /// dead-band meaningful.
    pub estimate_smoothing: f64,
    /// Safety multiplier applied to the smoothed n̂ before planning.
    /// Over-estimating `n` oversizes quorums (a small cost overhead);
    /// under-estimating silently voids the ε guarantee — so the
    /// controller leans high.
    pub estimate_headroom: f64,
}

impl ControllerConfig {
    /// Defaults: evaluate every 20 s starting at 20 s, 15 % dead-band,
    /// 30 s dwell (reacting to a churn epoch takes at most dwell + one
    /// tick), half-weight EWMA smoothing, 25 % estimate headroom.
    pub fn default_config(planner: PlannerConfig) -> Self {
        ControllerConfig {
            planner,
            first_tick: SimTime::from_secs(20),
            tick: SimDuration::from_secs(20),
            dead_band: 0.15,
            min_dwell: SimDuration::from_secs(30),
            estimate_smoothing: 0.5,
            estimate_headroom: 1.25,
        }
    }
}

/// The deterministic runtime controller. Drive it through
/// [`run_adaptive_scenario`], or manually by calling
/// [`AdaptiveController::tick`] between `Network::run` horizons.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cfg: ControllerConfig,
    planner: Planner,
    last_apply: Option<SimTime>,
    last_plan: Option<QuorumPlan>,
    /// EWMA-smoothed population estimate across ticks.
    n_smooth: Option<f64>,
}

impl AdaptiveController {
    /// Builds the controller (validates the planner inputs and the
    /// hysteresis knobs).
    ///
    /// # Panics
    ///
    /// Panics on invalid planner inputs (see [`Planner::new`]) or a
    /// negative dead-band.
    pub fn new(cfg: ControllerConfig) -> Self {
        assert!(cfg.dead_band >= 0.0, "dead-band must be non-negative");
        assert!(
            cfg.estimate_smoothing > 0.0 && cfg.estimate_smoothing <= 1.0,
            "smoothing weight in (0,1]"
        );
        assert!(cfg.estimate_headroom >= 1.0, "headroom must not shrink n̂");
        AdaptiveController {
            planner: Planner::new(cfg.planner),
            cfg,
            last_apply: None,
            last_plan: None,
            n_smooth: None,
        }
    }

    /// The most recently applied plan, if any tick has applied one.
    pub fn last_plan(&self) -> Option<&QuorumPlan> {
        self.last_plan.as_ref()
    }

    /// One controller evaluation against the live network and stack.
    /// Either reconfigures the stack or records a hold with its reason;
    /// both outcomes are counted and traced by the stack.
    pub fn tick(&mut self, net: &mut QuorumNet, stack: &mut QuorumStack) {
        let now = net.now();
        stack.note_controller_tick();
        // Signal 1: n̂. No estimate → hold (the satellite bugfix: a
        // zero-collision sample must not be silently replaced by a
        // fabricated population).
        let Some(n_hat) = stack.estimate_population(net) else {
            stack.note_controller_hold(now, HoldReason::NoEstimate);
            return;
        };
        // The Θ(√n)-sample estimator is noisy: EWMA-smooth across ticks,
        // then lean high (headroom) — an undersized n voids ε silently,
        // an oversized one only pads the quorums.
        let alpha = self.cfg.estimate_smoothing;
        let smoothed = match self.n_smooth {
            Some(prev) => alpha * n_hat + (1.0 - alpha) * prev,
            None => n_hat,
        };
        self.n_smooth = Some(smoothed);
        let n = ((smoothed * self.cfg.estimate_headroom).round() as usize).max(1);
        // Signal 2: observed τ (prior until the first advertise).
        let tau = stack
            .observed_tau()
            .filter(|t| *t > 0.0)
            .unwrap_or(self.cfg.planner.tau);
        // The satellite bugfix: degenerate live inputs (τ→0 from a
        // zero-collision tick sequence, n̂ shrunk below the configured
        // `b`) must hold the last good plan, not abort the process.
        let mut plan = match self.planner.try_plan(n, tau) {
            Ok(plan) => plan,
            Err(_) => {
                stack.note_controller_hold(now, HoldReason::InvalidInput);
                return;
            }
        };
        // Signal 3: §6.1 survivor discount. Old advertisements survive
        // only on never-failed originals, and they were placed with the
        // *live* advertise size — so the lookup floor runs against the
        // smaller of the historical and planned |Qa|, discounted.
        let survivors = stack.advertise_survivor_fraction();
        let qa_hist = stack
            .config()
            .spec
            .advertise
            .size
            .min(plan.spec.advertise.size);
        let qa_eff = f64::from(qa_hist) * survivors;
        if qa_eff >= 1.0 && survivors < 1.0 {
            // Masking plans must keep b + 1 honest concurring votes even
            // against the discounted historical placements.
            let b = self.cfg.planner.byz_b;
            let floor = spec::byz_min_partner_quorum_size(plan.n, plan.epsilon, b, qa_eff)
                .min(plan.n as u32);
            if floor > plan.spec.lookup.size {
                plan.spec.lookup.size = floor;
                let (qa, ql) = (plan.spec.advertise.size, plan.spec.lookup.size);
                plan.miss_bound = spec::byz_miss_upper_bound(qa, ql, plan.n, b);
            }
        }
        // Hysteresis: dwell first (cheap), then dead-band.
        if let Some(last) = self.last_apply {
            if now.saturating_since(last) < self.cfg.min_dwell {
                stack.note_controller_hold(now, HoldReason::MinDwell);
                return;
            }
        }
        if self.within_dead_band(stack.config().spec, plan.spec) {
            stack.note_controller_hold(now, HoldReason::DeadBand);
            return;
        }
        stack.reconfigure(now, plan.spec);
        self.last_apply = Some(now);
        self.last_plan = Some(plan);
    }

    fn within_dead_band(&self, current: BiquorumSpec, planned: BiquorumSpec) -> bool {
        if current.advertise.strategy != planned.advertise.strategy
            || current.lookup.strategy != planned.lookup.strategy
        {
            return false;
        }
        let rel = |cur: u32, new: u32| {
            if cur == 0 {
                return f64::INFINITY;
            }
            (f64::from(new) - f64::from(cur)).abs() / f64::from(cur)
        };
        rel(current.advertise.size, planned.advertise.size) <= self.cfg.dead_band
            && rel(current.lookup.size, planned.lookup.size) <= self.cfg.dead_band
    }
}

/// Runs a scenario with the adaptive controller attached: ticks fire on
/// the configured deterministic sim-time schedule throughout the run
/// (advertise phase, churn settle, lookup phase, drain).
pub fn run_adaptive_scenario(
    scenario: &ScenarioConfig,
    ctrl: ControllerConfig,
    seed: u64,
) -> RunMetrics {
    let mut controller = AdaptiveController::new(ctrl);
    let schedule = TickSchedule::starting_at(ctrl.first_tick, ctrl.tick);
    let mut callback = |net: &mut QuorumNet, stack: &mut QuorumStack| controller.tick(net, stack);
    run_scenario_hooked(scenario, seed, Some((schedule, &mut callback)))
}
