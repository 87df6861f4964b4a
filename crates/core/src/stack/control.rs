//! The feed of `pqs-plan`'s adaptive controller: the §6.3 population
//! estimate, the §6.1 survivor fraction and the observed τ it reads, the
//! reconfiguration it applies, and the tick/hold accounting.

use super::{random_opt, QuorumNet, QuorumStack};
use crate::estimator;
use crate::obs::{HoldReason, TraceEvent};
use crate::spec::{BiquorumSpec, WeightedBiquorumSpec};
use pqs_sim::SimTime;

/// Why [`QuorumStack::reconfigure`] rejected a new spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigureError {
    /// The new spec uses RANDOM-OPT but the router was built without the
    /// §4.5 relay tap, which is fixed at construction.
    NeedsTransitTap,
}

impl std::fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigureError::NeedsTransitTap => {
                f.write_str("RANDOM-OPT needs the relay tap, which is fixed at stack construction")
            }
        }
    }
}

impl std::error::Error for ReconfigureError {}

impl QuorumStack {
    /// The §6.3 birthday-collision population estimate `n̂ = k(k−1)/(2c)`
    /// over `k = ⌈factor·√(alive)⌉ + 4` MD-walk samples of the current
    /// connectivity graph.
    ///
    /// Returns `None` — and counts
    /// [`QuorumCounters::estimator_unavailable`](crate::service::QuorumCounters::estimator_unavailable)
    /// — when the sample yields zero collisions or the estimator is
    /// disabled (`ServiceConfig::estimator_sample_factor ≤ 0`). Callers
    /// must not fabricate an n̂ in that case: the adaptive controller
    /// holds its last plan, while the per-operation retry path (which
    /// cannot wait) explicitly falls back to the exact alive count.
    pub fn estimate_population(&mut self, net: &QuorumNet) -> Option<f64> {
        let factor = self.cfg.estimator_sample_factor;
        let alive = net.alive_nodes();
        if factor <= 0.0 || alive.is_empty() {
            self.counters.estimator_unavailable += 1;
            return None;
        }
        let graph = net.connectivity_graph();
        let k = (factor * (alive.len() as f64).sqrt()).ceil() as usize + 4;
        let est = estimator::estimate_graph_size(
            &graph,
            alive[0].index(),
            k,
            graph.node_count().max(2),
            &mut self.rng,
        );
        if est.is_none() {
            self.counters.estimator_unavailable += 1;
        }
        est
    }

    /// Fraction of the initial population that never failed — the §6.1
    /// discount on how many members of an *old* advertise quorum still
    /// hold their stores (rejoiners come back empty, so they stay
    /// counted as failed here).
    pub fn advertise_survivor_fraction(&self) -> f64 {
        (self.initial_n.saturating_sub(self.original_failed.len())) as f64
            / self.initial_n.max(1) as f64
    }

    /// The observed workload ratio `τ = lookups/advertises` from the
    /// issue counters, or `None` before the first advertise (τ is then
    /// undefined and the caller falls back to its configured prior).
    pub fn observed_tau(&self) -> Option<f64> {
        (self.counters.advertises_issued > 0)
            .then(|| self.counters.lookups_issued as f64 / self.counters.advertises_issued as f64)
    }

    /// Applies a new biquorum spec to the live stack (the adaptive
    /// controller's `Reconfigure` path). Future accesses use the new
    /// sizes/strategies; in-flight operations finish under the old ones.
    ///
    /// Returns `Ok(true)` when the spec actually changed (counted and
    /// traced), `Ok(false)` for a no-op, and
    /// [`ReconfigureError::NeedsTransitTap`] when a side asks for
    /// RANDOM-OPT but the router was built without the relay tap (the
    /// tap is fixed at construction — §4.5 changes what *every* routed
    /// frame does, which cannot be toggled mid-run).
    pub fn reconfigure(
        &mut self,
        at: SimTime,
        spec: BiquorumSpec,
    ) -> Result<bool, ReconfigureError> {
        if random_opt::needs_transit_tap(&spec, None) && !self.transit_tap {
            return Err(ReconfigureError::NeedsTransitTap);
        }
        if spec == self.cfg.spec {
            return Ok(false);
        }
        self.cfg.spec = spec;
        self.note_reconfigured(at, spec);
        Ok(true)
    }

    /// Applies (or clears, with `None`) a weighted strategy mixture
    /// alongside its representative uniform spec. In-flight operations
    /// keep their pinned samples; only newly issued ops draw from the
    /// new mixture. Counts as one reconfiguration when either the spec
    /// or the mixture actually changed.
    pub fn reconfigure_weighted(
        &mut self,
        at: SimTime,
        spec: BiquorumSpec,
        weighted: Option<WeightedBiquorumSpec>,
    ) -> Result<bool, ReconfigureError> {
        if random_opt::needs_transit_tap(&spec, weighted) && !self.transit_tap {
            return Err(ReconfigureError::NeedsTransitTap);
        }
        let mix_changed = weighted != self.cfg.weighted;
        let size_changed = self.reconfigure(at, spec)?;
        if mix_changed {
            self.cfg.weighted = weighted;
            if !size_changed {
                // The spec was unchanged but the weights moved: still a
                // reconfiguration from the operator's point of view.
                self.note_reconfigured(at, spec);
            }
        }
        Ok(size_changed || mix_changed)
    }

    fn note_reconfigured(&mut self, at: SimTime, spec: BiquorumSpec) {
        self.counters.reconfigures += 1;
        let (qa, ql) = (spec.advertise.size, spec.lookup.size);
        self.trace_push(at, TraceEvent::Reconfigured { qa, ql });
    }

    /// Counts one adaptive-controller evaluation.
    pub fn note_controller_tick(&mut self) {
        self.counters.controller_ticks += 1;
    }

    /// Counts and traces a controller tick that kept the current plan.
    pub fn note_controller_hold(&mut self, at: SimTime, reason: HoldReason) {
        match reason {
            HoldReason::NoEstimate => self.counters.controller_holds_no_estimate += 1,
            HoldReason::DeadBand => self.counters.controller_holds_dead_band += 1,
            HoldReason::MinDwell => self.counters.controller_holds_dwell += 1,
            HoldReason::InvalidInput => self.counters.controller_holds_invalid += 1,
        }
        self.trace_push(at, TraceEvent::PlanHeld { reason });
    }
}
