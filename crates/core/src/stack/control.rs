//! The feed of `pqs-plan`'s adaptive controller: the §6.3 population
//! estimate, the §6.1 survivor fraction and the observed τ it reads, the
//! reconfiguration it applies, and the tick/hold accounting.

use super::{QuorumNet, QuorumStack};
use crate::estimator;
use crate::obs::{HoldReason, TraceEvent};
use crate::spec::BiquorumSpec;
use pqs_sim::SimTime;

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
    /// sizes/strategies — RANDOM-OPT included, since every routed frame
    /// already reaches the stack's relay tap; in-flight operations
    /// finish under the old ones.
    ///
    /// Returns `true` when the spec actually changed (counted and
    /// traced), `false` for a no-op.
    pub fn reconfigure(&mut self, at: SimTime, spec: BiquorumSpec) -> bool {
        if spec == self.cfg.spec {
            return false;
        }
        self.cfg.spec = spec;
        self.counters.reconfigures += 1;
        let (qa, ql) = (spec.advertise.size, spec.lookup.size);
        self.trace_push(at, TraceEvent::Reconfigured { qa, ql });
        true
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
