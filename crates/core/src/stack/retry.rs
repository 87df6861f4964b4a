//! Operation-level retry (deadline + jittered exponential backoff) above
//! the paper's per-message maintenance, and the §6.1/§6.3 re-size of the
//! lookup quorum a retry applies under churn. The verdicts themselves
//! are [`OpenOp::judge`](crate::op::OpenOp::judge) and
//! [`OpenOp::fire`](crate::op::OpenOp::fire).

use super::{QuorumNet, QuorumStack, TimerCtx};
use crate::messages::OpId;
use crate::obs::TraceEvent;
use crate::op::Judgement;
use crate::service::OpKind;
use crate::spec::AccessStrategy;

impl QuorumStack {
    /// Arms the retry layer for a freshly issued operation.
    pub(super) fn arm_retry(&mut self, net: &mut QuorumNet, op: OpId) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        let rec = &self.ops[&op];
        if rec.open.is_done(&self.cfg.spec) {
            return;
        }
        let origin = rec.origin;
        self.arm_timer(
            net,
            origin,
            policy.attempt_timeout,
            TimerCtx::RetryCheck { op },
        );
    }

    /// Judgement point, `attempt_timeout` after an issue: success ends
    /// the retries; failure schedules a jittered backoff or closes the
    /// operation (exhaustion / deadline) with a distinct outcome.
    pub(super) fn retry_check(&mut self, net: &mut QuorumNet, op: OpId) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        let rec = &self.ops[&op];
        let origin = rec.origin;
        let judgement = rec
            .open
            .judge(&self.cfg.spec, &policy, net.now(), &mut self.rng);
        match judgement {
            Judgement::Done => {}
            Judgement::Backoff(jittered) => {
                self.arm_timer(net, origin, jittered, TimerCtx::RetryFire { op });
            }
            Judgement::Exhausted => self.finish_failed(net, op, false),
            Judgement::Deadline => self.finish_failed(net, op, true),
        }
    }

    /// Backoff expiry: re-issue with a fresh access set.
    pub(super) fn retry_fire(&mut self, net: &mut QuorumNet, op: OpId) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        let Some(rec) = self.ops.get_mut(&op) else {
            return;
        };
        if rec.open.is_done(&self.cfg.spec) {
            return;
        }
        if !rec.open.fire(&policy, net.now()) {
            self.finish_failed(net, op, true);
            return;
        }
        self.counters.op_retries += 1;
        let attempt = rec.attempts();
        // Reopen a record a previous attempt closed as a miss.
        rec.completed = None;
        let (kind, origin, key, value) = (rec.kind(), rec.origin, rec.key(), rec.open.value);
        self.trace_push(net.now(), TraceEvent::OpRetried { op, attempt });
        if policy.adapt_quorum && kind == OpKind::Lookup {
            self.adapt_lookup_quorum(net, op, policy.epsilon);
        }
        // A fresh access set: resample the origin's membership view over
        // the currently alive population before re-picking the quorum.
        self.refresh_view(net, origin);
        if value.is_none() {
            // Clear per-attempt lookup state so the re-issue runs clean
            // (stale replies still complete the op if they arrive first).
            self.replies_started.remove(&op);
            self.end_serial(net, op);
        }
        self.issue(net, origin, op, key, value);
        self.arm_timer(
            net,
            origin,
            policy.attempt_timeout,
            TimerCtx::RetryCheck { op },
        );
    }

    /// Closes a retried operation without success, with a distinct
    /// outcome (exhaustion vs deadline expiry — not a silent miss).
    fn finish_failed(&mut self, net: &mut QuorumNet, op: OpId, deadline: bool) {
        // Masking degradation: a lookup that collected votes but never
        // verified closes with its highest-voted value (a `Degraded`
        // outcome) instead of being flagged a plain failure.
        if self.degrade_unverified(net, op) {
            return;
        }
        let now = net.now();
        if let Some(rec) = self.ops.get_mut(&op) {
            if deadline {
                rec.deadline_expired = true;
                self.counters.deadlines_expired += 1;
            } else {
                rec.retries_exhausted = true;
                self.counters.retries_exhausted += 1;
            }
            rec.completed.get_or_insert(now);
            self.trace_push(now, TraceEvent::OpFailed { op, deadline });
        }
    }

    /// §6.1 + §6.3 graceful degradation: re-size the lookup quorum so
    /// `|Qa_eff|·|Qℓ| ≥ n̂·ln(1/ε)` (Corollary 5.3) still holds, where
    /// `n̂` is the collision-sampled population estimate and `|Qa_eff|`
    /// the expected advertise survivors. When even the whole live
    /// population cannot reach the bound, shrink to what exists and flag
    /// the operation degraded (shrink-or-warn).
    fn adapt_lookup_quorum(&mut self, net: &mut QuorumNet, op: OpId, epsilon: f64) {
        // Only member-count lookups can be re-sized this way; flooding's
        // size is a TTL and RANDOM-OPT's a probe count.
        if !matches!(
            self.cfg.spec.lookup.strategy,
            AccessStrategy::Random | AccessStrategy::Path | AccessStrategy::UniquePath
        ) {
            return;
        }
        let alive = net.alive_nodes();
        if alive.is_empty() {
            return;
        }
        // §6.3 collision estimate; the true alive count stands in when
        // the sample yields no collisions (the retry path must act *now*
        // for this one operation, unlike the controller which can hold).
        let n_est = self
            .estimate_population(net)
            .unwrap_or(alive.len() as f64)
            .max(1.0);
        // Survivors of the original advertise quorums scale with the
        // fraction of the initial population still alive (§6.1 case 1).
        let qa_eff = f64::from(self.cfg.spec.advertise.size) * self.advertise_survivor_fraction();
        if qa_eff < 1.0 {
            // No advertise survivors left: nothing to intersect with.
            self.mark_degraded(op);
            return;
        }
        let eps = epsilon.clamp(1e-9, 1.0 - 1e-9);
        let needed = crate::spec::min_partner_quorum_size(n_est.round() as usize, eps, qa_eff);
        let cap = alive.len() as u32;
        if needed > cap {
            self.mark_degraded(op);
        }
        let new_size = needed.min(cap);
        if new_size != self.cfg.spec.lookup.size {
            self.counters.quorum_adaptations += 1;
            self.cfg.spec.lookup.size = new_size;
            self.trace_push(net.now(), TraceEvent::QuorumAdapted { size: new_size });
        }
    }
}
