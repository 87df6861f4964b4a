//! How an operation's outcome is recorded: advertise placements, and
//! for lookups the originator's own store (§8.3), the Byzantine reply
//! boundary (what a behaving node sends back), Malkhi–Reiter–Wool vote
//! verification and its degraded fallback, the completion stamp, and
//! §7.1 caching of answered and overheard values.

use super::{QuorumNet, QuorumStack};
use crate::messages::{AppMsg, OpId};
use crate::obs::TraceEvent;
use crate::service::{ByzMode, Fanout, OpKind, OpRecord};
use crate::spec::{AccessStrategy, QuorumSpec};
use crate::store::{Key, Role, Value};
use pqs_net::{fabricated_value, NodeBehavior, NodeId};
use pqs_sim::SimTime;

impl QuorumStack {
    /// Stores `key → value` at `at` as a member of advertise `op`'s
    /// quorum and counts the placement — in-process, from the receiving
    /// node's handler: the paper's message-cost model has no ack frame.
    /// When the placement target is reached the record is stamped
    /// complete (the advertise-latency source) and an
    /// [`TraceEvent::OpCompleted`] is traced.
    pub(super) fn place_store(
        &mut self,
        now: SimTime,
        at: NodeId,
        op: OpId,
        key: Key,
        value: Value,
    ) {
        self.stores[at.index()].insert(key, value, Role::Owner);
        let Some(rec) = self.ops.get_mut(&op) else {
            return;
        };
        if rec.open.placed(&self.cfg.spec) && rec.completed.is_none() {
            rec.completed = Some(now);
            let latency = now - rec.started();
            let kind = OpKind::Advertise;
            self.trace_push(now, TraceEvent::OpCompleted { op, kind, latency });
        }
    }

    /// The originator is part of its own quorum (§8.3): a local hit
    /// answers lookup `op` at once — under masking it is one vote (from
    /// self), not a completion. Returns whether nothing is left to probe;
    /// parallel RANDOM fan-outs still probe the rest of the quorum so
    /// that collect-style consumers (a register, pub/sub) see every
    /// stored value.
    pub(super) fn answered_locally(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        op: OpId,
        key: Key,
        spec: QuorumSpec,
    ) -> bool {
        let local = self.stores[node.index()].lookup_all(key);
        if local.is_empty() {
            return false;
        }
        let rec = self.ops.get_mut(&op).expect("record exists while issuing");
        rec.intersected = true;
        // The origin reads its own store honestly — behaviors apply at
        // the reply boundary, and this is not a reply.
        self.complete_lookup_from(net, op, node, local);
        let keeps_probing = self.cfg.lookup_fanout == Fanout::Parallel
            && matches!(
                spec.strategy,
                AccessStrategy::Random | AccessStrategy::RandomOpt
            );
        let replied = self.ops.get(&op).is_none_or(OpRecord::replied);
        replied && !keeps_probing
    }

    /// Whether reads are vote-verified (Malkhi–Reiter–Wool masking).
    pub(super) fn masking(&self) -> bool {
        self.cfg.byz.mode == ByzMode::Masking
    }

    /// `at`'s answer to `requester`'s lookup `op` of `key`. When `at`
    /// holds the key the op is marked intersected — the quorums met,
    /// whatever becomes of the reply. Then the Byzantine boundary: `None`
    /// suppresses the reply (fail-silent), `Some(vec![])` is an honest
    /// miss, liars and equivocators fabricate, and stale nodes serve a
    /// real but outdated copy, never the newest. Honest routed replies
    /// carry every held value (`every_value`); walk, flood and
    /// promiscuous replies carry the newest one.
    pub(super) fn answer(
        &mut self,
        net: &QuorumNet,
        op: OpId,
        at: NodeId,
        requester: NodeId,
        key: Key,
        every_value: bool,
    ) -> Option<Vec<Value>> {
        let store = &self.stores[at.index()];
        if store.role_of(key).is_some() {
            if let Some(rec) = self.ops.get_mut(&op) {
                rec.intersected = true;
            }
        }
        match net.node_behavior(at) {
            None if every_value => Some(store.lookup_all(key)),
            None => Some(store.lookup(key).into_iter().collect()),
            Some(NodeBehavior::Silent) => None,
            Some(NodeBehavior::Liar) => Some(vec![fabricated_value(at, key, at)]),
            Some(NodeBehavior::Equivocator) => Some(vec![fabricated_value(at, key, requester)]),
            Some(NodeBehavior::Stale) => Some(store.lookup_oldest(key).into_iter().collect()),
        }
    }

    /// Attributed lookup completion: every reply widens the record's
    /// observed value set, and the one that answers the lookup (see
    /// [`OpenOp::vote`]: the first in trusting mode, the `b + 1`-th
    /// concurring vote in masking mode) closes it. Late replies never
    /// reopen a completed op.
    pub(super) fn complete_lookup_from(
        &mut self,
        net: &mut QuorumNet,
        op: OpId,
        responder: NodeId,
        values: Vec<Value>,
    ) {
        let Some(rec) = self.ops.get_mut(&op) else {
            return;
        };
        for &v in &values {
            if !rec.values_seen.contains(&v) {
                rec.values_seen.push(v);
            }
        }
        let Some(verdict) = rec.open.vote(responder, &values, &self.cfg.byz) else {
            return;
        };
        if self.masking() {
            self.counters.byz_suspected_replies += verdict.dissent;
            let votes = verdict.votes as u32;
            self.trace_push(net.now(), TraceEvent::LookupVerified { op, votes });
        }
        self.close_lookup(net, op, verdict.value);
    }

    /// Graceful degradation: close an unverified masking lookup with its
    /// highest-voted value instead of hanging or failing outright.
    /// Returns whether the op was completed this way.
    pub(super) fn degrade_unverified(&mut self, net: &mut QuorumNet, op: OpId) -> bool {
        let Some(verdict) = self.ops.get_mut(&op).and_then(|r| r.open.degrade()) else {
            return false;
        };
        self.counters.lookup_unverified += 1;
        self.counters.byz_suspected_replies += verdict.dissent;
        self.mark_degraded(op);
        self.trace_push(net.now(), TraceEvent::LookupUnverified { op });
        self.close_lookup(net, op, verdict.value);
        true
    }

    /// Closes every masking lookup still holding an unverified vote
    /// tally (called by the scenario runner after the final drain; ops
    /// with no votes at all stay plain misses). A no-op in trusting
    /// mode.
    pub fn finalize_pending_lookups(&mut self, net: &mut QuorumNet) {
        if !self.masking() {
            return;
        }
        let ops: Vec<OpId> = self.ops.keys().copied().collect();
        for op in ops {
            self.degrade_unverified(net, op);
        }
    }

    /// Stamps a lookup answered with `value` (its first reply, its
    /// vote winner, or its degraded best).
    fn close_lookup(&mut self, net: &mut QuorumNet, op: OpId, value: Value) {
        let now = net.now();
        if let Some(rec) = self.ops.get_mut(&op) {
            rec.intersected = true;
            rec.value = Some(value);
            rec.completed = Some(now);
            let latency = now - rec.started();
            if self.cfg.caching {
                self.stores[rec.origin.index()].insert(rec.key(), value, Role::Bystander);
            }
            let kind = OpKind::Lookup;
            self.trace_push(now, TraceEvent::OpCompleted { op, kind, latency });
        }
        self.end_serial(net, op);
    }

    /// §7.1 caching: `node` keeps an overheard advertisement or walk
    /// reply as a bystander entry.
    pub(super) fn cache_overheard(&mut self, node: NodeId, msg: &AppMsg) {
        let (key, value) = match msg {
            AppMsg::Store { key, value, .. } => (*key, *value),
            AppMsg::WalkReply(r) => (r.key, r.value),
            _ => return,
        };
        self.stores[node.index()].insert(key, value, Role::Bystander);
    }

    pub(super) fn mark_degraded(&mut self, op: OpId) {
        if let Some(rec) = self.ops.get_mut(&op) {
            if !rec.degraded {
                rec.degraded = true;
                self.counters.degraded_ops += 1;
            }
        }
    }
}
