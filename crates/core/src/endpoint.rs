//! `QuorumEndpoint`: the per-node probabilistic-quorum protocol engine
//! that runs over any [`Transport`] — deterministic loopback or real
//! UDP. The per-operation rules (placement count, votes, retry
//! verdicts) are [`crate::op::OpenOp`]'s, shared with the simulator's
//! [`crate::stack::QuorumStack`]; this module adds what is the
//! endpoint's own: uniform peer sampling, `StoreAck` confirmation,
//! drain, counters and completions.
//!
//! The engine implements the RANDOM access strategy of the paper over a
//! flat membership view: an advertise places `key → value` at `qa`
//! uniformly sampled peers and completes once all placements are acked;
//! a lookup probes `qℓ` sampled peers (after checking its own store,
//! §8.3's origin-in-own-quorum case) and completes on the first
//! non-empty reply (trusting mode) or once `b+1` distinct responders
//! concur on a value (masking mode, Malkhi–Reiter–Wool). Loss is
//! handled by the PR 1 [`RetryPolicy`]: per-attempt timeouts with
//! jittered exponential backoff re-issue the shortfall until the
//! attempt budget or the operation deadline runs out, after which a
//! masking lookup may still degrade to its highest-voted value.
//!
//! The engine is callback-driven and owns no I/O: hosts feed it
//! [`QuorumEndpoint::on_message`] / [`QuorumEndpoint::on_timer`] and
//! flush whatever it queued on the [`Transport`]. Identical inputs in
//! identical order produce identical outputs on every substrate;
//! `tests/transport_equivalence.rs` checks that one script reaches the
//! same outcomes on [`crate::loopback::LoopbackNet`] under two delivery
//! schedules.

use crate::messages::OpId;
use crate::op::{Judgement, OpenOp};
use crate::service::{ByzPolicy, OpKind, RetryPolicy};
use crate::spec::{AccessStrategy, BiquorumSpec, QuorumSpec};
use crate::store::{Key, Role, Store, Value};
use crate::transport::{Transport, WireMsg};
use pqs_net::NodeId;
use pqs_sim::metrics::Histogram;
use pqs_sim::rng::{entity_stream, streams};
use pqs_sim::{SimDuration, SimTime};
use rand::{rngs::StdRng, seq::SliceRandom};
use std::collections::{BTreeMap, HashMap};

/// Static configuration for one endpoint.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Advertise quorum size (remote placements per write).
    pub qa: usize,
    /// Lookup quorum size (probes per read).
    pub ql: usize,
    /// Retry/deadline policy for both operation kinds.
    pub retry: RetryPolicy,
    /// Byzantine tolerance policy (trusting or masking votes).
    pub byz: ByzPolicy,
}

impl EndpointConfig {
    /// A small-cluster default: trusting mode with the PR 1 default
    /// retry policy. Callers size `qa`/`qℓ` via
    /// [`crate::spec::min_partner_quorum_size`].
    pub fn new(qa: usize, ql: usize) -> Self {
        EndpointConfig {
            qa,
            ql,
            retry: RetryPolicy::default_policy(),
            byz: ByzPolicy::trusting(),
        }
    }
}

/// Monotonically-increasing counters, conserved as
/// `requests == issued + refused` and
/// `issued == completed_ok + completed_failed + open`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointCounters {
    /// Client operations requested (accepted or refused).
    pub requests: u64,
    /// Advertise operations issued.
    pub advertises_issued: u64,
    /// Lookup operations issued.
    pub lookups_issued: u64,
    /// Issued operations that completed successfully.
    pub completed_ok: u64,
    /// Issued operations that failed (deadline or retry exhaustion).
    pub completed_failed: u64,
    /// Client operations refused because the endpoint was draining.
    pub refused: u64,
    /// Retry rounds fired across all operations.
    pub op_retries: u64,
    /// Store placements served for peers.
    pub stores_served: u64,
    /// Lookup probes served for peers.
    pub lookups_served: u64,
    /// Store acks received as coordinator.
    pub acks_received: u64,
    /// Lookup replies received as coordinator.
    pub replies_received: u64,
    /// Protocol messages sent.
    pub msgs_sent: u64,
    /// Protocol messages received.
    pub msgs_received: u64,
    /// Masking lookups that degraded to an unverified value.
    pub lookups_unverified: u64,
}

/// The terminal outcome of one issued operation, surfaced to the host
/// via [`QuorumEndpoint::take_completions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The completed operation.
    pub op: OpId,
    /// Advertise or lookup.
    pub kind: OpKind,
    /// The key operated on.
    pub key: Key,
    /// Whether the quorum access succeeded.
    pub ok: bool,
    /// The value read (lookups only; `None` on a miss/failure).
    pub value: Option<Value>,
    /// Microseconds from issue to completion, transport clock.
    pub latency_micros: u64,
}

#[derive(Debug, Clone, Copy)]
enum TimerCtx {
    /// Attempt timeout elapsed: decide between retry, failure, or (for
    /// a finished op) cleanup.
    RetryCheck(OpId),
    /// Backoff elapsed: re-issue the shortfall.
    RetryFire(OpId),
}

/// One node's protocol engine. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct QuorumEndpoint {
    id: NodeId,
    peers: Vec<NodeId>,
    cfg: EndpointConfig,
    /// `cfg.qa`/`cfg.ql` as the spec every operation accesses.
    uniform: BiquorumSpec,
    store: Store,
    rng: StdRng,
    ops: BTreeMap<OpId, OpenOp>,
    timers: HashMap<u64, TimerCtx>,
    completions: Vec<Completion>,
    /// Per-kind completion latency in microseconds of the transport
    /// clock (deterministic on the loopback, wall-clock on UDP).
    advertise_latency: Histogram,
    lookup_latency: Histogram,
    counters: EndpointCounters,
    draining: bool,
    next_op: OpId,
    next_token: u64,
}

impl QuorumEndpoint {
    /// Creates an endpoint for node `id` with membership view `peers`
    /// (`id` itself is filtered out of sampling). The RNG is the
    /// per-entity QUORUM stream of `seed`, so a given (seed, id) pair
    /// behaves identically on every transport.
    pub fn new(id: NodeId, peers: Vec<NodeId>, cfg: EndpointConfig, seed: u64) -> Self {
        let peers: Vec<NodeId> = peers.into_iter().filter(|p| *p != id).collect();
        QuorumEndpoint {
            id,
            rng: entity_stream(seed, streams::QUORUM, u64::from(id.0)),
            peers,
            uniform: BiquorumSpec::new(
                QuorumSpec::new(AccessStrategy::Random, cfg.qa as u32),
                QuorumSpec::new(AccessStrategy::Random, cfg.ql as u32),
            ),
            cfg,
            store: Store::new(),
            ops: BTreeMap::new(),
            timers: HashMap::new(),
            completions: Vec::new(),
            advertise_latency: Histogram::new(),
            lookup_latency: Histogram::new(),
            counters: EndpointCounters::default(),
            draining: false,
            next_op: 1,
            next_token: 1,
        }
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Counter snapshot.
    pub fn counters(&self) -> EndpointCounters {
        self.counters
    }

    /// Per-kind latency histograms `(advertise, lookup)`, microseconds.
    pub fn latency(&self) -> (&Histogram, &Histogram) {
        (&self.advertise_latency, &self.lookup_latency)
    }

    /// Operations issued and not yet completed.
    pub fn open_ops(&self) -> usize {
        self.ops.len()
    }

    /// Whether the endpoint is refusing new client operations.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// `true` once a drain has been requested and every in-flight
    /// operation has completed.
    pub fn drained(&self) -> bool {
        self.draining && self.ops.is_empty()
    }

    /// Read access to the local store (tests and host diagnostics).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Starts refusing new client operations; in-flight ones keep
    /// running to completion and peer requests keep being served.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Drains accumulated completions (host answers its clients from
    /// these).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Issues an advertise of `key → value`. Returns the operation id,
    /// or `None` if refused because the endpoint is draining.
    pub fn advertise<T: Transport>(&mut self, t: &mut T, key: Key, value: Value) -> Option<OpId> {
        let op = self.open(t, OpKind::Advertise, key, Some(value))?;
        self.counters.advertises_issued += 1;
        self.issue(t, op);
        self.arm_check(t, op);
        Some(op)
    }

    /// Issues a lookup of `key`. Returns the operation id, or `None` if
    /// refused because the endpoint is draining. A local hit (§8.3: the
    /// origin counts as a member of its own lookup quorum) completes a
    /// trusting lookup immediately; in masking mode it contributes one
    /// self-vote and the probes still go out (unless `b + 1 == 1`, when
    /// the origin's own store already decides).
    pub fn lookup<T: Transport>(&mut self, t: &mut T, key: Key) -> Option<OpId> {
        let op = self.open(t, OpKind::Lookup, key, None)?;
        self.counters.lookups_issued += 1;
        let local = self.store.lookup_all(key);
        self.handle_reply(t, op, self.id, &local);
        self.issue(t, op);
        self.arm_check(t, op);
        Some(op)
    }

    /// Admits one client operation as a fresh [`OpenOp`]. `None` if
    /// refused because the endpoint is draining.
    fn open<T: Transport>(
        &mut self,
        t: &mut T,
        kind: OpKind,
        key: Key,
        value: Option<Value>,
    ) -> Option<OpId> {
        self.counters.requests += 1;
        if self.draining {
            self.counters.refused += 1;
            return None;
        }
        let op = self.next_op;
        self.next_op += 1;
        let now = SimTime::from_micros(t.now_micros());
        self.ops.insert(op, OpenOp::new(kind, key, value, now));
        Some(op)
    }

    /// Feeds one received protocol message into the engine. Non-protocol
    /// variants (client/drain/metrics traffic) are host business and are
    /// ignored here.
    pub fn on_message<T: Transport>(&mut self, t: &mut T, from: NodeId, msg: WireMsg) {
        self.counters.msgs_received += 1;
        match msg {
            WireMsg::Store { op, key, value } => {
                self.counters.stores_served += 1;
                self.store.insert(key, value, Role::Owner);
                self.send(t, from, WireMsg::StoreAck { op });
            }
            WireMsg::StoreAck { op } => {
                self.counters.acks_received += 1;
                let placed = self.ops.get_mut(&op).map(|o| o.placed(&self.uniform));
                if placed == Some(true) {
                    self.complete(t, op, true, None, false);
                }
            }
            WireMsg::LookupReq { op, key } => {
                self.counters.lookups_served += 1;
                let values = self.store.lookup_all(key);
                self.send(t, from, WireMsg::LookupReply { op, key, values });
            }
            WireMsg::LookupReply { op, values, .. } => {
                self.counters.replies_received += 1;
                self.handle_reply(t, op, from, &values);
            }
            WireMsg::DrainReq => self.begin_drain(),
            // Client/metrics/health traffic is handled by the host.
            _ => {}
        }
    }

    /// Fires a previously armed timer.
    pub fn on_timer<T: Transport>(&mut self, t: &mut T, token: u64) {
        let Some(ctx) = self.timers.remove(&token) else {
            return;
        };
        match ctx {
            TimerCtx::RetryCheck(op) => self.retry_check(t, op),
            TimerCtx::RetryFire(op) => self.retry_fire(t, op),
        }
    }

    /// Feeds one responder's values (a peer's reply, or the origin's
    /// own store) into `op`; late replies for a completed op are
    /// ignored.
    fn handle_reply<T: Transport>(&mut self, t: &mut T, op: OpId, from: NodeId, values: &[Value]) {
        let verdict = self
            .ops
            .get_mut(&op)
            .and_then(|o| o.vote(from, values, &self.cfg.byz));
        if let Some(verdict) = verdict {
            self.complete(t, op, true, Some(verdict.value), false);
        }
    }

    /// One issue attempt: an advertise places the shortfall
    /// (`|Qa|` minus the acks so far), a lookup probes a fresh `|Qℓ|`,
    /// each at uniformly sampled peers (the RANDOM strategy).
    fn issue<T: Transport>(&mut self, t: &mut T, op: OpId) {
        let Some(o) = self.ops.get(&op) else {
            return; // completed synchronously (local hit)
        };
        let (key, payload) = (o.key, o.value);
        let want = match o.kind {
            OpKind::Advertise => o.shortfall(&self.uniform),
            OpKind::Lookup => o.quorum(&self.uniform).size as usize,
        };
        let targets: Vec<NodeId> = self
            .peers
            .choose_multiple(&mut self.rng, want)
            .copied()
            .collect();
        for to in targets {
            let msg = match payload {
                Some(value) => WireMsg::Store { op, key, value },
                None => WireMsg::LookupReq { op, key },
            };
            self.send(t, to, msg);
        }
    }

    /// Arms `ctx` to fire after `delay`.
    fn arm<T: Transport>(&mut self, t: &mut T, delay: SimDuration, ctx: TimerCtx) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, ctx);
        t.set_timer(delay.as_micros(), token);
    }

    fn arm_check<T: Transport>(&mut self, t: &mut T, op: OpId) {
        // Not if it completed synchronously (local hit).
        if self.ops.contains_key(&op) {
            self.arm(t, self.cfg.retry.attempt_timeout, TimerCtx::RetryCheck(op));
        }
    }

    fn retry_check<T: Transport>(&mut self, t: &mut T, op: OpId) {
        let Some(o) = self.ops.get(&op) else { return };
        let now = SimTime::from_micros(t.now_micros());
        match o.judge(&self.uniform, &self.cfg.retry, now, &mut self.rng) {
            Judgement::Done => {}
            Judgement::Backoff(jittered) => self.arm(t, jittered, TimerCtx::RetryFire(op)),
            Judgement::Exhausted | Judgement::Deadline => self.finish_failed(t, op),
        }
    }

    fn retry_fire<T: Transport>(&mut self, t: &mut T, op: OpId) {
        let Some(o) = self.ops.get_mut(&op) else {
            return;
        };
        if !o.fire(&self.cfg.retry, SimTime::from_micros(t.now_micros())) {
            self.finish_failed(t, op);
            return;
        }
        self.counters.op_retries += 1;
        self.issue(t, op);
        self.arm_check(t, op);
    }

    /// Deadline or attempt budget exhausted: fail, unless a masking
    /// lookup can degrade to its highest-voted (unverified) value.
    fn finish_failed<T: Transport>(&mut self, t: &mut T, op: OpId) {
        match self.ops.get_mut(&op).and_then(OpenOp::degrade) {
            Some(verdict) => self.complete(t, op, true, Some(verdict.value), true),
            None => self.complete(t, op, false, None, false),
        }
    }

    fn complete<T: Transport>(
        &mut self,
        t: &mut T,
        op: OpId,
        ok: bool,
        value: Option<Value>,
        degraded: bool,
    ) {
        let Some(o) = self.ops.remove(&op) else {
            return;
        };
        if ok {
            self.counters.completed_ok += 1;
        } else {
            self.counters.completed_failed += 1;
        }
        if degraded {
            self.counters.lookups_unverified += 1;
        }
        let latency = t.now_micros().saturating_sub(o.started.as_micros());
        match o.kind {
            OpKind::Advertise => self.advertise_latency.record(latency),
            OpKind::Lookup => self.lookup_latency.record(latency),
        }
        self.completions.push(Completion {
            op,
            kind: o.kind,
            key: o.key,
            ok,
            value,
            latency_micros: latency,
        });
    }

    fn send<T: Transport>(&mut self, t: &mut T, to: NodeId, msg: WireMsg) {
        self.counters.msgs_sent += 1;
        t.send(to, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::QueuedTransport;

    fn endpoint(n: u32) -> QuorumEndpoint {
        let peers: Vec<NodeId> = (0..n).map(NodeId).collect();
        QuorumEndpoint::new(NodeId(0), peers, EndpointConfig::new(3, 3), 42)
    }

    #[test]
    fn advertise_sends_qa_stores_and_completes_on_acks() {
        let mut e = endpoint(8);
        let mut t = QueuedTransport::at(0);
        let op = e.advertise(&mut t, 7, 99).expect("accepted");
        let stores: Vec<NodeId> = t
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, WireMsg::Store { .. }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(stores.len(), 3);
        assert!(!stores.contains(&NodeId(0)), "never samples self");
        assert_eq!(t.timers.len(), 1, "one attempt-timeout armed");

        let mut t2 = QueuedTransport::at(500);
        for from in stores {
            e.on_message(&mut t2, from, WireMsg::StoreAck { op });
        }
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].ok);
        assert_eq!(done[0].kind, OpKind::Advertise);
        assert_eq!(done[0].latency_micros, 500);
        assert_eq!(e.open_ops(), 0);
    }

    #[test]
    fn lookup_completes_on_first_nonempty_reply() {
        let mut e = endpoint(8);
        let mut t = QueuedTransport::at(0);
        let op = e.lookup(&mut t, 7).expect("accepted");
        let probed: Vec<NodeId> = t.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(probed.len(), 3);

        let mut t2 = QueuedTransport::at(100);
        // A miss first, then a hit.
        e.on_message(
            &mut t2,
            probed[0],
            WireMsg::LookupReply {
                op,
                key: 7,
                values: vec![],
            },
        );
        assert_eq!(e.open_ops(), 1);
        e.on_message(
            &mut t2,
            probed[1],
            WireMsg::LookupReply {
                op,
                key: 7,
                values: vec![55],
            },
        );
        let done = e.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].value, Some(55));
    }

    /// The vote, degrade and retry rules are `OpenOp`'s (tested in
    /// `crate::op`); this pins how the endpoint reports their outcomes.
    #[test]
    fn masking_lookups_complete_verified_degraded_or_failed() {
        let peers: Vec<NodeId> = (0..8).map(NodeId).collect();
        let cfg = EndpointConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default_policy()
            },
            byz: ByzPolicy::masking(1),
            ..EndpointConfig::new(3, 5)
        };
        let mut e = QuorumEndpoint::new(NodeId(0), peers, cfg, 42);
        let mut t = QueuedTransport::at(0);
        let verified = e.lookup(&mut t, 7).expect("accepted");
        let degraded = e.lookup(&mut t, 8).expect("accepted");
        let voteless = e.lookup(&mut t, 9).expect("accepted");
        for (op, key, from) in [(verified, 7, 1), (verified, 7, 2), (degraded, 8, 1)] {
            let values = vec![5];
            e.on_message(
                &mut t,
                NodeId(from),
                WireMsg::LookupReply { op, key, values },
            );
        }
        let done = e.take_completions();
        assert_eq!(done.len(), 1, "only b + 1 = 2 concurring voters verify");
        assert_eq!((done[0].op, done[0].value), (verified, Some(5)));
        assert_eq!(e.counters().lookups_unverified, 0);

        // The single-attempt budget is spent at the first judgement.
        for (_, check) in t.timers.clone() {
            e.on_timer(&mut t, check);
        }
        let done = e.take_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(
            (done[0].op, done[0].ok, done[0].value),
            (degraded, true, Some(5))
        );
        assert_eq!(
            (done[1].op, done[1].ok, done[1].value),
            (voteless, false, None)
        );
        let c = e.counters();
        assert_eq!(
            (c.lookups_unverified, c.completed_ok, c.completed_failed),
            (1, 2, 1)
        );
    }

    #[test]
    fn drain_refuses_new_ops_but_serves_peers_and_conserves_counters() {
        let mut e = endpoint(8);
        let mut t = QueuedTransport::at(0);
        let op = e.lookup(&mut t, 1).expect("accepted before drain");
        e.begin_drain();
        assert!(e.lookup(&mut t, 2).is_none());
        assert!(e.advertise(&mut t, 3, 4).is_none());
        assert!(!e.drained(), "in-flight op still open");

        // Peer traffic is still served during drain.
        e.on_message(
            &mut t,
            NodeId(5),
            WireMsg::Store {
                op: 9,
                key: 1,
                value: 2,
            },
        );
        assert!(matches!(
            t.sent.last(),
            Some((_, WireMsg::StoreAck { op: 9 }))
        ));

        let probed: Vec<NodeId> = t
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, WireMsg::LookupReq { .. }))
            .map(|(to, _)| *to)
            .collect();
        e.on_message(
            &mut t,
            probed[0],
            WireMsg::LookupReply {
                op,
                key: 1,
                values: vec![2],
            },
        );
        assert!(e.drained());
        let c = e.counters();
        assert_eq!(c.requests, 3);
        assert_eq!(c.refused, 2);
        let issued = c.advertises_issued + c.lookups_issued;
        assert_eq!(c.requests, issued + c.refused);
        assert_eq!(issued, c.completed_ok + c.completed_failed);
    }
}
