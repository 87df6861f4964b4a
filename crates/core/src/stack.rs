//! The quorum protocol stack: every access strategy of §4, the
//! maintenance machinery of §6 and the optimisations of §7, implemented
//! as one [`pqs_net::Stack`] over AODV.
//!
//! A [`QuorumStack`] manages the location-service state of *all* nodes of
//! a simulated network (the usual single-process simulation pattern):
//! per-node stores, membership views, in-flight walks/floods/probes and
//! per-operation outcome records.

use crate::estimator;
use crate::membership::Membership;
use crate::messages::{AppMsg, FloodMsg, FloodReplyMsg, OpId, QuorumAction, ReplyMsg, WalkMsg};
use crate::obs::{HoldReason, TraceEvent};
use crate::op::{Judgement, OpenOp};
use crate::service::{
    ByzMode, Fanout, OpKind, OpRecord, QuorumCounters, RepairMode, ServiceConfig,
};
use crate::spec::{AccessStrategy, BiquorumSpec, QuorumSpec};
use crate::store::{Key, Role, Store, Value};
use pqs_net::{fabricated_value, MacDst, Network, NodeBehavior, NodeId, Stack, Upcall};
use pqs_routing::{RoutePacket, Router, RouterConfig, RouterEvent, TransitHandle};
use pqs_sim::rng::{self, streams};
use pqs_sim::{EventId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// The network type this stack runs over.
pub type QuorumNet = Network<RoutePacket<AppMsg>>;

/// Maximum salvage attempts per walk step and probe substitutions per
/// lookup (caps defensive retries).
const MAX_SALVAGE_ATTEMPTS: usize = 5;
const MAX_PROBE_SUBSTITUTIONS: u32 = 10;

#[derive(Clone)]
enum LinkCtx {
    WalkForward {
        at: NodeId,
        msg: WalkMsg,
        tried: Vec<NodeId>,
    },
    ReplyForward {
        at: NodeId,
        reply: ReplyMsg,
    },
    FloodReplyForward {
        op: OpId,
    },
    FireAndForget,
}

#[derive(Clone)]
enum TimerCtx {
    SerialProbe {
        op: OpId,
    },
    DeferredStore {
        op: OpId,
        origin: NodeId,
        key: Key,
        value: Value,
        target: NodeId,
    },
    DeferredProbe {
        op: OpId,
        origin: NodeId,
        key: Key,
        target: NodeId,
    },
    ExpandRing {
        op: OpId,
        origin: NodeId,
        key: Key,
        ttl: u8,
    },
    /// Judgement point of the retry layer: fires `attempt_timeout` after
    /// each issue to decide success / re-issue / give up.
    RetryCheck {
        op: OpId,
    },
    /// Backoff expiry: re-issue the operation now.
    RetryFire {
        op: OpId,
    },
}

#[derive(Clone)]
enum RouteCtx {
    StoreSend {
        op: OpId,
        origin: NodeId,
        key: Key,
        value: Value,
        attempts: u32,
    },
    Probe {
        op: OpId,
    },
    ReplyRouted {
        op: OpId,
    },
    Repair {
        at: NodeId,
        reply: ReplyMsg,
        scoped: bool,
    },
}

#[derive(Clone)]
struct SerialLookup {
    origin: NodeId,
    key: Key,
    remaining: VecDeque<NodeId>,
    timer: Option<EventId>,
    substitutions: u32,
}

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

/// The quorum-backed location service over a simulated MANET.
///
/// Use [`QuorumStack::advertise`] and [`QuorumStack::lookup`] to issue
/// operations between `Network::run` horizons; inspect outcomes with
/// [`QuorumStack::ops`] and the counters.
///
/// Cloning forks the full service state — stores, membership views,
/// operation records, pending contexts, and the private RNG — so a
/// stack snapshotted after the advertise phase can be replayed under
/// many lookup-side configurations. Timer/route handles stay valid on
/// both copies (forked schedulers honour pre-clone `EventId`s).
#[derive(Clone)]
pub struct QuorumStack {
    /// The AODV router (public for stats access).
    pub router: Router<AppMsg>,
    cfg: ServiceConfig,
    stores: Vec<Store>,
    membership: Membership,
    ops: BTreeMap<OpId, OpRecord>,
    /// The engine-side state of every operation in `ops`: retry clock,
    /// pinned quorum sample, placements, votes. Never closed — frames
    /// still in flight consult the pin, and late stores and votes land,
    /// after the retry layer has given its verdict.
    open: BTreeMap<OpId, OpenOp>,
    next_op: OpId,
    next_token: u64,
    link_ctx: HashMap<u64, LinkCtx>,
    timer_ctx: HashMap<u64, TimerCtx>,
    route_ctx: HashMap<u64, RouteCtx>,
    serial: HashMap<OpId, SerialLookup>,
    replies_started: HashSet<OpId>,
    flood_seen: Vec<HashSet<u64>>,
    flood_parent: Vec<HashMap<u64, NodeId>>,
    next_flood: u64,
    /// Population at construction time (the `n` the quorums were sized
    /// for).
    initial_n: usize,
    /// Original nodes that have failed since — rejoiners stay counted,
    /// since their stores were wiped and they no longer hold old
    /// advertisements. Drives the §6.1 advertise-survivor estimate.
    original_failed: HashSet<NodeId>,
    /// Whether the router was built with the RANDOM-OPT relay tap —
    /// fixed at construction, so reconfiguration onto RANDOM-OPT is only
    /// possible when the tap already exists.
    transit_tap: bool,
    counters: QuorumCounters,
    /// Structured sim-time trace (`None` unless
    /// `ServiceConfig::trace_capacity > 0`): the disabled hot path is a
    /// single branch per would-be event.
    trace: Option<pqs_sim::trace::TraceRing<TraceEvent>>,
    rng: StdRng,
}

impl QuorumStack {
    /// Builds the stack for `net`, with converged membership views of the
    /// paper's size (`2√n`) over the currently alive nodes.
    pub fn new(net: &QuorumNet, cfg: ServiceConfig, seed: u64) -> Self {
        let n = net.node_count();
        let alive = net.alive_nodes();
        let mut membership_rng = rng::stream(seed, streams::MEMBERSHIP);
        let view_size = (cfg.membership_view_factor * (alive.len() as f64).sqrt()).round() as usize;
        let membership = Membership::converged(n, &alive, view_size.max(1), &mut membership_rng);
        let needs_tap = cfg.spec.advertise.strategy == AccessStrategy::RandomOpt
            || cfg.spec.lookup.strategy == AccessStrategy::RandomOpt
            || cfg.weighted.is_some_and(|w| {
                w.advertise
                    .candidates()
                    .chain(w.lookup.candidates())
                    .any(|(s, _)| s.strategy == AccessStrategy::RandomOpt)
            });
        let router_cfg = RouterConfig {
            transit_tap: needs_tap,
            ..RouterConfig::default()
        };
        QuorumStack {
            router: Router::new(n, router_cfg),
            cfg,
            stores: (0..n).map(|_| Store::new()).collect(),
            membership,
            ops: BTreeMap::new(),
            open: BTreeMap::new(),
            next_op: 0,
            next_token: 0,
            link_ctx: HashMap::new(),
            timer_ctx: HashMap::new(),
            route_ctx: HashMap::new(),
            serial: HashMap::new(),
            replies_started: HashSet::new(),
            flood_seen: vec![HashSet::new(); n],
            flood_parent: vec![HashMap::new(); n],
            next_flood: 0,
            initial_n: n,
            original_failed: HashSet::new(),
            transit_tap: needs_tap,
            counters: QuorumCounters::default(),
            trace: (cfg.trace_capacity > 0)
                .then(|| pqs_sim::trace::TraceRing::new(cfg.trace_capacity)),
            rng: rng::stream(seed, streams::QUORUM),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Mutable configuration access (e.g. to resize the lookup quorum for
    /// churn experiments, §6.1).
    pub fn config_mut(&mut self) -> &mut ServiceConfig {
        &mut self.cfg
    }

    /// All operation records, in issue order.
    pub fn ops(&self) -> impl Iterator<Item = (&OpId, &OpRecord)> {
        self.ops.iter()
    }

    /// One operation record.
    pub fn op(&self, op: OpId) -> Option<&OpRecord> {
        self.ops.get(&op)
    }

    /// Strategy-level message counters.
    pub fn counters(&self) -> &QuorumCounters {
        &self.counters
    }

    /// The structured trace ring, when tracing is enabled.
    pub fn trace(&self) -> Option<&pqs_sim::trace::TraceRing<TraceEvent>> {
        self.trace.as_ref()
    }

    /// Copies out the retained trace, oldest first (empty when tracing is
    /// disabled).
    pub fn trace_events(&self) -> Vec<(SimTime, TraceEvent)> {
        self.trace
            .as_ref()
            .map(|t| t.iter().copied().collect())
            .unwrap_or_default()
    }

    #[inline]
    fn trace_push(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(at, event);
        }
    }

    /// A node's store (tests/diagnostics).
    pub fn store_of(&self, node: NodeId) -> &Store {
        &self.stores[node.index()]
    }

    /// The membership service.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Records a freshly issued operation and opens its engine state,
    /// pinning its quorum (one draw from the op RNG stream) when a
    /// weighted mixture is configured.
    fn open_op(
        &mut self,
        now: SimTime,
        kind: OpKind,
        origin: NodeId,
        key: Key,
        value: Option<Value>,
    ) -> OpId {
        let op = self.next_op;
        self.next_op += 1;
        self.ops.insert(op, OpRecord::new(kind, key, origin, now));
        self.trace_push(now, TraceEvent::OpIssued { op, kind, origin });
        let mut open = OpenOp::new(kind, key, value, now);
        if let Some(mix) = &self.cfg.weighted {
            open.pin(mix, &mut self.rng);
        }
        self.open.insert(op, open);
        op
    }

    /// The `(strategy, size)` `op` accesses: its pinned weighted sample,
    /// or the live uniform spec.
    fn quorum_of(&self, op: OpId) -> Option<QuorumSpec> {
        self.open.get(&op).map(|o| o.quorum(&self.cfg.spec))
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Publishes `key → value` from `node` through the advertise quorum.
    pub fn advertise(&mut self, net: &mut QuorumNet, node: NodeId, key: Key, value: Value) -> OpId {
        let op = self.open_op(net.now(), OpKind::Advertise, node, key, Some(value));
        if net.is_alive(node) {
            self.issue_advertise(net, node, op, key, value);
            self.arm_retry(net, op);
        }
        op
    }

    /// One issue attempt of an advertise access. On retries only the
    /// shortfall (`|Qa| − stores_placed`) is re-sent for the routed
    /// strategies; walks and floods re-run whole.
    fn issue_advertise(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        op: OpId,
        key: Key,
        value: Value,
    ) {
        self.counters.advertises_issued += 1;
        let open = self.open.get(&op).expect("open while issuing");
        let spec = open.quorum(&self.cfg.spec);
        match spec.strategy {
            AccessStrategy::Random | AccessStrategy::RandomOpt => {
                let want = open.shortfall(&self.cfg.spec);
                if want == 0 {
                    return;
                }
                let targets = self.membership.pick_quorum(node, want, &mut self.rng);
                // Pace the stores: bursting |Qa| route discoveries at
                // once saturates the medium (see ServiceConfig docs).
                for (i, target) in targets.into_iter().enumerate() {
                    if i == 0 || self.cfg.store_spacing.is_zero() {
                        self.send_store(net, node, op, key, value, target, 0);
                    } else {
                        let ctx = TimerCtx::DeferredStore {
                            op,
                            origin: node,
                            key,
                            value,
                            target,
                        };
                        self.arm_timer(net, node, self.cfg.store_spacing * i as u64, ctx);
                    }
                }
            }
            AccessStrategy::Path | AccessStrategy::UniquePath => {
                let msg = WalkMsg {
                    op,
                    origin: node,
                    action: QuorumAction::Advertise { key, value },
                    target: spec.size,
                    unique: spec.strategy == AccessStrategy::UniquePath,
                    visited: Vec::new(),
                };
                self.walk_arrive(net, node, msg);
            }
            AccessStrategy::Flooding => {
                self.start_flood(
                    net,
                    node,
                    op,
                    QuorumAction::Advertise { key, value },
                    spec.size as u8,
                );
            }
        }
    }

    /// Looks `key` up from `node` through the lookup quorum. The
    /// originator is part of its own quorum (§8.3), so a locally known
    /// key completes immediately.
    pub fn lookup(&mut self, net: &mut QuorumNet, node: NodeId, key: Key) -> OpId {
        let op = self.open_op(net.now(), OpKind::Lookup, node, key, None);
        if net.is_alive(node) {
            self.issue_lookup(net, node, op, key);
            self.arm_retry(net, op);
        }
        op
    }

    /// One issue attempt of a lookup access (also the re-issue path of
    /// the retry layer, which picks a fresh access set each time).
    fn issue_lookup(&mut self, net: &mut QuorumNet, node: NodeId, op: OpId, key: Key) {
        self.counters.lookups_issued += 1;
        let spec = self.quorum_of(op).expect("open while issuing");
        // The originator is part of its own quorum (§8.3). A local hit
        // completes the lookup immediately; parallel fan-outs still probe
        // the rest of the quorum so that collect-style consumers (the
        // register, pub/sub) see every stored value.
        let local = self.stores[node.index()].lookup_all(key);
        if !local.is_empty() {
            let rec = self.ops.get_mut(&op).expect("record exists while issuing");
            rec.intersected = true;
            // The origin reads its own store honestly — behaviors apply
            // at the reply boundary, and this is not a reply. Under
            // masking this is one vote (from self), not a completion.
            self.complete_lookup_from(net, op, node, local);
            let keeps_probing = self.cfg.lookup_fanout == Fanout::Parallel
                && matches!(
                    spec.strategy,
                    AccessStrategy::Random | AccessStrategy::RandomOpt
                );
            let replied = self.ops.get(&op).is_none_or(|r| r.replied);
            if replied && !keeps_probing {
                return;
            }
        }
        match spec.strategy {
            AccessStrategy::Random | AccessStrategy::RandomOpt => {
                let targets = self
                    .membership
                    .pick_quorum(node, spec.size as usize, &mut self.rng);
                match self.cfg.lookup_fanout {
                    Fanout::Parallel => {
                        // Paced like advertise stores: bursting a large
                        // masking fan-out of route discoveries at once
                        // saturates the medium (probe_spacing = 0, the
                        // paper default, keeps the single burst).
                        for (i, target) in targets.into_iter().enumerate() {
                            if i == 0 || self.cfg.probe_spacing.is_zero() {
                                self.send_probe(net, node, op, key, target);
                            } else {
                                let ctx = TimerCtx::DeferredProbe {
                                    op,
                                    origin: node,
                                    key,
                                    target,
                                };
                                self.arm_timer(net, node, self.cfg.probe_spacing * i as u64, ctx);
                            }
                        }
                    }
                    Fanout::Serial => {
                        self.serial.insert(
                            op,
                            SerialLookup {
                                origin: node,
                                key,
                                remaining: targets.into(),
                                timer: None,
                                substitutions: 0,
                            },
                        );
                        self.serial_advance(net, op);
                    }
                }
            }
            AccessStrategy::Path | AccessStrategy::UniquePath => {
                let msg = WalkMsg {
                    op,
                    origin: node,
                    action: QuorumAction::Lookup { key },
                    target: spec.size,
                    unique: spec.strategy == AccessStrategy::UniquePath,
                    visited: Vec::new(),
                };
                self.walk_arrive(net, node, msg);
            }
            AccessStrategy::Flooding => {
                if self.cfg.expanding_ring {
                    self.expanding_ring_stage(net, node, op, key, 1);
                } else {
                    self.start_flood(net, node, op, QuorumAction::Lookup { key }, spec.size as u8);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Operation-level retry (deadline + jittered exponential backoff)
    // ------------------------------------------------------------------

    /// Records one placed store for an advertise access — in-process,
    /// from the receiving node's handler: the paper's message-cost model
    /// has no ack frame. When the placement target is reached the record
    /// is stamped complete (the advertise-latency source) and an
    /// [`TraceEvent::OpCompleted`] is traced.
    fn note_store_placed(&mut self, now: SimTime, op: OpId) {
        let (Some(rec), Some(open)) = (self.ops.get_mut(&op), self.open.get_mut(&op)) else {
            return;
        };
        rec.stores_placed += 1;
        if open.placed(&self.cfg.spec) && rec.completed.is_none() {
            rec.completed = Some(now);
            let latency = now - rec.started;
            self.trace_push(
                now,
                TraceEvent::OpCompleted {
                    op,
                    kind: OpKind::Advertise,
                    latency,
                },
            );
        }
    }

    /// Arms `ctx` to fire at `node` after `delay`.
    fn arm_timer(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        delay: SimDuration,
        ctx: TimerCtx,
    ) -> EventId {
        let token = self.token();
        self.timer_ctx.insert(token, ctx);
        net.set_timer(node, delay, token)
    }

    /// Arms the retry layer for a freshly issued operation.
    fn arm_retry(&mut self, net: &mut QuorumNet, op: OpId) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        if self.open[&op].is_done(&self.cfg.spec) {
            return;
        }
        let origin = self.ops[&op].origin;
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
    fn retry_check(&mut self, net: &mut QuorumNet, op: OpId) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        let origin = self.ops[&op].origin;
        match self.open[&op].judge(&self.cfg.spec, &policy, net.now(), &mut self.rng) {
            Judgement::Done => {}
            Judgement::Backoff(jittered) => {
                self.arm_timer(net, origin, jittered, TimerCtx::RetryFire { op });
            }
            Judgement::Exhausted => self.finish_failed(net, op, false),
            Judgement::Deadline => self.finish_failed(net, op, true),
        }
    }

    /// Backoff expiry: re-issue with a fresh access set.
    fn retry_fire(&mut self, net: &mut QuorumNet, op: OpId) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        let (Some(rec), Some(open)) = (self.ops.get_mut(&op), self.open.get_mut(&op)) else {
            return;
        };
        if open.is_done(&self.cfg.spec) {
            return;
        }
        if !open.fire(&policy, net.now()) {
            self.finish_failed(net, op, true);
            return;
        }
        self.counters.op_retries += 1;
        let attempt = open.attempts();
        rec.attempts = attempt;
        // Reopen a record a previous attempt closed as a miss.
        rec.completed = None;
        let (kind, origin, key, value) = (rec.kind, rec.origin, rec.key, open.value);
        self.trace_push(net.now(), TraceEvent::OpRetried { op, attempt });
        if policy.adapt_quorum && kind == OpKind::Lookup {
            self.adapt_lookup_quorum(net, op, policy.epsilon);
        }
        // A fresh access set: resample the origin's membership view over
        // the currently alive population before re-picking the quorum.
        let alive = net.alive_nodes();
        let view = (self.cfg.membership_view_factor * (alive.len() as f64).sqrt()).round() as usize;
        self.membership
            .refresh_view(origin, &alive, view.max(1), &mut self.rng);
        match value {
            Some(value) => self.issue_advertise(net, origin, op, key, value),
            None => {
                // Clear per-attempt lookup state so the re-issue runs
                // clean (stale replies still complete the op if they
                // arrive first).
                self.replies_started.remove(&op);
                if let Some(s) = self.serial.remove(&op) {
                    if let Some(t) = s.timer {
                        net.cancel_timer(t);
                    }
                }
                self.issue_lookup(net, origin, op, key);
            }
        }
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

    fn mark_degraded(&mut self, op: OpId) {
        if let Some(rec) = self.ops.get_mut(&op) {
            if !rec.degraded {
                rec.degraded = true;
                self.counters.degraded_ops += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Controller feed (pqs-plan's AdaptiveController)
    // ------------------------------------------------------------------

    /// The §6.3 birthday-collision population estimate `n̂ = k(k−1)/(2c)`
    /// over `k = ⌈factor·√(alive)⌉ + 4` MD-walk samples of the current
    /// connectivity graph.
    ///
    /// Returns `None` — and counts
    /// [`QuorumCounters::estimator_unavailable`] — when the sample yields
    /// zero collisions or the estimator is disabled
    /// (`ServiceConfig::estimator_sample_factor ≤ 0`). Callers must not
    /// fabricate an n̂ in that case: the adaptive controller holds its
    /// last plan, while the per-operation retry path (which cannot wait)
    /// explicitly falls back to the exact alive count.
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
        let wants_tap = spec.advertise.strategy == AccessStrategy::RandomOpt
            || spec.lookup.strategy == AccessStrategy::RandomOpt;
        if wants_tap && !self.transit_tap {
            return Err(ReconfigureError::NeedsTransitTap);
        }
        if spec == self.cfg.spec {
            return Ok(false);
        }
        self.cfg.spec = spec;
        self.counters.reconfigures += 1;
        self.trace_push(
            at,
            TraceEvent::Reconfigured {
                qa: spec.advertise.size,
                ql: spec.lookup.size,
            },
        );
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
        weighted: Option<crate::spec::WeightedBiquorumSpec>,
    ) -> Result<bool, ReconfigureError> {
        let wants_tap = weighted.is_some_and(|w| {
            w.advertise
                .candidates()
                .chain(w.lookup.candidates())
                .any(|(s, _)| s.strategy == AccessStrategy::RandomOpt)
        });
        if wants_tap && !self.transit_tap {
            return Err(ReconfigureError::NeedsTransitTap);
        }
        let mix_changed = weighted != self.cfg.weighted;
        let size_changed = self.reconfigure(at, spec)?;
        if mix_changed {
            self.cfg.weighted = weighted;
            if !size_changed {
                // The spec was unchanged but the weights moved: still a
                // reconfiguration from the operator's point of view.
                self.counters.reconfigures += 1;
                self.trace_push(
                    at,
                    TraceEvent::Reconfigured {
                        qa: spec.advertise.size,
                        ql: spec.lookup.size,
                    },
                );
            }
        }
        Ok(size_changed || mix_changed)
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

    // ------------------------------------------------------------------
    // Routed probes (RANDOM / RANDOM-OPT)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn send_store(
        &mut self,
        net: &mut QuorumNet,
        origin: NodeId,
        op: OpId,
        key: Key,
        value: Value,
        target: NodeId,
        attempts: u32,
    ) {
        let token = self.token();
        self.route_ctx.insert(
            token,
            RouteCtx::StoreSend {
                op,
                origin,
                key,
                value,
                attempts,
            },
        );
        let events = self.router.send_data(
            net,
            origin,
            target,
            AppMsg::Store { op, key, value },
            token,
            None,
        );
        self.dispatch(net, events);
    }

    fn send_probe(
        &mut self,
        net: &mut QuorumNet,
        origin: NodeId,
        op: OpId,
        key: Key,
        target: NodeId,
    ) {
        let token = self.token();
        self.route_ctx.insert(token, RouteCtx::Probe { op });
        let events = self.router.send_data(
            net,
            origin,
            target,
            AppMsg::LookupReq { op, key, origin },
            token,
            None,
        );
        self.dispatch(net, events);
    }

    fn serial_advance(&mut self, net: &mut QuorumNet, op: OpId) {
        let Some(state) = self.serial.get_mut(&op) else {
            return;
        };
        if self.ops.get(&op).is_some_and(|r| r.replied) {
            if let Some(t) = state.timer.take() {
                net.cancel_timer(t);
            }
            self.serial.remove(&op);
            return;
        }
        if let Some(t) = state.timer.take() {
            net.cancel_timer(t);
        }
        let Some(target) = state.remaining.pop_front() else {
            // Quorum exhausted: a miss.
            self.serial.remove(&op);
            if let Some(rec) = self.ops.get_mut(&op) {
                rec.completed.get_or_insert(net.now());
            }
            return;
        };
        let (origin, key) = (state.origin, state.key);
        let timer = self.arm_timer(
            net,
            origin,
            self.cfg.probe_timeout,
            TimerCtx::SerialProbe { op },
        );
        if let Some(state) = self.serial.get_mut(&op) {
            state.timer = Some(timer);
        }
        self.send_probe(net, origin, op, key, target);
    }

    // ------------------------------------------------------------------
    // Walks (PATH / UNIQUE-PATH)
    // ------------------------------------------------------------------

    fn walk_arrive(&mut self, net: &mut QuorumNet, at: NodeId, mut msg: WalkMsg) {
        if !net.is_alive(at) {
            return;
        }
        let first_visit = !msg.visited.contains(&at);
        if first_visit {
            msg.visited.push(at);
        }
        match msg.action {
            QuorumAction::Advertise { key, value } => {
                if first_visit {
                    self.stores[at.index()].insert(key, value, Role::Owner);
                    self.note_store_placed(net.now(), msg.op);
                }
            }
            QuorumAction::Lookup { key } => {
                if self.stores[at.index()].lookup(key).is_some() {
                    if let Some(rec) = self.ops.get_mut(&msg.op) {
                        rec.intersected = true;
                    }
                }
                if let Some(value) = self.byz_reply_value(net, at, msg.origin, key) {
                    // Masking needs more than one concurring reply, so
                    // it lifts the single-reply guard and never halts a
                    // walk early (votes come from later path members).
                    if self.masking() || self.replies_started.insert(msg.op) {
                        self.start_walk_reply(net, at, &msg, value);
                    }
                    if self.cfg.early_halting && !self.masking() {
                        return;
                    }
                }
            }
        }
        if msg.visited.len() >= msg.target as usize {
            // Walk complete: advertise done / lookup miss (no reply sent
            // on misses — the cost model of Fig. 16).
            if let Some(rec) = self.ops.get_mut(&msg.op) {
                if rec.kind == OpKind::Advertise || !rec.intersected {
                    rec.completed.get_or_insert(net.now());
                }
            }
            return;
        }
        self.forward_walk(net, at, msg, Vec::new());
    }

    fn forward_walk(&mut self, net: &mut QuorumNet, at: NodeId, msg: WalkMsg, tried: Vec<NodeId>) {
        if !net.is_alive(at) || tried.len() > MAX_SALVAGE_ATTEMPTS {
            self.counters.walks_dropped += 1;
            return;
        }
        let neighbors = net.neighbors(at);
        let candidates: Vec<NodeId> = neighbors
            .iter()
            .copied()
            .filter(|n| !tried.contains(n))
            .collect();
        if candidates.is_empty() {
            self.counters.walks_dropped += 1;
            return;
        }
        // UNIQUE-PATH: prefer unvisited neighbours; fall back to a simple
        // step when trapped (§4.3).
        let next = if msg.unique {
            let fresh: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|n| !msg.visited.contains(n))
                .collect();
            if fresh.is_empty() {
                *candidates.choose(&mut self.rng).expect("nonempty")
            } else {
                *fresh.choose(&mut self.rng).expect("nonempty")
            }
        } else {
            *candidates.choose(&mut self.rng).expect("nonempty")
        };
        let token = self.token();
        let mut tried = tried;
        tried.push(next);
        self.link_ctx.insert(
            token,
            LinkCtx::WalkForward {
                at,
                msg: msg.clone(),
                tried,
            },
        );
        self.counters.walk_tx += 1;
        // Lookup walks are small control messages; advertise walks carry
        // the payload. Both carry the visited list (§4.2).
        let bytes = match msg.action {
            QuorumAction::Advertise { .. } => net.config().payload_bytes,
            QuorumAction::Lookup { .. } => 48,
        } + 4 * msg.visited.len();
        self.router.send_one_hop(
            net,
            at,
            MacDst::Unicast(next),
            AppMsg::Walk(msg),
            token,
            bytes,
        );
    }

    fn start_walk_reply(&mut self, net: &mut QuorumNet, at: NodeId, msg: &WalkMsg, value: Value) {
        let key = msg.action.key();
        let pos = msg
            .visited
            .iter()
            .position(|&v| v == at)
            .unwrap_or(msg.visited.len());
        let path = msg.visited[..pos].to_vec();
        if path.is_empty() {
            // The hit happened at the originator itself.
            self.complete_lookup_from(net, msg.op, at, vec![value]);
            return;
        }
        let reply = ReplyMsg {
            op: msg.op,
            key,
            value,
            from: at,
            path,
        };
        self.forward_reply(net, at, reply);
    }

    fn forward_reply(&mut self, net: &mut QuorumNet, at: NodeId, mut reply: ReplyMsg) {
        if !net.is_alive(at) || reply.path.is_empty() {
            return;
        }
        if self.cfg.reply_path_reduction {
            // Skip ahead to the earliest reverse-path node that is
            // already a neighbour (§7.2).
            let neighbors = net.neighbors(at);
            if let Some(i) = reply.path.iter().position(|v| neighbors.contains(v)) {
                reply.path.truncate(i + 1);
            }
        }
        let next = *reply.path.last().expect("nonempty path");
        let token = self.token();
        self.link_ctx.insert(
            token,
            LinkCtx::ReplyForward {
                at,
                reply: reply.clone(),
            },
        );
        self.counters.reply_tx += 1;
        let bytes = 64 + 4 * reply.path.len();
        self.router.send_one_hop(
            net,
            at,
            MacDst::Unicast(next),
            AppMsg::WalkReply(reply),
            token,
            bytes,
        );
    }

    fn reply_arrive(&mut self, net: &mut QuorumNet, at: NodeId, mut reply: ReplyMsg) {
        if reply.path.last() == Some(&at) {
            reply.path.pop();
        }
        if reply.path.is_empty() {
            self.complete_lookup_from(net, reply.op, reply.from, vec![reply.value]);
        } else {
            self.forward_reply(net, at, reply);
        }
    }

    fn reply_hop_failed(&mut self, net: &mut QuorumNet, at: NodeId, mut reply: ReplyMsg) {
        match self.cfg.repair {
            RepairMode::None => {
                self.drop_reply(reply.op);
            }
            RepairMode::Local { .. } => {
                // The failed hop is the last path element; repair targets
                // the nodes before it, ending at the originator.
                if reply.path.len() > 1 {
                    reply.path.pop();
                }
                self.try_repair(net, at, reply, true);
            }
        }
    }

    fn try_repair(&mut self, net: &mut QuorumNet, at: NodeId, reply: ReplyMsg, scoped: bool) {
        let RepairMode::Local { ttl, .. } = self.cfg.repair else {
            self.drop_reply(reply.op);
            return;
        };
        if scoped {
            self.counters.local_repairs += 1;
        } else {
            self.counters.global_repairs += 1;
        }
        let target = *reply.path.last().expect("repair path nonempty");
        let token = self.token();
        self.route_ctx.insert(
            token,
            RouteCtx::Repair {
                at,
                reply: reply.clone(),
                scoped,
            },
        );
        let max_ttl = scoped.then_some(ttl);
        let events =
            self.router
                .send_data(net, at, target, AppMsg::WalkReply(reply), token, max_ttl);
        self.dispatch(net, events);
    }

    fn repair_failed(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        mut reply: ReplyMsg,
        scoped: bool,
    ) {
        let RepairMode::Local {
            global_fallback, ..
        } = self.cfg.repair
        else {
            self.drop_reply(reply.op);
            return;
        };
        if !scoped {
            self.drop_reply(reply.op);
            return;
        }
        if reply.path.len() > 1 {
            reply.path.pop();
            self.try_repair(net, at, reply, true);
        } else if global_fallback {
            // Last resort: unrestricted route to the originator (§6.2).
            self.try_repair(net, at, reply, false);
        } else {
            self.drop_reply(reply.op);
        }
    }

    fn drop_reply(&mut self, op: OpId) {
        self.counters.replies_dropped += 1;
        if let Some(rec) = self.ops.get_mut(&op) {
            rec.reply_dropped = true;
        }
    }

    /// Stamps a lookup answered with `value` (its first reply, its
    /// vote winner, or its degraded best).
    fn close_lookup(&mut self, net: &mut QuorumNet, op: OpId, value: Value) {
        let now = net.now();
        if let Some(rec) = self.ops.get_mut(&op) {
            rec.replied = true;
            rec.intersected = true;
            rec.value = Some(value);
            rec.completed = Some(now);
            let latency = now - rec.started;
            if self.cfg.caching {
                self.stores[rec.origin.index()].insert(rec.key, value, Role::Bystander);
            }
            self.trace_push(
                now,
                TraceEvent::OpCompleted {
                    op,
                    kind: OpKind::Lookup,
                    latency,
                },
            );
        }
        if let Some(state) = self.serial.remove(&op) {
            if let Some(t) = state.timer {
                net.cancel_timer(t);
            }
        }
    }

    // ------------------------------------------------------------------
    // Byzantine behaviors and vote-verified (masking) reads
    // ------------------------------------------------------------------

    /// Whether reads are vote-verified (Malkhi–Reiter–Wool masking).
    fn masking(&self) -> bool {
        self.cfg.byz.mode == ByzMode::Masking
    }

    /// The behavior-adjusted multi-value reply `responder` sends back to
    /// `requester` when the honest protocol would answer with `honest`.
    /// `None` suppresses the reply entirely (fail-silent); `Some(vec![])`
    /// is an honest miss.
    fn byz_reply_values(
        &self,
        net: &QuorumNet,
        responder: NodeId,
        requester: NodeId,
        key: Key,
        honest: Vec<Value>,
    ) -> Option<Vec<Value>> {
        match net.node_behavior(responder) {
            None => Some(honest),
            Some(NodeBehavior::Silent) => None,
            Some(NodeBehavior::Liar) => Some(vec![fabricated_value(responder, key, responder)]),
            Some(NodeBehavior::Equivocator) => {
                Some(vec![fabricated_value(responder, key, requester)])
            }
            // A real but outdated answer when one exists, an honest miss
            // otherwise — never the newest value.
            Some(NodeBehavior::Stale) => Some(
                self.stores[responder.index()]
                    .lookup_oldest(key)
                    .map(|v| vec![v])
                    .unwrap_or_default(),
            ),
        }
    }

    /// Single-value variant of [`Self::byz_reply_values`] for the walk,
    /// flood and promiscuous reply paths. `None` means no reply (silent
    /// node or honest miss).
    fn byz_reply_value(
        &self,
        net: &QuorumNet,
        responder: NodeId,
        requester: NodeId,
        key: Key,
    ) -> Option<Value> {
        match net.node_behavior(responder) {
            None => self.stores[responder.index()].lookup(key),
            Some(NodeBehavior::Silent) => None,
            Some(NodeBehavior::Liar) => Some(fabricated_value(responder, key, responder)),
            Some(NodeBehavior::Equivocator) => Some(fabricated_value(responder, key, requester)),
            Some(NodeBehavior::Stale) => self.stores[responder.index()].lookup_oldest(key),
        }
    }

    /// Attributed lookup completion: every reply widens the record's
    /// observed value set, and the one that answers the lookup (see
    /// [`OpenOp::vote`]: the first in trusting mode, the `b + 1`-th
    /// concurring vote in masking mode) closes it. Late replies never
    /// reopen a completed op.
    fn complete_lookup_from(
        &mut self,
        net: &mut QuorumNet,
        op: OpId,
        responder: NodeId,
        values: Vec<Value>,
    ) {
        let (Some(rec), Some(open)) = (self.ops.get_mut(&op), self.open.get_mut(&op)) else {
            return;
        };
        for &v in &values {
            if !rec.values_seen.contains(&v) {
                rec.values_seen.push(v);
            }
        }
        let Some(verdict) = open.vote(responder, &values, &self.cfg.byz) else {
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
    fn degrade_unverified(&mut self, net: &mut QuorumNet, op: OpId) -> bool {
        let Some(verdict) = self.open.get_mut(&op).and_then(OpenOp::degrade) else {
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
        let ops: Vec<OpId> = self.open.keys().copied().collect();
        for op in ops {
            self.degrade_unverified(net, op);
        }
    }

    // ------------------------------------------------------------------
    // Flooding
    // ------------------------------------------------------------------

    fn start_flood(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        op: OpId,
        action: QuorumAction,
        ttl: u8,
    ) {
        self.next_flood += 1;
        let flood = self.next_flood;
        self.flood_seen[node.index()].insert(flood);
        self.counters.flood_covered += 1;
        if let QuorumAction::Advertise { key, value } = action {
            self.stores[node.index()].insert(key, value, Role::Owner);
            self.note_store_placed(net.now(), op);
        }
        if ttl == 0 {
            return;
        }
        let token = self.token();
        self.link_ctx.insert(token, LinkCtx::FireAndForget);
        self.counters.flood_tx += 1;
        let bytes = flood_bytes(net, action);
        self.router.send_one_hop(
            net,
            node,
            MacDst::Broadcast,
            AppMsg::Flood(FloodMsg {
                op,
                origin: node,
                flood,
                ttl,
                action,
            }),
            token,
            bytes,
        );
    }

    /// One stage of the §4.4 expanding-ring lookup: flood at `ttl`, then
    /// re-flood wider if the reply has not arrived by the stage timeout.
    fn expanding_ring_stage(
        &mut self,
        net: &mut QuorumNet,
        origin: NodeId,
        op: OpId,
        key: Key,
        ttl: u8,
    ) {
        if self.ops.get(&op).is_some_and(|r| r.replied) {
            return;
        }
        self.start_flood(net, origin, op, QuorumAction::Lookup { key }, ttl);
        if self.quorum_of(op).is_some_and(|q| ttl < q.size as u8) {
            let ctx = TimerCtx::ExpandRing {
                op,
                origin,
                key,
                ttl: ttl + 1,
            };
            self.arm_timer(net, origin, self.cfg.expanding_ring_timeout, ctx);
        }
    }

    fn flood_arrive(&mut self, net: &mut QuorumNet, at: NodeId, from: NodeId, msg: FloodMsg) {
        if !net.is_alive(at) || !self.flood_seen[at.index()].insert(msg.flood) {
            return;
        }
        self.flood_parent[at.index()].insert(msg.flood, from);
        self.counters.flood_covered += 1;
        match msg.action {
            QuorumAction::Advertise { key, value } => {
                self.stores[at.index()].insert(key, value, Role::Owner);
                self.note_store_placed(net.now(), msg.op);
            }
            QuorumAction::Lookup { key } => {
                if self.stores[at.index()].lookup(key).is_some() {
                    if let Some(rec) = self.ops.get_mut(&msg.op) {
                        rec.intersected = true;
                    }
                }
                if let Some(value) = self.byz_reply_value(net, at, msg.origin, key) {
                    // Every holder replies — flooding has no fine-grained
                    // control (§4.4's "numerous replies" drawback).
                    self.forward_flood_reply(
                        net,
                        at,
                        FloodReplyMsg {
                            op: msg.op,
                            key,
                            value,
                            from: at,
                            flood: msg.flood,
                            origin: msg.origin,
                        },
                    );
                }
            }
        }
        if msg.ttl > 1 {
            let token = self.token();
            self.link_ctx.insert(token, LinkCtx::FireAndForget);
            self.counters.flood_tx += 1;
            let bytes = flood_bytes(net, msg.action);
            self.router.send_one_hop(
                net,
                at,
                MacDst::Broadcast,
                AppMsg::Flood(FloodMsg {
                    ttl: msg.ttl - 1,
                    ..msg
                }),
                token,
                bytes,
            );
        }
    }

    fn forward_flood_reply(&mut self, net: &mut QuorumNet, at: NodeId, msg: FloodReplyMsg) {
        if at == msg.origin {
            self.complete_lookup_from(net, msg.op, msg.from, vec![msg.value]);
            return;
        }
        let Some(&parent) = self.flood_parent[at.index()].get(&msg.flood) else {
            self.drop_reply(msg.op);
            return;
        };
        let token = self.token();
        self.link_ctx
            .insert(token, LinkCtx::FloodReplyForward { op: msg.op });
        self.counters.flood_reply_tx += 1;
        self.router.send_one_hop(
            net,
            at,
            MacDst::Unicast(parent),
            AppMsg::FloodReply(msg),
            token,
            64,
        );
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Processes router events (public so drivers can flush events
    /// returned by direct router calls).
    pub fn dispatch(&mut self, net: &mut QuorumNet, events: Vec<RouterEvent<AppMsg>>) {
        for event in events {
            match event {
                // Payloads arrive shared (`Payload<AppMsg>`); handlers
                // borrow and copy out only the fields they keep.
                RouterEvent::Delivered { node, payload, .. } => {
                    self.on_app_msg(net, node, None, &payload);
                }
                RouterEvent::OneHop {
                    node,
                    from,
                    payload,
                    overheard,
                } => {
                    if overheard {
                        self.on_overheard(net, node, from, &payload);
                    } else {
                        self.on_app_msg(net, node, Some(from), &payload);
                    }
                }
                RouterEvent::Transit {
                    node,
                    handle,
                    payload,
                    ..
                } => {
                    self.on_transit(net, node, handle, &payload);
                }
                RouterEvent::SendDone { node, token, ok } => {
                    self.on_route_done(net, node, token, ok);
                }
                RouterEvent::AppSendResult { node, token, ok } => {
                    self.on_link_result(net, node, token, ok);
                }
                RouterEvent::AppTimer { token, .. } => {
                    self.on_timer(net, token);
                }
                RouterEvent::RouteBroken { .. } => {}
                RouterEvent::NodeFailed { node } => {
                    self.on_node_failed(node);
                }
                RouterEvent::NodeJoined { node } => {
                    self.on_node_joined(net, node);
                }
            }
        }
    }

    fn on_app_msg(&mut self, net: &mut QuorumNet, at: NodeId, from: Option<NodeId>, msg: &AppMsg) {
        match msg {
            AppMsg::Store { op, key, value } => {
                self.stores[at.index()].insert(*key, *value, Role::Owner);
                self.note_store_placed(net.now(), *op);
            }
            AppMsg::LookupReq { op, key, origin } => {
                let honest = self.stores[at.index()].lookup_all(*key);
                if !honest.is_empty() {
                    if let Some(rec) = self.ops.get_mut(op) {
                        rec.intersected = true;
                    }
                }
                // Byzantine boundary: a silent node answers nothing (not
                // even the serial miss notification), liars/equivocators
                // fabricate, stale nodes serve their oldest copy.
                let Some(found) = self.byz_reply_values(net, at, *origin, *key, honest) else {
                    return;
                };
                // Hits always answer (with every held value); misses
                // answer only under serial probing, which needs explicit
                // miss notifications to advance.
                if !found.is_empty() || self.cfg.lookup_fanout == Fanout::Serial {
                    let token = self.token();
                    self.route_ctx
                        .insert(token, RouteCtx::ReplyRouted { op: *op });
                    let events = self.router.send_data(
                        net,
                        at,
                        *origin,
                        AppMsg::LookupReply {
                            op: *op,
                            key: *key,
                            from: at,
                            values: found,
                        },
                        token,
                        None,
                    );
                    self.dispatch(net, events);
                }
            }
            AppMsg::LookupReply {
                op, from, values, ..
            } => {
                if values.is_empty() {
                    self.serial_advance(net, *op);
                } else {
                    self.complete_lookup_from(net, *op, *from, values.clone());
                }
            }
            AppMsg::Walk(walk) => self.walk_arrive(net, at, walk.clone()),
            AppMsg::WalkReply(reply) => self.reply_arrive(net, at, reply.clone()),
            AppMsg::Flood(flood) => {
                let from = from.expect("floods travel one hop");
                self.flood_arrive(net, at, from, flood.clone());
            }
            AppMsg::FloodReply(reply) => self.forward_flood_reply(net, at, reply.clone()),
        }
    }

    /// Whether `op`'s frames take the §4.5 relay tap.
    fn is_random_opt(&self, op: OpId) -> bool {
        self.quorum_of(op)
            .is_some_and(|q| q.strategy == AccessStrategy::RandomOpt)
    }

    fn on_transit(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        handle: TransitHandle,
        payload: &AppMsg,
    ) {
        match payload {
            // RANDOM-OPT advertise: relays join the advertise quorum
            // (§4.5). Only when the advertise side is RANDOM-OPT — plain
            // RANDOM keeps its uniform quorum.
            AppMsg::Store { op, key, value } if self.is_random_opt(*op) => {
                self.stores[node.index()].insert(*key, *value, Role::Owner);
                self.note_store_placed(net.now(), *op);
                let events = self.router.forward_transit(net, handle);
                self.dispatch(net, events);
            }
            // RANDOM-OPT lookup: relays answer from their own store and
            // stop the probe (§4.5).
            AppMsg::LookupReq { op, key, origin } if self.is_random_opt(*op) => {
                let honest = self.stores[node.index()].lookup_all(*key);
                if !honest.is_empty() {
                    if let Some(rec) = self.ops.get_mut(op) {
                        rec.intersected = true;
                    }
                }
                // A silent relay still forwards the probe; it just never
                // answers it. Liars answer (and consume) every probe.
                let found = self
                    .byz_reply_values(net, node, *origin, *key, honest)
                    .unwrap_or_default();
                if !found.is_empty() {
                    self.router.consume_transit(handle);
                    let token = self.token();
                    self.route_ctx
                        .insert(token, RouteCtx::ReplyRouted { op: *op });
                    let events = self.router.send_data(
                        net,
                        node,
                        *origin,
                        AppMsg::LookupReply {
                            op: *op,
                            key: *key,
                            from: node,
                            values: found,
                        },
                        token,
                        None,
                    );
                    self.dispatch(net, events);
                } else {
                    let events = self.router.forward_transit(net, handle);
                    self.dispatch(net, events);
                }
            }
            _ => {
                let events = self.router.forward_transit(net, handle);
                self.dispatch(net, events);
            }
        }
    }

    fn on_overheard(&mut self, net: &mut QuorumNet, node: NodeId, _from: NodeId, msg: &AppMsg) {
        if self.cfg.caching {
            match msg {
                AppMsg::Store { key, value, .. } => {
                    self.stores[node.index()].insert(*key, *value, Role::Bystander);
                }
                AppMsg::WalkReply(r) => {
                    self.stores[node.index()].insert(r.key, r.value, Role::Bystander);
                }
                _ => {}
            }
        }
        if self.cfg.promiscuous_replies {
            if let AppMsg::Walk(walk) = msg {
                if let QuorumAction::Lookup { key } = walk.action {
                    if self.stores[node.index()].lookup(key).is_some() {
                        if let Some(rec) = self.ops.get_mut(&walk.op) {
                            rec.intersected = true;
                        }
                    }
                    if let Some(value) = self.byz_reply_value(net, node, walk.origin, key) {
                        if (self.masking() || self.replies_started.insert(walk.op))
                            && !walk.visited.is_empty()
                        {
                            // Answer on the walk's reverse path (§7.2).
                            let reply = ReplyMsg {
                                op: walk.op,
                                key,
                                value,
                                from: node,
                                path: walk.visited.clone(),
                            };
                            self.forward_reply(net, node, reply);
                        }
                    }
                }
            }
        }
    }

    fn on_link_result(&mut self, net: &mut QuorumNet, _node: NodeId, token: u64, ok: bool) {
        let Some(ctx) = self.link_ctx.remove(&token) else {
            return;
        };
        match ctx {
            LinkCtx::FireAndForget => {}
            LinkCtx::WalkForward { at, msg, tried } => {
                if !ok {
                    if self.cfg.rw_salvation {
                        // Try another neighbour within the same step
                        // (§6.2's RW salvation).
                        self.counters.salvations += 1;
                        self.forward_walk(net, at, msg, tried);
                    } else {
                        self.counters.walks_dropped += 1;
                    }
                }
            }
            LinkCtx::ReplyForward { at, reply } => {
                if !ok {
                    self.reply_hop_failed(net, at, reply);
                }
            }
            LinkCtx::FloodReplyForward { op } => {
                if !ok {
                    self.drop_reply(op);
                }
            }
        }
    }

    fn on_route_done(&mut self, net: &mut QuorumNet, _node: NodeId, token: u64, ok: bool) {
        let Some(ctx) = self.route_ctx.remove(&token) else {
            return;
        };
        match ctx {
            RouteCtx::StoreSend {
                op,
                origin,
                key,
                value,
                attempts,
            } => {
                // §6.2 adaptation: an unreachable advertise member is
                // replaced by another random one (bounded retries).
                if !ok && attempts < 3 && net.is_alive(origin) {
                    let substitute = self.membership.pick_quorum(origin, 1, &mut self.rng);
                    if let Some(target) = substitute.first().copied() {
                        self.counters.probe_substitutions += 1;
                        self.send_store(net, origin, op, key, value, target, attempts + 1);
                    }
                }
            }
            RouteCtx::Probe { op } => {
                if !ok {
                    // §6.2 adaptation: replace the unreachable member by
                    // another random one (serial mode only; parallel
                    // probes simply lose one member).
                    if let Some(state) = self.serial.get_mut(&op) {
                        if state.substitutions < MAX_PROBE_SUBSTITUTIONS {
                            state.substitutions += 1;
                            let origin = state.origin;
                            let sub = self.membership.pick_quorum(origin, 1, &mut self.rng);
                            if let Some(state) = self.serial.get_mut(&op) {
                                state.remaining.extend(sub);
                            }
                            self.counters.probe_substitutions += 1;
                        }
                        self.serial_advance(net, op);
                    }
                }
            }
            RouteCtx::ReplyRouted { op } => {
                if !ok {
                    self.drop_reply(op);
                }
            }
            RouteCtx::Repair { at, reply, scoped } => {
                if !ok {
                    self.repair_failed(net, at, reply, scoped);
                }
            }
        }
    }

    fn on_timer(&mut self, net: &mut QuorumNet, token: u64) {
        let Some(ctx) = self.timer_ctx.remove(&token) else {
            return;
        };
        match ctx {
            TimerCtx::SerialProbe { op } => {
                if let Some(state) = self.serial.get_mut(&op) {
                    state.timer = None;
                }
                self.serial_advance(net, op);
            }
            TimerCtx::DeferredStore {
                op,
                origin,
                key,
                value,
                target,
            } => {
                self.send_store(net, origin, op, key, value, target, 0);
            }
            TimerCtx::DeferredProbe {
                op,
                origin,
                key,
                target,
            } => {
                // Skip probes for lookups that already completed — a
                // verified masking read cancels its remaining fan-out.
                if self.ops.get(&op).is_some_and(|r| !r.replied) {
                    self.send_probe(net, origin, op, key, target);
                }
            }
            TimerCtx::ExpandRing {
                op,
                origin,
                key,
                ttl,
            } => {
                self.expanding_ring_stage(net, origin, op, key, ttl);
            }
            TimerCtx::RetryCheck { op } => {
                self.retry_check(net, op);
            }
            TimerCtx::RetryFire { op } => {
                self.retry_fire(net, op);
            }
        }
    }

    fn on_node_failed(&mut self, node: NodeId) {
        if let Some(store) = self.stores.get_mut(node.index()) {
            store.clear();
        }
        if let Some(seen) = self.flood_seen.get_mut(node.index()) {
            seen.clear();
        }
        if let Some(parents) = self.flood_parent.get_mut(node.index()) {
            parents.clear();
        }
        self.serial.retain(|_, s| s.origin != node);
        if node.index() < self.initial_n {
            self.original_failed.insert(node);
        }
        // A dead originator cannot receive replies; abandon its retries
        // (the armed timer would otherwise fire if the node rejoins).
        let ops = &self.ops;
        self.timer_ctx.retain(|_, ctx| match ctx {
            TimerCtx::RetryCheck { op } | TimerCtx::RetryFire { op } => ops[op].origin != node,
            _ => true,
        });
    }

    fn on_node_joined(&mut self, net: &mut QuorumNet, node: NodeId) {
        while self.stores.len() <= node.index() {
            self.stores.push(Store::new());
            self.flood_seen.push(HashSet::new());
            self.flood_parent.push(HashMap::new());
        }
        self.stores[node.index()].clear();
        let alive = net.alive_nodes();
        let view = (self.cfg.membership_view_factor * (alive.len() as f64).sqrt()).round() as usize;
        self.membership
            .refresh_view(node, &alive, view.max(1), &mut self.rng);
    }
}

/// Wire size of a flood message: advertise floods carry the payload,
/// lookup floods are small.
fn flood_bytes(net: &QuorumNet, action: QuorumAction) -> usize {
    match action {
        QuorumAction::Advertise { .. } => net.config().payload_bytes,
        QuorumAction::Lookup { .. } => 48,
    }
}

impl Stack<RoutePacket<AppMsg>> for QuorumStack {
    fn on_upcall(&mut self, net: &mut QuorumNet, upcall: Upcall<RoutePacket<AppMsg>>) {
        let events = self.router.on_upcall(net, upcall);
        self.dispatch(net, events);
    }
}
