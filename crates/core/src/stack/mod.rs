//! The quorum protocol stack: every access strategy of §4, the
//! maintenance machinery of §6 and the optimisations of §7, implemented
//! as one [`pqs_net::Stack`] over AODV.
//!
//! A [`QuorumStack`] manages the location-service state of *all* nodes of
//! a simulated network (the usual single-process simulation pattern):
//! per-node stores, membership views, in-flight walks/floods/probes and
//! per-operation outcome records.
//!
//! This module holds the state, the issue switch and the upcall
//! dispatch. Each child module is one more `impl QuorumStack` block cut
//! along the paper's seams: one per access strategy (`random`,
//! `random_opt`, `path`, `flooding`), the reverse-path `reply` with its
//! repair, the outcome `verdict` (placements, the Byzantine reply
//! boundary, votes, caching), the `retry` layer and the controller's
//! `control` feed.

mod control;
mod flooding;
mod path;
mod random;
mod random_opt;
mod reply;
mod retry;
mod verdict;

use crate::membership::{self, Membership};
use crate::messages::{AppMsg, OpId, QuorumAction, ReplyMsg, WalkMsg};
use crate::obs::TraceEvent;
use crate::op::OpenOp;
use crate::service::{OpKind, OpRecord, QuorumCounters, ServiceConfig};
use crate::spec::{AccessStrategy, QuorumSpec};
use crate::store::{Key, Store, Value};
use pqs_net::{Network, NodeId, Stack, Upcall};
use pqs_routing::{RoutePacket, Router, RouterEvent};
use pqs_sim::rng::{self, streams};
use pqs_sim::{EventId, SimDuration, SimTime};
use rand::rngs::StdRng;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The network type this stack runs over.
pub type QuorumNet = Network<RoutePacket<AppMsg>>;

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
        target: NodeId,
    },
    DeferredProbe {
        op: OpId,
        target: NodeId,
    },
    ExpandRing {
        op: OpId,
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
    /// Every operation ever issued; never closed (see [`OpRecord`]).
    ops: BTreeMap<OpId, OpRecord>,
    next_op: OpId,
    next_token: u64,
    link_ctx: HashMap<u64, LinkCtx>,
    timer_ctx: HashMap<u64, TimerCtx>,
    route_ctx: HashMap<u64, RouteCtx>,
    serial: HashMap<OpId, random::SerialLookup>,
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
        let view_size = membership::view_size(cfg.membership_view_factor, alive.len());
        let membership = Membership::converged(n, &alive, view_size, &mut membership_rng);
        QuorumStack {
            router: Router::new(n),
            cfg,
            stores: (0..n).map(|_| Store::new()).collect(),
            membership,
            ops: BTreeMap::new(),
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
            counters: QuorumCounters::default(),
            trace: (cfg.trace_capacity > 0)
                .then(|| pqs_sim::trace::TraceRing::new(cfg.trace_capacity)),
            rng: rng::stream(seed, streams::QUORUM),
        }
    }

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

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Publishes `key → value` from `node` through the advertise quorum.
    pub fn advertise(&mut self, net: &mut QuorumNet, node: NodeId, key: Key, value: Value) -> OpId {
        self.open_op(net, OpKind::Advertise, node, key, Some(value))
    }

    /// Looks `key` up from `node` through the lookup quorum. The
    /// originator is part of its own quorum (§8.3), so a locally known
    /// key completes immediately.
    pub fn lookup(&mut self, net: &mut QuorumNet, node: NodeId, key: Key) -> OpId {
        self.open_op(net, OpKind::Lookup, node, key, None)
    }

    /// Records a freshly issued operation, pinning its quorum (one draw
    /// from the op RNG stream) when a weighted mixture is configured; a
    /// live origin then issues it and arms the retry layer.
    fn open_op(
        &mut self,
        net: &mut QuorumNet,
        kind: OpKind,
        origin: NodeId,
        key: Key,
        value: Option<Value>,
    ) -> OpId {
        let now = net.now();
        let op = self.next_op;
        self.next_op += 1;
        let mut open = OpenOp::new(kind, key, value, now);
        if let Some(mix) = &self.cfg.weighted {
            open.pin(mix, &mut self.rng);
        }
        self.ops.insert(op, OpRecord::new(origin, open));
        self.trace_push(now, TraceEvent::OpIssued { op, kind, origin });
        if net.is_alive(origin) {
            self.issue(net, origin, op, key, value);
            self.arm_retry(net, op);
        }
        op
    }

    /// The `(strategy, size)` `op` accesses: its pinned weighted sample,
    /// or the live uniform spec.
    fn quorum_of(&self, op: OpId) -> Option<QuorumSpec> {
        self.ops.get(&op).map(|r| r.open.quorum(&self.cfg.spec))
    }

    /// The node that issued `op`, and its key.
    fn origin_key(&self, op: OpId) -> (NodeId, Key) {
        let rec = &self.ops[&op];
        (rec.origin, rec.key())
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

    /// One issue attempt of `op` from `node`: an advertise of `value`,
    /// or a lookup of `key` when `value` is `None`. Also the re-issue
    /// path of the retry layer, where routed advertises re-send only the
    /// shortfall (`|Qa| − stores_placed`) and every other access re-runs
    /// whole over a fresh access set.
    fn issue(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        op: OpId,
        key: Key,
        value: Option<Value>,
    ) {
        let spec = self.quorum_of(op).expect("open while issuing");
        let action = match value {
            Some(value) => {
                self.counters.advertises_issued += 1;
                QuorumAction::Advertise { key, value }
            }
            None => {
                self.counters.lookups_issued += 1;
                if self.answered_locally(net, node, op, key, spec) {
                    return;
                }
                QuorumAction::Lookup { key }
            }
        };
        match (spec.strategy, action) {
            (
                AccessStrategy::Random | AccessStrategy::RandomOpt,
                QuorumAction::Advertise { .. },
            ) => {
                let want = self.ops[&op].open.shortfall(&self.cfg.spec);
                self.send_stores(net, node, op, want);
            }
            (AccessStrategy::Random | AccessStrategy::RandomOpt, QuorumAction::Lookup { .. }) => {
                self.send_probes(net, node, op, spec.size);
            }
            (AccessStrategy::Path | AccessStrategy::UniquePath, _) => {
                self.start_walk(net, node, op, action, spec);
            }
            (AccessStrategy::Flooding, QuorumAction::Lookup { .. }) if self.cfg.expanding_ring => {
                self.expanding_ring_stage(net, op, 1);
            }
            (AccessStrategy::Flooding, _) => {
                self.start_flood(net, node, op, action, flooding::ttl_for(spec.size));
            }
        }
    }

    /// Processes router events (public so drivers can flush events
    /// returned by direct router calls).
    pub fn dispatch(&mut self, net: &mut QuorumNet, events: Vec<RouterEvent<AppMsg>>) {
        for event in events {
            match event {
                // Payloads arrive shared (`Payload<AppMsg>`); handlers
                // borrow and copy out only the fields they keep.
                RouterEvent::Delivered { node, payload, .. } => {
                    self.on_app_msg(net, node, None, &payload)
                }
                RouterEvent::OneHop {
                    node,
                    from,
                    payload,
                    overheard,
                } => {
                    if overheard {
                        self.on_overheard(net, node, &payload);
                    } else {
                        self.on_app_msg(net, node, Some(from), &payload);
                    }
                }
                RouterEvent::Transit {
                    node,
                    handle,
                    payload,
                } => self.on_transit(net, node, handle, &payload),
                RouterEvent::SendDone { token, ok, .. } => self.on_route_done(net, token, ok),
                RouterEvent::AppSendResult { token, ok, .. } => self.on_link_result(net, token, ok),
                RouterEvent::AppTimer { token, .. } => self.on_timer(net, token),
                RouterEvent::RouteBroken { .. } => {}
                RouterEvent::NodeFailed { node } => self.on_node_failed(node),
                RouterEvent::NodeJoined { node } => self.on_node_joined(net, node),
            }
        }
    }

    fn on_app_msg(&mut self, net: &mut QuorumNet, at: NodeId, from: Option<NodeId>, msg: &AppMsg) {
        match msg {
            AppMsg::Store { op, key, value } => self.place_store(net.now(), at, *op, *key, *value),
            AppMsg::LookupReq { op, key, origin } => self.probe_arrive(net, at, *op, *key, *origin),
            AppMsg::LookupReply {
                op, from, values, ..
            } => self.lookup_reply_arrive(net, *op, *from, values),
            AppMsg::Walk(walk) => self.walk_arrive(net, at, walk.clone()),
            AppMsg::WalkReply(reply) => self.reply_arrive(net, at, reply.clone()),
            AppMsg::Flood(flood) => {
                let from = from.expect("floods travel one hop");
                self.flood_arrive(net, at, from, flood.clone());
            }
            AppMsg::FloodReply(reply) => self.forward_flood_reply(net, at, reply.clone()),
        }
    }

    fn on_overheard(&mut self, net: &mut QuorumNet, node: NodeId, msg: &AppMsg) {
        if self.cfg.caching {
            self.cache_overheard(node, msg);
        }
        if let AppMsg::Walk(walk) = msg {
            if self.cfg.promiscuous_replies {
                self.overhear_walk(net, node, walk);
            }
        }
    }

    fn on_link_result(&mut self, net: &mut QuorumNet, token: u64, ok: bool) {
        let Some(ctx) = self.link_ctx.remove(&token) else {
            return;
        };
        if ok {
            return;
        }
        match ctx {
            LinkCtx::FireAndForget => {}
            LinkCtx::WalkForward { at, msg, tried } => self.walk_hop_failed(net, at, msg, tried),
            LinkCtx::ReplyForward { at, reply } => self.reply_hop_failed(net, at, reply),
            LinkCtx::FloodReplyForward { op } => self.drop_reply(op),
        }
    }

    fn on_route_done(&mut self, net: &mut QuorumNet, token: u64, ok: bool) {
        let Some(ctx) = self.route_ctx.remove(&token) else {
            return;
        };
        if ok {
            return;
        }
        match ctx {
            RouteCtx::StoreSend { op, attempts } => self.store_unreachable(net, op, attempts),
            RouteCtx::Probe { op } => self.probe_unreachable(net, op),
            RouteCtx::ReplyRouted { op } => self.drop_reply(op),
            RouteCtx::Repair { at, reply, scoped } => self.repair_failed(net, at, reply, scoped),
        }
    }

    fn on_timer(&mut self, net: &mut QuorumNet, token: u64) {
        let Some(ctx) = self.timer_ctx.remove(&token) else {
            return;
        };
        match ctx {
            TimerCtx::SerialProbe { op } => self.serial_timeout(net, op),
            TimerCtx::DeferredStore { op, target } => self.send_store(net, op, target, 0),
            TimerCtx::DeferredProbe { op, target } => self.deferred_probe(net, op, target),
            TimerCtx::ExpandRing { op, ttl } => self.expanding_ring_stage(net, op, ttl),
            TimerCtx::RetryCheck { op } => self.retry_check(net, op),
            TimerCtx::RetryFire { op } => self.retry_fire(net, op),
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
        let ops = &self.ops;
        self.serial.retain(|op, _| ops[op].origin != node);
        if node.index() < self.initial_n {
            self.original_failed.insert(node);
        }
        // A dead originator cannot receive replies; abandon its retries
        // (the armed timer would otherwise fire if the node rejoins).
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
        self.refresh_view(net, node);
    }
}

impl Stack<RoutePacket<AppMsg>> for QuorumStack {
    fn on_upcall(&mut self, net: &mut QuorumNet, upcall: Upcall<RoutePacket<AppMsg>>) {
        let events = self.router.on_upcall(net, upcall);
        self.dispatch(net, events);
    }
}
