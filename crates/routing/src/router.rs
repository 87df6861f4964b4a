//! The AODV protocol engine.

use crate::table::RouteTable;
use pqs_net::{MacDst, Network, NodeId, Payload, Upcall};
use pqs_sim::{EventId, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Tokens with this bit set belong to the router; the application layer
/// must allocate its link-level tokens below this bit.
pub const ROUTER_TOKEN_BIT: u64 = 1 << 63;

/// Wire size of AODV control packets (RREQ/RREP/RERR) in bytes — far
/// smaller than data payloads, so they occupy proportionally less
/// airtime.
pub const CONTROL_BYTES: usize = 48;

/// Extra routing header bytes added to routed data payloads.
pub const DATA_HEADER_BYTES: usize = 16;

/// What travels in data frames when AODV is in the stack: either a routing
/// control packet, a routed data packet, or raw link-local application
/// traffic that bypasses routing entirely (random walks, floods).
#[derive(Debug, Clone, PartialEq)]
pub enum RoutePacket<P> {
    /// Route request (flooded network-wide, or within a scoped TTL).
    Rreq {
        /// Per-originator request id (for duplicate suppression).
        id: u64,
        /// The node searching for a route.
        origin: NodeId,
        /// Originator's sequence number.
        origin_seq: u32,
        /// Hops travelled so far.
        hops: u8,
        /// Remaining time-to-live.
        ttl: u8,
        /// The destination being sought.
        dst: NodeId,
        /// Last destination sequence number known to the originator.
        dst_seq: Option<u32>,
    },
    /// Route reply (unicast back along the reverse path).
    Rrep {
        /// The destination the route leads to.
        target: NodeId,
        /// The originator of the RREQ this answers.
        origin: NodeId,
        /// Hops from the replier to `target`.
        hops: u8,
        /// Destination sequence number.
        dst_seq: u32,
    },
    /// Route error: the listed destinations became unreachable.
    Rerr {
        /// `(destination, bumped sequence number)` pairs.
        broken: Vec<(NodeId, u32)>,
    },
    /// A routed application payload.
    Data {
        /// Originator.
        src: NodeId,
        /// Final destination.
        dst: NodeId,
        /// Per-originator packet id (diagnostics).
        id: u64,
        /// Remaining time-to-live (loop protection).
        ttl: u8,
        /// The payload, shared so per-hop forwards and per-receiver
        /// deliveries never deep-copy application data.
        payload: Payload<P>,
    },
    /// Link-local application traffic; the router passes it through
    /// untouched as [`RouterEvent::OneHop`].
    OneHop(Payload<P>),
}

/// Network-wide RREQ and data-packet TTL. Every unscoped discovery
/// floods at this TTL from its first attempt: quorum targets are
/// uniformly random (typically far away), so an expanding ring would
/// almost never succeed early and only add flood traffic and latency.
const NET_TTL: u8 = 35;

/// Extra network-wide discovery attempts before a discovery gives up.
const RREQ_RETRIES: u32 = 2;

/// Per-hop traversal-time estimate used to size discovery timeouts.
const NODE_TRAVERSAL: SimDuration = SimDuration::from_millis(60);

/// Lifetime of installed routes; reuse extends it (the paper amortises
/// discovery cost over consecutive quorum accesses, §8.1).
const ROUTE_LIFETIME: SimDuration = SimDuration::from_secs(60);

/// Routing-layer statistics, split the way the paper reports them:
/// `data_tx` is the "number of messages" (network-layer hops of
/// application data), the control counters are the "additional routing
/// overhead" (§8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// RREQ transmissions (every hop of every flood).
    pub rreq_tx: u64,
    /// RREP transmissions.
    pub rrep_tx: u64,
    /// RERR transmissions.
    pub rerr_tx: u64,
    /// Data-packet hop transmissions.
    pub data_tx: u64,
    /// Data packets delivered to their destination.
    pub data_delivered: u64,
    /// Data packets dropped (no route / TTL exhausted / link break).
    pub data_dropped: u64,
    /// Route discoveries started.
    pub discoveries: u64,
    /// Route discoveries that gave up.
    pub discovery_failures: u64,
}

impl RoutingStats {
    /// Total control-message transmissions (the paper's "additional
    /// routing overhead").
    pub fn control_tx(&self) -> u64 {
        self.rreq_tx + self.rrep_tx + self.rerr_tx
    }
}

/// Events the router hands to the layer above.
#[derive(Debug, Clone)]
pub enum RouterEvent<P> {
    /// A routed payload reached its destination.
    Delivered {
        /// The destination node.
        node: NodeId,
        /// The originator.
        src: NodeId,
        /// The payload (shared; deref or clone the [`Payload`] as needed).
        payload: Payload<P>,
    },
    /// A routed data packet reached relay `node` on its way to someone
    /// else. The router holds nothing for it: the stack passes `handle`
    /// to [`Router::forward_transit`] to send it on, or drops it to
    /// consume the packet (RANDOM-OPT answering a probe midway, §4.5).
    Transit {
        /// The relaying node.
        node: NodeId,
        /// The packet itself, by value.
        handle: TransitHandle<P>,
        /// The payload (shared with the packet in `handle`).
        payload: Payload<P>,
    },
    /// Outcome of a [`Router::send_data`] call: `ok = true` once the
    /// packet left the originator toward an established route; `false`
    /// if discovery failed or the first hop broke.
    SendDone {
        /// The originating node.
        node: NodeId,
        /// The application token.
        token: u64,
        /// Success flag.
        ok: bool,
    },
    /// The route from `node` to `dst` broke (link failure or RERR).
    RouteBroken {
        /// Node whose table lost the route.
        node: NodeId,
        /// Unreachable destination.
        dst: NodeId,
    },
    /// Link-local application traffic (bypassed routing).
    OneHop {
        /// Receiving node.
        node: NodeId,
        /// One-hop sender.
        from: NodeId,
        /// The payload (shared across every node that heard the frame).
        payload: Payload<P>,
        /// `true` if overheard in promiscuous mode.
        overheard: bool,
    },
    /// A link-level send-result for an application token (no
    /// [`ROUTER_TOKEN_BIT`]).
    AppSendResult {
        /// The sending node.
        node: NodeId,
        /// The application's link token.
        token: u64,
        /// Success flag.
        ok: bool,
    },
    /// An application timer fired (no [`ROUTER_TOKEN_BIT`]).
    AppTimer {
        /// The node.
        node: NodeId,
        /// The application's timer token.
        token: u64,
    },
    /// Substrate churn notification, passed through after the router
    /// reset the node's routing state.
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// Substrate churn notification.
    NodeJoined {
        /// The joined node.
        node: NodeId,
    },
}

/// A routed data packet held at a relay (see [`RouterEvent::Transit`]).
#[derive(Debug, Clone)]
pub struct TransitHandle<P> {
    at: NodeId,
    src: NodeId,
    dst: NodeId,
    id: u64,
    ttl: u8,
    payload: Payload<P>,
}

#[derive(Debug, Clone)]
struct Discovery<P> {
    buffered: Vec<(Payload<P>, u64)>,
    retries: u32,
    max_ttl: Option<u8>,
    /// The pending timeout and its `timers` key: a discovery that ends
    /// before the timeout fires removes both.
    timer: EventId,
    token: u64,
}

#[derive(Debug, Clone, Default)]
struct NodeRouting {
    table: RouteTable,
    seq: u32,
    next_rreq_id: u64,
    next_data_id: u64,
    seen_rreqs: HashSet<(NodeId, u64)>,
}

#[derive(Clone)]
enum TokenCtx {
    FirstHop {
        node: NodeId,
        app_token: u64,
        next_hop: NodeId,
    },
    Forward {
        node: NodeId,
        next_hop: NodeId,
    },
    Control,
}

#[derive(Clone)]
enum TimerCtx {
    DiscoveryTimeout { node: NodeId, dst: NodeId },
}

/// The AODV router for all nodes of one simulated network.
///
/// See the crate-level docs for the composition pattern; the integration
/// tests and `pqs-core` show complete stacks.
///
/// Cloning forks all per-node routing state (tables, pending
/// discoveries, in-flight tokens); discovery timers remain cancellable
/// on both copies because forked schedulers honour pre-clone handles.
#[derive(Clone)]
pub struct Router<P> {
    nodes: Vec<NodeRouting>,
    pending: HashMap<(NodeId, NodeId), Discovery<P>>,
    tokens: HashMap<u64, TokenCtx>,
    timers: HashMap<u64, TimerCtx>,
    next_token: u64,
    stats: RoutingStats,
    node_forwards: Vec<u64>,
}

impl<P: Clone> Router<P> {
    /// Creates a router for `n` nodes.
    pub fn new(n: usize) -> Self {
        Router {
            nodes: (0..n).map(|_| NodeRouting::default()).collect(),
            pending: HashMap::new(),
            tokens: HashMap::new(),
            timers: HashMap::new(),
            next_token: 1,
            stats: RoutingStats::default(),
            node_forwards: vec![0; n],
        }
    }

    /// Routing statistics.
    pub fn stats(&self) -> &RoutingStats {
        &self.stats
    }

    /// Per-node count of routed data frames each node *forwarded* on
    /// behalf of other origins (relay work; origin transmissions are not
    /// counted). Indexed by node id.
    pub fn node_forwards(&self) -> &[u64] {
        &self.node_forwards
    }

    /// Returns `true` if `node` currently has a usable route to `dst`.
    pub fn has_route(&self, node: NodeId, dst: NodeId, now: SimTime) -> bool {
        self.nodes[node.index()].table.lookup(dst, now).is_some()
    }

    /// Grows per-node state to cover nodes added with
    /// [`Network::add_node`].
    pub fn ensure_node(&mut self, node: NodeId) {
        while self.nodes.len() <= node.index() {
            self.nodes.push(NodeRouting::default());
        }
        while self.node_forwards.len() <= node.index() {
            self.node_forwards.push(0);
        }
    }

    fn fresh_token(&mut self, ctx: TokenCtx) -> u64 {
        let token = ROUTER_TOKEN_BIT | self.next_token;
        self.next_token += 1;
        self.tokens.insert(token, ctx);
        token
    }

    fn fresh_timer_token(&mut self, ctx: TimerCtx) -> u64 {
        let token = ROUTER_TOKEN_BIT | self.next_token;
        self.next_token += 1;
        self.timers.insert(token, ctx);
        token
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Sends `payload` from `node` to `dst` through AODV. `app_token`
    /// comes back in [`RouterEvent::SendDone`]. `max_ttl` restricts both
    /// discovery and travel scope (the paper's TTL-3 local repair);
    /// `None` means network-wide.
    ///
    /// Returns immediately-produced events (e.g. self-delivery).
    pub fn send_data(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        node: NodeId,
        dst: NodeId,
        payload: P,
        app_token: u64,
        max_ttl: Option<u8>,
    ) -> Vec<RouterEvent<P>> {
        // Shared from here on: buffering, retries and every hop reuse the
        // same allocation.
        let payload = Payload::new(payload);
        if node == dst {
            self.stats.data_delivered += 1;
            return vec![
                RouterEvent::Delivered {
                    node,
                    src: node,
                    payload,
                },
                RouterEvent::SendDone {
                    node,
                    token: app_token,
                    ok: true,
                },
            ];
        }
        let now = net.now();
        let route = self.nodes[node.index()].table.lookup(dst, now).copied();
        match route {
            Some(route) => {
                self.transmit_data(
                    net,
                    node,
                    dst,
                    payload,
                    Some(app_token),
                    route.next_hop,
                    max_ttl,
                );
                Vec::new()
            }
            None => {
                self.buffer_and_discover(net, node, dst, payload, app_token, max_ttl);
                Vec::new()
            }
        }
    }

    /// Sends raw link-local application traffic (one hop, no routing).
    /// `link_token` must not have [`ROUTER_TOKEN_BIT`] set; the MAC
    /// outcome returns as [`RouterEvent::AppSendResult`].
    ///
    /// # Panics
    ///
    /// Panics if `link_token` has [`ROUTER_TOKEN_BIT`] set.
    pub fn send_one_hop(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        node: NodeId,
        dst: MacDst,
        payload: P,
        link_token: u64,
        wire_bytes: usize,
    ) -> bool {
        assert_eq!(
            link_token & ROUTER_TOKEN_BIT,
            0,
            "application tokens must not use the router token bit"
        );
        net.send_sized(
            node,
            dst,
            RoutePacket::OneHop(Payload::new(payload)),
            link_token,
            wire_bytes,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn transmit_data(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        node: NodeId,
        dst: NodeId,
        payload: Payload<P>,
        app_token: Option<u64>,
        next_hop: NodeId,
        max_ttl: Option<u8>,
    ) {
        let id = {
            let s = &mut self.nodes[node.index()];
            s.next_data_id += 1;
            s.next_data_id
        };
        let ttl = max_ttl.unwrap_or(NET_TTL);
        let token = match app_token {
            Some(app_token) => self.fresh_token(TokenCtx::FirstHop {
                node,
                app_token,
                next_hop,
            }),
            None => self.fresh_token(TokenCtx::Forward { node, next_hop }),
        };
        self.stats.data_tx += 1;
        let expiry = net.now() + ROUTE_LIFETIME;
        self.nodes[node.index()].table.refresh(dst, expiry);
        let bytes = net.config().payload_bytes + DATA_HEADER_BYTES;
        net.send_sized(
            node,
            MacDst::Unicast(next_hop),
            RoutePacket::Data {
                src: node,
                dst,
                id,
                ttl,
                payload,
            },
            token,
            bytes,
        );
    }

    fn buffer_and_discover(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        node: NodeId,
        dst: NodeId,
        payload: Payload<P>,
        app_token: u64,
        max_ttl: Option<u8>,
    ) {
        if let Some(d) = self.pending.get_mut(&(node, dst)) {
            d.buffered.push((payload, app_token));
            return;
        }
        // Scoped searches make a single attempt at exactly max_ttl.
        let ttl = max_ttl.unwrap_or(NET_TTL);
        let (timer, token) = self.schedule_discovery_timeout(net, node, dst, ttl);
        self.pending.insert(
            (node, dst),
            Discovery {
                buffered: vec![(payload, app_token)],
                retries: 0,
                max_ttl,
                timer,
                token,
            },
        );
        self.stats.discoveries += 1;
        self.broadcast_rreq(net, node, dst, ttl);
    }

    fn schedule_discovery_timeout(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        node: NodeId,
        dst: NodeId,
        ttl: u8,
    ) -> (EventId, u64) {
        let wait = NODE_TRAVERSAL * (2 * u64::from(ttl)) + SimDuration::from_millis(100);
        let token = self.fresh_timer_token(TimerCtx::DiscoveryTimeout { node, dst });
        (net.set_timer(node, wait, token), token)
    }

    fn broadcast_rreq(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        node: NodeId,
        dst: NodeId,
        ttl: u8,
    ) {
        let (id, origin_seq, dst_seq) = {
            let s = &mut self.nodes[node.index()];
            s.seq = s.seq.wrapping_add(1);
            s.next_rreq_id += 1;
            let id = s.next_rreq_id;
            s.seen_rreqs.insert((node, id));
            (id, s.seq, s.table.entry(dst).map(|r| r.dst_seq))
        };
        self.stats.rreq_tx += 1;
        let token = self.fresh_token(TokenCtx::Control);
        net.send_sized(
            node,
            MacDst::Broadcast,
            RoutePacket::Rreq {
                id,
                origin: node,
                origin_seq,
                hops: 0,
                ttl,
                dst,
                dst_seq,
            },
            token,
            CONTROL_BYTES,
        );
    }

    // ------------------------------------------------------------------
    // Upcall processing
    // ------------------------------------------------------------------

    /// Processes one substrate upcall, returning events for the layer
    /// above. This is the single entry point a stack needs.
    pub fn on_upcall(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        upcall: Upcall<RoutePacket<P>>,
    ) -> Vec<RouterEvent<P>> {
        match upcall {
            Upcall::Frame {
                at,
                from,
                payload,
                overheard,
                ..
            } => self.on_frame(net, at, from, payload, overheard),
            Upcall::SendResult { node, token, ok } => {
                if token & ROUTER_TOKEN_BIT != 0 {
                    self.on_send_result(net, token, ok)
                } else {
                    vec![RouterEvent::AppSendResult { node, token, ok }]
                }
            }
            Upcall::Timer { node, token } => {
                if token & ROUTER_TOKEN_BIT != 0 {
                    self.on_timer(net, token)
                } else {
                    vec![RouterEvent::AppTimer { node, token }]
                }
            }
            Upcall::NodeFailed { node } => {
                self.reset_node(node);
                vec![RouterEvent::NodeFailed { node }]
            }
            Upcall::NodeJoined { node } => {
                self.ensure_node(node);
                self.reset_node(node);
                vec![RouterEvent::NodeJoined { node }]
            }
        }
    }

    /// Forgets `node`'s routes and discoveries (it failed or rejoined).
    /// Its sequence number and RREQ id survive: other nodes still
    /// remember the old ones, and would drop a restarted count's RREQs
    /// as duplicates or keep stale reverse routes over its fresher ones.
    fn reset_node(&mut self, node: NodeId) {
        if let Some(s) = self.nodes.get_mut(node.index()) {
            *s = NodeRouting {
                seq: s.seq,
                next_rreq_id: s.next_rreq_id,
                ..NodeRouting::default()
            };
        }
        // A forgotten discovery's timeout must not escalate a later
        // discovery to the same destination.
        let timers = &mut self.timers;
        self.pending.retain(|&(n, _), d| {
            if n == node {
                timers.remove(&d.token);
            }
            n != node
        });
    }

    fn on_frame(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        at: NodeId,
        from: NodeId,
        payload: Payload<RoutePacket<P>>,
        overheard: bool,
    ) -> Vec<RouterEvent<P>> {
        // The substrate shares one `RoutePacket` among all receivers; each
        // node takes its own copy because forwarding mutates TTL/hops.
        // This clone is shallow — `Data`/`OneHop` hold the application
        // payload behind its own `Payload`, so no application data is
        // copied.
        let packet: RoutePacket<P> = payload.as_ref().clone();
        if overheard {
            // Only link-local application traffic is interesting to
            // overhear (the §7.2 optimisation); routing control is not.
            return match packet {
                RoutePacket::OneHop(p) => vec![RouterEvent::OneHop {
                    node: at,
                    from,
                    payload: p,
                    overheard: true,
                }],
                RoutePacket::Data {
                    src, dst, payload, ..
                } if dst != at => {
                    // Overhearing routed data also surfaces the payload.
                    vec![RouterEvent::OneHop {
                        node: at,
                        from: src,
                        payload,
                        overheard: true,
                    }]
                    .into_iter()
                    .filter(|_| dst != at)
                    .collect()
                }
                _ => Vec::new(),
            };
        }
        match packet {
            RoutePacket::OneHop(p) => vec![RouterEvent::OneHop {
                node: at,
                from,
                payload: p,
                overheard: false,
            }],
            RoutePacket::Rreq {
                id,
                origin,
                origin_seq,
                hops,
                ttl,
                dst,
                dst_seq,
            } => self.on_rreq(
                net, at, from, id, origin, origin_seq, hops, ttl, dst, dst_seq,
            ),
            RoutePacket::Rrep {
                target,
                origin,
                hops,
                dst_seq,
            } => self.on_rrep(net, at, from, target, origin, hops, dst_seq),
            RoutePacket::Rerr { broken } => self.on_rerr(at, from, broken),
            RoutePacket::Data {
                src, dst, payload, ..
            } if dst == at => {
                self.stats.data_delivered += 1;
                vec![RouterEvent::Delivered {
                    node: at,
                    src,
                    payload,
                }]
            }
            RoutePacket::Data {
                src,
                dst,
                id,
                ttl,
                payload,
            } => vec![RouterEvent::Transit {
                node: at,
                payload: payload.clone(),
                handle: TransitHandle {
                    at,
                    src,
                    dst,
                    id,
                    ttl,
                    payload,
                },
            }],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_rreq(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        at: NodeId,
        from: NodeId,
        id: u64,
        origin: NodeId,
        origin_seq: u32,
        hops: u8,
        ttl: u8,
        dst: NodeId,
        dst_seq: Option<u32>,
    ) -> Vec<RouterEvent<P>> {
        let now = net.now();
        let lifetime = now + ROUTE_LIFETIME;
        {
            let s = &mut self.nodes[at.index()];
            if origin == at || !s.seen_rreqs.insert((origin, id)) {
                return Vec::new();
            }
            // Reverse route toward the originator.
            s.table
                .update(origin, from, hops + 1, origin_seq, lifetime, now);
        }
        if at == dst {
            // I am the destination: reply with my own sequence number.
            let s = &mut self.nodes[at.index()];
            if let Some(wanted) = dst_seq {
                if (wanted.wrapping_sub(s.seq) as i32) > 0 {
                    s.seq = wanted;
                }
            }
            let my_seq = s.seq;
            self.send_rrep(net, at, from, dst, origin, 0, my_seq);
            return Vec::new();
        }
        // Only the destination replies (AODV's 'D' flag): with long
        // route lifetimes and network-wide floods, intermediate replies
        // cause RREP storms of hundreds of replies per discovery.
        if ttl > 1 {
            self.stats.rreq_tx += 1;
            let token = self.fresh_token(TokenCtx::Control);
            net.send_sized(
                at,
                MacDst::Broadcast,
                RoutePacket::Rreq {
                    id,
                    origin,
                    origin_seq,
                    hops: hops + 1,
                    ttl: ttl - 1,
                    dst,
                    dst_seq,
                },
                token,
                CONTROL_BYTES,
            );
        }
        Vec::new()
    }

    #[allow(clippy::too_many_arguments)]
    fn send_rrep(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        at: NodeId,
        via: NodeId,
        target: NodeId,
        origin: NodeId,
        hops: u8,
        dst_seq: u32,
    ) {
        self.stats.rrep_tx += 1;
        let token = self.fresh_token(TokenCtx::Control);
        net.send_sized(
            at,
            MacDst::Unicast(via),
            RoutePacket::Rrep {
                target,
                origin,
                hops,
                dst_seq,
            },
            token,
            CONTROL_BYTES,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_rrep(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        at: NodeId,
        from: NodeId,
        target: NodeId,
        origin: NodeId,
        hops: u8,
        dst_seq: u32,
    ) -> Vec<RouterEvent<P>> {
        let now = net.now();
        let lifetime = now + ROUTE_LIFETIME;
        self.nodes[at.index()]
            .table
            .update(target, from, hops + 1, dst_seq, lifetime, now);
        if at == origin {
            // Discovery complete: flush buffered payloads.
            if let Some(d) = self.pending.remove(&(at, target)) {
                net.cancel_timer(d.timer);
                self.timers.remove(&d.token);
                if let Some(route) = self.nodes[at.index()].table.lookup(target, now).copied() {
                    for (payload, app_token) in d.buffered {
                        self.transmit_data(
                            net,
                            at,
                            target,
                            payload,
                            Some(app_token),
                            route.next_hop,
                            d.max_ttl,
                        );
                    }
                }
            }
            return Vec::new();
        }
        // Forward toward the originator along the reverse route.
        if let Some(route) = self.nodes[at.index()].table.lookup(origin, now).copied() {
            self.send_rrep(net, at, route.next_hop, target, origin, hops + 1, dst_seq);
        }
        Vec::new()
    }

    /// A neighbour's RERR invalidates the routes that went through it.
    /// RERRs travel one hop: the receivers do not rebroadcast them.
    fn on_rerr(
        &mut self,
        at: NodeId,
        from: NodeId,
        broken: Vec<(NodeId, u32)>,
    ) -> Vec<RouterEvent<P>> {
        let s = &mut self.nodes[at.index()];
        let mut events = Vec::new();
        for (dst, _) in broken {
            let uses_from = s
                .table
                .entry(dst)
                .is_some_and(|r| r.valid && r.next_hop == from);
            if uses_from {
                s.table.invalidate(dst);
                events.push(RouterEvent::RouteBroken { node: at, dst });
            }
        }
        events
    }

    fn broadcast_rerr(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        at: NodeId,
        broken: Vec<(NodeId, u32)>,
    ) {
        self.stats.rerr_tx += 1;
        let token = self.fresh_token(TokenCtx::Control);
        net.send_sized(
            at,
            MacDst::Broadcast,
            RoutePacket::Rerr { broken },
            token,
            CONTROL_BYTES,
        );
    }

    /// Sends a transiting packet on from its relay (see
    /// [`RouterEvent::Transit`]).
    pub fn forward_transit(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        handle: TransitHandle<P>,
    ) -> Vec<RouterEvent<P>> {
        let TransitHandle {
            at,
            src,
            dst,
            id,
            ttl,
            payload,
        } = handle;
        if ttl <= 1 {
            self.stats.data_dropped += 1;
            return Vec::new();
        }
        let now = net.now();
        match self.nodes[at.index()].table.lookup(dst, now).copied() {
            Some(route) => {
                self.stats.data_tx += 1;
                if at != src {
                    self.node_forwards[at.index()] += 1;
                }
                let token = self.fresh_token(TokenCtx::Forward {
                    node: at,
                    next_hop: route.next_hop,
                });
                let expiry = now + ROUTE_LIFETIME;
                self.nodes[at.index()].table.refresh(dst, expiry);
                let bytes = net.config().payload_bytes + DATA_HEADER_BYTES;
                net.send_sized(
                    at,
                    MacDst::Unicast(route.next_hop),
                    RoutePacket::Data {
                        src,
                        dst,
                        id,
                        ttl: ttl - 1,
                        payload,
                    },
                    token,
                    bytes,
                );
                Vec::new()
            }
            None => {
                // No route: drop and advertise the break.
                self.stats.data_dropped += 1;
                let seq = self.nodes[at.index()]
                    .table
                    .entry(dst)
                    .map(|r| r.dst_seq)
                    .unwrap_or(0);
                self.broadcast_rerr(net, at, vec![(dst, seq)]);
                Vec::new()
            }
        }
    }

    fn on_send_result(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        token: u64,
        ok: bool,
    ) -> Vec<RouterEvent<P>> {
        let Some(ctx) = self.tokens.remove(&token) else {
            return Vec::new();
        };
        match ctx {
            TokenCtx::Control => Vec::new(),
            TokenCtx::FirstHop {
                node,
                app_token,
                next_hop,
            } => {
                if ok {
                    vec![RouterEvent::SendDone {
                        node,
                        token: app_token,
                        ok: true,
                    }]
                } else {
                    let mut events = self.handle_link_break(net, node, next_hop);
                    events.push(RouterEvent::SendDone {
                        node,
                        token: app_token,
                        ok: false,
                    });
                    events
                }
            }
            TokenCtx::Forward { node, next_hop } => {
                if ok {
                    Vec::new()
                } else {
                    self.stats.data_dropped += 1;
                    self.handle_link_break(net, node, next_hop)
                }
            }
        }
    }

    fn handle_link_break(
        &mut self,
        net: &mut Network<RoutePacket<P>>,
        node: NodeId,
        next_hop: NodeId,
    ) -> Vec<RouterEvent<P>> {
        let broken = self.nodes[node.index()].table.invalidate_via(next_hop);
        let events: Vec<RouterEvent<P>> = broken
            .iter()
            .map(|&(dst, _)| RouterEvent::RouteBroken { node, dst })
            .collect();
        if !broken.is_empty() {
            self.broadcast_rerr(net, node, broken);
        }
        events
    }

    fn on_timer(&mut self, net: &mut Network<RoutePacket<P>>, token: u64) -> Vec<RouterEvent<P>> {
        let Some(TimerCtx::DiscoveryTimeout { node, dst }) = self.timers.remove(&token) else {
            return Vec::new();
        };
        let now = net.now();
        // A route may have appeared via unrelated traffic.
        if let Some(route) = self.nodes[node.index()].table.lookup(dst, now).copied() {
            if let Some(d) = self.pending.remove(&(node, dst)) {
                for (payload, app_token) in d.buffered {
                    self.transmit_data(
                        net,
                        node,
                        dst,
                        payload,
                        Some(app_token),
                        route.next_hop,
                        d.max_ttl,
                    );
                }
            }
            return Vec::new();
        }
        let Some(mut d) = self.pending.remove(&(node, dst)) else {
            return Vec::new();
        };
        // Scoped searches fail after their single attempt.
        d.retries += 1;
        let give_up = d.max_ttl.is_some() || d.retries > RREQ_RETRIES;
        if give_up {
            self.stats.discovery_failures += 1;
            return d
                .buffered
                .into_iter()
                .map(|(_, app_token)| RouterEvent::SendDone {
                    node,
                    token: app_token,
                    ok: false,
                })
                .collect();
        }
        (d.timer, d.token) = self.schedule_discovery_timeout(net, node, dst, NET_TTL);
        self.pending.insert((node, dst), d);
        self.broadcast_rreq(net, node, dst, NET_TTL);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bit_partition() {
        let mut r: Router<u8> = Router::new(2);
        let t1 = r.fresh_token(TokenCtx::Control);
        let t2 = r.fresh_token(TokenCtx::Control);
        assert_ne!(t1, t2);
        assert!(t1 & ROUTER_TOKEN_BIT != 0);
    }

    #[test]
    fn stats_control_sum() {
        let s = RoutingStats {
            rreq_tx: 3,
            rrep_tx: 2,
            rerr_tx: 1,
            ..RoutingStats::default()
        };
        assert_eq!(s.control_tx(), 6);
    }

    /// The router alone, forwarding every transit and recording send
    /// results: the one harness for unit tests that run a network and
    /// need the router's private state.
    struct Routed {
        router: Router<u8>,
        done: Vec<(NodeId, u64, bool)>,
    }

    impl Routed {
        fn dispatch(&mut self, net: &mut Network<RoutePacket<u8>>, events: Vec<RouterEvent<u8>>) {
            for ev in events {
                match ev {
                    RouterEvent::Transit { handle, .. } => {
                        let more = self.router.forward_transit(net, handle);
                        self.dispatch(net, more);
                    }
                    RouterEvent::SendDone { node, token, ok } => self.done.push((node, token, ok)),
                    _ => {}
                }
            }
        }
    }

    impl pqs_net::Stack<RoutePacket<u8>> for Routed {
        fn on_upcall(
            &mut self,
            net: &mut Network<RoutePacket<u8>>,
            upcall: Upcall<RoutePacket<u8>>,
        ) {
            let events = self.router.on_upcall(net, upcall);
            self.dispatch(net, events);
        }
    }

    /// A discovery answered before its timeout fires leaves no timer
    /// context behind, so `timers` stays as small as the set of pending
    /// discoveries.
    #[test]
    fn answered_discoveries_leave_no_timer_contexts() {
        const K: usize = 8;
        let mut cfg = pqs_net::NetConfig::paper(60);
        cfg.mobility = pqs_net::MobilityModel::Static;
        cfg.seed = 21;
        let mut net = Network::new(cfg);
        let src = NodeId(0);
        let targets: Vec<NodeId> = net
            .connectivity_graph()
            .bfs_distances(src.index())
            .iter()
            .enumerate()
            .filter(|&(i, d)| i != src.index() && d.is_some())
            .map(|(i, _)| NodeId(i as u32))
            .take(K)
            .collect();
        assert_eq!(targets.len(), K, "enough reachable targets");
        let mut stack = Routed {
            router: Router::new(60),
            done: Vec::new(),
        };
        for (k, &dst) in targets.iter().enumerate() {
            let events = stack
                .router
                .send_data(&mut net, src, dst, 0, k as u64, None);
            stack.dispatch(&mut net, events);
            let until = net.now() + SimDuration::from_secs(2);
            net.run(&mut stack, until);
        }
        let expected: Vec<_> = (0..K as u64).map(|k| (src, k, true)).collect();
        assert_eq!(stack.done, expected);
        assert_eq!(stack.router.stats().discoveries, K as u64);
        assert_eq!(stack.router.stats().discovery_failures, 0);
        assert!(stack.router.pending.is_empty());
        assert!(
            stack.router.timers.is_empty(),
            "{} timer contexts outlived their discoveries",
            stack.router.timers.len()
        );
    }

    #[test]
    fn ensure_node_grows() {
        let mut r: Router<u8> = Router::new(2);
        r.ensure_node(NodeId(10));
        assert!(r.nodes.len() == 11);
        assert!(!r.has_route(NodeId(10), NodeId(0), SimTime::ZERO));
    }
}
