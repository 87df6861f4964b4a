//! The network facade: nodes, medium, MAC event plumbing, heartbeats,
//! mobility and churn, plus the [`Stack`] interface that upper layers
//! (routing, quorum protocols) implement.

use crate::config::{
    ack_airtime, frame_airtime, NetConfig, ACK_TIMEOUT_SLACK, BROADCAST_JITTER, BROADCAST_RATE_BPS,
    DIFS, HEARTBEAT_EXPIRY_CYCLES, HEARTBEAT_PERIOD, HELLO_BYTES, IDEAL_RANGE_M,
    INTERFERENCE_RANGE_M, PAYLOAD_BYTES, RETRY_LIMIT, SIFS, SLOT, UNICAST_RATE_BPS,
};
use crate::faults::{FaultInjector, FaultPlan, FrameFate, NodeBehavior, NodeFaultEvent};
use crate::geometry::{Point, SpatialGrid};
use crate::mac::{Frame, FrameKind, MacDst, MacPhase, MacState};
use crate::mobility::{self, MobilityModel, Motion};
use crate::payload::Payload;
use crate::phy::{Medium, TxId};
use crate::stats::NetStats;
use crate::NodeId;
use pqs_sim::hash::FastMap;
use pqs_sim::rng::{self, streams};
use pqs_sim::{EventId, Scheduler, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Events processed by the network substrate.
#[derive(Debug, Clone)]
enum Event {
    /// A node's scheduled channel-access attempt.
    MacAttempt { node: NodeId },
    /// Transmit an ACK (fired SIFS after a successful data reception).
    SendAck { node: NodeId, to: NodeId, seq: u64 },
    /// A transmission's airtime elapsed.
    PhyTxEnd { tx: u64 },
    /// The ACK for unicast data `seq` did not arrive in time.
    AckTimeout { node: NodeId, seq: u64 },
    /// Periodic hello broadcast.
    Heartbeat { node: NodeId },
    /// A mobile node finished its pause and starts a new leg.
    MobilityLeg { node: NodeId },
    /// Periodic spatial-index refresh (mobile networks only).
    GridRefresh,
    /// An upper-layer timer.
    Timer { node: NodeId, token: u64 },
    /// Churn: the node crashes / leaves.
    Fail { node: NodeId },
    /// Churn: the node (re)joins.
    Join { node: NodeId },
    /// Fault injection: deliver a previously delayed/duplicated frame.
    DelayedFrame { key: u64 },
    /// Fault injection: crash every alive node inside a disc.
    RegionFail { x: f64, y: f64, radius_m: f64 },
    /// Fault injection: recover every dead node inside a disc.
    RegionRecover { x: f64, y: f64, radius_m: f64 },
}

/// Notifications delivered from the substrate to the upper layer.
#[derive(Debug, Clone)]
pub enum Upcall<P> {
    /// A data frame arrived at `at`.
    Frame {
        /// Receiving node.
        at: NodeId,
        /// One-hop sender.
        from: NodeId,
        /// Link destination the frame was sent to.
        dst: MacDst,
        /// The payload, shared (not copied) across all receivers of the
        /// same transmission — see [`Payload`].
        payload: Payload<P>,
        /// `true` if this frame was addressed to another node and only
        /// overheard (promiscuous mode).
        overheard: bool,
    },
    /// Outcome of a [`Network::send`] call that carried a token.
    ///
    /// For unicast, `ok` means the MAC ACK arrived; `!ok` means the retry
    /// limit was exhausted or the node crashed — the cross-layer failure
    /// signal of §6.2. For broadcast, `ok` merely means the frame was put
    /// on the air.
    SendResult {
        /// The sending node.
        node: NodeId,
        /// Token passed to [`Network::send`].
        token: u64,
        /// Success flag.
        ok: bool,
    },
    /// An upper-layer timer set with [`Network::set_timer`] fired.
    Timer {
        /// Node the timer belongs to.
        node: NodeId,
        /// Token passed to [`Network::set_timer`].
        token: u64,
    },
    /// The node crashed or left (churn).
    NodeFailed {
        /// The failed node.
        node: NodeId,
    },
    /// The node joined or rejoined (churn).
    NodeJoined {
        /// The joined node.
        node: NodeId,
    },
}

/// The protocol stack above the link layer.
///
/// `pqs-routing` and `pqs-core` compose their logic inside one `Stack`
/// implementation; the substrate calls [`Stack::on_upcall`] with `&mut
/// Network` so handlers can immediately send frames and set timers.
pub trait Stack<P: Clone> {
    /// Handles one substrate notification.
    fn on_upcall(&mut self, net: &mut Network<P>, upcall: Upcall<P>);
}

#[derive(Clone)]
struct Inflight<P> {
    sender: NodeId,
    frame: Frame<Payload<P>>,
}

/// One node's heartbeat neighbour view: entries sorted by id in a small
/// inline vector. Typical degree is ~10, so the whole table is one or
/// two cache lines — a hello reception updates it with a binary search
/// and a short memmove where a hash map would probe a scattered table,
/// and that insert runs for every receiver of every hello on the air.
/// Sorted order also makes reads naturally deterministic.
#[derive(Clone, Default)]
struct NeighborTable(Vec<(NodeId, SimTime)>);

impl NeighborTable {
    /// Inserts or refreshes `id`'s expiry.
    fn insert(&mut self, id: NodeId, expiry: SimTime) {
        match self.0.binary_search_by_key(&id, |&(n, _)| n) {
            Ok(i) => self.0[i].1 = expiry,
            Err(i) => self.0.insert(i, (id, expiry)),
        }
    }

    /// Drops entries whose expiry is at or before `now`.
    fn evict_expired(&mut self, now: SimTime) {
        self.0.retain(|&(_, expiry)| expiry > now);
    }

    /// The earliest expiry of any entry (`SimTime::MAX` when empty).
    fn min_expiry(&self) -> SimTime {
        self.0
            .iter()
            .map(|&(_, expiry)| expiry)
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// Ids alive at `now`, in ascending id order.
    fn alive_ids(&self, now: SimTime) -> Vec<NodeId> {
        self.0
            .iter()
            .filter(|&&(_, expiry)| expiry > now)
            .map(|&(id, _)| id)
            .collect()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// The wireless ad hoc network: `n` nodes on a square area with the
/// paper's PHY/MAC, heartbeat neighbourhood discovery, random-waypoint
/// mobility and churn hooks.
///
/// Generic over the payload type `P` carried by data frames (the routing
/// layer's packet type).
///
/// Cloning forks the whole substrate — scheduler, medium, MAC and node
/// slabs — at the current instant. Timer handles held by the upper layer
/// stay valid on both copies (see [`EventId`]), so a warmed network can
/// be snapshotted once and replayed under many configurations.
#[derive(Clone)]
pub struct Network<P> {
    config: NetConfig,
    side: f64,
    scheduler: Scheduler<Event>,
    medium: Medium,
    grid: SpatialGrid,
    /// Per-node hot state in struct-of-arrays slabs: the PHY/MAC inner
    /// loops touch positions and liveness for every candidate receiver,
    /// and at n = 100k the packed layouts keep those sweeps
    /// cache-resident where an array-of-structs would drag ACK bookkeeping
    /// through the cache with every position read.
    motions: Vec<Motion>,
    alive: Vec<bool>,
    ack_timeouts: Vec<Option<EventId>>,
    /// Each node's position as last written to the spatial grid (same
    /// write sites, same staleness bound). Candidate queries filter on
    /// this 16-byte slab before paying for an exact [`Motion`]
    /// interpolation — the grid's cell blocks over-approximate the query
    /// disc several times over, and the rejected majority never needs an
    /// exact position.
    recorded_pos: Vec<Point>,
    macs: Vec<MacState<Payload<P>>>,
    neighbors: Vec<NeighborTable>,
    /// Lower bound on each node's earliest neighbour-entry expiry.
    /// The periodic eviction sweep skips a node while this bound lies in
    /// the future — nothing can be expired, so the `retain` would remove
    /// nothing and the map is left bit-identical. Refreshed entries make
    /// the bound conservatively stale (it only ever under-estimates),
    /// which costs a no-op sweep, never a wrong one.
    neighbor_min_expiry: Vec<SimTime>,
    inflight: FastMap<u64, Inflight<P>>,
    next_tx_id: u64,
    mac_rng: StdRng,
    stats: NetStats,
    /// Data frames delivered to each node's upper layer (overheard ones
    /// included): the per-node load profile for balance analysis.
    node_load: Vec<u64>,
    grid_slack_m: f64,
    faults: Option<FaultInjector>,
    delayed: FastMap<u64, Upcall<P>>,
    next_delayed_id: u64,
    /// Reusable candidate-receiver buffer (avoids a fresh allocation per
    /// transmission on the hot path).
    cand_scratch: Vec<(u32, Point)>,
}

impl<P: Clone> Network<P> {
    /// Builds the network: places nodes uniformly at random, initialises
    /// mobility, staggers heartbeats, and prepopulates neighbour tables
    /// from ground truth, standing in for the paper's 200 s warm-up
    /// period (§8) without simulating it. Nodes brought in later with
    /// [`Network::add_node`] start with empty tables and learn their
    /// neighbours from heartbeats.
    pub fn new(config: NetConfig) -> Self {
        let side = config.area_side_m();
        let mut placement_rng = rng::stream(config.seed, streams::PLACEMENT);
        let mut mobility_rng = rng::stream(config.seed, streams::MOBILITY);
        let mac_rng = rng::stream(config.seed, streams::MAC);

        let cell = (INTERFERENCE_RANGE_M / 2.0).min(side).max(1.0);
        let mut grid = SpatialGrid::new(side, cell, config.n);
        let mut scheduler = Scheduler::new();
        let mut motions = Vec::with_capacity(config.n);
        let mut macs = Vec::with_capacity(config.n);
        let mut recorded_pos = Vec::with_capacity(config.n);

        let max_speed = match config.mobility {
            MobilityModel::Static => 0.0,
            MobilityModel::RandomWaypoint { max_speed, .. } => max_speed,
        };
        let grid_refresh = SimDuration::from_secs(1);
        let grid_slack_m = 2.0 * max_speed * grid_refresh.as_secs_f64() + 5.0;

        for i in 0..config.n {
            let p = Point::new(
                placement_rng.gen::<f64>() * side,
                placement_rng.gen::<f64>() * side,
            );
            let motion = mobility::initial_motion(
                config.mobility,
                p,
                side,
                SimTime::ZERO,
                &mut mobility_rng,
            );
            grid.update(i as u32, p);
            recorded_pos.push(p);
            if motion.next_transition() < SimTime::MAX {
                scheduler.schedule_at(
                    motion.next_transition(),
                    Event::MobilityLeg {
                        node: NodeId(i as u32),
                    },
                );
            }
            motions.push(motion);
            macs.push(MacState::default());
        }

        // Staggered heartbeats.
        let period = HEARTBEAT_PERIOD.as_micros();
        let mut hb_rng = rng::stream(config.seed, streams::MAC.wrapping_add(0x48_42)); // "HB"
        for i in 0..config.n {
            let offset = SimDuration::from_micros(hb_rng.gen_range(0..period.max(1)));
            scheduler.schedule_at(
                SimTime::ZERO + offset,
                Event::Heartbeat {
                    node: NodeId(i as u32),
                },
            );
        }

        // The periodic refresh re-indexes mobile nodes *and* evicts
        // expired heartbeat entries, so it runs for static networks too
        // (long churn runs would otherwise accumulate stale map entries).
        scheduler.schedule_at(SimTime::ZERO + grid_refresh, Event::GridRefresh);

        let mut net = Network {
            medium: Medium::new(config.phy, side),
            side,
            scheduler,
            grid,
            neighbors: vec![NeighborTable::default(); config.n],
            neighbor_min_expiry: vec![SimTime::MAX; config.n],
            motions,
            recorded_pos,
            alive: vec![true; config.n],
            ack_timeouts: vec![None; config.n],
            macs,
            inflight: FastMap::default(),
            next_tx_id: 0,
            mac_rng,
            stats: NetStats::default(),
            node_load: vec![0; config.n],
            grid_slack_m,
            faults: None,
            delayed: FastMap::default(),
            next_delayed_id: 0,
            cand_scratch: Vec::new(),
            config,
        };
        net.prepopulate_neighbors();
        net
    }

    /// Queries the spatial grid for candidate pairs instead of scanning
    /// all `n²` of them — at construction every node is in the grid at
    /// its exact t=0 position, so the candidate superset needs no
    /// mobility slack. Insertion order into the per-node tables does
    /// not matter: a [`NeighborTable`] keeps itself id-sorted on every
    /// insert.
    fn prepopulate_neighbors(&mut self) {
        let expiry = SimTime::ZERO + HEARTBEAT_PERIOD * u64::from(HEARTBEAT_EXPIRY_CYCLES);
        let positions: Vec<Point> = (0..self.motions.len())
            .map(|i| self.motions[i].position(SimTime::ZERO))
            .collect();
        for (i, &pi) in positions.iter().enumerate() {
            for j in self.grid.nearby(pi, IDEAL_RANGE_M) {
                let j = j as usize;
                // Each unordered pair once.
                if j <= i {
                    continue;
                }
                if pi.distance(positions[j]) <= IDEAL_RANGE_M {
                    self.neighbors[i].insert(NodeId(j as u32), expiry);
                    self.neighbors[j].insert(NodeId(i as u32), expiry);
                    self.neighbor_min_expiry[i] = self.neighbor_min_expiry[i].min(expiry);
                    self.neighbor_min_expiry[j] = self.neighbor_min_expiry[j].min(expiry);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Public API for upper layers
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Side of the deployment square, metres.
    pub fn side_m(&self) -> f64 {
        self.side
    }

    /// Number of node slots (alive or not).
    pub fn node_count(&self) -> usize {
        self.motions.len()
    }

    /// Returns `true` if the node is currently up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// All currently alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.motions.len())
            .filter(|&i| self.alive[i])
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// The node's current one-hop neighbour view, built from heartbeats
    /// (possibly stale under mobility — exactly the effect §6.2 studies).
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let now = self.now();
        // Ascending id order: iteration order must never leak
        // nondeterminism into protocol behaviour, and the table is
        // id-sorted by construction.
        self.neighbors[node.index()].alive_ids(now)
    }

    /// Ground-truth position (for diagnostics and verification only; the
    /// protocols never read this).
    pub fn position(&self, node: NodeId) -> Point {
        self.motions[node.index()].position(self.now())
    }

    /// Queues a data frame of the paper's [`PAYLOAD_BYTES`] for
    /// transmission. Each call is one network-layer message in the
    /// paper's accounting.
    ///
    /// A [`Upcall::SendResult`] with `token` follows: for unicast, after
    /// the MAC ACK or final retry failure; for broadcast, once the frame
    /// is on the air. Returns `false` (and produces no upcall) if the node
    /// is down.
    pub fn send(&mut self, node: NodeId, dst: MacDst, payload: P, token: u64) -> bool {
        self.send_sized(node, dst, payload, token, PAYLOAD_BYTES)
    }

    /// Like [`Network::send`] with an explicit payload size in bytes —
    /// small control packets occupy proportionally less airtime.
    pub fn send_sized(
        &mut self,
        node: NodeId,
        dst: MacDst,
        payload: P,
        token: u64,
        bytes: usize,
    ) -> bool {
        if !self.is_alive(node) {
            return false;
        }
        // Wrapped once here; every retry, receiver and promiscuous
        // overhear shares the same allocation from now on.
        let was_idle = self.macs[node.index()].enqueue(
            dst,
            FrameKind::Data(Payload::new(payload)),
            Some(token),
            bytes,
        );
        if was_idle {
            self.schedule_attempt_for_head(node);
        }
        true
    }

    /// Sets a timer for `node`; [`Upcall::Timer`] with `token` fires after
    /// `delay`. Returns an id usable with [`Network::cancel_timer`].
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) -> EventId {
        self.scheduler
            .schedule_in(delay, Event::Timer { node, token })
    }

    /// Cancels a pending timer. Returns `true` if it had not fired yet.
    pub fn cancel_timer(&mut self, id: EventId) -> bool {
        self.scheduler.cancel(id)
    }

    /// Schedules a crash/leave at `at` (churn).
    pub fn schedule_fail(&mut self, node: NodeId, at: SimTime) {
        self.scheduler.schedule_at(at, Event::Fail { node });
    }

    /// Schedules a (re)join at `at` (churn). Rejoining nodes get a fresh
    /// uniform position.
    pub fn schedule_join(&mut self, node: NodeId, at: SimTime) {
        self.scheduler.schedule_at(at, Event::Join { node });
    }

    /// Adds a brand-new node slot (initially down); pair with
    /// [`Network::schedule_join`].
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.motions.len() as u32);
        self.motions
            .push(Motion::stationary(Point::default(), self.now()));
        self.alive.push(false);
        self.ack_timeouts.push(None);
        self.recorded_pos.push(Point::default());
        self.macs.push(MacState::default());
        self.neighbors.push(NeighborTable::default());
        self.neighbor_min_expiry.push(SimTime::MAX);
        self.node_load.push(0);
        id
    }

    /// Installs a fault plan: schedules its node/region crash and
    /// recovery events, and arms the frame-fault injector for all
    /// subsequent deliveries. The injector draws from the dedicated
    /// `FAULTS` RNG stream, so the same `(config.seed, plan)` pair
    /// reproduces an identical fault trace.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for event in plan.node_events() {
            match *event {
                NodeFaultEvent::Crash { node, at } => self.schedule_fail(node, at),
                NodeFaultEvent::Recover { node, at } => self.schedule_join(node, at),
                NodeFaultEvent::RegionCrash {
                    center,
                    radius_m,
                    at,
                } => {
                    self.scheduler.schedule_at(
                        at,
                        Event::RegionFail {
                            x: center.x,
                            y: center.y,
                            radius_m,
                        },
                    );
                }
                NodeFaultEvent::RegionRecover {
                    center,
                    radius_m,
                    at,
                } => {
                    self.scheduler.schedule_at(
                        at,
                        Event::RegionRecover {
                            x: center.x,
                            y: center.y,
                            radius_m,
                        },
                    );
                }
            }
        }
        let node_count = self.motions.len();
        self.faults = Some(FaultInjector::new(plan, self.config.seed, node_count));
    }

    /// The Byzantine behavior assigned to `node` by the installed fault
    /// plan, if any. The upper layer consults this at its
    /// reply-generation boundary; the substrate itself never acts on it.
    pub fn node_behavior(&self, node: NodeId) -> Option<NodeBehavior> {
        self.faults.as_ref().and_then(|inj| inj.behavior_of(node))
    }

    /// How many nodes the installed fault plan marks Byzantine.
    pub fn byzantine_count(&self) -> usize {
        self.faults.as_ref().map_or(0, |inj| inj.byzantine_count())
    }

    /// Unicast data transmissions whose airtime has not yet elapsed.
    /// Part of the conservation invariant's "in flight" term.
    pub fn inflight_unicast_data(&self) -> u64 {
        self.inflight
            .values()
            .filter(|inflight| {
                matches!(
                    (&inflight.frame.kind, inflight.frame.dst),
                    (FrameKind::Data(_), MacDst::Unicast(_))
                )
            })
            .count() as u64
    }

    /// Link-level statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Data frames delivered to each node's upper layer, indexed by node
    /// id — the per-node load profile (GeoQuorum-style balance analysis).
    pub fn node_loads(&self) -> &[u64] {
        &self.node_load
    }

    /// Cumulative PHY admission/interference work: pending receptions
    /// examined across all transmissions (see the phy module docs). The
    /// scale bench divides this by events processed to verify the hot
    /// path stays O(density), not O(n), as networks grow.
    pub fn phy_work(&self) -> u64 {
        self.medium.work()
    }

    /// Nodes currently locked onto an in-flight transmission at the PHY.
    /// Exposed for the regression test that a crashed node is purged from
    /// the candidate grid at fail time and never re-admitted.
    #[doc(hidden)]
    pub fn phy_pending_receivers(&self) -> Vec<NodeId> {
        self.medium.pending_receivers().map(NodeId).collect()
    }

    /// Causality-violating (past-timestamp) schedules clamped by the
    /// event scheduler. Zero in a healthy run; surfaced in metric exports.
    pub fn scheduler_clamped(&self) -> u64 {
        self.scheduler.clamped_schedules()
    }

    /// Raw heartbeat-table size for `node`, *including* entries that have
    /// expired but not yet been evicted (diagnostics: the eviction tests
    /// assert this stays bounded on long runs).
    pub fn neighbor_table_size(&self, node: NodeId) -> usize {
        self.neighbors[node.index()].len()
    }

    /// Ground-truth connectivity snapshot (unit-disk at the ideal range)
    /// over alive nodes; dead nodes appear isolated. Diagnostics only.
    ///
    /// Queries the spatial grid for candidate pairs instead of scanning
    /// all `n²` pairs: the grid's recorded positions are at most one
    /// refresh interval stale, which `grid_slack_m` covers (the same
    /// superset guarantee the PHY relies on), and candidates are then
    /// filtered by exact current distance.
    pub fn connectivity_graph(&self) -> pqs_graph::Graph {
        let now = self.now();
        let search = IDEAL_RANGE_M + self.grid_slack_m;
        let mut g = pqs_graph::Graph::new(self.motions.len());
        for i in 0..self.motions.len() {
            if !self.alive[i] {
                continue;
            }
            let pi = self.motions[i].position(now);
            for j in self.grid.nearby(pi, search) {
                let j = j as usize;
                // Each unordered pair once; dead nodes are not in the grid.
                if j <= i {
                    continue;
                }
                if pi.distance(self.motions[j].position(now)) <= IDEAL_RANGE_M {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Runs the simulation until `until`, delivering upcalls to `stack`.
    /// Returns the number of events processed.
    pub fn run<S: Stack<P>>(&mut self, stack: &mut S, until: SimTime) -> u64 {
        let mut processed = 0;
        while let Some((_, event)) = self.scheduler.pop_until(until) {
            processed += 1;
            let upcalls = self.handle(event);
            for up in upcalls {
                if let Upcall::Frame { at, .. } = &up {
                    self.node_load[at.index()] += 1;
                }
                stack.on_upcall(self, up);
            }
        }
        processed
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn position_now(&self, node: NodeId) -> Point {
        self.motions[node.index()].position(self.scheduler.now())
    }

    fn schedule_attempt_for_head(&mut self, node: NodeId) {
        let mac = &mut self.macs[node.index()];
        let Some(head) = mac.head() else {
            mac.phase = MacPhase::Idle;
            return;
        };
        let jitter = match (&head.dst, &head.kind) {
            (MacDst::Broadcast, FrameKind::Data(_) | FrameKind::Hello) => SimDuration::from_micros(
                self.mac_rng
                    .gen_range(0..BROADCAST_JITTER.as_micros().max(1)),
            ),
            _ => SimDuration::ZERO,
        };
        let backoff = SLOT * u64::from(mac.draw_backoff(&mut self.mac_rng));
        self.stats.mac_backoff_draws += 1;
        mac.phase = MacPhase::Contending;
        self.scheduler
            .schedule_in(jitter + DIFS + backoff, Event::MacAttempt { node });
    }

    /// Collects candidate receivers around `pos` into `out`: all alive
    /// nodes within the reception range (plus mobility slack), with
    /// their exact positions. Dead nodes are removed from the grid at
    /// fail time, so a crashed node can never appear here even between
    /// grid refreshes.
    fn candidates_around(&self, sender: NodeId, pos: Point, out: &mut Vec<(u32, Point)>) {
        let now = self.scheduler.now();
        // Candidates only seed *new* receptions, and the admission loop
        // drops anyone beyond the reception range with no side effects —
        // interference with receptions already in progress is resolved
        // inside the medium from its own receiver index. Querying at the
        // (much larger) interference range would scan ~9× the area for
        // candidates that can never admit.
        let radius = self.config.phy.reception_range_m() + self.grid_slack_m;
        let radius2 = radius * radius;
        out.clear();
        for id in self.grid.nearby(pos, radius) {
            if id == sender.0 {
                continue;
            }
            if !self.alive[id as usize] {
                continue;
            }
            // Coarse rejection on the recorded position: the grid's cell
            // block over-approximates the disc, and the slack-inflated
            // radius already absorbs recorded-position staleness, so
            // anyone recorded outside it is provably out of reception
            // reach and needs no exact interpolation.
            if self.recorded_pos[id as usize].distance_squared(pos) > radius2 {
                continue;
            }
            out.push((id, self.motions[id as usize].position(now)));
        }
    }

    fn transmit(&mut self, node: NodeId, frame: Frame<Payload<P>>, bytes: usize) {
        let now = self.scheduler.now();
        let pos = self.position_now(node);
        let airtime = match &frame.kind {
            FrameKind::Data(_) => {
                self.stats.data_tx += 1;
                let rate = match frame.dst {
                    MacDst::Unicast(_) => {
                        self.stats.unicast_data_tx += 1;
                        UNICAST_RATE_BPS
                    }
                    MacDst::Broadcast => BROADCAST_RATE_BPS,
                };
                frame_airtime(bytes, rate)
            }
            FrameKind::Hello => {
                self.stats.hello_tx += 1;
                frame_airtime(HELLO_BYTES, BROADCAST_RATE_BPS)
            }
            FrameKind::Ack { .. } => {
                self.stats.ack_tx += 1;
                ack_airtime()
            }
        };
        self.stats.phy_tx += 1;
        let tx = self.next_tx_id;
        self.next_tx_id += 1;
        let mut candidates = std::mem::take(&mut self.cand_scratch);
        self.candidates_around(node, pos, &mut candidates);
        let aborted = self
            .medium
            .begin_tx(TxId(tx), node.0, pos, now + airtime, &candidates);
        self.cand_scratch = candidates;
        if aborted.is_some() {
            // Half-duplex turnaround: the sender abandoned a reception in
            // progress to transmit. Account it instead of losing it.
            self.stats.phy_rx_aborted += 1;
        }
        self.inflight.insert(
            tx,
            Inflight {
                sender: node,
                frame,
            },
        );
        self.scheduler.schedule_in(airtime, Event::PhyTxEnd { tx });
    }

    fn handle(&mut self, event: Event) -> Vec<Upcall<P>> {
        match event {
            Event::MacAttempt { node } => self.on_mac_attempt(node),
            Event::SendAck { node, to, seq } => self.on_send_ack(node, to, seq),
            Event::PhyTxEnd { tx } => self.on_tx_end(tx),
            Event::AckTimeout { node, seq } => self.on_ack_timeout(node, seq),
            Event::Heartbeat { node } => self.on_heartbeat(node),
            Event::MobilityLeg { node } => self.on_mobility_leg(node),
            Event::GridRefresh => self.on_grid_refresh(),
            Event::Timer { node, token } => {
                if self.is_alive(node) {
                    vec![Upcall::Timer { node, token }]
                } else {
                    Vec::new()
                }
            }
            Event::Fail { node } => self.on_fail(node),
            Event::Join { node } => self.on_join(node),
            Event::DelayedFrame { key } => self.on_delayed_frame(key),
            Event::RegionFail { x, y, radius_m } => self.on_region_fail(Point::new(x, y), radius_m),
            Event::RegionRecover { x, y, radius_m } => {
                self.on_region_recover(Point::new(x, y), radius_m)
            }
        }
    }

    fn on_mac_attempt(&mut self, node: NodeId) -> Vec<Upcall<P>> {
        if !self.is_alive(node) || self.macs[node.index()].phase != MacPhase::Contending {
            return Vec::new();
        }
        let pos = self.position_now(node);
        if self.medium.channel_busy(node.0, pos) {
            // Defer: retry a backoff after the channel is expected free.
            let now = self.scheduler.now();
            let idle_at = self.medium.busy_until(node.0, pos).unwrap_or(now).max(now);
            let backoff = SLOT * u64::from(self.macs[node.index()].draw_backoff(&mut self.mac_rng));
            self.stats.mac_channel_defers += 1;
            self.stats.mac_backoff_draws += 1;
            let at = idle_at + DIFS + backoff;
            self.scheduler.schedule_at(at, Event::MacAttempt { node });
            return Vec::new();
        }
        let mac = &mut self.macs[node.index()];
        let Some(head) = mac.head() else {
            mac.phase = MacPhase::Idle;
            return Vec::new();
        };
        let frame = Frame {
            src: node,
            dst: head.dst,
            seq: head.seq,
            kind: head.kind.clone(),
        };
        let bytes = head.bytes;
        if mac.retries > 0 {
            self.stats.mac_retries += 1;
        }
        mac.phase = MacPhase::Transmitting;
        self.transmit(node, frame, bytes);
        Vec::new()
    }

    fn on_send_ack(&mut self, node: NodeId, to: NodeId, seq: u64) -> Vec<Upcall<P>> {
        if !self.is_alive(node) {
            return Vec::new();
        }
        // ACKs are sent SIFS after reception without carrier sensing, but
        // a node that is busy transmitting its own frame cannot also send
        // the ACK — drop it (the data sender will retry).
        if self.macs[node.index()].phase == MacPhase::Transmitting {
            return Vec::new();
        }
        let frame = Frame {
            src: node,
            dst: MacDst::Unicast(to),
            seq: u64::MAX, // ACKs carry no data sequence of their own
            kind: FrameKind::Ack { for_seq: seq },
        };
        self.transmit(node, frame, 0);
        Vec::new()
    }

    fn on_tx_end(&mut self, tx: u64) -> Vec<Upcall<P>> {
        let Some(Inflight { sender, frame }) = self.inflight.remove(&tx) else {
            return Vec::new();
        };
        let decoded = self.medium.end_tx(TxId(tx));
        let mut upcalls = Vec::new();
        let is_unicast_data = matches!(
            (&frame.kind, frame.dst),
            (FrameKind::Data(_), MacDst::Unicast(_))
        );
        // For the conservation invariant: did the intended unicast
        // receiver's decode get accounted (accepted / duplicate /
        // fault-dropped)? Anything else is a loss.
        let mut intended_accounted = false;

        // Receiver side.
        for rx in decoded {
            let rx = NodeId(rx);
            if !self.is_alive(rx) {
                continue;
            }
            // Fault injection sits between PHY decode and MAC reception:
            // a dropped frame was decoded on air but never "seen", so no
            // ACK is scheduled and the sender retries as it would after
            // a collision.
            let fate = match self.faults.as_mut() {
                Some(injector) => {
                    let now = self.scheduler.now();
                    let sender_pos = self.motions[sender.index()].position(now);
                    let rx_pos = self.motions[rx.index()].position(now);
                    let is_data = matches!(frame.kind, FrameKind::Data(_));
                    injector.frame_fate(now, self.side, sender_pos, rx_pos, is_data)
                }
                None => FrameFate::Deliver,
            };
            if fate == FrameFate::Drop {
                self.stats.fault_dropped += 1;
                if is_unicast_data && frame.dst == MacDst::Unicast(rx) {
                    self.stats.unicast_fault_dropped += 1;
                    intended_accounted = true;
                }
                continue;
            }
            match &frame.kind {
                FrameKind::Hello => {
                    let expiry = self.scheduler.now()
                        + HEARTBEAT_PERIOD * u64::from(HEARTBEAT_EXPIRY_CYCLES);
                    self.neighbors[rx.index()].insert(frame.src, expiry);
                    self.neighbor_min_expiry[rx.index()] =
                        self.neighbor_min_expiry[rx.index()].min(expiry);
                }
                FrameKind::Ack { for_seq } => {
                    if frame.dst == MacDst::Unicast(rx) {
                        upcalls.extend(self.on_ack_received(rx, *for_seq));
                    }
                }
                FrameKind::Data(payload) => match frame.dst {
                    MacDst::Broadcast => {
                        self.stats.delivered += 1;
                        let up = Upcall::Frame {
                            at: rx,
                            from: frame.src,
                            dst: frame.dst,
                            payload: payload.clone(),
                            overheard: false,
                        };
                        self.emit_data_upcall(&mut upcalls, fate, up);
                    }
                    MacDst::Unicast(dest) if dest == rx => {
                        intended_accounted = true;
                        // ACK even duplicates; deliver only fresh frames.
                        self.scheduler.schedule_in(
                            SIFS,
                            Event::SendAck {
                                node: rx,
                                to: frame.src,
                                seq: frame.seq,
                            },
                        );
                        if self.macs[rx.index()].accept_data(frame.src, frame.seq) {
                            self.stats.delivered += 1;
                            self.stats.unicast_delivered += 1;
                            let up = Upcall::Frame {
                                at: rx,
                                from: frame.src,
                                dst: frame.dst,
                                payload: payload.clone(),
                                overheard: false,
                            };
                            self.emit_data_upcall(&mut upcalls, fate, up);
                        } else {
                            self.stats.unicast_dup_discarded += 1;
                        }
                    }
                    MacDst::Unicast(_) => {
                        if self.config.promiscuous {
                            upcalls.push(Upcall::Frame {
                                at: rx,
                                from: frame.src,
                                dst: frame.dst,
                                payload: payload.clone(),
                                overheard: true,
                            });
                        }
                    }
                },
            }
        }
        if is_unicast_data && !intended_accounted {
            self.stats.unicast_lost += 1;
        }

        // Sender side. The phase guard protects against the (churn-only)
        // corner case of a node crashing and rejoining while its frame was
        // still in the air.
        if self.is_alive(sender) && self.macs[sender.index()].phase == MacPhase::Transmitting {
            match (&frame.kind, frame.dst) {
                (FrameKind::Data(_), MacDst::Unicast(_)) => {
                    let timeout = SIFS + ack_airtime() + ACK_TIMEOUT_SLACK;
                    self.macs[sender.index()].phase = MacPhase::AwaitingAck { seq: frame.seq };
                    let id = self.scheduler.schedule_in(
                        timeout,
                        Event::AckTimeout {
                            node: sender,
                            seq: frame.seq,
                        },
                    );
                    self.ack_timeouts[sender.index()] = Some(id);
                }
                (FrameKind::Data(_) | FrameKind::Hello, _) => {
                    // Broadcast data / hello: done after one transmission.
                    if let Some(out) = self.macs[sender.index()].finish_head() {
                        if let Some(token) = out.token {
                            upcalls.push(Upcall::SendResult {
                                node: sender,
                                token,
                                ok: true,
                            });
                        }
                    }
                    self.schedule_attempt_for_head(sender);
                }
                (FrameKind::Ack { .. }, _) => {
                    // Fire-and-forget; the data path owns the MAC phase.
                }
            }
        }
        upcalls
    }

    /// Pushes a data-frame upcall, honouring an injected delay or
    /// duplication fate. (`Drop` never reaches here; it is handled
    /// before MAC reception.)
    fn emit_data_upcall(&mut self, upcalls: &mut Vec<Upcall<P>>, fate: FrameFate, up: Upcall<P>) {
        match fate {
            FrameFate::Deliver | FrameFate::Drop => upcalls.push(up),
            FrameFate::Delay(extra) => {
                self.stats.fault_delayed += 1;
                self.stash_delayed(up, extra);
            }
            FrameFate::Duplicate(extra) => {
                self.stats.fault_duplicated += 1;
                self.stash_delayed(up.clone(), extra);
                upcalls.push(up);
            }
        }
    }

    fn stash_delayed(&mut self, up: Upcall<P>, extra: SimDuration) {
        let key = self.next_delayed_id;
        self.next_delayed_id += 1;
        self.delayed.insert(key, up);
        self.scheduler
            .schedule_in(extra, Event::DelayedFrame { key });
    }

    fn on_delayed_frame(&mut self, key: u64) -> Vec<Upcall<P>> {
        let Some(up) = self.delayed.remove(&key) else {
            return Vec::new();
        };
        // A receiver that crashed while the frame sat in the fault queue
        // never sees it.
        if let Upcall::Frame { at, .. } = &up {
            if !self.is_alive(*at) {
                return Vec::new();
            }
        }
        vec![up]
    }

    fn on_region_fail(&mut self, center: Point, radius_m: f64) -> Vec<Upcall<P>> {
        let now = self.scheduler.now();
        let victims: Vec<NodeId> = (0..self.motions.len())
            .filter(|&i| {
                self.alive[i] && self.motions[i].position(now).distance(center) <= radius_m
            })
            .map(|i| NodeId(i as u32))
            .collect();
        let mut upcalls = Vec::new();
        for victim in victims {
            upcalls.extend(self.on_fail(victim));
        }
        upcalls
    }

    fn on_region_recover(&mut self, center: Point, radius_m: f64) -> Vec<Upcall<P>> {
        let now = self.scheduler.now();
        let healed: Vec<NodeId> = (0..self.motions.len())
            .filter(|&i| {
                !self.alive[i] && self.motions[i].position(now).distance(center) <= radius_m
            })
            .map(|i| NodeId(i as u32))
            .collect();
        let mut upcalls = Vec::new();
        for node in healed {
            upcalls.extend(self.on_join(node));
        }
        upcalls
    }

    fn on_ack_received(&mut self, node: NodeId, for_seq: u64) -> Vec<Upcall<P>> {
        let mac = &mut self.macs[node.index()];
        if mac.phase != (MacPhase::AwaitingAck { seq: for_seq }) {
            return Vec::new();
        }
        if let Some(id) = self.ack_timeouts[node.index()].take() {
            self.scheduler.cancel(id);
        }
        let out = mac.finish_head().expect("head acked");
        let mut upcalls = Vec::new();
        if let Some(token) = out.token {
            upcalls.push(Upcall::SendResult {
                node,
                token,
                ok: true,
            });
        }
        self.schedule_attempt_for_head(node);
        upcalls
    }

    fn on_ack_timeout(&mut self, node: NodeId, seq: u64) -> Vec<Upcall<P>> {
        if !self.is_alive(node) {
            return Vec::new();
        }
        let mac = &mut self.macs[node.index()];
        if mac.phase != (MacPhase::AwaitingAck { seq }) {
            return Vec::new();
        }
        self.ack_timeouts[node.index()] = None;
        mac.retries += 1;
        if mac.retries >= RETRY_LIMIT {
            self.stats.mac_failures += 1;
            let out = mac.finish_head().expect("head failed");
            let mut upcalls = Vec::new();
            if let Some(token) = out.token {
                upcalls.push(Upcall::SendResult {
                    node,
                    token,
                    ok: false,
                });
            }
            self.schedule_attempt_for_head(node);
            upcalls
        } else {
            mac.grow_cw();
            let backoff = SLOT * u64::from(mac.draw_backoff(&mut self.mac_rng));
            self.stats.mac_backoff_draws += 1;
            mac.phase = MacPhase::Contending;
            self.scheduler
                .schedule_in(DIFS + backoff, Event::MacAttempt { node });
            Vec::new()
        }
    }

    fn on_heartbeat(&mut self, node: NodeId) -> Vec<Upcall<P>> {
        if self.is_alive(node) {
            let was_idle = self.macs[node.index()].enqueue(
                MacDst::Broadcast,
                FrameKind::Hello,
                None,
                HELLO_BYTES,
            );
            if was_idle {
                self.schedule_attempt_for_head(node);
            }
            self.scheduler
                .schedule_in(HEARTBEAT_PERIOD, Event::Heartbeat { node });
        }
        Vec::new()
    }

    fn on_mobility_leg(&mut self, node: NodeId) -> Vec<Upcall<P>> {
        if !self.is_alive(node) {
            return Vec::new();
        }
        let now = self.scheduler.now();
        let current = self.motions[node.index()].position(now);
        let mut mobility_rng = rng::entity_stream(
            self.config.seed,
            streams::MOBILITY,
            u64::from(node.0) ^ now.as_micros(),
        );
        let motion = mobility::next_leg(
            self.config.mobility,
            current,
            self.side,
            now,
            &mut mobility_rng,
        );
        let next = motion.next_transition();
        self.motions[node.index()] = motion;
        self.scheduler
            .schedule_at(next, Event::MobilityLeg { node });
        Vec::new()
    }

    fn on_grid_refresh(&mut self) -> Vec<Upcall<P>> {
        let now = self.scheduler.now();
        for i in 0..self.motions.len() {
            if self.alive[i] {
                let p = self.motions[i].position(now);
                self.grid.update(i as u32, p);
                self.recorded_pos[i] = p;
            }
            // Evict expired heartbeat entries. Reads already filter on
            // expiry, so this never changes `neighbors()` — it only keeps
            // the maps bounded under churn and mobility (entries for
            // silent nodes otherwise linger until the node itself fails).
            // Sweeping every map every second is the refresh's dominant
            // memory traffic at large n, so nodes whose earliest expiry
            // is still ahead are skipped: their retain would be a no-op.
            if self.neighbor_min_expiry[i] <= now {
                self.neighbors[i].evict_expired(now);
                self.neighbor_min_expiry[i] = self.neighbors[i].min_expiry();
            }
        }
        self.scheduler
            .schedule_in(SimDuration::from_secs(1), Event::GridRefresh);
        Vec::new()
    }

    fn on_fail(&mut self, node: NodeId) -> Vec<Upcall<P>> {
        if !self.is_alive(node) {
            return Vec::new();
        }
        self.alive[node.index()] = false;
        if let Some(id) = self.ack_timeouts[node.index()].take() {
            self.scheduler.cancel(id);
        }
        self.grid.remove(node.0);
        self.neighbors[node.index()].clear();
        self.neighbor_min_expiry[node.index()] = SimTime::MAX;
        let mut upcalls: Vec<Upcall<P>> = self.macs[node.index()]
            .drain_tokens()
            .into_iter()
            .map(|token| Upcall::SendResult {
                node,
                token,
                ok: false,
            })
            .collect();
        upcalls.push(Upcall::NodeFailed { node });
        upcalls
    }

    fn on_join(&mut self, node: NodeId) -> Vec<Upcall<P>> {
        if self.is_alive(node) {
            return Vec::new();
        }
        let now = self.scheduler.now();
        let mut placement_rng = rng::entity_stream(
            self.config.seed,
            streams::PLACEMENT,
            u64::from(node.0) ^ now.as_micros(),
        );
        let p = Point::new(
            placement_rng.gen::<f64>() * self.side,
            placement_rng.gen::<f64>() * self.side,
        );
        let motion =
            mobility::initial_motion(self.config.mobility, p, self.side, now, &mut placement_rng);
        if motion.next_transition() < SimTime::MAX {
            self.scheduler
                .schedule_at(motion.next_transition(), Event::MobilityLeg { node });
        }
        self.motions[node.index()] = motion;
        self.alive[node.index()] = true;
        self.grid.update(node.0, p);
        self.recorded_pos[node.index()] = p;
        // Announce immediately, then on the regular cycle.
        self.scheduler
            .schedule_in(SimDuration::ZERO, Event::Heartbeat { node });
        vec![Upcall::NodeJoined { node }]
    }
}
