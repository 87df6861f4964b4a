//! Property-based tests for geometry, power math and the PHY.

use pqs_net::config::{dbm_to_mw, mw_to_dbm, IDEAL_RANGE_M, TX_POWER_DBM};
use pqs_net::geometry::{Point, SpatialGrid};
use pqs_net::phy::{received_power_dbm, Medium, TxId};
use pqs_net::PhyConfig;
use pqs_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// dBm ↔ mW conversions are inverse of each other.
    #[test]
    fn power_conversion_roundtrip(dbm in -150.0f64..50.0) {
        let back = mw_to_dbm(dbm_to_mw(dbm));
        prop_assert!((back - dbm).abs() < 1e-9);
    }

    /// Received power decreases monotonically with distance and never
    /// exceeds the transmit power.
    #[test]
    fn path_loss_monotone(d1 in 0.0f64..2_000.0, d2 in 0.0f64..2_000.0) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let p_near = received_power_dbm(near);
        let p_far = received_power_dbm(far);
        prop_assert!(p_near >= p_far - 1e-9);
        prop_assert!(p_near <= TX_POWER_DBM + 1e-9);
    }

    /// Grid queries return a superset of the true in-range set.
    #[test]
    fn grid_superset_property(
        points in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..60),
        qx in 0.0f64..1000.0,
        qy in 0.0f64..1000.0,
        radius in 10.0f64..400.0,
    ) {
        let mut grid = SpatialGrid::new(1000.0, 100.0, points.len());
        for (i, &(x, y)) in points.iter().enumerate() {
            grid.update(i as u32, Point::new(x, y));
        }
        let q = Point::new(qx, qy);
        let found: Vec<u32> = grid.nearby(q, radius).collect();
        for (i, &(x, y)) in points.iter().enumerate() {
            if q.distance(Point::new(x, y)) <= radius {
                prop_assert!(
                    found.contains(&(i as u32)),
                    "point {i} within {radius} missed by grid"
                );
            }
        }
    }

    /// Under random-waypoint motion, querying the grid (whose recorded
    /// positions are up to one refresh interval stale) with the
    /// `grid_slack_m` widening (`2·max_speed·refresh + 5`) returns a
    /// superset of the exact unit-disk neighbours at any instant within
    /// the refresh window — the guarantee [`pqs_net::Network`] relies on
    /// for both reception candidates and the connectivity graph.
    #[test]
    fn grid_superset_under_random_waypoint(
        seed in 0u64..1_000,
        n in 2usize..40,
        range in 50.0f64..300.0,
        max_speed in 1.0f64..20.0,
        query_ms in 0u64..=1_000,
    ) {
        use pqs_net::mobility::{initial_motion, MobilityModel};
        use pqs_sim::{rng, SimDuration};
        use rand::Rng;

        let side = 1000.0;
        let refresh_s = 1.0;
        let model = MobilityModel::RandomWaypoint {
            min_speed: 0.5,
            max_speed,
            pause: SimDuration::from_secs(1),
        };
        let mut r = rng::stream(seed, 7);
        let motions: Vec<_> = (0..n)
            .map(|_| {
                let p = Point::new(r.gen::<f64>() * side, r.gen::<f64>() * side);
                initial_motion(model, p, side, SimTime::ZERO, &mut r)
            })
            .collect();
        // Refresh instant t0 = 0: index the positions recorded then.
        let mut grid = SpatialGrid::new(side, 125.0, n);
        for (i, m) in motions.iter().enumerate() {
            grid.update(i as u32, m.position(SimTime::ZERO));
        }
        // Query at any instant within one refresh interval of the snapshot.
        let at = SimTime::from_millis(query_ms);
        let slack = 2.0 * max_speed * refresh_s + 5.0;
        for (i, mi) in motions.iter().enumerate() {
            let pi = mi.position(at);
            let candidates: Vec<u32> = grid.nearby(pi, range + slack).collect();
            for (j, mj) in motions.iter().enumerate() {
                if i != j && pi.distance(mj.position(at)) <= range {
                    prop_assert!(
                        candidates.contains(&(j as u32)),
                        "neighbour {} of {} missed at t={}ms", j, i, query_ms
                    );
                }
            }
        }
    }

    /// A single transmission with no interference is decoded by exactly
    /// the candidates within the ideal range (physical model).
    #[test]
    fn clean_reception_boundary(
        rx_positions in proptest::collection::vec((0.0f64..600.0, 0.0f64..600.0), 1..20),
    ) {
        let phy = PhyConfig::default();
        let mut medium = Medium::new(phy, 600.0);
        let sender_pos = Point::new(300.0, 300.0);
        let candidates: Vec<(u32, Point)> = rx_positions
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (i as u32 + 1, Point::new(x, y)))
            .collect();
        medium.begin_tx(TxId(1), 0, sender_pos, SimTime::from_millis(1), &candidates);
        let decoded = medium.end_tx(TxId(1));
        for (id, pos) in candidates {
            let in_range = sender_pos.distance(pos) <= IDEAL_RANGE_M;
            prop_assert_eq!(
                decoded.contains(&id),
                in_range,
                "receiver at {} m", sender_pos.distance(pos)
            );
        }
    }

    /// Point::lerp stays on the segment and hits the endpoints.
    #[test]
    fn lerp_on_segment(
        ax in -100.0f64..100.0, ay in -100.0f64..100.0,
        bx in -100.0f64..100.0, by in -100.0f64..100.0,
        t in 0.0f64..1.0,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let p = a.lerp(b, t);
        let total = a.distance(b);
        prop_assert!(a.distance(p) + p.distance(b) <= total + 1e-6);
    }

    /// The incremental medium (grid-bucketed, per-reception interference
    /// lists) is observationally identical — decode sets, half-duplex
    /// aborts, carrier sense, and bit-exact interference sums — to a
    /// from-scratch reference that rescans all ongoing transmissions on
    /// every check (the pre-optimisation algorithm), across randomized
    /// begin/end schedules in both reception models.
    #[test]
    fn incremental_matches_naive_medium(
        positions in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 3..14),
        script in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..50),
        protocol in any::<bool>(),
    ) {
        let phy = if protocol { PhyConfig::protocol_model() } else { PhyConfig::default() };
        let physical = !protocol;
        let nodes: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let n = nodes.len();
        let mut fast = Medium::new(phy, 1000.0);
        let mut naive = naive::NaiveMedium::new(phy);
        let mut active: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        let end = SimTime::from_millis(1);
        for &(op, pick) in &script {
            if op % 2 == 0 || active.is_empty() {
                let sender = u32::from(pick) % n as u32;
                let pos = nodes[sender as usize];
                let candidates: Vec<(u32, Point)> = (0..n as u32)
                    .filter(|&i| i != sender)
                    .map(|i| (i, nodes[i as usize]))
                    .collect();
                let id = TxId(next_id);
                next_id += 1;
                let a_fast = fast.begin_tx(id, sender, pos, end, &candidates);
                let a_naive = naive.begin_tx(id, sender, pos, end, &candidates);
                prop_assert_eq!(a_fast, a_naive, "half-duplex abort diverged");
                active.push(id.0);
            } else {
                let id = active.remove(usize::from(pick) % active.len());
                let d_fast = fast.end_tx(TxId(id));
                let d_naive = naive.end_tx(TxId(id));
                prop_assert_eq!(&d_fast, &d_naive, "decode set diverged for tx {}", id);
            }
            // Interference sums must match the full recompute bit-exactly
            // (physical model; the protocol model keeps no sums).
            if physical {
                for rx in 0..n as u32 {
                    match (fast.pending_interference_mw(rx), naive.interference_at(rx)) {
                        (Some(a), Some(b)) => prop_assert_eq!(
                            a.to_bits(), b.to_bits(),
                            "interference diverged at rx {}: {} vs {}", rx, a, b
                        ),
                        (a, b) => prop_assert_eq!(
                            a.is_some(), b.is_some(),
                            "pending-reception set diverged at rx {}", rx
                        ),
                    }
                }
            }
            for node in 0..n as u32 {
                let pos = nodes[node as usize];
                prop_assert_eq!(
                    fast.channel_busy(node, pos),
                    naive.channel_busy(node, pos),
                    "carrier sense diverged at node {}", node
                );
                prop_assert_eq!(
                    fast.busy_until(node, pos),
                    naive.busy_until(node, pos),
                    "busy window diverged at node {}", node
                );
            }
        }
        // Drain: every remaining transmission must decode identically.
        for id in active {
            prop_assert_eq!(fast.end_tx(TxId(id)), naive.end_tx(TxId(id)));
        }
        prop_assert_eq!(fast.ongoing_count(), 0);
        prop_assert_eq!(fast.pending_count(), 0);
    }
}

/// Reference implementation of the shared medium: the straightforward
/// quadratic algorithm (rescan every ongoing transmission for every SINR
/// check) the incremental version must reproduce bit-for-bit.
mod naive {
    use pqs_net::config::{
        dbm_to_mw, PhyConfig, ReceptionModel, IDEAL_RANGE_M, INTERFERENCE_RANGE_M, NOISE_DBM,
    };
    use pqs_net::geometry::Point;
    use pqs_net::phy::{received_power_mw_d2, TxId};
    use pqs_sim::SimTime;

    struct Ongoing {
        id: u64,
        sender: u32,
        pos: Point,
        end: SimTime,
    }

    struct Pending {
        tx_id: u64,
        rx_node: u32,
        rx_pos: Point,
        signal_mw: f64,
        corrupted: bool,
    }

    pub struct NaiveMedium {
        phy: PhyConfig,
        ongoing: Vec<Ongoing>,
        pending: Vec<Pending>,
    }

    impl NaiveMedium {
        pub fn new(phy: PhyConfig) -> Self {
            NaiveMedium {
                phy,
                ongoing: Vec::new(),
                pending: Vec::new(),
            }
        }

        fn sense_range_m(&self) -> f64 {
            match self.phy.reception {
                ReceptionModel::Protocol { range_m, delta } => range_m * (1.0 + delta),
                ReceptionModel::Physical { .. } => self.phy.cs_range_m(),
            }
        }

        /// The naive fold: every ongoing transmission in id order,
        /// out-of-range terms contributing a literal `0.0`.
        fn interference_mw(&self, pos: Point, exclude_tx: u64, exclude_sender: u32) -> f64 {
            let range2 = INTERFERENCE_RANGE_M * INTERFERENCE_RANGE_M;
            let mut total = 0.0;
            for t in &self.ongoing {
                if t.id == exclude_tx || t.sender == exclude_sender {
                    continue;
                }
                let d2 = t.pos.distance_squared(pos);
                total += if d2 <= range2 {
                    received_power_mw_d2(d2)
                } else {
                    0.0
                };
            }
            total
        }

        pub fn interference_at(&self, rx_node: u32) -> Option<f64> {
            let p = self.pending.iter().find(|p| p.rx_node == rx_node)?;
            Some(self.interference_mw(p.rx_pos, p.tx_id, p.rx_node))
        }

        pub fn begin_tx(
            &mut self,
            id: TxId,
            sender: u32,
            sender_pos: Point,
            end: SimTime,
            candidates: &[(u32, Point)],
        ) -> Option<TxId> {
            let aborted = self
                .pending
                .iter()
                .find(|p| p.rx_node == sender)
                .map(|p| TxId(p.tx_id));
            self.pending.retain(|p| p.rx_node != sender);
            match self.phy.reception {
                ReceptionModel::Protocol { range_m, delta } => {
                    let guard = range_m * (1.0 + delta);
                    let guard2 = guard * guard;
                    for p in &mut self.pending {
                        if sender_pos.distance_squared(p.rx_pos) <= guard2 {
                            p.corrupted = true;
                        }
                    }
                }
                ReceptionModel::Physical { beta } => {
                    let noise_floor = dbm_to_mw(NOISE_DBM);
                    let range2 = INTERFERENCE_RANGE_M * INTERFERENCE_RANGE_M;
                    for i in 0..self.pending.len() {
                        let d2 = sender_pos.distance_squared(self.pending[i].rx_pos);
                        if d2 > range2 {
                            continue;
                        }
                        let p = &self.pending[i];
                        let interference = self.interference_mw(p.rx_pos, p.tx_id, p.rx_node)
                            + received_power_mw_d2(d2);
                        if !p.corrupted && p.signal_mw / (noise_floor + interference) < beta {
                            self.pending[i].corrupted = true;
                        }
                    }
                }
            }
            for &(node, pos) in candidates {
                let busy = node == sender
                    || self.pending.iter().any(|p| p.rx_node == node)
                    || self.ongoing.iter().any(|t| t.sender == node);
                if busy {
                    continue;
                }
                let d2 = sender_pos.distance_squared(pos);
                match self.phy.reception {
                    ReceptionModel::Protocol { range_m, delta } => {
                        if d2 > range_m * range_m {
                            continue;
                        }
                        let guard = range_m * (1.0 + delta);
                        let guard2 = guard * guard;
                        let jammed = self
                            .ongoing
                            .iter()
                            .any(|t| t.sender != sender && t.pos.distance_squared(pos) <= guard2);
                        self.pending.push(Pending {
                            tx_id: id.0,
                            rx_node: node,
                            rx_pos: pos,
                            signal_mw: f64::INFINITY,
                            corrupted: jammed,
                        });
                    }
                    ReceptionModel::Physical { beta } => {
                        let r = IDEAL_RANGE_M;
                        if d2 > r * r {
                            continue;
                        }
                        let signal_mw = received_power_mw_d2(d2);
                        let noise = dbm_to_mw(NOISE_DBM) + self.interference_mw(pos, id.0, node);
                        self.pending.push(Pending {
                            tx_id: id.0,
                            rx_node: node,
                            rx_pos: pos,
                            signal_mw,
                            corrupted: signal_mw / noise < beta,
                        });
                    }
                }
            }
            self.ongoing.push(Ongoing {
                id: id.0,
                sender,
                pos: sender_pos,
                end,
            });
            aborted
        }

        pub fn end_tx(&mut self, id: TxId) -> Vec<u32> {
            self.ongoing.retain(|t| t.id != id.0);
            let mut decoded = Vec::new();
            self.pending.retain(|p| {
                if p.tx_id != id.0 {
                    return true;
                }
                if !p.corrupted {
                    decoded.push(p.rx_node);
                }
                false
            });
            decoded
        }

        pub fn channel_busy(&self, node: u32, pos: Point) -> bool {
            let sense = self.sense_range_m();
            let sense2 = sense * sense;
            self.ongoing
                .iter()
                .any(|t| t.sender == node || t.pos.distance_squared(pos) <= sense2)
        }

        pub fn busy_until(&self, node: u32, pos: Point) -> Option<SimTime> {
            let sense = self.sense_range_m();
            let sense2 = sense * sense;
            self.ongoing
                .iter()
                .filter(|t| t.sender == node || t.pos.distance_squared(pos) <= sense2)
                .map(|t| t.end)
                .max()
        }
    }
}
