//! Physical layer: path loss, reception decisions, and the shared medium.
//!
//! Implements both reception models of §2.3:
//!
//! - the **protocol model** (unit disk with an interference guard zone),
//! - the **physical model** (SINR with cumulative interference and capture
//!   — the SWANS `RadioNoiseAdditive` behaviour used by the paper).
//!
//! Propagation is two-ray ground with the crossover at
//! [`CROSSOVER_M`]. The path-loss curve is *calibrated*: the constant is
//! chosen so that the received power at exactly [`IDEAL_RANGE_M`] equals
//! [`RX_THRESHOLD_DBM`], making the "ideal reception range 200 m" of
//! Fig. 2 exact by construction.
//!
//! # Hot path (see DESIGN.md §13)
//!
//! [`Medium::begin_tx`] is the single hottest call in every simulation:
//! it runs once per frame on the air and decides corruption for every
//! reception in progress plus reception for every candidate. The naive
//! formulation rescans *all* ongoing transmissions for every SINR check
//! (quadratic in channel load). This implementation is incremental
//! instead:
//!
//! - each pending reception carries its interference contributions as a
//!   `(tx id, received power)` list kept sorted by transmission id, so a
//!   SINR check folds precomputed powers (cheap adds) instead of
//!   recomputing path loss (`powf`/`log10`) per ongoing transmission;
//! - ongoing transmissions and pending receptions are bucketed in
//!   [`SpatialGrid`]s, so begin/end only touch state within
//!   [`INTERFERENCE_RANGE_M`].
//!
//! Results are *bit-identical* to the naive recompute: the old code
//! folded ongoing transmissions in ascending-id order (the `Vec` was
//! append-ordered and ids are monotone), out-of-range terms added a
//! literal `0.0` (a no-op on non-negative sums), and the new signal's
//! power was added last — the sorted contribution list reproduces that
//! exact fold. Debug builds assert the equivalence after every
//! begin/end; `tests/proptests.rs` drives randomized schedules against a
//! from-scratch reference.

use crate::config::{
    dbm_to_mw, PhyConfig, ReceptionModel, CROSSOVER_M, IDEAL_RANGE_M, INTERFERENCE_RANGE_M,
    NOISE_DBM, RX_THRESHOLD_DBM, TX_POWER_DBM,
};
use crate::geometry::{Point, SpatialGrid};
use pqs_sim::hash::FastMap;
use pqs_sim::SimTime;

/// Received power in dBm at distance `d` metres.
///
/// Never exceeds the transmit power; at `d = 0` the full transmit power is
/// received.
pub fn received_power_dbm(d: f64) -> f64 {
    if d <= 0.0 {
        return TX_POWER_DBM;
    }
    let (r, c) = (IDEAL_RANGE_M, CROSSOVER_M);
    // d⁻² below the crossover, d⁻⁴ above; calibrated at `r`.
    let loss_from = |x: f64| {
        if x >= c {
            40.0 * (x / c).log10()
        } else {
            20.0 * (x / c).log10()
        }
    };
    let extra_loss_db = loss_from(d) - loss_from(r);
    (RX_THRESHOLD_DBM - extra_loss_db).min(TX_POWER_DBM)
}

/// Received power in milliwatts at *squared* distance `d2` (m²) — the
/// PHY hot-path form: no `log10`, `powf` or `sqrt`. See `PowerCurve`.
pub fn received_power_mw_d2(d2: f64) -> f64 {
    PowerCurve::new().mw_at_d2(d2)
}

/// The calibrated path-loss curve in linear (mW) form, precomputed.
///
/// In dBm the model is logarithmic, but exponentiating it back to mW
/// collapses to a piecewise *rational* function of squared distance:
/// `P(d) = k_near/d²` below the two-ray crossover and `k_far/d⁴` above
/// it, capped at the transmit power. `Medium` evaluates this per (transmitter, receiver)
/// pair, so dodging `log10`/`powf` — and taking squared distance to
/// dodge `sqrt` — is a large constant-factor win (see DESIGN.md §13).
#[derive(Debug, Clone, Copy)]
struct PowerCurve {
    /// Transmit power in mW (the cap, and the value at `d = 0`).
    txp_mw: f64,
    /// Squared crossover distance.
    cross2: f64,
    /// `P(d) = k_near / d²` for `d² < cross2`.
    k_near: f64,
    /// `P(d) = k_far / d⁴` for `d² ≥ cross2`.
    k_far: f64,
}

impl PowerCurve {
    fn new() -> Self {
        let t_mw = dbm_to_mw(RX_THRESHOLD_DBM);
        let txp_mw = dbm_to_mw(TX_POWER_DBM);
        let (r, c) = (IDEAL_RANGE_M, CROSSOVER_M);
        // With F(x) = (x/c)⁴ above the crossover and (x/c)² below,
        // P(d) = T·F(r)/F(d), and `r` lies above the crossover (checked
        // next to `CROSSOVER_M`); expanding F(d) gives the two branches.
        let q = r / c;
        let fr = q * q * q * q;
        PowerCurve {
            txp_mw,
            cross2: c * c,
            k_near: t_mw * fr * (c * c),
            k_far: t_mw * fr * (c * c) * (c * c),
        }
    }

    /// Received power (mW) at squared distance `d2`.
    fn mw_at_d2(&self, d2: f64) -> f64 {
        if d2 <= 0.0 {
            return self.txp_mw;
        }
        let raw = if d2 >= self.cross2 {
            self.k_far / (d2 * d2)
        } else {
            self.k_near / d2
        };
        raw.min(self.txp_mw)
    }
}

/// An opaque identifier for one in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(pub u64);

#[derive(Debug, Clone)]
struct OngoingTx {
    id: u64,
    sender: u32,
    pos: Point,
    end: SimTime,
    /// Receivers that locked onto this frame, in lock order (drives the
    /// deterministic decode order of [`Medium::end_tx`]). Entries whose
    /// reception was since aborted are detected by the pending-side
    /// `tx_id` check.
    rx_nodes: Vec<u32>,
}

#[derive(Debug, Clone)]
struct PendingRx {
    tx_id: u64,
    rx_node: u32,
    rx_pos: Point,
    signal_mw: f64,
    corrupted: bool,
    /// Interference contributions `(tx id, received power mW)` from every
    /// ongoing transmission within interference range (excluding the one
    /// being received), sorted ascending by tx id. Folding this list in
    /// order reproduces the naive full recompute bit-exactly.
    contrib: Vec<(u64, f64)>,
}

/// The shared wireless medium: tracks in-flight transmissions and decides
/// which receivers successfully decode each frame.
///
/// The driver (the network layer) calls [`Medium::begin_tx`] with the
/// candidate receivers when a node starts transmitting, and
/// [`Medium::end_tx`] when the airtime elapses; the latter returns the set
/// of receivers that decoded the frame.
///
/// Model simplifications (documented deviations from a full 802.11 PHY):
///
/// - a receiver locks onto the first decodable frame and does not switch
///   to a later, stronger one (no mid-frame capture re-lock),
/// - interference from transmitters beyond
///   [`INTERFERENCE_RANGE_M`] is folded into the noise floor,
/// - propagation delay is neglected (≤ 1 µs at these ranges).
#[derive(Debug, Clone)]
pub struct Medium {
    phy: PhyConfig,
    /// Precomputed linear-form path-loss curve (the hot-path form).
    curve: PowerCurve,
    /// Ongoing transmissions, slab-ordered (swap-removed on end).
    ongoing: Vec<OngoingTx>,
    /// Transmission id → slot in `ongoing`.
    tx_slot: FastMap<u64, usize>,
    /// Spatial index over ongoing transmissions, keyed by slot index.
    tx_grid: SpatialGrid,
    /// Pending receptions, slab-ordered (at most one per receiver).
    pending: Vec<PendingRx>,
    /// Receiver node → slot in `pending` (`NO_SLOT` = not receiving).
    rx_slot: Vec<u32>,
    /// Spatial index over pending receptions, keyed by receiver node id.
    rx_grid: SpatialGrid,
    /// Per-sender in-flight transmissions `(tx id, end)`, indexed by
    /// node id: carrier sense must report a node's own transmissions
    /// busy at any distance.
    sender_txs: Vec<Vec<(u64, SimTime)>>,
    /// Scratch for spatial-grid query results (reused across calls).
    scratch: Vec<u32>,
    /// Recycled contribution lists — retiring a reception returns its
    /// list here instead of freeing it (bounded; see `POOL_MAX`).
    contrib_pool: Vec<Vec<(u64, f64)>>,
    /// Recycled receiver-lock lists (one per transmission).
    rx_nodes_pool: Vec<Vec<u32>>,
    /// Scratch for the admission loop's newly created receptions.
    admit_scratch: Vec<PendingRx>,
    /// Transmitter/receiver pairs examined (diagnostics: the locality
    /// guard tests assert this stays sub-quadratic in channel load).
    work: u64,
}

/// Sentinel for "no pending reception" in [`Medium::rx_slot`].
const NO_SLOT: u32 = u32::MAX;

/// Up to this many slab entries, linear scans beat the spatial grids:
/// carrier sense keeps realistic channel concurrency at a handful of
/// transmissions, so the cache-hot direct path is the common case and
/// the grids only take over under heavy load (where they bound the
/// scan to the local neighbourhood).
const DIRECT_SCAN_MAX: usize = 16;

/// Cap on the recycled-allocation pools; far above realistic channel
/// concurrency, so in practice nothing is ever freed on the hot path.
const POOL_MAX: usize = 64;

impl Medium {
    /// Creates an idle medium over a `side_m × side_m` area with the
    /// given PHY parameters.
    pub fn new(phy: PhyConfig, side_m: f64) -> Self {
        let side = side_m.max(1.0);
        let cell = (INTERFERENCE_RANGE_M / 2.0).min(side).max(1.0);
        Medium {
            ongoing: Vec::new(),
            tx_slot: FastMap::default(),
            tx_grid: SpatialGrid::new(side, cell, 16),
            pending: Vec::new(),
            rx_slot: Vec::new(),
            rx_grid: SpatialGrid::new(side, cell, 16),
            sender_txs: Vec::new(),
            scratch: Vec::new(),
            contrib_pool: Vec::new(),
            rx_nodes_pool: Vec::new(),
            admit_scratch: Vec::new(),
            work: 0,
            curve: PowerCurve::new(),
            phy,
        }
    }

    /// The pending slot `node` is currently receiving in, if any.
    fn rx_slot_of(&self, node: u32) -> Option<usize> {
        match self.rx_slot.get(node as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    fn set_rx_slot(&mut self, node: u32, slot: usize) {
        let idx = node as usize;
        if idx >= self.rx_slot.len() {
            self.rx_slot.resize(idx + 1, NO_SLOT);
        }
        self.rx_slot[idx] = slot as u32;
    }

    /// Is `node` currently transmitting anything?
    fn sender_active(&self, node: u32) -> bool {
        self.sender_txs
            .get(node as usize)
            .is_some_and(|txs| !txs.is_empty())
    }

    fn sender_txs_mut(&mut self, node: u32) -> &mut Vec<(u64, SimTime)> {
        let idx = node as usize;
        if idx >= self.sender_txs.len() {
            self.sender_txs.resize_with(idx + 1, Vec::new);
        }
        &mut self.sender_txs[idx]
    }

    /// The distance (m) within which a transmitter marks the channel busy.
    pub fn sense_range_m(&self) -> f64 {
        match self.phy.reception {
            ReceptionModel::Protocol { range_m, delta } => range_m * (1.0 + delta),
            ReceptionModel::Physical { .. } => self.phy.cs_range_m(),
        }
    }

    /// Removes `sender`'s pending reception, if any, returning the id of
    /// the transmission it was receiving (half-duplex abort).
    fn abort_reception_of(&mut self, sender: u32) -> Option<TxId> {
        let slot = self.rx_slot_of(sender)?;
        let p = self.remove_pending_slot(slot);
        let id = TxId(p.tx_id);
        self.recycle_pending(p);
        Some(id)
    }

    /// Returns a retired reception's contribution list to the pool.
    fn recycle_pending(&mut self, p: PendingRx) {
        let mut contrib = p.contrib;
        if contrib.capacity() > 0 && self.contrib_pool.len() < POOL_MAX {
            contrib.clear();
            self.contrib_pool.push(contrib);
        }
    }

    /// Swap-removes the pending reception at `slot`, fixing up the
    /// receiver index (the spatial index is keyed by receiver id, so only
    /// the slot map needs patching).
    fn remove_pending_slot(&mut self, slot: usize) -> PendingRx {
        let p = self.pending.swap_remove(slot);
        self.rx_slot[p.rx_node as usize] = NO_SLOT;
        self.rx_grid.remove(p.rx_node);
        if let Some(moved) = self.pending.get(slot) {
            self.rx_slot[moved.rx_node as usize] = slot as u32;
        }
        p
    }

    /// Registers a transmission starting now and lasting until `end`.
    ///
    /// `candidates` are the nodes (with their current positions) that
    /// might hear the frame — typically everything within
    /// [`INTERFERENCE_RANGE_M`] of the sender. The medium
    /// decides which of them start receiving it.
    ///
    /// A node that starts transmitting aborts any reception it was in the
    /// middle of (half-duplex) — the id of the aborted transmission is
    /// returned so the caller can account the discarded reception — and
    /// the new transmission may corrupt receptions in progress at other
    /// nodes (collision / hidden terminal).
    pub fn begin_tx(
        &mut self,
        id: TxId,
        sender: u32,
        sender_pos: Point,
        end: SimTime,
        candidates: &[(u32, Point)],
    ) -> Option<TxId> {
        // Half-duplex: the sender can no longer receive.
        let aborted = self.abort_reception_of(sender);

        // The new signal interferes with receptions already in progress;
        // only receivers it actually reaches need any update.
        match self.phy.reception {
            ReceptionModel::Protocol { range_m, delta } => {
                let guard = range_m * (1.0 + delta);
                let guard2 = guard * guard;
                if self.pending.len() <= DIRECT_SCAN_MAX {
                    for p in &mut self.pending {
                        self.work += 1;
                        if sender_pos.distance_squared(p.rx_pos) <= guard2 {
                            p.corrupted = true;
                        }
                    }
                } else {
                    let mut affected = std::mem::take(&mut self.scratch);
                    affected.clear();
                    affected.extend(self.rx_grid.nearby(sender_pos, guard));
                    for &rx in &affected {
                        self.work += 1;
                        let slot = self.rx_slot[rx as usize] as usize;
                        let p = &mut self.pending[slot];
                        if sender_pos.distance_squared(p.rx_pos) <= guard2 {
                            p.corrupted = true;
                        }
                    }
                    self.scratch = affected;
                }
            }
            ReceptionModel::Physical { beta } => {
                let noise_floor = dbm_to_mw(NOISE_DBM);
                let range = INTERFERENCE_RANGE_M;
                let range2 = range * range;
                // Each pending is judged independently, so single-pass
                // marking matches the old two-phase scan. The closure runs
                // on every pending within range, whether the pendings come
                // from a direct slab scan or a grid query.
                let curve = self.curve;
                let mark = |work: &mut u64, p: &mut PendingRx| {
                    *work += 1;
                    let d2 = sender_pos.distance_squared(p.rx_pos);
                    if d2 > range2 {
                        return;
                    }
                    debug_assert!(p.contrib.last().is_none_or(|&(t, _)| t < id.0));
                    p.contrib.push((id.0, curve.mw_at_d2(d2)));
                    if p.corrupted {
                        return;
                    }
                    // Explicit +0.0-seeded fold (f64 `sum()` seeds with
                    // -0.0), bit-matching the naive `total += power` loop.
                    let interference = p.contrib.iter().fold(0.0f64, |acc, &(_, mw)| acc + mw);
                    if p.signal_mw / (noise_floor + interference) < beta {
                        p.corrupted = true;
                    }
                };
                if self.pending.len() <= DIRECT_SCAN_MAX {
                    for p in &mut self.pending {
                        mark(&mut self.work, p);
                    }
                } else {
                    let mut affected = std::mem::take(&mut self.scratch);
                    affected.clear();
                    affected.extend(self.rx_grid.nearby(sender_pos, range));
                    for &rx in &affected {
                        let slot = self.rx_slot[rx as usize] as usize;
                        mark(&mut self.work, &mut self.pending[slot]);
                    }
                    self.scratch = affected;
                }
            }
        }

        // Now decide who starts receiving the new frame. A node already
        // receiving or transmitting cannot lock onto it.
        let direct = self.ongoing.len() <= DIRECT_SCAN_MAX;
        let mut rx_nodes = self.rx_nodes_pool.pop().unwrap_or_default();
        let mut new_pending = std::mem::take(&mut self.admit_scratch);
        for &(node, pos) in candidates {
            if node == sender || self.rx_slot_of(node).is_some() || self.sender_active(node) {
                continue;
            }
            let d2 = sender_pos.distance_squared(pos);
            match self.phy.reception {
                ReceptionModel::Protocol { range_m, delta } => {
                    if d2 > range_m * range_m {
                        continue;
                    }
                    // Corrupted from the start if any other ongoing
                    // transmitter sits inside the guard zone.
                    let guard = range_m * (1.0 + delta);
                    let guard2 = guard * guard;
                    let mut jammed = false;
                    if direct {
                        for t in &self.ongoing {
                            self.work += 1;
                            if t.sender != sender && t.pos.distance_squared(pos) <= guard2 {
                                jammed = true;
                            }
                        }
                    } else {
                        for slot in self.tx_grid.nearby(pos, guard) {
                            self.work += 1;
                            let t = &self.ongoing[slot as usize];
                            if t.sender != sender && t.pos.distance_squared(pos) <= guard2 {
                                jammed = true;
                            }
                        }
                    }
                    rx_nodes.push(node);
                    new_pending.push(PendingRx {
                        tx_id: id.0,
                        rx_node: node,
                        rx_pos: pos,
                        signal_mw: f64::INFINITY,
                        corrupted: jammed,
                        contrib: Vec::new(),
                    });
                }
                ReceptionModel::Physical { beta } => {
                    // Decodable ⟺ within the calibrated ideal range (the
                    // curve equals the rx threshold exactly at `r`).
                    let r = IDEAL_RANGE_M;
                    if d2 > r * r {
                        continue;
                    }
                    let signal_mw = self.curve.mw_at_d2(d2);
                    let range = INTERFERENCE_RANGE_M;
                    let range2 = range * range;
                    let curve = self.curve;
                    let mut contrib = self.contrib_pool.pop().unwrap_or_default();
                    let mut gather = |work: &mut u64, t: &OngoingTx| {
                        *work += 1;
                        if t.sender == node {
                            return;
                        }
                        let dt2 = t.pos.distance_squared(pos);
                        if dt2 <= range2 {
                            contrib.push((t.id, curve.mw_at_d2(dt2)));
                        }
                    };
                    if direct {
                        for t in &self.ongoing {
                            gather(&mut self.work, t);
                        }
                    } else {
                        for slot in self.tx_grid.nearby(pos, range) {
                            gather(&mut self.work, &self.ongoing[slot as usize]);
                        }
                    }
                    // Ascending tx id == the naive fold order.
                    contrib.sort_unstable_by_key(|&(tid, _)| tid);
                    let interference = contrib.iter().fold(0.0f64, |acc, &(_, mw)| acc + mw);
                    let noise = dbm_to_mw(NOISE_DBM) + interference;
                    let ok = signal_mw / noise >= beta;
                    rx_nodes.push(node);
                    new_pending.push(PendingRx {
                        tx_id: id.0,
                        rx_node: node,
                        rx_pos: pos,
                        signal_mw,
                        corrupted: !ok,
                        contrib,
                    });
                }
            }
        }
        for p in new_pending.drain(..) {
            let slot = self.pending.len();
            self.set_rx_slot(p.rx_node, slot);
            self.rx_grid.update(p.rx_node, p.rx_pos);
            self.pending.push(p);
        }
        self.admit_scratch = new_pending;

        let slot = self.ongoing.len();
        self.tx_slot.insert(id.0, slot);
        self.tx_grid.update(slot as u32, sender_pos);
        self.sender_txs_mut(sender).push((id.0, end));
        self.ongoing.push(OngoingTx {
            id: id.0,
            sender,
            pos: sender_pos,
            end,
            rx_nodes,
        });
        #[cfg(debug_assertions)]
        self.assert_incremental_matches_naive();
        aborted
    }

    /// Finishes transmission `id` and returns the nodes that successfully
    /// decoded the frame.
    pub fn end_tx(&mut self, id: TxId) -> Vec<u32> {
        let Some(slot) = self.tx_slot.remove(&id.0) else {
            return Vec::new();
        };
        let tx = self.ongoing.swap_remove(slot);
        // Grid and index fix-ups for the slot that moved into `slot`.
        self.tx_grid.remove(self.ongoing.len() as u32);
        if let Some(moved) = self.ongoing.get(slot) {
            self.tx_grid.update(slot as u32, moved.pos);
            self.tx_slot.insert(moved.id, slot);
        }
        if let Some(txs) = self.sender_txs.get_mut(tx.sender as usize) {
            txs.retain(|&(t, _)| t != tx.id);
        }

        // The signal stops interfering with other receptions in progress.
        // Every reception holding a contribution from `tx` lies within
        // interference range of its position (contributions are only added
        // in range), so the grid query covers them all; small pending sets
        // are scanned directly instead.
        if self.pending.len() <= DIRECT_SCAN_MAX {
            for p in &mut self.pending {
                self.work += 1;
                if p.tx_id == tx.id {
                    continue; // removed below
                }
                if let Ok(i) = p.contrib.binary_search_by_key(&tx.id, |&(t, _)| t) {
                    p.contrib.remove(i);
                }
            }
        } else {
            let range = INTERFERENCE_RANGE_M;
            let mut affected = std::mem::take(&mut self.scratch);
            affected.clear();
            affected.extend(self.rx_grid.nearby(tx.pos, range));
            for &rx in &affected {
                self.work += 1;
                let slot = self.rx_slot[rx as usize] as usize;
                let p = &mut self.pending[slot];
                if p.tx_id == tx.id {
                    continue; // removed below
                }
                if let Ok(i) = p.contrib.binary_search_by_key(&tx.id, |&(t, _)| t) {
                    p.contrib.remove(i);
                }
            }
            self.scratch = affected;
        }

        // Decode in lock order (== the order receivers were admitted).
        let mut decoded = Vec::new();
        for &rx in &tx.rx_nodes {
            let Some(pslot) = self.rx_slot_of(rx) else {
                continue; // reception aborted (half-duplex)
            };
            if self.pending[pslot].tx_id != tx.id {
                continue; // receiver since locked onto a later frame
            }
            let p = self.remove_pending_slot(pslot);
            if !p.corrupted {
                decoded.push(rx);
            }
            self.recycle_pending(p);
        }
        let mut rx_nodes = tx.rx_nodes;
        if rx_nodes.capacity() > 0 && self.rx_nodes_pool.len() < POOL_MAX {
            rx_nodes.clear();
            self.rx_nodes_pool.push(rx_nodes);
        }
        #[cfg(debug_assertions)]
        self.assert_incremental_matches_naive();
        decoded
    }

    /// Returns `true` if the channel appears busy to a node at `pos`
    /// (carrier sense), either because it is transmitting itself or
    /// because it senses an ongoing transmission.
    pub fn channel_busy(&self, node: u32, pos: Point) -> bool {
        if self.sender_active(node) {
            return true;
        }
        let sense = self.sense_range_m();
        let sense2 = sense * sense;
        if self.ongoing.len() <= DIRECT_SCAN_MAX {
            self.ongoing
                .iter()
                .any(|t| t.pos.distance_squared(pos) <= sense2)
        } else {
            self.tx_grid
                .nearby(pos, sense)
                .any(|slot| self.ongoing[slot as usize].pos.distance_squared(pos) <= sense2)
        }
    }

    /// The latest end time among transmissions this node can sense — when
    /// the channel is next expected to go idle — or `None` if it already
    /// appears idle.
    pub fn busy_until(&self, node: u32, pos: Point) -> Option<SimTime> {
        let sense = self.sense_range_m();
        let sense2 = sense * sense;
        let own = self
            .sender_txs
            .get(node as usize)
            .into_iter()
            .flatten()
            .map(|&(_, end)| end)
            .max();
        // `max` is order-independent, so the direct scan and the grid
        // query agree exactly.
        let sensed = if self.ongoing.len() <= DIRECT_SCAN_MAX {
            self.ongoing
                .iter()
                .filter(|t| t.pos.distance_squared(pos) <= sense2)
                .map(|t| t.end)
                .max()
        } else {
            self.tx_grid
                .nearby(pos, sense)
                .map(|slot| &self.ongoing[slot as usize])
                .filter(|t| t.pos.distance_squared(pos) <= sense2)
                .map(|t| t.end)
                .max()
        };
        own.max(sensed)
    }

    /// Number of in-flight transmissions (diagnostics).
    pub fn ongoing_count(&self) -> usize {
        self.ongoing.len()
    }

    /// Number of receptions in progress (diagnostics).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Nodes with a reception in progress, in slab order. Exposed for the
    /// regression test proving crashed nodes never re-enter the PHY
    /// candidate set.
    #[doc(hidden)]
    pub fn pending_receivers(&self) -> impl Iterator<Item = u32> + '_ {
        self.pending.iter().map(|p| p.rx_node)
    }

    /// Transmitter/receiver pairs examined so far — a deterministic cost
    /// proxy. The locality tests assert that activity outside
    /// interference range does not grow this counter.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// The current interference sum (mW) at `rx_node`'s reception in
    /// progress: the in-order fold of its contribution list, exactly the
    /// value the next SINR check would use. `None` if the node is not
    /// receiving. Exposed for the incremental-vs-naive equivalence tests.
    #[doc(hidden)]
    pub fn pending_interference_mw(&self, rx_node: u32) -> Option<f64> {
        let slot = self.rx_slot_of(rx_node)?;
        let p = &self.pending[slot];
        Some(p.contrib.iter().fold(0.0f64, |acc, &(_, mw)| acc + mw))
    }

    /// Debug cross-check: every contribution list must equal (bit-exact,
    /// same order) the naive filter over all ongoing transmissions, and
    /// the slab indices must be coherent.
    #[cfg(debug_assertions)]
    fn assert_incremental_matches_naive(&self) {
        for (i, t) in self.ongoing.iter().enumerate() {
            debug_assert_eq!(self.tx_slot.get(&t.id), Some(&i));
        }
        for (i, p) in self.pending.iter().enumerate() {
            debug_assert_eq!(self.rx_slot_of(p.rx_node), Some(i));
        }
        if !matches!(self.phy.reception, ReceptionModel::Physical { .. }) {
            return;
        }
        let range2 = INTERFERENCE_RANGE_M * INTERFERENCE_RANGE_M;
        for p in &self.pending {
            let mut naive: Vec<(u64, f64)> = self
                .ongoing
                .iter()
                .filter(|t| t.id != p.tx_id && t.sender != p.rx_node)
                .filter_map(|t| {
                    let d2 = t.pos.distance_squared(p.rx_pos);
                    (d2 <= range2).then(|| (t.id, received_power_mw_d2(d2)))
                })
                .collect();
            naive.sort_unstable_by_key(|&(tid, _)| tid);
            debug_assert_eq!(
                naive.len(),
                p.contrib.len(),
                "contribution list diverged at rx {}",
                p.rx_node
            );
            for (a, b) in naive.iter().zip(&p.contrib) {
                debug_assert_eq!(a.0, b.0, "contribution order diverged");
                debug_assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "contribution power diverged at rx {} tx {}",
                    p.rx_node,
                    a.0
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phy() -> PhyConfig {
        PhyConfig::default()
    }

    fn medium(phy: PhyConfig) -> Medium {
        Medium::new(phy, 1000.0)
    }

    #[test]
    fn calibration_exact_at_ideal_range() {
        let at_range = received_power_dbm(200.0);
        assert!((at_range - RX_THRESHOLD_DBM).abs() < 1e-9);
        assert!(received_power_dbm(199.0) > RX_THRESHOLD_DBM);
        assert!(received_power_dbm(201.0) < RX_THRESHOLD_DBM);
    }

    #[test]
    fn power_monotone_decreasing_and_capped() {
        assert_eq!(received_power_dbm(0.0), TX_POWER_DBM);
        let mut last = f64::INFINITY;
        for d in [1.0, 10.0, 50.0, 86.0, 100.0, 200.0, 400.0, 1000.0] {
            let pw = received_power_dbm(d);
            assert!(pw <= TX_POWER_DBM);
            assert!(pw < last, "power must decrease with distance");
            last = pw;
        }
    }

    #[test]
    fn two_ray_slope_changes_at_crossover() {
        // d⁻² regime: halving distance gains 6 dB; d⁻⁴ regime: 12 dB.
        let near = received_power_dbm(20.0) - received_power_dbm(40.0);
        assert!((near - 6.02).abs() < 0.1, "near-field slope {near}");
        let far = received_power_dbm(150.0) - received_power_dbm(300.0);
        assert!((far - 12.04).abs() < 0.1, "far-field slope {far}");
    }

    /// The rational hot-path curve agrees with the dBm-domain reference
    /// model (exponentiated to mW) to floating-point tolerance, including
    /// d = 0, the crossover and the cap.
    #[test]
    fn rational_curve_matches_dbm_reference() {
        for d in [0.0, 0.5, 1.0, 10.0, 85.9, 86.0, 86.1, 200.0, 283.0, 1000.0] {
            let reference = dbm_to_mw(received_power_dbm(d));
            let fast = received_power_mw_d2(d * d);
            assert!(
                (fast - reference).abs() <= 1e-9 * reference.max(1e-300),
                "mismatch at d={d}: {fast} vs {reference}"
            );
        }
        // Exactly at the calibrated range the curve hits the decode
        // threshold (up to rounding), which is what makes the d² ≤ r²
        // admission check equivalent to the dBm threshold check.
        let at_r = received_power_mw_d2(IDEAL_RANGE_M * IDEAL_RANGE_M);
        let thresh = dbm_to_mw(RX_THRESHOLD_DBM);
        assert!((at_r - thresh).abs() <= 1e-12 * thresh);
    }

    /// The hot-path curve and noise floor, bit for bit: a changed Fig. 2
    /// constant or a reordered f64 expression fails here.
    #[test]
    fn fig2_power_values_are_pinned() {
        let pinned: [(f64, u64); 7] = [
            (0.0, 0x403f9f6e4990f227),
            (1.0, 0x3f9198ab93511c45),
            (50.0, 0x3edcd473a17ded9a),
            (150.0, 0x3e90d8f427a84c44),
            (200.0, 0x3e75529502310086),
            (283.0, 0x3e554674fb244242),
            (600.0, 0x3e10d8f427a84c44),
        ];
        for (d, bits) in pinned {
            assert_eq!(received_power_mw_d2(d * d).to_bits(), bits, "d = {d}");
        }
        assert_eq!(dbm_to_mw(NOISE_DBM).to_bits(), 0x3dd5d5968969795c);
    }

    fn tx(medium: &mut Medium, id: u64, sender: u32, pos: Point, cands: &[(u32, Point)]) {
        medium.begin_tx(TxId(id), sender, pos, SimTime::from_millis(1), cands);
    }

    #[test]
    fn clean_reception_in_range() {
        let mut m = medium(phy());
        let rx = (1u32, Point::new(100.0, 0.0));
        tx(&mut m, 1, 0, Point::new(0.0, 0.0), &[rx]);
        assert_eq!(m.end_tx(TxId(1)), vec![1]);
    }

    #[test]
    fn out_of_range_receiver_hears_nothing() {
        let mut m = medium(phy());
        let rx = (1u32, Point::new(250.0, 0.0));
        tx(&mut m, 1, 0, Point::new(0.0, 0.0), &[rx]);
        assert!(m.end_tx(TxId(1)).is_empty());
    }

    #[test]
    fn collision_corrupts_reception() {
        // Hidden-terminal: receivers between two simultaneous senders.
        let mut m = medium(phy());
        let rx = (2u32, Point::new(100.0, 0.0));
        tx(&mut m, 1, 0, Point::new(0.0, 0.0), &[rx]);
        // Second sender equally far: SINR ≈ 0 dB < 10 dB.
        tx(&mut m, 2, 1, Point::new(200.0, 0.0), &[rx]);
        assert!(m.end_tx(TxId(1)).is_empty(), "first frame corrupted");
        assert!(
            m.end_tx(TxId(2)).is_empty(),
            "receiver was locked on frame 1"
        );
    }

    #[test]
    fn capture_effect_strong_signal_survives() {
        // The interferer is far enough that SINR stays above β = 10.
        let mut m = medium(phy());
        let rx = (2u32, Point::new(50.0, 0.0));
        tx(&mut m, 1, 0, Point::new(0.0, 0.0), &[rx]);
        tx(&mut m, 2, 1, Point::new(590.0, 0.0), &[]);
        assert_eq!(m.end_tx(TxId(1)), vec![2], "strong frame captured");
    }

    #[test]
    fn half_duplex_sender_cannot_receive() {
        let mut m = medium(phy());
        let a = Point::new(0.0, 0.0);
        let b = Point::new(100.0, 0.0);
        tx(&mut m, 1, 0, a, &[(1, b)]);
        // Node 1 starts its own transmission mid-reception.
        tx(&mut m, 2, 1, b, &[(0, a)]);
        assert!(m.end_tx(TxId(1)).is_empty(), "receiver turned transmitter");
        // Node 0 is also a transmitter, so it cannot hear node 1 either.
        assert!(m.end_tx(TxId(2)).is_empty());
    }

    #[test]
    fn half_duplex_abort_is_reported() {
        let mut m = medium(phy());
        let a = Point::new(0.0, 0.0);
        let b = Point::new(100.0, 0.0);
        let none = m.begin_tx(TxId(1), 0, a, SimTime::from_millis(1), &[(1, b)]);
        assert_eq!(none, None, "nothing to abort on a fresh medium");
        // Node 1 turns around mid-reception: its reception of tx 1 dies.
        let aborted = m.begin_tx(TxId(2), 1, b, SimTime::from_millis(1), &[(0, a)]);
        assert_eq!(aborted, Some(TxId(1)), "the aborted reception is surfaced");
        assert!(m.end_tx(TxId(1)).is_empty());
        assert!(m.end_tx(TxId(2)).is_empty());
    }

    #[test]
    fn carrier_sense() {
        let mut m = medium(phy());
        let origin = Point::new(0.0, 0.0);
        assert!(!m.channel_busy(5, origin));
        tx(&mut m, 1, 0, origin, &[]);
        assert!(m.channel_busy(5, Point::new(250.0, 0.0)), "within CS range");
        assert!(
            !m.channel_busy(5, Point::new(400.0, 0.0)),
            "beyond CS range"
        );
        assert!(
            m.channel_busy(0, Point::new(5000.0, 0.0)),
            "own tx always sensed"
        );
        assert_eq!(
            m.busy_until(5, Point::new(250.0, 0.0)),
            Some(SimTime::from_millis(1))
        );
        assert_eq!(
            m.busy_until(0, Point::new(5000.0, 0.0)),
            Some(SimTime::from_millis(1)),
            "own tx bounds the busy window at any distance"
        );
        m.end_tx(TxId(1));
        assert!(!m.channel_busy(5, Point::new(250.0, 0.0)));
    }

    #[test]
    fn protocol_model_guard_zone() {
        let mut m = Medium::new(PhyConfig::protocol_model(), 1000.0);
        let rx = (2u32, Point::new(150.0, 0.0));
        tx(&mut m, 1, 0, Point::new(0.0, 0.0), &[rx]);
        // Interferer within (1+Δ)·r = 300 m of the receiver corrupts.
        tx(&mut m, 2, 1, Point::new(400.0, 0.0), &[]);
        assert!(m.end_tx(TxId(1)).is_empty());
        // Interferer beyond the guard zone does not.
        let mut m2 = Medium::new(PhyConfig::protocol_model(), 1000.0);
        tx(&mut m2, 1, 0, Point::new(0.0, 0.0), &[rx]);
        tx(&mut m2, 2, 1, Point::new(500.0, 0.0), &[]);
        assert_eq!(m2.end_tx(TxId(1)), vec![2]);
    }

    #[test]
    fn cumulative_interference_adds_up() {
        // Two interferers, each individually tolerable, jointly push SINR
        // below β for an edge-of-range signal. Signal at 195 m ≈ −70.6 dBm;
        // an interferer at 400 m contributes ≈ −83.0 dBm, so one leaves
        // SINR ≈ 12 dB (fine) but two leave ≈ 9.5 dB < β = 10 dB.
        let rx = (9u32, Point::new(195.0, 0.0));
        let mut one = medium(phy());
        tx(&mut one, 1, 0, Point::new(0.0, 0.0), &[rx]);
        tx(&mut one, 2, 1, Point::new(595.0, 0.0), &[]);
        assert_eq!(one.end_tx(TxId(1)), vec![9], "single interferer tolerated");

        let mut two = medium(phy());
        tx(&mut two, 1, 0, Point::new(0.0, 0.0), &[rx]);
        tx(&mut two, 2, 1, Point::new(595.0, 0.0), &[]);
        tx(&mut two, 3, 2, Point::new(195.0, 400.0), &[]);
        assert!(two.end_tx(TxId(1)).is_empty(), "cumulative noise corrupts");
    }

    #[test]
    fn interference_bookkeeping_tracks_begin_and_end() {
        let mut m = medium(phy());
        let rx = (9u32, Point::new(100.0, 0.0));
        tx(&mut m, 1, 0, Point::new(0.0, 0.0), &[rx]);
        assert_eq!(m.pending_interference_mw(9), Some(0.0));
        tx(&mut m, 2, 1, Point::new(500.0, 0.0), &[]);
        let with_one = m.pending_interference_mw(9).unwrap();
        assert!(with_one > 0.0);
        tx(&mut m, 3, 2, Point::new(100.0, 500.0), &[]);
        let with_two = m.pending_interference_mw(9).unwrap();
        assert!(with_two > with_one);
        m.end_tx(TxId(3));
        assert_eq!(m.pending_interference_mw(9), Some(with_one));
        m.end_tx(TxId(2));
        assert_eq!(m.pending_interference_mw(9), Some(0.0));
        assert_eq!(m.end_tx(TxId(1)), vec![9]);
        assert_eq!(m.pending_interference_mw(9), None);
    }

    #[test]
    fn begin_tx_work_is_local() {
        // Ongoing transmissions far outside interference range must not
        // add to the cost of a local begin/end cycle (sub-quadratic
        // locality guard; `work` counts examined tx/rx pairs). All
        // counts sit above `DIRECT_SCAN_MAX` so the grid path is in
        // charge — below it the whole (constant-bounded) slab is
        // scanned by design.
        let far_counts = [24usize, 48, 96];
        let mut costs = Vec::new();
        for &far in &far_counts {
            let mut m = Medium::new(phy(), 10_000.0);
            // A distant cluster of ongoing transmissions (> 2 km away).
            for i in 0..far {
                tx(
                    &mut m,
                    1000 + i as u64,
                    100 + i as u32,
                    Point::new(9000.0, 9000.0),
                    &[],
                );
            }
            let before = m.work();
            let rx = (1u32, Point::new(100.0, 0.0));
            tx(&mut m, 1, 0, Point::new(0.0, 0.0), &[rx]);
            assert_eq!(m.end_tx(TxId(1)), vec![1]);
            costs.push(m.work() - before);
        }
        assert_eq!(
            costs[0], costs[1],
            "distant ongoing txs changed local begin/end cost"
        );
        assert_eq!(costs[1], costs[2], "cost must not scale with far load");
    }
}
