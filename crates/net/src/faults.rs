//! Deterministic, seeded fault injection.
//!
//! The paper's claims all concern behaviour under adversity — ε-bounded
//! quorum intersection while nodes crash, move and lose frames (§6.1),
//! and local repair when they do (§6.2). This module turns "adversity"
//! into a first-class, declarative input: a [`FaultPlan`] describes
//! *what* goes wrong and *when* (frame drops/delays/duplicates from the
//! start of the run, node and region crashes, area partitions,
//! Byzantine behaviours), and [`crate::Network`] executes it at frame
//! delivery using a dedicated RNG stream
//! (`pqs_sim::rng::streams::FAULTS`). The same master seed and plan
//! therefore reproduce an identical event trace, which is what makes
//! fault scenarios regression-testable.
//!
//! # Examples
//!
//! ```
//! use pqs_net::{faults::FaultPlan, NodeId};
//! use pqs_sim::SimTime;
//!
//! let plan = FaultPlan::new()
//!     .crash_at(NodeId(3), SimTime::from_secs(45))
//!     .partition_vertical(0.5, SimTime::from_secs(30), SimTime::from_secs(60));
//! assert_eq!(plan.first_activity(), Some(SimTime::from_secs(30)));
//! // Frame rules act from t = 0.
//! assert_eq!(plan.drop_frames(0.10).first_activity(), Some(SimTime::ZERO));
//! ```

use crate::geometry::Point;
use crate::NodeId;
use pqs_sim::rng::{self, streams};
use pqs_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// A probabilistic fault on every frame on the air, from t = 0 on.
///
/// Drop applies to every frame kind (data, hello, ACK); delay and
/// duplication apply to *data deliveries* only — hellos and ACKs have no
/// meaningful deferred-delivery semantics at this abstraction level.
#[derive(Debug, Clone, Default, PartialEq)]
struct FrameFaultRule {
    /// Probability a frame reception is silently lost.
    drop_prob: f64,
    /// Probability a surviving data delivery is deferred.
    delay_prob: f64,
    /// Maximum extra delivery latency (uniform in `(0, max]`).
    max_delay: SimDuration,
    /// Probability a surviving data delivery is delivered twice.
    duplicate_prob: f64,
}

/// A scheduled node- or region-level fault.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeFaultEvent {
    /// Crash one node at `at`.
    Crash {
        /// The victim.
        node: NodeId,
        /// When it goes down.
        at: SimTime,
    },
    /// Recover (rejoin) one node at `at`.
    Recover {
        /// The node coming back.
        node: NodeId,
        /// When it comes back.
        at: SimTime,
    },
    /// Crash every alive node inside a disc at `at` (a localized
    /// catastrophe — e.g. the paper's motivating disaster-area scenario).
    RegionCrash {
        /// Disc centre.
        center: Point,
        /// Disc radius in metres.
        radius_m: f64,
        /// When the region goes down.
        at: SimTime,
    },
    /// Recover every dead node whose last position is inside a disc at
    /// `at` — the healing counterpart of [`NodeFaultEvent::RegionCrash`].
    RegionRecover {
        /// Disc centre.
        center: Point,
        /// Disc radius in metres.
        radius_m: f64,
        /// When the region heals.
        at: SimTime,
    },
}

/// A Byzantine per-node behavior, applied at the *reply-generation*
/// boundary in `pqs-core` — the PHY/MAC below stay byte-identical, so a
/// behavior plan never perturbs frame-level randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeBehavior {
    /// Receives and forwards, but never answers a lookup (fail-silent).
    Silent,
    /// Always answers with a fabricated value — the same lie to every
    /// requester.
    Liar,
    /// Answers with its oldest stored value, never the newest.
    Stale,
    /// Answers with a different fabricated value per requester.
    Equivocator,
}

/// Marks `round(fraction·n)` distinct nodes, sampled from the dedicated
/// BYZ RNG stream, cycling through `behaviors`.
#[derive(Debug, Clone, PartialEq)]
struct BehaviorRule {
    /// Fraction of the population to corrupt, in `[0, 1]`.
    fraction: f64,
    /// The behavior mix assigned round-robin over the sample.
    behaviors: Vec<NodeBehavior>,
}

/// A network partition: during the window, frames crossing the vertical
/// line `x = fraction · side` are dropped deterministically (no RNG).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PartitionWindow {
    /// Window start (inclusive).
    from: SimTime,
    /// Window end (exclusive).
    until: SimTime,
    /// Position of the cut as a fraction of the area side, in `(0, 1)`.
    x_fraction: f64,
}

impl PartitionWindow {
    fn severs(&self, now: SimTime, side_m: f64, a: Point, b: Point) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let cut = self.x_fraction * side_m;
        (a.x < cut) != (b.x < cut)
    }
}

/// A declarative fault schedule: what goes wrong, when, and to whom.
///
/// Build with the fluent helpers, install with
/// [`crate::Network::install_faults`]. An empty plan injects nothing and
/// draws nothing from the fault RNG stream, so installing it leaves a
/// simulation bit-identical to one without a plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    frame_rules: Vec<FrameFaultRule>,
    node_events: Vec<NodeFaultEvent>,
    partitions: Vec<PartitionWindow>,
    behavior_rules: Vec<BehaviorRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every frame kind with probability `prob`, everywhere,
    /// forever.
    pub fn drop_frames(mut self, prob: f64) -> Self {
        self.frame_rules.push(FrameFaultRule {
            drop_prob: prob,
            ..FrameFaultRule::default()
        });
        self
    }

    /// Defers data deliveries with probability `prob` by up to
    /// `max_delay`.
    pub fn delay_data_frames(mut self, prob: f64, max_delay: SimDuration) -> Self {
        self.frame_rules.push(FrameFaultRule {
            delay_prob: prob,
            max_delay,
            ..FrameFaultRule::default()
        });
        self
    }

    /// Duplicates data deliveries with probability `prob`.
    pub fn duplicate_data_frames(mut self, prob: f64) -> Self {
        self.frame_rules.push(FrameFaultRule {
            duplicate_prob: prob,
            ..FrameFaultRule::default()
        });
        self
    }

    /// Crashes `node` at `at`.
    pub fn crash_at(mut self, node: NodeId, at: SimTime) -> Self {
        self.node_events.push(NodeFaultEvent::Crash { node, at });
        self
    }

    /// Recovers (rejoins) `node` at `at`.
    pub fn recover_at(mut self, node: NodeId, at: SimTime) -> Self {
        self.node_events.push(NodeFaultEvent::Recover { node, at });
        self
    }

    /// Crashes every node inside the disc at `at`.
    pub fn crash_region(mut self, center: Point, radius_m: f64, at: SimTime) -> Self {
        self.node_events.push(NodeFaultEvent::RegionCrash {
            center,
            radius_m,
            at,
        });
        self
    }

    /// Recovers every dead node whose last position is inside the disc
    /// at `at` — the healing counterpart of [`FaultPlan::crash_region`].
    pub fn recover_region(mut self, center: Point, radius_m: f64, at: SimTime) -> Self {
        self.node_events.push(NodeFaultEvent::RegionRecover {
            center,
            radius_m,
            at,
        });
        self
    }

    /// Corrupts `round(fraction·n)` distinct nodes (sampled from the
    /// dedicated BYZ RNG stream at install time), cycling through
    /// `behaviors`.
    ///
    /// # Panics
    ///
    /// Panics when `fraction ∉ [0, 1]` or the mix is empty.
    pub fn behavior_fraction(mut self, fraction: f64, behaviors: &[NodeBehavior]) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "behavior fraction must be in [0, 1]"
        );
        assert!(!behaviors.is_empty(), "behavior mix must be non-empty");
        self.behavior_rules.push(BehaviorRule {
            fraction,
            behaviors: behaviors.to_vec(),
        });
        self
    }

    /// Splits the area along `x = x_fraction · side` during the window.
    pub fn partition_vertical(mut self, x_fraction: f64, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(PartitionWindow {
            from,
            until,
            x_fraction,
        });
        self
    }

    /// The earliest instant at which the plan can influence a run:
    /// t = 0 if it has a frame rule, else its earliest timed node fault
    /// or partition opening. Behaviour rules never count — they only
    /// alter lookup replies, and resolve from a dedicated stream
    /// whenever the plan is installed.
    pub fn first_activity(&self) -> Option<SimTime> {
        let frames = (!self.frame_rules.is_empty()).then_some(SimTime::ZERO);
        let nodes = self.node_events.iter().map(|e| match *e {
            NodeFaultEvent::Crash { at, .. }
            | NodeFaultEvent::Recover { at, .. }
            | NodeFaultEvent::RegionCrash { at, .. }
            | NodeFaultEvent::RegionRecover { at, .. } => at,
        });
        let partitions = self.partitions.iter().map(|p| p.from);
        frames.into_iter().chain(nodes).chain(partitions).min()
    }

    /// The scheduled node/region fault events.
    pub(crate) fn node_events(&self) -> &[NodeFaultEvent] {
        &self.node_events
    }
}

/// Per-receiver fate of a frame that the PHY decoded successfully.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FrameFate {
    /// Deliver normally.
    Deliver,
    /// Silently lose it (the receiver never saw it).
    Drop,
    /// Deliver, but only after the extra latency.
    Delay(SimDuration),
    /// Deliver now and once more after the extra latency.
    Duplicate(SimDuration),
}

/// Executes a [`FaultPlan`] against live traffic.
///
/// Created by [`crate::Network::install_faults`]; draws exclusively from
/// the dedicated `FAULTS` RNG stream so fault decisions never perturb
/// placement, MAC or protocol randomness.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    /// Per-node Byzantine behavior, resolved once at install time from
    /// the dedicated BYZ stream (never the FAULTS stream, so behavior
    /// plans leave every frame-fate decision byte-identical).
    behaviors: Vec<Option<NodeBehavior>>,
}

impl FaultInjector {
    /// Builds an injector for `plan`, seeded from the simulation's
    /// master seed. `node_count` bounds the population the behavior
    /// rules are resolved over; a plan without behavior rules draws
    /// nothing from the BYZ stream.
    pub(crate) fn new(plan: FaultPlan, master_seed: u64, node_count: usize) -> Self {
        let behaviors = resolve_behaviors(&plan.behavior_rules, master_seed, node_count);
        FaultInjector {
            plan,
            rng: rng::stream(master_seed, streams::FAULTS),
            behaviors,
        }
    }

    /// The Byzantine behavior assigned to `node`, if any.
    pub(crate) fn behavior_of(&self, node: NodeId) -> Option<NodeBehavior> {
        self.behaviors.get(node.0 as usize).copied().flatten()
    }

    /// How many nodes carry any Byzantine behavior.
    pub(crate) fn byzantine_count(&self) -> usize {
        self.behaviors.iter().filter(|b| b.is_some()).count()
    }

    /// Decides the fate of one successfully decoded frame reception.
    ///
    /// `is_data` selects eligibility for delay/duplication; drops and
    /// partitions apply to every kind. Partitions are checked first and
    /// consume no randomness.
    pub(crate) fn frame_fate(
        &mut self,
        now: SimTime,
        side_m: f64,
        sender_pos: Point,
        rx_pos: Point,
        is_data: bool,
    ) -> FrameFate {
        for window in &self.plan.partitions {
            if window.severs(now, side_m, sender_pos, rx_pos) {
                return FrameFate::Drop;
            }
        }
        let mut fate = FrameFate::Deliver;
        for rule in &self.plan.frame_rules {
            if rule.drop_prob > 0.0 && self.rng.gen_bool(rule.drop_prob) {
                return FrameFate::Drop;
            }
            if !is_data || fate != FrameFate::Deliver {
                continue;
            }
            if rule.delay_prob > 0.0 && self.rng.gen_bool(rule.delay_prob) {
                fate = FrameFate::Delay(sample_delay(&mut self.rng, rule.max_delay));
            } else if rule.duplicate_prob > 0.0 && self.rng.gen_bool(rule.duplicate_prob) {
                fate = FrameFate::Duplicate(sample_delay(&mut self.rng, rule.max_delay));
            }
        }
        fate
    }
}

/// Uniform in `(0, max]`, with a small floor so deferred deliveries are
/// strictly after the original reception instant.
fn sample_delay(rng: &mut StdRng, max: SimDuration) -> SimDuration {
    let max_us = max.as_micros().max(1);
    SimDuration::from_micros(rng.gen_range(0..max_us) + 1)
}

/// Resolves the behavior rules into a per-node assignment: each rule
/// samples distinct victims by a partial Fisher–Yates over the
/// population using the BYZ stream, later rules overriding earlier ones.
/// An empty rule list touches no RNG at all.
fn resolve_behaviors(
    rules: &[BehaviorRule],
    master_seed: u64,
    node_count: usize,
) -> Vec<Option<NodeBehavior>> {
    let mut out = vec![None; node_count];
    if rules.is_empty() || node_count == 0 {
        return out;
    }
    let mut byz = rng::stream(master_seed, streams::BYZ);
    for BehaviorRule {
        fraction,
        behaviors,
    } in rules
    {
        let k = ((fraction * node_count as f64).round() as usize).min(node_count);
        let mut idx: Vec<usize> = (0..node_count).collect();
        for pick in 0..k {
            let j = byz.gen_range(pick..node_count);
            idx.swap(pick, j);
            out[idx[pick]] = Some(behaviors[pick % behaviors.len()]);
        }
    }
    out
}

/// A deterministic fabricated value for a Byzantine reply: mixes the
/// responder, the looked-up key and a salt — the responder itself for a
/// consistent lie ([`NodeBehavior::Liar`]), the requester for
/// per-requester lies ([`NodeBehavior::Equivocator`]) — and sets the
/// top bit so a fabrication can never collide with an honest value.
pub fn fabricated_value(responder: NodeId, key: u64, salt: NodeId) -> u64 {
    let mixed = rng::splitmix64(
        rng::splitmix64(u64::from(responder.0))
            ^ rng::splitmix64(key)
            ^ rng::splitmix64(u64::from(salt.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    mixed | (1 << 63)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_transparent_and_drawless() {
        let mut inj = FaultInjector::new(FaultPlan::new(), 1, 8);
        let p = Point::new(0.0, 0.0);
        for _ in 0..8 {
            assert_eq!(
                inj.frame_fate(SimTime::ZERO, 1000.0, p, p, true),
                FrameFate::Deliver
            );
        }
        // The RNG was never touched: a fresh injector's stream matches.
        let fresh = FaultInjector::new(FaultPlan::new(), 1, 8);
        assert_eq!(
            format!("{:?}", inj.rng),
            format!("{:?}", fresh.rng),
            "transparent plan must not consume randomness"
        );
    }

    #[test]
    fn full_drop_rule_drops_everything() {
        let plan = FaultPlan::new().drop_frames(1.0);
        let mut inj = FaultInjector::new(plan, 2, 8);
        let p = Point::new(1.0, 1.0);
        assert_eq!(
            inj.frame_fate(SimTime::ZERO, 1000.0, p, p, true),
            FrameFate::Drop
        );
    }

    #[test]
    fn partition_severs_only_crossing_links() {
        let plan = FaultPlan::new().partition_vertical(0.5, SimTime::ZERO, SimTime::from_secs(100));
        let mut inj = FaultInjector::new(plan, 4, 8);
        let west = Point::new(100.0, 0.0);
        let east = Point::new(900.0, 0.0);
        assert_eq!(
            inj.frame_fate(SimTime::ZERO, 1000.0, west, east, true),
            FrameFate::Drop
        );
        assert_eq!(
            inj.frame_fate(SimTime::ZERO, 1000.0, west, west, true),
            FrameFate::Deliver
        );
        // After the window the cut heals.
        assert_eq!(
            inj.frame_fate(SimTime::from_secs(100), 1000.0, west, east, true),
            FrameFate::Deliver
        );
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new()
            .drop_frames(0.3)
            .delay_data_frames(0.2, SimDuration::from_millis(5));
        let run = |seed| {
            let mut inj = FaultInjector::new(plan.clone(), seed, 8);
            let p = Point::new(0.0, 0.0);
            (0..256)
                .map(|i| inj.frame_fate(SimTime::from_micros(i), 1000.0, p, p, i % 3 != 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn behavior_fraction_is_seeded_and_counted() {
        let plan = FaultPlan::new().behavior_fraction(
            0.25,
            &[
                NodeBehavior::Liar,
                NodeBehavior::Silent,
                NodeBehavior::Stale,
            ],
        );
        let assign = |seed| {
            let inj = FaultInjector::new(plan.clone(), seed, 40);
            (0..40)
                .map(|i| inj.behavior_of(NodeId(i)))
                .collect::<Vec<_>>()
        };
        let a = assign(9);
        assert_eq!(a, assign(9), "same seed, same assignment");
        assert_ne!(a, assign(10), "different seed, different victims");
        assert_eq!(
            a.iter().filter(|b| b.is_some()).count(),
            10,
            "round(0.25·40)"
        );
        // The mix cycles: all three behaviors appear in a 10-node sample.
        for b in [
            NodeBehavior::Liar,
            NodeBehavior::Silent,
            NodeBehavior::Stale,
        ] {
            assert!(a.contains(&Some(b)), "{b:?} missing from the mix");
        }
    }

    #[test]
    fn behavior_rules_do_not_touch_the_frame_stream() {
        // A behavior-only plan must leave frame fates byte-identical to
        // no plan at all: behaviors resolve from the BYZ stream, frame
        // fates from FAULTS.
        let plan = FaultPlan::new().behavior_fraction(0.5, &[NodeBehavior::Liar]);
        let mut inj = FaultInjector::new(plan, 1, 8);
        let p = Point::new(0.0, 0.0);
        for _ in 0..8 {
            assert_eq!(
                inj.frame_fate(SimTime::ZERO, 1000.0, p, p, true),
                FrameFate::Deliver
            );
        }
        let fresh = FaultInjector::new(FaultPlan::new(), 1, 8);
        assert_eq!(
            format!("{:?}", inj.rng),
            format!("{:?}", fresh.rng),
            "behavior resolution must not consume frame-fate randomness"
        );
    }

    #[test]
    fn fabricated_values_are_marked_and_distinct() {
        let a = fabricated_value(NodeId(1), 42, NodeId(1));
        let b = fabricated_value(NodeId(2), 42, NodeId(2));
        let c = fabricated_value(NodeId(1), 43, NodeId(1));
        let d = fabricated_value(NodeId(1), 42, NodeId(9));
        assert!(a >> 63 == 1 && b >> 63 == 1, "top bit marks fabrications");
        assert_ne!(a, b, "per-responder lies differ");
        assert_ne!(a, c, "per-key lies differ");
        assert_ne!(a, d, "per-requester (equivocated) lies differ");
        assert_eq!(a, fabricated_value(NodeId(1), 42, NodeId(1)));
    }
}
