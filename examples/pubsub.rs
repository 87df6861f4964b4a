//! Decentralised publish/subscribe over probabilistic biquorums — the
//! §10 future-work sketch, made concrete.
//!
//! Subscriptions are disseminated to an *advertise* quorum; publications
//! are sent to a *lookup* quorum; every lookup-quorum member matches the
//! event against the subscriptions it stores and notifies the matching
//! subscribers. Because publications typically outnumber subscriptions,
//! the asymmetric construction pays off exactly as for the location
//! service: the frequent operation (publish) uses the cheap strategy.
//!
//! The paper highlights one open problem — *unsubscription* — which this
//! example solves with **subscription versions**: an unsubscribe is a
//! re-advertisement of the topic with a higher version and an empty
//! interest, and quorum members discard stale versions on contact. A
//! subscriber that unsubscribes may still receive a few notifications
//! from members holding the old version (probabilistically bounded by
//! the non-intersection probability ε), matching the system's overall
//! probabilistic guarantees.
//!
//! The implementation reuses the location-service substrate: a
//! subscription for topic `t` by node `s` with version `v` is the
//! mapping `key = topic_key(t) → value = pack(s, v)`. [`PubSub`] keeps
//! the *matching and notification bookkeeping* that turns those stored
//! mappings into a pub/sub service; the delivery mechanics reuse
//! [`QuorumStack`].
//!
//! Run with: `cargo run --release --example pubsub`

use pqs::core::runner::ScenarioConfig;
use pqs::core::spec::{AccessStrategy, QuorumSpec};
use pqs::core::{Fanout, Key, OpId, QuorumNet, QuorumStack, Value};
use pqs::net::{Network, NodeId};
use pqs::sim::SimDuration;
use std::collections::HashMap;

/// A topic identifier.
type Topic = u32;

/// Packs a subscriber id and subscription version into a store value:
/// bit 0 = active, bits 1..25 = version (24 bits, wrapping), bits
/// 25..57 = subscriber id.
fn pack(subscriber: NodeId, version: u32, active: bool) -> Value {
    (u64::from(subscriber.0) << 25) | (u64::from(version & 0x00FF_FFFF) << 1) | u64::from(active)
}

fn unpack(value: Value) -> (NodeId, u32, bool) {
    (
        NodeId((value >> 25) as u32),
        ((value >> 1) & 0x00FF_FFFF) as u32,
        value & 1 == 1,
    )
}

/// Maps a topic to the key space used for its subscriptions. Topic keys
/// live far above the location-service keys (which the workload keeps
/// below ~10⁶).
fn topic_key(topic: Topic) -> Key {
    0x5 << 60 | u64::from(topic)
}

/// Publish/subscribe façade over a [`QuorumStack`].
///
/// One `PubSub` instance manages the pub/sub state of all simulated
/// nodes (like the stack itself). Subscriptions are propagated through
/// the stack's *advertise* quorum; publications query its *lookup*
/// quorum and collect matched subscribers from the values returned.
#[derive(Debug, Default)]
struct PubSub {
    /// Per-node subscription versions: (node, topic) → version.
    versions: HashMap<(NodeId, Topic), u32>,
    /// Outstanding publish operations → topic.
    publishes: HashMap<OpId, Topic>,
    /// Notifications delivered: (topic, publisher, subscriber).
    notifications: Vec<(Topic, NodeId, NodeId)>,
}

impl PubSub {
    /// Subscribes `node` to `topic`: disseminates the subscription to an
    /// advertise quorum.
    fn subscribe(
        &mut self,
        stack: &mut QuorumStack,
        net: &mut QuorumNet,
        node: NodeId,
        topic: Topic,
    ) {
        self.advertise(stack, net, node, topic, true);
    }

    /// Unsubscribes `node` from `topic`: re-advertises the topic with a
    /// higher version and the interest withdrawn. Quorum members that
    /// receive the new version stop matching; members missed by the new
    /// advertise quorum may deliver stray notifications with probability
    /// bounded by ε (the paper's open unsubscription problem, resolved
    /// probabilistically).
    fn unsubscribe(
        &mut self,
        stack: &mut QuorumStack,
        net: &mut QuorumNet,
        node: NodeId,
        topic: Topic,
    ) {
        self.advertise(stack, net, node, topic, false);
    }

    fn advertise(
        &mut self,
        stack: &mut QuorumStack,
        net: &mut QuorumNet,
        node: NodeId,
        topic: Topic,
        active: bool,
    ) {
        let version = self
            .versions
            .entry((node, topic))
            .and_modify(|v| *v += 1)
            .or_insert(1);
        stack.advertise(net, node, topic_key(topic), pack(node, *version, active));
    }

    /// Publishes an event on `topic` from `node`: queries a lookup
    /// quorum; matching happens when the replies are harvested with
    /// [`PubSub::harvest`].
    ///
    /// The stack's lookup must be configured to gather multiple replies
    /// (parallel RANDOM fan-out, or flooding) for multi-subscriber
    /// topics; an early-halting walk returns the first subscriber only.
    fn publish(
        &mut self,
        stack: &mut QuorumStack,
        net: &mut QuorumNet,
        node: NodeId,
        topic: Topic,
    ) {
        let op = stack.lookup(net, node, topic_key(topic));
        self.publishes.insert(op, topic);
    }

    /// Harvests completed publish operations: resolves the values seen by
    /// each publish into subscriber notifications, dropping withdrawn
    /// (unsubscribed) and stale versions. Call after the network has run
    /// past the publish horizon.
    fn harvest(&mut self, stack: &QuorumStack) {
        let mut done = Vec::new();
        for (&op, &topic) in &self.publishes {
            let Some(record) = stack.op(op) else { continue };
            // Keep only the newest version per subscriber. (No completion
            // gating: the caller runs the network past the publish
            // horizon before harvesting; topics with no subscribers never
            // produce a completion event under parallel probing.)
            let mut newest: HashMap<NodeId, (u32, bool)> = HashMap::new();
            for &value in &record.values_seen {
                let (subscriber, version, active) = unpack(value);
                let entry = newest.entry(subscriber).or_insert((version, active));
                if version > entry.0 {
                    *entry = (version, active);
                }
            }
            let publisher = record.origin;
            let mut subscribers: Vec<NodeId> = newest
                .into_iter()
                .filter(|&(_, (_, active))| active)
                .map(|(s, _)| s)
                .collect();
            subscribers.sort_unstable();
            for subscriber in subscribers {
                self.notifications.push((topic, publisher, subscriber));
            }
            done.push(op);
        }
        for op in done {
            self.publishes.remove(&op);
        }
    }

    /// All notifications delivered so far: `(topic, publisher,
    /// subscriber)` triples in completion order.
    fn notifications(&self) -> &[(Topic, NodeId, NodeId)] {
        &self.notifications
    }

    /// The current subscription version of `(node, topic)` (diagnostics).
    fn version(&self, node: NodeId, topic: Topic) -> Option<u32> {
        self.versions.get(&(node, topic)).copied()
    }
}

/// A static network + stack with parallel RANDOM lookups (multi-reply,
/// as publications need), both quorums sized so that
/// ε = e^(−|Qa||Qℓ|/n) ≈ 1e-4 rather than the paper's 0.1.
fn build(n: usize, seed: u64) -> (QuorumNet, QuorumStack) {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.service.lookup_fanout = Fanout::Parallel;
    let q = (2.8 * (n as f64).sqrt()).round() as u32;
    cfg.service.membership_view_factor = 3.0;
    cfg.service.spec.advertise = QuorumSpec::new(AccessStrategy::Random, q);
    cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::Random, q);
    let mut net_cfg = cfg.net.clone();
    net_cfg.seed = seed;
    let net: QuorumNet = Network::new(net_cfg);
    let stack = QuorumStack::new(&net, cfg.service, seed);
    (net, stack)
}

fn run_for(net: &mut QuorumNet, stack: &mut QuorumStack, secs: u64) {
    let horizon = net.now() + SimDuration::from_secs(secs);
    net.run(stack, horizon);
}

/// Publishes on `topic` from `publisher` and returns the subscribers
/// this publication notified.
fn notified(
    pubsub: &mut PubSub,
    stack: &mut QuorumStack,
    net: &mut QuorumNet,
    publisher: NodeId,
    topic: Topic,
) -> Vec<NodeId> {
    pubsub.publish(stack, net, publisher, topic);
    run_for(net, stack, 30);
    let before = pubsub.notifications().len();
    pubsub.harvest(stack);
    pubsub.notifications()[before..]
        .iter()
        .filter(|&&(t, p, _)| t == topic && p == publisher)
        .map(|&(_, _, s)| s)
        .collect()
}

fn main() {
    let (mut net, mut stack) = build(80, 43);
    let mut pubsub = PubSub::default();
    let sub1 = net.alive_nodes()[5];
    let sub2 = net.alive_nodes()[33];
    let publisher = net.alive_nodes()[66];
    let topic = 9;

    println!("publish/subscribe over 80 nodes");
    pubsub.subscribe(&mut stack, &mut net, sub1, topic);
    pubsub.subscribe(&mut stack, &mut net, sub2, topic);
    run_for(&mut net, &mut stack, 40);
    let first = notified(&mut pubsub, &mut stack, &mut net, publisher, topic);
    println!("{sub1:?} and {sub2:?} subscribed; a publication notified {first:?}");

    pubsub.unsubscribe(&mut stack, &mut net, sub1, topic);
    run_for(&mut net, &mut stack, 40);
    let second = notified(&mut pubsub, &mut stack, &mut net, publisher, topic);
    let version = pubsub.version(sub1, topic).expect("subscribed once");
    println!("{sub1:?} unsubscribed (version {version}); the next publication notified {second:?}");
    assert!(second.contains(&sub2) && !second.contains(&sub1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips() {
        for (node, version, active) in [
            (NodeId(0), 1, true),
            (NodeId(799), 42, false),
            (NodeId(u32::MAX), 0x00FF_FFFF, true),
        ] {
            assert_eq!(unpack(pack(node, version, active)), (node, version, active));
        }
    }

    #[test]
    fn topic_keys_disjoint_from_workload_keys() {
        // Workload keys stay below 10^6; topic keys must never collide.
        assert!(topic_key(0) > 1_000_000_000);
        assert_ne!(topic_key(1), topic_key(2));
    }

    #[test]
    fn versions_increase_per_subscription() {
        let mut ps = PubSub::default();
        // Only the version bookkeeping is exercised here; end-to-end
        // behaviour is covered by the test below.
        ps.versions.insert((NodeId(1), 7), 3);
        assert_eq!(ps.version(NodeId(1), 7), Some(3));
        assert_eq!(ps.version(NodeId(2), 7), None);
    }

    #[test]
    fn pubsub_notifies_active_subscribers_only() {
        let (mut net, mut stack) = build(80, 43);
        let mut pubsub = PubSub::default();
        let sub1 = net.alive_nodes()[5];
        let sub2 = net.alive_nodes()[33];
        let publisher = net.alive_nodes()[66];
        let topic = 9;

        pubsub.subscribe(&mut stack, &mut net, sub1, topic);
        pubsub.subscribe(&mut stack, &mut net, sub2, topic);
        run_for(&mut net, &mut stack, 40);

        let first = notified(&mut pubsub, &mut stack, &mut net, publisher, topic);
        assert!(first.contains(&sub1), "subscriber 1 notified: {first:?}");
        assert!(first.contains(&sub2), "subscriber 2 notified: {first:?}");

        // Unsubscribe sub1; a later publish should (almost surely, with
        // parallel full-quorum probing) not notify it.
        pubsub.unsubscribe(&mut stack, &mut net, sub1, topic);
        run_for(&mut net, &mut stack, 40);
        let second = notified(&mut pubsub, &mut stack, &mut net, publisher, topic);
        assert!(second.contains(&sub2), "active subscriber still notified");
        assert!(
            !second.contains(&sub1),
            "withdrawn subscriber must not be notified (stale version discarded)"
        );
        assert_eq!(
            pubsub.version(sub1, topic),
            Some(2),
            "unsubscribe bumped version"
        );
    }
}
