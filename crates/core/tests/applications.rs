//! End-to-end tests of the higher-level applications built over the
//! biquorum layer: the probabilistic register and publish/subscribe.

use pqs_core::pubsub::PubSub;
use pqs_core::register::RegisterOp;
use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_core::{Fanout, QuorumNet, QuorumStack};
use pqs_net::Network;
use pqs_sim::{SimDuration, SimTime};

/// A static network + stack with parallel RANDOM lookups (multi-reply,
/// as both applications need).
fn build(n: usize, seed: u64) -> (QuorumNet, QuorumStack) {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.service.lookup_fanout = Fanout::Parallel;
    // Tests need near-certain intersection, not the paper's 0.9: size
    // both quorums so that ε = e^(-|Qa||Ql|/n) ≈ 1e-4.
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

#[test]
fn register_reads_return_latest_write() {
    let (mut net, mut stack) = build(80, 41);
    let a = net.alive_nodes()[3];
    let b = net.alive_nodes()[40];
    let reader = net.alive_nodes()[70];
    let key = 0x9000;

    // Write 1 from a.
    let mut w1 = RegisterOp::write(&mut stack, &mut net, a, key, 111);
    run_for(&mut net, &mut stack, 30);
    assert!(!w1.pump(&mut stack, &mut net) || w1.result().is_some());
    run_for(&mut net, &mut stack, 30);
    assert!(w1.pump(&mut stack, &mut net), "write 1 must finish");
    assert_eq!(
        w1.result(),
        Some((1, 111)),
        "first write installs version 1"
    );

    // Write 2 from b: must observe version 1 and install version 2.
    let mut w2 = RegisterOp::write(&mut stack, &mut net, b, key, 222);
    run_for(&mut net, &mut stack, 30);
    w2.pump(&mut stack, &mut net);
    run_for(&mut net, &mut stack, 30);
    assert!(w2.pump(&mut stack, &mut net), "write 2 must finish");
    assert_eq!(w2.result(), Some((2, 222)), "second write dominates");

    // Read from an uninvolved node: must return the latest write.
    let mut r = RegisterOp::read(&mut stack, &mut net, reader, key);
    run_for(&mut net, &mut stack, 30);
    r.pump(&mut stack, &mut net);
    run_for(&mut net, &mut stack, 30);
    assert!(r.pump(&mut stack, &mut net), "read must finish");
    assert_eq!(
        r.result(),
        Some((2, 222)),
        "read returns the newest version"
    );
}

#[test]
fn register_read_of_unwritten_key_is_bottom() {
    let (mut net, mut stack) = build(50, 42);
    let reader = net.alive_nodes()[10];
    let mut r = RegisterOp::read(&mut stack, &mut net, reader, 0xABCD);
    net.run(&mut stack, SimTime::from_secs(40));
    assert!(r.pump(&mut stack, &mut net));
    assert_eq!(r.result(), None);
}

#[test]
fn register_versions_stay_monotone_under_delay_and_duplication() {
    // Delayed and duplicated frames re-deliver old replies after newer
    // writes landed: the register's read-repair must never move a key's
    // version backwards, and repeated reads must see non-decreasing
    // versions.
    let (mut net, mut stack) = build(60, 47);
    net.install_faults(
        pqs_net::FaultPlan::new()
            .delay_data_frames(0.4, SimDuration::from_millis(60))
            .duplicate_data_frames(0.3),
    );
    let writer_a = net.alive_nodes()[2];
    let writer_b = net.alive_nodes()[30];
    let reader = net.alive_nodes()[50];
    let key = 0x7171;

    let mut last_version = 0u32;
    for (round, writer) in [writer_a, writer_b, writer_a, writer_b]
        .into_iter()
        .enumerate()
    {
        let mut w = RegisterOp::write(&mut stack, &mut net, writer, key, 1000 + round as u32);
        for _ in 0..6 {
            run_for(&mut net, &mut stack, 20);
            if w.pump(&mut stack, &mut net) {
                break;
            }
        }
        let (version, data) = w.result().expect("write must finish");
        assert!(
            version > last_version,
            "write {round} regressed the version: {version} after {last_version}"
        );
        assert_eq!(data, 1000 + round as u32);
        last_version = version;

        let mut r = RegisterOp::read(&mut stack, &mut net, reader, key);
        for _ in 0..6 {
            run_for(&mut net, &mut stack, 20);
            if r.pump(&mut stack, &mut net) {
                break;
            }
        }
        let (read_version, _) = r.result().expect("read of a written key");
        assert!(
            read_version >= last_version,
            "round {round}: read version {read_version} behind write {last_version} \
             (duplicated stale replies must not win)"
        );
        last_version = last_version.max(read_version);
    }
    assert_eq!(last_version, 4, "four writes, four versions");
}

#[test]
fn pubsub_notifies_active_subscribers_only() {
    let (mut net, mut stack) = build(80, 43);
    let mut pubsub = PubSub::new();
    let sub1 = net.alive_nodes()[5];
    let sub2 = net.alive_nodes()[33];
    let publisher = net.alive_nodes()[66];
    let topic = 9;

    pubsub.subscribe(&mut stack, &mut net, sub1, topic);
    pubsub.subscribe(&mut stack, &mut net, sub2, topic);
    run_for(&mut net, &mut stack, 40);

    pubsub.publish(&mut stack, &mut net, publisher, topic);
    run_for(&mut net, &mut stack, 30);
    pubsub.harvest(&stack);
    let notified: Vec<_> = pubsub
        .notifications()
        .iter()
        .filter(|&&(t, p, _)| t == topic && p == publisher)
        .map(|&(_, _, s)| s)
        .collect();
    assert!(
        notified.contains(&sub1),
        "subscriber 1 notified: {notified:?}"
    );
    assert!(
        notified.contains(&sub2),
        "subscriber 2 notified: {notified:?}"
    );

    // Unsubscribe sub1; a later publish should (almost surely, with
    // parallel full-quorum probing) not notify it.
    pubsub.unsubscribe(&mut stack, &mut net, sub1, topic);
    run_for(&mut net, &mut stack, 40);
    pubsub.publish(&mut stack, &mut net, publisher, topic);
    run_for(&mut net, &mut stack, 30);
    let before = pubsub.notifications().len();
    pubsub.harvest(&stack);
    let new_notifications = &pubsub.notifications()[before..];
    assert!(
        new_notifications.iter().any(|&(_, _, s)| s == sub2),
        "active subscriber still notified"
    );
    assert!(
        !new_notifications.iter().any(|&(_, _, s)| s == sub1),
        "withdrawn subscriber must not be notified (stale version discarded)"
    );
    assert_eq!(
        pubsub.version(sub1, topic),
        Some(2),
        "unsubscribe bumped version"
    );
}
