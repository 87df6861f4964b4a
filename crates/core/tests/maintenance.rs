//! Focused tests of the §6/§7 maintenance machinery: reply-path
//! reduction, serial probing, caching roles, and the size estimator in
//! the protocol context.

use pqs_core::runner::ScenarioConfig;
use pqs_core::spec::{AccessStrategy, QuorumSpec};
use pqs_core::workload::WorkloadConfig;
use pqs_core::{Fanout, OpKind, QuorumNet, QuorumStack, Role};
use pqs_net::Network;
use pqs_sim::{SimDuration, SimTime};

fn build(n: usize, seed: u64, tweak: impl FnOnce(&mut ScenarioConfig)) -> (QuorumNet, QuorumStack) {
    let mut cfg = ScenarioConfig::paper(n);
    tweak(&mut cfg);
    let mut net_cfg = cfg.net.clone();
    net_cfg.seed = seed;
    let net: QuorumNet = Network::new(net_cfg);
    let stack = QuorumStack::new(&net, cfg.service, seed);
    (net, stack)
}

#[test]
fn reply_path_reduction_shortens_replies() {
    let runs = |reduce: bool| {
        let mut cfg = ScenarioConfig::paper(150);
        cfg.workload = WorkloadConfig::small(10, 60);
        cfg.service.reply_path_reduction = reduce;
        pqs_core::runner::aggregate(&pqs_core::run_seeds(&cfg, &[21, 22, 23]))
    };
    let with = runs(true);
    let without = runs(false);
    // Reduction skips reverse-path hops; total lookup cost must shrink
    // without hurting the hit ratio.
    assert!(
        with.msgs_per_lookup < without.msgs_per_lookup,
        "reduction should save messages: {} vs {}",
        with.msgs_per_lookup,
        without.msgs_per_lookup
    );
    assert!(with.hit_ratio >= without.hit_ratio - 0.08);
}

#[test]
fn serial_probing_visits_fewer_members_than_parallel() {
    let runs = |fanout: Fanout| {
        let mut cfg = ScenarioConfig::paper(100);
        cfg.workload = WorkloadConfig::small(10, 50);
        cfg.service.spec.lookup =
            QuorumSpec::new(AccessStrategy::Random, cfg.service.spec.lookup.size);
        cfg.service.lookup_fanout = fanout;
        pqs_core::runner::aggregate(&pqs_core::run_seeds(&cfg, &[31, 32]))
    };
    let serial = runs(Fanout::Serial);
    let parallel = runs(Fanout::Parallel);
    // §8.2: serial probing stops at the first hit — roughly half the
    // members — while parallel pays for the whole quorum.
    assert!(
        serial.msgs_per_lookup < parallel.msgs_per_lookup,
        "serial {} !< parallel {}",
        serial.msgs_per_lookup,
        parallel.msgs_per_lookup
    );
    assert!(serial.hit_ratio >= parallel.hit_ratio - 0.1);
    // (No latency assertion: serial probing is nominally slower, but a
    // parallel probe burst contends with itself at the MAC, so the
    // ordering flips depending on congestion.)
}

#[test]
fn caching_stores_bystander_copies_at_origins() {
    let (mut net, mut stack) = build(60, 51, |cfg| {
        cfg.service.caching = true;
    });
    let advertiser = net.alive_nodes()[2];
    let looker = net.alive_nodes()[30];
    stack.advertise(&mut net, advertiser, 555, 777);
    net.run(&mut stack, SimTime::from_secs(30));
    let op = stack.lookup(&mut net, looker, 555);
    net.run(&mut stack, SimTime::from_secs(60));
    let record = stack.op(op).expect("op recorded");
    assert!(record.replied(), "lookup should hit");
    // The looker now caches the mapping as a bystander (unless it was an
    // owner already).
    let role = stack.store_of(looker).role_of(555).expect("cached");
    assert!(matches!(role, Role::Bystander | Role::Owner));
    // A repeat lookup is free (answered locally).
    let walk_tx_before = stack.counters().walk_tx;
    let op2 = stack.lookup(&mut net, looker, 555);
    assert!(stack.op(op2).unwrap().replied(), "local cache answers");
    assert_eq!(stack.counters().walk_tx, walk_tx_before, "no walk needed");
}

#[test]
fn advertise_places_the_requested_quorum() {
    let (mut net, mut stack) = build(100, 52, |_| {});
    let advertiser = net.alive_nodes()[0];
    let qa = stack.config().spec.advertise.size;
    let op = stack.advertise(&mut net, advertiser, 901, 902);
    net.run(&mut stack, SimTime::from_secs(60));
    let record = stack.op(op).expect("op recorded");
    assert!(
        record.stores_placed() >= qa * 9 / 10,
        "stores placed {} of {qa}",
        record.stores_placed()
    );
    assert_eq!(record.kind(), OpKind::Advertise);
    // Count actual holders in the stores.
    let holders = net
        .alive_nodes()
        .into_iter()
        .filter(|&v| stack.store_of(v).lookup(901) == Some(902))
        .count();
    assert!(holders as u32 >= qa * 9 / 10, "holders {holders} of {qa}");
}

#[test]
fn walk_visits_distinct_nodes_in_protocol() {
    // The UNIQUE-PATH quorum really consists of |Ql| distinct nodes: for
    // a miss lookup, walk_tx per lookup ≈ |Ql| (each step visits a new
    // node, plus an occasional salvage).
    let (mut net, mut stack) = build(100, 53, |cfg| {
        cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::UniquePath, 15);
    });
    let looker = net.alive_nodes()[7];
    for key in 0..10 {
        stack.lookup(&mut net, looker, key);
        let horizon = net.now() + SimDuration::from_secs(10);
        net.run(&mut stack, horizon);
    }
    let per_lookup = stack.counters().walk_tx as f64 / 10.0;
    assert!(
        (13.0..20.0).contains(&per_lookup),
        "walk cost {per_lookup} should be ≈ |Ql| − 1 = 14"
    );
    assert_eq!(stack.counters().reply_tx, 0, "misses send no replies");
}

#[test]
fn estimator_integrates_with_network_graph() {
    // §6.3 end-to-end: estimate the network size from the simulator's
    // own connectivity graph via MD-walk samples.
    let (net, _stack) = build(150, 54, |_| {});
    let g = net.connectivity_graph();
    let comp = g.components().remove(0);
    let mut rng = pqs_sim::rng::stream(54, 99);
    let est = pqs_core::estimator::estimate_graph_size(&g, comp[0], 70, 200, &mut rng)
        .expect("collisions at this sample count");
    assert!(
        est > 60.0 && est < 450.0,
        "estimate {est} too far from n = 150"
    );
}

#[test]
fn absent_key_serial_lookup_terminates_via_miss_replies() {
    let (mut net, mut stack) = build(80, 55, |cfg| {
        cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::Random, 6);
        cfg.service.lookup_fanout = Fanout::Serial;
    });
    let looker = net.alive_nodes()[11];
    let op = stack.lookup(&mut net, looker, 0xDEAD);
    net.run(&mut stack, SimTime::from_secs(120));
    let record = stack.op(op).expect("op recorded");
    assert!(!record.replied());
    assert!(
        record.completed.is_some(),
        "serial lookup must terminate after exhausting the quorum"
    );
    assert!(!record.intersected);
}
