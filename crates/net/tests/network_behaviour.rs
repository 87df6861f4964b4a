//! End-to-end behavioural tests for the network substrate: MAC
//! acknowledgements and retries, heartbeat neighbour discovery, mobility
//! and churn.

use pqs_net::config::IDEAL_RANGE_M;
use pqs_net::{MacDst, MobilityModel, NetConfig, NetStats, Network, NodeId, Stack, Upcall};
use pqs_sim::{SimDuration, SimTime};

/// Records every upcall.
#[derive(Default)]
struct Recorder {
    frames: Vec<(NodeId, NodeId, String, bool)>,
    results: Vec<(NodeId, u64, bool)>,
    timers: Vec<(NodeId, u64)>,
    failed: Vec<NodeId>,
    joined: Vec<NodeId>,
    /// Arrival time (µs) of every frame and send-result upcall.
    times: Vec<u64>,
}

impl Stack<String> for Recorder {
    fn on_upcall(&mut self, net: &mut Network<String>, up: Upcall<String>) {
        if matches!(up, Upcall::Frame { .. } | Upcall::SendResult { .. }) {
            self.times.push(net.now().as_micros());
        }
        match up {
            Upcall::Frame {
                at,
                from,
                payload,
                overheard,
                ..
            } => self
                .frames
                .push((at, from, payload.as_ref().clone(), overheard)),
            Upcall::SendResult { node, token, ok } => self.results.push((node, token, ok)),
            Upcall::Timer { node, token } => self.timers.push((node, token)),
            Upcall::NodeFailed { node } => self.failed.push(node),
            Upcall::NodeJoined { node } => self.joined.push(node),
        }
    }
}

fn static_config(n: usize, seed: u64) -> NetConfig {
    let mut cfg = NetConfig::paper(n);
    cfg.mobility = MobilityModel::Static;
    cfg.seed = seed;
    cfg
}

/// Finds a pair of one-hop neighbours.
fn neighbour_pair(net: &Network<String>) -> (NodeId, NodeId) {
    for node in net.alive_nodes() {
        if let Some(&nbr) = net.neighbors(node).first() {
            return (node, nbr);
        }
    }
    panic!("no connected pair in network");
}

#[test]
fn unicast_is_delivered_and_acked() {
    let mut net = Network::new(static_config(50, 11));
    let (a, b) = neighbour_pair(&net);
    net.send(a, MacDst::Unicast(b), "payload".into(), 42);
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_secs(2));
    assert_eq!(rec.results, vec![(a, 42, true)], "ACKed exactly once");
    let delivered: Vec<_> = rec.frames.iter().filter(|f| f.0 == b && f.1 == a).collect();
    assert_eq!(delivered.len(), 1, "delivered exactly once");
    assert_eq!(delivered[0].2, "payload");
    assert!(!delivered[0].3, "not overheard");
    assert!(net.stats().ack_tx >= 1);
}

#[test]
fn unicast_to_unreachable_node_fails_after_retries() {
    let mut net = Network::new(static_config(50, 12));
    // Find any pair well beyond radio range (placement is RNG-dependent,
    // so search all pairs rather than anchoring on one node; the paper's
    // §2.4 setup has a ~250 m range in a 1 km² area, so such pairs exist).
    let nodes = net.alive_nodes();
    let (a, far) = nodes
        .iter()
        .flat_map(|&x| nodes.iter().map(move |&y| (x, y)))
        .find(|&(x, y)| x != y && net.position(x).distance(net.position(y)) > 800.0)
        .expect("some far pair");
    net.send(a, MacDst::Unicast(far), "lost".into(), 7);
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_secs(5));
    assert_eq!(
        rec.results,
        vec![(a, 7, false)],
        "cross-layer failure signal"
    );
    assert!(rec.frames.is_empty());
    assert_eq!(net.stats().mac_failures, 1);
    assert!(
        net.stats().mac_retries >= 6,
        "retried up to the limit: {}",
        net.stats().mac_retries
    );
}

#[test]
fn broadcast_reaches_only_nodes_in_range() {
    let mut net = Network::new(static_config(80, 13));
    let (a, _) = neighbour_pair(&net);
    net.send(a, MacDst::Broadcast, "flood".into(), 1);
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_secs(2));
    assert_eq!(rec.results, vec![(a, 1, true)], "broadcast send completes");
    let range = IDEAL_RANGE_M;
    for &(at, from, _, _) in &rec.frames {
        assert_eq!(from, a);
        assert!(
            net.position(at).distance(net.position(a)) <= range + 1.0,
            "receiver {at} beyond radio range"
        );
    }
    assert!(!rec.frames.is_empty());
}

#[test]
fn heartbeats_discover_neighbours_without_prepopulation() {
    // Construction fills the tables from ground truth; nodes brought in
    // later start empty and must learn their neighbours from hellos.
    let mut net = Network::new(static_config(50, 14));
    let late: Vec<NodeId> = (0..10).map(|_| net.add_node()).collect();
    for &node in &late {
        net.schedule_join(node, SimTime::from_secs(1));
    }
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_secs(1));
    assert_eq!(rec.joined, late);
    assert!(
        late.iter().all(|&node| net.neighbors(node).is_empty()),
        "tables start empty"
    );
    // After two heartbeat cycles every late node with in-range peers
    // knows some, and its peers know it (it announces on joining).
    net.run(&mut rec, SimTime::from_secs(26));
    let g = net.connectivity_graph();
    let mut discovered = 0;
    let mut expected = 0;
    for &node in &late {
        if g.degree(node.index()) > 0 {
            expected += 1;
            if !net.neighbors(node).is_empty() {
                discovered += 1;
            }
        }
        for &peer in g.neighbors(node.index()) {
            assert!(
                net.neighbors(NodeId(peer as u32)).contains(&node),
                "{peer} never heard {node}"
            );
        }
    }
    assert!(expected > 0, "some late node has in-range peers");
    assert!(
        discovered * 10 >= expected * 9,
        "only {discovered}/{expected} late nodes discovered neighbours"
    );
}

#[test]
fn timers_fire_and_cancel() {
    let mut net = Network::new(static_config(20, 15));
    let a = net.alive_nodes()[0];
    net.set_timer(a, SimDuration::from_millis(100), 1);
    let id = net.set_timer(a, SimDuration::from_millis(200), 2);
    net.set_timer(a, SimDuration::from_millis(300), 3);
    assert!(net.cancel_timer(id));
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_secs(1));
    assert_eq!(rec.timers, vec![(a, 1), (a, 3)]);
}

#[test]
fn churn_fail_and_rejoin() {
    let mut net = Network::new(static_config(40, 16));
    let victim = net.alive_nodes()[5];
    net.schedule_fail(victim, SimTime::from_secs(1));
    net.schedule_join(victim, SimTime::from_secs(50));
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_secs(10));
    assert_eq!(rec.failed, vec![victim]);
    assert!(!net.is_alive(victim));
    assert_eq!(net.alive_nodes().len(), 39);

    net.run(&mut rec, SimTime::from_secs(80));
    assert_eq!(rec.joined, vec![victim]);
    assert!(net.is_alive(victim));
    assert_eq!(net.alive_nodes().len(), 40);
}

#[test]
fn failed_node_neither_sends_nor_receives() {
    let mut net = Network::new(static_config(40, 17));
    let (a, b) = neighbour_pair(&net);
    net.schedule_fail(b, SimTime::from_millis(1));
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_millis(10));
    // Now b is down; a unicast to it must fail at the MAC.
    net.send(a, MacDst::Unicast(b), "dead letter".into(), 9);
    assert!(
        !net.send(b, MacDst::Broadcast, "ghost".into(), 10),
        "dead node cannot send"
    );
    net.run(&mut rec, SimTime::from_secs(5));
    assert!(rec.results.contains(&(a, 9, false)));
    assert!(
        rec.frames.iter().all(|f| f.0 != b),
        "dead node received nothing"
    );
}

#[test]
fn mobile_nodes_move_and_tables_adapt() {
    let mut cfg = NetConfig::paper(50);
    cfg.mobility = MobilityModel::fast(20.0);
    cfg.seed = 18;
    let mut net = Network::new(cfg);
    let a = net.alive_nodes()[0];
    let start = net.position(a);
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_secs(120));
    let moved = net.position(a).distance(start);
    assert!(moved > 50.0, "node barely moved: {moved} m");
    // Neighbour views remain plausible: mostly within ~1.5× range of truth
    // (staleness up to the expiry window is expected).
    let range = IDEAL_RANGE_M;
    let mut total = 0;
    let mut close = 0;
    for node in net.alive_nodes() {
        for nbr in net.neighbors(node) {
            total += 1;
            if net.position(node).distance(net.position(nbr)) <= 2.5 * range {
                close += 1;
            }
        }
    }
    assert!(total > 0);
    assert!(
        close * 10 >= total * 8,
        "too many wildly stale entries: {close}/{total}"
    );
}

#[test]
fn connectivity_graph_matches_brute_force() {
    // The grid-backed graph must be *identical* to the all-pairs scan —
    // it is consulted mid-run by the quorum adaptation logic, so even a
    // single missed edge would change protocol behaviour.
    let mut cfg = NetConfig::paper(80);
    cfg.mobility = MobilityModel::fast(10.0);
    cfg.seed = 21;
    let mut net = Network::new(cfg);
    net.schedule_fail(NodeId(3), SimTime::from_secs(2));
    net.schedule_fail(NodeId(17), SimTime::from_secs(9));
    net.schedule_join(NodeId(3), SimTime::from_secs(40));
    let mut rec = Recorder::default();
    for horizon in [0u64, 3, 10, 31, 77] {
        net.run(&mut rec, SimTime::from_secs(horizon));
        let g = net.connectivity_graph();
        let range = IDEAL_RANGE_M;
        let n = g.node_count();
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (NodeId(i as u32), NodeId(j as u32));
                let expected = net.is_alive(a)
                    && net.is_alive(b)
                    && net.position(a).distance(net.position(b)) <= range;
                assert_eq!(
                    g.has_edge(i, j),
                    expected,
                    "pair ({i},{j}) wrong at t={horizon}s"
                );
            }
        }
    }
}

#[test]
fn neighbour_tables_stay_bounded_on_long_mobile_runs() {
    // Heartbeat entries for peers that moved away expire but used to be
    // retained forever (reads filter on expiry, so the leak was
    // invisible). The periodic purge must keep the raw map close to the
    // live view: only entries that expired since the last 1 s grid
    // refresh may linger.
    let mut cfg = NetConfig::paper(50);
    cfg.mobility = MobilityModel::fast(20.0);
    cfg.seed = 22;
    let mut net = Network::new(cfg);
    net.schedule_fail(NodeId(7), SimTime::from_secs(30));
    net.schedule_fail(NodeId(19), SimTime::from_secs(60));
    let mut rec = Recorder::default();
    for minute in 1..=5u64 {
        net.run(&mut rec, SimTime::from_secs(minute * 60));
        for node in net.alive_nodes() {
            let raw = net.neighbor_table_size(node);
            let live = net.neighbors(node).len();
            assert!(
                raw <= live + 8,
                "node {node} retains {raw} entries for {live} live neighbours \
                 at t={}s",
                minute * 60
            );
        }
    }
}

#[test]
fn deterministic_given_seed() {
    // A unicast, a broadcast and a burst of unicasts from every
    // neighbour of `a` to `a` at once, so that the trace also runs
    // through carrier-sense defers, collisions and MAC retries.
    let run = |seed: u64| {
        let mut net = Network::new(static_config(60, seed));
        let (a, b) = neighbour_pair(&net);
        net.send(a, MacDst::Unicast(b), "x".into(), 1);
        net.send(b, MacDst::Broadcast, "y".into(), 2);
        for (i, nbr) in net.neighbors(a).into_iter().enumerate() {
            net.send(nbr, MacDst::Unicast(a), "z".into(), 10 + i as u64);
        }
        let mut rec = Recorder::default();
        net.run(&mut rec, SimTime::from_secs(30));
        (*net.stats(), rec.results, rec.times)
    };
    assert_eq!(run(99), run(99), "same seed, same trace");
    assert_ne!(run(99).0, run(100).0, "different seeds diverge");
    // The exact trace pins the Fig. 2 radio: the hello count follows the
    // heartbeat period, the defers, retries and losses follow the
    // propagation constants, and the upcall times follow the slot, DIFS,
    // SIFS, jitter, airtime and ACK-timeout constants.
    let expected_stats = NetStats {
        phy_tx: 204,
        data_tx: 18,
        hello_tx: 180,
        ack_tx: 6,
        delivered: 12,
        mac_retries: 11,
        mac_backoff_draws: 210,
        mac_channel_defers: 12,
        unicast_data_tx: 17,
        unicast_delivered: 6,
        unicast_lost: 11,
        ..NetStats::default()
    };
    let n = NodeId;
    let expected_results = vec![
        (n(17), 12, true),
        (n(0), 1, true),
        (n(39), 14, true),
        (n(3), 2, true),
        (n(3), 10, true),
        (n(4), 11, true),
        (n(20), 13, true),
    ];
    let expected_times = vec![
        969, 1227, 1876, 2134, 6721, 6979, 11848, 11848, 11848, 11848, 11848, 11848, 11848, 12917,
        13175, 21064, 21322, 30700, 30958,
    ];
    assert_eq!(run(99), (expected_stats, expected_results, expected_times));
}

#[test]
fn promiscuous_mode_overhears_unicast() {
    let mut cfg = static_config(60, 19);
    cfg.promiscuous = true;
    let mut net = Network::new(cfg);
    // Pick a sender with at least two neighbours: the second overhears.
    let (a, b) = net
        .alive_nodes()
        .into_iter()
        .find_map(|n| {
            let nbrs = net.neighbors(n);
            (nbrs.len() >= 2).then(|| (n, nbrs[0]))
        })
        .expect("dense enough");
    net.send(a, MacDst::Unicast(b), "secret".into(), 1);
    let mut rec = Recorder::default();
    net.run(&mut rec, SimTime::from_secs(2));
    assert!(
        rec.frames.iter().any(|f| f.3),
        "someone should have overheard the unicast"
    );
    let direct: Vec<_> = rec.frames.iter().filter(|f| !f.3).collect();
    assert_eq!(direct.len(), 1);
    assert_eq!(direct[0].0, b);
}

#[test]
fn crashed_node_is_never_a_phy_candidate() {
    // Regression: a crashed node must be purged from the candidate grid
    // at fail time — no stale grid residue may ever admit it as a PHY
    // receiver. We probe the medium's pending-receiver set at sub-airtime
    // granularity while a neighbour keeps broadcasting over the corpse.
    let mut net = Network::new(static_config(50, 31));
    let mut rec = Recorder::default();
    let (a, victim) = net
        .alive_nodes()
        .into_iter()
        .find_map(|n| {
            let nbrs = net.neighbors(n);
            (nbrs.len() >= 2).then(|| (n, nbrs[0]))
        })
        .expect("dense enough");
    net.schedule_fail(victim, SimTime::from_millis(10));
    net.run(&mut rec, SimTime::from_millis(20));
    assert!(!net.is_alive(victim), "victim must be down");

    let mut saw_pending = false;
    let t0 = SimTime::from_millis(20);
    for i in 0..400u64 {
        if i % 20 == 0 {
            net.send(a, MacDst::Broadcast, format!("b{i}"), i);
        }
        // 200 µs steps: several probes per frame airtime.
        net.run(&mut rec, t0 + SimDuration::from_micros(200 * (i + 1)));
        let pending = net.phy_pending_receivers();
        assert!(
            !pending.contains(&victim),
            "crashed node {victim} appeared as a PHY receiver at step {i}"
        );
        saw_pending |= !pending.is_empty();
    }
    assert!(
        saw_pending,
        "probe never observed an in-flight reception; test is vacuous"
    );
    // Recovery restores candidacy: the node decodes frames again.
    net.schedule_join(victim, net.now() + SimDuration::from_millis(1));
    let mut rec2 = Recorder::default();
    let resume = net.now() + SimDuration::from_millis(5);
    net.run(&mut rec2, resume);
    for i in 0..20u64 {
        net.send(a, MacDst::Broadcast, format!("r{i}"), 1_000 + i);
        net.run(&mut rec2, resume + SimDuration::from_millis(20 * (i + 1)));
    }
    assert!(
        rec2.frames
            .iter()
            .any(|&(at, from, ..)| at == victim && from == a),
        "rejoined node must decode frames again"
    );
}

/// Consumes every upcall: the substrate alone (wheel, PHY, MAC,
/// heartbeats) does the work.
struct Sink;

impl Stack<()> for Sink {
    fn on_upcall(&mut self, _net: &mut Network<()>, _up: Upcall<()>) {}
}

/// Pins the substrate's counted work at the paper's density: the exact
/// number of events `run` processes over 120 simulated seconds, driven
/// in 100 ms steps as the benchmark's `sim-substrate-1k` drives it, and
/// the exact link counters. A scheduler that skipped or repeated an
/// event, or reordered two, moves one of these.
#[test]
fn substrate_counted_work_is_pinned() {
    let mut cfg = NetConfig::paper(1000);
    cfg.seed = 1;
    let mut net: Network<()> = Network::new(cfg);
    let events: u64 = (1..=1200u64)
        .map(|step| net.run(&mut Sink, SimTime::from_millis(step * 100)))
        .sum();
    assert_eq!(events, 36_125);
    assert_eq!(
        *net.stats(),
        NetStats {
            phy_tx: 11_998,
            hello_tx: 11_998,
            mac_backoff_draws: 12_008,
            mac_channel_defers: 8,
            ..NetStats::default()
        }
    );
}
