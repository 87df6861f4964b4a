//! End-to-end AODV tests over the real wireless substrate.

use pqs_net::{MobilityModel, NetConfig, Network, NodeId, Stack, Upcall};
use pqs_routing::{RoutePacket, Router, RouterEvent};
use pqs_sim::{SimDuration, SimTime};

type Payload = String;
type Net = Network<RoutePacket<Payload>>;

/// A stack that is just the router plus event recording.
struct RoutedStack {
    router: Router<Payload>,
    delivered: Vec<(NodeId, NodeId, Payload)>,
    send_done: Vec<(NodeId, u64, bool)>,
    route_broken: Vec<(NodeId, NodeId)>,
    one_hop: Vec<(NodeId, NodeId, Payload)>,
    transits: usize,
}

impl RoutedStack {
    fn new(n: usize) -> Self {
        RoutedStack {
            router: Router::new(n),
            delivered: Vec::new(),
            send_done: Vec::new(),
            route_broken: Vec::new(),
            one_hop: Vec::new(),
            transits: 0,
        }
    }

    fn dispatch(&mut self, net: &mut Net, events: Vec<RouterEvent<Payload>>) {
        for ev in events {
            match ev {
                RouterEvent::Delivered { node, src, payload } => {
                    self.delivered.push((node, src, payload.as_ref().clone()))
                }
                RouterEvent::SendDone { node, token, ok } => self.send_done.push((node, token, ok)),
                RouterEvent::RouteBroken { node, dst } => self.route_broken.push((node, dst)),
                RouterEvent::OneHop {
                    node,
                    from,
                    payload,
                    ..
                } => self.one_hop.push((node, from, payload.as_ref().clone())),
                RouterEvent::Transit { handle, .. } => {
                    self.transits += 1;
                    let more = self.router.forward_transit(net, handle);
                    self.dispatch(net, more);
                }
                RouterEvent::AppSendResult { .. }
                | RouterEvent::AppTimer { .. }
                | RouterEvent::NodeFailed { .. }
                | RouterEvent::NodeJoined { .. } => {}
            }
        }
    }
}

impl Stack<RoutePacket<Payload>> for RoutedStack {
    fn on_upcall(&mut self, net: &mut Net, upcall: Upcall<RoutePacket<Payload>>) {
        let events = self.router.on_upcall(net, upcall);
        self.dispatch(net, events);
    }
}

fn static_net(n: usize, seed: u64) -> Net {
    let mut cfg = NetConfig::paper(n);
    cfg.mobility = MobilityModel::Static;
    cfg.seed = seed;
    Network::new(cfg)
}

/// Picks a pair of alive nodes at least `min_hops` apart in the ground
/// truth graph.
fn distant_pair(net: &Net, min_hops: u32) -> (NodeId, NodeId, u32) {
    let g = net.connectivity_graph();
    for src in 0..g.node_count() {
        let dist = g.bfs_distances(src);
        if let Some((dst, d)) = dist
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (i, d)))
            .filter(|&(_, d)| d >= min_hops)
            .max_by_key(|&(_, d)| d)
        {
            return (NodeId(src as u32), NodeId(dst as u32), d);
        }
    }
    panic!("no pair {min_hops}+ hops apart");
}

#[test]
fn multi_hop_delivery() {
    let mut net = static_net(100, 21);
    let (src, dst, hops) = distant_pair(&net, 3);
    assert!(hops >= 3);
    let mut stack = RoutedStack::new(100);
    let events = stack
        .router
        .send_data(&mut net, src, dst, "across".into(), 1, None);
    assert!(events.is_empty(), "multi-hop send is asynchronous");
    net.run(&mut stack, SimTime::from_secs(20));
    assert_eq!(stack.delivered, vec![(dst, src, "across".to_string())]);
    assert_eq!(stack.send_done, vec![(src, 1, true)]);
    let stats = stack.router.stats();
    assert!(stats.rreq_tx > 0, "discovery flooded RREQs");
    assert!(stats.rrep_tx > 0);
    assert!(
        stats.data_tx >= u64::from(hops),
        "data took at least {hops} hops, counted {}",
        stats.data_tx
    );
    assert_eq!(stats.data_delivered, 1);
}

#[test]
fn route_reuse_avoids_second_discovery() {
    let mut net = static_net(100, 22);
    let (src, dst, _) = distant_pair(&net, 3);
    let mut stack = RoutedStack::new(100);
    stack
        .router
        .send_data(&mut net, src, dst, "first".into(), 1, None);
    net.run(&mut stack, SimTime::from_secs(20));
    let rreq_after_first = stack.router.stats().rreq_tx;
    assert!(stack.router.has_route(src, dst, net.now()), "route cached");
    stack
        .router
        .send_data(&mut net, src, dst, "second".into(), 2, None);
    net.run(&mut stack, SimTime::from_secs(40));
    assert_eq!(
        stack.router.stats().rreq_tx,
        rreq_after_first,
        "second send reused the route"
    );
    assert_eq!(stack.delivered.len(), 2);
}

#[test]
fn self_delivery_is_immediate() {
    let mut net = static_net(30, 23);
    let a = net.alive_nodes()[0];
    let mut stack = RoutedStack::new(30);
    let events = stack
        .router
        .send_data(&mut net, a, a, "self".into(), 5, None);
    stack.dispatch(&mut net, events);
    assert_eq!(stack.delivered, vec![(a, a, "self".to_string())]);
    assert_eq!(stack.send_done, vec![(a, 5, true)]);
    assert_eq!(stack.router.stats().rreq_tx, 0);
}

#[test]
fn discovery_to_dead_node_fails() {
    let mut net = static_net(80, 24);
    let (src, dst, _) = distant_pair(&net, 2);
    net.schedule_fail(dst, SimTime::from_millis(1));
    let mut stack = RoutedStack::new(80);
    net.run(&mut stack, SimTime::from_millis(10));
    stack
        .router
        .send_data(&mut net, src, dst, "void".into(), 9, None);
    net.run(&mut stack, SimTime::from_secs(60));
    assert_eq!(stack.send_done, vec![(src, 9, false)], "discovery gave up");
    assert!(stack.delivered.is_empty());
    assert_eq!(stack.router.stats().discovery_failures, 1);
}

/// One unscoped discovery round: `60 ms × 2 × 35 + 100 ms`.
const ROUND: SimDuration = SimDuration::from_millis(4_300);

/// A node that crashes and rejoins under the same id while a discovery
/// is pending: that discovery's timeout must not escalate the node's
/// next discovery to the same destination, which gets its own three
/// rounds before it fails.
#[test]
fn rejoin_forgets_the_pending_discovery_timeout() {
    let mut net = static_net(80, 24);
    let (src, dst, _) = distant_pair(&net, 2);
    net.schedule_fail(dst, SimTime::from_millis(1));
    let mut stack = RoutedStack::new(80);
    net.run(&mut stack, SimTime::from_millis(10));
    stack
        .router
        .send_data(&mut net, src, dst, "lost".into(), 1, None);
    net.schedule_fail(src, SimTime::from_secs(1));
    net.schedule_join(src, SimTime::from_secs(2));
    net.run(&mut stack, SimTime::from_secs(3));
    let resent = net.now();
    stack
        .router
        .send_data(&mut net, src, dst, "again".into(), 2, None);
    net.run(&mut stack, resent + ROUND * 3 - SimDuration::from_millis(1));
    assert!(
        stack.send_done.is_empty(),
        "gave up before its three rounds: {:?}",
        stack.send_done
    );
    net.run(&mut stack, SimTime::from_secs(60));
    // The crash forgot the first send; the second fails once.
    assert_eq!(stack.send_done, vec![(src, 2, false)]);
    assert_eq!(stack.router.stats().discovery_failures, 1);
}

/// A node that discovered a route, crashed and rejoined under the same
/// id reaches a live destination again on its first RREQ round: every
/// node remembers its pre-crash RREQ ids, so a restarted count would
/// have its first RREQs dropped as duplicates.
#[test]
fn rejoined_node_rediscovers_on_its_first_round() {
    let mut net = static_net(100, 22);
    let (src, dst, _) = distant_pair(&net, 3);
    let mut stack = RoutedStack::new(100);
    stack
        .router
        .send_data(&mut net, src, dst, "before".into(), 1, None);
    net.run(&mut stack, SimTime::from_secs(20));
    assert_eq!(stack.delivered.len(), 1);
    net.schedule_fail(src, SimTime::from_secs(21));
    net.schedule_join(src, SimTime::from_secs(22));
    net.run(&mut stack, SimTime::from_secs(25));
    let g = net.connectivity_graph();
    assert!(
        g.bfs_distances(src.index())[dst.index()].is_some(),
        "the rejoined node must be connected to the destination"
    );
    let resent = net.now();
    stack
        .router
        .send_data(&mut net, src, dst, "after".into(), 2, None);
    net.run(&mut stack, resent + ROUND - SimDuration::from_millis(1));
    assert_eq!(
        stack.delivered.last(),
        Some(&(dst, src, "after".to_string()))
    );
    assert_eq!(stack.send_done.last(), Some(&(src, 2, true)));
}

#[test]
fn scoped_discovery_respects_ttl() {
    let mut net = static_net(100, 25);
    let (src, far, hops) = distant_pair(&net, 5);
    assert!(hops >= 5);
    let mut stack = RoutedStack::new(100);
    // A TTL-3 scoped search cannot reach a 5-hop-away destination.
    stack
        .router
        .send_data(&mut net, src, far, "scoped".into(), 4, Some(3));
    net.run(&mut stack, SimTime::from_secs(20));
    assert_eq!(stack.send_done, vec![(src, 4, false)]);
    assert!(stack.delivered.is_empty());
    // ...and fails much faster than an unscoped search would (single ring).
    assert_eq!(stack.router.stats().discoveries, 1);
    assert_eq!(stack.router.stats().discovery_failures, 1);
}

#[test]
fn scoped_discovery_finds_near_destination() {
    let mut net = static_net(100, 26);
    let g = net.connectivity_graph();
    // A 2-hop pair.
    let (src, dst) = (0..g.node_count())
        .find_map(|s| {
            g.bfs_distances(s)
                .iter()
                .position(|&d| d == Some(2))
                .map(|t| (NodeId(s as u32), NodeId(t as u32)))
        })
        .expect("2-hop pair exists");
    let mut stack = RoutedStack::new(100);
    stack
        .router
        .send_data(&mut net, src, dst, "near".into(), 6, Some(3));
    net.run(&mut stack, SimTime::from_secs(10));
    assert_eq!(stack.delivered, vec![(dst, src, "near".to_string())]);
    assert_eq!(stack.send_done, vec![(src, 6, true)]);
}

#[test]
fn one_hop_traffic_bypasses_routing() {
    let mut net = static_net(50, 27);
    let a = net.alive_nodes()[0];
    let nbr = net.neighbors(a)[0];
    let mut stack = RoutedStack::new(50);
    stack.router.send_one_hop(
        &mut net,
        a,
        pqs_net::MacDst::Unicast(nbr),
        "raw".into(),
        3,
        64,
    );
    net.run(&mut stack, SimTime::from_secs(2));
    assert_eq!(stack.one_hop, vec![(nbr, a, "raw".to_string())]);
    assert_eq!(
        stack.router.stats().data_tx,
        0,
        "not counted as routed data"
    );
}

#[test]
fn transit_tap_sees_intermediate_hops() {
    let mut net = static_net(100, 28);
    let (src, dst, hops) = distant_pair(&net, 3);
    let mut stack = RoutedStack::new(100);
    stack
        .router
        .send_data(&mut net, src, dst, "tapped".into(), 1, None);
    net.run(&mut stack, SimTime::from_secs(20));
    assert_eq!(stack.delivered.len(), 1);
    assert!(
        stack.transits as u32 >= hops - 1,
        "each intermediate hop taps: {} < {}",
        stack.transits,
        hops - 1
    );
}

#[test]
fn link_break_triggers_rerr_and_notification() {
    let mut net = static_net(100, 29);
    let (src, dst, _) = distant_pair(&net, 3);
    let mut stack = RoutedStack::new(100);
    stack
        .router
        .send_data(&mut net, src, dst, "a".into(), 1, None);
    net.run(&mut stack, SimTime::from_secs(20));
    assert_eq!(stack.delivered.len(), 1);
    // Kill the destination, then send again over the (stale) cached route.
    net.schedule_fail(dst, net.now() + SimDuration::from_millis(1));
    net.run(&mut stack, SimTime::from_secs(21));
    stack
        .router
        .send_data(&mut net, src, dst, "b".into(), 2, None);
    net.run(&mut stack, SimTime::from_secs(120));
    // The send must eventually fail (either first-hop break if adjacent,
    // or a rediscovery that cannot complete after the drop is noticed).
    assert!(
        stack.send_done.contains(&(src, 2, false))
            || stack.route_broken.iter().any(|&(_, d)| d == dst),
        "failure must surface: send_done={:?} broken={:?}",
        stack.send_done,
        stack.route_broken
    );
    assert_eq!(stack.delivered.len(), 1, "second payload never arrives");
}

#[test]
fn deterministic_routing_given_seed() {
    let run = |seed: u64| {
        let mut net = static_net(80, seed);
        let (src, dst, _) = distant_pair(&net, 3);
        let mut stack = RoutedStack::new(80);
        stack
            .router
            .send_data(&mut net, src, dst, "d".into(), 1, None);
        net.run(&mut stack, SimTime::from_secs(20));
        (*stack.router.stats(), stack.delivered.len())
    };
    assert_eq!(run(77), run(77));
}
