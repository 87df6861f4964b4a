//! `SimHost`: the simulated-MAC implementation of the transport seam.
//!
//! This is the original datapath, re-expressed through
//! [`Transport`](crate::transport::Transport):
//! one [`QuorumEndpoint`] per simulated node, messages carried by the
//! AODV router over the contention MAC and log-distance PHY of
//! [`pqs_net::Network`], timers carried by the simulator's event queue.
//! `SimHost` implements [`pqs_net::Stack`], so the whole cluster is
//! driven by the ordinary `net.run(&mut host, until)` loop — the same
//! engine code that `pqs-serve` runs over UDP executes here over the
//! full wireless substrate, which is what the sim-vs-loopback
//! equivalence test exploits.

use crate::endpoint::{Completion, EndpointConfig, QuorumEndpoint};
use crate::messages::OpId;
use crate::store::{Key, Value};
use crate::transport::{QueuedTransport, WireMsg};
use pqs_net::{Network, NodeId, Stack, Upcall};
use pqs_routing::{RoutePacket, Router, RouterConfig, RouterEvent};
use pqs_sim::SimDuration;
use std::collections::VecDeque;

/// The network type a [`SimHost`] cluster runs over.
pub type WireNet = Network<RoutePacket<WireMsg>>;

/// A cluster of [`QuorumEndpoint`]s hosted on the simulated
/// MAC + AODV substrate. See the module docs.
pub struct SimHost {
    router: Router<WireMsg>,
    endpoints: Vec<QuorumEndpoint>,
}

impl SimHost {
    /// Builds one endpoint per node of `net`, each with a flat
    /// membership view of the whole network.
    pub fn new(net: &WireNet, cfg: EndpointConfig, seed: u64) -> Self {
        let n = net.node_count();
        let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let endpoints = all
            .iter()
            .map(|&id| QuorumEndpoint::new(id, all.clone(), cfg.clone(), seed))
            .collect();
        SimHost {
            router: Router::new(n, RouterConfig::default()),
            endpoints,
        }
    }

    /// The endpoint of `node`.
    pub fn endpoint(&self, node: NodeId) -> &QuorumEndpoint {
        &self.endpoints[node.0 as usize]
    }

    /// Issues an advertise at `node`. `None` if refused (draining).
    pub fn advertise(
        &mut self,
        net: &mut WireNet,
        node: NodeId,
        key: Key,
        value: Value,
    ) -> Option<OpId> {
        let mut ctx = QueuedTransport::at(net.now().as_micros());
        let r = self.endpoints[node.0 as usize].advertise(&mut ctx, key, value);
        self.flush(net, node, ctx);
        r
    }

    /// Issues a lookup at `node`. `None` if refused (draining).
    pub fn lookup(&mut self, net: &mut WireNet, node: NodeId, key: Key) -> Option<OpId> {
        let mut ctx = QueuedTransport::at(net.now().as_micros());
        let r = self.endpoints[node.0 as usize].lookup(&mut ctx, key);
        self.flush(net, node, ctx);
        r
    }

    /// Starts a graceful drain at `node`.
    pub fn begin_drain(&mut self, node: NodeId) {
        self.endpoints[node.0 as usize].begin_drain();
    }

    /// Drains accumulated completions at `node`.
    pub fn take_completions(&mut self, node: NodeId) -> Vec<Completion> {
        self.endpoints[node.0 as usize].take_completions()
    }

    /// Flushes one engine callback's queued timers and sends into the
    /// substrate, then processes any synchronously produced events
    /// (self-delivery) breadth-first.
    fn flush(&mut self, net: &mut WireNet, from: NodeId, ctx: QueuedTransport) {
        let mut pending: VecDeque<RouterEvent<WireMsg>> = VecDeque::new();
        self.flush_into(net, from, ctx, &mut pending);
        self.drain_events(net, &mut pending);
    }

    fn flush_into(
        &mut self,
        net: &mut WireNet,
        from: NodeId,
        ctx: QueuedTransport,
        pending: &mut VecDeque<RouterEvent<WireMsg>>,
    ) {
        for (delay, token) in ctx.timers {
            net.set_timer(from, SimDuration::from_micros(delay), token);
        }
        for (to, msg) in ctx.sent {
            pending.extend(self.router.send_data(net, from, to, msg, 0, None));
        }
    }

    fn drain_events(&mut self, net: &mut WireNet, pending: &mut VecDeque<RouterEvent<WireMsg>>) {
        while let Some(ev) = pending.pop_front() {
            match ev {
                RouterEvent::Delivered { node, src, payload } => {
                    let mut ctx = QueuedTransport::at(net.now().as_micros());
                    self.endpoints[node.0 as usize].on_message(&mut ctx, src, (*payload).clone());
                    self.flush_into(net, node, ctx, pending);
                }
                RouterEvent::AppTimer { node, token } => {
                    let mut ctx = QueuedTransport::at(net.now().as_micros());
                    self.endpoints[node.0 as usize].on_timer(&mut ctx, token);
                    self.flush_into(net, node, ctx, pending);
                }
                // Fire-and-forget semantics: the engine's own retry
                // layer owns loss recovery, so link-layer outcomes and
                // route/churn notices carry no extra information here.
                RouterEvent::SendDone { .. }
                | RouterEvent::AppSendResult { .. }
                | RouterEvent::RouteBroken { .. }
                | RouterEvent::OneHop { .. }
                | RouterEvent::Transit { .. }
                | RouterEvent::NodeFailed { .. }
                | RouterEvent::NodeJoined { .. } => {}
            }
        }
    }
}

impl Stack<RoutePacket<WireMsg>> for SimHost {
    fn on_upcall(&mut self, net: &mut WireNet, upcall: Upcall<RoutePacket<WireMsg>>) {
        let mut pending: VecDeque<RouterEvent<WireMsg>> = self.router.on_upcall(net, upcall).into();
        self.drain_events(net, &mut pending);
    }
}
