//! RANDOM-OPT (§4.5): RANDOM's frames, plus a cross-layer relay tap —
//! every node that forwards a store joins the advertise quorum, and every
//! node that forwards a probe answers it from its own store when it can.

use super::{QuorumNet, QuorumStack};
use crate::messages::{AppMsg, OpId};
use crate::spec::AccessStrategy;
use pqs_net::NodeId;
use pqs_routing::TransitHandle;

impl QuorumStack {
    /// Whether `op`'s frames take the §4.5 relay tap.
    fn is_random_opt(&self, op: OpId) -> bool {
        self.quorum_of(op)
            .is_some_and(|q| q.strategy == AccessStrategy::RandomOpt)
    }

    /// A routed frame passes relay `node`. Every frame takes this path;
    /// only a RANDOM-OPT op's frames do anything here but go on.
    pub(super) fn on_transit(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        handle: TransitHandle<AppMsg>,
        payload: &AppMsg,
    ) {
        match payload {
            // RANDOM-OPT advertise: relays join the advertise quorum.
            // Only when the op's side is RANDOM-OPT — plain RANDOM keeps
            // its uniform quorum.
            AppMsg::Store { op, key, value } if self.is_random_opt(*op) => {
                self.place_store(net.now(), node, *op, *key, *value);
            }
            // RANDOM-OPT lookup: relays answer from their own store and
            // stop the probe.
            AppMsg::LookupReq { op, key, origin } if self.is_random_opt(*op) => {
                // A silent relay still forwards the probe; it just never
                // answers it. Liars answer (and consume) every probe.
                let found = self
                    .answer(net, *op, node, *origin, *key, true)
                    .unwrap_or_default();
                if !found.is_empty() {
                    // Dropping `handle` consumes the probe.
                    self.send_lookup_reply(net, node, *op, *key, *origin, found);
                    return;
                }
            }
            _ => {}
        }
        let events = self.router.forward_transit(net, handle);
        self.dispatch(net, events);
    }
}
