//! RANDOM-OPT (§4.5): RANDOM's frames, plus a cross-layer relay tap —
//! every node that forwards a store joins the advertise quorum, and every
//! node that forwards a probe answers it from its own store when it can.

use super::{QuorumNet, QuorumStack};
use crate::messages::{AppMsg, OpId};
use crate::spec::{AccessStrategy, BiquorumSpec, WeightedBiquorumSpec};
use pqs_net::NodeId;
use pqs_routing::TransitHandle;

/// Whether `spec` or `weighted` can ask for RANDOM-OPT on either side —
/// i.e. whether the router needs the relay tap, which is fixed at
/// construction.
pub(super) fn needs_transit_tap(
    spec: &BiquorumSpec,
    weighted: Option<WeightedBiquorumSpec>,
) -> bool {
    spec.advertise.strategy == AccessStrategy::RandomOpt
        || spec.lookup.strategy == AccessStrategy::RandomOpt
        || weighted.is_some_and(|w| {
            w.advertise
                .candidates()
                .chain(w.lookup.candidates())
                .any(|(s, _)| s.strategy == AccessStrategy::RandomOpt)
        })
}

impl QuorumStack {
    /// Whether `op`'s frames take the §4.5 relay tap.
    fn is_random_opt(&self, op: OpId) -> bool {
        self.quorum_of(op)
            .is_some_and(|q| q.strategy == AccessStrategy::RandomOpt)
    }

    /// A routed frame passes relay `node`; `handle` forwards or consumes
    /// it.
    pub(super) fn on_transit(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        handle: TransitHandle,
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
                    self.router.consume_transit(handle);
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
