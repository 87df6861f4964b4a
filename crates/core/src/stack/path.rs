//! PATH / UNIQUE-PATH (§4.2–4.3): random walks carrying their visited
//! list, RW salvation of failed steps (§6.2), early halting on the first
//! hit (§7.1) and promiscuous replies from overhearing nodes (§7.2).
//! Replies travel back on the walk's reverse path (`reply`).

use super::{LinkCtx, QuorumNet, QuorumStack};
use crate::messages::{AppMsg, OpId, QuorumAction, ReplyMsg, WalkMsg};
use crate::service::OpKind;
use crate::spec::{AccessStrategy, QuorumSpec};
use pqs_net::config::PAYLOAD_BYTES;
use pqs_net::{MacDst, NodeId};
use rand::seq::SliceRandom;

/// Salvage attempts per walk step (caps defensive retries).
const MAX_SALVAGE_ATTEMPTS: usize = 5;

/// Wire size of a walk or flood carrying `action`: advertise accesses
/// carry the payload, lookups are small control messages.
pub(super) fn action_bytes(action: QuorumAction) -> usize {
    match action {
        QuorumAction::Advertise { .. } => PAYLOAD_BYTES,
        QuorumAction::Lookup { .. } => 48,
    }
}

impl QuorumStack {
    /// Starts a walk of `spec.size` distinct nodes from `node`.
    pub(super) fn start_walk(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        op: OpId,
        action: QuorumAction,
        spec: QuorumSpec,
    ) {
        let msg = WalkMsg {
            op,
            origin: node,
            action,
            target: spec.size,
            unique: spec.strategy == AccessStrategy::UniquePath,
            visited: Vec::new(),
        };
        self.walk_arrive(net, node, msg);
    }

    pub(super) fn walk_arrive(&mut self, net: &mut QuorumNet, at: NodeId, mut msg: WalkMsg) {
        if !net.is_alive(at) {
            return;
        }
        let first_visit = !msg.visited.contains(&at);
        if first_visit {
            msg.visited.push(at);
        }
        match msg.action {
            QuorumAction::Advertise { key, value } => {
                if first_visit {
                    self.place_store(net.now(), at, msg.op, key, value);
                }
            }
            QuorumAction::Lookup { key } => {
                let answer = self.answer(net, msg.op, at, msg.origin, key, false);
                if let Some(value) = answer.and_then(|v| v.first().copied()) {
                    // Masking needs more than one concurring reply, so
                    // it lifts the single-reply guard and never halts a
                    // walk early (votes come from later path members).
                    if self.masking() || self.replies_started.insert(msg.op) {
                        self.start_walk_reply(net, at, &msg, value);
                    }
                    if self.cfg.early_halting && !self.masking() {
                        return;
                    }
                }
            }
        }
        if msg.visited.len() >= msg.target as usize {
            // Walk complete: advertise done / lookup miss (no reply sent
            // on misses — the cost model of Fig. 16).
            if let Some(rec) = self.ops.get_mut(&msg.op) {
                if rec.kind() == OpKind::Advertise || !rec.intersected {
                    rec.completed.get_or_insert(net.now());
                }
            }
            return;
        }
        self.forward_walk(net, at, msg, Vec::new());
    }

    fn forward_walk(&mut self, net: &mut QuorumNet, at: NodeId, msg: WalkMsg, tried: Vec<NodeId>) {
        if !net.is_alive(at) || tried.len() > MAX_SALVAGE_ATTEMPTS {
            self.counters.walks_dropped += 1;
            return;
        }
        let neighbors = net.neighbors(at);
        let candidates: Vec<NodeId> = neighbors
            .iter()
            .copied()
            .filter(|n| !tried.contains(n))
            .collect();
        if candidates.is_empty() {
            self.counters.walks_dropped += 1;
            return;
        }
        // UNIQUE-PATH: prefer unvisited neighbours; fall back to a simple
        // step when trapped (§4.3).
        let next = if msg.unique {
            let fresh: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|n| !msg.visited.contains(n))
                .collect();
            if fresh.is_empty() {
                *candidates.choose(&mut self.rng).expect("nonempty")
            } else {
                *fresh.choose(&mut self.rng).expect("nonempty")
            }
        } else {
            *candidates.choose(&mut self.rng).expect("nonempty")
        };
        let token = self.token();
        let mut tried = tried;
        tried.push(next);
        self.link_ctx.insert(
            token,
            LinkCtx::WalkForward {
                at,
                msg: msg.clone(),
                tried,
            },
        );
        self.counters.walk_tx += 1;
        // Both walks carry the visited list (§4.2).
        let bytes = action_bytes(msg.action) + 4 * msg.visited.len();
        self.router.send_one_hop(
            net,
            at,
            MacDst::Unicast(next),
            AppMsg::Walk(msg),
            token,
            bytes,
        );
    }

    /// The MAC gave up on a walk step from `at`: try another neighbour
    /// within the same step (§6.2's RW salvation) or drop the walk.
    pub(super) fn walk_hop_failed(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        msg: WalkMsg,
        tried: Vec<NodeId>,
    ) {
        if self.cfg.rw_salvation {
            self.counters.salvations += 1;
            self.forward_walk(net, at, msg, tried);
        } else {
            self.counters.walks_dropped += 1;
        }
    }

    /// Promiscuous replies: `node` overheard a lookup walk and answers it
    /// from its own store on the walk's reverse path (§7.2).
    pub(super) fn overhear_walk(&mut self, net: &mut QuorumNet, node: NodeId, walk: &WalkMsg) {
        let QuorumAction::Lookup { key } = walk.action else {
            return;
        };
        let answer = self.answer(net, walk.op, node, walk.origin, key, false);
        let Some(value) = answer.and_then(|v| v.first().copied()) else {
            return;
        };
        if (self.masking() || self.replies_started.insert(walk.op)) && !walk.visited.is_empty() {
            let reply = ReplyMsg {
                op: walk.op,
                key,
                value,
                from: node,
                path: walk.visited.clone(),
            };
            self.forward_reply(net, node, reply);
        }
    }
}
