//! Walk replies on the reverse path (§4.2), shortened by reply-path
//! reduction (§7.2) and, when a hop breaks under mobility, rerouted by
//! local repair: TTL-scoped routing to the next reverse-path node, then
//! an unrestricted route to the originator as the last resort (§6.2).

use super::{LinkCtx, QuorumNet, QuorumStack, RouteCtx};
use crate::messages::{AppMsg, OpId, ReplyMsg, WalkMsg};
use crate::store::Value;
use pqs_net::{MacDst, NodeId};

/// Scope of each local-repair route search (§6.2 recommends 3).
const REPAIR_TTL: u8 = 3;

impl QuorumStack {
    /// `at`, a member of walk `msg`, answers it with `value` on the
    /// walk's reverse path.
    pub(super) fn start_walk_reply(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        msg: &WalkMsg,
        value: Value,
    ) {
        let key = msg.action.key();
        let pos = msg
            .visited
            .iter()
            .position(|&v| v == at)
            .unwrap_or(msg.visited.len());
        let path = msg.visited[..pos].to_vec();
        if path.is_empty() {
            // The hit happened at the originator itself.
            self.complete_lookup_from(net, msg.op, at, vec![value]);
            return;
        }
        let reply = ReplyMsg {
            op: msg.op,
            key,
            value,
            from: at,
            path,
        };
        self.forward_reply(net, at, reply);
    }

    pub(super) fn forward_reply(&mut self, net: &mut QuorumNet, at: NodeId, mut reply: ReplyMsg) {
        if !net.is_alive(at) || reply.path.is_empty() {
            return;
        }
        if self.cfg.reply_path_reduction {
            // Skip ahead to the earliest reverse-path node that is
            // already a neighbour (§7.2).
            let neighbors = net.neighbors(at);
            if let Some(i) = reply.path.iter().position(|v| neighbors.contains(v)) {
                reply.path.truncate(i + 1);
            }
        }
        let next = *reply.path.last().expect("nonempty path");
        let token = self.token();
        self.link_ctx.insert(
            token,
            LinkCtx::ReplyForward {
                at,
                reply: reply.clone(),
            },
        );
        self.counters.reply_tx += 1;
        let bytes = 64 + 4 * reply.path.len();
        self.router.send_one_hop(
            net,
            at,
            MacDst::Unicast(next),
            AppMsg::WalkReply(reply),
            token,
            bytes,
        );
    }

    pub(super) fn reply_arrive(&mut self, net: &mut QuorumNet, at: NodeId, mut reply: ReplyMsg) {
        if reply.path.last() == Some(&at) {
            reply.path.pop();
        }
        if reply.path.is_empty() {
            self.complete_lookup_from(net, reply.op, reply.from, vec![reply.value]);
        } else {
            self.forward_reply(net, at, reply);
        }
    }

    /// The MAC gave up on a reply hop from `at`: repair, or drop the
    /// reply when repair is off.
    pub(super) fn reply_hop_failed(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        mut reply: ReplyMsg,
    ) {
        if !self.cfg.reply_repair {
            self.drop_reply(reply.op);
            return;
        }
        // The failed hop is the last path element; repair targets the
        // nodes before it, ending at the originator.
        if reply.path.len() > 1 {
            reply.path.pop();
        }
        self.try_repair(net, at, reply, true);
    }

    fn try_repair(&mut self, net: &mut QuorumNet, at: NodeId, reply: ReplyMsg, scoped: bool) {
        if scoped {
            self.counters.local_repairs += 1;
        } else {
            self.counters.global_repairs += 1;
        }
        let target = *reply.path.last().expect("repair path nonempty");
        let token = self.token();
        self.route_ctx.insert(
            token,
            RouteCtx::Repair {
                at,
                reply: reply.clone(),
                scoped,
            },
        );
        let max_ttl = scoped.then_some(REPAIR_TTL);
        let events =
            self.router
                .send_data(net, at, target, AppMsg::WalkReply(reply), token, max_ttl);
        self.dispatch(net, events);
    }

    /// A repair segment found no route: try the next reverse-path node,
    /// then the originator unscoped, then give up.
    pub(super) fn repair_failed(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        mut reply: ReplyMsg,
        scoped: bool,
    ) {
        if !scoped {
            self.drop_reply(reply.op);
            return;
        }
        if reply.path.len() > 1 {
            reply.path.pop();
            self.try_repair(net, at, reply, true);
        } else {
            // Last resort: unrestricted route to the originator (§6.2).
            self.try_repair(net, at, reply, false);
        }
    }

    pub(super) fn drop_reply(&mut self, op: OpId) {
        self.counters.replies_dropped += 1;
        if let Some(rec) = self.ops.get_mut(&op) {
            rec.reply_dropped = true;
        }
    }
}
