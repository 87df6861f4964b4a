//! FLOODING (§4.4): TTL-scoped broadcasts, the expanding-ring lookup,
//! and flood replies unicast back along each node's flood parent.

use super::path::action_bytes;
use super::{LinkCtx, QuorumNet, QuorumStack, TimerCtx};
use crate::messages::{AppMsg, FloodMsg, FloodReplyMsg, OpId, QuorumAction};
use crate::service::OpRecord;
use pqs_net::{MacDst, NodeId};
use pqs_sim::SimDuration;

/// How long each expanding-ring stage waits before growing the TTL.
const EXPANDING_RING_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// The flood TTL for a FLOODING quorum of `size`, saturating at the
/// largest TTL a frame carries: a member-count size (the planner's)
/// grows with n and must not wrap to a tiny flood.
pub(super) fn ttl_for(size: u32) -> u8 {
    u8::try_from(size).unwrap_or(u8::MAX)
}

impl QuorumStack {
    pub(super) fn start_flood(
        &mut self,
        net: &mut QuorumNet,
        node: NodeId,
        op: OpId,
        action: QuorumAction,
        ttl: u8,
    ) {
        self.next_flood += 1;
        let flood = self.next_flood;
        self.flood_seen[node.index()].insert(flood);
        self.counters.flood_covered += 1;
        if let QuorumAction::Advertise { key, value } = action {
            self.place_store(net.now(), node, op, key, value);
        }
        if ttl > 0 {
            let msg = FloodMsg {
                op,
                origin: node,
                flood,
                ttl,
                action,
            };
            self.broadcast_flood(net, node, msg);
        }
    }

    /// One stage of the §4.4 expanding-ring lookup: flood at `ttl`, then
    /// re-flood wider if the reply has not arrived by the stage timeout.
    pub(super) fn expanding_ring_stage(&mut self, net: &mut QuorumNet, op: OpId, ttl: u8) {
        if self.ops.get(&op).is_some_and(OpRecord::replied) {
            return;
        }
        let (origin, key) = self.origin_key(op);
        self.start_flood(net, origin, op, QuorumAction::Lookup { key }, ttl);
        if self.quorum_of(op).is_some_and(|q| ttl < ttl_for(q.size)) {
            let ctx = TimerCtx::ExpandRing { op, ttl: ttl + 1 };
            self.arm_timer(net, origin, EXPANDING_RING_TIMEOUT, ctx);
        }
    }

    pub(super) fn flood_arrive(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        from: NodeId,
        msg: FloodMsg,
    ) {
        if !net.is_alive(at) || !self.flood_seen[at.index()].insert(msg.flood) {
            return;
        }
        self.flood_parent[at.index()].insert(msg.flood, from);
        self.counters.flood_covered += 1;
        match msg.action {
            QuorumAction::Advertise { key, value } => {
                self.place_store(net.now(), at, msg.op, key, value);
            }
            QuorumAction::Lookup { key } => {
                let answer = self.answer(net, msg.op, at, msg.origin, key, false);
                if let Some(value) = answer.and_then(|v| v.first().copied()) {
                    // Every holder replies — flooding has no fine-grained
                    // control (§4.4's "numerous replies" drawback).
                    let reply = FloodReplyMsg {
                        op: msg.op,
                        key,
                        value,
                        from: at,
                        flood: msg.flood,
                        origin: msg.origin,
                    };
                    self.forward_flood_reply(net, at, reply);
                }
            }
        }
        if msg.ttl > 1 {
            let msg = FloodMsg {
                ttl: msg.ttl - 1,
                ..msg
            };
            self.broadcast_flood(net, at, msg);
        }
    }

    fn broadcast_flood(&mut self, net: &mut QuorumNet, at: NodeId, msg: FloodMsg) {
        let token = self.token();
        self.link_ctx.insert(token, LinkCtx::FireAndForget);
        self.counters.flood_tx += 1;
        let bytes = action_bytes(msg.action);
        self.router
            .send_one_hop(net, at, MacDst::Broadcast, AppMsg::Flood(msg), token, bytes);
    }

    pub(super) fn forward_flood_reply(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        msg: FloodReplyMsg,
    ) {
        if at == msg.origin {
            self.complete_lookup_from(net, msg.op, msg.from, vec![msg.value]);
            return;
        }
        let Some(&parent) = self.flood_parent[at.index()].get(&msg.flood) else {
            self.drop_reply(msg.op);
            return;
        };
        let token = self.token();
        self.link_ctx
            .insert(token, LinkCtx::FloodReplyForward { op: msg.op });
        self.counters.flood_reply_tx += 1;
        self.router.send_one_hop(
            net,
            at,
            MacDst::Unicast(parent),
            AppMsg::FloodReply(msg),
            token,
            64,
        );
    }
}
