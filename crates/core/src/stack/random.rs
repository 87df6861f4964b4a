//! RANDOM (§4.1): routed stores and probes to members drawn from the
//! origin's membership view, paced or serial fan-out, and the §6.2
//! substitution of unreachable members. RANDOM-OPT (`random_opt`) sends
//! the same frames and adds the relay tap.

use super::{QuorumNet, QuorumStack, RouteCtx, TimerCtx};
use crate::membership;
use crate::messages::{AppMsg, OpId};
use crate::service::{Fanout, OpRecord};
use crate::store::{Key, Value};
use pqs_net::NodeId;
use pqs_sim::{EventId, SimDuration};
use std::collections::VecDeque;

/// Probe substitutions per serial lookup (caps defensive retries).
const MAX_PROBE_SUBSTITUTIONS: u32 = 10;

/// Spacing between the routed store sends of one advertise access.
/// Bursting |Qa| route discoveries at once melts the medium; pacing them
/// keeps contention (and thus MAC losses) low (DESIGN.md §7).
const STORE_SPACING: SimDuration = SimDuration::from_millis(150);

/// How long a serial prober waits for a reply before moving on.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// A serial lookup's probing state: the quorum members not yet probed
/// and the pending probe timeout.
#[derive(Clone)]
pub(super) struct SerialLookup {
    remaining: VecDeque<NodeId>,
    timer: Option<EventId>,
    substitutions: u32,
}

impl QuorumStack {
    /// Resamples `node`'s membership view over the currently alive
    /// population (a joiner bootstrapping, or a retry's fresh access set).
    pub(super) fn refresh_view(&mut self, net: &QuorumNet, node: NodeId) {
        let alive = net.alive_nodes();
        let view_size = membership::view_size(self.cfg.membership_view_factor, alive.len());
        self.membership
            .refresh_view(node, &alive, view_size, &mut self.rng);
    }

    /// Sends `want` routed stores of advertise `op` to members of
    /// `node`'s view, paced [`STORE_SPACING`] apart.
    pub(super) fn send_stores(&mut self, net: &mut QuorumNet, node: NodeId, op: OpId, want: usize) {
        if want == 0 {
            return;
        }
        let targets = self.membership.pick_quorum(node, want, &mut self.rng);
        for (i, target) in targets.into_iter().enumerate() {
            if i == 0 {
                self.send_store(net, op, target, 0);
            } else {
                let ctx = TimerCtx::DeferredStore { op, target };
                self.arm_timer(net, node, STORE_SPACING * i as u64, ctx);
            }
        }
    }

    /// Probes `size` members of `node`'s view for lookup `op`: all at
    /// once (paced by `probe_spacing`) or one at a time.
    pub(super) fn send_probes(&mut self, net: &mut QuorumNet, node: NodeId, op: OpId, size: u32) {
        let targets = self
            .membership
            .pick_quorum(node, size as usize, &mut self.rng);
        match self.cfg.lookup_fanout {
            Fanout::Parallel => {
                // Paced like advertise stores: bursting a large masking
                // fan-out of route discoveries at once saturates the
                // medium (probe_spacing = 0, the paper default, keeps the
                // single burst).
                for (i, target) in targets.into_iter().enumerate() {
                    if i == 0 || self.cfg.probe_spacing.is_zero() {
                        self.send_probe(net, op, target);
                    } else {
                        let ctx = TimerCtx::DeferredProbe { op, target };
                        self.arm_timer(net, node, self.cfg.probe_spacing * i as u64, ctx);
                    }
                }
            }
            Fanout::Serial => {
                let state = SerialLookup {
                    remaining: targets.into(),
                    timer: None,
                    substitutions: 0,
                };
                self.serial.insert(op, state);
                self.serial_advance(net, op);
            }
        }
    }

    /// Routes advertise `op`'s store to `target` (`attempts` substitutions
    /// deep).
    pub(super) fn send_store(
        &mut self,
        net: &mut QuorumNet,
        op: OpId,
        target: NodeId,
        attempts: u32,
    ) {
        let (origin, key) = self.origin_key(op);
        let value = self.ops[&op]
            .open
            .value
            .expect("an advertise carries its value");
        let token = self.token();
        self.route_ctx
            .insert(token, RouteCtx::StoreSend { op, attempts });
        let store = AppMsg::Store { op, key, value };
        let events = self
            .router
            .send_data(net, origin, target, store, token, None);
        self.dispatch(net, events);
    }

    /// Routes lookup `op`'s probe to `target`.
    pub(super) fn send_probe(&mut self, net: &mut QuorumNet, op: OpId, target: NodeId) {
        let (origin, key) = self.origin_key(op);
        let token = self.token();
        self.route_ctx.insert(token, RouteCtx::Probe { op });
        let probe = AppMsg::LookupReq { op, key, origin };
        let events = self
            .router
            .send_data(net, origin, target, probe, token, None);
        self.dispatch(net, events);
    }

    /// A paced probe of parallel lookup `op` is due.
    pub(super) fn deferred_probe(&mut self, net: &mut QuorumNet, op: OpId, target: NodeId) {
        // Skip probes for lookups that already completed — a verified
        // masking read cancels its remaining fan-out.
        if self.ops.get(&op).is_some_and(|r| !r.replied()) {
            self.send_probe(net, op, target);
        }
    }

    /// A probe of lookup `op` reached its target `at`.
    pub(super) fn probe_arrive(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        op: OpId,
        key: Key,
        origin: NodeId,
    ) {
        // A silent node answers nothing, not even the serial miss
        // notification.
        let Some(found) = self.answer(net, op, at, origin, key, true) else {
            return;
        };
        // Hits always answer (with every held value); misses answer only
        // under serial probing, which needs explicit miss notifications
        // to advance.
        if !found.is_empty() || self.cfg.lookup_fanout == Fanout::Serial {
            self.send_lookup_reply(net, at, op, key, origin, found);
        }
    }

    /// Routes `at`'s answer to lookup `op` back to its `origin`.
    pub(super) fn send_lookup_reply(
        &mut self,
        net: &mut QuorumNet,
        at: NodeId,
        op: OpId,
        key: Key,
        origin: NodeId,
        values: Vec<Value>,
    ) {
        let token = self.token();
        self.route_ctx.insert(token, RouteCtx::ReplyRouted { op });
        let reply = AppMsg::LookupReply {
            op,
            key,
            from: at,
            values,
        };
        let events = self.router.send_data(net, at, origin, reply, token, None);
        self.dispatch(net, events);
    }

    /// A routed answer to lookup `op` from `from` reached the origin: an
    /// empty one is a serial miss notification.
    pub(super) fn lookup_reply_arrive(
        &mut self,
        net: &mut QuorumNet,
        op: OpId,
        from: NodeId,
        values: &[Value],
    ) {
        if values.is_empty() {
            self.serial_advance(net, op);
        } else {
            self.complete_lookup_from(net, op, from, values.to_vec());
        }
    }

    /// Sends serial lookup `op`'s next probe, or ends it: answered, or
    /// its quorum exhausted (a miss).
    pub(super) fn serial_advance(&mut self, net: &mut QuorumNet, op: OpId) {
        if self.ops.get(&op).is_some_and(OpRecord::replied) {
            self.end_serial(net, op);
            return;
        }
        let Some(state) = self.serial.get_mut(&op) else {
            return;
        };
        if let Some(t) = state.timer.take() {
            net.cancel_timer(t);
        }
        let Some(target) = state.remaining.pop_front() else {
            self.serial.remove(&op);
            if let Some(rec) = self.ops.get_mut(&op) {
                rec.completed.get_or_insert(net.now());
            }
            return;
        };
        let origin = self.ops[&op].origin;
        let timer = self.arm_timer(net, origin, PROBE_TIMEOUT, TimerCtx::SerialProbe { op });
        if let Some(state) = self.serial.get_mut(&op) {
            state.timer = Some(timer);
        }
        self.send_probe(net, op, target);
    }

    /// Serial lookup `op`'s probe went unanswered: move on.
    pub(super) fn serial_timeout(&mut self, net: &mut QuorumNet, op: OpId) {
        if let Some(state) = self.serial.get_mut(&op) {
            state.timer = None;
        }
        self.serial_advance(net, op);
    }

    /// Tears down `op`'s serial probing, cancelling its pending probe
    /// timeout.
    pub(super) fn end_serial(&mut self, net: &mut QuorumNet, op: OpId) {
        if let Some(t) = self.serial.remove(&op).and_then(|s| s.timer) {
            net.cancel_timer(t);
        }
    }

    /// §6.2 adaptation: an unreachable advertise member is replaced by
    /// another random one (bounded retries).
    pub(super) fn store_unreachable(&mut self, net: &mut QuorumNet, op: OpId, attempts: u32) {
        let origin = self.ops[&op].origin;
        if attempts < 3 && net.is_alive(origin) {
            let substitute = self.membership.pick_quorum(origin, 1, &mut self.rng);
            if let Some(target) = substitute.first().copied() {
                self.counters.probe_substitutions += 1;
                self.send_store(net, op, target, attempts + 1);
            }
        }
    }

    /// §6.2 adaptation: replace the unreachable member by another random
    /// one (serial mode only; parallel probes simply lose one member).
    pub(super) fn probe_unreachable(&mut self, net: &mut QuorumNet, op: OpId) {
        let Some(state) = self.serial.get_mut(&op) else {
            return;
        };
        if state.substitutions < MAX_PROBE_SUBSTITUTIONS {
            state.substitutions += 1;
            let origin = self.ops[&op].origin;
            let sub = self.membership.pick_quorum(origin, 1, &mut self.rng);
            state.remaining.extend(sub);
            self.counters.probe_substitutions += 1;
        }
        self.serial_advance(net, op);
    }
}
