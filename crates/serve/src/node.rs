//! The per-node UDP serving loop: one bounded thread per socket, no
//! async runtime. Each iteration drains a burst of datagrams through
//! the strict wire decoder, fires due engine timers from a local
//! binary-heap timer queue, answers completed client operations, and —
//! once a drain has been requested and the engine reports quiescence —
//! acknowledges and exits, closing the socket.

use crate::sessions::{answer, Admission, ClientSessions};
use crate::{WallClock, CLIENT_NODE_ID};
use pqs_core::endpoint::{EndpointCounters, QuorumEndpoint};
use pqs_core::service::OpKind;
use pqs_core::store::{Key, Value};
use pqs_core::transport::{Datagram, OpStatus, Transport, WireMsg};
use pqs_core::wire;
use pqs_net::NodeId;
use pqs_sim::metrics::Histogram;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// Final state of one node after its serving loop exited.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Engine counters at exit (conserved: see
    /// [`EndpointCounters`]).
    pub counters: EndpointCounters,
    /// Datagrams rejected by the strict wire decoder.
    pub malformed_datagrams: u64,
    /// Socket send failures (counted, never fatal: UDP is best-effort).
    pub send_errors: u64,
    /// Client operations answered (put + get, any status except
    /// refused-synchronously).
    pub client_completed: u64,
    /// Advertise completion latency, microseconds wall-clock.
    pub advertise_latency: Histogram,
    /// Lookup completion latency, microseconds wall-clock.
    pub lookup_latency: Histogram,
}

/// The [`Transport`] a node loop hands its engine: sends encode through
/// the wire codec straight onto the socket, timers go to the loop's
/// local heap. The loop sets `now` before each call into the engine.
struct UdpCtx {
    sock: UdpSocket,
    me: NodeId,
    book: Arc<[SocketAddr]>,
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    now: u64,
    send_errors: u64,
}

impl UdpCtx {
    /// Sends `msg` to a socket address (a client, an admin or a peer).
    fn send_to(&mut self, to: SocketAddr, msg: WireMsg) {
        let frame = wire::encode_frame(&Datagram { from: self.me, msg });
        if self.sock.send_to(&frame, to).is_err() {
            self.send_errors += 1;
        }
    }
}

impl Transport for UdpCtx {
    fn now_micros(&self) -> u64 {
        self.now
    }

    fn send(&mut self, to: NodeId, msg: WireMsg) {
        match self.book.get(to.0 as usize) {
            Some(&addr) => self.send_to(addr, msg),
            None => self.send_errors += 1,
        }
    }

    fn set_timer(&mut self, delay_micros: u64, token: u64) {
        self.timers.push(Reverse((self.now + delay_micros, token)));
    }
}

/// Serves one `ClientPut` (`put` is its value) or `ClientGet`: starts
/// the quorum operation unless the request is a retransmit, and answers
/// `Refused` at once when the engine is draining.
fn client_request(
    ctx: &mut UdpCtx,
    engine: &mut QuorumEndpoint,
    sessions: &mut ClientSessions,
    src: SocketAddr,
    req: u64,
    key: Key,
    put: Option<Value>,
) {
    match sessions.admit(src, req) {
        Admission::InFlight => {}
        Admission::Replay(cached) => ctx.send_to(src, cached.clone()),
        Admission::Fresh => {
            let (kind, op) = match put {
                Some(value) => (OpKind::Advertise, engine.advertise(ctx, key, value)),
                None => (OpKind::Lookup, engine.lookup(ctx, key)),
            };
            match op {
                Some(op) => sessions.opened(src, req, op),
                None => ctx.send_to(src, answer(req, kind, OpStatus::Refused, 0)),
            }
        }
    }
}

/// Runs one node until it is drained. See the module docs for the loop
/// structure.
pub fn node_loop(
    sock: UdpSocket,
    book: Arc<[SocketAddr]>,
    mut engine: QuorumEndpoint,
    clock: WallClock,
) -> NodeReport {
    sock.set_read_timeout(Some(Duration::from_millis(1)))
        .expect("set_read_timeout on a bound socket");
    let mut ctx = UdpCtx {
        sock,
        me: engine.id(),
        book,
        timers: BinaryHeap::new(),
        now: 0,
        send_errors: 0,
    };
    let mut buf = vec![0u8; wire::MAX_FRAME + 8];
    let mut malformed = 0u64;
    let mut client_completed = 0u64;
    let mut sessions = ClientSessions::default();
    let mut drain_waiters: Vec<SocketAddr> = Vec::new();
    let mut draining = false;

    loop {
        // 1. Drain a burst of datagrams (bounded, so timers and
        //    completions are serviced under sustained load).
        let mut received = 0u32;
        while received < 128 {
            // A read timeout or a socket error: either way the burst is over.
            let Ok((n, src)) = ctx.sock.recv_from(&mut buf) else {
                break;
            };
            received += 1;
            let dg = match wire::decode_frame(&buf[..n]) {
                Ok((dg, _)) => dg,
                Err(_) => {
                    malformed += 1;
                    continue;
                }
            };
            ctx.now = clock.now_micros();
            match dg.msg {
                msg @ (WireMsg::Store { .. }
                | WireMsg::StoreAck { .. }
                | WireMsg::LookupReq { .. }
                | WireMsg::LookupReply { .. }) => engine.on_message(&mut ctx, dg.from, msg),
                WireMsg::Ping { nonce } => ctx.send_to(src, WireMsg::Pong { nonce }),
                WireMsg::MetricsReq => {
                    let c = engine.counters();
                    ctx.send_to(
                        src,
                        WireMsg::MetricsResp {
                            issued: c.advertises_issued + c.lookups_issued,
                            completed: c.completed_ok,
                            failed: c.completed_failed,
                            refused: c.refused,
                            served_stores: c.stores_served,
                            served_lookups: c.lookups_served,
                        },
                    );
                }
                WireMsg::DrainReq => {
                    draining = true;
                    engine.begin_drain();
                    if !drain_waiters.contains(&src) {
                        drain_waiters.push(src);
                    }
                }
                WireMsg::ClientPut { req, key, value } => client_request(
                    &mut ctx,
                    &mut engine,
                    &mut sessions,
                    src,
                    req,
                    key,
                    Some(value),
                ),
                WireMsg::ClientGet { req, key } => {
                    client_request(&mut ctx, &mut engine, &mut sessions, src, req, key, None)
                }
                // Answers and acks are for clients/admins, not servers.
                WireMsg::Pong { .. }
                | WireMsg::DrainAck { .. }
                | WireMsg::MetricsResp { .. }
                | WireMsg::ClientPutDone { .. }
                | WireMsg::ClientGetDone { .. } => {}
            }
        }

        // 2. Fire due engine timers.
        ctx.now = clock.now_micros();
        while ctx
            .timers
            .peek()
            .is_some_and(|Reverse((due, _))| *due <= ctx.now)
        {
            let Reverse((_, token)) = ctx.timers.pop().expect("peeked entry exists");
            engine.on_timer(&mut ctx, token);
        }

        // 3. Answer clients whose quorum operations completed.
        for c in engine.take_completions() {
            if let Some((addr, msg)) = sessions.complete(&c) {
                client_completed += 1;
                ctx.send_to(addr, msg);
            }
        }

        // 4. Drained: acknowledge and exit (the socket closes on drop —
        //    nothing leaks).
        if draining && engine.drained() {
            let refused = engine.counters().refused;
            for &w in &drain_waiters {
                ctx.send_to(
                    w,
                    WireMsg::DrainAck {
                        completed: client_completed,
                        refused,
                    },
                );
            }
            break;
        }
    }

    let (adv, look) = engine.latency();
    NodeReport {
        node: ctx.me,
        counters: engine.counters(),
        malformed_datagrams: malformed,
        send_errors: ctx.send_errors,
        client_completed,
        advertise_latency: adv.clone(),
        lookup_latency: look.clone(),
    }
}

// Keep the sentinel referenced so the constant's contract (never a valid
// book index) is enforced where it matters: `UdpCtx::send` indexes the
// book and silently drops out-of-range ids, including this one.
const _: () = assert!(CLIENT_NODE_ID.0 == u32::MAX);
