//! The transport seam: the messaging substrate beneath the wire engine
//! ([`crate::endpoint::QuorumEndpoint`]). On the simulated MANET the
//! quorum service is [`crate::stack::QuorumStack`], coupled to
//! [`pqs_net::Network`] through the [`pqs_net::Stack`] trait; over a
//! wire, [`Transport`] is all the engine sees — a clock, message
//! submission, and timers. Two hosts implement it:
//!
//! - [`crate::loopback::LoopbackNet`] hosts engines over deterministic
//!   in-process channel pairs with a seeded drop/delay shim,
//! - `pqs-serve` hosts them over `std::net::UdpSocket` datagrams.
//!
//! Time is a plain microsecond count: virtual time on the loopback,
//! wall-clock-since-start over UDP. The engine never interprets it
//! beyond ordering and arithmetic, which is what keeps its behavior
//! identical across delivery schedules (the determinism boundary — see
//! DESIGN.md §17).

use crate::messages::OpId;
use crate::store::{Key, Value};
use pqs_net::NodeId;

/// Everything the quorum protocol engine puts on (or reads off) the
/// wire, plus the service-level control messages of `pqs-serve`.
///
/// The first four variants are the protocol proper (advertise stores,
/// acks, lookup probes and votes); the rest are operational messages a
/// live service needs (health checks, drain, metrics, and the
/// client-facing register API). Engines only consume the protocol
/// variants; hosts handle the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Advertise: place `key → value` at the receiver (a member of the
    /// sender's advertise quorum).
    Store {
        /// Originator-scoped operation id (acks echo it back).
        op: OpId,
        /// Key to store.
        key: Key,
        /// Value to store.
        value: Value,
    },
    /// Acknowledges one placed store.
    StoreAck {
        /// The acknowledged operation.
        op: OpId,
    },
    /// Lookup probe: ask the receiver for its values under `key`.
    LookupReq {
        /// Originator-scoped operation id.
        op: OpId,
        /// Key to look up.
        key: Key,
    },
    /// Lookup answer: every value the responder holds (empty = miss).
    /// The responder is the frame's `from` — the vote a masking reader
    /// attributes the values to.
    LookupReply {
        /// The answered operation.
        op: OpId,
        /// The key that was looked up.
        key: Key,
        /// Values held (empty on a miss).
        values: Vec<Value>,
    },
    /// Health check request.
    Ping {
        /// Echoed back in the matching [`WireMsg::Pong`].
        nonce: u64,
    },
    /// Health check answer.
    Pong {
        /// The nonce of the answered ping.
        nonce: u64,
    },
    /// Begin graceful drain: refuse new client operations, finish
    /// in-flight ones, answer peers, then stop.
    DrainReq,
    /// Drain completed; the node is about to stop serving.
    DrainAck {
        /// Client operations completed over the node's lifetime.
        completed: u64,
        /// Client operations refused (during drain).
        refused: u64,
    },
    /// Request a counters snapshot.
    MetricsReq,
    /// Counters snapshot (the deterministic subset; latency percentiles
    /// and throughput are wall-clock and are the benchmark's to measure).
    MetricsResp {
        /// Operations issued by this node as coordinator.
        issued: u64,
        /// Issued operations that completed successfully.
        completed: u64,
        /// Issued operations that failed (deadline/retry exhaustion).
        failed: u64,
        /// Client operations refused during drain.
        refused: u64,
        /// Stores served for peers.
        served_stores: u64,
        /// Lookup probes served for peers.
        served_lookups: u64,
    },
    /// Client register write: advertise `key → value` through the
    /// receiving coordinator's quorum.
    ClientPut {
        /// Client-chosen request id (echoed in the reply).
        req: u64,
        /// Key to write.
        key: Key,
        /// Value to write.
        value: Value,
    },
    /// Answer to a [`WireMsg::ClientPut`].
    ClientPutDone {
        /// The answered request.
        req: u64,
        /// Outcome of the write.
        status: OpStatus,
    },
    /// Client register read through the receiving coordinator's quorum.
    ClientGet {
        /// Client-chosen request id (echoed in the reply).
        req: u64,
        /// Key to read.
        key: Key,
    },
    /// Answer to a [`WireMsg::ClientGet`].
    ClientGetDone {
        /// The answered request.
        req: u64,
        /// Outcome of the read.
        status: OpStatus,
        /// The value read (meaningful only when `status` is
        /// [`OpStatus::Ok`]).
        value: Value,
    },
}

/// Outcome of a client-facing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// The quorum access failed (miss, deadline, or retry exhaustion).
    Failed,
    /// The quorum access succeeded.
    Ok,
    /// The node is draining and refused the operation.
    Refused,
}

/// A wire message with its sender: what the codec frames and the hosts
/// route. Carrying `from` explicitly keeps vote attribution independent
/// of the transport's own addressing (UDP source addresses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// The sending node.
    pub from: NodeId,
    /// The message.
    pub msg: WireMsg,
}

/// The substrate the protocol engine runs over.
///
/// Implementations deliver messages best-effort (loss is the engine's
/// problem — that is what its retry layer is for) and fire each armed
/// timer exactly once via [`crate::endpoint::QuorumEndpoint::on_timer`].
pub trait Transport {
    /// Monotonic time in microseconds: simulated time on deterministic
    /// substrates, wall-clock since process start on real sockets.
    fn now_micros(&self) -> u64;
    /// Queues `msg` for best-effort delivery to `to`.
    fn send(&mut self, to: NodeId, msg: WireMsg);
    /// Arms a timer: the engine's `on_timer(token)` runs `delay_micros`
    /// from now. Tokens are engine-chosen and never reused.
    fn set_timer(&mut self, delay_micros: u64, token: u64);
}

/// A buffering [`Transport`]: sends and timers accumulate in vectors the
/// host flushes after the engine callback returns. Used by
/// [`crate::loopback::LoopbackNet`], which cannot lend the engine a
/// borrow of itself mid-callback, and by unit tests; `pqs-serve`'s node
/// loop does not buffer — its transport writes each send straight onto
/// the UDP socket.
#[derive(Debug, Default)]
pub struct QueuedTransport {
    /// The time reported to the engine.
    pub now: u64,
    /// Messages queued by the engine, in send order.
    pub sent: Vec<(NodeId, WireMsg)>,
    /// Timers armed by the engine: `(delay_micros, token)`.
    pub timers: Vec<(u64, u64)>,
}

impl QueuedTransport {
    /// An empty buffer reporting `now` (microseconds) to the engine.
    pub fn at(now: u64) -> Self {
        QueuedTransport {
            now,
            sent: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl Transport for QueuedTransport {
    fn now_micros(&self) -> u64 {
        self.now
    }

    fn send(&mut self, to: NodeId, msg: WireMsg) {
        self.sent.push((to, msg));
    }

    fn set_timer(&mut self, delay_micros: u64, token: u64) {
        self.timers.push((delay_micros, token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_transport_buffers_in_order() {
        let mut t = QueuedTransport::at(42);
        assert_eq!(t.now_micros(), 42);
        t.send(NodeId(1), WireMsg::StoreAck { op: 7 });
        t.send(NodeId(2), WireMsg::Ping { nonce: 9 });
        t.set_timer(1_000, 3);
        assert_eq!(t.sent.len(), 2);
        assert_eq!(t.sent[0].0, NodeId(1));
        assert_eq!(t.timers, vec![(1_000, 3)]);
    }
}
