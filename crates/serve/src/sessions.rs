//! Exactly-once client sessions: which `(client address, request id)`
//! pairs a node is running a quorum operation for, and which it has
//! already answered. A pure function of the request and completion
//! sequence — no socket, no clock.

use pqs_core::endpoint::Completion;
use pqs_core::messages::OpId;
use pqs_core::service::OpKind;
use pqs_core::store::Value;
use pqs_core::transport::{OpStatus, WireMsg};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;

/// A client request as its sender names it.
type ReqKey = (SocketAddr, u64);

/// Completed answers kept per node for duplicate-request replay, evicted
/// oldest-first. At the clients' ~64-byte frames this bounds the cache
/// near 100 KiB.
const REPLY_CACHE_CAP: usize = 1024;

/// What an arriving client request is, given what came before it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Admission<'a> {
    /// A retransmit of an operation still in flight: its one answer is
    /// on the way.
    InFlight,
    /// A retransmit of a request already answered (it raced the answer,
    /// or the answer was lost): replay these bytes instead of running a
    /// second quorum operation — for a put, a second advertise round for
    /// the same write.
    Replay(&'a WireMsg),
    /// Not seen before, or long enough ago to have been evicted.
    Fresh,
}

/// The answer to client request `req` of kind `kind`.
pub(crate) fn answer(req: u64, kind: OpKind, status: OpStatus, value: Value) -> WireMsg {
    match kind {
        OpKind::Advertise => WireMsg::ClientPutDone { req, status },
        OpKind::Lookup => WireMsg::ClientGetDone { req, status, value },
    }
}

/// One node's client sessions. `admit` every arriving request, record
/// `opened` for the fresh ones the engine accepted, and hand every
/// engine completion to `complete`.
#[derive(Default)]
pub(crate) struct ClientSessions {
    /// Operation → the request waiting on it.
    waiting: HashMap<OpId, ReqKey>,
    /// Requests whose operation is in flight.
    open: HashSet<ReqKey>,
    /// Request → its answer, once completed; `order` is insertion order.
    answers: HashMap<ReqKey, WireMsg>,
    order: VecDeque<ReqKey>,
}

impl ClientSessions {
    pub(crate) fn admit(&self, src: SocketAddr, req: u64) -> Admission<'_> {
        if self.open.contains(&(src, req)) {
            Admission::InFlight
        } else if let Some(answer) = self.answers.get(&(src, req)) {
            Admission::Replay(answer)
        } else {
            Admission::Fresh
        }
    }

    /// Records that `op` now runs on behalf of a [`Admission::Fresh`]
    /// request.
    pub(crate) fn opened(&mut self, src: SocketAddr, req: u64, op: OpId) {
        self.waiting.insert(op, (src, req));
        self.open.insert((src, req));
    }

    /// The answer a completion owes, and to whom; `None` for an
    /// operation no client is waiting on.
    pub(crate) fn complete(&mut self, c: &Completion) -> Option<(SocketAddr, WireMsg)> {
        let key = self.waiting.remove(&c.op)?;
        self.open.remove(&key);
        let status = if c.ok { OpStatus::Ok } else { OpStatus::Failed };
        let msg = answer(key.1, c.kind, status, c.value.unwrap_or(0));
        if self.answers.insert(key, msg.clone()).is_none() {
            self.order.push_back(key);
            if self.order.len() > REPLY_CACHE_CAP {
                let oldest = self.order.pop_front().expect("over capacity");
                self.answers.remove(&oldest);
            }
        }
        Some((key.0, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_core::transport::Datagram;
    use pqs_core::wire::encode_frame;
    use pqs_net::NodeId;

    fn client() -> SocketAddr {
        "127.0.0.1:4000".parse().expect("literal address")
    }

    fn done(op: OpId, kind: OpKind) -> Completion {
        Completion {
            op,
            kind,
            key: 7,
            ok: true,
            value: (kind == OpKind::Lookup).then_some(1234),
            latency_micros: 1,
        }
    }

    #[test]
    fn retransmit_in_flight_starts_no_second_operation() {
        let mut s = ClientSessions::default();
        assert_eq!(s.admit(client(), 1), Admission::Fresh);
        s.opened(client(), 1, 10);
        assert_eq!(s.admit(client(), 1), Admission::InFlight);
        // Request ids are per client socket, not global.
        let other: SocketAddr = "127.0.0.1:4001".parse().expect("literal address");
        assert_eq!(s.admit(other, 1), Admission::Fresh);
        assert_eq!(s.admit(client(), 2), Admission::Fresh);
    }

    #[test]
    fn retransmit_after_completion_replays_identical_bytes() {
        let mut s = ClientSessions::default();
        s.opened(client(), 1, 10);
        let (to, sent) = s
            .complete(&done(10, OpKind::Lookup))
            .expect("a waiting client");
        assert_eq!(to, client());
        assert_eq!(
            sent,
            WireMsg::ClientGetDone {
                req: 1,
                status: OpStatus::Ok,
                value: 1234
            }
        );
        let Admission::Replay(replayed) = s.admit(client(), 1) else {
            panic!("an answered request must replay");
        };
        let frame = |msg: &WireMsg| {
            encode_frame(&Datagram {
                from: NodeId(0),
                msg: msg.clone(),
            })
        };
        assert_eq!(frame(replayed), frame(&sent));
        // The operation is finished: a second completion owes nothing.
        assert_eq!(s.complete(&done(10, OpKind::Lookup)), None);
    }

    #[test]
    fn reply_cache_evicts_oldest_first_and_only_past_capacity() {
        let mut s = ClientSessions::default();
        let run = |s: &mut ClientSessions, req: u64| {
            s.opened(client(), req, req);
            s.complete(&done(req, OpKind::Advertise)).expect("answer");
        };
        for req in 1..=REPLY_CACHE_CAP as u64 {
            run(&mut s, req);
        }
        assert!(matches!(s.admit(client(), 1), Admission::Replay(_)));
        run(&mut s, REPLY_CACHE_CAP as u64 + 1);
        assert_eq!(s.admit(client(), 1), Admission::Fresh);
        assert!(matches!(s.admit(client(), 2), Admission::Replay(_)));
        assert_eq!(s.answers.len(), REPLY_CACHE_CAP);
        assert!(s.waiting.is_empty() && s.open.is_empty());
    }

    #[test]
    fn completion_of_an_unknown_operation_is_ignored() {
        let mut s = ClientSessions::default();
        s.opened(client(), 1, 10);
        assert_eq!(s.complete(&done(99, OpKind::Advertise)), None);
        assert_eq!(s.admit(client(), 1), Admission::InFlight);
        assert!(s.answers.is_empty());
    }
}
