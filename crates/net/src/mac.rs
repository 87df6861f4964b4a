//! 802.11-like MAC: frames and the per-node transmit state machine.
//!
//! This module defines the data structures; the event plumbing (carrier
//! sense, timers, delivery) lives in `crate::network`, which drives one
//! [`MacState`] per node. The model is a simplified DCF:
//!
//! - CSMA with DIFS + slotted binary-exponential backoff,
//! - unicast frames are ACKed after SIFS and retried up to
//!   [`crate::config::RETRY_LIMIT`] times, after which the
//!   upper layer is notified (the cross-layer failure signal of §6.2),
//! - broadcast frames are sent once, unacknowledged, at the low rate,
//!   after a random jitter (§4.4),
//! - per-sender sequence numbers deduplicate MAC retransmissions.
//!
//! Simplifications relative to full 802.11 DCF (documented deviations):
//! backoff counters are re-drawn rather than frozen when the medium turns
//! busy, and there is no RTS/CTS (the paper's SWANS setup also ran without
//! RTS/CTS for these frame sizes).

use crate::config::{CW_MAX, CW_MIN};
use crate::NodeId;
use pqs_sim::hash::FastMap;
use rand::Rng;
use std::collections::VecDeque;

/// Link-layer destination of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacDst {
    /// One-hop unicast to a specific node (ACKed, retried).
    Unicast(NodeId),
    /// One-hop broadcast to whoever hears it (unacknowledged).
    Broadcast,
}

/// What a frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameKind<P> {
    /// An upper-layer packet.
    Data(P),
    /// A neighbourhood-discovery heartbeat (handled inside `pqs-net`).
    Hello,
    /// A MAC-level acknowledgement for sequence number `for_seq`.
    Ack {
        /// Sequence number of the data frame being acknowledged.
        for_seq: u64,
    },
}

/// A frame on the air.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<P> {
    /// Transmitting node.
    pub src: NodeId,
    /// Link-layer destination.
    pub dst: MacDst,
    /// Per-sender sequence number (stable across MAC retries).
    pub seq: u64,
    /// Payload.
    pub kind: FrameKind<P>,
}

/// An outgoing frame queued at the MAC, with its upper-layer token.
#[derive(Debug, Clone)]
pub struct Outgoing<P> {
    /// Link-layer destination.
    pub dst: MacDst,
    /// Payload.
    pub kind: FrameKind<P>,
    /// Upper-layer token echoed in the send-result upcall; `None` for
    /// internally generated frames (hellos).
    pub token: Option<u64>,
    /// Sequence number assigned at enqueue time.
    pub seq: u64,
    /// Payload size on the wire in bytes (drives airtime; headers are
    /// added by the MAC).
    pub bytes: usize,
}

/// Transmit-side phase of the MAC state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacPhase {
    /// Nothing to send, or waiting for the scheduled attempt event.
    Idle,
    /// An attempt event is scheduled; when it fires the channel is
    /// re-checked and the head-of-line frame transmitted if idle.
    Contending,
    /// Currently transmitting (the `PhyTxEnd` event is pending).
    Transmitting,
    /// Unicast data sent; waiting for the ACK or its timeout.
    AwaitingAck {
        /// Sequence number the ACK must carry.
        seq: u64,
    },
}

/// Per-node MAC state.
#[derive(Debug, Clone)]
pub struct MacState<P> {
    queue: VecDeque<Outgoing<P>>,
    /// Current transmit phase.
    pub phase: MacPhase,
    /// Transmission attempts already made for the head-of-line frame.
    pub retries: u32,
    /// Current contention window (slots).
    pub cw: u32,
    next_seq: u64,
    /// Highest data sequence number delivered per source (frames arrive
    /// in order per sender, so anything ≤ the stored value is a MAC
    /// retransmission).
    delivered: FastMap<NodeId, u64>,
}

impl<P> Default for MacState<P> {
    /// An idle MAC with contention window [`CW_MIN`].
    fn default() -> Self {
        MacState {
            queue: VecDeque::new(),
            phase: MacPhase::Idle,
            retries: 0,
            cw: CW_MIN,
            next_seq: 0,
            delivered: FastMap::default(),
        }
    }
}

impl<P> MacState<P> {
    /// Enqueues a frame of `bytes` payload bytes, assigning its sequence
    /// number. Returns `true` if the MAC was idle and an attempt should
    /// be scheduled.
    pub fn enqueue(
        &mut self,
        dst: MacDst,
        kind: FrameKind<P>,
        token: Option<u64>,
        bytes: usize,
    ) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(Outgoing {
            dst,
            kind,
            token,
            seq,
            bytes,
        });
        self.phase == MacPhase::Idle
    }

    /// Returns the head-of-line frame, if any.
    pub fn head(&self) -> Option<&Outgoing<P>> {
        self.queue.front()
    }

    /// Pops the head-of-line frame after success or final failure,
    /// resetting retry state. Returns the frame.
    pub fn finish_head(&mut self) -> Option<Outgoing<P>> {
        self.retries = 0;
        self.cw = CW_MIN;
        self.phase = MacPhase::Idle;
        self.queue.pop_front()
    }

    /// Doubles the contention window after a failed attempt, up to
    /// [`CW_MAX`].
    pub fn grow_cw(&mut self) {
        self.cw = (self.cw * 2 + 1).min(CW_MAX);
    }

    /// Draws a backoff length in slots: uniform in `[0, cw]`.
    pub fn draw_backoff<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.gen_range(0..=self.cw)
    }

    /// Records reception of data frame `seq` from `src` and returns
    /// `true` if it is new (should be delivered up) or `false` if it is a
    /// MAC retransmission.
    pub fn accept_data(&mut self, src: NodeId, seq: u64) -> bool {
        match self.delivered.get(&src) {
            Some(&last) if seq <= last => false,
            _ => {
                self.delivered.insert(src, seq);
                true
            }
        }
    }

    /// Number of queued frames (including the head being worked on).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Drops all queued frames and returns their tokens (used when a node
    /// crashes).
    pub fn drain_tokens(&mut self) -> Vec<u64> {
        self.phase = MacPhase::Idle;
        self.retries = 0;
        self.queue.drain(..).filter_map(|o| o.token).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_sim::rng;

    fn mac() -> MacState<u8> {
        MacState::default()
    }

    #[test]
    fn enqueue_reports_idle_transition() {
        let mut m = mac();
        assert!(m.enqueue(MacDst::Broadcast, FrameKind::Data(1), Some(7), 512));
        m.phase = MacPhase::Contending;
        assert!(!m.enqueue(MacDst::Broadcast, FrameKind::Data(2), Some(8), 512));
        assert_eq!(m.queue_len(), 2);
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut m = mac();
        m.enqueue(MacDst::Broadcast, FrameKind::Data(1), None, 512);
        m.enqueue(MacDst::Broadcast, FrameKind::Data(2), None, 512);
        assert_eq!(m.head().unwrap().seq, 0);
        m.finish_head();
        assert_eq!(m.head().unwrap().seq, 1);
    }

    #[test]
    fn finish_head_resets_contention_state() {
        let mut m = mac();
        m.enqueue(MacDst::Unicast(NodeId(1)), FrameKind::Data(0), Some(1), 512);
        m.retries = 3;
        m.cw = 255;
        m.phase = MacPhase::AwaitingAck { seq: 0 };
        let out = m.finish_head().expect("head");
        assert_eq!(out.token, Some(1));
        assert_eq!(m.retries, 0);
        assert_eq!(m.cw, 31);
        assert_eq!(m.phase, MacPhase::Idle);
    }

    #[test]
    fn cw_doubles_and_saturates() {
        let mut m = mac();
        m.grow_cw();
        assert_eq!(m.cw, 63);
        for _ in 0..10 {
            m.grow_cw();
        }
        assert_eq!(m.cw, 1023);
    }

    #[test]
    fn backoff_within_cw() {
        let m = mac();
        let mut r = rng::stream(1, 0);
        for _ in 0..200 {
            assert!(m.draw_backoff(&mut r) <= 31);
        }
    }

    #[test]
    fn duplicate_data_detected() {
        let mut m = mac();
        let src = NodeId(3);
        assert!(m.accept_data(src, 0));
        assert!(!m.accept_data(src, 0), "retransmission rejected");
        assert!(m.accept_data(src, 5), "gaps are fine (frames were lost)");
        assert!(!m.accept_data(src, 4), "late lower seq is a duplicate");
        assert!(m.accept_data(NodeId(4), 0), "per-source tracking");
    }

    #[test]
    fn drain_tokens_on_crash() {
        let mut m = mac();
        m.enqueue(MacDst::Broadcast, FrameKind::Data(1), Some(10), 512);
        m.enqueue(MacDst::Broadcast, FrameKind::Hello, None, 32);
        m.enqueue(MacDst::Broadcast, FrameKind::Data(2), Some(11), 512);
        assert_eq!(m.drain_tokens(), vec![10, 11]);
        assert_eq!(m.queue_len(), 0);
    }
}
