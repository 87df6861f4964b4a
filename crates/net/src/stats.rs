//! Link-level counters.

use pqs_sim::json::{JsonValue, ToJson};

/// Counters maintained by the network substrate.
///
/// These count *link-level* activity. The paper's "number of messages"
/// metric (network-layer messages) is counted by the layers above — each
/// call to [`crate::Network::send`] is one network-layer hop — while MAC
/// retransmissions, ACKs and hellos are protocol overhead visible here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames put on the air (every PHY transmission, including retries).
    pub phy_tx: u64,
    /// Data frame transmissions (including MAC retries).
    pub data_tx: u64,
    /// Hello (heartbeat) transmissions.
    pub hello_tx: u64,
    /// ACK transmissions.
    pub ack_tx: u64,
    /// Data frames delivered to an upper layer (after deduplication).
    pub delivered: u64,
    /// Unicast sends abandoned after exhausting the retry limit.
    pub mac_failures: u64,
    /// MAC retransmission attempts (retries only, not first attempts).
    pub mac_retries: u64,
    /// Contention-window backoff draws (every channel-access attempt
    /// draws one; retries and deferrals draw again).
    pub mac_backoff_draws: u64,
    /// Channel-access attempts deferred because carrier sense found the
    /// medium busy.
    pub mac_channel_defers: u64,
    /// Receptions suppressed by injected drops or partitions (all frame
    /// kinds, counted per suppressed receiver).
    pub fault_dropped: u64,
    /// Data deliveries deferred by injected delay.
    pub fault_delayed: u64,
    /// Extra data deliveries created by injected duplication.
    pub fault_duplicated: u64,
    /// Unicast data PHY transmissions (including MAC retries). Together
    /// with the four counters below this supports the conservation
    /// invariant: every unicast data transmission is accepted, discarded
    /// as a duplicate, fault-dropped, lost, or still in flight.
    pub unicast_data_tx: u64,
    /// Unicast data frames the intended receiver decoded and the MAC
    /// accepted for delivery (fresh, not duplicates).
    pub unicast_delivered: u64,
    /// Unicast data frames decoded but discarded as MAC-level duplicates
    /// (a retry of an already-accepted frame).
    pub unicast_dup_discarded: u64,
    /// Unicast data frames the intended receiver decoded but fault
    /// injection suppressed.
    pub unicast_fault_dropped: u64,
    /// Unicast data frames the intended receiver never decoded
    /// (collision, SINR, out of range, or receiver down).
    pub unicast_lost: u64,
    /// Receptions aborted because the receiving node started transmitting
    /// mid-frame (half-duplex turnaround). The discarded frame is counted
    /// here instead of vanishing silently; if it was unicast data for this
    /// receiver it still surfaces as `unicast_lost` when the transmission
    /// ends, so the conservation invariant is unaffected.
    pub phy_rx_aborted: u64,
}

impl NetStats {
    /// Merges another stats record into this one (for multi-run sums).
    pub fn merge(&mut self, other: &NetStats) {
        self.phy_tx += other.phy_tx;
        self.data_tx += other.data_tx;
        self.hello_tx += other.hello_tx;
        self.ack_tx += other.ack_tx;
        self.delivered += other.delivered;
        self.mac_failures += other.mac_failures;
        self.mac_retries += other.mac_retries;
        self.mac_backoff_draws += other.mac_backoff_draws;
        self.mac_channel_defers += other.mac_channel_defers;
        self.fault_dropped += other.fault_dropped;
        self.fault_delayed += other.fault_delayed;
        self.fault_duplicated += other.fault_duplicated;
        self.unicast_data_tx += other.unicast_data_tx;
        self.unicast_delivered += other.unicast_delivered;
        self.unicast_dup_discarded += other.unicast_dup_discarded;
        self.unicast_fault_dropped += other.unicast_fault_dropped;
        self.unicast_lost += other.unicast_lost;
        self.phy_rx_aborted += other.phy_rx_aborted;
    }
}

impl ToJson for NetStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("phy_tx", JsonValue::from(self.phy_tx)),
            ("data_tx", JsonValue::from(self.data_tx)),
            ("hello_tx", JsonValue::from(self.hello_tx)),
            ("ack_tx", JsonValue::from(self.ack_tx)),
            ("delivered", JsonValue::from(self.delivered)),
            ("mac_failures", JsonValue::from(self.mac_failures)),
            ("mac_retries", JsonValue::from(self.mac_retries)),
            ("mac_backoff_draws", JsonValue::from(self.mac_backoff_draws)),
            (
                "mac_channel_defers",
                JsonValue::from(self.mac_channel_defers),
            ),
            ("fault_dropped", JsonValue::from(self.fault_dropped)),
            ("fault_delayed", JsonValue::from(self.fault_delayed)),
            ("fault_duplicated", JsonValue::from(self.fault_duplicated)),
            ("unicast_data_tx", JsonValue::from(self.unicast_data_tx)),
            ("unicast_delivered", JsonValue::from(self.unicast_delivered)),
            (
                "unicast_dup_discarded",
                JsonValue::from(self.unicast_dup_discarded),
            ),
            (
                "unicast_fault_dropped",
                JsonValue::from(self.unicast_fault_dropped),
            ),
            ("unicast_lost", JsonValue::from(self.unicast_lost)),
            ("phy_rx_aborted", JsonValue::from(self.phy_rx_aborted)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = NetStats {
            phy_tx: 1,
            data_tx: 2,
            hello_tx: 3,
            ack_tx: 4,
            delivered: 5,
            mac_failures: 6,
            mac_retries: 7,
            mac_backoff_draws: 16,
            mac_channel_defers: 17,
            fault_dropped: 8,
            fault_delayed: 9,
            fault_duplicated: 10,
            unicast_data_tx: 11,
            unicast_delivered: 12,
            unicast_dup_discarded: 13,
            unicast_fault_dropped: 14,
            unicast_lost: 15,
            phy_rx_aborted: 18,
        };
        a.merge(&a.clone());
        assert_eq!(a.phy_tx, 2);
        assert_eq!(a.mac_retries, 14);
        assert_eq!(a.phy_rx_aborted, 36);
        assert_eq!(NetStats::default().phy_tx, 0);
    }
}
