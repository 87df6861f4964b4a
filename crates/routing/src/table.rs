//! The per-node AODV route table.

use pqs_net::NodeId;
use pqs_sim::hash::FastMap;
use pqs_sim::SimTime;

/// One routing-table entry: how to reach a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The neighbour to forward through.
    pub next_hop: NodeId,
    /// Hop count to the destination.
    pub hops: u8,
    /// Last known destination sequence number (freshness).
    pub dst_seq: u32,
    /// The entry is unusable after this instant.
    pub expires: SimTime,
    /// Invalidated entries keep their sequence number for RERR semantics
    /// but are not used for forwarding.
    pub valid: bool,
}

/// A node's AODV routing table.
///
/// # Examples
///
/// ```
/// use pqs_routing::RouteTable;
/// use pqs_net::NodeId;
/// use pqs_sim::SimTime;
///
/// let mut table = RouteTable::new();
/// let t0 = SimTime::ZERO;
/// let later = SimTime::from_secs(100);
/// table.update(NodeId(5), NodeId(2), 3, 7, later, t0);
/// assert_eq!(table.lookup(NodeId(5), t0).unwrap().next_hop, NodeId(2));
/// assert!(table.lookup(NodeId(5), later).is_none(), "expired");
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: FastMap<NodeId, Route>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Returns the valid, unexpired route to `dst`, if any.
    pub fn lookup(&self, dst: NodeId, now: SimTime) -> Option<&Route> {
        self.routes.get(&dst).filter(|r| r.valid && r.expires > now)
    }

    /// Returns the entry regardless of validity (for sequence numbers).
    pub fn entry(&self, dst: NodeId) -> Option<&Route> {
        self.routes.get(&dst)
    }

    /// Installs or refreshes a route following AODV's freshness rules:
    /// accept if the new sequence number is strictly fresher, or equally
    /// fresh with a shorter hop count, or the existing entry is
    /// invalid/expired/missing. Returns `true` if the table changed.
    pub fn update(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hops: u8,
        dst_seq: u32,
        expires: SimTime,
        now: SimTime,
    ) -> bool {
        let accept = match self.routes.get(&dst) {
            None => true,
            Some(existing) => {
                !existing.valid
                    || existing.expires <= now
                    || seq_newer(dst_seq, existing.dst_seq)
                    || (dst_seq == existing.dst_seq && hops < existing.hops)
            }
        };
        if accept {
            self.routes.insert(
                dst,
                Route {
                    next_hop,
                    hops,
                    dst_seq,
                    expires,
                    valid: true,
                },
            );
        }
        accept
    }

    /// Extends the lifetime of an active route (it is being used).
    pub fn refresh(&mut self, dst: NodeId, expires: SimTime) {
        if let Some(r) = self.routes.get_mut(&dst) {
            if r.valid {
                r.expires = r.expires.max(expires);
            }
        }
    }

    /// Invalidates the route to `dst`, bumping its sequence number so the
    /// loss can be advertised in a RERR. Returns the bumped sequence
    /// number if a valid entry existed.
    pub fn invalidate(&mut self, dst: NodeId) -> Option<u32> {
        let r = self.routes.get_mut(&dst)?;
        if !r.valid {
            return None;
        }
        r.valid = false;
        r.dst_seq = r.dst_seq.wrapping_add(1);
        Some(r.dst_seq)
    }

    /// Invalidates every valid route whose next hop is `neighbor` (the
    /// link to it broke). Returns the affected `(dst, bumped_seq)` pairs.
    pub fn invalidate_via(&mut self, neighbor: NodeId) -> Vec<(NodeId, u32)> {
        let mut broken = Vec::new();
        for (&dst, r) in self.routes.iter_mut() {
            if r.valid && r.next_hop == neighbor {
                r.valid = false;
                r.dst_seq = r.dst_seq.wrapping_add(1);
                broken.push((dst, r.dst_seq));
            }
        }
        broken.sort_unstable_by_key(|&(d, _)| d);
        broken
    }

    /// Number of entries (valid or not).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Returns `true` if the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// AODV sequence-number comparison with wrap-around (RFC 3561 §6.1).
fn seq_newer(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAR: SimTime = SimTime::from_secs(1_000);

    #[test]
    fn insert_and_lookup() {
        let mut t = RouteTable::new();
        assert!(t.update(NodeId(1), NodeId(2), 2, 5, FAR, SimTime::ZERO));
        let r = t.lookup(NodeId(1), SimTime::ZERO).unwrap();
        assert_eq!((r.next_hop, r.hops, r.dst_seq), (NodeId(2), 2, 5));
        assert!(t.lookup(NodeId(9), SimTime::ZERO).is_none());
    }

    #[test]
    fn freshness_rules() {
        let mut t = RouteTable::new();
        t.update(NodeId(1), NodeId(2), 2, 5, FAR, SimTime::ZERO);
        // Stale sequence number rejected.
        assert!(!t.update(NodeId(1), NodeId(3), 1, 4, FAR, SimTime::ZERO));
        // Same seq, more hops rejected.
        assert!(!t.update(NodeId(1), NodeId(3), 3, 5, FAR, SimTime::ZERO));
        // Same seq, fewer hops accepted.
        assert!(t.update(NodeId(1), NodeId(3), 1, 5, FAR, SimTime::ZERO));
        // Fresher seq accepted even with more hops.
        assert!(t.update(NodeId(1), NodeId(4), 9, 6, FAR, SimTime::ZERO));
        assert_eq!(
            t.lookup(NodeId(1), SimTime::ZERO).unwrap().next_hop,
            NodeId(4)
        );
    }

    #[test]
    fn expiry() {
        let mut t = RouteTable::new();
        t.update(
            NodeId(1),
            NodeId(2),
            2,
            5,
            SimTime::from_secs(10),
            SimTime::ZERO,
        );
        assert!(t.lookup(NodeId(1), SimTime::from_secs(9)).is_some());
        assert!(t.lookup(NodeId(1), SimTime::from_secs(10)).is_none());
        // An expired entry can be replaced by anything.
        assert!(t.update(NodeId(1), NodeId(3), 7, 0, FAR, SimTime::from_secs(11)));
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut t = RouteTable::new();
        t.update(
            NodeId(1),
            NodeId(2),
            2,
            5,
            SimTime::from_secs(10),
            SimTime::ZERO,
        );
        t.refresh(NodeId(1), SimTime::from_secs(50));
        assert!(t.lookup(NodeId(1), SimTime::from_secs(30)).is_some());
        // Refresh never shortens.
        t.refresh(NodeId(1), SimTime::from_secs(20));
        assert!(t.lookup(NodeId(1), SimTime::from_secs(30)).is_some());
    }

    #[test]
    fn invalidate_single_and_via() {
        let mut t = RouteTable::new();
        t.update(NodeId(1), NodeId(2), 2, 5, FAR, SimTime::ZERO);
        t.update(NodeId(3), NodeId(2), 3, 1, FAR, SimTime::ZERO);
        t.update(NodeId(4), NodeId(9), 1, 1, FAR, SimTime::ZERO);
        assert_eq!(t.invalidate(NodeId(1)), Some(6));
        assert_eq!(t.invalidate(NodeId(1)), None, "already invalid");
        assert!(t.lookup(NodeId(1), SimTime::ZERO).is_none());
        let broken = t.invalidate_via(NodeId(2));
        assert_eq!(broken, vec![(NodeId(3), 2)]);
        assert!(
            t.lookup(NodeId(4), SimTime::ZERO).is_some(),
            "other next hop kept"
        );
    }

    #[test]
    fn invalid_entry_keeps_seq_for_rerr() {
        let mut t = RouteTable::new();
        t.update(NodeId(1), NodeId(2), 2, 5, FAR, SimTime::ZERO);
        t.invalidate(NodeId(1));
        assert_eq!(t.entry(NodeId(1)).unwrap().dst_seq, 6);
        // And a fresher advertisement reinstates it.
        assert!(t.update(NodeId(1), NodeId(7), 4, 7, FAR, SimTime::ZERO));
        assert!(t.lookup(NodeId(1), SimTime::ZERO).is_some());
    }

    #[test]
    fn seq_wraparound() {
        assert!(seq_newer(1, u32::MAX));
        assert!(!seq_newer(u32::MAX, 1));
        assert!(seq_newer(5, 4));
        assert!(!seq_newer(4, 4));
    }
}
