//! Property-based tests for the AODV route table.

use pqs_net::NodeId;
use pqs_routing::RouteTable;
use pqs_sim::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Update {
        dst: u32,
        next: u32,
        hops: u8,
        seq: u32,
        ttl_s: u64,
    },
    Invalidate {
        dst: u32,
    },
    InvalidateVia {
        next: u32,
    },
    Advance {
        by_s: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..8, 0u32..8, 1u8..10, 0u32..50, 1u64..100).prop_map(
            |(dst, next, hops, seq, ttl_s)| Op::Update {
                dst,
                next,
                hops,
                seq,
                ttl_s
            }
        ),
        (0u32..8).prop_map(|dst| Op::Invalidate { dst }),
        (0u32..8).prop_map(|next| Op::InvalidateVia { next }),
        (1u64..50).prop_map(|by_s| Op::Advance { by_s }),
    ]
}

proptest! {
    /// Under any operation sequence the table upholds its invariants:
    /// lookups only return valid unexpired entries, sequence numbers
    /// never move backwards for a destination, and invalidation is
    /// reflected immediately.
    #[test]
    fn route_table_invariants(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let mut table = RouteTable::new();
        let mut now = SimTime::ZERO;
        let mut last_seq: std::collections::HashMap<u32, u32> = Default::default();
        for op in ops {
            match op {
                Op::Update { dst, next, hops, seq, ttl_s } => {
                    let expires = now + pqs_sim::SimDuration::from_secs(ttl_s);
                    let before = table.entry(NodeId(dst)).map(|r| r.dst_seq);
                    let accepted = table.update(NodeId(dst), NodeId(next), hops, seq, expires, now);
                    if accepted {
                        last_seq.insert(dst, seq);
                        let r = table.lookup(NodeId(dst), now).expect("fresh entry visible");
                        prop_assert_eq!(r.next_hop, NodeId(next));
                        prop_assert!(r.valid);
                    } else if let Some(prev) = before {
                        // Rejection only happens in favour of an entry at
                        // least as fresh.
                        prop_assert!((prev.wrapping_sub(seq) as i32) >= 0);
                    }
                }
                Op::Invalidate { dst } => {
                    table.invalidate(NodeId(dst));
                    prop_assert!(table.lookup(NodeId(dst), now).is_none());
                }
                Op::InvalidateVia { next } => {
                    let broken = table.invalidate_via(NodeId(next));
                    for (dst, _) in broken {
                        prop_assert!(table.lookup(dst, now).is_none());
                    }
                    // Nothing valid routes via `next` afterwards.
                    for dst in 0..8u32 {
                        if let Some(r) = table.lookup(NodeId(dst), now) {
                            prop_assert!(r.next_hop != NodeId(next));
                        }
                    }
                }
                Op::Advance { by_s } => {
                    now += pqs_sim::SimDuration::from_secs(by_s);
                }
            }
            // Global invariant: every lookup result is valid and unexpired.
            for dst in 0..8u32 {
                if let Some(r) = table.lookup(NodeId(dst), now) {
                    prop_assert!(r.valid);
                    prop_assert!(r.expires > now);
                }
            }
        }
    }
}
