//! # pqs-routing — AODV multi-hop routing
//!
//! An implementation of AODV (Ad hoc On-demand Distance Vector routing,
//! RFC 3561-style) over the `pqs-net` substrate, as used by the paper for
//! the membership-based RANDOM quorum access strategy (§2.4: "We use AODV
//! for multihop routing when accessing quorums selected by the RANDOM
//! access strategy").
//!
//! Features:
//!
//! - on-demand route discovery: network-wide RREQ floods, retried a
//!   fixed number of times before the send fails (no expanding ring —
//!   quorum targets are uniformly random, so small rings rarely succeed),
//! - reverse/forward route installation with destination sequence
//!   numbers and route lifetimes; only the destination answers an RREQ,
//! - one-hop RERRs on link breaks, driven by the MAC's cross-layer
//!   failure notification (§6.2),
//! - **scoped discovery** (`max_ttl`) used by the paper's reply-path
//!   local-repair technique (TTL-3 searches),
//! - a **relay tap**: every routed packet in transit reaches the stack,
//!   which forwards it or consumes it — the hook of the RANDOM-OPT
//!   strategy (§4.5),
//! - separate accounting of data-hop transmissions vs routing control
//!   overhead (RREQ/RREP/RERR), matching the paper's metrics (§8).
//!
//! The [`Router`] manages per-node state for every node of the simulated
//! network; a protocol stack composes it by forwarding substrate upcalls
//! (see [`Router::on_upcall`]) and dispatching the returned
//! [`RouterEvent`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod router;
mod table;

pub use router::{
    RoutePacket, Router, RouterEvent, RoutingStats, TransitHandle, CONTROL_BYTES,
    DATA_HEADER_BYTES, ROUTER_TOKEN_BIT,
};
pub use table::{Route, RouteTable};
