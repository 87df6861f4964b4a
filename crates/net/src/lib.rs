//! # pqs-net — a wireless ad hoc network substrate
//!
//! A from-scratch, deterministic MANET simulator in the mould of
//! JiST/SWANS (the substrate of the paper this workspace reproduces):
//!
//! - **PHY** ([`phy`]): two-ray ground path loss, and both reception
//!   models of §2.3 — the protocol (unit-disk + guard zone) model and the
//!   physical (SINR, cumulative interference, capture) model, with the
//!   radio fixed to Fig. 2 by the constants of [`config`],
//! - **MAC** ([`mac`]): simplified 802.11 DCF — CSMA, DIFS + binary
//!   exponential backoff, unicast ACKs with 7 retries and a cross-layer
//!   failure signal, jittered unacknowledged broadcasts,
//! - **Mobility** ([`mobility`]): random waypoint with analytic position
//!   interpolation,
//! - **Neighbourhood discovery**: 10 s heartbeat cycle with expiry,
//! - **Churn**: scheduled crashes and (re)joins,
//! - **[`Network`]**: the event-driven facade that upper layers drive via
//!   the [`Stack`] trait.
//!
//! # Examples
//!
//! Broadcast one frame and observe its delivery:
//!
//! ```
//! use pqs_net::{MacDst, NetConfig, Network, Stack, Upcall, MobilityModel};
//! use pqs_sim::SimTime;
//!
//! struct Count(u32);
//! impl Stack<&'static str> for Count {
//!     fn on_upcall(&mut self, _net: &mut Network<&'static str>, up: Upcall<&'static str>) {
//!         if let Upcall::Frame { payload, .. } = up {
//!             // `payload` is a shared `Payload<P>`; deref to reach `P`.
//!             assert_eq!(*payload, "hi");
//!             self.0 += 1;
//!         }
//!     }
//! }
//!
//! let mut cfg = NetConfig::paper(50);
//! cfg.mobility = MobilityModel::Static;
//! let mut net = Network::new(cfg);
//! let src = net.alive_nodes()[0];
//! net.send(src, MacDst::Broadcast, "hi", 1);
//! let mut stack = Count(0);
//! net.run(&mut stack, SimTime::from_secs(1));
//! assert!(stack.0 >= 1, "at least one neighbour heard the broadcast");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod faults;
pub mod geometry;
pub mod mac;
pub mod mobility;
mod network;
pub mod payload;
pub mod phy;
mod stats;

pub use config::{NetConfig, PhyConfig, ReceptionModel};
pub use faults::{fabricated_value, FaultPlan, NodeBehavior};
pub use mac::MacDst;
pub use mobility::MobilityModel;
pub use network::{Network, Stack, Upcall};
pub use payload::Payload;
pub use stats::NetStats;

use std::fmt;

/// Identifier of a network node.
///
/// Node ids index a dense array `0..n`; churn marks nodes dead rather than
/// removing them, so ids stay stable for the lifetime of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
