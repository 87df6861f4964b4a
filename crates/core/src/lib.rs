//! # pqs-core — probabilistic quorum systems in wireless ad hoc networks
//!
//! The primary contribution of the reproduced paper (Friedman, Kliot,
//! Avin; DSN'08 / ACM TOCS 2010): probabilistic ε-intersecting biquorum
//! systems for MANETs, with several access strategies that may be mixed
//! asymmetrically.
//!
//! - [`spec`]: biquorum specifications, the mix-and-match intersection
//!   bound (Lemma 5.2) and the Corollary 5.3 sizing rule,
//! - [`analysis`]: churn degradation closed forms (§6.1), optimal
//!   asymmetric sizing (Lemma 5.6), asymptotic cost tables (Figs. 3, 6),
//! - [`membership`]: converged random membership views (RaWMS-style),
//! - [`store`]: the location-service store with owner/bystander roles,
//! - [`op`]: the open-operation core both engines run on — per
//!   operation, the pinned quorum sample, the placement count, the
//!   `b + 1` vote and the retry verdicts, defined once,
//! - [`stack`]: the simulator engine, one child module per access
//!   strategy — RANDOM, RANDOM-OPT, PATH / UNIQUE-PATH, FLOODING — plus
//!   the reverse-path reply with its reduction and local repair, the
//!   outcome verdicts (Byzantine boundary, votes, caching), the retry
//!   layer and the controller feed,
//! - [`transport`] / [`wire`] / [`endpoint`]: the transport seam — the
//!   RANDOM-strategy engine that runs the same operations over
//!   deterministic in-process links ([`loopback`]) or real UDP sockets
//!   (`pqs-serve`),
//! - [`estimator`]: network-size estimation from walk collisions (§6.3),
//! - [`workload`] / [`runner`]: the paper's simulation scenarios and the
//!   multi-seed experiment runner.
//!
//! # Examples
//!
//! Size a biquorum and check the guarantee:
//!
//! ```
//! use pqs_core::spec::{self, AccessStrategy, BiquorumSpec};
//!
//! let bq = BiquorumSpec::asymmetric_for_epsilon(
//!     AccessStrategy::Random, AccessStrategy::UniquePath, 400, 0.1, 2.0);
//! assert!(bq.intersection_lower_bound(400).unwrap() >= 0.9);
//! // Corollary 5.3 directly:
//! assert!(f64::from(bq.advertise.size * bq.lookup.size)
//!     >= spec::min_quorum_product(400, 0.1));
//! ```
//!
//! Run a small end-to-end scenario (advertise + lookup over a simulated
//! static network):
//!
//! ```
//! use pqs_core::runner::{run_scenario, ScenarioConfig};
//! use pqs_core::workload::WorkloadConfig;
//!
//! let mut cfg = ScenarioConfig::paper(50);
//! cfg.workload = WorkloadConfig::small(5, 10);
//! let metrics = run_scenario(&cfg, 42);
//! assert_eq!(metrics.lookups, 10);
//! assert!(metrics.hit_ratio() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod endpoint;
pub mod estimator;
pub mod loopback;
pub mod membership;
pub mod messages;
pub mod obs;
pub mod op;
pub mod runner;
pub mod service;
pub mod spec;
pub mod stack;
pub mod store;
pub mod transport;
pub mod wire;
pub mod workload;

pub use endpoint::{Completion, EndpointConfig, EndpointCounters, QuorumEndpoint};
pub use loopback::{LinkFaults, LoopbackConfig, LoopbackNet};
pub use membership::Membership;
pub use messages::{AppMsg, OpId};
pub use obs::{HoldReason, LoadSummary, TraceEvent};
pub use runner::{
    run_cells, run_scenario, run_scenario_hooked, run_seeds, Aggregate, ControllerHook, RunMetrics,
    ScenarioConfig, SweepCell,
};
pub use service::{Fanout, OpKind, OpRecord, QuorumCounters, RetryPolicy, ServiceConfig};
pub use spec::{AccessStrategy, BiquorumSpec, QuorumSpec};
pub use stack::{QuorumNet, QuorumStack};
pub use store::{Key, Role, Store, Value};
pub use transport::{Datagram, OpStatus, QueuedTransport, Transport, WireMsg};
