//! # pqs-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the `pqs` workspace: a small,
//! deterministic discrete-event engine in the spirit of JiST/SWANS (the
//! simulator used by the paper this workspace reproduces). It provides:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution virtual time,
//! - [`EventQueue`]: a time-ordered queue with FIFO tie-breaking and
//!   cancellation,
//! - [`Scheduler`]: the queue plus a virtual clock; a simulation drives
//!   it with [`Scheduler::pop_until`] up to a horizon,
//! - [`rng`]: seedable, stream-split random number generators so that every
//!   component of a simulation draws from an independent, reproducible
//!   stream,
//! - [`metrics`]: deterministic counters and fixed-bucket
//!   latency histograms,
//! - [`pool`]: a bounded work-queue executor with submission-ordered
//!   result collection (the `PQS_JOBS` fan-out cap),
//! - [`control`]: deterministic periodic tick schedules for runtime
//!   controllers (the adaptive quorum planner's clock),
//! - [`trace`]: a bounded, typed sim-time trace ring,
//! - [`json`]: a minimal deterministic JSON tree for byte-stable metric
//!   exports (hand-rolled: the offline build has no `serde_json`).
//!
//! Determinism is a hard requirement: two runs with the same seed must
//! produce bit-identical traces. The queue therefore breaks timestamp ties
//! by insertion order (FIFO), never by hash order or heap internals.
//!
//! # Examples
//!
//! ```
//! use pqs_sim::{Scheduler, SimTime, SimDuration};
//!
//! let mut scheduler = Scheduler::new();
//! scheduler.schedule_at(SimTime::ZERO, 1u32);
//! let mut sum = 0;
//! while let Some((now, event)) = scheduler.pop_until(SimTime::from_secs(1)) {
//!     sum += event;
//!     if event < 3 {
//!         scheduler.schedule_at(now + SimDuration::from_millis(10), event + 1);
//!     }
//! }
//! assert_eq!(sum, 1 + 2 + 3);
//! assert_eq!(scheduler.now(), SimTime::from_millis(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod pool;
mod queue;
pub mod rng;
mod scheduler;
mod time;
pub mod trace;

pub use queue::{EventId, EventQueue};
pub use scheduler::Scheduler;
pub use time::{SimDuration, SimTime};
