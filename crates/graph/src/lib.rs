//! # pqs-graph — random geometric graphs and random walks
//!
//! Graph-theoretic substrate for the probabilistic-quorum study:
//!
//! - [`Graph`]: a compact undirected adjacency-list graph with BFS-based
//!   connectivity, distance, and diameter queries,
//! - [`rgg`]: random geometric graphs `G²(n, r)` on the unit square or unit
//!   torus — the standard connectivity model of wireless ad hoc networks
//!   (Penrose 2003; Gupta–Kumar 1998), with the paper's density-driven
//!   scaling `a² = π r² n / d_avg`,
//! - [`walks`]: simple, self-avoiding (UNIQUE) and Maximum-Degree random
//!   walks, plus estimators for the partial cover time `PCT(i)` and the
//!   crossing time of two walks (Definitions in §4.2 and §5.3 of the
//!   paper),
//! - [`bounds`]: the paper's closed-form asymptotic bounds (Theorem 4.1,
//!   Theorem 5.5) for comparison against measurements.
//!
//! # Examples
//!
//! Build an RGG at the paper's default density and measure how many steps
//! a random walk needs to see `√n` distinct nodes:
//!
//! ```
//! use pqs_graph::{rgg, walks};
//! use pqs_sim::rng;
//!
//! let mut rng = rng::stream(1, 99);
//! let net = rgg::RggConfig::with_avg_degree(200, 10.0).generate(&mut rng);
//! let targets = (200f64).sqrt() as usize;
//! let steps = walks::partial_cover_steps(
//!     net.graph(), 0, targets, walks::WalkKind::Simple, &mut rng).unwrap();
//! assert!(steps >= targets as u64 - 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod graph;
pub mod rgg;
pub mod walks;

pub use graph::Graph;
pub use rgg::{Rgg, RggConfig, Topology};
