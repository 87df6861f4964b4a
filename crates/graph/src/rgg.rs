//! Random geometric graphs `G²(n, r)`.
//!
//! `n` nodes are placed uniformly at random on a square (or torus) of side
//! `a`, and any two nodes within Euclidean distance `r` are connected. The
//! paper's simulations fix the radio range at `r = 200 m` and scale the
//! area so that the average degree hits a target:
//! `a² = π r² n / d_avg` (§2.4).

use crate::graph::Graph;
use rand::Rng;

/// The paper's ideal reception range in metres (Fig. 2).
pub const DEFAULT_RANGE_M: f64 = 200.0;

/// Boundary handling for the square region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// A flat square with edges — what the simulations use.
    #[default]
    Square,
    /// A torus (wrap-around) — what the formal analysis assumes (§2.3,
    /// footnote 4).
    Torus,
}

/// Parameters of a random geometric graph.
///
/// # Examples
///
/// ```
/// use pqs_graph::rgg::RggConfig;
///
/// // Paper default: r = 200 m, area scaled for an average degree of 10.
/// let cfg = RggConfig::with_avg_degree(400, 10.0);
/// assert!((cfg.expected_avg_degree() - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RggConfig {
    /// Number of nodes.
    pub n: usize,
    /// Connection (radio) radius, in the same unit as `side`.
    pub radius: f64,
    /// Side length of the square region.
    pub side: f64,
    /// Boundary handling.
    pub topology: Topology,
}

impl RggConfig {
    /// Configuration on the unit square with radius `r`.
    pub fn unit(n: usize, r: f64) -> Self {
        RggConfig {
            n,
            radius: r,
            side: 1.0,
            topology: Topology::Square,
        }
    }

    /// The paper's construction: radio range 200 m and the area scaled so
    /// the *expected* average degree is `d_avg` (`a² = π r² n / d_avg`).
    ///
    /// # Panics
    ///
    /// Panics if `d_avg` is not strictly positive.
    pub fn with_avg_degree(n: usize, d_avg: f64) -> Self {
        assert!(d_avg > 0.0, "average degree must be positive");
        let r = DEFAULT_RANGE_M;
        let side = (std::f64::consts::PI * r * r * n as f64 / d_avg).sqrt();
        RggConfig {
            n,
            radius: r,
            side,
            topology: Topology::Square,
        }
    }

    /// Switches boundary handling (builder-style).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The expected average degree `π r² n / a²` implied by this
    /// configuration (exact on the torus; a slight overestimate on the
    /// square because of boundary effects).
    pub fn expected_avg_degree(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius * self.n as f64 / (self.side * self.side)
    }

    /// Samples positions and builds the graph.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Rgg {
        let positions: Vec<(f64, f64)> = (0..self.n)
            .map(|_| (rng.gen::<f64>() * self.side, rng.gen::<f64>() * self.side))
            .collect();
        Rgg::from_positions(positions, *self)
    }
}

/// Gupta–Kumar connectivity radius: with `r = sqrt(c·ln n / (π n))` on the
/// unit square, the RGG is connected w.h.p. iff `c > 1` (§6.1).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn connectivity_radius(n: usize, c: f64) -> f64 {
    assert!(n >= 2, "need at least two nodes");
    (c * (n as f64).ln() / (std::f64::consts::PI * n as f64)).sqrt()
}

/// A realised random geometric graph: node positions plus connectivity.
#[derive(Debug, Clone)]
pub struct Rgg {
    positions: Vec<(f64, f64)>,
    graph: Graph,
    config: RggConfig,
}

impl Rgg {
    /// Builds the RGG induced by explicit `positions` under `config`
    /// (radius/topology); `config.n` is overridden by `positions.len()`.
    ///
    /// Uses grid bucketing, so construction is `O(n + m)` in expectation.
    pub fn from_positions(positions: Vec<(f64, f64)>, mut config: RggConfig) -> Self {
        config.n = positions.len();
        let mut graph = Graph::new(positions.len());
        let r = config.radius;
        let side = config.side;
        // Grid of cells at least r wide: only neighbouring cells can hold
        // nodes within range.
        let cells = ((side / r).floor() as usize).max(1);
        let cell_of = |p: (f64, f64)| -> (usize, usize) {
            let cx = ((p.0 / side * cells as f64) as usize).min(cells - 1);
            let cy = ((p.1 / side * cells as f64) as usize).min(cells - 1);
            (cx, cy)
        };
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); cells * cells];
        for (i, &p) in positions.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            buckets[cy * cells + cx].push(i);
        }
        let wrap = config.topology == Topology::Torus;
        for i in 0..positions.len() {
            let (cx, cy) = cell_of(positions[i]);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let (nx, ny) = if wrap {
                        (
                            (cx as i64 + dx).rem_euclid(cells as i64) as usize,
                            (cy as i64 + dy).rem_euclid(cells as i64) as usize,
                        )
                    } else {
                        let nx = cx as i64 + dx;
                        let ny = cy as i64 + dy;
                        if nx < 0 || ny < 0 || nx >= cells as i64 || ny >= cells as i64 {
                            continue;
                        }
                        (nx as usize, ny as usize)
                    };
                    for &j in &buckets[ny * cells + nx] {
                        if j > i && distance(positions[i], positions[j], side, wrap) <= r {
                            graph.add_edge(i, j);
                        }
                    }
                }
            }
        }
        Rgg {
            positions,
            graph,
            config,
        }
    }

    /// Returns node positions, indexed like the graph.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Returns the connectivity graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Returns the configuration used to build this RGG.
    pub fn config(&self) -> &RggConfig {
        &self.config
    }
}

/// Euclidean distance between `a` and `b` on a square of side `side`,
/// with wrap-around if `torus` is set.
pub fn distance(a: (f64, f64), b: (f64, f64), side: f64, torus: bool) -> f64 {
    let mut dx = (a.0 - b.0).abs();
    let mut dy = (a.1 - b.1).abs();
    if torus {
        dx = dx.min(side - dx);
        dy = dy.min(side - dy);
    }
    (dx * dx + dy * dy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_sim::rng;

    #[test]
    fn avg_degree_close_to_target_on_torus() {
        let mut r = rng::stream(3, 0);
        let cfg = RggConfig::with_avg_degree(400, 10.0).topology(Topology::Torus);
        let net = cfg.generate(&mut r);
        let d = net.graph().avg_degree();
        assert!((d - 10.0).abs() < 1.5, "avg degree {d} too far from 10");
    }

    #[test]
    fn square_has_boundary_deficit() {
        // On the square, edge nodes lose neighbours, so the measured
        // average degree is below the torus expectation.
        let mut r = rng::stream(4, 0);
        let cfg = RggConfig::with_avg_degree(400, 10.0);
        let net = cfg.generate(&mut r);
        assert!(net.graph().avg_degree() < 10.0);
        assert!(net.graph().avg_degree() > 6.0);
    }

    #[test]
    fn default_density_network_is_connected() {
        // The paper reports d_avg = 7 as the connectivity threshold and
        // uses 10 as the safe default.
        for seed in 0..5 {
            let mut r = rng::stream(seed, 0);
            let net = RggConfig::with_avg_degree(200, 10.0).generate(&mut r);
            assert!(
                net.graph().components()[0].len() >= 195,
                "seed {seed}: giant component too small"
            );
        }
    }

    #[test]
    fn edges_respect_radius() {
        let mut r = rng::stream(5, 0);
        let net = RggConfig::unit(100, 0.2).generate(&mut r);
        let pos = net.positions();
        for u in 0..100 {
            for &v in net.graph().neighbors(u) {
                assert!(distance(pos[u], pos[v], 1.0, false) <= 0.2);
            }
            for v in 0..100 {
                if v != u && distance(pos[u], pos[v], 1.0, false) <= 0.2 {
                    assert!(net.graph().has_edge(u, v), "missing edge {u}-{v}");
                }
            }
        }
    }

    #[test]
    fn torus_distance_wraps() {
        assert!((distance((0.05, 0.5), (0.95, 0.5), 1.0, true) - 0.1).abs() < 1e-12);
        assert!((distance((0.05, 0.5), (0.95, 0.5), 1.0, false) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn torus_edges_cross_boundary() {
        let positions = vec![(0.01, 0.5), (0.99, 0.5)];
        let cfg = RggConfig::unit(2, 0.05).topology(Topology::Torus);
        let net = Rgg::from_positions(positions.clone(), cfg);
        assert!(net.graph().has_edge(0, 1));
        let flat = Rgg::from_positions(positions, RggConfig::unit(2, 0.05));
        assert!(!flat.graph().has_edge(0, 1));
    }

    #[test]
    fn connectivity_radius_formula() {
        let r = connectivity_radius(1000, 1.0);
        let expect = (1000f64.ln() / (std::f64::consts::PI * 1000.0)).sqrt();
        assert!((r - expect).abs() < 1e-12);
    }

    #[test]
    fn area_scaling_matches_paper() {
        // a² = π r² n / d_avg with r = 200, n = 800, d = 10 → a ≈ 3171 m.
        let cfg = RggConfig::with_avg_degree(800, 10.0);
        assert!((cfg.side - 3170.0).abs() < 10.0, "side = {}", cfg.side);
    }
}
