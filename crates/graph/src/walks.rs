//! Random walks: simple, self-avoiding (UNIQUE-PATH) and Maximum-Degree.
//!
//! These are the engines behind the paper's PATH / UNIQUE-PATH quorum
//! access strategies (§4.2–4.3) and the sampling-based RANDOM strategy
//! (§4.1, via Maximum-Degree walks à la RaWMS). The module also provides
//! estimators for the quantities the paper analyses:
//!
//! - **partial cover time** `PCT(i)` — steps to visit `i` distinct nodes
//!   (the cover time is `PCT(n)`),
//! - **crossing time** — steps until two walks have a common visited node
//!   (Definition 5.4).

use crate::graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

/// The walk variants studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkKind {
    /// Simple random walk: uniform choice among neighbours (PATH).
    Simple,
    /// Self-avoiding walk: uniform choice among *unvisited* neighbours,
    /// falling back to a uniform neighbour when all are visited
    /// (UNIQUE-PATH, §4.3).
    SelfAvoiding,
    /// Maximum-Degree walk: from `v`, move to each neighbour with
    /// probability `1/D` (`D` = max degree) and stay put otherwise. Its
    /// stationary distribution is uniform, so endpoints of long MD walks
    /// are uniform samples (RaWMS; §4.1).
    MaxDegree,
}

/// A stateful random walk over a [`Graph`].
///
/// The walker records every node it has visited (the start node counts as
/// visited), the visit order, and the number of steps taken. One *step*
/// is one transition attempt — for [`WalkKind::MaxDegree`] a step may stay
/// in place.
///
/// # Examples
///
/// ```
/// use pqs_graph::{Graph, walks::{Walker, WalkKind}};
/// use pqs_sim::rng;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// let mut rng = rng::stream(0, 0);
/// let mut walk = Walker::new(&g, 0, WalkKind::SelfAvoiding);
/// walk.step(&mut rng);
/// walk.step(&mut rng);
/// assert_eq!(walk.distinct_visited(), 3); // a self-avoiding walk covers the path
/// ```
#[derive(Debug, Clone)]
pub struct Walker<'g> {
    graph: &'g Graph,
    kind: WalkKind,
    current: usize,
    visited: Vec<bool>,
    visited_order: Vec<usize>,
    steps: u64,
    max_degree: usize,
}

impl<'g> Walker<'g> {
    /// Starts a walk of the given kind at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn new(graph: &'g Graph, start: usize, kind: WalkKind) -> Self {
        assert!(start < graph.node_count(), "start node out of range");
        let mut visited = vec![false; graph.node_count()];
        visited[start] = true;
        Walker {
            graph,
            kind,
            current: start,
            visited,
            visited_order: vec![start],
            steps: 0,
            max_degree: graph.max_degree(),
        }
    }

    /// Takes one step and returns the (possibly unchanged) current node.
    ///
    /// A walker on an isolated node stays put.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        self.steps += 1;
        let neighbors = self.graph.neighbors(self.current);
        if neighbors.is_empty() {
            return self.current;
        }
        let next = match self.kind {
            WalkKind::Simple => *neighbors.choose(rng).expect("nonempty"),
            WalkKind::SelfAvoiding => {
                let fresh: Vec<usize> = neighbors
                    .iter()
                    .copied()
                    .filter(|&v| !self.visited[v])
                    .collect();
                match fresh.choose(rng) {
                    Some(&v) => v,
                    // All neighbours visited: behave like a simple walk
                    // for this step (§4.3).
                    None => *neighbors.choose(rng).expect("nonempty"),
                }
            }
            WalkKind::MaxDegree => {
                // Move to neighbour i with probability 1/D each; stay with
                // probability 1 - d(v)/D.
                let d = self.max_degree.max(1);
                let pick = rng.gen_range(0..d);
                if pick < neighbors.len() {
                    neighbors[pick]
                } else {
                    self.current
                }
            }
        };
        if !self.visited[next] {
            self.visited[next] = true;
            self.visited_order.push(next);
        }
        self.current = next;
        next
    }

    /// Returns the node the walk is currently at.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Returns the number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Returns the number of distinct nodes visited (including the start).
    pub fn distinct_visited(&self) -> usize {
        self.visited_order.len()
    }

    /// Returns `true` if the walk has visited `node`.
    pub fn has_visited(&self, node: usize) -> bool {
        self.visited.get(node).copied().unwrap_or(false)
    }

    /// Returns the distinct nodes in first-visit order.
    pub fn visited_order(&self) -> &[usize] {
        &self.visited_order
    }
}

/// Default step budget: generous enough that only walks trapped in a
/// component smaller than the target can exhaust it.
fn default_cap(n: usize, targets: usize) -> u64 {
    1_000 * (n as u64 + 10) + 1_000 * targets as u64
}

/// Returns the number of steps a walk starting at `start` needs to visit
/// `targets` distinct nodes (the start counts), or `None` if the budget of
/// `O(1000·n)` steps runs out — which in practice means the walk's
/// component is smaller than `targets`.
///
/// This is one sample of the partial cover time `PCT(targets)`; average
/// over starts and seeds to estimate the expectation.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn partial_cover_steps<R: Rng + ?Sized>(
    graph: &Graph,
    start: usize,
    targets: usize,
    kind: WalkKind,
    rng: &mut R,
) -> Option<u64> {
    partial_cover_steps_capped(
        graph,
        start,
        targets,
        kind,
        default_cap(graph.node_count(), targets),
        rng,
    )
}

/// Like [`partial_cover_steps`] with an explicit step budget.
pub fn partial_cover_steps_capped<R: Rng + ?Sized>(
    graph: &Graph,
    start: usize,
    targets: usize,
    kind: WalkKind,
    max_steps: u64,
    rng: &mut R,
) -> Option<u64> {
    let mut walk = Walker::new(graph, start, kind);
    while walk.distinct_visited() < targets {
        if walk.steps() >= max_steps {
            return None;
        }
        walk.step(rng);
    }
    Some(walk.steps())
}

/// Returns, for `k = 1..=upto`, the step count at which the walk first had
/// visited `k` distinct nodes. `profile[0] == 0` (the start node is free).
///
/// This is the curve behind Fig. 4 of the paper: plotting
/// `profile[k-1] / k` against `k` shows the per-unique-node cost.
///
/// Returns `None` if the step budget runs out before `upto` nodes are seen.
pub fn pct_profile<R: Rng + ?Sized>(
    graph: &Graph,
    start: usize,
    upto: usize,
    kind: WalkKind,
    rng: &mut R,
) -> Option<Vec<u64>> {
    let mut walk = Walker::new(graph, start, kind);
    let cap = default_cap(graph.node_count(), upto);
    let mut profile = vec![0u64];
    while profile.len() < upto {
        if walk.steps() >= cap {
            return None;
        }
        let before = walk.distinct_visited();
        walk.step(rng);
        if walk.distinct_visited() > before {
            profile.push(walk.steps());
        }
    }
    Some(profile)
}

/// Returns one sample of the *crossing time* (Definition 5.4): two walks
/// start at `u` and `v` and step in lockstep; the crossing time is the
/// first round after which their visited sets intersect. Starting on the
/// same node crosses at time 0.
///
/// Returns `None` if the walks fail to cross within the step budget
/// (possible only in disconnected graphs).
pub fn crossing_steps<R: Rng + ?Sized>(
    graph: &Graph,
    u: usize,
    v: usize,
    kind: WalkKind,
    rng: &mut R,
) -> Option<u64> {
    let mut a = Walker::new(graph, u, kind);
    let mut b = Walker::new(graph, v, kind);
    if a.has_visited(v) {
        return Some(0);
    }
    let cap = default_cap(graph.node_count(), graph.node_count());
    for round in 1..=cap {
        let na = a.step(rng);
        let nb = b.step(rng);
        if b.has_visited(na) || a.has_visited(nb) {
            return Some(round);
        }
    }
    None
}

/// Runs a Maximum-Degree walk for `steps` steps and returns its endpoint —
/// an approximately uniform node sample once `steps` exceeds the mixing
/// time (≈ `n/2` on RGGs per Bar-Yossef et al. 2008).
pub fn uniform_sample_md<R: Rng + ?Sized>(
    graph: &Graph,
    start: usize,
    steps: u64,
    rng: &mut R,
) -> usize {
    let mut walk = Walker::new(graph, start, WalkKind::MaxDegree);
    for _ in 0..steps {
        walk.step(rng);
    }
    walk.current()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgg::RggConfig;
    use pqs_sim::rng;

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn simple_walk_stays_on_edges() {
        let g = cycle(10);
        let mut r = rng::stream(1, 0);
        let mut w = Walker::new(&g, 0, WalkKind::Simple);
        let mut prev = 0;
        for _ in 0..100 {
            let next = w.step(&mut r);
            assert!(
                g.has_edge(prev, next),
                "walk used a non-edge {prev}->{next}"
            );
            prev = next;
        }
        assert_eq!(w.steps(), 100);
    }

    #[test]
    fn self_avoiding_walk_covers_cycle_in_exactly_n_minus_1_steps() {
        let g = cycle(20);
        let mut r = rng::stream(2, 0);
        let steps = partial_cover_steps(&g, 0, 20, WalkKind::SelfAvoiding, &mut r).expect("covers");
        assert_eq!(steps, 19);
    }

    #[test]
    fn self_avoiding_falls_back_when_trapped() {
        // Triangle: after visiting all 3 nodes the walk must reuse edges.
        let g = cycle(3);
        let mut r = rng::stream(3, 0);
        let mut w = Walker::new(&g, 0, WalkKind::SelfAvoiding);
        for _ in 0..10 {
            w.step(&mut r);
        }
        assert_eq!(w.distinct_visited(), 3);
        assert_eq!(w.steps(), 10);
    }

    #[test]
    fn isolated_node_walk_is_stuck() {
        let g = Graph::new(2);
        let mut r = rng::stream(4, 0);
        let mut w = Walker::new(&g, 0, WalkKind::Simple);
        assert_eq!(w.step(&mut r), 0);
        assert_eq!(w.distinct_visited(), 1);
        assert_eq!(
            partial_cover_steps_capped(&g, 0, 2, WalkKind::Simple, 100, &mut r),
            None
        );
    }

    #[test]
    fn pct_profile_is_monotone_and_starts_at_zero() {
        let mut r = rng::stream(5, 0);
        let net = RggConfig::with_avg_degree(200, 10.0).generate(&mut r);
        let comp = net.graph().components().remove(0);
        let profile = pct_profile(net.graph(), comp[0], 30, WalkKind::Simple, &mut r)
            .expect("component large enough");
        assert_eq!(profile[0], 0);
        assert_eq!(profile.len(), 30);
        for pair in profile.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn unique_path_beats_simple_path_on_rgg() {
        // The headline claim of §4.3: UNIQUE-PATH almost never revisits, so
        // its PCT is lower than the simple walk's.
        let mut r = rng::stream(6, 0);
        let net = RggConfig::with_avg_degree(400, 10.0).generate(&mut r);
        let comp = net.graph().components().remove(0);
        let targets = 40;
        let mut simple_total = 0u64;
        let mut unique_total = 0u64;
        for (i, &start) in comp.iter().take(20).enumerate() {
            let mut r1 = rng::stream(100 + i as u64, 0);
            simple_total +=
                partial_cover_steps(net.graph(), start, targets, WalkKind::Simple, &mut r1)
                    .unwrap();
            let mut r2 = rng::stream(200 + i as u64, 0);
            unique_total +=
                partial_cover_steps(net.graph(), start, targets, WalkKind::SelfAvoiding, &mut r2)
                    .unwrap();
        }
        assert!(
            unique_total < simple_total,
            "unique {unique_total} !< simple {simple_total}"
        );
        // UNIQUE-PATH should be close to the floor of targets-1 steps.
        assert!(unique_total <= simple_total * 9 / 10);
    }

    #[test]
    fn crossing_time_zero_for_same_start() {
        let g = cycle(10);
        let mut r = rng::stream(7, 0);
        assert_eq!(crossing_steps(&g, 3, 3, WalkKind::Simple, &mut r), Some(0));
    }

    #[test]
    fn crossing_time_positive_for_distant_starts() {
        let g = cycle(100);
        let mut r = rng::stream(8, 0);
        let t = crossing_steps(&g, 0, 50, WalkKind::Simple, &mut r).expect("must cross");
        assert!(t > 0);
    }

    #[test]
    fn crossing_none_when_disconnected() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let mut r = rng::stream(9, 0);
        assert_eq!(crossing_steps(&g, 0, 2, WalkKind::Simple, &mut r), None);
    }

    #[test]
    fn md_walk_sampling_is_roughly_uniform() {
        // On a star graph a *simple* walk is at the hub every other step,
        // while the MD walk's stationary distribution is uniform.
        let mut g = Graph::new(11);
        for leaf in 1..11 {
            g.add_edge(0, leaf);
        }
        let mut r = rng::stream(10, 0);
        let mut hub_hits = 0;
        let samples = 3000;
        for _ in 0..samples {
            if uniform_sample_md(&g, 0, 60, &mut r) == 0 {
                hub_hits += 1;
            }
        }
        let frac = hub_hits as f64 / samples as f64;
        // Uniform would give 1/11 ≈ 0.091; a simple walk would give ~0.5.
        assert!(frac < 0.2, "hub fraction {frac} too high for MD walk");
        assert!(frac > 0.03, "hub fraction {frac} suspiciously low");
    }

    #[test]
    fn theorem_4_1_pct_linear_in_t() {
        // PCT(t) ≤ 2αt for t = o(n): measure steps-per-unique at t = √n
        // and check it is a small constant (the paper reports ≈1.7 at
        // d_avg = 10).
        let mut r = rng::stream(11, 0);
        let net = RggConfig::with_avg_degree(400, 10.0).generate(&mut r);
        let comp = net.graph().components().remove(0);
        let t = (400f64).sqrt() as usize;
        let mut total = 0u64;
        let runs = 30;
        for i in 0..runs {
            let mut rr = rng::stream(500 + i, 0);
            let start = comp[(i as usize * 7) % comp.len()];
            total += partial_cover_steps(net.graph(), start, t, WalkKind::Simple, &mut rr)
                .expect("covers");
        }
        let per_unique = total as f64 / runs as f64 / t as f64;
        assert!(
            per_unique < 3.0,
            "steps per unique node {per_unique} not a small constant"
        );
    }
}

/// Estimates the mixing time of the Maximum-Degree walk on `graph` by
/// exact power iteration: the number of steps until the walk's
/// distribution (started from the worst of a sample of start nodes) is
/// within total-variation distance `eps` of uniform.
///
/// The MD walk's stationary distribution is uniform on connected
/// graphs, which is what makes it a sampling primitive (§4.1); on RGGs
/// the paper cites `T_mix ≈ n/2` (Bar-Yossef et al. 2008) — compare
/// [`crate::bounds::md_mixing_steps`].
///
/// Runs `O(starts · T · (n + m))`; intended for analysis at n ≲ 1000,
/// not for inner loops. Returns `None` if `max_steps` is reached before
/// mixing (e.g. a disconnected graph, whose walk never mixes to global
/// uniform).
pub fn md_mixing_time_tv(graph: &Graph, eps: f64, max_steps: u64) -> Option<u64> {
    let n = graph.node_count();
    if n == 0 {
        return Some(0);
    }
    let d_max = graph.max_degree().max(1) as f64;
    let uniform = 1.0 / n as f64;
    // A few spread-out starts approximate the worst case.
    let starts: Vec<usize> = (0..n).step_by((n / 4).max(1)).collect();
    let mut worst = 0u64;
    for &start in &starts {
        let mut dist = vec![0.0f64; n];
        dist[start] = 1.0;
        let mut steps = 0u64;
        loop {
            let tv: f64 = dist.iter().map(|&p| (p - uniform).abs()).sum::<f64>() / 2.0;
            if tv <= eps {
                break;
            }
            if steps >= max_steps {
                return None;
            }
            // One MD step: move to each neighbour w.p. 1/D, stay put
            // with the remaining mass.
            let mut next = vec![0.0f64; n];
            for v in 0..n {
                let p = dist[v];
                if p == 0.0 {
                    continue;
                }
                let neighbors = graph.neighbors(v);
                let move_each = p / d_max;
                for &u in neighbors {
                    next[u] += move_each;
                }
                next[v] += p - move_each * neighbors.len() as f64;
            }
            dist = next;
            steps += 1;
        }
        worst = worst.max(steps);
    }
    Some(worst)
}

#[cfg(test)]
mod mixing_tests {
    use super::*;
    use crate::rgg::RggConfig;
    use pqs_sim::rng;

    #[test]
    fn md_walk_mixes_on_complete_graph_instantly() {
        let mut g = Graph::new(8);
        for u in 0..8 {
            for v in (u + 1)..8 {
                g.add_edge(u, v);
            }
        }
        // On K_n the MD walk reaches uniform in a couple of steps.
        let t = md_mixing_time_tv(&g, 0.05, 100).expect("mixes");
        assert!(t <= 5, "complete graph mixing time {t}");
    }

    #[test]
    fn md_mixing_near_half_n_on_rgg() {
        // The paper's T_mix ≈ n/2 claim, at the simulated default
        // density. The constant is loose — assert the right order.
        let mut r = rng::stream(8, 0);
        let net = RggConfig::with_avg_degree(200, 12.0).generate(&mut r);
        let comp = net.graph().components().remove(0);
        let (g, _) = net.graph().induced_subgraph(&comp);
        let n = g.node_count() as u64;
        let t = md_mixing_time_tv(&g, 0.25, 20 * n).expect("connected component mixes");
        assert!(
            t >= n / 20 && t <= 8 * n,
            "mixing time {t} out of range for n = {n}"
        );
    }

    #[test]
    fn disconnected_graph_never_mixes() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert_eq!(md_mixing_time_tv(&g, 0.05, 500), None);
    }
}
