//! Random membership views (§4.1).
//!
//! The membership-based RANDOM strategy picks quorum members from a
//! per-node view of uniformly random node ids. The paper obtains these
//! views from RaWMS (Bar-Yossef et al. 2008) and excludes their
//! construction cost from the quorum accounting ("we assume this cost is
//! amortized over all advertise accesses", §8.1); we therefore model a
//! *converged* membership service: each node holds `2√n` uniform samples
//! drawn at initialisation, refreshed only on explicit request.

use pqs_net::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// The view size for a population of `alive` nodes: `factor·√alive`,
/// rounded, at least 1 (the paper's `2√n` at `factor = 2`).
pub(crate) fn view_size(factor: f64, alive: usize) -> usize {
    ((factor * (alive as f64).sqrt()).round() as usize).max(1)
}

/// Per-node random membership views.
#[derive(Debug, Clone)]
pub struct Membership {
    views: Vec<Vec<NodeId>>,
}

impl Membership {
    /// Builds converged views: every node gets `view_size` ids sampled
    /// uniformly without replacement from `population` (itself excluded).
    ///
    /// # Panics
    ///
    /// Panics if `population` is empty.
    pub fn converged<R: Rng + ?Sized>(
        n_slots: usize,
        population: &[NodeId],
        view_size: usize,
        rng: &mut R,
    ) -> Self {
        assert!(!population.is_empty(), "population must be non-empty");
        let mut m = Membership {
            views: vec![Vec::new(); n_slots],
        };
        for i in 0..n_slots {
            m.refresh_view(NodeId(i as u32), population, view_size, rng);
        }
        m
    }

    /// The node's current view.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn view(&self, node: NodeId) -> &[NodeId] {
        &self.views[node.index()]
    }

    /// Draws `k` distinct quorum members from `node`'s view, uniformly.
    /// Returns fewer than `k` if the view is smaller.
    pub fn pick_quorum<R: Rng + ?Sized>(&self, node: NodeId, k: usize, rng: &mut R) -> Vec<NodeId> {
        let mut picks: Vec<NodeId> = self.views[node.index()].clone();
        picks.shuffle(rng);
        picks.truncate(k);
        picks
    }

    /// Replaces one node's view (e.g. a joiner bootstrapping its
    /// membership, or a refresh after heavy churn).
    pub fn refresh_view<R: Rng + ?Sized>(
        &mut self,
        node: NodeId,
        population: &[NodeId],
        view_size: usize,
        rng: &mut R,
    ) {
        while self.views.len() <= node.index() {
            self.views.push(Vec::new());
        }
        let mut pool: Vec<NodeId> = population.iter().copied().filter(|&p| p != node).collect();
        pool.shuffle(rng);
        pool.truncate(view_size);
        self.views[node.index()] = pool;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_sim::rng;

    fn population(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn views_have_requested_size_and_exclude_self() {
        let mut r = rng::stream(1, 0);
        let pop = population(100);
        let m = Membership::converged(100, &pop, 20, &mut r);
        for i in 0..100 {
            let view = m.view(NodeId(i));
            assert_eq!(view.len(), 20);
            assert!(!view.contains(&NodeId(i)), "view contains self");
            let mut dedup = view.to_vec();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 20, "view has duplicates");
        }
    }

    #[test]
    fn views_are_roughly_uniform() {
        let mut r = rng::stream(2, 0);
        let pop = population(50);
        let m = Membership::converged(50, &pop, 10, &mut r);
        let mut counts = [0u32; 50];
        for i in 0..50 {
            for nbr in m.view(NodeId(i)) {
                counts[nbr.index()] += 1;
            }
        }
        // Expected appearances per node: 50·10/49 ≈ 10.2.
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 25 && min > 1, "suspiciously skewed: {min}..{max}");
    }

    #[test]
    fn pick_quorum_distinct_and_bounded() {
        let mut r = rng::stream(3, 0);
        let pop = population(30);
        let m = Membership::converged(30, &pop, 10, &mut r);
        let q = m.pick_quorum(NodeId(0), 5, &mut r);
        assert_eq!(q.len(), 5);
        let all = m.pick_quorum(NodeId(0), 50, &mut r);
        assert_eq!(all.len(), 10, "capped at view size");
    }

    #[test]
    fn view_size_formula() {
        assert_eq!(view_size(2.0, 800), 57);
        assert_eq!(view_size(2.0, 100), 20);
        assert_eq!(view_size(2.0, 0), 1, "never an empty view");
    }

    #[test]
    fn refresh_view_replaces_and_grows() {
        let mut r = rng::stream(4, 0);
        let pop = population(10);
        let mut m = Membership::converged(10, &pop, 4, &mut r);
        m.refresh_view(NodeId(12), &pop, 4, &mut r);
        assert_eq!(m.view(NodeId(12)).len(), 4);
        let before = m.view(NodeId(0)).to_vec();
        m.refresh_view(NodeId(0), &pop, 9, &mut r);
        assert_eq!(m.view(NodeId(0)).len(), 9);
        assert_ne!(m.view(NodeId(0)), before.as_slice());
    }
}
