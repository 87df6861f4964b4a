//! Workload generation: the paper's simulation scenario (§2.4, §8).
//!
//! Each run performs 100 advertisements by random nodes followed by 1000
//! lookups issued by 25 random nodes (40 each), looking up random
//! advertised keys.

use crate::store::{Key, Value};
use pqs_net::NodeId;
use pqs_sim::{SimDuration, SimTime};
use rand::seq::SliceRandom;
use rand::Rng;

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of advertisements (paper: 100).
    pub advertisements: usize,
    /// Number of lookups (paper: 1000).
    pub lookups: usize,
    /// Number of distinct looking nodes (paper: 25).
    pub lookers: usize,
    /// When the advertise phase starts.
    pub start: SimTime,
    /// Length of the advertise phase (ops spread uniformly).
    pub advertise_window: SimDuration,
    /// Gap between the phases (lets in-flight advertises drain).
    pub phase_gap: SimDuration,
    /// Length of the lookup phase.
    pub lookup_window: SimDuration,
    /// Fraction of lookups that target advertised keys; the remainder
    /// look up absent keys (pure misses, exercising the full-quorum miss
    /// cost of Fig. 16).
    pub present_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            advertisements: 100,
            lookups: 1000,
            lookers: 25,
            start: SimTime::from_secs(5),
            advertise_window: SimDuration::from_secs(300),
            phase_gap: SimDuration::from_secs(30),
            lookup_window: SimDuration::from_secs(500),
            present_fraction: 1.0,
        }
    }
}

impl WorkloadConfig {
    /// A scaled-down scenario for quick tests: `adv` advertisements and
    /// `lkp` lookups in shorter windows.
    pub fn small(adv: usize, lkp: usize) -> Self {
        WorkloadConfig {
            advertisements: adv,
            lookups: lkp,
            lookers: lkp.min(5),
            start: SimTime::from_secs(2),
            advertise_window: SimDuration::from_secs(20),
            phase_gap: SimDuration::from_secs(10),
            lookup_window: SimDuration::from_secs(60),
            present_fraction: 1.0,
        }
    }

    /// When the lookup phase begins.
    pub fn lookup_start(&self) -> SimTime {
        self.start + self.advertise_window + self.phase_gap
    }

    /// When the lookup phase ends (drain time not included).
    pub fn lookup_end(&self) -> SimTime {
        self.lookup_start() + self.lookup_window
    }
}

/// A fully scheduled workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// `(when, who, key, value)` advertise operations, time-ordered.
    pub advertisements: Vec<(SimTime, NodeId, Key, Value)>,
    /// `(when, who, key)` lookup operations, time-ordered.
    pub lookups: Vec<(SimTime, NodeId, Key)>,
}

impl Workload {
    /// Generates a workload over the given population.
    ///
    /// # Panics
    ///
    /// Panics if `population` is empty or the config asks for zero
    /// advertisements together with `present_fraction > 0`.
    pub fn generate<R: Rng + ?Sized>(
        cfg: &WorkloadConfig,
        population: &[NodeId],
        rng: &mut R,
    ) -> Workload {
        assert!(!population.is_empty(), "population must be non-empty");
        assert!(
            cfg.advertisements > 0 || cfg.present_fraction == 0.0,
            "cannot look up advertised keys without advertisements"
        );
        let mut advertisements = Vec::with_capacity(cfg.advertisements);
        for i in 0..cfg.advertisements {
            let at = cfg.start + cfg.advertise_window * i as u64 / cfg.advertisements.max(1) as u64;
            let who = *population.choose(rng).expect("nonempty");
            let key = 1_000 + i as Key;
            let value = 500_000 + i as Value;
            advertisements.push((at, who, key, value));
        }
        let mut lookers: Vec<NodeId> = population.to_vec();
        lookers.shuffle(rng);
        lookers.truncate(cfg.lookers.max(1));
        let lookup_start = cfg.lookup_start();
        let mut lookups = Vec::with_capacity(cfg.lookups);
        for i in 0..cfg.lookups {
            let at = lookup_start + cfg.lookup_window * i as u64 / cfg.lookups.max(1) as u64;
            let who = lookers[i % lookers.len()];
            let key = if rng.gen::<f64>() < cfg.present_fraction {
                advertisements[rng.gen_range(0..advertisements.len())].2
            } else {
                // Keys below 1000 are never advertised.
                rng.gen_range(0..1_000)
            };
            lookups.push((at, who, key));
        }
        lookups.sort_by_key(|&(at, _, _)| at);
        Workload {
            advertisements,
            lookups,
        }
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
    fn paper_defaults() {
        let cfg = WorkloadConfig::default();
        assert_eq!(cfg.advertisements, 100);
        assert_eq!(cfg.lookups, 1000);
        assert_eq!(cfg.lookers, 25);
    }

    #[test]
    fn generated_workload_shape() {
        let mut r = rng::stream(1, 0);
        let cfg = WorkloadConfig::default();
        let w = Workload::generate(&cfg, &population(100), &mut r);
        assert_eq!(w.advertisements.len(), 100);
        assert_eq!(w.lookups.len(), 1000);
        // Lookups use exactly 25 distinct nodes.
        let mut lookers: Vec<NodeId> = w.lookups.iter().map(|&(_, who, _)| who).collect();
        lookers.sort_unstable();
        lookers.dedup();
        assert_eq!(lookers.len(), 25);
        // Phases do not overlap.
        let last_adv = w.advertisements.iter().map(|&(t, ..)| t).max().unwrap();
        let first_lkp = w.lookups.iter().map(|&(t, ..)| t).min().unwrap();
        assert!(last_adv < first_lkp);
        // All looked-up keys were advertised (present_fraction = 1).
        let advertised: Vec<Key> = w.advertisements.iter().map(|&(_, _, k, _)| k).collect();
        assert!(w.lookups.iter().all(|(_, _, k)| advertised.contains(k)));
    }

    #[test]
    fn absent_lookups_respect_fraction() {
        let mut r = rng::stream(2, 0);
        let cfg = WorkloadConfig {
            present_fraction: 0.5,
            ..WorkloadConfig::default()
        };
        let w = Workload::generate(&cfg, &population(50), &mut r);
        let absent = w.lookups.iter().filter(|&&(_, _, k)| k < 1_000).count();
        assert!(
            (300..700).contains(&absent),
            "about half should be absent, got {absent}"
        );
    }

    #[test]
    fn timestamps_ordered_within_phases() {
        let mut r = rng::stream(3, 0);
        let w = Workload::generate(&WorkloadConfig::small(10, 20), &population(30), &mut r);
        for pair in w.advertisements.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        for pair in w.lookups.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }
}
