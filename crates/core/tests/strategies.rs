//! End-to-end tests of every access strategy and strategy mix over the
//! real simulated network.

use pqs_core::runner::{run_scenario, ScenarioConfig};
use pqs_core::spec::{AccessStrategy, BiquorumSpec, QuorumSpec};
use pqs_core::workload::WorkloadConfig;
use pqs_core::Fanout;
use pqs_net::MobilityModel;

fn scenario(n: usize, adv: AccessStrategy, lkp: AccessStrategy) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.workload = WorkloadConfig::small(8, 30);
    let qa = pqs_core::spec::paper_advertise_size(n);
    let ql = pqs_core::spec::paper_lookup_size(n);
    let size_for = |s: AccessStrategy, default: u32| match s {
        AccessStrategy::Flooding => 4,  // TTL
        AccessStrategy::RandomOpt => 6, // probes
        _ => default,
    };
    cfg.service.spec = BiquorumSpec::new(
        QuorumSpec::new(adv, size_for(adv, qa)),
        QuorumSpec::new(lkp, size_for(lkp, ql)),
    );
    cfg
}

#[test]
fn random_advertise_unique_path_lookup_hits() {
    // The paper's favourite mix (§8.3).
    let cfg = scenario(100, AccessStrategy::Random, AccessStrategy::UniquePath);
    let m = run_scenario(&cfg, 1);
    assert_eq!(m.advertises, 8);
    assert_eq!(m.lookups, 30);
    assert!(m.hit_ratio() >= 0.8, "hit ratio {}", m.hit_ratio());
    assert!(m.intersection_ratio() >= m.hit_ratio());
    // Walks are cheap: fewer messages per lookup than RANDOM would need.
    assert!(
        m.msgs_per_lookup() < 60.0,
        "msgs/lookup {}",
        m.msgs_per_lookup()
    );
    // No routing needed during the lookup phase beyond residual repairs.
    assert!(m.routing_per_lookup() < 10.0);
}

#[test]
fn random_advertise_random_lookup_serial() {
    let mut cfg = scenario(80, AccessStrategy::Random, AccessStrategy::Random);
    cfg.service.lookup_fanout = Fanout::Serial;
    let m = run_scenario(&cfg, 2);
    assert!(m.hit_ratio() >= 0.8, "hit ratio {}", m.hit_ratio());
    // Serial probing stops early: it should not probe the whole quorum
    // on average. Expect per-lookup cost well under the full-quorum cost.
    assert!(m.msgs_per_lookup() > 0.0);
}

#[test]
fn random_advertise_random_lookup_parallel() {
    let mut cfg = scenario(80, AccessStrategy::Random, AccessStrategy::Random);
    cfg.service.lookup_fanout = Fanout::Parallel;
    let m = run_scenario(&cfg, 3);
    assert!(m.hit_ratio() >= 0.8, "hit ratio {}", m.hit_ratio());
}

#[test]
fn random_advertise_flooding_lookup() {
    let cfg = scenario(100, AccessStrategy::Random, AccessStrategy::Flooding);
    let m = run_scenario(&cfg, 4);
    assert!(m.hit_ratio() >= 0.6, "hit ratio {}", m.hit_ratio());
    assert!(m.counters.flood_tx > 0, "flooding was used");
    assert_eq!(m.counters.walk_tx, 0, "no walks in this mix");
}

#[test]
fn random_opt_lookup_uses_few_probes() {
    let mut cfg = scenario(100, AccessStrategy::Random, AccessStrategy::RandomOpt);
    cfg.service.lookup_fanout = Fanout::Parallel;
    let m = run_scenario(&cfg, 5);
    // ln(100) ≈ 4.6 ≪ 1.15·√100 ≈ 12 probes, yet the relay tap finds
    // the data with decent probability (§8.2: 0.9 with a few probes).
    assert!(m.hit_ratio() >= 0.6, "hit ratio {}", m.hit_ratio());
}

#[test]
fn unique_path_advertise_unique_path_lookup_needs_long_walks() {
    // §8.5: without a RANDOM side, both walks must be Θ(n/log n). With
    // short walks the hit ratio collapses; with ≈ n/4 walks it recovers.
    let mut short = scenario(100, AccessStrategy::UniquePath, AccessStrategy::UniquePath);
    short.service.spec.advertise.size = 10;
    short.service.spec.lookup.size = 10;
    let m_short = run_scenario(&short, 6);

    let mut long = scenario(100, AccessStrategy::UniquePath, AccessStrategy::UniquePath);
    long.service.spec.advertise.size = 30;
    long.service.spec.lookup.size = 30;
    let m_long = run_scenario(&long, 6);
    assert!(
        m_long.hit_ratio() > m_short.hit_ratio(),
        "longer walks must intersect more: {} vs {}",
        m_long.hit_ratio(),
        m_short.hit_ratio()
    );
    assert!(
        m_long.hit_ratio() >= 0.6,
        "hit ratio {}",
        m_long.hit_ratio()
    );
}

#[test]
fn lookup_for_absent_key_misses_at_full_cost() {
    let mut cfg = scenario(80, AccessStrategy::Random, AccessStrategy::UniquePath);
    cfg.workload.present_fraction = 0.0;
    let m = run_scenario(&cfg, 7);
    assert_eq!(m.hits, 0, "absent keys can never hit");
    assert_eq!(m.intersections, 0);
    // The full lookup quorum is still paid for (no early halting on
    // misses): at least |Qℓ| − 1 walk sends per lookup.
    let per_lookup = m.counters.walk_tx as f64 / m.lookups as f64;
    let ql = f64::from(cfg.service.spec.lookup.size);
    assert!(
        per_lookup >= ql * 0.7,
        "walks too short for misses: {per_lookup} vs |Ql| = {ql}"
    );
}

#[test]
fn early_halting_halves_walk_length_on_hits() {
    let base = scenario(100, AccessStrategy::Random, AccessStrategy::UniquePath);
    let mut no_halt = base.clone();
    no_halt.service.early_halting = false;
    let with_halt = pqs_core::runner::aggregate(&pqs_core::run_seeds(&base, &[8, 9, 10]));
    let without_halt = pqs_core::runner::aggregate(&pqs_core::run_seeds(&no_halt, &[8, 9, 10]));
    // Hit walks stop roughly halfway (§8.3): clearly fewer messages.
    assert!(
        with_halt.msgs_per_lookup < without_halt.msgs_per_lookup * 0.8,
        "early halting should shorten walks: {} vs {}",
        with_halt.msgs_per_lookup,
        without_halt.msgs_per_lookup
    );
    // ...without sacrificing the hit ratio (averaged to damp noise).
    assert!(with_halt.hit_ratio >= without_halt.hit_ratio - 0.08);
}

#[test]
fn mobile_network_with_salvation_and_repair_keeps_hit_ratio() {
    let mut cfg = scenario(100, AccessStrategy::Random, AccessStrategy::UniquePath);
    cfg.net.mobility = MobilityModel::walking();
    let m = run_scenario(&cfg, 9);
    assert!(
        m.hit_ratio() >= 0.7,
        "walking-speed mobility should barely hurt: {}",
        m.hit_ratio()
    );
}

#[test]
fn fast_mobility_without_repair_drops_replies_not_intersections() {
    // The Fig. 13 phenomenon: the walk itself is mobility-proof (thanks
    // to salvation), the reverse reply path is what breaks.
    let mut cfg = scenario(100, AccessStrategy::Random, AccessStrategy::UniquePath);
    cfg.net.mobility = MobilityModel::fast(20.0);
    cfg.service.reply_repair = false;
    let m = run_scenario(&cfg, 10);
    assert!(
        m.intersection_ratio() >= m.hit_ratio(),
        "intersections include lost replies"
    );
    // With repair on, the gap closes (Fig. 14).
    let mut repaired = cfg.clone();
    repaired.service.reply_repair = true;
    let m2 = run_scenario(&repaired, 10);
    assert!(
        m2.hit_ratio() >= m.hit_ratio(),
        "repair must not hurt: {} vs {}",
        m2.hit_ratio(),
        m.hit_ratio()
    );
}

#[test]
fn churn_between_phases_degrades_gracefully() {
    let mut cfg = scenario(100, AccessStrategy::Random, AccessStrategy::UniquePath);
    cfg.net.avg_degree = 15.0; // §8.7 uses d=15 to keep connectivity
    cfg.churn = Some(pqs_core::runner::ChurnPlan {
        fail_fraction: 0.3,
        join_fraction: 0.3,
        adjust_lookup: true,
    });
    let m = run_scenario(&cfg, 11);
    // The analysis predicts ~0.9·(initial) at 30% churn — generous floor
    // here because a single small run is noisy.
    assert!(
        m.hit_ratio() >= 0.5,
        "churn should degrade gracefully: {}",
        m.hit_ratio()
    );
}

#[test]
fn caching_speeds_up_repeated_lookups() {
    let mut cfg = scenario(100, AccessStrategy::Random, AccessStrategy::UniquePath);
    cfg.service.caching = true;
    // All lookers hammer the same few keys.
    cfg.workload.advertisements = 2;
    cfg.workload.lookups = 40;
    let m = run_scenario(&cfg, 12);
    assert!(m.hit_ratio() >= 0.8, "hit ratio {}", m.hit_ratio());
    // Later lookups find cached copies at the origin: zero-cost hits
    // show up as fewer walk messages per lookup than |Ql|/2.
    let per_lookup = m.counters.walk_tx as f64 / m.lookups as f64;
    assert!(
        per_lookup < f64::from(cfg.service.spec.lookup.size) / 2.0,
        "caching should shorten lookups: {per_lookup}"
    );
}

#[test]
fn deterministic_across_identical_runs() {
    let cfg = scenario(60, AccessStrategy::Random, AccessStrategy::UniquePath);
    let a = run_scenario(&cfg, 99);
    let b = run_scenario(&cfg, 99);
    assert_eq!(a, b);
}

#[test]
fn multi_seed_parallel_runner() {
    let cfg = scenario(60, AccessStrategy::Random, AccessStrategy::UniquePath);
    let runs = pqs_core::run_seeds(&cfg, &[1, 2, 3, 4]);
    assert_eq!(runs.len(), 4);
    let agg = pqs_core::runner::aggregate(&runs);
    assert_eq!(agg.runs, 4);
    assert!(agg.hit_ratio > 0.6, "aggregate hit ratio {}", agg.hit_ratio);
    // Parallel run equals its sequential twin.
    let seq = run_scenario(&cfg, 3);
    assert_eq!(runs[2], seq);
}

#[test]
fn expanding_ring_flooding_stops_early_on_hits() {
    // §4.4: expanding-ring floods grow the TTL only until the reply
    // arrives, trading latency for adaptivity. For present keys it must
    // send fewer flood messages than a fixed wide flood.
    let mut fixed = scenario(100, AccessStrategy::Random, AccessStrategy::Flooding);
    fixed.service.spec.lookup.size = 5;
    let mut ring = fixed.clone();
    ring.service.expanding_ring = true;
    let m_fixed = run_scenario(&fixed, 13);
    let m_ring = run_scenario(&ring, 13);
    assert!(
        m_ring.hit_ratio() >= 0.6,
        "ring hit ratio {}",
        m_ring.hit_ratio()
    );
    assert!(
        m_ring.counters.flood_tx < m_fixed.counters.flood_tx,
        "ring should flood less on hits: {} vs {}",
        m_ring.counters.flood_tx,
        m_fixed.counters.flood_tx
    );
}

#[test]
fn flooding_size_above_255_saturates_the_ttl() {
    // A member-count FLOODING size (the planner sizes that side by n) can
    // exceed the largest TTL a frame carries: it must saturate at 255,
    // not wrap around to a tiny flood.
    let covered = |size| {
        let mut cfg = ScenarioConfig::paper(50);
        cfg.workload = WorkloadConfig::small(5, 10);
        cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::Flooding, size);
        run_scenario(&cfg, 14).counters.flood_covered
    };
    let (at_255, at_256) = (covered(255), covered(256));
    assert!(at_256 >= at_255, "TTL 256 covered {at_256} < {at_255}");
}
