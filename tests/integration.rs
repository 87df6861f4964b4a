//! Cross-crate integration tests through the `pqs` facade.

use pqs::core::runner::{run_cells, run_scenario, ScenarioConfig};
use pqs::core::spec::{self, AccessStrategy};
use pqs::core::workload::WorkloadConfig;
use pqs::graph::rgg::RggConfig;
use pqs::graph::walks::{partial_cover_steps, WalkKind};
use pqs::net::{FaultPlan, MobilityModel, NetConfig, Network, NodeId};
use pqs::sim::json::ToJson;
use pqs::sim::{rng, SimTime};

#[test]
fn facade_reexports_are_wired() {
    // One item from every crate, reached through the facade.
    let _ = pqs::sim::SimTime::from_secs(1);
    let _ = pqs::graph::Graph::new(3);
    let _ = pqs::net::NodeId(0);
    let _ = pqs::routing::RoutingStats::default();
    let _ = pqs::core::AccessStrategy::UniquePath;
}

#[test]
fn simulator_topology_matches_rgg_theory() {
    // The network substrate's ground-truth connectivity graph is an RGG:
    // its average degree must track the configured density.
    let mut cfg = NetConfig::paper(300);
    cfg.mobility = MobilityModel::Static;
    cfg.seed = 5;
    let net: Network<()> = Network::new(cfg);
    let g = net.connectivity_graph();
    let d = g.avg_degree();
    assert!(
        (6.0..11.0).contains(&d),
        "degree {d} inconsistent with target 10 (square boundary deficit expected)"
    );
    assert!(
        g.components()[0].len() >= 290,
        "should be essentially connected"
    );
}

#[test]
fn walk_costs_predict_protocol_costs() {
    // Theorem 4.1's "walks are cheap" claim, measured at the graph level,
    // must agree with the full-stack UNIQUE-PATH message counts: both
    // should be around one message per covered node.
    let mut r = rng::stream(9, 0);
    let rgg = RggConfig::with_avg_degree(100, 10.0).generate(&mut r);
    let comp = rgg.graph().components().remove(0);
    let steps = partial_cover_steps(rgg.graph(), comp[0], 12, WalkKind::SelfAvoiding, &mut r)
        .expect("covers");
    assert!(
        steps <= 20,
        "graph-level walk of 12 nodes took {steps} steps"
    );

    let mut cfg = ScenarioConfig::paper(100);
    cfg.workload = WorkloadConfig::small(6, 30);
    let m = run_scenario(&cfg, 9);
    // Full-stack lookups visit ~|Ql|/2 nodes on hits thanks to early
    // halting; messages/lookup must not explode past |Ql|.
    assert!(
        m.msgs_per_lookup() <= f64::from(cfg.service.spec.lookup.size) * 1.5,
        "protocol walk cost {} inconsistent with graph-level prediction",
        m.msgs_per_lookup()
    );
}

#[test]
fn mix_and_match_bound_holds_in_simulation() {
    // Corollary 5.3 sizing at ε = 0.25 (loose, so 30 lookups suffice to
    // check) must deliver at least roughly 1−ε in simulation.
    let n = 100;
    let bq = spec::BiquorumSpec::asymmetric_for_epsilon(
        AccessStrategy::Random,
        AccessStrategy::UniquePath,
        n,
        0.25,
        2.0,
    );
    let mut cfg = ScenarioConfig::paper(n);
    cfg.service.spec = bq;
    cfg.workload = WorkloadConfig::small(8, 40);
    let runs = pqs::core::run_seeds(&cfg, &[1, 2]);
    let agg = pqs::core::runner::aggregate(&runs);
    let bound = bq.intersection_lower_bound(n).unwrap();
    assert!(
        agg.intersection_ratio >= bound - 0.15,
        "measured {} vs bound {bound}",
        agg.intersection_ratio
    );
}

#[test]
fn asymmetric_beats_symmetric_walks_on_lookup_cost() {
    // The paper's core architectural claim (§8.8): at equal target
    // intersection, RANDOM × UNIQUE-PATH lookups are far cheaper than
    // UNIQUE-PATH × UNIQUE-PATH lookups.
    let n = 100;
    let mut asym = ScenarioConfig::paper(n);
    asym.workload = WorkloadConfig::small(8, 40);

    let mut sym = asym.clone();
    let walk = (n as f64 / 4.7 / 2.0).round() as u32;
    sym.service.spec = spec::BiquorumSpec::new(
        spec::QuorumSpec::new(AccessStrategy::UniquePath, walk),
        spec::QuorumSpec::new(AccessStrategy::UniquePath, walk),
    );

    let a = run_scenario(&asym, 3);
    let s = run_scenario(&sym, 3);
    assert!(
        a.msgs_per_lookup() < s.msgs_per_lookup(),
        "asymmetric lookups ({}) should beat symmetric ({})",
        a.msgs_per_lookup(),
        s.msgs_per_lookup()
    );
}

#[test]
fn end_to_end_determinism_through_facade() {
    let mut cfg = ScenarioConfig::paper(60);
    cfg.workload = WorkloadConfig::small(5, 20);
    assert_eq!(run_scenario(&cfg, 77), run_scenario(&cfg, 77));
}

#[test]
fn sweep_cells_match_standalone_runs() {
    // A cell must mean the same thing alone and inside a prefix-sharing
    // sweep. The three cells enter the pipeline at its three stages: the
    // PATH cell forks the plain cell's advertise template, the crash
    // precedes the workload start so that cell shares nothing.
    let mut plain = ScenarioConfig::paper(30);
    plain.workload = WorkloadConfig::small(4, 8);
    let mut path_lookup = plain.clone();
    path_lookup.service.spec.lookup.strategy = AccessStrategy::Path;
    let mut early_crash = plain.clone();
    early_crash.faults = Some(FaultPlan::new().crash_at(NodeId(7), SimTime::from_secs(1)));
    let cells = [(plain, 11), (path_lookup, 11), (early_crash, 11)];

    let render = |m: &pqs::core::RunMetrics| m.to_json().render();
    let shared: Vec<_> = run_cells(&cells, 2).iter().map(render).collect();
    let alone: Vec<_> = cells
        .iter()
        .map(|(cfg, seed)| render(&run_scenario(cfg, *seed)))
        .collect();
    assert_eq!(shared, alone);
}
