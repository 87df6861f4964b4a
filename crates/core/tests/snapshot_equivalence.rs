//! Snapshot/fork equivalence: a sweep grid run through the
//! prefix-sharing pipeline ([`run_cells`]) must export *byte-identical*
//! metrics to running every cell from scratch ([`run_scenario`]) — at any
//! pool width: sharing warmed topologies and advertise phases is a pure
//! wall-clock optimisation, never a result change.
//!
//! The grid deliberately mixes every install-point class: plain cells
//! differing only in lookup behaviour (deepest sharing, RANDOM-OPT
//! lookups included), a churn cell, a
//! post-advertise crash plan, an in-advertise crash plan, and two plans
//! active before the workload start (unshareable): a from-`t = 0`
//! frame-drop plan and a crash during warmup.

use pqs_core::runner::{run_cells, run_scenario, run_scenario_hooked, ScenarioConfig, SweepCell};
use pqs_core::workload::WorkloadConfig;
use pqs_core::{AccessStrategy, Fanout, QuorumStack};
use pqs_net::{FaultPlan, Network, NodeId};
use pqs_sim::control::TickSchedule;
use pqs_sim::json::ToJson;
use pqs_sim::{SimDuration, SimTime};

fn base(n: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.workload = WorkloadConfig::small(4, 8);
    cfg
}

/// A grid whose cells cover every sharing mode the pipeline knows.
fn mixed_grid() -> Vec<SweepCell> {
    let n = 30;
    let plain = base(n);

    let mut path_lookup = base(n);
    path_lookup.service.spec.lookup.strategy = AccessStrategy::Path;

    // RANDOM-OPT lookups fork `plain`'s advertise template too: every
    // router hands its transits to the stack, whatever the strategy.
    let mut random_opt_lookup = base(n);
    random_opt_lookup.service.spec.lookup.strategy = AccessStrategy::RandomOpt;

    let mut eager = base(n);
    eager.service.lookup_fanout = Fanout::Parallel;
    eager.service.early_halting = true;

    let mut churny = base(n);
    churny.churn = Some(pqs_core::runner::ChurnPlan {
        fail_fraction: 0.2,
        join_fraction: 0.1,
        adjust_lookup: true,
    });

    // First activity after the advertise window: shares the advertise
    // template with the plain cells of the same seed.
    let mut late_crash = base(n);
    let when = late_crash.workload.start
        + late_crash.workload.advertise_window
        + SimDuration::from_secs(2);
    late_crash.faults = Some(
        FaultPlan::new()
            .crash_at(NodeId(3), when)
            .crash_at(NodeId(11), when),
    );

    // First activity inside the advertise window: shares only the warm
    // substrate.
    let mut mid_crash = base(n);
    let mid = mid_crash.workload.start + SimDuration::from_secs(2);
    mid_crash.faults = Some(FaultPlan::new().crash_at(NodeId(5), mid));

    // Active from t = 0: no shareable prefix.
    let mut drops = base(n);
    drops.faults = Some(FaultPlan::new().drop_frames(0.15));

    // A crash before the workload start: the one class where an upcall
    // (`NodeFailed`) reaches the stack during warmup, so forking it from
    // a stack-free warm template would diverge.
    let mut early_crash = base(n);
    early_crash.faults = Some(FaultPlan::new().crash_at(NodeId(7), SimTime::from_secs(1)));

    let cfgs = [
        plain,
        path_lookup,
        random_opt_lookup,
        eager,
        churny,
        late_crash,
        mid_crash,
        drops,
        early_crash,
    ];
    let seeds = [11u64, 17];
    cfgs.iter()
        .flat_map(|cfg| seeds.iter().map(|&s| (cfg.clone(), s)))
        .collect()
}

fn render_all(runs: &[pqs_core::RunMetrics]) -> Vec<String> {
    runs.iter().map(|m| m.to_json().render()).collect()
}

#[test]
fn grid_matches_per_cell_runs_at_every_width() {
    let cells = mixed_grid();
    let reference: Vec<_> = cells.iter().map(|(cfg, s)| run_scenario(cfg, *s)).collect();
    for width in [1, 4] {
        let shared = run_cells(&cells, width);
        assert_eq!(shared.len(), reference.len());
        assert_eq!(
            render_all(&shared),
            render_all(&reference),
            "prefix-shared sweep diverged from per-cell runs at width {width}"
        );
        // Value equality too, so a non-exported field can't drift silently.
        for (a, b) in shared.iter().zip(&reference) {
            assert_eq!(a, b);
        }
    }
}

/// A controller that fires every second from `t = 3 s` but does nothing
/// must leave every cell's export unchanged: the chunking of `net.run`
/// horizons at tick instants is invisible to the simulation.
#[test]
fn noop_controller_ticks_leave_the_export_unchanged() {
    let cells = mixed_grid();
    for (cfg, seed) in &cells {
        let mut noop = |_: &mut _, _: &mut _| {};
        let ticked = run_scenario_hooked(
            cfg,
            *seed,
            Some((
                TickSchedule::starting_at(SimTime::from_secs(3), SimDuration::from_secs(1)),
                &mut noop,
            )),
        );
        assert_eq!(
            ticked.to_json().render(),
            run_scenario(cfg, *seed).to_json().render(),
            "no-op controller ticks changed the export (seed {seed})"
        );
    }
}

/// Forking a live simulation must give a fully independent copy: the
/// parent's subsequent evolution cannot leak into the fork, two forks of
/// the same parent evolve identically under identical drives, and the
/// parent is bit-for-bit unaffected by whatever its forks do. Run over a
/// batch of seeds, proptest-style.
#[test]
fn forked_state_diverges_only_through_its_own_drives() {
    for seed in 0..6u64 {
        let cfg = base(24);
        let mut net: pqs_core::QuorumNet = Network::new({
            let mut nc = cfg.net.clone();
            nc.seed = seed;
            nc
        });
        let mut stack = QuorumStack::new(&net, cfg.service, seed);
        net.run(&mut stack, cfg.workload.start);
        let parent_mark = format!("{:?}", net.stats());

        // Two forks, identical drives: must match each other exactly.
        let (mut net_a, mut stack_a) = (net.clone(), stack.clone());
        let (mut net_b, mut stack_b) = (net.clone(), stack.clone());
        let horizon = cfg.workload.start + SimDuration::from_secs(20);
        stack_a.advertise(&mut net_a, NodeId(1), 7, 70);
        net_a.run(&mut stack_a, horizon);
        stack_b.advertise(&mut net_b, NodeId(1), 7, 70);
        net_b.run(&mut stack_b, horizon);
        assert_eq!(
            format!("{:?}", net_a.stats()),
            format!("{:?}", net_b.stats()),
            "identically driven forks diverged (seed {seed})"
        );

        // A fork driven differently must actually diverge.
        let (mut net_c, mut stack_c) = (net.clone(), stack.clone());
        net_c.run(&mut stack_c, horizon);
        assert_ne!(
            format!("{:?}", net_a.stats()),
            format!("{:?}", net_c.stats()),
            "an advertise drive left no trace in the stats (seed {seed})"
        );

        // The parent never moved: forks share nothing mutable with it.
        assert_eq!(
            format!("{:?}", net.stats()),
            parent_mark,
            "running forks mutated the parent (seed {seed})"
        );

        // The parent still works after its forks ran ahead of it.
        stack.advertise(&mut net, NodeId(1), 7, 70);
        net.run(&mut stack, horizon);
        assert_eq!(
            format!("{:?}", net.stats()),
            format!("{:?}", net_a.stats()),
            "parent replaying fork A's drive reached a different state (seed {seed})"
        );
    }
}
