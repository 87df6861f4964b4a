//! The experiment runner: builds a network + quorum stack, drives the
//! paper's two-phase workload (advertise, then look up), applies churn
//! between the phases (§8.7), and collects the metrics the paper reports.

use crate::messages::AppMsg;
use crate::obs::{LoadSummary, TraceEvent};
use crate::service::{Fanout, OpKind, QuorumCounters, ServiceConfig};
use crate::spec::{AccessStrategy, QuorumSpec};
use crate::stack::{QuorumNet, QuorumStack};
use crate::workload::{Workload, WorkloadConfig};
use pqs_net::{FaultPlan, NetConfig, NetStats, Network, NodeId, Stack, Upcall};
use pqs_routing::RoutePacket;
use pqs_sim::control::TickSchedule;
use pqs_sim::metrics::Histogram;
use pqs_sim::rng::{self, streams};
use pqs_sim::{SimDuration, SimTime};
use rand::seq::SliceRandom;
use std::collections::HashMap;

/// Churn applied between the advertise and lookup phases, mirroring the
/// §8.7 experiment ("after all advertisements finished, we fail every
/// node with a given probability or/and add new nodes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Fraction of alive nodes crashed.
    pub fail_fraction: f64,
    /// Fraction (of the pre-churn size) of fresh nodes joined.
    pub join_fraction: f64,
    /// Adjust `|Qℓ|` to the post-churn network size (`C√n(t)`, §6.1).
    pub adjust_lookup: bool,
}

/// A complete experiment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Substrate configuration (node count, density, mobility, PHY/MAC).
    pub net: NetConfig,
    /// Quorum service configuration (strategies, sizes, optimisations).
    pub service: ServiceConfig,
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Optional churn between the phases.
    pub churn: Option<ChurnPlan>,
    /// Optional deterministic fault plan (frame drops/delays/duplicates,
    /// timed crashes, partitions), installed into the substrate at the
    /// latest stage boundary (build, workload start, advertise cut) that
    /// precedes the plan's first activity.
    pub faults: Option<FaultPlan>,
    /// Extra time after the last lookup for replies to drain.
    pub drain: SimDuration,
}

impl ScenarioConfig {
    /// The paper's default scenario for `n` nodes (static network; set
    /// `net.mobility` for mobile runs).
    pub fn paper(n: usize) -> Self {
        let mut net = NetConfig::paper(n);
        net.mobility = pqs_net::MobilityModel::Static;
        ScenarioConfig {
            net,
            service: ServiceConfig::paper_default(n),
            workload: WorkloadConfig::default(),
            churn: None,
            faults: None,
            drain: SimDuration::from_secs(30),
        }
    }
}

/// Cumulative message counts at a snapshot instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Routed data hop transmissions (stores, probes, routed replies,
    /// repair segments) — the paper's "number of messages" for routed
    /// strategies.
    pub data_tx: u64,
    /// AODV control transmissions — the paper's "additional routing
    /// overhead".
    pub control_tx: u64,
    /// Link-local strategy transmissions (walk steps, reverse-path reply
    /// hops, floods).
    pub link_tx: u64,
    /// All PHY transmissions (including MAC overhead; diagnostics).
    pub phy_tx: u64,
}

impl PhaseStats {
    fn minus(self, earlier: PhaseStats) -> PhaseStats {
        PhaseStats {
            data_tx: self.data_tx - earlier.data_tx,
            control_tx: self.control_tx - earlier.control_tx,
            link_tx: self.link_tx - earlier.link_tx,
            phy_tx: self.phy_tx - earlier.phy_tx,
        }
    }

    /// Application-visible messages (routed hops + link-local sends).
    pub fn app_tx(&self) -> u64 {
        self.data_tx + self.link_tx
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// The seed of this run.
    pub seed: u64,
    /// Nodes alive at the start.
    pub n: usize,
    /// Advertise operations issued.
    pub advertises: usize,
    /// Lookup operations issued.
    pub lookups: usize,
    /// Lookups whose originator received the value (the paper's hit
    /// ratio numerator).
    pub hits: usize,
    /// Lookups that touched a holder of the key, whether or not the
    /// reply survived (Fig. 13(b)'s intersection probability numerator).
    pub intersections: usize,
    /// Lookups that lost at least one reply en route.
    pub reply_drops: usize,
    /// Messages during the advertise phase.
    pub advertise_phase: PhaseStats,
    /// Messages during the lookup phase (including drain).
    pub lookup_phase: PhaseStats,
    /// Strategy counters at the end of the run.
    pub counters: QuorumCounters,
    /// Link-level substrate counters at the end of the run (includes the
    /// fault-injection and unicast-conservation counters).
    pub net_stats: NetStats,
    /// Mean lookup completion latency over hits, in seconds.
    pub mean_hit_latency_s: f64,
    /// Advertise completion latency distribution (microseconds):
    /// issue → full quorum placed.
    pub advertise_latency: Histogram,
    /// Lookup hit latency distribution (microseconds): issue → reply at
    /// the originator. Misses are not recorded.
    pub lookup_latency: Histogram,
    /// Per-node message-load summary (balance analysis). Counts frames
    /// handled by each node's upper layer — receiver-side work only.
    pub load: LoadSummary,
    /// Per-node load with router forwarding folded in: upper-layer
    /// frames plus routed data transmissions each node relayed on
    /// behalf of others. This is the load `fig_load` compares the
    /// uniform and the load-ranked plan on (relay work on hub nodes is
    /// invisible to `load`).
    pub total_load: LoadSummary,
    /// Past-timestamp schedules clamped by the event scheduler — a
    /// causality-violation canary, zero in a healthy run.
    pub scheduler_clamped: u64,
    /// Lookups whose accepted value differs from the key's ground truth
    /// (the last value advertised for it) — Byzantine damage that got
    /// through. Always 0 with honest nodes.
    pub wrong_reads: usize,
    /// Retained trace events (empty unless
    /// `ServiceConfig::trace_capacity > 0`).
    pub trace: Vec<(SimTime, TraceEvent)>,
}

impl RunMetrics {
    /// Fraction of lookups answered at the originator.
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.lookups)
    }

    /// Fraction of lookups whose quorums intersected.
    pub fn intersection_ratio(&self) -> f64 {
        ratio(self.intersections, self.lookups)
    }

    /// Fraction of lookups answered with a value that is not the key's
    /// ground truth.
    pub fn wrong_read_ratio(&self) -> f64 {
        ratio(self.wrong_reads, self.lookups)
    }

    /// Application messages per advertise access.
    pub fn msgs_per_advertise(&self) -> f64 {
        ratio64(self.advertise_phase.app_tx(), self.advertises)
    }

    /// Routing control messages per advertise access.
    pub fn routing_per_advertise(&self) -> f64 {
        ratio64(self.advertise_phase.control_tx, self.advertises)
    }

    /// Application messages per lookup access.
    pub fn msgs_per_lookup(&self) -> f64 {
        ratio64(self.lookup_phase.app_tx(), self.lookups)
    }

    /// Routing control messages per lookup access.
    pub fn routing_per_lookup(&self) -> f64 {
        ratio64(self.lookup_phase.control_tx, self.lookups)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ratio64(num: u64, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn snapshot(net: &QuorumNet, stack: &QuorumStack) -> PhaseStats {
    let routing = stack.router.stats();
    PhaseStats {
        data_tx: routing.data_tx,
        control_tx: routing.control_tx(),
        link_tx: stack.counters().link_tx(),
        phy_tx: net.stats().phy_tx,
    }
}

/// Per-node load with router relay work folded in: upper-layer frames
/// handled (the classic `node_loads`) plus routed data frames each node
/// forwarded on behalf of other origins.
fn total_loads(net: &QuorumNet, stack: &QuorumStack) -> Vec<u64> {
    let upcalls = net.node_loads();
    let forwards = stack.router.node_forwards();
    let len = upcalls.len().max(forwards.len());
    (0..len)
        .map(|i| upcalls.get(i).copied().unwrap_or(0) + forwards.get(i).copied().unwrap_or(0))
        .collect()
}

/// A runtime controller attached to a scenario run: a deterministic
/// sim-time [`TickSchedule`] plus the callback invoked at each due tick
/// with the live network and stack (the adaptive quorum planner plugs in
/// here — the runner stays ignorant of *what* the controller does).
pub type ControllerHook<'a> = (
    TickSchedule,
    &'a mut dyn FnMut(&mut QuorumNet, &mut QuorumStack),
);

/// Advances the simulation to `until`, firing every controller tick that
/// falls inside the horizon at its exact sim-time instant. The chunking
/// of `net.run` horizons is invisible to the controller: tick `i` always
/// observes the network state at `first + i·interval`.
fn advance(
    net: &mut QuorumNet,
    stack: &mut QuorumStack,
    hook: &mut Option<ControllerHook<'_>>,
    until: SimTime,
) {
    if let Some((schedule, callback)) = hook.as_mut() {
        while let Some(at) = schedule.next_due(until) {
            net.run(stack, at.max(net.now()));
            callback(net, stack);
        }
    }
    net.run(stack, until);
}

/// Runs one scenario with one seed.
///
/// One pipeline of three stages — **warm** (build, run to the workload
/// start), **advertise** (workload generated, advertisements issued up
/// to the advertise cut), **measure** (phase gap, churn, lookups, drain,
/// metrics) — executed front to back from `t = 0` with the real stack
/// attached. [`run_cells`] runs the same stage functions but enters at a
/// later stage from a fork of a prefix shared between cells, so a cell
/// means the same thing alone and inside a sweep.
pub fn run_scenario(cfg: &ScenarioConfig, seed: u64) -> RunMetrics {
    run_scenario_hooked(cfg, seed, None)
}

/// [`run_scenario`] with an optional runtime controller that fires on a
/// deterministic sim-time schedule throughout the run (warmup, both
/// phases, the churn settle window and the final drain).
pub fn run_scenario_hooked(
    cfg: &ScenarioConfig,
    seed: u64,
    mut hook: Option<ControllerHook<'_>>,
) -> RunMetrics {
    let (mut net, mut stack, workload) = advertise_phase(cfg, seed, None, &mut hook);
    measure_phase(cfg, seed, &mut net, &mut stack, &workload, &mut hook)
}

/// The measure stage, from the advertise cut to the end of the run:
/// late fault plans installed, the phase gap, the optional between-phase
/// churn (joins get a heartbeat settle window before lookups begin), the
/// lookups (dead lookers are substituted by live nodes — the paper's
/// lookups are always issued by live nodes), the drain, and the
/// operation records folded into [`RunMetrics`].
fn measure_phase(
    cfg: &ScenarioConfig,
    seed: u64,
    net: &mut QuorumNet,
    stack: &mut QuorumStack,
    workload: &Workload,
    hook: &mut Option<ControllerHook<'_>>,
) -> RunMetrics {
    // Every node is alive at build time, so the pre-churn population size
    // is the configured node count even when faults already crashed some
    // nodes by the cut.
    let n0 = cfg.net.n;
    install_faults_at(cfg, net, FaultInstall::AdvertiseCut);
    advance(net, stack, hook, cfg.workload.lookup_start());
    if let Some(plan) = cfg.churn {
        apply_churn(net, stack, plan, seed, n0);
        let settle = net.now() + SimDuration::from_secs(15);
        advance(net, stack, hook, settle);
    }
    let after_advertise = snapshot(net, stack);

    let mut substitute_rng = rng::stream(seed, streams::WORKLOAD ^ 0x10ed);
    for &(at, who, key) in &workload.lookups {
        let at = at.max(net.now());
        advance(net, stack, hook, at);
        let who = if net.is_alive(who) {
            who
        } else {
            let alive = net.alive_nodes();
            *alive.choose(&mut substitute_rng).expect("network alive")
        };
        stack.lookup(net, who, key);
    }
    let horizon = cfg.workload.lookup_end().max(net.now()) + cfg.drain;
    advance(net, stack, hook, horizon);
    // Masking lookups still holding an unverified vote tally close with
    // their highest-voted value (Degraded) before outcomes are read.
    stack.finalize_pending_lookups(net);
    let final_stats = snapshot(net, stack);

    // Ground truth per key: the last value advertised for it. Wrong
    // reads are completions whose accepted value differs.
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &(_, _, key, value) in &workload.advertisements {
        truth.insert(key, value);
    }

    // Outcomes.
    let mut metrics = RunMetrics {
        seed,
        n: n0,
        advertises: 0,
        lookups: 0,
        hits: 0,
        intersections: 0,
        reply_drops: 0,
        advertise_phase: after_advertise,
        lookup_phase: final_stats.minus(after_advertise),
        counters: *stack.counters(),
        net_stats: *net.stats(),
        mean_hit_latency_s: 0.0,
        advertise_latency: Histogram::new(),
        lookup_latency: Histogram::new(),
        load: LoadSummary::from_loads(net.node_loads()),
        total_load: LoadSummary::from_loads(&total_loads(net, stack)),
        scheduler_clamped: net.scheduler_clamped(),
        wrong_reads: 0,
        trace: stack.trace_events(),
    };
    let mut latency_sum = 0.0;
    for (_, rec) in stack.ops() {
        match rec.kind() {
            OpKind::Advertise => {
                metrics.advertises += 1;
                // `completed` is only stamped on advertises that placed
                // their full quorum (or were closed by the retry layer,
                // which sets a failure flag) — successes only here.
                if let Some(done) = rec.completed {
                    if !rec.retries_exhausted && !rec.deadline_expired {
                        metrics
                            .advertise_latency
                            .record((done - rec.started()).as_micros());
                    }
                }
            }
            OpKind::Lookup => {
                metrics.lookups += 1;
                if rec.replied() {
                    metrics.hits += 1;
                    if let Some(done) = rec.completed {
                        latency_sum += (done - rec.started()).as_secs_f64();
                        metrics
                            .lookup_latency
                            .record((done - rec.started()).as_micros());
                    }
                    if rec.value.is_some() && rec.value != truth.get(&rec.key()).copied() {
                        metrics.wrong_reads += 1;
                    }
                }
                if rec.intersected {
                    metrics.intersections += 1;
                }
                if rec.reply_dropped {
                    metrics.reply_drops += 1;
                }
            }
        }
    }
    if metrics.hits > 0 {
        metrics.mean_hit_latency_s = latency_sum / metrics.hits as f64;
    }
    metrics
}

fn apply_churn(
    net: &mut QuorumNet,
    stack: &mut QuorumStack,
    plan: ChurnPlan,
    seed: u64,
    n0: usize,
) {
    let mut churn_rng = rng::stream(seed, streams::CHURN);
    let now = net.now();
    let mut alive = net.alive_nodes();
    alive.shuffle(&mut churn_rng);
    let fail_count = (plan.fail_fraction * alive.len() as f64).round() as usize;
    for &victim in alive.iter().take(fail_count) {
        net.schedule_fail(victim, now + SimDuration::from_millis(1));
    }
    let join_count = (plan.join_fraction * n0 as f64).round() as usize;
    for _ in 0..join_count {
        let fresh = net.add_node();
        net.schedule_join(fresh, now + SimDuration::from_millis(2));
    }
    if plan.adjust_lookup {
        // |Qℓ(t)| = C·√n(t) with C fixed by the initial sizing (§6.1).
        let old = stack.config().spec.lookup.size as f64;
        let c = old / (n0 as f64).sqrt();
        let n_t = n0 - fail_count + join_count;
        stack.config_mut().spec.lookup.size = (c * (n_t as f64).sqrt()).round().max(1.0) as u32;
    }
}

// ---------------------------------------------------------------------
// Stage boundaries, the advertise stage, and shared prefixes
// ---------------------------------------------------------------------

/// The network configuration a scenario actually runs with: the seed
/// stamped in, and promiscuous mode forced on when the service relies on
/// overhearing.
fn derived_net_config(cfg: &ScenarioConfig, seed: u64) -> NetConfig {
    let mut net_cfg = cfg.net.clone();
    net_cfg.seed = seed;
    net_cfg.promiscuous =
        cfg.service.promiscuous_replies || cfg.service.caching || net_cfg.promiscuous;
    net_cfg
}

/// End of the advertise window — the "A-cut" where advertise-phase
/// templates are taken. Deliberately *before* the phase gap, so fault
/// plans that act between the phases stay after the cut.
fn advertise_cut(w: &WorkloadConfig) -> SimTime {
    w.start + w.advertise_window
}

/// Where a fault plan is installed, chosen as the latest stage boundary
/// that still precedes the plan's first possible influence. Every entry
/// into the pipeline follows this classification, so the installation
/// point is a function of the scenario alone — never of whether a
/// prefix of the run was shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultInstall {
    /// First activity precedes the workload start: install at build
    /// time; no prefix of the run is shareable.
    Build,
    /// First activity falls inside the advertise phase: install at the
    /// workload start.
    Start,
    /// Inert until the advertise window has ended (or no plan at all):
    /// install at the advertise cut.
    AdvertiseCut,
}

fn fault_install_point(cfg: &ScenarioConfig) -> FaultInstall {
    let Some(plan) = &cfg.faults else {
        return FaultInstall::AdvertiseCut;
    };
    match plan.first_activity() {
        None => FaultInstall::AdvertiseCut,
        Some(t) if t < cfg.workload.start => FaultInstall::Build,
        Some(t) if t < advertise_cut(&cfg.workload) => FaultInstall::Start,
        Some(_) => FaultInstall::AdvertiseCut,
    }
}

/// Installs the scenario's fault plan if `point` is its classified
/// installation boundary.
fn install_faults_at(cfg: &ScenarioConfig, net: &mut QuorumNet, point: FaultInstall) {
    if let Some(plan) = &cfg.faults {
        if fault_install_point(cfg) == point {
            net.install_faults(plan.clone());
        }
    }
}

/// Canonicalises the lookup-side service knobs so scenarios that differ
/// only in how they *look up* share one advertise-phase template. Every
/// field canonicalised here is unread until the first lookup is issued.
fn advertise_profile(s: &ServiceConfig) -> ServiceConfig {
    let mut p = *s;
    p.spec.lookup = QuorumSpec::new(AccessStrategy::Random, 1);
    p.lookup_fanout = Fanout::Serial;
    p.early_halting = false;
    p.probe_spacing = SimDuration::ZERO;
    p.expanding_ring = false;
    p
}

/// The template variant of a workload: the same advertise schedule, no
/// lookups. The generator draws all advertisement randomness before any
/// lookup randomness, so the advertise schedule is a stream prefix
/// shared with every member cell regardless of its lookup shape.
fn template_workload(w: &WorkloadConfig) -> WorkloadConfig {
    let mut t = *w;
    t.lookups = 0;
    t.lookers = 1;
    t.lookup_window = SimDuration::from_secs(1);
    t.present_fraction = 0.0;
    t
}

/// The scenario an advertise-phase template is built from: the member's
/// scenario with lookup-side service knobs canonicalised, no lookups,
/// and no post-cut machinery (churn, faults, drain).
fn template_scenario(cfg: &ScenarioConfig) -> ScenarioConfig {
    ScenarioConfig {
        net: cfg.net.clone(),
        service: advertise_profile(&cfg.service),
        workload: template_workload(&cfg.workload),
        churn: None,
        faults: None,
        drain: SimDuration::ZERO,
    }
}

/// Warm-template identity: everything that determines substrate state at
/// the workload start. (`Debug` renders floats exactly, so distinct
/// configurations cannot collide.)
fn warm_key(cfg: &ScenarioConfig, seed: u64) -> String {
    format!(
        "{:?}|{:?}",
        derived_net_config(cfg, seed),
        cfg.workload.start
    )
}

/// Advertise-template identity: the full canonicalised template scenario
/// plus the seed.
fn adv_key(cfg: &ScenarioConfig, seed: u64) -> String {
    format!("{:?}|{seed}", template_scenario(cfg))
}

/// Counts upcalls during a stack-free warmup. A warmup can deliver an
/// upcall only if something sends a data frame, sets an upper-layer
/// timer, or a node fails or joins: hellos are consumed inside the
/// network, frames and timers originate only from a stack, and node
/// faults before the workload start come only from `Build`-class plans,
/// which never reach [`build_warm`].
#[derive(Default)]
struct WarmupProbe {
    upcalls: u64,
}

impl Stack<RoutePacket<AppMsg>> for WarmupProbe {
    fn on_upcall(&mut self, _net: &mut QuorumNet, _upcall: Upcall<RoutePacket<AppMsg>>) {
        self.upcalls += 1;
    }
}

/// The warm stage as a shareable prefix: builds the substrate and warms
/// it (hello traffic, mobility) to the workload start with no service
/// stack attached, so cells with different service configurations can
/// fork it.
fn build_warm(cfg: &ScenarioConfig, seed: u64) -> QuorumNet {
    let mut net: QuorumNet = Network::new(derived_net_config(cfg, seed));
    let mut probe = WarmupProbe::default();
    net.run(&mut probe, cfg.workload.start);
    assert_eq!(
        probe.upcalls, 0,
        "a stack-free warmup delivered an upcall: the substrate is not shareable across stacks"
    );
    net
}

fn generate_workload(cfg: &ScenarioConfig, seed: u64, population: &[NodeId]) -> Workload {
    let mut workload_rng = rng::stream(seed, streams::WORKLOAD);
    Workload::generate(&cfg.workload, population, &mut workload_rng)
}

/// The warm and advertise stages: the stack constructed and the workload
/// generated on a fork of `warm` (or, with no shared prefix, on a fresh
/// substrate at `t = 0`, run to the workload start with the stack
/// attached), then every advertisement issued up to the advertise cut.
fn advertise_phase(
    cfg: &ScenarioConfig,
    seed: u64,
    warm: Option<&QuorumNet>,
    hook: &mut Option<ControllerHook<'_>>,
) -> (QuorumNet, QuorumStack, Workload) {
    let mut net = match warm {
        Some(warm) => warm.clone(),
        None => {
            let mut net: QuorumNet = Network::new(derived_net_config(cfg, seed));
            install_faults_at(cfg, &mut net, FaultInstall::Build);
            net
        }
    };
    let mut stack = QuorumStack::new(&net, cfg.service, seed);
    let workload = generate_workload(cfg, seed, &net.alive_nodes());
    advance(&mut net, &mut stack, hook, cfg.workload.start);
    install_faults_at(cfg, &mut net, FaultInstall::Start);
    for &(at, who, key, value) in &workload.advertisements {
        advance(&mut net, &mut stack, hook, at);
        stack.advertise(&mut net, who, key, value);
    }
    advance(&mut net, &mut stack, hook, advertise_cut(&cfg.workload));
    (net, stack, workload)
}

/// Groups the cells that pass `eligible` by `key`: returns each cell's
/// group index and one representative cell index per group, in first-
/// appearance order.
fn group_cells(
    cells: &[SweepCell],
    eligible: impl Fn(usize) -> bool,
    key: impl Fn(&ScenarioConfig, u64) -> String,
) -> (Vec<Option<usize>>, Vec<usize>) {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut reps: Vec<usize> = Vec::new();
    let of_cell = cells
        .iter()
        .enumerate()
        .map(|(i, (cfg, seed))| {
            eligible(i).then(|| {
                *index.entry(key(cfg, *seed)).or_insert_with(|| {
                    reps.push(i);
                    reps.len() - 1
                })
            })
        })
        .collect();
    (of_cell, reps)
}

/// One sweep cell: a scenario and a seed.
pub type SweepCell = (ScenarioConfig, u64);

/// Runs a batch of sweep cells on the bounded worker pool, sharing
/// warmed simulation prefixes between cells.
///
/// The grid executes as a prefix tree in three waves:
///
/// 1. one *warm template* per distinct substrate (derived network config
///    plus workload start): topology built and warmed to the workload
///    start with no stack on top;
/// 2. one *advertise template* per distinct advertise-phase behaviour
///    (substrate, canonicalised service profile, advertise schedule,
///    seed): substrate plus stack at the advertise cut, forked from its
///    warm template;
/// 3. every cell entering the pipeline on a fork of the deepest template
///    it matches — the measure stage from an advertise template, the
///    advertise stage from a warm template — and run to completion.
///
/// Results are byte-identical to calling [`run_scenario`] per cell at
/// any pool width: sharing decisions depend only on each cell's
/// `(cfg, seed)`, and the stages a fork skips are the ones its template
/// already ran. Cells whose fault plans act before the workload start
/// share nothing and run all three stages.
pub fn run_cells(cells: &[SweepCell], width: usize) -> Vec<RunMetrics> {
    if cells.len() <= 1 {
        return cells.iter().map(|(c, s)| run_scenario(c, *s)).collect();
    }
    let installs: Vec<FaultInstall> = cells
        .iter()
        .map(|(cfg, _)| fault_install_point(cfg))
        .collect();

    // Wave 1: warm templates, one per distinct substrate.
    let (cell_warm, warm_reps) =
        group_cells(cells, |i| installs[i] != FaultInstall::Build, warm_key);
    let warm_jobs: Vec<_> = warm_reps
        .iter()
        .map(|&i| {
            let (cfg, seed) = &cells[i];
            move || build_warm(cfg, *seed)
        })
        .collect();
    let warms: Vec<QuorumNet> = pqs_sim::pool::run_ordered(width, warm_jobs);

    // Wave 2: advertise templates, forked from their warm template and
    // run under the canonicalised advertise profile.
    let (cell_adv, adv_reps) = group_cells(
        cells,
        |i| installs[i] == FaultInstall::AdvertiseCut,
        adv_key,
    );
    let adv_jobs: Vec<_> = adv_reps
        .iter()
        .map(|&i| {
            let (cfg, seed) = &cells[i];
            let warm = cell_warm[i].map(|w| &warms[w]);
            move || {
                let (net, stack, _) =
                    advertise_phase(&template_scenario(cfg), *seed, warm, &mut None);
                (net, stack)
            }
        })
        .collect();
    let advs: Vec<(QuorumNet, QuorumStack)> = pqs_sim::pool::run_ordered(width, adv_jobs);

    // Wave 3: every cell, forked from the deepest matching template.
    let leaf_jobs: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, (cfg, seed))| {
            let seed = *seed;
            let warm = cell_warm[i].map(|w| &warms[w]);
            let adv = cell_adv[i].map(|a| &advs[a]);
            move || {
                let (mut net, mut stack, workload) = match adv {
                    Some((net, stack)) => {
                        // The template ran the advertise stage under the
                        // canonicalised profile; hand the fork its real
                        // service config before any lookup-side knob is
                        // read. Templates carry no faults or churn, so
                        // the population at the cut is the one the
                        // advertise schedule was generated from.
                        let mut stack = stack.clone();
                        *stack.config_mut() = cfg.service;
                        let workload = generate_workload(cfg, seed, &net.alive_nodes());
                        (net.clone(), stack, workload)
                    }
                    None => advertise_phase(cfg, seed, warm, &mut None),
                };
                measure_phase(cfg, seed, &mut net, &mut stack, &workload, &mut None)
            }
        })
        .collect();
    pqs_sim::pool::run_ordered(width, leaf_jobs)
}

/// Runs a scenario over several seeds on the bounded worker pool
/// (`PQS_JOBS` wide, default: available parallelism) and returns the
/// per-seed metrics in `seeds` order.
///
/// Concurrency is capped: no matter how many seeds are requested, at
/// most the pool width simulations are resident at once, and the result
/// vector is identical at every pool width (each run is fully
/// determined by `(cfg, seed)`).
pub fn run_seeds(cfg: &ScenarioConfig, seeds: &[u64]) -> Vec<RunMetrics> {
    run_seeds_bounded(cfg, seeds, pqs_sim::pool::configured_width())
}

/// [`run_seeds`] with an explicit concurrency bound instead of the
/// `PQS_JOBS` environment knob.
pub fn run_seeds_bounded(cfg: &ScenarioConfig, seeds: &[u64], width: usize) -> Vec<RunMetrics> {
    let jobs: Vec<_> = seeds
        .iter()
        .map(|&seed| move || run_scenario(cfg, seed))
        .collect();
    pqs_sim::pool::run_ordered(width, jobs)
}

/// Mean metrics over several runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean hit ratio.
    pub hit_ratio: f64,
    /// Mean intersection ratio.
    pub intersection_ratio: f64,
    /// Mean application messages per advertise.
    pub msgs_per_advertise: f64,
    /// Mean routing control messages per advertise.
    pub routing_per_advertise: f64,
    /// Mean application messages per lookup.
    pub msgs_per_lookup: f64,
    /// Mean routing control messages per lookup.
    pub routing_per_lookup: f64,
    /// Mean fraction of lookups with dropped replies.
    pub reply_drop_ratio: f64,
    /// Mean hit latency (seconds).
    pub mean_hit_latency_s: f64,
    /// Sample standard deviation of the per-run hit ratios (0 for a
    /// single run) — a quick read on whether more seeds are needed.
    pub hit_ratio_stddev: f64,
    /// Median lookup hit latency (seconds) over the merged per-run
    /// histograms.
    pub lookup_p50_s: f64,
    /// 90th-percentile lookup hit latency (seconds).
    pub lookup_p90_s: f64,
    /// 99th-percentile lookup hit latency (seconds).
    pub lookup_p99_s: f64,
    /// Median advertise completion latency (seconds).
    pub advertise_p50_s: f64,
    /// 90th-percentile advertise completion latency (seconds).
    pub advertise_p90_s: f64,
    /// 99th-percentile advertise completion latency (seconds).
    pub advertise_p99_s: f64,
}

/// Aggregates run metrics into means.
pub fn aggregate(runs: &[RunMetrics]) -> Aggregate {
    if runs.is_empty() {
        return Aggregate::default();
    }
    let k = runs.len() as f64;
    let mut lookup_hist = Histogram::new();
    let mut advertise_hist = Histogram::new();
    for r in runs {
        lookup_hist.merge(&r.lookup_latency);
        advertise_hist.merge(&r.advertise_latency);
    }
    let (lkp50, lkp90, lkp99) = lookup_hist.quantile_summary();
    let (adv50, adv90, adv99) = advertise_hist.quantile_summary();
    let secs = |us: u64| us as f64 / 1e6;
    Aggregate {
        runs: runs.len(),
        hit_ratio: runs.iter().map(RunMetrics::hit_ratio).sum::<f64>() / k,
        intersection_ratio: runs.iter().map(RunMetrics::intersection_ratio).sum::<f64>() / k,
        msgs_per_advertise: runs.iter().map(RunMetrics::msgs_per_advertise).sum::<f64>() / k,
        routing_per_advertise: runs
            .iter()
            .map(RunMetrics::routing_per_advertise)
            .sum::<f64>()
            / k,
        msgs_per_lookup: runs.iter().map(RunMetrics::msgs_per_lookup).sum::<f64>() / k,
        routing_per_lookup: runs.iter().map(RunMetrics::routing_per_lookup).sum::<f64>() / k,
        reply_drop_ratio: runs
            .iter()
            .map(|r| ratio(r.reply_drops, r.lookups))
            .sum::<f64>()
            / k,
        mean_hit_latency_s: runs.iter().map(|r| r.mean_hit_latency_s).sum::<f64>() / k,
        hit_ratio_stddev: {
            let mean = runs.iter().map(RunMetrics::hit_ratio).sum::<f64>() / k;
            if runs.len() < 2 {
                0.0
            } else {
                (runs
                    .iter()
                    .map(|r| (r.hit_ratio() - mean).powi(2))
                    .sum::<f64>()
                    / (k - 1.0))
                    .sqrt()
            }
        },
        lookup_p50_s: secs(lkp50),
        lookup_p90_s: secs(lkp90),
        lookup_p99_s: secs(lkp99),
        advertise_p50_s: secs(adv50),
        advertise_p90_s: secs(adv90),
        advertise_p99_s: secs(adv99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_stats_delta_and_sum() {
        let early = PhaseStats {
            data_tx: 10,
            control_tx: 20,
            link_tx: 30,
            phy_tx: 100,
        };
        let late = PhaseStats {
            data_tx: 15,
            control_tx: 25,
            link_tx: 40,
            phy_tx: 180,
        };
        let delta = late.minus(early);
        assert_eq!(delta.data_tx, 5);
        assert_eq!(delta.app_tx(), 15);
    }

    #[test]
    fn ratios_handle_zero_denominator() {
        let m = RunMetrics {
            seed: 0,
            n: 0,
            advertises: 0,
            lookups: 0,
            hits: 0,
            intersections: 0,
            reply_drops: 0,
            advertise_phase: PhaseStats::default(),
            lookup_phase: PhaseStats::default(),
            counters: QuorumCounters::default(),
            net_stats: NetStats::default(),
            mean_hit_latency_s: 0.0,
            advertise_latency: Histogram::new(),
            lookup_latency: Histogram::new(),
            load: LoadSummary::default(),
            total_load: LoadSummary::default(),
            scheduler_clamped: 0,
            wrong_reads: 0,
            trace: Vec::new(),
        };
        assert_eq!(m.hit_ratio(), 0.0);
        assert_eq!(m.msgs_per_lookup(), 0.0);
        assert_eq!(aggregate(&[]).runs, 0);
    }
}
