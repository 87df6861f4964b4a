//! Fault-resilience harness: (1) measured degradation of the lookup hit
//! ratio when a fraction `f` of the nodes is crashed between the
//! advertise and lookup phases — the simulated counterpart of the §6.1
//! failures-only closed form (Fig. 7) — and (2) the recovery won back by
//! the operation-level retry layer under uniform frame-drop injection.
//!
//! Both experiments drive the fault subsystem through `FaultPlan`, so
//! every run is reproducible from `(scenario, seed)` alone.

use pqs_bench::{bench_workload, f, Bench};
use pqs_core::analysis::{intersection_after_churn, ChurnRegime};
use pqs_core::runner::{run_scenario, ScenarioConfig, SweepCell};
use pqs_core::workload::WorkloadConfig;
use pqs_core::RetryPolicy;
use pqs_net::{FaultPlan, NodeBehavior, NodeId};
use pqs_sim::SimDuration;

/// Crashes `⌈frac·n⌉` evenly spaced nodes shortly after the advertise
/// window closes (the §6.1 failures-only model: stored copies die with
/// their hosts, the lookup quorum size stays fixed).
fn crash_plan(n: usize, frac: f64, seed: u64, cfg: &ScenarioConfig) -> FaultPlan {
    let k = (frac * n as f64).round() as usize;
    let when = cfg.workload.start + cfg.workload.advertise_window + SimDuration::from_secs(2);
    let mut plan = FaultPlan::new();
    for i in 0..k {
        let idx = (i * n / k.max(1) + seed as usize) % n;
        plan = plan.crash_at(NodeId(idx as u32), when);
    }
    plan
}

fn degradation(b: &mut Bench, seed_list: &[u64]) {
    let n = 150;
    let base = ScenarioConfig::paper(n);
    // ε₀ implied by the paper's default sizing (|Qa| = 2√n, |Qℓ| = 1.15√n).
    let eps0 = 1.0
        - base
            .service
            .spec
            .intersection_lower_bound(n)
            .expect("paper spec sizes are set");
    b.header(
        &format!("measured vs §6.1 closed form: crashed vs silent fraction f (n = {n}, eps0 = {eps0:.3})"),
        &["f", "closed form", "crash", "silent", "delta"],
    );
    // The fault plan depends on the seed, so each (frac, mode, seed)
    // cell is its own scenario. The silent arm replaces the crash
    // schedule with reply-suppressing behavior faults: the hosts keep
    // routing, but their stored copies never answer — the Byzantine
    // flavour of the same §6.1 thinning. Every plan here acts after the
    // advertise window, so all cells of one seed fork one shared
    // advertise-phase template.
    let fracs = [0.0, 0.1, 0.2, 0.3];
    let cells: Vec<SweepCell> = fracs
        .iter()
        .flat_map(|&frac| {
            [false, true].into_iter().flat_map(move |silent| {
                seed_list.iter().map(move |&seed| {
                    let mut cfg = ScenarioConfig::paper(n);
                    cfg.workload = bench_workload(20, 60, n);
                    if frac > 0.0 {
                        cfg.faults = Some(if silent {
                            FaultPlan::new().behavior_fraction(frac, &[NodeBehavior::Silent])
                        } else {
                            crash_plan(n, frac, seed, &cfg)
                        });
                    }
                    (cfg, seed)
                })
            })
        })
        .collect();
    let results = b.run_cells(cells);
    for (chunk, &frac) in results.chunks(2 * seed_list.len()).zip(&fracs) {
        let predicted = intersection_after_churn(
            eps0,
            frac,
            ChurnRegime::FailuresOnly {
                adjust_lookup: false,
            },
        );
        let (crash_chunk, silent_chunk) = chunk.split_at(seed_list.len());
        let ratio = |runs: &[pqs_core::runner::RunMetrics]| {
            let (mut hits, mut lookups) = (0usize, 0usize);
            for m in runs {
                hits += m.hits;
                lookups += m.lookups;
            }
            hits as f64 / lookups as f64
        };
        let crashed = ratio(crash_chunk);
        let silent = ratio(silent_chunk);
        b.row(&[
            f(frac),
            f(predicted),
            f(crashed),
            f(silent),
            format!("{:+.3}", crashed - predicted),
        ]);
    }
    println!("\nFailures-only churn with a constant |Ql| keeps ε unchanged (§6.1):");
    println!("survivors and surviving copies thin out at the same rate. The");
    println!("measured hit ratio tracks that flat profile within a few points;");
    println!("routing losses in the thinned network pull the large-f cells down.");
    println!("Silent (Byzantine-mute) nodes degrade *harder* than crashes at the");
    println!("same fraction: a crashed node at least vacates the walk — a mute one");
    println!("still gets visited and burns a lookup-quorum slot without answering.");
}

fn retry_recovery(b: &mut Bench, seed_list: &[u64]) {
    let n = 80;
    b.header(
        &format!("retry recovery under uniform frame drops (n = {n}, paper workload small(8, 30))"),
        &[
            "drop",
            "plain hits",
            "retry hits",
            "recovered",
            "op retries",
            "exhausted",
        ],
    );
    // One cell per (drop, seed, policy) triple: the plain and the
    // retrying run of a cell are independent simulations. (Frame drops
    // act from t = 0, so these cells share no warmed prefix — they run
    // from scratch inside the same pool pass.)
    let drops = [0.10, 0.20, 0.30];
    let cells: Vec<SweepCell> = drops
        .iter()
        .flat_map(|&drop| {
            seed_list.iter().flat_map(move |&seed| {
                [None, Some(RetryPolicy::default_policy())]
                    .into_iter()
                    .map(move |retry| {
                        let mut cfg = ScenarioConfig::paper(n);
                        cfg.workload = WorkloadConfig::small(8, 30);
                        cfg.faults = Some(FaultPlan::new().drop_frames(drop));
                        cfg.service.retry = retry;
                        (cfg, seed)
                    })
            })
        })
        .collect();
    let results = b.run_cells(cells);
    for (chunk, &drop) in results.chunks(2 * seed_list.len()).zip(&drops) {
        let (mut plain_hits, mut retry_hits, mut lookups) = (0usize, 0usize, 0usize);
        let (mut retries, mut exhausted) = (0u64, 0u64);
        for pair in chunk.chunks(2) {
            let (plain, retried) = (&pair[0], &pair[1]);
            plain_hits += plain.hits;
            retry_hits += retried.hits;
            lookups += plain.lookups;
            retries += retried.counters.op_retries;
            exhausted += retried.counters.retries_exhausted;
        }
        let missed = lookups - plain_hits;
        let recovered = if missed == 0 {
            "no misses".to_string()
        } else {
            format!("{}/{missed}", retry_hits.saturating_sub(plain_hits))
        };
        b.row(&[
            f(drop),
            format!("{plain_hits}/{lookups}"),
            format!("{retry_hits}/{lookups}"),
            recovered,
            retries.to_string(),
            exhausted.to_string(),
        ]);
    }
    println!("\nThe MAC's own 7 link retries absorb most frame losses (single seeds");
    println!("often miss nothing at 10%); the residual misses are what the op-level");
    println!("layer re-issues with fresh access sets — recovering ≥90% of them at");
    println!("10% drops over a 10-seed sample (PQS_SEEDS=10). The few ops that");
    println!("stay unrecovered exhaust their budget and are flagged, not hung.");
}

/// `--trace`: re-runs one faulty scenario with the stack's trace ring
/// enabled and dumps the typed event log (sim-time stamped, JSON) so a
/// single run's retry/failure story can be read end to end.
fn trace_dump(b: &mut Bench) {
    let n = 80;
    let mut cfg = ScenarioConfig::paper(n);
    cfg.workload = WorkloadConfig::small(8, 30);
    cfg.faults = Some(FaultPlan::new().drop_frames(0.20));
    cfg.service.retry = Some(RetryPolicy::default_policy());
    cfg.service.trace_capacity = 4096;
    let m = run_scenario(&cfg, b.seeds(1)[0]);
    let trace = pqs_core::obs::trace_to_json(&m.trace);
    println!("\n=== trace: n = {n}, 20% frame drops, retry on ===");
    println!("{}", trace.render());
    b.add_value("trace", trace);
}

pub fn run(b: &mut Bench) {
    let seed_list = b.seeds(3);
    degradation(b, &seed_list);
    retry_recovery(b, &seed_list);
    if std::env::args().any(|a| a == "--trace") {
        trace_dump(b);
    }
}
