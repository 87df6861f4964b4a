//! Edge cases of the operation-level retry layer: distinct exhaustion
//! and deadline outcomes, backoff bounds, recovery under injected frame
//! drops, and shrink-or-warn degradation when the population collapses.

use pqs_core::runner::{run_scenario, ScenarioConfig};
use pqs_core::workload::WorkloadConfig;
use pqs_core::{OpKind, QuorumNet, QuorumStack, RetryPolicy};
use pqs_net::{FaultPlan, Network};
use pqs_sim::{SimDuration, SimTime};

fn build(n: usize, seed: u64, policy: Option<RetryPolicy>) -> (QuorumNet, QuorumStack) {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.net.seed = seed;
    cfg.service.retry = policy;
    let net: QuorumNet = Network::new(cfg.net.clone());
    let stack = QuorumStack::new(&net, cfg.service, seed);
    (net, stack)
}

#[test]
fn retry_exhaustion_is_a_distinct_outcome() {
    // Every frame is dropped, so the lookup cannot possibly succeed; the
    // retry budget must run out and say so — not report a silent miss.
    let (mut net, mut stack) = build(
        30,
        5,
        Some(RetryPolicy {
            max_attempts: 2,
            attempt_timeout: SimDuration::from_secs(2),
            base_backoff: SimDuration::from_millis(200),
            max_backoff: SimDuration::from_secs(1),
            op_deadline: SimDuration::from_secs(120),
            adapt_quorum: false,
            epsilon: 0.1,
        }),
    );
    net.install_faults(FaultPlan::new().drop_frames(1.0));
    net.run(&mut stack, SimTime::from_secs(1));
    let origin = net.alive_nodes()[0];
    let op = stack.lookup(&mut net, origin, 424_242);
    net.run(&mut stack, SimTime::from_secs(60));
    let rec = stack.op(op).expect("op recorded");
    assert!(!rec.replied());
    assert_eq!(rec.attempts(), 2, "one retry before exhaustion");
    assert!(rec.retries_exhausted, "exhaustion must be flagged");
    assert!(!rec.deadline_expired, "deadline did not pass first");
    assert!(rec.completed.is_some(), "exhaustion closes the op");
    assert_eq!(stack.counters().retries_exhausted, 1);
    assert_eq!(stack.counters().op_retries, 1);
}

#[test]
fn deadline_expires_mid_recovery() {
    // The deadline lands between retry attempts: the operation is still
    // being repaired (more attempts remain) when time runs out.
    let (mut net, mut stack) = build(
        30,
        6,
        Some(RetryPolicy {
            max_attempts: 10,
            attempt_timeout: SimDuration::from_secs(1),
            base_backoff: SimDuration::from_millis(200),
            max_backoff: SimDuration::from_millis(400),
            op_deadline: SimDuration::from_millis(1_500),
            adapt_quorum: false,
            epsilon: 0.1,
        }),
    );
    net.install_faults(FaultPlan::new().drop_frames(1.0));
    net.run(&mut stack, SimTime::from_secs(1));
    let origin = net.alive_nodes()[0];
    let op = stack.lookup(&mut net, origin, 99_999);
    net.run(&mut stack, SimTime::from_secs(30));
    let rec = stack.op(op).expect("op recorded");
    assert!(!rec.replied());
    assert!(rec.deadline_expired, "deadline expiry must be flagged");
    assert!(!rec.retries_exhausted, "budget had attempts left");
    assert!(rec.attempts() < 10, "deadline cut the retry loop short");
    assert!(rec.completed.is_some());
    assert_eq!(stack.counters().deadlines_expired, 1);
}

#[test]
fn successful_operations_never_retry() {
    let (mut net, mut stack) = build(40, 7, Some(RetryPolicy::default_policy()));
    net.run(&mut stack, SimTime::from_secs(1));
    let nodes = net.alive_nodes();
    stack.advertise(&mut net, nodes[0], 7, 70);
    net.run(&mut stack, SimTime::from_secs(40));
    let look = stack.lookup(&mut net, nodes[1], 7);
    net.run(&mut stack, SimTime::from_secs(80));
    let rec = stack.op(look).expect("op recorded");
    assert!(rec.replied(), "healthy network should answer");
    assert_eq!(rec.attempts(), 1, "no retry needed");
    assert_eq!(stack.counters().op_retries, 0);
    assert_eq!(stack.counters().retries_exhausted, 0);
    assert_eq!(stack.counters().deadlines_expired, 0);
}

#[test]
fn population_collapse_degrades_gracefully() {
    // Kill nearly the whole network after advertising: the §6.3 estimate
    // cannot support the Corollary 5.3 sizing rule any more, so the
    // retried lookup must be flagged degraded instead of looping
    // silently.
    let (mut net, mut stack) = build(
        40,
        8,
        Some(RetryPolicy {
            max_attempts: 3,
            attempt_timeout: SimDuration::from_secs(2),
            base_backoff: SimDuration::from_millis(200),
            max_backoff: SimDuration::from_secs(1),
            op_deadline: SimDuration::from_secs(120),
            adapt_quorum: true,
            epsilon: 0.1,
        }),
    );
    net.run(&mut stack, SimTime::from_secs(1));
    let nodes = net.alive_nodes();
    stack.advertise(&mut net, nodes[0], 11, 1_111);
    net.run(&mut stack, SimTime::from_secs(30));
    // Fail all but three nodes (survivor fraction 3/40 pushes the
    // effective advertise quorum below one member).
    let survivor = nodes[1];
    let alive = net.alive_nodes();
    let now = net.now();
    for &victim in alive.iter().filter(|&&v| v != survivor).skip(2) {
        net.schedule_fail(victim, now + SimDuration::from_millis(1));
    }
    net.run(&mut stack, now + SimDuration::from_secs(15));
    assert!(net.is_alive(survivor));
    let op = stack.lookup(&mut net, survivor, 11);
    net.run(&mut stack, net.now() + SimDuration::from_secs(60));
    let rec = stack.op(op).expect("op recorded");
    assert!(rec.attempts() > 1, "the miss must have triggered retries");
    assert!(rec.degraded, "collapse must be flagged as degradation");
    assert!(stack.counters().degraded_ops >= 1);
}

#[test]
fn retry_recovers_lookups_under_frame_drops() {
    // Uniform frame drops heavy enough that the MAC's own 7 retries no
    // longer absorb them all (at 10% they do — see the fault_resilience
    // harness). Retrying with fresh access sets must win back the
    // lookups a single-shot service loses.
    let run = |retry: Option<RetryPolicy>| {
        let mut cfg = ScenarioConfig::paper(80);
        cfg.workload = WorkloadConfig::small(8, 30);
        cfg.faults = Some(FaultPlan::new().drop_frames(0.20));
        cfg.service.retry = retry;
        run_scenario(&cfg, 11)
    };
    let plain = run(None);
    let retried = run(Some(RetryPolicy::default_policy()));
    assert_eq!(plain.lookups, retried.lookups);
    assert!(
        plain.hits < plain.lookups,
        "the single-shot run should miss under 20% drops"
    );
    assert!(
        retried.hits > plain.hits,
        "retry recovered nothing: {} vs {}",
        retried.hits,
        plain.hits
    );
    // The retry layer must be visibly at work on a lossy medium.
    assert!(retried.counters.op_retries > 0, "no retries issued");
}

#[test]
fn advertise_retry_tops_up_the_shortfall() {
    // Under drops some stores are lost; the retry layer re-sends only
    // the missing members until the quorum is fully placed.
    let (mut net, mut stack) = build(
        50,
        9,
        Some(RetryPolicy {
            max_attempts: 5,
            attempt_timeout: SimDuration::from_secs(8),
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_secs(2),
            op_deadline: SimDuration::from_secs(300),
            adapt_quorum: false,
            epsilon: 0.1,
        }),
    );
    net.install_faults(FaultPlan::new().drop_frames(0.15));
    net.run(&mut stack, SimTime::from_secs(1));
    let origin = net.alive_nodes()[0];
    let op = stack.advertise(&mut net, origin, 3, 33);
    net.run(&mut stack, SimTime::from_secs(200));
    let rec = stack.op(op).expect("op recorded");
    let target = stack.config().spec.advertise.size;
    assert!(
        rec.stores_placed() >= target || rec.retries_exhausted || rec.deadline_expired,
        "advertise neither completed nor closed: {} of {target} placed",
        rec.stores_placed()
    );
    assert_eq!(rec.kind(), OpKind::Advertise);
}

#[test]
fn retry_carries_an_op_through_a_partition_window() {
    // A key advertised from the far left, then looked up from the thin
    // right sliver of an x = 0.92 partition: no copy landed right of the
    // cut, so the lookup stalls until the heal. The backoff ladder must
    // carry it across and complete it well inside the deadline, with
    // the substrate's unicast conservation intact throughout.
    let (mut net, mut stack) = build(
        50,
        13,
        Some(RetryPolicy {
            max_attempts: 12,
            attempt_timeout: SimDuration::from_secs(4),
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_secs(4),
            op_deadline: SimDuration::from_secs(120),
            adapt_quorum: false,
            epsilon: 0.1,
        }),
    );
    let split = SimTime::from_secs(25);
    let heal = SimTime::from_secs(50);
    net.install_faults(FaultPlan::new().partition_vertical(0.92, split, heal));
    net.run(&mut stack, SimTime::from_secs(1));
    // Advertise before the split from the leftmost node — with this
    // seed every copy lands left of the future cut.
    let nodes = net.alive_nodes();
    let leftmost = *nodes
        .iter()
        .min_by(|a, b| net.position(**a).x.total_cmp(&net.position(**b).x))
        .expect("nodes exist");
    let rightmost = *nodes
        .iter()
        .max_by(|a, b| net.position(**a).x.total_cmp(&net.position(**b).x))
        .expect("nodes exist");
    stack.advertise(&mut net, leftmost, 77, 7700);
    net.run(&mut stack, split + SimDuration::from_secs(1));
    // Look up mid-partition from the right sliver.
    let op = stack.lookup(&mut net, rightmost, 77);
    net.run(&mut stack, heal - SimDuration::from_secs(2));
    let mid = stack.op(op).expect("op recorded");
    assert!(
        !mid.replied(),
        "partition did not bite: the sliver lookup found the value while split"
    );
    assert!(!mid.retries_exhausted && !mid.deadline_expired);
    // Run past the heal up to the deadline horizon.
    net.run(&mut stack, SimTime::from_secs(140));
    let rec = stack.op(op).expect("op recorded");
    assert!(rec.replied(), "lookup must complete after the heal");
    assert_eq!(rec.value, Some(7700), "healed lookup returns the value");
    assert!(
        !rec.deadline_expired,
        "heal happened well inside the deadline"
    );
    assert!(rec.attempts() > 1, "completion required the retry ladder");
    let completed = rec.completed.expect("a replied lookup closes");
    assert!(completed > heal, "completion cannot precede the heal");
    assert!(stack.counters().op_retries > 0);
    assert_eq!(stack.counters().deadlines_expired, 0);
    // Conservation: every unicast data transmission is accounted for.
    let s = *net.stats();
    assert!(s.fault_dropped > 0, "the partition must drop receptions");
    assert_eq!(
        s.unicast_data_tx,
        s.unicast_delivered + s.unicast_dup_discarded + s.unicast_fault_dropped + s.unicast_lost,
        "unicast conservation violated across the partition window"
    );
}
