//! Delivery-schedule equivalence: the same `QuorumEndpoint` engine,
//! driven by the same seeds over the same op sequence, must produce the
//! same protocol outcomes whether its messages cross fast uniform links
//! or slow links on which half the messages are held up to 20 ms longer.
//! Latencies may differ; the protocol-level outcome of every operation —
//! kind, key, success, value — must not.

use pqs_core::endpoint::{Completion, EndpointConfig};
use pqs_core::loopback::{LinkFaults, LoopbackConfig, LoopbackNet};
use pqs_core::store::{Key, Value};
use pqs_net::NodeId;
use pqs_sim::{SimDuration, SimTime};

const N: usize = 16;
const SEED: u64 = 1234;

/// One scripted client operation: `(origin, key, value)`; `value = None`
/// is a lookup.
type ScriptOp = (u32, Key, Option<Value>);

/// A deterministic script: every node advertises one key, then a
/// shifted set of nodes looks each key up (never the advertiser, so
/// every hit crosses the network).
fn script() -> Vec<ScriptOp> {
    let mut ops = Vec::new();
    for k in 0..N as u32 {
        ops.push((k, u64::from(k) + 100, Some(u64::from(k) * 1_000 + 7)));
    }
    for k in 0..N as u32 {
        ops.push(((k + 5) % N as u32, u64::from(k) + 100, None));
    }
    ops
}

/// Outcome rows `(node, op, kind_is_lookup, key, ok, value)` sorted for
/// comparison.
type Outcome = (u32, u64, bool, Key, bool, Option<Value>);

fn op_time(i: usize) -> SimTime {
    SimTime::from_secs(2 * (i as u64 + 1))
}

fn run(endpoint: EndpointConfig, link_delay: SimDuration, faults: LinkFaults) -> Vec<Outcome> {
    let mut net = LoopbackNet::new(LoopbackConfig {
        nodes: N,
        seed: SEED,
        endpoint,
        link_delay,
        faults,
    });
    for (i, &(node, key, value)) in script().iter().enumerate() {
        net.run_until(op_time(i));
        match value {
            Some(v) => net.advertise(NodeId(node), key, v),
            None => net.lookup(NodeId(node), key),
        };
    }
    net.run_idle();
    assert_eq!(net.stats().delayed > 0, faults.delay_prob > 0.0);
    collect(|n| net.take_completions(n))
}

/// 300 µs links, every message on time.
fn fast(endpoint: EndpointConfig) -> Vec<Outcome> {
    run(endpoint, SimDuration::from_micros(300), LinkFaults::none())
}

/// 5 ms links, half the messages held up to 20 ms longer.
fn slow_and_jittered(endpoint: EndpointConfig) -> Vec<Outcome> {
    let faults = LinkFaults {
        delay_prob: 0.5,
        max_extra_delay: SimDuration::from_millis(20),
        ..LinkFaults::none()
    };
    run(endpoint, SimDuration::from_millis(5), faults)
}

fn collect(mut take: impl FnMut(NodeId) -> Vec<Completion>) -> Vec<Outcome> {
    let mut rows: Vec<Outcome> = (0..N as u32)
        .flat_map(|n| {
            take(NodeId(n)).into_iter().map(move |c| {
                (
                    n,
                    c.op,
                    c.kind == pqs_core::OpKind::Lookup,
                    c.key,
                    c.ok,
                    c.value,
                )
            })
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Certain-intersection sizing (`qa + qℓ > n`): every operation must
/// succeed under both schedules with identical outcomes.
#[test]
fn equivalence_with_certain_intersection() {
    let fast = fast(EndpointConfig::new(9, 9));
    let slow = slow_and_jittered(EndpointConfig::new(9, 9));
    assert_eq!(fast.len(), 2 * N, "every scripted op completed");
    assert_eq!(fast, slow);
    for &(_, _, is_lookup, _, ok, value) in &fast {
        assert!(ok, "certain intersection cannot miss");
        assert_eq!(is_lookup, value.is_some());
    }
}

/// Probabilistic sizing (`qa = qℓ = 5`, n = 16): misses and retries are
/// possible, and the two schedules must agree on every single outcome —
/// including which lookups missed.
#[test]
fn equivalence_with_probabilistic_sizing() {
    let fast = fast(EndpointConfig::new(5, 5));
    let slow = slow_and_jittered(EndpointConfig::new(5, 5));
    assert_eq!(fast.len(), 2 * N);
    assert_eq!(fast, slow);
    let hits = fast
        .iter()
        .filter(|&&(_, _, is_lookup, _, ok, _)| is_lookup && ok)
        .count();
    // qa·qℓ = 25 ≥ n·ln(1/ε) for ε ≈ 0.21; most lookups hit.
    assert!(hits >= N / 2, "only {hits}/{N} lookups hit");
}
