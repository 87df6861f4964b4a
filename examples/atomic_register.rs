//! A probabilistically-linearizable read/write register over the
//! biquorum layer — the §10 discussion made concrete.
//!
//! The classic quorum register (Attiya–Bar-Noy–Dolev) implements
//! `write(v)` as *query a quorum for the current version, then store
//! `(version+1, v)` at a quorum*, and `read()` as *query a quorum and
//! return the maximum-version value* (optionally writing it back). Run
//! over probabilistic quorums, each phase intersects the relevant
//! previous quorum with probability ≥ 1−ε, yielding the *probabilistic
//! linearizability* of Gramoli 2007 that the paper points to.
//!
//! Versions and data share the service's `u64` values:
//! `value = version << 32 | data` — data is truncated to 32 bits.
//!
//! Reads need the *set* of values a lookup gathered, so the stack runs
//! multi-reply lookups (parallel RANDOM fan-out); an early-halting walk
//! returns one value only, which degrades the register to regular (not
//! atomic) semantics.
//!
//! Run with: `cargo run --release --example atomic_register`

use pqs::core::runner::ScenarioConfig;
use pqs::core::service::ByzMode;
use pqs::core::spec::{AccessStrategy, QuorumSpec};
use pqs::core::{Fanout, Key, OpId, QuorumNet, QuorumStack, Value};
use pqs::net::{Network, NodeId};
use pqs::sim::SimDuration;

/// Packs `(version, data)` into a stored value.
fn pack(version: u32, data: u32) -> Value {
    (u64::from(version) << 32) | u64::from(data)
}

/// Splits a stored value into `(version, data)`.
fn unpack(value: Value) -> (u32, u32) {
    ((value >> 32) as u32, (value & 0xFFFF_FFFF) as u32)
}

/// Phase state of an in-flight register operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Querying the lookup quorum for the newest version.
    Query { write_data: Option<u32> },
    /// Writing the new version to the advertise quorum.
    Store,
}

/// An in-flight register operation (read or write).
#[derive(Debug)]
struct RegisterOp {
    key: Key,
    node: NodeId,
    phase: Phase,
    query_op: OpId,
    store_op: Option<OpId>,
    result: Option<(u32, u32)>,
}

impl RegisterOp {
    /// Starts a read of `key` from `node`.
    fn read(stack: &mut QuorumStack, net: &mut QuorumNet, node: NodeId, key: Key) -> Self {
        RegisterOp::start(stack, net, node, key, None)
    }

    /// Starts a write of `data` to `key` from `node`.
    fn write(
        stack: &mut QuorumStack,
        net: &mut QuorumNet,
        node: NodeId,
        key: Key,
        data: u32,
    ) -> Self {
        RegisterOp::start(stack, net, node, key, Some(data))
    }

    fn start(
        stack: &mut QuorumStack,
        net: &mut QuorumNet,
        node: NodeId,
        key: Key,
        write_data: Option<u32>,
    ) -> Self {
        let query_op = stack.lookup(net, node, key);
        RegisterOp {
            key,
            node,
            phase: Phase::Query { write_data },
            query_op,
            store_op: None,
            result: None,
        }
    }

    /// Advances the state machine; call after running the network past a
    /// phase horizon. Returns `true` once the operation has finished.
    ///
    /// Reads perform the ABD write-back: the freshest value observed is
    /// re-advertised so that a subsequent read cannot observe an older
    /// one (probabilistically).
    fn pump(&mut self, stack: &mut QuorumStack, net: &mut QuorumNet) -> bool {
        match self.phase {
            Phase::Query { write_data } => {
                // The caller controls the query deadline: pump is called
                // after running the network past the horizon, and works
                // with whatever replies arrived (a parallel miss produces
                // no completion event).
                let Some(record) = stack.op(self.query_op) else {
                    return false;
                };
                // Under masking reads only the vote-verified value is
                // trusted: `values_seen` may contain fabricated entries
                // whose forged "version" would otherwise poison the
                // max-version scan. Trusting mode keeps the classic ABD
                // rule over every gathered value.
                let newest = if stack.config().byz.mode == ByzMode::Masking {
                    record.value.map(unpack)
                } else {
                    record
                        .values_seen
                        .iter()
                        .copied()
                        .map(unpack)
                        .max_by_key(|&(version, _)| version)
                };
                self.phase = Phase::Store;
                self.result = match write_data {
                    Some(data) => Some((newest.map_or(0, |(v, _)| v) + 1, data)),
                    // ABD write-back of the newest value read.
                    None => newest,
                };
                // Nothing written yet: the read returns ⊥ and stores
                // nothing.
                self.store_op = self.result.map(|(version, data)| {
                    stack.advertise(net, self.node, self.key, pack(version, data))
                });
                self.store_op.is_none()
            }
            Phase::Store => self.store_op.is_none_or(|op| {
                stack
                    .op(op)
                    .is_some_and(|r| r.stores_placed() > 0 || r.completed.is_some())
            }),
        }
    }

    /// The `(version, data)` this operation settled on: for writes, the
    /// version it installed; for reads, the value read (`None` = ⊥).
    fn result(&self) -> Option<(u32, u32)> {
        self.result
    }
}

/// A static network + stack with parallel RANDOM lookups (multi-reply,
/// as the register needs), both quorums sized so that
/// ε = e^(−|Qa||Qℓ|/n) ≈ 1e-4 rather than the paper's 0.1.
fn build(n: usize, seed: u64) -> (QuorumNet, QuorumStack) {
    let mut cfg = ScenarioConfig::paper(n);
    cfg.service.lookup_fanout = Fanout::Parallel;
    let q = (2.8 * (n as f64).sqrt()).round() as u32;
    cfg.service.membership_view_factor = 3.0;
    cfg.service.spec.advertise = QuorumSpec::new(AccessStrategy::Random, q);
    cfg.service.spec.lookup = QuorumSpec::new(AccessStrategy::Random, q);
    let mut net_cfg = cfg.net.clone();
    net_cfg.seed = seed;
    let net: QuorumNet = Network::new(net_cfg);
    let stack = QuorumStack::new(&net, cfg.service, seed);
    (net, stack)
}

fn run_for(net: &mut QuorumNet, stack: &mut QuorumStack, secs: u64) {
    let horizon = net.now() + SimDuration::from_secs(secs);
    net.run(stack, horizon);
}

/// Runs the network in 20 s slices, pumping `op`, until it finishes (at
/// most two simulated minutes); returns what it settled on.
fn settle(net: &mut QuorumNet, stack: &mut QuorumStack, mut op: RegisterOp) -> Option<(u32, u32)> {
    for _ in 0..6 {
        run_for(net, stack, 20);
        if op.pump(stack, net) {
            break;
        }
    }
    op.result()
}

fn main() {
    let n = 100;
    let key = 7777;
    let (mut net, mut stack) = build(n, 42);
    let writer_a = net.alive_nodes()[3];
    let writer_b = net.alive_nodes()[57];
    let reader = net.alive_nodes()[90];

    println!("probabilistic atomic register over {n} nodes");
    println!(
        "write/read quorums: {} / {}\n",
        stack.config().spec.advertise,
        stack.config().spec.lookup
    );

    let w1 = RegisterOp::write(&mut stack, &mut net, writer_a, key, 1111);
    let (v1, _) = settle(&mut net, &mut stack, w1).expect("write A finishes");
    println!("writer A wrote data=1111 at version {v1}");

    let w2 = RegisterOp::write(&mut stack, &mut net, writer_b, key, 2222);
    let (v2, _) = settle(&mut net, &mut stack, w2).expect("write B finishes");
    println!("writer B wrote data=2222 at version {v2}");
    assert!(v2 > v1, "version order respects write order");

    let r = RegisterOp::read(&mut stack, &mut net, reader, key);
    let read = settle(&mut net, &mut stack, r).expect("register readable");
    println!("reader read (version={}, data={})", read.0, read.1);
    assert_eq!(
        read,
        (v2, 2222),
        "the read must return the latest completed write"
    );

    // A stale lookup would have returned version 1 — the intersection
    // property is what rules that out (with probability ≥ 1−ε).
    println!("\n✓ read returned the newest version: quorums intersected");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs::sim::SimTime;

    #[test]
    fn pack_unpack_roundtrip() {
        for (v, d) in [(0, 0), (1, 42), (u32::MAX, u32::MAX), (7, 0xDEAD_BEEF)] {
            assert_eq!(unpack(pack(v, d)), (v, d));
        }
    }

    #[test]
    fn version_ordering_is_numeric() {
        assert!(pack(2, 0) > pack(1, u32::MAX), "version dominates data");
    }

    #[test]
    fn register_reads_return_latest_write() {
        let (mut net, mut stack) = build(80, 41);
        let a = net.alive_nodes()[3];
        let b = net.alive_nodes()[40];
        let reader = net.alive_nodes()[70];
        let key = 0x9000;

        // Write 1 from a.
        let mut w1 = RegisterOp::write(&mut stack, &mut net, a, key, 111);
        run_for(&mut net, &mut stack, 30);
        assert!(!w1.pump(&mut stack, &mut net) || w1.result().is_some());
        run_for(&mut net, &mut stack, 30);
        assert!(w1.pump(&mut stack, &mut net), "write 1 must finish");
        assert_eq!(
            w1.result(),
            Some((1, 111)),
            "first write installs version 1"
        );

        // Write 2 from b: must observe version 1 and install version 2.
        let mut w2 = RegisterOp::write(&mut stack, &mut net, b, key, 222);
        run_for(&mut net, &mut stack, 30);
        w2.pump(&mut stack, &mut net);
        run_for(&mut net, &mut stack, 30);
        assert!(w2.pump(&mut stack, &mut net), "write 2 must finish");
        assert_eq!(w2.result(), Some((2, 222)), "second write dominates");

        // Read from an uninvolved node: must return the latest write.
        let mut r = RegisterOp::read(&mut stack, &mut net, reader, key);
        run_for(&mut net, &mut stack, 30);
        r.pump(&mut stack, &mut net);
        run_for(&mut net, &mut stack, 30);
        assert!(r.pump(&mut stack, &mut net), "read must finish");
        assert_eq!(
            r.result(),
            Some((2, 222)),
            "read returns the newest version"
        );
    }

    #[test]
    fn register_read_of_unwritten_key_is_bottom() {
        let (mut net, mut stack) = build(50, 42);
        let reader = net.alive_nodes()[10];
        let mut r = RegisterOp::read(&mut stack, &mut net, reader, 0xABCD);
        net.run(&mut stack, SimTime::from_secs(40));
        assert!(r.pump(&mut stack, &mut net));
        assert_eq!(r.result(), None);
    }

    #[test]
    fn register_versions_stay_monotone_under_delay_and_duplication() {
        // Delayed and duplicated frames re-deliver old replies after
        // newer writes landed: the register's read-repair must never move
        // a key's version backwards, and repeated reads must see
        // non-decreasing versions.
        let (mut net, mut stack) = build(60, 47);
        net.install_faults(
            pqs::net::FaultPlan::new()
                .delay_data_frames(0.4, SimDuration::from_millis(60))
                .duplicate_data_frames(0.3),
        );
        let writer_a = net.alive_nodes()[2];
        let writer_b = net.alive_nodes()[30];
        let reader = net.alive_nodes()[50];
        let key = 0x7171;

        let mut last_version = 0u32;
        for (round, writer) in [writer_a, writer_b, writer_a, writer_b]
            .into_iter()
            .enumerate()
        {
            let w = RegisterOp::write(&mut stack, &mut net, writer, key, 1000 + round as u32);
            let (version, data) = settle(&mut net, &mut stack, w).expect("write must finish");
            assert!(
                version > last_version,
                "write {round} regressed the version: {version} after {last_version}"
            );
            assert_eq!(data, 1000 + round as u32);
            last_version = version;

            let r = RegisterOp::read(&mut stack, &mut net, reader, key);
            let (read_version, _) = settle(&mut net, &mut stack, r).expect("read of a written key");
            assert!(
                read_version >= last_version,
                "round {round}: read version {read_version} behind write {last_version} \
                 (duplicated stale replies must not win)"
            );
            last_version = last_version.max(read_version);
        }
        assert_eq!(last_version, 4, "four writes, four versions");
    }
}
