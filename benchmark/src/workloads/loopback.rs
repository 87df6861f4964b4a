//! `loopback-engine`: 64 `QuorumEndpoint`s joined by `LoopbackNet`
//! (100 µs links, no faults). Engine, wire codec and scheduler, with no
//! sockets and no threads; deterministic for a seed.

use super::{check, measured_section, value_for, ArmCost, Ctx, Outcome, Pass};
use crate::trace::{Tracer, NONE};
use pqs_core::endpoint::EndpointCounters;
use pqs_core::service::OpKind;
use pqs_core::{LinkFaults, LoopbackConfig, LoopbackNet};
use pqs_net::NodeId;
use pqs_serve::ServeConfig;
use pqs_sim::rng::{stream, streams};
use pqs_sim::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

/// Keys that are seeded once and then only read. Gets and puts use
/// separate keyspaces: every put places its key on 13 more random nodes,
/// so keys that were both re-put and read would be on all 64 nodes within
/// the first second, after which every get is a local hit that sends
/// nothing. Read-only keys keep 13 + 1 holders, so a get is answered
/// locally 14 times in 64 and by a probed peer otherwise, for as long as
/// the run lasts.
const READ_KEYS: u64 = 512;
/// Keys that puts overwrite and nobody reads.
const WRITE_KEYS: u64 = 512;
/// Operations issued together before the net runs idle.
const BATCH: usize = 64;
/// Batches per pass (12 800 operations, ~70 ms). A batch is the timed
/// step: 200 of them leave ten beyond a pass's p95.
const PASS_BATCHES: usize = 200;
/// Batches of a traced run's fixed work (counts exact per seed).
const FIXED_BATCHES: usize = 200;
const GET_SHARE: f64 = 0.8;

#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub issued: u64,
    pub ok: u64,
    /// Gets whose six attempts all probed 12 peers that do not hold the
    /// key. The quorums are ε-intersecting, not strict: a non-holder's
    /// attempt misses the 14 holders with probability 0.05, all six with
    /// 1e-8, which over the 1.7 million such gets of a run is one run in
    /// fifty. A correct outcome of the protocol, not a failed operation.
    pub missed: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub issue_ns: u64,
    pub run_ns: u64,
}

/// A loopback cluster plus the benchmark's own 80/20 load generator.
pub struct Engine {
    net: LoopbackNet,
    nodes: usize,
    rng: StdRng,
    next_node: usize,
    pub tally: Tally,
}

impl Engine {
    /// Builds the cluster and seeds every key with one put.
    pub fn new(nodes: usize, seed: u64) -> Engine {
        let net = LoopbackNet::new(LoopbackConfig {
            nodes,
            seed,
            endpoint: ServeConfig::sized(nodes, seed, 0.1).endpoint,
            link_delay: SimDuration::from_micros(100),
            faults: LinkFaults::none(),
        });
        let mut engine = Engine {
            net,
            nodes,
            rng: stream(seed, streams::WORKLOAD),
            next_node: 0,
            tally: Tally::default(),
        };
        for first in (0..READ_KEYS).step_by(BATCH) {
            for key in first..(first + BATCH as u64).min(READ_KEYS) {
                let node = NodeId((key as usize % nodes) as u32);
                engine.net.advertise(node, key, value_for(key));
                engine.tally.issued += 1;
            }
            engine.net.run_idle();
            engine.collect();
        }
        engine
    }

    /// Issues one batch round-robin over the nodes, runs the net idle,
    /// and checks every completion (a get must return its key's value).
    pub fn batch(&mut self, tracer: &mut Tracer, parent: u32, id: u64) {
        let t = Instant::now();
        let span = tracer.begin("endpoint.issue", id, parent);
        for _ in 0..BATCH {
            let node = NodeId(self.next_node as u32);
            self.next_node = (self.next_node + 1) % self.nodes;
            if self.rng.gen_bool(GET_SHARE) {
                self.net.lookup(node, self.rng.gen_range(0..READ_KEYS));
            } else {
                let key = READ_KEYS + self.rng.gen_range(0..WRITE_KEYS);
                self.net.advertise(node, key, value_for(key));
            }
        }
        tracer.end(span);
        let issued = t.elapsed();
        let span = tracer.begin("loopback.run_idle", id, parent);
        self.net.run_idle();
        tracer.end(span);
        self.tally.issued += BATCH as u64;
        self.tally.issue_ns += issued.as_nanos() as u64;
        self.tally.run_ns += (t.elapsed() - issued).as_nanos() as u64;
        self.collect();
    }

    fn collect(&mut self) {
        for node in 0..self.nodes {
            for c in self.net.take_completions(NodeId(node as u32)) {
                if !c.ok && c.kind == OpKind::Lookup {
                    self.tally.missed += 1;
                } else if !c.ok {
                    self.tally.failed += 1;
                } else if c.value.is_some_and(|v| v != value_for(c.key)) {
                    self.tally.mismatched += 1;
                } else {
                    self.tally.ok += 1;
                }
            }
        }
    }

    fn counters(&self) -> impl Iterator<Item = EndpointCounters> + '_ {
        (0..self.nodes).map(|n| self.net.endpoint(NodeId(n as u32)).counters())
    }

    pub fn msgs_sent(&self) -> u64 {
        self.counters().map(|c| c.msgs_sent).sum()
    }

    pub fn delivered(&self) -> u64 {
        self.net.stats().delivered
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let nodes = if ctx.quick { 16 } else { 64 };
    let mut out = Outcome::default();

    // Set-up: build, seed the read keys, and one discarded pass. The
    // pass warms the engine (the write keys spread over the stores), and
    // without it set-up is 3 ms of first-touched memory, which read 3.4 ms
    // in one run and 10 ms in the next with nothing changed.
    let mut built = None;
    while ctx.another_setup(&out.setups_s) {
        // The previous engine goes first: the peak resident set stays
        // that of one.
        drop(built.take());
        let rep = out.setups_s.len();
        let t = Instant::now();
        let mut engine = ctx
            .tracer
            .span("loopback.build_and_seed", rep as u64, NONE, || {
                Engine::new(nodes, ctx.seed)
            });
        let mut off = Tracer::new(false);
        for _ in 0..PASS_BATCHES {
            engine.batch(&mut off, NONE, 0);
        }
        out.setups_s.push(t.elapsed().as_secs_f64());
        built = Some(engine);
    }
    let mut engine = built.expect("at least one set-up repetition");

    let mut batch_id = 0u64;
    if ctx.traced() {
        let before = (engine.tally, engine.msgs_sent(), engine.delivered());
        let batches = if ctx.quick { 20 } else { FIXED_BATCHES };
        for _ in 0..batches {
            engine.batch(&mut ctx.tracer, NONE, batch_id);
            batch_id += 1;
        }
        let ops = (engine.tally.issued - before.0.issued) as f64;
        let issue_ns = (engine.tally.issue_ns - before.0.issue_ns) as f64;
        let run_ns = (engine.tally.run_ns - before.0.run_ns) as f64;
        let delivered = (engine.delivered() - before.2) as f64;
        out.layer("core.endpoint.op_ns", (issue_ns + run_ns) / ops);
        out.layer("core.endpoint.issue_ns", issue_ns / ops);
        out.layer("core.loopback.delivery_ns", run_ns / delivered.max(1.0));
        out.layer(
            "core.endpoint.msgs_per_op",
            (engine.msgs_sent() - before.1) as f64 / ops,
        );
        out.note(format!(
            "fixed work: {ops} ops, {delivered} deliveries; op = issue {:.0} ns + deliver/handle {:.0} ns",
            issue_ns / ops,
            run_ns / ops
        ));
    }

    let mut step_s = Vec::with_capacity(PASS_BATCHES);
    measured_section(ctx, &mut out, ArmCost::Time, |tracer, seconds| {
        super::timebox(seconds, || {
            let pass_span = tracer.begin("loopback.pass", batch_id, NONE);
            let mut last = Instant::now();
            for _ in 0..PASS_BATCHES {
                engine.batch(tracer, pass_span, batch_id);
                batch_id += 1;
                let now = Instant::now();
                step_s.push((now - last).as_secs_f64());
                last = now;
            }
            tracer.end(pass_span);
            Pass::stepped(&mut step_s, BATCH as f64)
        })
    });

    let tally = engine.tally;
    let stats = engine.net.stats();
    let (mut requests, mut issued, mut refused, mut done, mut open) = (0, 0, 0, 0, 0);
    for (node, c) in engine.counters().enumerate() {
        requests += c.requests;
        issued += c.advertises_issued + c.lookups_issued;
        refused += c.refused;
        done += c.completed_ok + c.completed_failed;
        open += engine.net.endpoint(NodeId(node as u32)).open_ops() as u64;
    }
    out.checks.push(check(
        "every operation completed ok, or is a get that missed (at most 1 in 10 000)",
        tally.ok + tally.missed == tally.issued && tally.missed * 10_000 <= tally.issued,
        format!(
            "{} ok, {} missed, {} failed, {} value-mismatched of {} issued",
            tally.ok, tally.missed, tally.failed, tally.mismatched, tally.issued
        ),
    ));
    out.checks.push(check(
        "codec_errors == 0",
        stats.codec_errors == 0,
        format!("{}", stats.codec_errors),
    ));
    out.checks.push(check(
        "endpoint conservation",
        requests == issued + refused && issued == done + open && requests == tally.issued,
        format!("requests {requests} = issued {issued} + refused {refused}; issued = done {done} + open {open}"),
    ));
    out.attempted = tally.issued;
    out.failed = tally.failed + tally.mismatched;
    out
}
