//! Layer probes: small timed loops over one layer's public functions.
//! They say what a layer costs in isolation; the workloads say whether
//! that cost matters end to end. A probe does not depend on the workload,
//! so each runs in the traced run of one workload only: the one whose
//! layer it explains, or, for the two guards, the one nearest to it.

use crate::stats::median;
use crate::trace::{Tracer, NONE};
use crate::workloads::loopback::Engine;
use pqs_core::transport::{Datagram, OpStatus, WireMsg};
use pqs_core::wire;
use pqs_graph::rgg::RggConfig;
use pqs_graph::walks::{WalkKind, Walker};
use pqs_net::NodeId;
use pqs_plan::{Optimizer, OptimizerConfig, Planner, PlannerConfig};
use pqs_sim::rng::{stream, streams};
use pqs_sim::{EventQueue, SimDuration, SimTime};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` three times and returns the median of what it measured.
fn median_of_3(mut f: impl FnMut() -> f64) -> f64 {
    median(&mut [f(), f(), f()])
}

/// A queue holding `population` events spread over one heartbeat period.
/// Scheduled in time order: a far-future wheel slot keeps its entries
/// sorted, so filling a million in random order costs seconds, and the
/// fill is not what these probes time.
fn filled_queue(population: usize, seed: u64) -> EventQueue<u32> {
    let mut rng = stream(seed, streams::WORKLOAD);
    let mut times: Vec<u64> = (0..population)
        .map(|_| rng.gen_range(0..10_000_000))
        .collect();
    times.sort_unstable();
    let mut queue = EventQueue::new();
    for (i, at) in times.into_iter().enumerate() {
        queue.schedule(SimTime::from_micros(at), i as u32);
    }
    queue
}

/// ns per pop + schedule at a steady population: each popped event is
/// rescheduled one heartbeat period (10 s) later, as a heartbeat is.
fn queue_hold_ns(population: usize, seed: u64, shrink: u32) -> f64 {
    let holds = 200_000 / shrink;
    let mut queue = filled_queue(population, seed);
    let period = SimDuration::from_secs(10);
    median_of_3(|| {
        let t = Instant::now();
        for _ in 0..holds {
            let (at, event) = queue.pop().expect("steady population");
            queue.schedule(at + period, black_box(event));
        }
        t.elapsed().as_secs_f64() * 1e9 / f64::from(holds)
    })
}

fn queue_cancel_ns(seed: u64) -> f64 {
    const EVENTS: usize = 100_000;
    median_of_3(|| {
        let mut rng = stream(seed, streams::WORKLOAD);
        let mut queue = EventQueue::new();
        let ids: Vec<_> = (0..EVENTS)
            .map(|i| queue.schedule(SimTime::from_micros(rng.gen_range(0..10_000_000)), i as u32))
            .collect();
        let t = Instant::now();
        for id in ids {
            black_box(queue.cancel(id));
        }
        t.elapsed().as_secs_f64() * 1e9 / EVENTS as f64
    })
}

fn queue_clone_ms(seed: u64) -> f64 {
    let queue = filled_queue(100_000, seed);
    median_of_3(|| {
        let t = Instant::now();
        black_box(queue.clone());
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// One message of every `WireMsg` variant.
fn every_message() -> Vec<Datagram> {
    let msgs = vec![
        WireMsg::Store {
            op: 7,
            key: 42,
            value: 4242,
        },
        WireMsg::StoreAck { op: 7 },
        WireMsg::LookupReq { op: 8, key: 42 },
        WireMsg::LookupReply {
            op: 8,
            key: 42,
            values: vec![4242, 4243],
        },
        WireMsg::Ping { nonce: 1 },
        WireMsg::Pong { nonce: 1 },
        WireMsg::DrainReq,
        WireMsg::DrainAck {
            completed: 10,
            refused: 1,
        },
        WireMsg::MetricsReq,
        WireMsg::MetricsResp {
            issued: 1,
            completed: 2,
            failed: 3,
            refused: 4,
            served_stores: 5,
            served_lookups: 6,
        },
        WireMsg::ClientPut {
            req: 9,
            key: 42,
            value: 4242,
        },
        WireMsg::ClientPutDone {
            req: 9,
            status: OpStatus::Ok,
        },
        WireMsg::ClientGet { req: 10, key: 42 },
        WireMsg::ClientGetDone {
            req: 10,
            status: OpStatus::Ok,
            value: 4242,
        },
    ];
    msgs.into_iter()
        .map(|msg| Datagram {
            from: NodeId(3),
            msg,
        })
        .collect()
}

/// `(encode ns per frame, decode ns per frame, bytes of the 14 frames)`.
fn wire_codec(shrink: u32) -> (f64, f64, f64) {
    let rounds = 20_000 / shrink as usize;
    let datagrams = every_message();
    let frames: Vec<Vec<u8>> = datagrams.iter().map(wire::encode_frame).collect();
    for (d, f) in datagrams.iter().zip(&frames) {
        let (back, used) = wire::decode_frame(f).expect("own frame decodes");
        assert!(back == *d && used == f.len(), "codec round trip");
    }
    let per_frame = (rounds * datagrams.len()) as f64;
    let encode = median_of_3(|| {
        let t = Instant::now();
        for _ in 0..rounds {
            for d in &datagrams {
                black_box(wire::encode_frame(black_box(d)));
            }
        }
        t.elapsed().as_secs_f64() * 1e9 / per_frame
    });
    let decode = median_of_3(|| {
        let t = Instant::now();
        for _ in 0..rounds {
            for f in &frames {
                black_box(wire::decode_frame(black_box(f)).is_ok());
            }
        }
        t.elapsed().as_secs_f64() * 1e9 / per_frame
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    (encode, decode, bytes as f64)
}

/// The loopback engine loop at the serve cluster's 5-node shape: what an
/// operation costs the engine when no socket is involved.
fn endpoint_op_ns_n5(seed: u64, shrink: u32) -> f64 {
    let batches = 300 / u64::from(shrink);
    let mut engine = Engine::new(5, seed);
    let mut off = Tracer::new(false);
    let before = engine.tally;
    let t = Instant::now();
    for id in 0..batches {
        engine.batch(&mut off, NONE, id);
    }
    let ops = engine.tally.issued - before.issued;
    assert_eq!(
        engine.tally.ok - before.ok,
        ops,
        "5-node loopback operations all ok"
    );
    t.elapsed().as_secs_f64() * 1e9 / ops as f64
}

const PLAN_SIZES: [usize; 4] = [100, 400, 1_600, 10_000];
const PLAN_TAUS: [f64; 3] = [0.2, 1.0, 5.0];

/// `(planner µs, optimizer µs)` per `try_plan`, over the n x τ grid.
fn plan_us(shrink: u32) -> (f64, f64) {
    let grid = (PLAN_SIZES.len() * PLAN_TAUS.len()) as f64;
    let planner = Planner::new(PlannerConfig::paper_default());
    let optimizer = Optimizer::new(OptimizerConfig::paper_default());
    let plan = median_of_3(|| {
        let reps = 200 / shrink as usize;
        let t = Instant::now();
        for _ in 0..reps {
            for n in PLAN_SIZES {
                for tau in PLAN_TAUS {
                    black_box(planner.try_plan(black_box(n), tau).is_ok());
                }
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / (reps as f64 * grid)
    });
    let optimize = median_of_3(|| {
        let t = Instant::now();
        for n in PLAN_SIZES {
            for tau in PLAN_TAUS {
                black_box(optimizer.try_plan(black_box(n), tau).is_ok());
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / grid
    });
    (plan, optimize)
}

/// `(ms to build a 10k-node RGG at the paper's density, ns per step of a
/// self-avoiding walk over it)`.
fn graph(seed: u64, shrink: u32) -> (f64, f64) {
    let steps = 200_000 / shrink;
    let mut rng = stream(seed, streams::PLACEMENT);
    let t = Instant::now();
    let rgg = RggConfig::with_avg_degree(10_000, 10.0).generate(&mut rng);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut walk = Walker::new(rgg.graph(), 0, WalkKind::SelfAvoiding);
    let t = Instant::now();
    for _ in 0..steps {
        black_box(walk.step(&mut rng));
    }
    (build_ms, t.elapsed().as_secs_f64() * 1e9 / f64::from(steps))
}

/// Runs the probes that belong to `workload`'s traced run; each gets a
/// span of its own. `quick` cuts every loop to a tenth (and the
/// million-event queue to 100k).
pub fn run(
    tracer: &mut Tracer,
    workload: &str,
    seed: u64,
    quick: bool,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let (big, shrink) = if quick { (100_000, 10) } else { (1_000_000, 1) };
    match workload {
        "sim-substrate-1k" => tracer.span("probe.sim.queue", seed, NONE, || {
            out.push(("sim.queue.hold_1k_ns", queue_hold_ns(1_000, seed, shrink)));
            out.push((
                "sim.queue.hold_100k_ns",
                queue_hold_ns(100_000, seed, shrink),
            ));
            out.push(("sim.queue.hold_1m_ns", queue_hold_ns(big, seed, shrink)));
            out.push(("sim.queue.cancel_ns", queue_cancel_ns(seed)));
            out.push(("sim.queue.clone_100k_ms", queue_clone_ms(seed)));
        }),
        "loopback-engine" => {
            tracer.span("probe.core.wire", seed, NONE, || {
                let (encode, decode, bytes) = wire_codec(shrink);
                out.push(("core.wire.encode_ns", encode));
                out.push(("core.wire.decode_ns", decode));
                out.push(("core.wire.frame_bytes", bytes));
            });
            tracer.span("probe.core.endpoint", seed, NONE, || {
                out.push(("core.endpoint.op_ns_n5", endpoint_op_ns_n5(seed, shrink)));
            });
        }
        "sim-quorum-walk" => {
            tracer.span("probe.plan", seed, NONE, || {
                let (plan, optimize) = plan_us(shrink);
                out.push(("plan.planner_us", plan));
                out.push(("plan.optimizer_us", optimize));
            });
            tracer.span("probe.graph", seed, NONE, || {
                let (build_ms, step_ns) = graph(seed, shrink);
                out.push(("graph.rgg_build_10k_ms", build_ms));
                out.push(("graph.walk_step_ns", step_ns));
            });
        }
        _ => {}
    }
    out
}
