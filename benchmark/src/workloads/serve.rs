//! `serve-closed-readheavy` and `serve-open-writeheavy`: an in-process
//! `pqs_serve::Cluster` of 5 UDP nodes (qa = 4, ql = 3: 4 + 3 > 5, so
//! every get must hit) driven by the benchmark's own two clients.

use super::{check, measured_section, ArmCost, Ctx, Outcome, Pass};
use crate::loadgen::{Client, Counts, Mix, Recorder, Until, WINDOW_US};
use crate::stats;
use crate::trace::{SpanIdx, Tracer, NONE};
use pqs_core::transport::{Datagram, WireMsg};
use pqs_core::wire;
use pqs_serve::{Cluster, NodeReport, ServeConfig, CLIENT_NODE_ID};
use pqs_sim::metrics::Histogram;
use pqs_sim::rng::{entity_stream, streams};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// 2 clients x 64 outstanding, 80 % gets.
    Closed,
    /// 2 clients x 2000 requests/s on a fixed schedule, 20 % gets.
    Open,
}

const NODES: usize = 5;
const CLIENTS: usize = 2;
const OUTSTANDING: usize = 64;
const OPEN_RATE_PER_CLIENT: f64 = 2_000.0;
/// Discarded closed-loop operations per client before timing starts.
const WARMUP_OPS: u64 = 2_500;
/// Discarded open-loop seconds before timing starts.
const WARMUP_S: f64 = 0.5;
/// Latency samples kept per client and second of measured time; beyond
/// it operations are still counted, only their latencies go unsampled.
const SAMPLES_PER_S: usize = 100_000;

impl Loop {
    fn get_share(self) -> f64 {
        match self {
            Loop::Closed => 0.8,
            Loop::Open => 0.2,
        }
    }
}

struct Rig {
    cluster: Cluster,
    clients: Vec<Client>,
    /// Everything the clients did since the cluster was spawned.
    counts: Counts,
    spawn_ms: f64,
}

fn io_expect<T>(what: &str, r: io::Result<T>) -> T {
    r.unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// A socket for pings and single probes, with a 20 ms read timeout.
fn probe_socket() -> UdpSocket {
    let sock = io_expect("bind", UdpSocket::bind("127.0.0.1:0"));
    io_expect(
        "read timeout",
        sock.set_read_timeout(Some(Duration::from_millis(20))),
    );
    sock
}

/// Median of `samples`, 0 if there are none (a probe that got no answer
/// reports 0 rather than stopping the run; the checks catch real loss).
fn median_or_zero(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples)
    }
}

/// Runs `phase` on every client at once, one thread each.
fn on_all_clients<R: Send>(
    clients: &mut [Client],
    recorders: &mut [Recorder],
    phase: impl Fn(&mut Client, &mut Recorder) -> io::Result<R> + Sync,
) -> Vec<R> {
    let phase = &phase;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(recorders.iter_mut())
            .map(|(client, recorder)| scope.spawn(move || phase(client, recorder)))
            .collect();
        handles
            .into_iter()
            .map(|h| io_expect("load client", h.join().expect("load client panicked")))
            .collect()
    })
}

/// One `Ping` round trip: socket, codec and node loop, no engine.
fn ping(sock: &UdpSocket, addr: SocketAddr, nonce: u64) -> Option<Duration> {
    let frame = wire::encode_frame(&Datagram {
        from: CLIENT_NODE_ID,
        msg: WireMsg::Ping { nonce },
    });
    let mut buf = [0u8; 256];
    let begun = Instant::now();
    sock.send_to(&frame, addr).ok()?;
    while begun.elapsed() < Duration::from_millis(100) {
        if let Ok((n, src)) = sock.recv_from(&mut buf) {
            if let Ok((dg, _)) = wire::decode_frame(&buf[..n]) {
                if src == addr && dg.msg == (WireMsg::Pong { nonce }) {
                    return Some(begun.elapsed());
                }
            }
        }
    }
    None
}

/// Spawns the cluster, waits until every node answers a ping, seeds both
/// keyspaces and runs the discarded warm-up.
fn set_up(tracer: &mut Tracer, parent: SpanIdx, kind: Loop, seed: u64, quick: bool) -> Rig {
    let t = Instant::now();
    let cluster = tracer.span("serve.spawn", seed, parent, || {
        io_expect(
            "spawn cluster",
            Cluster::spawn(ServeConfig::sized(NODES, seed, 0.1)),
        )
    });
    let spawn_ms = t.elapsed().as_secs_f64() * 1e3;

    tracer.span("serve.ping", seed, parent, || {
        let sock = probe_socket();
        for (i, &addr) in cluster.addrs().iter().enumerate() {
            let alive = (0..50).any(|k| ping(&sock, addr, (i * 100 + k) as u64).is_some());
            assert!(alive, "node {i} never answered a ping");
        }
    });

    let mut clients: Vec<Client> = (0..CLIENTS as u64)
        .map(|c| {
            let rng = entity_stream(seed, streams::WORKLOAD, c);
            io_expect("client socket", Client::new(c, cluster.addrs(), rng))
        })
        .collect();
    let mut unused: Vec<Recorder> = (0..CLIENTS).map(|_| Recorder::with_capacity(0)).collect();

    let seeded = tracer.span("serve.seed_keys", seed, parent, || {
        on_all_clients(&mut clients, &mut unused, |c, _| {
            c.closed_loop(Mix::Seed, OUTSTANDING, Until::Ops(u64::MAX), None)
        })
    });
    let warm = tracer.span("serve.warm_up", seed, parent, || {
        let get_share = kind.get_share();
        let shrink = if quick { 10 } else { 1 };
        on_all_clients(&mut clients, &mut unused, |c, _| match kind {
            Loop::Closed => {
                let until = Until::Ops(WARMUP_OPS / shrink);
                c.closed_loop(Mix::Mixed { get_share }, OUTSTANDING, until, None)
            }
            Loop::Open => {
                let seconds = WARMUP_S / shrink as f64;
                c.open_loop(get_share, OPEN_RATE_PER_CLIENT, seconds, c.offset(), None)
            }
        })
    });
    let mut counts = Counts::default();
    for c in seeded.iter().chain(&warm) {
        counts.add(c);
    }
    Rig {
        cluster,
        clients,
        counts,
        spawn_ms,
    }
}

/// Drains the cluster; returns every node's report and how long it took.
fn drain(tracer: &mut Tracer, seed: u64, cluster: Cluster) -> (Vec<NodeReport>, f64) {
    let t = Instant::now();
    let reports = tracer.span("serve.drain", seed, NONE, || {
        io_expect("drain cluster", cluster.drain())
    });
    (reports, t.elapsed().as_secs_f64() * 1e3)
}

pub fn run(ctx: &mut Ctx, kind: Loop) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.seed;

    // Set-up, several times over; all but the last cluster are drained
    // again straight away.
    let mut rig: Option<Rig> = None;
    while ctx.another_setup(&out.setups_s) {
        let rep = out.setups_s.len();
        if let Some(old) = rig.take() {
            drain(&mut ctx.tracer, seed, old.cluster);
        }
        let t = Instant::now();
        let span = ctx.tracer.begin("serve.set_up", rep as u64, NONE);
        let built = set_up(&mut ctx.tracer, span, kind, seed, ctx.quick);
        ctx.tracer.end(span);
        out.setups_s.push(t.elapsed().as_secs_f64());
        rig = Some(built);
    }
    let mut rig = rig.expect("at least one set-up repetition");

    let sample_cap = (SAMPLES_PER_S as f64 * ctx.seconds) as usize;
    let mut recorders: Vec<Recorder> = (0..CLIENTS)
        .map(|_| Recorder::with_capacity(sample_cap))
        .collect();

    if ctx.traced() {
        out.layer("serve.spawn_ms", rig.spawn_ms);
        idle_probes(ctx, &mut out, &mut rig);
    }

    // The measured section: one phase (four in a traced run), every
    // client on its own thread.
    let mut measured = Counts::default();
    let mut phase_seconds = 0.0;
    let clients = &mut rig.clients;
    let arm_cost = match kind {
        Loop::Closed => ArmCost::Time,
        Loop::Open => ArmCost::Cpu,
    };
    measured_section(ctx, &mut out, arm_cost, |tracer, seconds| {
        let origin = tracer.enabled().then(|| tracer.origin());
        for r in recorders.iter_mut() {
            r.begin_phase(seconds, origin);
        }
        let phase = tracer.begin("serve.load_phase", seed, NONE);
        let get_share = kind.get_share();
        let counts = on_all_clients(clients, &mut recorders, |c, r| match kind {
            Loop::Closed => {
                let mix = Mix::Mixed { get_share };
                c.closed_loop(mix, OUTSTANDING, Until::Seconds(seconds), Some(r))
            }
            Loop::Open => c.open_loop(
                get_share,
                OPEN_RATE_PER_CLIENT,
                seconds,
                c.offset(),
                Some(r),
            ),
        });
        tracer.end(phase);
        for c in &counts {
            measured.add(c);
        }
        phase_seconds += seconds;
        for r in recorders.iter_mut() {
            if let Some((_, spans)) = r.spans.take() {
                tracer.extend("request", phase, spans);
            }
        }
        // Closed loop: one pass per whole 250 ms window. Open loop: the
        // rate achieved is what was answered over the time it took, which
        // is the offered rate unless a backlog grows.
        match kind {
            Loop::Closed => {
                let whole_windows = (seconds * 1e6 / WINDOW_US as f64).floor() as usize;
                (0..whole_windows.max(1))
                    .map(|w| {
                        let answered = recorders
                            .iter()
                            .filter_map(|r| r.windows.get(w))
                            .map(|&c| f64::from(c));
                        Pass::whole(WINDOW_US as f64 / 1e6, answered.sum())
                    })
                    .collect()
            }
            Loop::Open => vec![Pass::whole(
                recorders.iter().map(|r| r.last_done_us).fold(1.0, f64::max) / 1e6,
                recorders.iter().map(|r| r.answered as f64).sum(),
            )],
        }
    });
    rig.counts.add(&measured);
    let (reports, drain_ms) = drain(&mut ctx.tracer, seed, rig.cluster);

    // Only now, with the peak resident set read, are the latencies copied
    // out of the recorders' fixed buffers.
    let latencies: Vec<(f64, bool)> = recorders.iter().flat_map(Recorder::latencies).collect();
    out.op_latencies_us = latencies.iter().map(|&(l, _)| l).collect();
    out.attempted = measured.issued;
    out.failed = measured.bad();
    checks(&mut out, &measured, &rig.counts, &reports);
    if ctx.traced() {
        let in_flight_us: u64 = recorders.iter().map(|r| r.latency_sum_us).sum();
        out.layer("serve.drain_ms", drain_ms);
        out.layer(
            "loadgen.inflight_mean",
            in_flight_us as f64 / (phase_seconds * 1e6),
        );
        out.layer("loadgen.retransmits", measured.retransmits as f64);
        out.layer(
            "serve.cpu_ms_per_kop",
            out.cpu_ms * 1e3 / measured.issued.max(1) as f64,
        );
        latency_layers(&mut out, &latencies, &reports);
        node_layers(&mut out, rig.counts.issued, &reports);
        lateness_layers(&mut out, &recorders);
    }
    out
}

/// One operation at a time on the idle cluster: the floor a request
/// pays when nothing else wakes the node loops.
fn idle_probes(ctx: &mut Ctx, out: &mut Outcome, rig: &mut Rig) {
    let span = ctx.tracer.begin("serve.idle_probes", ctx.seed, NONE);
    let sock = probe_socket();
    let addrs = rig.cluster.addrs().to_vec();
    let mut pings: Vec<f64> = (0..200u64)
        .filter_map(|k| ping(&sock, addrs[k as usize % addrs.len()], 1_000_000 + k))
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let client = &mut rig.clients[0];
    let reps = if ctx.quick { 5 } else { 25 };
    let mut rtt = |get: bool| -> f64 {
        let mut samples: Vec<f64> = (0..reps)
            .filter_map(|i| io_expect("idle op", client.one_at_a_time(i, get)))
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        rig.counts.issued += reps;
        rig.counts.ok += samples.len() as u64;
        rig.counts.timed_out += reps - samples.len() as u64;
        median_or_zero(&mut samples)
    };
    let put = rtt(false);
    let get = rtt(true);
    ctx.tracer.end(span);
    out.layer("serve.read_timeout_us", crate::host::read_timeout_us());
    out.layer("serve.ping_rtt_p50_us", median_or_zero(&mut pings));
    out.layer("serve.idle_put_rtt_p50_us", put);
    out.layer("serve.idle_get_rtt_p50_us", get);
}

fn checks(out: &mut Outcome, measured: &Counts, lifetime: &Counts, reports: &[NodeReport]) {
    out.checks.push(check(
        "value_mismatches == 0",
        measured.mismatched == 0,
        format!("{}", measured.mismatched),
    ));
    // 4 + 3 > 5 nodes: advertise and lookup quorums always overlap.
    out.checks.push(check(
        "every operation answered ok (hit ratio 1.0)",
        measured.ok == measured.issued,
        format!(
            "{} ok of {} ({} failed, {} refused, {} timed out)",
            measured.ok, measured.issued, measured.failed, measured.refused, measured.timed_out
        ),
    ));
    let conserved = reports.iter().all(|r| {
        let c = r.counters;
        c.requests == c.advertises_issued + c.lookups_issued + c.refused
            && c.advertises_issued + c.lookups_issued == c.completed_ok + c.completed_failed
    });
    out.checks.push(check(
        "per-node drain conservation",
        conserved,
        "requests = issued + refused and issued = ok + failed on every node",
    ));
    // A node answers a retransmit it still knows (in flight, or among its
    // last 1024 answers) without running it again, so each retransmit is
    // at most one more engine request; an operation that never got an
    // answer may never have arrived. With neither, the two counts are equal.
    let requests: u64 = reports.iter().map(|r| r.counters.requests).sum();
    let fewest = lifetime.issued - lifetime.timed_out;
    let most = lifetime.issued + lifetime.retransmits;
    out.checks.push(check(
        "no request ran twice",
        (fewest..=most).contains(&requests),
        format!(
            "{requests} engine requests for {} client operations ({} retransmits, {} unanswered)",
            lifetime.issued, lifetime.retransmits, lifetime.timed_out
        ),
    ));
    let malformed: u64 = reports.iter().map(|r| r.malformed_datagrams).sum();
    out.checks.push(check(
        "malformed_datagrams == 0",
        malformed == 0,
        format!("{malformed}"),
    ));
}

/// Client latency split by kind, the engine's own share of it, and what
/// is left once the engine and the bare socket round trip are taken out:
/// time a request or its completion sat waiting for a node loop to come
/// round.
fn latency_layers(out: &mut Outcome, latencies: &[(f64, bool)], reports: &[NodeReport]) {
    let split = |want_get: bool| -> Vec<f64> {
        let mut v: Vec<f64> = latencies
            .iter()
            .filter(|&&(_, get)| get == want_get)
            .map(|&(l, _)| l)
            .collect();
        v.sort_unstable_by(f64::total_cmp);
        v
    };
    let mut engine_put = Histogram::new();
    let mut engine_get = Histogram::new();
    for r in reports {
        engine_put.merge(&r.advertise_latency);
        engine_get.merge(&r.lookup_latency);
    }
    let ping_p50 = out
        .layers
        .iter()
        .find(|l| l.0 == "serve.ping_rtt_p50_us")
        .map_or(0.0, |l| l.1);
    let kinds = [
        ("put", split(false), engine_put, PUT_LAYERS),
        ("get", split(true), engine_get, GET_LAYERS),
    ];
    for (kind, sorted, engine, [p50_name, p99_name, engine_name, wait_name]) in kinds {
        let (p50, p99) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            (
                stats::nearest_rank(&sorted, 0.5),
                stats::tail(&sorted, 0.99).0,
            )
        };
        let engine_p50 = engine.percentile(50.0) as f64;
        let wait = p50 - engine_p50 - ping_p50;
        out.layer(p50_name, p50);
        out.layer(p99_name, p99);
        out.layer(engine_name, engine_p50);
        out.layer(wait_name, wait);
        // Every operation's engine time lies inside its client latency,
        // so the first two terms cannot exceed the client's p50 by more
        // than the ping floor (an idle node's wake-up, which a busy one
        // does not pay).
        out.checks.push(check(
            "flush wait not below zero by more than the ping floor",
            sorted.is_empty() || wait >= -ping_p50,
            format!("{kind}: client p50 {p50:.0} us = engine {engine_p50:.0} + ping floor {ping_p50:.0} + flush wait {wait:.0}"),
        ));
    }
}

const PUT_LAYERS: [&str; 4] = [
    "serve.client_put_p50_us",
    "serve.client_put_p99_us",
    "serve.engine_put_p50_us",
    "serve.flush_wait_put_p50_us",
];
const GET_LAYERS: [&str; 4] = [
    "serve.client_get_p50_us",
    "serve.client_get_p99_us",
    "serve.engine_get_p50_us",
    "serve.flush_wait_get_p50_us",
];

/// Protocol work per client operation, from the nodes' final reports.
fn node_layers(out: &mut Outcome, client_ops: u64, reports: &[NodeReport]) {
    let sum = |f: fn(&NodeReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let ops = client_ops.max(1) as f64;
    out.layer("serve.msgs_per_op", sum(|r| r.counters.msgs_sent) / ops);
    out.layer(
        "serve.op_retries_per_kop",
        sum(|r| r.counters.op_retries) * 1e3 / ops,
    );
    out.layer("serve.send_errors", sum(|r| r.send_errors));
    out.layer("serve.malformed_datagrams", sum(|r| r.malformed_datagrams));
}

/// How late the open loop's requests left (send - due).
fn lateness_layers(out: &mut Outcome, recorders: &[Recorder]) {
    let mut late: Vec<f64> = recorders
        .iter()
        .flat_map(|r| r.late_us.iter().map(|&l| f64::from(l)))
        .collect();
    if late.is_empty() {
        return; // closed loop: nothing is ever due
    }
    late.sort_unstable_by(f64::total_cmp);
    out.layer("loadgen.late_p99_us", stats::tail(&late, 0.99).0);
    out.note(format!(
        "generator lateness (send - due): p50 {:.0} us, p90 {:.0} us, max {:.0} us over {} sends",
        stats::nearest_rank(&late, 0.5),
        stats::nearest_rank(&late, 0.9),
        late[late.len() - 1],
        late.len()
    ));
}
