//! Deterministic in-process loopback
//! [`Transport`](crate::transport::Transport) host: ordered per-link
//! channel semantics over a virtual clock, with a seeded
//! drop/delay shim mirroring the PR 1 `FaultPlan` frame-fault semantics.
//!
//! `LoopbackNet` owns one [`QuorumEndpoint`] per node plus a
//! [`pqs_sim::Scheduler`]; every message an engine sends is encoded
//! through the canonical wire codec ([`crate::wire`]) and decoded again
//! on delivery, so the codec is exercised on every hop of every
//! loopback test. Delivery order is the scheduler's deterministic
//! same-instant FIFO; faults come from the dedicated FAULTS rng stream.
//! Same seed ⇒ identical execution; `tests/transport_equivalence.rs`
//! runs one script under two link schedules and checks the engine
//! reaches the same outcomes on both.

use crate::endpoint::{Completion, EndpointConfig, QuorumEndpoint};
use crate::messages::OpId;
use crate::store::{Key, Value};
use crate::transport::{Datagram, QueuedTransport};
use crate::wire;
use pqs_net::NodeId;
use pqs_sim::rng::{stream, streams};
use pqs_sim::{Scheduler, SimDuration, SimTime};
use rand::{rngs::StdRng, Rng};

/// Seeded link-fault shim, mirroring `FaultPlan`'s frame-fault rule
/// semantics: each message independently dropped with `drop_prob`, else
/// delayed by an extra uniform `(0, max_extra_delay]` with `delay_prob`.
#[derive(Debug, Clone, Copy)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a surviving message gets extra delay.
    pub delay_prob: f64,
    /// Upper bound on the extra delay.
    pub max_extra_delay: SimDuration,
}

impl LinkFaults {
    /// A transparent link: nothing dropped, nothing delayed.
    pub fn none() -> Self {
        LinkFaults {
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_extra_delay: SimDuration::ZERO,
        }
    }
}

/// Configuration for a loopback cluster.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// Number of node endpoints.
    pub nodes: usize,
    /// Master seed (engines use the QUORUM stream, faults the FAULTS
    /// stream).
    pub seed: u64,
    /// Per-endpoint protocol configuration.
    pub endpoint: EndpointConfig,
    /// Base one-way delivery latency.
    pub link_delay: SimDuration,
    /// Fault shim applied to every message.
    pub faults: LinkFaults,
}

#[derive(Debug, Clone)]
enum LoopEvent {
    /// A framed datagram arriving at `to`.
    Deliver { to: NodeId, frame: Vec<u8> },
    /// An engine timer firing at `node`.
    Timer { node: NodeId, token: u64 },
    /// Clock-advance marker for `run_until`.
    Idle,
}

/// Delivery statistics of a loopback run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopbackStats {
    /// Messages delivered to an endpoint.
    pub delivered: u64,
    /// Messages eaten by the fault shim.
    pub dropped: u64,
    /// Messages given extra delay by the fault shim.
    pub delayed: u64,
    /// Frames that failed strict decode (always 0: the encoder and
    /// decoder are the same codec; counted rather than unwrapped so a
    /// codec regression surfaces as data, not a panic).
    pub codec_errors: u64,
}

/// A cluster of [`QuorumEndpoint`]s joined by deterministic in-process
/// links. See the module docs.
#[derive(Debug, Clone)]
pub struct LoopbackNet {
    endpoints: Vec<QuorumEndpoint>,
    sched: Scheduler<LoopEvent>,
    fault_rng: StdRng,
    link_delay: SimDuration,
    faults: LinkFaults,
    stats: LoopbackStats,
}

impl LoopbackNet {
    /// Builds a cluster of `cfg.nodes` endpoints with a flat membership
    /// view of each other.
    pub fn new(cfg: LoopbackConfig) -> Self {
        let all: Vec<NodeId> = (0..cfg.nodes as u32).map(NodeId).collect();
        let endpoints = all
            .iter()
            .map(|&id| QuorumEndpoint::new(id, all.clone(), cfg.endpoint.clone(), cfg.seed))
            .collect();
        LoopbackNet {
            endpoints,
            sched: Scheduler::new(),
            fault_rng: stream(cfg.seed, streams::FAULTS),
            link_delay: cfg.link_delay,
            faults: cfg.faults,
            stats: LoopbackStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> LoopbackStats {
        self.stats
    }

    /// The endpoint of `node`.
    pub fn endpoint(&self, node: NodeId) -> &QuorumEndpoint {
        &self.endpoints[node.0 as usize]
    }

    /// Issues an advertise at `node`. `None` if refused (draining).
    pub fn advertise(&mut self, node: NodeId, key: Key, value: Value) -> Option<OpId> {
        let mut ctx = QueuedTransport::at(self.sched.now().as_micros());
        let r = self.endpoints[node.0 as usize].advertise(&mut ctx, key, value);
        self.flush(node, ctx);
        r
    }

    /// Issues a lookup at `node`. `None` if refused (draining).
    pub fn lookup(&mut self, node: NodeId, key: Key) -> Option<OpId> {
        let mut ctx = QueuedTransport::at(self.sched.now().as_micros());
        let r = self.endpoints[node.0 as usize].lookup(&mut ctx, key);
        self.flush(node, ctx);
        r
    }

    /// Starts a graceful drain at `node`.
    pub fn begin_drain(&mut self, node: NodeId) {
        self.endpoints[node.0 as usize].begin_drain();
    }

    /// Drains accumulated completions at `node`.
    pub fn take_completions(&mut self, node: NodeId) -> Vec<Completion> {
        self.endpoints[node.0 as usize].take_completions()
    }

    /// Runs until the event queue is empty (all in-flight messages,
    /// retries, and deadlines resolved).
    pub fn run_idle(&mut self) {
        while let Some((_, ev)) = self.sched.pop() {
            self.dispatch(ev);
        }
    }

    /// Runs until `until`, then advances the clock to exactly `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((_, ev)) = self.sched.pop_until(until) {
            self.dispatch(ev);
        }
        if self.sched.now() < until {
            self.sched.schedule_at(until, LoopEvent::Idle);
            self.sched.pop();
        }
    }

    fn dispatch(&mut self, ev: LoopEvent) {
        match ev {
            LoopEvent::Deliver { to, frame } => match wire::decode_frame(&frame) {
                Ok((Datagram { from, msg }, _)) => {
                    self.stats.delivered += 1;
                    let mut ctx = QueuedTransport::at(self.sched.now().as_micros());
                    self.endpoints[to.0 as usize].on_message(&mut ctx, from, msg);
                    self.flush(to, ctx);
                }
                Err(_) => self.stats.codec_errors += 1,
            },
            LoopEvent::Timer { node, token } => {
                let mut ctx = QueuedTransport::at(self.sched.now().as_micros());
                self.endpoints[node.0 as usize].on_timer(&mut ctx, token);
                self.flush(node, ctx);
            }
            LoopEvent::Idle => {}
        }
    }

    /// Applies faults, frames, and schedules everything the engine
    /// queued during one callback.
    fn flush(&mut self, from: NodeId, ctx: QueuedTransport) {
        for (delay, token) in ctx.timers {
            self.sched.schedule_in(
                SimDuration::from_micros(delay),
                LoopEvent::Timer { node: from, token },
            );
        }
        for (to, msg) in ctx.sent {
            if self.faults.drop_prob > 0.0 && self.fault_rng.gen_bool(self.faults.drop_prob) {
                self.stats.dropped += 1;
                continue;
            }
            let mut delay = self.link_delay;
            if self.faults.delay_prob > 0.0 && self.fault_rng.gen_bool(self.faults.delay_prob) {
                let extra = self
                    .fault_rng
                    .gen_range(1..=self.faults.max_extra_delay.as_micros().max(1));
                delay += SimDuration::from_micros(extra);
                self.stats.delayed += 1;
            }
            let frame = wire::encode_frame(&Datagram { from, msg });
            self.sched
                .schedule_in(delay, LoopEvent::Deliver { to, frame });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize, faults: LinkFaults) -> LoopbackConfig {
        LoopbackConfig {
            nodes,
            seed: 7,
            endpoint: EndpointConfig::new(3, 3),
            link_delay: SimDuration::from_micros(200),
            faults,
        }
    }

    #[test]
    fn advertise_then_lookup_hits_on_clean_links() {
        let mut net = LoopbackNet::new(cfg(10, LinkFaults::none()));
        net.advertise(NodeId(0), 42, 4242).expect("accepted");
        net.run_idle();
        let adv = net.take_completions(NodeId(0));
        assert_eq!(adv.len(), 1);
        assert!(adv[0].ok);

        // qa=3, ql=3, n=10: not certain intersection, so probe from a
        // node and accept either outcome — but with qa+ql=6 and the
        // paper's birthday bound the hit probability is high; assert
        // the protocol terminates and stats add up instead.
        net.lookup(NodeId(5), 42);
        net.run_idle();
        let got = net.take_completions(NodeId(5));
        assert_eq!(got.len(), 1);
        let s = net.stats();
        assert_eq!(s.dropped + s.delayed, 0);
        assert_eq!(s.codec_errors, 0);
        assert!(s.delivered > 0);
    }

    #[test]
    fn seeded_drops_are_recovered_by_retries() {
        let faults = LinkFaults {
            drop_prob: 0.3,
            delay_prob: 0.2,
            max_extra_delay: SimDuration::from_millis(20),
        };
        // qa = ql = 7 of 7 peers: deterministic intersection, so only
        // loss (not sampling) can cause a miss — retries must recover.
        let mut e = EndpointConfig::new(7, 7);
        e.retry.max_attempts = 10;
        let mut net7 = LoopbackNet::new(LoopbackConfig {
            nodes: 8,
            seed: 11,
            endpoint: e,
            link_delay: SimDuration::from_micros(200),
            faults,
        });
        net7.advertise(NodeId(0), 1, 100).expect("accepted");
        net7.run_idle();
        assert!(
            net7.take_completions(NodeId(0))[0].ok,
            "advertise retried through drops"
        );
        net7.lookup(NodeId(3), 1).expect("accepted");
        net7.run_idle();
        let got = net7.take_completions(NodeId(3));
        assert_eq!(got[0].value, Some(100), "lookup retried through drops");
        assert!(net7.stats().dropped > 0, "faults actually fired");
    }

    /// The deadline is re-checked when the backoff expires (the
    /// stack's rule): an operation judged retryable just before its
    /// deadline is closed at the fire, not re-issued once more.
    #[test]
    fn backoff_expiring_after_the_deadline_fails_without_another_issue() {
        let mut c = cfg(
            8,
            LinkFaults {
                drop_prob: 1.0,
                ..LinkFaults::none()
            },
        );
        // Judged at 100 ms (before the 120 ms deadline, attempts left),
        // backing off 50..=100 ms: the fire lands at 150 ms or later.
        c.endpoint.retry = crate::service::RetryPolicy {
            max_attempts: 3,
            attempt_timeout: SimDuration::from_millis(100),
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_millis(100),
            op_deadline: SimDuration::from_millis(120),
            ..c.endpoint.retry
        };
        let mut net = LoopbackNet::new(c);
        net.lookup(NodeId(0), 1).expect("accepted");
        net.advertise(NodeId(1), 2, 22).expect("accepted");
        net.run_idle();
        for node in [NodeId(0), NodeId(1)] {
            let done = net.take_completions(node);
            assert_eq!(done.len(), 1);
            assert!(!done[0].ok);
            assert!((150_000..=200_000).contains(&done[0].latency_micros));
            assert_eq!(net.endpoint(node).counters().op_retries, 0);
        }
        assert_eq!(
            net.stats().dropped,
            3 + 3,
            "only the first |Qa| and |Ql| sends"
        );
    }

    #[test]
    fn same_seed_same_execution() {
        let run = || {
            let mut net = LoopbackNet::new(cfg(
                10,
                LinkFaults {
                    drop_prob: 0.2,
                    delay_prob: 0.3,
                    max_extra_delay: SimDuration::from_millis(5),
                },
            ));
            for k in 0..10 {
                net.advertise(NodeId(k % 10), u64::from(k), u64::from(k) * 7);
            }
            net.run_idle();
            for k in 0..10 {
                net.lookup(NodeId((k + 3) % 10), u64::from(k));
            }
            net.run_idle();
            let outcomes: Vec<_> = (0..10)
                .flat_map(|n| net.take_completions(NodeId(n)))
                .map(|c| (c.op, c.kind, c.key, c.ok, c.value, c.latency_micros))
                .collect();
            (outcomes, net.stats().delivered, net.stats().dropped)
        };
        assert_eq!(run(), run());
    }
}
