//! Service-level configuration, per-operation records and counters.

use crate::op::OpenOp;
use crate::spec::BiquorumSpec;
use crate::store::{Key, Value};
use pqs_net::NodeId;
use pqs_sim::{SimDuration, SimTime};
use rand::Rng;

/// How RANDOM / RANDOM-OPT lookup probes are issued (§8.2: parallel
/// probing forgoes early halting; serial probing halves the expected
/// accessed nodes at the cost of latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// Probe quorum members one at a time, stopping on the first hit.
    Serial,
    /// Probe all quorum members at once.
    Parallel,
}

/// Operation-level retry policy: failed or timed-out quorum accesses are
/// re-issued with a fresh access set, bounded attempts, and jittered
/// exponential backoff, under a per-operation deadline.
///
/// This is a robustness layer *above* the paper's per-message maintenance
/// machinery (RW salvation, reply repair, probe substitution — §6.2):
/// those keep a single access alive through individual link losses, while
/// the retry layer re-runs the whole access when it still comes up empty
/// (e.g. under frame-drop faults or heavy churn).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total issue attempts per operation, including the first (≥ 1).
    pub max_attempts: u32,
    /// How long after each issue the operation is judged failed if it has
    /// not succeeded yet.
    pub attempt_timeout: SimDuration,
    /// Backoff before the first re-issue; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Upper bound on the (pre-jitter) backoff.
    pub max_backoff: SimDuration,
    /// Hard per-operation deadline, measured from issue time. Once it
    /// passes, the operation completes with `deadline_expired` set and no
    /// further attempts are made.
    pub op_deadline: SimDuration,
    /// Re-size the lookup quorum on retry from the §6.3 population
    /// estimate so that `|Qa_eff|·|Qℓ| ≥ n̂·ln(1/ε)` (Corollary 5.3) still
    /// holds under churn; when even the whole live population cannot
    /// reach the bound, the access is shrunk to what exists and flagged
    /// `degraded` (shrink-or-warn).
    pub adapt_quorum: bool,
    /// Target miss probability ε for the sizing rule above.
    pub epsilon: f64,
}

impl RetryPolicy {
    /// A sensible default: 6 attempts, 5 s attempt timeout, 0.5 s → 8 s
    /// backoff, 60 s deadline, quorum adaptation at ε = 0.1 (the paper's
    /// working point).
    pub fn default_policy() -> Self {
        RetryPolicy {
            max_attempts: 6,
            attempt_timeout: SimDuration::from_secs(5),
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_secs(8),
            op_deadline: SimDuration::from_secs(60),
            adapt_quorum: true,
            epsilon: 0.1,
        }
    }

    /// The pre-jitter backoff before re-issue number `retry` (1-based):
    /// `base·2^(retry−1)`, capped at [`RetryPolicy::max_backoff`].
    pub fn backoff_before(&self, retry: u32) -> SimDuration {
        let mut b = self.base_backoff;
        for _ in 1..retry {
            if b.as_micros().saturating_mul(2) >= self.max_backoff.as_micros() {
                return self.max_backoff;
            }
            b = SimDuration::from_micros(b.as_micros() * 2);
        }
        b.min(self.max_backoff)
    }

    /// The backoff actually waited before re-issue number `retry`:
    /// uniform in `[b/2, b]` of [`RetryPolicy::backoff_before`] (one
    /// draw), so repeated failures across nodes desynchronise instead
    /// of thundering.
    pub fn jittered_backoff(&self, retry: u32, rng: &mut impl Rng) -> SimDuration {
        let b = self.backoff_before(retry).as_micros().max(2);
        SimDuration::from_micros(rng.gen_range(b / 2..=b))
    }
}

/// Whether lookup replies are vote-verified (Malkhi–Reiter–Wool
/// masking) or trusted as in the paper's honest model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzMode {
    /// The paper's model: every reply is honest, first reply wins.
    Trusting,
    /// Malkhi–Reiter–Wool masking: a lookup value is accepted only when
    /// at least `b + 1` distinct responders concur on it.
    Masking,
}

/// The Byzantine read policy: the assumed adversary budget `b` and
/// whether reads are vote-verified against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzPolicy {
    /// Upper bound on the number of Byzantine nodes the reader must
    /// mask. Ignored in [`ByzMode::Trusting`].
    pub b: u32,
    /// Whether reads are vote-verified.
    pub mode: ByzMode,
}

impl ByzPolicy {
    /// The paper's honest model (no vote verification, zero overhead).
    pub fn trusting() -> Self {
        ByzPolicy {
            b: 0,
            mode: ByzMode::Trusting,
        }
    }

    /// Masking reads against up to `b` Byzantine nodes: accept a value
    /// only on `b + 1` concurring votes.
    pub fn masking(b: u32) -> Self {
        ByzPolicy {
            b,
            mode: ByzMode::Masking,
        }
    }

    /// The vote threshold a value must reach to be accepted.
    pub fn threshold(&self) -> usize {
        self.b as usize + 1
    }
}

/// Configuration of the quorum-backed location service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// The biquorum: strategies and sizes for both sides.
    pub spec: BiquorumSpec,
    /// Probe fan-out for routed lookups.
    pub lookup_fanout: Fanout,
    /// Walks stop at the first hit (§7.1; requires the relaxed
    /// intersection semantics of §2.5).
    pub early_halting: bool,
    /// Skip ahead on the reverse reply path when a later node is already
    /// a neighbour (§7.2).
    pub reply_path_reduction: bool,
    /// Repair a broken reverse-path hop (§6.2): TTL-3 scoped routing to
    /// each subsequent reverse-path node, then an unrestricted route to
    /// the originator as the last resort. Off drops the reply.
    pub reply_repair: bool,
    /// Re-send a walk step to another neighbour when the MAC reports a
    /// failure (RW salvation, §6.2).
    pub rw_salvation: bool,
    /// Cache passing advertisements/replies as bystander entries (§7.1).
    pub caching: bool,
    /// Nodes overhearing a lookup walk answer from their own store
    /// (promiscuous optimisation, §7.2 — "left for future work" in the
    /// paper).
    pub promiscuous_replies: bool,
    /// Spacing between the routed probes of one *parallel* lookup
    /// access. Zero (the paper default) keeps the single burst; masking
    /// reads with inflated |Qℓ| set it to survive their own fan-out.
    pub probe_spacing: SimDuration,
    /// Membership view size as a multiple of √n (paper: 2). Raise it when
    /// the advertise quorum exceeds 2√n (e.g. the Fig. 14(e) proactive
    /// 3√n experiment).
    pub membership_view_factor: f64,
    /// Expanding-ring flooding (§4.4): lookup floods start at TTL 1 and
    /// re-flood with TTL+1 after a 500 ms stage timeout until the reply
    /// arrives or the spec's TTL is reached. Robust to unknown densities
    /// at an increased message cost.
    pub expanding_ring: bool,
    /// Operation-level retry/deadline/backoff policy. `None` (the paper's
    /// setup — it has no such layer) issues every access exactly once.
    pub retry: Option<RetryPolicy>,
    /// Capacity of the stack's structured sim-time trace ring
    /// (`0` = tracing disabled, the default; the hot path then pays a
    /// single branch per would-be event).
    pub trace_capacity: usize,
    /// Sample-size factor for the §6.3 collision population estimator:
    /// `k = ⌈factor·√(alive)⌉ + 4` nodes are sampled per estimate. The
    /// paper-default `2.0` matches the historic fixed formula; values
    /// `≤ 0.0` disable the estimator deterministically (every estimate
    /// returns `None` and counts as unavailable — used by tests and by
    /// deployments that cannot afford sampling traffic).
    pub estimator_sample_factor: f64,
    /// The Byzantine read policy (paper default: trusting — no vote
    /// verification, no overhead).
    pub byz: ByzPolicy,
}

impl ServiceConfig {
    /// The paper's default setup for `n` nodes: RANDOM advertise with
    /// `|Qa| = 2√n`, UNIQUE-PATH lookup with `|Qℓ| = 1.15√n`, early
    /// halting, path reduction, salvation and local repair on.
    pub fn paper_default(n: usize) -> Self {
        use crate::spec::{AccessStrategy, QuorumSpec};
        ServiceConfig {
            spec: BiquorumSpec::new(
                QuorumSpec::new(AccessStrategy::Random, crate::spec::paper_advertise_size(n)),
                QuorumSpec::new(
                    AccessStrategy::UniquePath,
                    crate::spec::paper_lookup_size(n),
                ),
            ),
            lookup_fanout: Fanout::Serial,
            early_halting: true,
            reply_path_reduction: true,
            reply_repair: true,
            rw_salvation: true,
            caching: false,
            promiscuous_replies: false,
            probe_spacing: SimDuration::ZERO,
            membership_view_factor: 2.0,
            expanding_ring: false,
            retry: None,
            trace_capacity: 0,
            estimator_sample_factor: 2.0,
            byz: ByzPolicy::trusting(),
        }
    }
}

/// What an operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An advertise (publish) access.
    Advertise,
    /// A lookup access.
    Lookup,
}

/// The life of one operation, as recorded by the service: the
/// operation's [`OpenOp`] (kind, key, issue time, attempts, placements,
/// votes) plus what only the simulator observes of it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The issuing node.
    pub origin: NodeId,
    /// Lookup only: some accessed node held the key — the quorums
    /// intersected (Fig. 13(b)'s "intersection probability", which
    /// ignores reply losses).
    pub intersected: bool,
    /// When the reply arrived (lookups) or the access completed.
    pub completed: Option<SimTime>,
    /// The value returned to the originator.
    pub value: Option<Value>,
    /// At least one reply for this operation was dropped en route.
    pub reply_dropped: bool,
    /// Every value that reached the originator (parallel probes and
    /// floods produce several). Quorum-based register implementations
    /// take the maximum-version element (§10).
    pub values_seen: Vec<Value>,
    /// The retry budget ran out before the operation succeeded (distinct
    /// from a plain single-shot miss and from deadline expiry).
    pub retries_exhausted: bool,
    /// The per-operation deadline passed before the operation succeeded.
    pub deadline_expired: bool,
    /// A retry had to shrink the access below the Corollary 5.3 sizing
    /// rule because the estimated live population could not support it.
    pub degraded: bool,
    /// The engine-side state: retry clock, placements, votes. Never
    /// closed — frames still in flight look their operation up, and late
    /// stores and votes land, after the retry layer has given its
    /// verdict.
    pub(crate) open: OpenOp,
}

impl OpRecord {
    /// A fresh record of `open`, issued at `origin`.
    pub(crate) fn new(origin: NodeId, open: OpenOp) -> Self {
        OpRecord {
            origin,
            intersected: false,
            completed: None,
            value: None,
            reply_dropped: false,
            values_seen: Vec::new(),
            retries_exhausted: false,
            deadline_expired: false,
            degraded: false,
            open,
        }
    }

    /// Advertise or lookup.
    pub fn kind(&self) -> OpKind {
        self.open.kind
    }

    /// The key.
    pub fn key(&self) -> Key {
        self.open.key
    }

    /// When the operation was issued.
    pub fn started(&self) -> SimTime {
        self.open.started
    }

    /// Issue attempts so far (1 = first issue, no retries).
    pub fn attempts(&self) -> u32 {
        self.open.attempts()
    }

    /// Advertise only: number of nodes that stored the mapping.
    pub fn stores_placed(&self) -> u32 {
        self.open.placements()
    }

    /// Lookup only: the originator received the value (the paper's hit
    /// ratio).
    pub fn replied(&self) -> bool {
        self.open.answered()
    }
}

/// Message counters for the strategies' link-local traffic. Routed
/// traffic (RANDOM probes, stores, repair segments) is counted by the
/// router's [`pqs_routing::RoutingStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumCounters {
    /// Random-walk step transmissions (including salvage re-sends).
    pub walk_tx: u64,
    /// Walk-reply hop transmissions (one-hop part only).
    pub reply_tx: u64,
    /// Flood broadcast transmissions.
    pub flood_tx: u64,
    /// Flood-reply hop transmissions.
    pub flood_reply_tx: u64,
    /// Walk steps salvaged to another neighbour after a MAC failure.
    pub salvations: u64,
    /// Walks abandoned (no neighbour reachable).
    pub walks_dropped: u64,
    /// Reverse-path repairs attempted with scoped routing.
    pub local_repairs: u64,
    /// Last-resort global routing repairs.
    pub global_repairs: u64,
    /// Replies abandoned en route.
    pub replies_dropped: u64,
    /// Serial probes replaced after a routing failure (§6.2 adaptation).
    pub probe_substitutions: u64,
    /// Nodes covered by floods (first receptions, origins included) —
    /// the numerator of Fig. 5's coverage curves.
    pub flood_covered: u64,
    /// Operation re-issues by the retry layer (excludes first attempts).
    pub op_retries: u64,
    /// Operations that ran out of retry attempts without succeeding.
    pub retries_exhausted: u64,
    /// Operations whose per-op deadline expired before success.
    pub deadlines_expired: u64,
    /// Retries that had to shrink the access below the sizing rule
    /// (shrink-or-warn degradation).
    pub degraded_ops: u64,
    /// Retries that re-sized the lookup quorum from the population
    /// estimate (grow or shrink, §6.1/§6.3).
    pub quorum_adaptations: u64,
    /// Advertise accesses issued (first attempts and retries) — the
    /// numerator of the observed workload ratio τ.
    pub advertises_issued: u64,
    /// Lookup accesses issued (first attempts and retries) — the
    /// denominator of the observed workload ratio τ.
    pub lookups_issued: u64,
    /// Population estimates that came back empty (zero collisions in the
    /// §6.3 sample, or the estimator disabled): the caller held its last
    /// plan instead of acting on a fabricated n̂.
    pub estimator_unavailable: u64,
    /// Adaptive-controller evaluations (ticks).
    pub controller_ticks: u64,
    /// Controller ticks that applied a re-sized plan to the live stack.
    pub reconfigures: u64,
    /// Controller ticks held because no population estimate was available.
    pub controller_holds_no_estimate: u64,
    /// Controller ticks held inside the hysteresis dead-band.
    pub controller_holds_dead_band: u64,
    /// Controller ticks held by the minimum-dwell timer.
    pub controller_holds_dwell: u64,
    /// Controller ticks held because the live estimate produced planner
    /// input the planner rejected (degenerate τ, b ≥ n̂, …): the
    /// controller kept the last good plan instead of panicking.
    pub controller_holds_invalid: u64,
    /// Lookup replies whose value lost a masking vote (outvoted by the
    /// accepted value, or left unverified at completion) — the reader's
    /// view of suspected Byzantine replies.
    pub byz_suspected_replies: u64,
    /// Masking lookups that never reached `b + 1` concurring votes and
    /// fell back to the highest-voted value (a `Degraded` outcome).
    pub lookup_unverified: u64,
}

impl QuorumCounters {
    /// Sum of all link-local strategy transmissions.
    pub fn link_tx(&self) -> u64 {
        self.walk_tx + self.reply_tx + self.flood_tx + self.flood_reply_tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AccessStrategy;

    #[test]
    fn paper_default_shape() {
        let cfg = ServiceConfig::paper_default(800);
        assert_eq!(cfg.spec.advertise.strategy, AccessStrategy::Random);
        assert_eq!(cfg.spec.lookup.strategy, AccessStrategy::UniquePath);
        assert_eq!(cfg.spec.advertise.size, 57);
        assert_eq!(cfg.spec.lookup.size, 33);
        assert!(cfg.spec.has_mix_and_match_guarantee());
        assert!(cfg.early_halting && cfg.rw_salvation);
    }

    #[test]
    fn counters_sum() {
        let c = QuorumCounters {
            walk_tx: 1,
            reply_tx: 2,
            flood_tx: 3,
            flood_reply_tx: 4,
            ..QuorumCounters::default()
        };
        assert_eq!(c.link_tx(), 10);
    }

    #[test]
    fn op_record_initial_state() {
        let open = OpenOp::new(OpKind::Lookup, 5, None, SimTime::from_secs(1));
        let r = OpRecord::new(NodeId(3), open);
        assert_eq!(
            (r.kind(), r.key(), r.started()),
            (OpKind::Lookup, 5, SimTime::from_secs(1))
        );
        assert!(!r.intersected && !r.replied() && r.completed.is_none());
        assert_eq!(r.stores_placed(), 0);
        assert_eq!(r.attempts(), 1);
        assert!(!r.retries_exhausted && !r.deadline_expired && !r.degraded);
    }

    #[test]
    fn backoff_doubles_and_never_exceeds_cap() {
        let policy = RetryPolicy {
            base_backoff: SimDuration::from_millis(500),
            max_backoff: SimDuration::from_secs(8),
            ..RetryPolicy::default_policy()
        };
        assert_eq!(policy.backoff_before(1), SimDuration::from_millis(500));
        assert_eq!(policy.backoff_before(2), SimDuration::from_secs(1));
        assert_eq!(policy.backoff_before(3), SimDuration::from_secs(2));
        assert_eq!(policy.backoff_before(5), SimDuration::from_secs(8));
        // Far past the doubling range the cap still holds (no overflow).
        for retry in 1..200 {
            assert!(policy.backoff_before(retry) <= policy.max_backoff);
        }
    }

    #[test]
    fn backoff_with_base_above_cap_clamps() {
        let policy = RetryPolicy {
            base_backoff: SimDuration::from_secs(10),
            max_backoff: SimDuration::from_secs(4),
            ..RetryPolicy::default_policy()
        };
        assert_eq!(policy.backoff_before(1), SimDuration::from_secs(4));
        assert_eq!(policy.backoff_before(7), SimDuration::from_secs(4));
    }
}
