//! Observability: typed trace events, per-node load summaries, and JSON
//! views of the run-level metric types.
//!
//! Everything here is *derived* state — recording a trace event or
//! rendering a JSON export never draws randomness and never schedules
//! events, so enabling observability cannot perturb a simulation. Two
//! runs with the same seed render byte-identical JSON (the determinism
//! test in `tests/metrics_determinism.rs` enforces this in CI).

use crate::messages::OpId;
use crate::runner::{Aggregate, PhaseStats, RunMetrics};
use crate::service::{OpKind, QuorumCounters};
use pqs_net::NodeId;
use pqs_sim::json::{JsonValue, ToJson};
use pqs_sim::{SimDuration, SimTime};

/// One structured event in the quorum stack's sim-time trace.
///
/// Events are plain enum values: recording one costs a move into the
/// ring buffer, with no formatting until (and unless) the trace is
/// dumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An advertise or lookup access was issued.
    OpIssued {
        /// Operation id.
        op: OpId,
        /// Advertise or lookup.
        kind: OpKind,
        /// Issuing node.
        origin: NodeId,
    },
    /// The retry layer re-issued an operation with a fresh access set.
    OpRetried {
        /// Operation id.
        op: OpId,
        /// Attempt number after the re-issue (2 = first retry).
        attempt: u32,
    },
    /// An operation succeeded: a lookup reply reached the originator, or
    /// an advertise placed its full quorum of stores.
    OpCompleted {
        /// Operation id.
        op: OpId,
        /// Advertise or lookup.
        kind: OpKind,
        /// Time from issue to completion.
        latency: SimDuration,
    },
    /// The retry layer gave up on an operation.
    OpFailed {
        /// Operation id.
        op: OpId,
        /// `true` when the per-operation deadline expired, `false` when
        /// the attempt budget ran out.
        deadline: bool,
    },
    /// Quorum adaptation re-sized the lookup quorum (§6.1/§6.3).
    QuorumAdapted {
        /// The new lookup quorum size.
        size: u32,
    },
    /// The adaptive controller applied a new plan to the live stack.
    Reconfigured {
        /// New advertise quorum size.
        qa: u32,
        /// New lookup quorum size.
        ql: u32,
    },
    /// The adaptive controller evaluated but kept the current plan.
    PlanHeld {
        /// Why the plan was held.
        reason: HoldReason,
    },
    /// A masking lookup accepted a value on `votes ≥ b + 1` concurring
    /// replies.
    LookupVerified {
        /// Operation id.
        op: OpId,
        /// Number of concurring votes the accepted value had.
        votes: u32,
    },
    /// A masking lookup never reached the vote threshold and fell back
    /// to the highest-voted value (a `Degraded` outcome).
    LookupUnverified {
        /// Operation id.
        op: OpId,
    },
}

/// Why an adaptive-controller tick kept the current plan instead of
/// reconfiguring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldReason {
    /// No population estimate was available (zero collisions in the §6.3
    /// sample, or the estimator disabled) — acting on a fabricated n̂
    /// would be worse than holding.
    NoEstimate,
    /// The planned sizes were within the hysteresis dead-band of the
    /// current ones.
    DeadBand,
    /// The minimum-dwell timer since the last reconfiguration had not
    /// expired.
    MinDwell,
    /// The live estimate produced planner input the planner rejected
    /// (degenerate τ, b ≥ n̂, non-finite costs) — the last good plan is
    /// kept instead of aborting the process.
    InvalidInput,
}

impl HoldReason {
    /// Stable lowercase label used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            HoldReason::NoEstimate => "no_estimate",
            HoldReason::DeadBand => "dead_band",
            HoldReason::MinDwell => "min_dwell",
            HoldReason::InvalidInput => "invalid_input",
        }
    }
}

fn kind_str(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Advertise => "advertise",
        OpKind::Lookup => "lookup",
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> JsonValue {
        match *self {
            TraceEvent::OpIssued { op, kind, origin } => JsonValue::object([
                ("event", JsonValue::from("op_issued")),
                ("op", JsonValue::from(op)),
                ("kind", JsonValue::from(kind_str(kind))),
                ("origin", JsonValue::from(origin.0)),
            ]),
            TraceEvent::OpRetried { op, attempt } => JsonValue::object([
                ("event", JsonValue::from("op_retried")),
                ("op", JsonValue::from(op)),
                ("attempt", JsonValue::from(attempt)),
            ]),
            TraceEvent::OpCompleted { op, kind, latency } => JsonValue::object([
                ("event", JsonValue::from("op_completed")),
                ("op", JsonValue::from(op)),
                ("kind", JsonValue::from(kind_str(kind))),
                ("latency_us", JsonValue::from(latency.as_micros())),
            ]),
            TraceEvent::OpFailed { op, deadline } => JsonValue::object([
                ("event", JsonValue::from("op_failed")),
                ("op", JsonValue::from(op)),
                ("deadline", JsonValue::from(deadline)),
            ]),
            TraceEvent::QuorumAdapted { size } => JsonValue::object([
                ("event", JsonValue::from("quorum_adapted")),
                ("size", JsonValue::from(size)),
            ]),
            TraceEvent::Reconfigured { qa, ql } => JsonValue::object([
                ("event", JsonValue::from("reconfigured")),
                ("qa", JsonValue::from(qa)),
                ("ql", JsonValue::from(ql)),
            ]),
            TraceEvent::PlanHeld { reason } => JsonValue::object([
                ("event", JsonValue::from("plan_held")),
                ("reason", JsonValue::from(reason.as_str())),
            ]),
            TraceEvent::LookupVerified { op, votes } => JsonValue::object([
                ("event", JsonValue::from("lookup_verified")),
                ("op", JsonValue::from(op)),
                ("votes", JsonValue::from(votes)),
            ]),
            TraceEvent::LookupUnverified { op } => JsonValue::object([
                ("event", JsonValue::from("lookup_unverified")),
                ("op", JsonValue::from(op)),
            ]),
        }
    }
}

/// Renders a dumped trace (`(time, event)` pairs) as a JSON array.
pub fn trace_to_json(entries: &[(SimTime, TraceEvent)]) -> JsonValue {
    JsonValue::array(entries.iter().map(|(at, ev)| {
        let mut obj = ev.to_json();
        obj.insert("t_us", JsonValue::from(at.as_micros()));
        obj
    }))
}

/// Distribution summary of the per-node message load (frames handled by
/// each node's upper layer) — the GeoQuorum-style balance view: quorum
/// strategies that hammer a few central nodes show a high
/// [`LoadSummary::imbalance`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadSummary {
    /// Number of nodes sampled.
    pub nodes: usize,
    /// Total frames handled across all nodes.
    pub total: u64,
    /// Heaviest single node.
    pub max: u64,
    /// Mean frames per node.
    pub mean: f64,
    /// `max / mean` (0 when the network is idle) — 1.0 is perfectly
    /// balanced.
    pub imbalance: f64,
    /// 99th-percentile per-node load (nearest-rank) — the balance tail
    /// the weighted optimizer targets; `max` alone is too noisy for a
    /// single outlier hub.
    pub p99: u64,
}

impl LoadSummary {
    /// Summarises a per-node load vector.
    pub fn from_loads(loads: &[u64]) -> Self {
        let nodes = loads.len();
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        let mean = if nodes == 0 {
            0.0
        } else {
            total as f64 / nodes as f64
        };
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };
        let p99 = if nodes == 0 {
            0
        } else {
            let mut sorted = loads.to_vec();
            sorted.sort_unstable();
            let rank = ((0.99 * nodes as f64).ceil() as usize).clamp(1, nodes);
            sorted[rank - 1]
        };
        LoadSummary {
            nodes,
            total,
            max,
            mean,
            imbalance,
            p99,
        }
    }
}

impl ToJson for LoadSummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("nodes", JsonValue::from(self.nodes)),
            ("total", JsonValue::from(self.total)),
            ("max", JsonValue::from(self.max)),
            ("mean", JsonValue::from(self.mean)),
            ("imbalance", JsonValue::from(self.imbalance)),
            ("p99", JsonValue::from(self.p99)),
        ])
    }
}

impl ToJson for QuorumCounters {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("walk_tx", JsonValue::from(self.walk_tx)),
            ("reply_tx", JsonValue::from(self.reply_tx)),
            ("flood_tx", JsonValue::from(self.flood_tx)),
            ("flood_reply_tx", JsonValue::from(self.flood_reply_tx)),
            ("salvations", JsonValue::from(self.salvations)),
            ("walks_dropped", JsonValue::from(self.walks_dropped)),
            ("local_repairs", JsonValue::from(self.local_repairs)),
            ("global_repairs", JsonValue::from(self.global_repairs)),
            ("replies_dropped", JsonValue::from(self.replies_dropped)),
            (
                "probe_substitutions",
                JsonValue::from(self.probe_substitutions),
            ),
            ("flood_covered", JsonValue::from(self.flood_covered)),
            ("op_retries", JsonValue::from(self.op_retries)),
            ("retries_exhausted", JsonValue::from(self.retries_exhausted)),
            ("deadlines_expired", JsonValue::from(self.deadlines_expired)),
            ("degraded_ops", JsonValue::from(self.degraded_ops)),
            (
                "quorum_adaptations",
                JsonValue::from(self.quorum_adaptations),
            ),
            ("advertises_issued", JsonValue::from(self.advertises_issued)),
            ("lookups_issued", JsonValue::from(self.lookups_issued)),
            (
                "estimator_unavailable",
                JsonValue::from(self.estimator_unavailable),
            ),
            ("controller_ticks", JsonValue::from(self.controller_ticks)),
            ("reconfigures", JsonValue::from(self.reconfigures)),
            (
                "controller_holds_no_estimate",
                JsonValue::from(self.controller_holds_no_estimate),
            ),
            (
                "controller_holds_dead_band",
                JsonValue::from(self.controller_holds_dead_band),
            ),
            (
                "controller_holds_dwell",
                JsonValue::from(self.controller_holds_dwell),
            ),
            (
                "controller_holds_invalid",
                JsonValue::from(self.controller_holds_invalid),
            ),
            (
                "byz_suspected_replies",
                JsonValue::from(self.byz_suspected_replies),
            ),
            ("lookup_unverified", JsonValue::from(self.lookup_unverified)),
        ])
    }
}

impl ToJson for PhaseStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("data_tx", JsonValue::from(self.data_tx)),
            ("control_tx", JsonValue::from(self.control_tx)),
            ("link_tx", JsonValue::from(self.link_tx)),
            ("phy_tx", JsonValue::from(self.phy_tx)),
        ])
    }
}

impl ToJson for RunMetrics {
    fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object([
            ("seed", JsonValue::from(self.seed)),
            ("n", JsonValue::from(self.n)),
            ("advertises", JsonValue::from(self.advertises)),
            ("lookups", JsonValue::from(self.lookups)),
            ("hits", JsonValue::from(self.hits)),
            ("intersections", JsonValue::from(self.intersections)),
            ("reply_drops", JsonValue::from(self.reply_drops)),
            ("hit_ratio", JsonValue::from(self.hit_ratio())),
            (
                "intersection_ratio",
                JsonValue::from(self.intersection_ratio()),
            ),
            (
                "mean_hit_latency_s",
                JsonValue::from(self.mean_hit_latency_s),
            ),
            ("advertise_phase", self.advertise_phase.to_json()),
            ("lookup_phase", self.lookup_phase.to_json()),
            ("counters", self.counters.to_json()),
            ("net_stats", self.net_stats.to_json()),
            ("advertise_latency_us", self.advertise_latency.to_json()),
            ("lookup_latency_us", self.lookup_latency.to_json()),
            ("load", self.load.to_json()),
            ("total_load", self.total_load.to_json()),
            ("scheduler_clamped", JsonValue::from(self.scheduler_clamped)),
            ("wrong_reads", JsonValue::from(self.wrong_reads)),
            ("wrong_read_ratio", JsonValue::from(self.wrong_read_ratio())),
        ]);
        if !self.trace.is_empty() {
            obj.insert("trace", trace_to_json(&self.trace));
        }
        obj
    }
}

impl ToJson for Aggregate {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("runs", JsonValue::from(self.runs)),
            ("hit_ratio", JsonValue::from(self.hit_ratio)),
            (
                "intersection_ratio",
                JsonValue::from(self.intersection_ratio),
            ),
            (
                "msgs_per_advertise",
                JsonValue::from(self.msgs_per_advertise),
            ),
            (
                "routing_per_advertise",
                JsonValue::from(self.routing_per_advertise),
            ),
            ("msgs_per_lookup", JsonValue::from(self.msgs_per_lookup)),
            (
                "routing_per_lookup",
                JsonValue::from(self.routing_per_lookup),
            ),
            ("reply_drop_ratio", JsonValue::from(self.reply_drop_ratio)),
            (
                "mean_hit_latency_s",
                JsonValue::from(self.mean_hit_latency_s),
            ),
            ("hit_ratio_stddev", JsonValue::from(self.hit_ratio_stddev)),
            ("lookup_p50_s", JsonValue::from(self.lookup_p50_s)),
            ("lookup_p90_s", JsonValue::from(self.lookup_p90_s)),
            ("lookup_p99_s", JsonValue::from(self.lookup_p99_s)),
            ("advertise_p50_s", JsonValue::from(self.advertise_p50_s)),
            ("advertise_p90_s", JsonValue::from(self.advertise_p90_s)),
            ("advertise_p99_s", JsonValue::from(self.advertise_p99_s)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_summary_basic() {
        let s = LoadSummary::from_loads(&[0, 10, 20, 30]);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.total, 60);
        assert_eq!(s.max, 30);
        assert!((s.mean - 15.0).abs() < 1e-12);
        assert!((s.imbalance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn load_summary_idle_and_empty() {
        let idle = LoadSummary::from_loads(&[0, 0, 0]);
        assert_eq!(idle.imbalance, 0.0);
        let empty = LoadSummary::from_loads(&[]);
        assert_eq!(empty.nodes, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn trace_events_render_with_timestamps() {
        let entries = vec![
            (
                SimTime::from_secs(1),
                TraceEvent::OpIssued {
                    op: 7,
                    kind: OpKind::Lookup,
                    origin: NodeId(3),
                },
            ),
            (
                SimTime::from_secs(2),
                TraceEvent::OpCompleted {
                    op: 7,
                    kind: OpKind::Lookup,
                    latency: SimDuration::from_secs(1),
                },
            ),
        ];
        let rendered = trace_to_json(&entries).render();
        assert!(rendered.contains("\"op_issued\""));
        assert!(rendered.contains("\"latency_us\": 1000000"));
        assert!(rendered.contains("\"t_us\": 2000000"));
    }
}
