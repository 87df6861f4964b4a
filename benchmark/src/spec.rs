//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is [`manifest`]'s output, byte for byte (a unit test
//! holds the two equal), and [`crate::report`] refuses to emit a name
//! that is not declared here.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// One end-to-end metric. `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// One per-layer metric (no bound: these explain, they do not gate).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "sim-substrate-100k",
        why: "100k-node substrate (wheel + PHY grid + MAC + heartbeats, no routing or quorum engine) at a 120 MB footprint: where a cache or layout fix must show",
    },
    WorkloadSpec {
        name: "sim-substrate-1k",
        why: "the same substrate at 1k nodes, cache-resident: a footprint fix must not move it, a per-event instruction cut moves both",
    },
    WorkloadSpec {
        name: "sim-quorum-routed",
        why: "RANDOM x RANDOM accesses at n = 200 under walking mobility: every probe is AODV-routed, so pqs-routing and the control traffic it causes dominate",
    },
    WorkloadSpec {
        name: "sim-quorum-walk",
        why: "RANDOM x UNIQUE-PATH at n = 400, lookup-heavy: QuorumStack's walk, salvation and reply-path code does the per-lookup work and routing almost none",
    },
    WorkloadSpec {
        name: "loopback-engine",
        why: "64 QuorumEndpoints over LoopbackNet, 80/20 get/put: engine + wire codec + scheduler with no sockets or threads, isolating protocol cost from the poll loop",
    },
    WorkloadSpec {
        name: "serve-closed-readheavy",
        why: "5-node UDP cluster, 2 closed-loop clients x 64 outstanding, 80/20 get/put: throughput with callers that wait, where a poll-loop or flush fix shows as ops/s",
    },
    WorkloadSpec {
        name: "serve-open-writeheavy",
        why: "same cluster, open loop at a fixed 4000 ops/s, 20/80 get/put, latency from the due time: far below saturation, so latency is waiting, not work",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, grouped by crate. A metric is 0 on a workload that
/// does not execute its layer; the `probe` groups are workload-independent
/// micro-measurements repeated in every traced run.
pub const PER_LAYER: &[PerLayer] = &[
    // --- the traced run itself
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Lower),
    // --- pqs-sim (probes)
    layer("sim.queue.hold_1k_ns", "ns", Lower),
    layer("sim.queue.hold_100k_ns", "ns", Lower),
    layer("sim.queue.hold_1m_ns", "ns", Lower),
    layer("sim.queue.cancel_ns", "ns", Lower),
    layer("sim.queue.clone_100k_ms", "ms", Lower),
    // --- pqs-net (sim-substrate-*: the workload's own network)
    layer("net.build_ms", "ms", Lower),
    layer("net.clone_ms", "ms", Lower),
    layer("net.event_ns", "ns", Lower),
    layer("net.rss_bytes_per_node", "B", Lower),
    layer("net.events_per_node", "count", Lower),
    layer("net.phy_work_per_tx", "count", Lower),
    layer("net.mac_backoff_draws_per_tx", "count", Lower),
    layer("net.mac_channel_defers_per_tx", "count", Lower),
    layer("net.mac_retries_per_tx", "count", Lower),
    layer("net.phy_rx_aborted_per_tx", "count", Lower),
    // --- pqs-routing (sim-quorum-*)
    layer("routing.control_tx_per_op", "count", Lower),
    layer("routing.data_tx_per_op", "count", Lower),
    // --- pqs-core: scenario runner and QuorumStack (sim-quorum-*)
    layer("core.runner.wall_s", "s", Lower),
    layer("core.runner.floor_s", "s", Lower),
    layer("core.runner.above_floor_s", "s", Lower),
    layer("core.stack.hits", "count", Higher),
    layer("core.stack.hit_ratio", "share", Higher),
    layer("core.stack.link_tx_per_lookup", "count", Lower),
    layer("core.stack.salvations_per_lookup", "count", Lower),
    layer("core.stack.repairs_per_lookup", "count", Lower),
    layer("core.stack.replies_dropped_per_lookup", "count", Lower),
    layer("core.stack.lookup_p50_sim_ms", "ms", Lower),
    layer("core.stack.advertise_p50_sim_ms", "ms", Lower),
    // --- pqs-core: wire codec (probe) and QuorumEndpoint (loopback-engine)
    layer("core.wire.encode_ns", "ns", Lower),
    layer("core.wire.decode_ns", "ns", Lower),
    layer("core.wire.frame_bytes", "B", Lower),
    layer("core.endpoint.op_ns", "ns", Lower),
    layer("core.endpoint.issue_ns", "ns", Lower),
    layer("core.loopback.delivery_ns", "ns", Lower),
    layer("core.endpoint.msgs_per_op", "count", Lower),
    layer("core.endpoint.op_ns_n5", "ns", Lower),
    // --- pqs-plan, pqs-graph (probes; guards only)
    layer("plan.planner_us", "us", Lower),
    layer("plan.optimizer_us", "us", Lower),
    layer("graph.rgg_build_10k_ms", "ms", Lower),
    layer("graph.walk_step_ns", "ns", Lower),
    // --- pqs-serve (serve-*)
    layer("serve.spawn_ms", "ms", Lower),
    layer("serve.drain_ms", "ms", Lower),
    layer("serve.read_timeout_us", "us", Lower),
    layer("serve.ping_rtt_p50_us", "us", Lower),
    layer("serve.idle_put_rtt_p50_us", "us", Lower),
    layer("serve.idle_get_rtt_p50_us", "us", Lower),
    layer("serve.client_put_p50_us", "us", Lower),
    layer("serve.client_get_p50_us", "us", Lower),
    layer("serve.client_put_p99_us", "us", Lower),
    layer("serve.client_get_p99_us", "us", Lower),
    layer("serve.engine_put_p50_us", "us", Lower),
    layer("serve.engine_get_p50_us", "us", Lower),
    layer("serve.flush_wait_put_p50_us", "us", Lower),
    layer("serve.flush_wait_get_p50_us", "us", Lower),
    layer("serve.msgs_per_op", "count", Lower),
    layer("serve.op_retries_per_kop", "count", Lower),
    layer("serve.send_errors", "count", Lower),
    layer("serve.malformed_datagrams", "count", Lower),
    layer("serve.cpu_ms_per_kop", "ms", Lower),
    // --- the load generator's own health (serve-*)
    layer("loadgen.late_p99_us", "us", Lower),
    layer("loadgen.retransmits", "count", Lower),
    layer("loadgen.inflight_mean", "count", Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contract's rule for workload and metric names: starts with a
/// letter or a digit; at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The contract's rule for units: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Checks the catalogue against every limit the contract states. Returns
/// the first violation.
pub fn validate_catalogue() -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err(format!("{} workloads (want 2..=8)", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        return Err(format!(
            "{} end-to-end metrics (want 1..=16)",
            END_TO_END.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        return Err(format!(
            "{} per-layer metrics (want 1..=128)",
            PER_LAYER.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("invalid name {name:?}"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    for w in WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("why of {} is not one line of <= 200 chars", w.name));
        }
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        if !valid_unit(unit) {
            return Err(format!("invalid unit {unit:?}"));
        }
    }
    for m in END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("bound of {} outside (0, 0.25]", m.name));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        return Err("setup_s (s, lower) missing".into());
    }
    Ok(())
}

/// `BENCHMARK.json`, generated from the catalogue above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {},", crate::RUN_SECONDS);
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_sim::json::JsonValue;

    #[test]
    fn catalogue_meets_the_contract_limits() {
        validate_catalogue().unwrap();
    }

    #[test]
    fn name_validator_accepts_and_rejects() {
        for good in [
            "a",
            "sim-substrate-100k",
            "core.wire.encode_ns",
            "9lives",
            "A_b.c-d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for good in ["ms", "1/s", "%", "B", "us"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "µs", "12345678901234567"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    /// `BENCHMARK.json` is the generated manifest, and the runs the
    /// driver makes of it fit the driver's total allowance.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text, manifest());
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(
            runs * (crate::RUN_SECONDS + crate::RUN_OVERHEAD_BUDGET_S) <= 3420,
            "{runs} runs do not fit the driver's 3420 s"
        );
    }

    #[test]
    fn manifest_is_valid_json_within_the_size_limit() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let doc = JsonValue::parse(&text).unwrap();
        let command = doc.get("command").unwrap().as_array().unwrap();
        assert!(command.len() <= 32);
        for part in command {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
    }
}
