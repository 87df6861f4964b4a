//! Turns a workload's [`Outcome`] into named metrics and prints them:
//! a header, one line per metric with its unit, the checks, and as the
//! last line of standard output the one JSON object the driver reads.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{ops_rate, over_passes, Outcome};
use crate::{host, Args};
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Shown beside the value in the human-readable part only.
    pub remark: String,
}

/// The header every output carries, as a JSON object.
pub fn header_json(args: &Args, read_timeout_us: f64) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, {}, \"read_timeout_1ms_us\": {:.0}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        host::facts_json(),
        read_timeout_us
    )
}

/// The end-to-end metrics of an outcome, in catalogue order.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let mut setups = out.setups_s.clone();
    let setup_s = stats::median(&mut setups);

    // Time per operation. Where callers wait for single operations
    // (serve-*) the samples are every operation's latency over the whole
    // run. The simulator and the loopback engine are synchronous, so there
    // each pass is timed in steps and gives its steps' median and p95,
    // and the run reports of those what `over_passes` says.
    let (rate, rate_of) = ops_rate(&out.passes);
    let (p50, p50_remark, tail, tail_remark) = if out.op_latencies_us.is_empty() {
        let passes = out.passes.len();
        let steps = out.passes[0].steps;
        let (p50, of) = over_passes(&out.passes, |p| p.steps.p50_us, 0.25);
        let (tail, _) = over_passes(&out.passes, |p| p.steps.tail_us, 0.25);
        let remark = |p: f64| {
            if steps.count > 1 {
                let (count, p) = (steps.count, p * 100.0);
                format!("{of} of {passes} passes' p{p:.1} of {count} steps")
            } else {
                format!("{of} of {passes} passes")
            }
        };
        (p50, remark(0.5), tail, remark(steps.tail_p))
    } else {
        let mut latencies = out.op_latencies_us.clone();
        latencies.sort_unstable_by(f64::total_cmp);
        let samples = latencies.len();
        let (tail, p) = stats::tail(&latencies, 0.95);
        (
            stats::nearest_rank(&latencies, 0.5),
            format!("{samples} operations"),
            tail,
            format!("p{:.1} of {samples} operations", p * 100.0),
        )
    };

    let value = |name: &str| -> (f64, String) {
        match name {
            "setup_s" => (
                setup_s,
                format!(
                    "median of {} set-ups, {:.4} to {:.4}",
                    setups.len(),
                    setups[0],
                    setups[setups.len() - 1]
                ),
            ),
            "ops_per_s" => (rate, format!("{rate_of} of {} passes", out.passes.len())),
            "op_p50_us" => (p50, p50_remark.clone()),
            "op_p95_us" => (tail, tail_remark.clone()),
            "peak_rss_mb" => (out.peak_rss_bytes as f64 / 1e6, String::new()),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    END_TO_END
        .iter()
        .map(|m| {
            let (value, remark) = value(m.name);
            Metric {
                name: m.name,
                value,
                unit: m.unit,
                remark,
            }
        })
        .collect()
}

/// `trace.overhead_share`: how much more an operation cost with spans on
/// than with spans off, as a share of the cost with spans on.
pub fn overhead_share(out: &Outcome) -> f64 {
    out.traced_costs
        .map_or(0.0, |(off, on)| if on > 0.0 { 1.0 - off / on } else { 0.0 })
}

/// The per-layer metrics of a traced outcome, in catalogue order; a
/// layer the workload did not execute reads 0.
pub fn per_layer(out: &Outcome, probes: &[(&'static str, f64)], spans: usize) -> Vec<Metric> {
    let overhead = overhead_share(out);
    PER_LAYER
        .iter()
        .map(|m| {
            let measured = out
                .layers
                .iter()
                .chain(probes)
                .find(|(name, _)| *name == m.name)
                .map(|&(_, v)| v);
            let value = match m.name {
                "trace.overhead_share" => overhead,
                "trace.spans" => spans as f64,
                _ => measured.unwrap_or(0.0),
            };
            Metric {
                name: m.name,
                value,
                unit: m.unit,
                remark: String::new(),
            }
        })
        .collect()
}

/// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

/// Every emitted name must be declared, valid, and finite-valued; the
/// same rule the unit tests hold `BENCHMARK.json` to.
pub fn validate(metrics: &[Metric], declared: &[&str]) -> Result<(), String> {
    let emitted: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    if emitted != declared {
        return Err(format!("emitted {emitted:?}, declared {declared:?}"));
    }
    for m in metrics {
        if !crate::spec::valid_name(m.name) || !crate::spec::valid_unit(m.unit) {
            return Err(format!("invalid name or unit: {} [{}]", m.name, m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
    }
    Ok(())
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let remark = if m.remark.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.remark)
        };
        println!("  {:<40} {:>16.4} {}{remark}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Pass;
    use pqs_sim::json::JsonValue;

    fn outcome() -> Outcome {
        Outcome {
            setups_s: vec![0.3, 0.1, 0.2],
            passes: (1..=30)
                .map(|i| Pass::whole(0.5, 100.0 + f64::from(i)))
                .collect(),
            cpu_ms: 1500.0,
            peak_rss_bytes: 12_000_000,
            attempted: 10,
            ..Outcome::default()
        }
    }

    /// The emitted names are exactly the declared ones, which
    /// `spec::tests` in turn holds equal to `BENCHMARK.json`.
    #[test]
    fn emitted_names_are_the_declared_names() {
        let out = outcome();
        let e2e = end_to_end(&out);
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        validate(&e2e, &declared).unwrap();
        let layers = per_layer(&out, &[("plan.planner_us", 3.5)], 7);
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        validate(&layers, &declared).unwrap();
        assert_eq!(
            layers
                .iter()
                .find(|m| m.name == "plan.planner_us")
                .unwrap()
                .value,
            3.5
        );
        assert_eq!(
            layers
                .iter()
                .find(|m| m.name == "trace.spans")
                .unwrap()
                .value,
            7.0
        );
    }

    /// Without per-operation samples the time per operation comes from each
    /// pass's step percentiles (first quartile over stepped passes, median
    /// over one-step passes); with them, from the samples.
    #[test]
    fn latency_comes_from_operations_or_else_from_steps() {
        let value = |metrics: &[Metric], name: &str| {
            let m = metrics.iter().find(|m| m.name == name).unwrap();
            (m.value, m.remark.clone())
        };
        let mut out = outcome();
        // Five passes of 200 steps of 1e6 operations each; step i of a
        // pass takes f x i / 1024 s, so its µs per operation is the same
        // number. Within a pass p50 is the 100th step and p95 the 190th
        // (ten beyond it); over the passes the first quartile (nearest
        // rank 2 of 5) is the one with f = 2, however slow the others.
        out.passes = [3.0, 1.0, 30.0, 2.0, 4.0]
            .iter()
            .map(|f| {
                let mut step_s = (1..=200).map(|i| f * f64::from(i) / 1024.0).collect();
                Pass::stepped(&mut step_s, 1e6)
            })
            .collect();
        let e2e = end_to_end(&out);
        assert_eq!(
            value(&e2e, "op_p50_us"),
            (
                200.0 / 1024.0,
                "first quartile of 5 passes' p50.0 of 200 steps".to_string()
            )
        );
        assert_eq!(
            value(&e2e, "op_p95_us"),
            (
                380.0 / 1024.0,
                "first quartile of 5 passes' p95.0 of 200 steps".to_string()
            )
        );
        assert_eq!(out.passes[1].secs, (200.0 * 201.0 / 2.0) / 1024.0);
        assert_eq!(out.passes[1].ops, 200e6);
        // The rate is the passes' third quartile (nearest rank 4 of 5
        // ascending rates): again the pass with f = 2.
        assert_eq!(
            value(&e2e, "ops_per_s"),
            (
                200e6 / (2.0 * 20100.0 / 1024.0),
                "third quartile of 5 passes".to_string()
            )
        );
        // One-step passes (30 of 0.5 s over 101..=130 operations): the
        // median, the mean of the passes that did 115 and 116.
        let whole = end_to_end(&outcome());
        let expected = (0.5e6 / 115.0 + 0.5e6 / 116.0) / 2.0;
        assert_eq!(
            value(&whole, "op_p50_us"),
            (expected, "median of 30 passes".to_string())
        );
        assert_eq!(value(&whole, "op_p95_us").0, expected);
        out.op_latencies_us = (1..=1000).map(f64::from).collect();
        let e2e = end_to_end(&out);
        assert_eq!(value(&e2e, "op_p50_us").0, 500.0);
        assert_eq!(
            value(&e2e, "op_p95_us"),
            (950.0, "p95.0 of 1000 operations".to_string())
        );
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let out = outcome();
        let line = result_line(true, out.attempted, out.failed, &end_to_end(&out));
        assert!(!line.contains('\n'));
        let doc = JsonValue::parse(&line).unwrap();
        let JsonValue::Object(pairs) = &doc else {
            panic!()
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.2));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn undeclared_or_non_finite_metrics_are_refused() {
        let mut e2e = end_to_end(&outcome());
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        e2e[1].value = f64::NAN;
        assert!(validate(&e2e, &declared).is_err());
        e2e[1].value = 1.0;
        e2e[1].name = "not_declared";
        assert!(validate(&e2e, &declared).is_err());
    }
}
