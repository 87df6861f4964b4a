//! Whole sets of runs: `set` produces one (every workload, ten seeds,
//! each run a fresh child process with an empty environment), `compare`
//! holds two against the bounds.

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{host, stats, Flags};
use pqs_sim::json::JsonValue;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Runs this executable again as a child with an empty environment and
/// returns `(exit ok, last line of its standard output)`.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.env_clear()
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    if !output.status.success() {
        // Show what the child said: a failed check names itself there.
        print!("{stdout}");
    }
    Ok((output.status.success(), last))
}

/// Untraced runs per workload in a set, each with the next seed: what
/// quartiles over a set, and the bounds held against them, are defined on.
const SET_REPS: u64 = 10;

pub fn run_set(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "quick", "out"])?;
    let quick = flags.get("quick").is_some();
    let seed: u64 = flags.number("seed", 1)?;
    let seconds = crate::default_seconds(quick);
    let reps = if quick { 1 } else { SET_REPS };
    let out_path = flags
        .get("out")
        .unwrap_or("benchmark/out/set.json")
        .to_string();
    if quick {
        println!("QUICK MODE: tiny sizes, numbers are not comparable with anything");
    }

    let mut runs = String::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let plan = (0..reps).map(|r| (seed + r, false)).chain([(seed, true)]);
        for (run_seed, trace) in plan {
            let (ok, line) = child(w.name, run_seed, seconds, trace, quick)?;
            let parsed = JsonValue::parse(&line).ok();
            let correct = parsed
                .as_ref()
                .and_then(|v| v.get("correct"))
                .is_some_and(|c| *c == JsonValue::Bool(true));
            all_ok &= ok && correct;
            println!(
                "{:<24} seed {run_seed:<6} trace {} {} {}",
                w.name,
                u8::from(trace),
                if ok && correct { "ok    " } else { "FAILED" },
                if trace {
                    String::new()
                } else {
                    brief(parsed.as_ref())
                }
            );
            if parsed.is_some() {
                if !runs.is_empty() {
                    runs.push_str(",\n");
                }
                let _ = write!(
                    runs,
                    "{{\"workload\": \"{}\", \"seed\": {run_seed}, \"trace\": {}, \"result\": {line}}}",
                    w.name,
                    u8::from(trace)
                );
            }
        }
    }
    let text = format!(
        "{{\"header\": {{\"seed\": {seed}, \"seconds\": {seconds}, \"reps\": {reps}, \"quick\": {quick}, {}}},\n\"runs\": [\n{runs}\n]}}\n",
        host::facts_json()
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, text).map_err(|e| format!("{out_path}: {e}"))?;
    println!("set written to {out_path}");
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The end-to-end metrics of one result, on one line.
fn brief(result: Option<&JsonValue>) -> String {
    let Some(metrics) = result.and_then(|r| r.get("metrics")) else {
        return "no result".into();
    };
    END_TO_END
        .iter()
        .filter_map(|m| {
            let v = metrics.get(m.name)?.get("value")?.as_f64()?;
            Some(format!("{}={v:.4}", m.name))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// One side of a comparison: per workload, the values of each metric
/// over the set's correct runs.
struct Side {
    doc: JsonValue,
}

impl Side {
    fn load(path: &str) -> Result<Side, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
        Ok(Side { doc })
    }

    fn runs(&self, workload: &str, trace: u64) -> Vec<&JsonValue> {
        self.doc
            .get("runs")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .filter(|r| {
                r.get("workload").and_then(JsonValue::as_str) == Some(workload)
                    && r.get("trace").and_then(JsonValue::as_u64) == Some(trace)
            })
            .collect()
    }

    fn values(&self, workload: &str, trace: u64, metric: &str) -> Vec<f64> {
        self.runs(workload, trace)
            .iter()
            .filter_map(|r| {
                r.get("result")?
                    .get("metrics")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule of choosing-metrics section 6: `b` is worse when its median
/// is worse than `a`'s by more than `bound` of `a`'s median; where either
/// side's own quartile spread is wider than the bound (and `gate_spread`
/// asks for it) the pair is unresolved, not unchanged. Returns the
/// verdict, the signed change of the median (positive = worse) and the
/// wider spread.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    gate_spread: bool,
) -> (Verdict, f64, f64) {
    let mid_a = stats::median(&mut a.to_vec());
    let mid_b = stats::median(&mut b.to_vec());
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            stats::quartile_spread(v)
        } else {
            0.0
        }
    };
    let spread = spread(a).max(spread(b));
    let change = match better {
        Better::Lower => (mid_b - mid_a) / mid_a,
        Better::Higher => (mid_a - mid_b) / mid_a,
    };
    let verdict = if gate_spread && spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, change, spread)
}

pub fn compare_files(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (Side::load(path_a)?, Side::load(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "per cell: verdict, change of B's median against A's (+ = worse), wider quartile spread"
    );
    print!("{:<24}", "workload");
    for m in END_TO_END {
        print!(
            " {:<28}",
            format!("{} (<= {:.0}%)", m.name, m.bound * 100.0)
        );
    }
    println!();
    let mut all_ok = true;
    for w in WORKLOADS {
        print!("{:<24}", w.name);
        for m in END_TO_END {
            let (va, vb) = (a.values(w.name, 0, m.name), b.values(w.name, 0, m.name));
            if va.is_empty() || vb.is_empty() {
                print!(" {:<28}", "missing");
                all_ok = false;
                continue;
            }
            // Set-up time is held to its median only, as the driver does:
            // a 25 % bound cannot hold the spread of a ~1 ms build.
            let gate_spread = m.name != "setup_s";
            let (verdict, change, spread) = judge(&va, &vb, m.better, m.bound, gate_spread);
            all_ok &= verdict == Verdict::Ok;
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "UNRESOLVED",
            };
            print!(
                " {:<28}",
                format!("{word} {:+.1}% ~{:.1}%", change * 100.0, spread * 100.0)
            );
        }
        println!();
    }

    // Count-type layer metrics repeat exactly for a seed: any difference
    // between the sets is a behaviour change (or a nondeterminism).
    println!("count-type per-layer metrics (traced runs, same seed):");
    for w in WORKLOADS {
        let mut differing = Vec::new();
        let mut compared = 0;
        if w.name.starts_with("serve-") {
            continue; // thread interleaving decides counts on real sockets
        }
        // `trace.spans` counts the time-boxed passes too.
        let counts = PER_LAYER
            .iter()
            .filter(|m| m.unit == "count" && m.name != "trace.spans");
        for m in counts {
            let (va, vb) = (a.values(w.name, 1, m.name), b.values(w.name, 1, m.name));
            if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                if *x == 0.0 && *y == 0.0 {
                    continue; // a layer this workload does not execute
                }
                compared += 1;
                if x.to_bits() != y.to_bits() {
                    differing.push(format!("{} {x} != {y}", m.name));
                }
            }
        }
        if differing.is_empty() {
            println!("  {:<24} {compared} identical", w.name);
        } else {
            all_ok = false;
            println!("  {:<24} DIFFER: {}", w.name, differing.join("; "));
        }
    }
    println!(
        "{}",
        if all_ok {
            "every pair ok"
        } else {
            "NOT every pair ok"
        }
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let slightly = [105.0, 106.0, 104.0, 105.5, 104.5];
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        // Lower is better: +15 % is beyond a 10 % bound, +5 % is not.
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.10, true).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &slightly, Better::Lower, 0.10, true).0,
            Verdict::Ok
        );
        // An improvement is never worse.
        assert_eq!(
            judge(&slower, &steady, Better::Lower, 0.10, true).0,
            Verdict::Ok
        );
        // Higher is better: the same numbers the other way round.
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.10, true).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &slower, Better::Higher, 0.10, true).0,
            Verdict::Ok
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10, true).0,
            Verdict::Unresolved
        );
        // ...unless the metric is held to its median only.
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10, false).0,
            Verdict::Ok
        );
        let (_, change, _) = judge(&steady, &slower, Better::Lower, 0.10, true);
        assert!((change - 0.15).abs() < 1e-9);
    }
}
