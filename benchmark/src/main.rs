//! The repository's benchmark. One invocation runs one workload:
//!
//! ```text
//! pqs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! prints every metric by name with its unit, checks the outputs, and
//! ends with one JSON object on the last line of standard output (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). Exit code 0 only if every check passed.
//!
//! ```text
//! pqs-benchmark set [--seed n] [--quick] [--out file]
//! pqs-benchmark compare <a.json> <b.json>
//! pqs-benchmark manifest        # prints BENCHMARK.json
//! ```
//!
//! `set` runs every workload ten times untraced (seeds n..n+9) and once
//! traced, for `run_seconds` each, every run in a fresh child process with
//! an empty environment, and writes the results to one file; `compare`
//! holds two such files against the bounds. See README.md.

mod compare;
mod host;
mod loadgen;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run of the benchmark may take on top of its measured
/// section (cargo's freshness check, set-up, drain, probes) for the
/// driver's `4 + 22 x workloads` runs to fit its total allowance; the
/// `BENCHMARK.json` test holds `run_seconds` to it.
pub const RUN_OVERHEAD_BUDGET_S: u64 = 6;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// `--seconds` when not given: the manifest's, or a token 0.2 s in quick
/// mode.
pub fn default_seconds(quick: bool) -> f64 {
    if quick {
        0.2
    } else {
        RUN_SECONDS as f64
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pqs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       pqs-benchmark set [--seed n] [--quick] [--out file]\n       pqs-benchmark compare <a.json> <b.json>\n       pqs-benchmark manifest\nworkloads:"
    );
    for w in spec::WORKLOADS {
        eprintln!("  {:<24} {}", w.name, w.why);
    }
    ExitCode::from(2)
}

/// Flag values by name; a flag given twice keeps its last value.
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parses `--name value` pairs; `--quick` stands alone.
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if name == "quick" {
                flags.push((name.to_string(), "1".to_string()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn run_args(flags: &Flags) -> Result<Args, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "quick"])?;
    let workload = flags
        .get("workload")
        .ok_or("--workload is required")?
        .to_string();
    if spec::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    let quick = flags.get("quick").is_some();
    let seconds: f64 = flags.number("seconds", default_seconds(quick))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: want 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: flags.number("seed", 1)?,
        seconds,
        trace,
        quick,
    })
}

/// `trace.overhead_share` <= 0.05. The share is a difference between two
/// halves of one run, and on this kind of machine such halves differ by
/// several percent with nothing changed; so a larger difference fails
/// only if the spans recorded, at what one span costs, could have caused
/// it.
fn overhead_check(out: &workloads::Outcome, spans: usize, seconds: f64) -> workloads::Check {
    let measured = report::overhead_share(out);
    let span_ns = trace::span_cost_ns();
    // Spans were on for half of the measured section.
    let accounted = spans as f64 * span_ns / (seconds / 2.0 * 1e9);
    workloads::check(
        "trace.overhead_share <= 0.05",
        measured <= 0.05 || accounted <= 0.05,
        format!(
            "measured {measured:.4}; {spans} spans x {span_ns:.0} ns account for {accounted:.6}"
        ),
    )
}

/// Runs one workload in this process and prints its report.
fn run_one(args: &Args) -> ExitCode {
    let read_timeout_us = host::read_timeout_us();
    let header = report::header_json(args, read_timeout_us);
    println!("pqs-benchmark {header}");
    if args.quick {
        println!("QUICK MODE: tiny sizes, numbers are not comparable with anything");
    }
    let mut ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        tracer: trace::Tracer::new(args.trace),
    };
    let mut out = workloads::run(&args.workload, &mut ctx);

    let end_to_end = report::end_to_end(&out);
    let metrics = if args.trace {
        out.checks
            .push(overhead_check(&out, ctx.tracer.len(), args.seconds));
        let probes = probes::run(&mut ctx.tracer, &args.workload, args.seed, args.quick);
        let path = PathBuf::from(format!("benchmark/out/trace-{}.json", args.workload));
        match ctx.tracer.write(&path, &header) {
            Ok(()) => println!(
                "spans: {} recorded, written to {}",
                ctx.tracer.len(),
                path.display()
            ),
            Err(e) => println!("spans: {} recorded, not written ({e})", ctx.tracer.len()),
        }
        println!("span summary (count, total ms, self ms):");
        for (name, count, total, own) in ctx.tracer.summary() {
            println!(
                "  {name:<28} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        report::print_metrics(
            "end-to-end (for orientation; a traced run does not report them)",
            &end_to_end,
        );
        report::per_layer(&out, &probes, ctx.tracer.len())
    } else {
        end_to_end
    };
    let title = if args.trace {
        "per-layer metrics"
    } else {
        "end-to-end metrics"
    };
    report::print_metrics(title, &metrics);
    let mut rates: Vec<f64> = out.passes.iter().map(|p| p.ops / p.secs).collect();
    rates.sort_unstable_by(f64::total_cmp);
    if rates.len() >= 2 {
        let (q1, q3) = stats::quartiles(&rates);
        println!(
            "note: ops/s over {} passes: min {:.4} q1 {q1:.4} q3 {q3:.4} max {:.4}",
            rates.len(),
            rates[0],
            rates[rates.len() - 1]
        );
    }
    for note in &out.notes {
        println!("note: {note}");
    }

    let declared: Vec<&str> = if args.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut correct = true;
    if let Err(e) = report::validate(&metrics, &declared) {
        println!("check FAILED: metrics well-formed: {e}");
        correct = false;
    }
    for c in &out.checks {
        println!(
            "check {}: {}: {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
        correct &= c.ok;
    }
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Before anything else, and before any thread exists: no PQS_* knob
    // of the caller's shell may reach the crates.
    host::scrub_env();
    if let Err(e) = spec::validate_catalogue() {
        eprintln!("pqs-benchmark: metric catalogue breaks the contract: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => return usage(),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("set") => Flags::parse(&args[1..]).and_then(|f| compare::run_set(&f)),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare needs two set files".into()),
        },
        Some(_) => Flags::parse(&args)
            .and_then(|f| run_args(&f))
            .map(|a| run_one(&a)),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pqs-benchmark: {message}");
            usage()
        }
    }
}
