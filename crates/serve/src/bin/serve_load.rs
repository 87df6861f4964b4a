//! `serve_load --targets host:port,host:port,... [--drain]` — the
//! cross-process smoke client for a running `pqs_serve` cluster. Its
//! exit status is the verdict: every target answers a ping, then
//! [`OPS`] value-verified operations from [`CLIENTS`] client sockets
//! reach a get hit ratio of at least [`MIN_HIT_RATIO`] with no
//! corrupted value, and — with `--drain` — every node acknowledges the
//! drain that takes the cluster down.
//!
//! It measures nothing: throughput and latency over the same sockets are
//! the `serve-closed-readheavy` and `serve-open-writeheavy` workloads of
//! `BENCHMARK.json`.
//!
//! `PQS_SERVE_SEED` seeds the workload. All `PQS_SERVE_*` variables are
//! parsed at the top of `main`; a malformed one (or a malformed
//! argument) exits with code 2 before any socket is bound.

use pqs_serve::knobs::Knobs;
use pqs_serve::{drain_targets, load, ping_targets};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

/// Client operations driven across all clients.
const OPS: u64 = 120_000;
/// Concurrent client sockets.
const CLIENTS: usize = 4;
/// The smallest acceptable fraction of gets that find their value.
const MIN_HIT_RATIO: f64 = 0.9;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: serve_load --targets host:port,host:port,... [--drain]");
    std::process::exit(2);
}

fn main() -> std::io::Result<ExitCode> {
    let knobs = Knobs::from_env().unwrap_or_else(|msg| usage(&msg));
    let mut targets: Vec<SocketAddr> = Vec::new();
    let mut drain = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--targets" => {
                let raw = args.next().unwrap_or_default();
                targets = raw
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|e| usage(&format!("--targets entry {s:?}: {e}")))
                    })
                    .collect();
            }
            "--drain" => drain = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if targets.is_empty() {
        usage("--targets needs a non-empty host:port list");
    }

    ping_targets(&targets, Duration::from_secs(5))?;
    eprintln!(
        "serve_load: {} targets healthy, driving {OPS} ops from {CLIENTS} clients",
        targets.len()
    );
    let stats = load::run(&targets, OPS, CLIENTS, knobs.seed)?;
    if drain {
        drain_targets(&targets)?;
    }

    eprintln!(
        "serve_load: {} puts + {} gets: {} ok, {} failed, {} refused, {} timed out; \
         hit ratio {:.4}, {} value mismatches",
        stats.puts,
        stats.gets,
        stats.ok,
        stats.failed,
        stats.refused,
        stats.timeouts,
        stats.hit_ratio(),
        stats.value_mismatches,
    );
    let mut verdict = ExitCode::SUCCESS;
    if stats.value_mismatches > 0 {
        eprintln!("error: verified gets returned the wrong value");
        verdict = ExitCode::FAILURE;
    }
    if stats.hit_ratio() < MIN_HIT_RATIO {
        eprintln!("error: hit ratio below {MIN_HIT_RATIO}");
        verdict = ExitCode::FAILURE;
    }
    Ok(verdict)
}
