//! `serve_load` — drives client load against a serve cluster and
//! exports throughput results.
//!
//! By default it self-hosts a cluster in-process, runs the load, drains,
//! and exits. With `--targets host:port,host:port,...` it drives an
//! external cluster (e.g. a `pqs_serve` process) instead; add `--drain`
//! to also take that cluster down afterwards.
//!
//! Knobs: `PQS_SERVE_OPS` (total client operations, default 100 000),
//! `PQS_SERVE_NODES` (default 5), `PQS_SERVE_CLIENTS` (default 4),
//! `PQS_SERVE_SEED` (default 1), `PQS_SERVE_WEIGHTED` (when 1, the
//! self-hosted cluster sizes with the fractional lookup mixture).
//! The export directory is the figure harness's `PQS_BENCH_DIR`, read
//! through [`pqs_bench::Env`]. Both environments are parsed at the top
//! of `main`; a malformed value exits with code 2 before any socket is
//! bound.
//!
//! Outcome counters (hit ratio, completion split) land in
//! `bench_results/serve_throughput.json`; everything wall-clock
//! (ops/sec, latency percentiles) is quarantined in the
//! `serve_throughput.perf.json` sidecar. Unlike the simulator benches
//! the main export here is *measured over real sockets* and is not
//! byte-reproducible — check.sh excludes it from the determinism diff.

use pqs_bench::{Env, Report};
use pqs_serve::knobs::Knobs;
use pqs_serve::load::{self, LoadConfig};
use pqs_serve::{drain_targets, ping_targets, Cluster};
use pqs_sim::json::JsonValue;
use std::net::SocketAddr;
use std::time::Duration;

fn parse_targets(raw: &str) -> Vec<SocketAddr> {
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim().parse().unwrap_or_else(|e| {
                eprintln!("error: --targets entry {s:?}: {e}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn main() -> std::io::Result<()> {
    let exit_2 = |msg: String| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(2);
    };
    let env = Env::from_env().unwrap_or_else(|msg| exit_2(msg));
    let knobs = Knobs::from_env().unwrap_or_else(|msg| exit_2(msg));
    let (ops, clients, seed) = (knobs.ops, knobs.clients, knobs.seed);
    let epsilon = 0.1;

    let mut args = std::env::args().skip(1);
    let mut targets: Option<Vec<SocketAddr>> = None;
    let mut drain_external = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--targets" => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("error: --targets needs a host:port list");
                    std::process::exit(2);
                });
                targets = Some(parse_targets(&raw));
            }
            "--drain" => drain_external = true,
            other => {
                eprintln!("error: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut weighted_mix = None;
    let (cluster, addrs, qa, ql) = match targets {
        Some(addrs) => {
            if addrs.is_empty() {
                eprintln!("error: --targets list is empty");
                std::process::exit(2);
            }
            (None, addrs, 0usize, 0usize)
        }
        None => {
            let cfg = knobs.serve_config(epsilon);
            let (qa, ql) = (cfg.endpoint.qa, cfg.endpoint.ql);
            weighted_mix = cfg.endpoint.weighted;
            let cluster = Cluster::spawn(cfg)?;
            let addrs = cluster.addrs().to_vec();
            (Some(cluster), addrs, qa, ql)
        }
    };

    ping_targets(&addrs, Duration::from_secs(5))?;
    eprintln!(
        "serve_load: {} targets healthy, driving {ops} ops from {clients} clients",
        addrs.len()
    );

    // Configuration first: this also starts the report wall-clock, so
    // the sidecar's wall_ms brackets the load run and the drain.
    let mut report = Report::new(&env);
    report.add_value("nodes", JsonValue::from(addrs.len()));
    report.add_value("qa", JsonValue::from(qa));
    report.add_value("ql", JsonValue::from(ql));
    report.add_value("epsilon", JsonValue::from(epsilon));
    report.add_value("weighted", JsonValue::from(weighted_mix.is_some()));
    if let Some(w) = weighted_mix {
        report.add_value("ql_mean", JsonValue::from(w.lookup.mean_size()));
    }
    report.add_value("ops", JsonValue::from(ops));
    report.add_value("clients", JsonValue::from(clients));
    report.add_value("seed", JsonValue::from(seed));

    let stats = load::run(&addrs, &LoadConfig::new(ops, clients, seed))?;

    let node_reports = match cluster {
        Some(c) => Some(c.drain()?),
        None => {
            if drain_external {
                drain_targets(&addrs)?;
            }
            None
        }
    };

    report.add_value("puts", JsonValue::from(stats.puts));
    report.add_value("gets", JsonValue::from(stats.gets));
    report.add_value("hits", JsonValue::from(stats.hits));
    report.add_value("ok", JsonValue::from(stats.ok));
    report.add_value("failed", JsonValue::from(stats.failed));
    report.add_value("refused", JsonValue::from(stats.refused));
    report.add_value("timeouts", JsonValue::from(stats.timeouts));
    report.add_value("value_mismatches", JsonValue::from(stats.value_mismatches));
    report.add_value("hit_ratio", JsonValue::from(stats.hit_ratio()));

    report.add_perf_value("ops_per_sec", JsonValue::from(stats.ops_per_sec()));
    report.add_perf_value(
        "put_p50_us",
        JsonValue::from(stats.put_latency.percentile(0.5)),
    );
    report.add_perf_value(
        "put_p99_us",
        JsonValue::from(stats.put_latency.percentile(0.99)),
    );
    report.add_perf_value(
        "get_p50_us",
        JsonValue::from(stats.get_latency.percentile(0.5)),
    );
    report.add_perf_value(
        "get_p99_us",
        JsonValue::from(stats.get_latency.percentile(0.99)),
    );
    if let Some(reports) = &node_reports {
        let malformed: u64 = reports.iter().map(|r| r.malformed_datagrams).sum();
        let send_errors: u64 = reports.iter().map(|r| r.send_errors).sum();
        report.add_perf_value("malformed_datagrams", JsonValue::from(malformed));
        report.add_perf_value("send_errors", JsonValue::from(send_errors));
    }

    let path = report.write("serve_throughput")?;
    eprintln!(
        "serve_load: {} ops in {:.2}s ({:.0} ops/sec), hit ratio {:.4}, \
         p50 get {}us p99 get {}us -> {}",
        stats.puts + stats.gets,
        stats.wall.as_secs_f64(),
        stats.ops_per_sec(),
        stats.hit_ratio(),
        stats.get_latency.percentile(0.5),
        stats.get_latency.percentile(0.99),
        path.display(),
    );

    if stats.value_mismatches > 0 {
        eprintln!(
            "error: {} verified gets returned the wrong value",
            stats.value_mismatches
        );
        std::process::exit(1);
    }
    Ok(())
}
