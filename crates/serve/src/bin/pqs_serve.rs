//! `pqs_serve` — hosts a probabilistic-quorum KV cluster on localhost
//! UDP sockets and serves until drained.
//!
//! Knobs: `PQS_SERVE_NODES` (cluster size, default 5), `PQS_SERVE_SEED`
//! (default 1), `PQS_SERVE_RUN_SECS` (if set, auto-drain after this
//! many seconds; otherwise the process waits for an external `DrainReq`
//! on every node socket, e.g. from `serve_load --drain`). All
//! `PQS_SERVE_*` variables are parsed at the top of `main`
//! ([`Knobs::from_env`]); a malformed one exits with code 2 before any
//! socket is bound.
//!
//! The bound addresses are printed one per line to stdout (and, when
//! `PQS_SERVE_PORTS_FILE` is set, written to that path atomically via a
//! temp-file rename, so a poller never reads a half-written list). On
//! drain, each node's final counters are dumped to stdout; when
//! `PQS_SERVE_METRICS` names a path, the same dump is written there as
//! JSON.

use pqs_serve::knobs::Knobs;
use pqs_serve::{drain_targets, Cluster, NodeReport, ServeConfig};
use pqs_sim::json::JsonValue;
use std::io::Write;
use std::time::Duration;

fn report_json(reports: &[NodeReport]) -> JsonValue {
    JsonValue::array(reports.iter().map(|r| {
        let c = &r.counters;
        JsonValue::object([
            ("node", JsonValue::from(u64::from(r.node.0))),
            ("requests", JsonValue::from(c.requests)),
            ("completed_ok", JsonValue::from(c.completed_ok)),
            ("completed_failed", JsonValue::from(c.completed_failed)),
            ("refused", JsonValue::from(c.refused)),
            ("op_retries", JsonValue::from(c.op_retries)),
            ("stores_served", JsonValue::from(c.stores_served)),
            ("lookups_served", JsonValue::from(c.lookups_served)),
            ("msgs_sent", JsonValue::from(c.msgs_sent)),
            ("msgs_received", JsonValue::from(c.msgs_received)),
            (
                "malformed_datagrams",
                JsonValue::from(r.malformed_datagrams),
            ),
            ("send_errors", JsonValue::from(r.send_errors)),
            ("client_completed", JsonValue::from(r.client_completed)),
        ])
    }))
}

fn main() -> std::io::Result<()> {
    let knobs = Knobs::from_env().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let (nodes, seed) = (knobs.nodes, knobs.seed);
    let cfg = ServeConfig::sized(nodes, seed, 0.1);
    let (qa, ql) = (cfg.endpoint.qa, cfg.endpoint.ql);
    let cluster = Cluster::spawn(cfg)?;
    let addrs = cluster.addrs().to_vec();

    eprintln!("pqs_serve: {nodes} nodes, qa={qa} ql={ql}, seed={seed}");
    let mut stdout = std::io::stdout().lock();
    for addr in &addrs {
        writeln!(stdout, "{addr}")?;
    }
    stdout.flush()?;
    if let Some(path) = &knobs.ports_file {
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let body: String = addrs.iter().map(|a| format!("{a}\n")).collect();
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, path)?;
    }

    let reports = match knobs.run_secs {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs(secs));
            eprintln!("pqs_serve: run window elapsed, draining");
            drain_targets(&addrs)?;
            cluster.join()?
        }
        // Wait for an external DrainReq to take each node down.
        None => cluster.join()?,
    };

    let json = report_json(&reports);
    if let Some(path) = &knobs.metrics {
        std::fs::write(path, json.render())?;
    }
    for r in &reports {
        let c = &r.counters;
        writeln!(
            stdout,
            "node {} requests={} ok={} failed={} refused={} served_stores={} \
             served_lookups={} malformed={} send_errors={}",
            r.node.0,
            c.requests,
            c.completed_ok,
            c.completed_failed,
            c.refused,
            c.stores_served,
            c.lookups_served,
            r.malformed_datagrams,
            r.send_errors,
        )?;
    }
    Ok(())
}
