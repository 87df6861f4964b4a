//! What the benchmark reads from the machine it runs on: the facts every
//! output header records, and the process's own memory and CPU use.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Removes every `PQS_*` variable: the crates read 15 such knobs
/// (`PQS_SNAPSHOT` switches `run_scenario`'s code path), and none may
/// leak from the caller's shell into a measurement. Call before any
/// thread starts.
pub fn scrub_env() {
    let leaked: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PQS_"))
        .collect();
    for key in leaked {
        std::env::remove_var(key);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

const RUSTC_VERSION: &str = env!("PQS_BENCHMARK_RUSTC");

/// `"nproc": .., "rustc": "..", "git_commit": ".."`: the machine facts
/// every output header carries, as JSON object members.
pub fn facts_json() -> String {
    let plain = |s: &str| s.replace(['"', '\\'], "'");
    format!(
        "\"nproc\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\"",
        nproc(),
        plain(RUSTC_VERSION),
        plain(&git_commit())
    )
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, and then this is "unknown".
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:").unwrap_or(0) * 1024
}

/// Current resident set (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:").unwrap_or(0) * 1024
}

/// CPU time this process has used so far (user + system, all threads),
/// in milliseconds. `/proc/self/stat` counts in `USER_HZ` ticks, which
/// Linux fixes at 100 per second for user space.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the ")".
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

/// What a 1 ms `SO_RCVTIMEO` really waits on this kernel, in µs (median
/// of nine empty reads). The kernel rounds the timeout up to scheduler
/// ticks, so 1 ms becomes ~4 ms at HZ = 250; `node_loop` blocks in such a
/// read between bursts, which is why one put on an idle cluster takes two
/// of them.
pub fn read_timeout_us() -> f64 {
    let Ok(sock) = UdpSocket::bind("127.0.0.1:0") else {
        return 0.0;
    };
    if sock
        .set_read_timeout(Some(Duration::from_millis(1)))
        .is_err()
    {
        return 0.0;
    }
    let mut buf = [0u8; 8];
    let mut waits: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let _ = sock.recv_from(&mut buf);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&mut waits)
}
