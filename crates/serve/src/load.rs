//! The verifying client: windowed traffic against a serve cluster, every
//! answer checked. It asserts outcomes — it does not measure; throughput
//! and latency over the same sockets are the `serve-*` workloads of
//! `BENCHMARK.json`.
//!
//! Each client thread owns one UDP socket and a private keyspace. It
//! first seeds its keyspace with puts, then drives a mixed read-heavy
//! phase (80 % gets), keeping up to [`WINDOW`] requests in flight with
//! per-request timeout and retransmission (operations are idempotent: a
//! put re-sends the same value, a get is read-only, and the coordinator
//! dedups retransmits). Values are derived from keys, so every
//! successful get is also verified for integrity, not just presence.

use crate::CLIENT_NODE_ID;
use pqs_core::store::{Key, Value};
use pqs_core::transport::{Datagram, OpStatus, WireMsg};
use pqs_core::wire;
use pqs_sim::rng::{entity_stream, streams};
use rand::Rng;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Maximum in-flight requests per client.
const WINDOW: usize = 64;
/// Per-request retransmission timeout.
const REQ_TIMEOUT: Duration = Duration::from_millis(250);
/// Transmissions before a request is abandoned.
const MAX_ATTEMPTS: u32 = 8;
/// Fraction of mixed-phase operations that are gets.
const GET_FRACTION: f64 = 0.8;

/// Aggregated outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadStats {
    /// Put operations issued.
    pub puts: u64,
    /// Get operations issued.
    pub gets: u64,
    /// Gets answered `Ok` (the value was found).
    pub hits: u64,
    /// Operations answered `Ok`.
    pub ok: u64,
    /// Operations answered `Failed` (quorum access failed).
    pub failed: u64,
    /// Operations answered `Refused` (node draining).
    pub refused: u64,
    /// Operations abandoned after all retransmissions timed out.
    pub timeouts: u64,
    /// Successful gets whose value did not match the key derivation —
    /// must be zero.
    pub value_mismatches: u64,
}

impl LoadStats {
    /// Fraction of issued gets that found the value.
    pub fn hit_ratio(&self) -> f64 {
        if self.gets == 0 {
            return 1.0;
        }
        self.hits as f64 / self.gets as f64
    }

    fn merge(&mut self, other: &LoadStats) {
        self.puts += other.puts;
        self.gets += other.gets;
        self.hits += other.hits;
        self.ok += other.ok;
        self.failed += other.failed;
        self.refused += other.refused;
        self.timeouts += other.timeouts;
        self.value_mismatches += other.value_mismatches;
    }
}

/// The value every put writes under `key`, and every verified get
/// expects back.
fn value_for(key: Key) -> Value {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Drives `ops` operations from `clients` threads against `targets`,
/// spreading them round-robin over the target nodes as coordinators.
pub fn run(targets: &[SocketAddr], ops: u64, clients: usize, seed: u64) -> io::Result<LoadStats> {
    assert!(!targets.is_empty(), "need at least one target");
    let clients = clients.min(ops.max(1) as usize).max(1);
    let per_client = ops / clients as u64;
    let remainder = ops % clients as u64;
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let ops = per_client + u64::from((c as u64) < remainder);
        let targets = targets.to_vec();
        handles.push(
            std::thread::Builder::new()
                .name(format!("serve-load-{c}"))
                .spawn(move || client_loop(&targets, seed, c as u64, ops))?,
        );
    }
    let mut total = LoadStats::default();
    for h in handles {
        let stats = h
            .join()
            .map_err(|_| io::Error::other("load client panicked"))??;
        total.merge(&stats);
    }
    Ok(total)
}

struct Pending {
    key: Key,
    get: bool,
    target: SocketAddr,
    last_sent: Instant,
    attempts: u32,
}

fn client_loop(targets: &[SocketAddr], seed: u64, client: u64, ops: u64) -> io::Result<LoadStats> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.set_read_timeout(Some(Duration::from_millis(1)))?;
    let mut rng = entity_stream(seed, streams::WORKLOAD, client);
    let mut stats = LoadStats::default();
    // Private keyspace: no cross-client races on a key, so a miss can
    // only come from quorum non-intersection or loss — the quantity the
    // hit-ratio gate is about.
    let seed_puts = ops.div_ceil(10).clamp(1, 512);
    let key_of = |i: u64| ((client + 1) << 40) | i;

    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut buf = [0u8; 2048];

    while completed < ops {
        // Fill the window. The mixed phase waits for the seeding phase
        // to fully complete so gets never race their seeding put.
        while pending.len() < WINDOW
            && issued < ops
            && !(issued >= seed_puts && completed < seed_puts.min(ops))
        {
            let req = issued + 1;
            let (key, get) = if issued < seed_puts {
                (key_of(issued), false)
            } else if rng.gen_bool(GET_FRACTION) {
                (key_of(rng.gen_range(0..seed_puts)), true)
            } else {
                (key_of(rng.gen_range(0..seed_puts)), false)
            };
            issued += 1;
            if get {
                stats.gets += 1;
            } else {
                stats.puts += 1;
            }
            let target = targets[((issued + client) as usize) % targets.len()];
            let p = Pending {
                key,
                get,
                target,
                last_sent: Instant::now(),
                attempts: 1,
            };
            send_req(&sock, &p, req)?;
            pending.insert(req, p);
        }

        // Collect answers for up to one read-timeout tick.
        match sock.recv_from(&mut buf) {
            Ok((n, _)) => {
                if let Ok((dg, _)) = wire::decode_frame(&buf[..n]) {
                    handle_reply(&mut pending, &mut stats, dg);
                    if stats.ok + stats.failed + stats.refused + stats.timeouts > completed {
                        completed = stats.ok + stats.failed + stats.refused + stats.timeouts;
                    }
                }
            }
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }

        // Retransmit or abandon requests past their timeout.
        let now = Instant::now();
        let mut expired: Vec<u64> = Vec::new();
        for (&req, p) in pending.iter_mut() {
            if now.duration_since(p.last_sent) < REQ_TIMEOUT {
                continue;
            }
            if p.attempts >= MAX_ATTEMPTS {
                expired.push(req);
                continue;
            }
            p.attempts += 1;
            p.last_sent = now;
            send_req(&sock, p, req)?;
        }
        for req in expired {
            pending.remove(&req);
            stats.timeouts += 1;
            completed += 1;
        }
    }
    Ok(stats)
}

fn send_req(sock: &UdpSocket, p: &Pending, req: u64) -> io::Result<()> {
    let msg = if p.get {
        WireMsg::ClientGet { req, key: p.key }
    } else {
        WireMsg::ClientPut {
            req,
            key: p.key,
            value: value_for(p.key),
        }
    };
    let frame = wire::encode_frame(&Datagram {
        from: CLIENT_NODE_ID,
        msg,
    });
    sock.send_to(&frame, p.target)?;
    Ok(())
}

fn handle_reply(pending: &mut HashMap<u64, Pending>, stats: &mut LoadStats, dg: Datagram) {
    let (req, status, value) = match dg.msg {
        WireMsg::ClientPutDone { req, status } => (req, status, None),
        WireMsg::ClientGetDone { req, status, value } => (req, status, Some(value)),
        _ => return,
    };
    let Some(p) = pending.remove(&req) else {
        return; // duplicate answer after a retransmission
    };
    match status {
        OpStatus::Ok => {
            stats.ok += 1;
            if p.get {
                stats.hits += 1;
                if value != Some(value_for(p.key)) {
                    stats.value_mismatches += 1;
                }
            }
        }
        OpStatus::Failed => stats.failed += 1,
        OpStatus::Refused => stats.refused += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_ratios() {
        let mut a = LoadStats {
            puts: 10,
            gets: 40,
            hits: 38,
            ok: 48,
            failed: 2,
            ..LoadStats::default()
        };
        let b = LoadStats {
            puts: 5,
            gets: 10,
            hits: 10,
            ok: 15,
            ..LoadStats::default()
        };
        a.merge(&b);
        assert_eq!(a.puts, 15);
        assert_eq!(a.gets, 50);
        assert_eq!(a.hits, 48);
        assert!((a.hit_ratio() - 0.96).abs() < 1e-12);
    }

    #[test]
    fn empty_gets_is_a_perfect_ratio() {
        assert_eq!(LoadStats::default().hit_ratio(), 1.0);
    }

    #[test]
    fn values_are_key_derived_and_odd() {
        assert_ne!(value_for(1), value_for(2));
        assert_eq!(value_for(9) & 1, 1);
    }
}
