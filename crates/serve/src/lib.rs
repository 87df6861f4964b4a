//! # pqs-serve — the probabilistic-quorum KV register over real sockets
//!
//! The second host of the `pqs-core` transport seam: each node is a
//! `std::net::UdpSocket` endpoint served by one bounded thread (no
//! tokio/mio — the environment is offline and std-only), running the
//! exact same [`QuorumEndpoint`] engine that the loopback transport
//! hosts. Peers exchange the canonical length-prefixed wire frames of
//! [`pqs_core::wire`]; malformed datagrams are counted and dropped by
//! the strict parser, never trusted.
//!
//! A [`Cluster`] spawns N node endpoints on ephemeral localhost ports,
//! serves client put/get traffic (coordinator-side quorum access with
//! the engine's retry/deadline policy), answers health-check pings and
//! metrics requests, and performs a graceful drain on shutdown: new
//! client operations are refused, in-flight ones finish, peers keep
//! being served, and the node answers `DrainAck` and closes its socket.
//!
//! [`load`] drives a cluster with windowed, value-verified client
//! traffic and counts outcomes; the `serve_load` binary turns those
//! counts into an exit status for `scripts/check.sh`'s cross-process
//! smoke. Neither measures time: throughput and latency over these
//! sockets are the `serve-*` workloads of the repository's
//! `BENCHMARK.json`.
//!
//! Determinism boundary: quorum *sampling* stays seed-deterministic
//! (same engine rng streams as the loopback), but message
//! interleaving and latencies are wall-clock — outcome counters are
//! near-deterministic on clean localhost, timings never are. See
//! DESIGN.md §17.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod knobs;
pub mod load;
pub mod node;
mod sessions;

use pqs_core::endpoint::{EndpointConfig, QuorumEndpoint};
use pqs_core::service::{ByzPolicy, RetryPolicy};
use pqs_core::spec;
use pqs_net::NodeId;
use pqs_sim::SimDuration;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use node::NodeReport;

/// The `from` id client sockets stamp on their frames; never a valid
/// cluster node.
pub const CLIENT_NODE_ID: NodeId = NodeId(u32::MAX);

/// Configuration of a serve cluster.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of node endpoints.
    pub nodes: usize,
    /// Master seed for the engines' quorum-sampling streams.
    pub seed: u64,
    /// Intersection failure budget ε used for sizing.
    pub epsilon: f64,
    /// Per-endpoint protocol configuration.
    pub endpoint: EndpointConfig,
}

impl ServeConfig {
    /// Sizes quorums for `nodes` with the Corollary 5.3 product rule
    /// (`|Qa|·|Qℓ| ≥ n·ln(1/ε)`, both sides capped at `n − 1` peers)
    /// and a wall-clock-scale retry policy.
    pub fn sized(nodes: usize, seed: u64, epsilon: f64) -> Self {
        assert!(nodes >= 2, "a cluster needs at least two nodes");
        let cap = nodes - 1;
        let product = spec::min_quorum_product(nodes, epsilon);
        let qa = (product.sqrt().ceil() as usize).clamp(1, cap);
        let ql = (spec::min_partner_quorum_size(nodes, epsilon, qa as f64) as usize).min(cap);
        ServeConfig {
            nodes,
            seed,
            epsilon,
            endpoint: EndpointConfig {
                qa,
                ql,
                retry: Self::wall_clock_retry(),
                byz: ByzPolicy::trusting(),
            },
        }
    }

    /// The retry policy used over real sockets: localhost round trips
    /// are sub-millisecond, so attempts are 50 ms with a 2 s operation
    /// deadline (versus the multi-second MANET-scale defaults).
    pub fn wall_clock_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            attempt_timeout: SimDuration::from_millis(50),
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(100),
            op_deadline: SimDuration::from_secs(2),
            adapt_quorum: false,
            epsilon: 0.1,
        }
    }
}

/// Monotonic wall clock reported to the engines, microseconds since
/// cluster start — the real-time counterpart of the simulator clock.
#[derive(Debug, Clone)]
pub struct WallClock(Arc<Instant>);

impl WallClock {
    /// Starts the clock now.
    pub fn start() -> Self {
        WallClock(Arc::new(Instant::now()))
    }

    /// Microseconds since start.
    pub fn now_micros(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// A running cluster of UDP node endpoints, one bounded thread each.
pub struct Cluster {
    addrs: Vec<SocketAddr>,
    handles: Vec<JoinHandle<NodeReport>>,
    cfg: ServeConfig,
}

impl Cluster {
    /// Binds `cfg.nodes` sockets on ephemeral localhost ports, then
    /// starts one serving thread per node. All sockets are bound before
    /// any thread starts, so every node knows the full address book
    /// from its first datagram.
    pub fn spawn(cfg: ServeConfig) -> io::Result<Cluster> {
        let mut sockets = Vec::with_capacity(cfg.nodes);
        let mut addrs = Vec::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            let sock = UdpSocket::bind("127.0.0.1:0")?;
            addrs.push(sock.local_addr()?);
            sockets.push(sock);
        }
        let all: Vec<NodeId> = (0..cfg.nodes as u32).map(NodeId).collect();
        let clock = WallClock::start();
        let book: Arc<[SocketAddr]> = addrs.clone().into();
        let mut handles = Vec::with_capacity(cfg.nodes);
        for (i, sock) in sockets.into_iter().enumerate() {
            let engine = QuorumEndpoint::new(
                NodeId(i as u32),
                all.clone(),
                cfg.endpoint.clone(),
                cfg.seed,
            );
            let book = Arc::clone(&book);
            let clock = clock.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pqs-serve-{i}"))
                    .spawn(move || node::node_loop(sock, book, engine, clock))?,
            );
        }
        Ok(Cluster {
            addrs,
            handles,
            cfg,
        })
    }

    /// The nodes' bound addresses, indexed by node id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The configuration the cluster was spawned with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Gracefully drains the whole cluster: every node refuses new
    /// client operations, finishes in-flight ones, acknowledges, and
    /// exits (closing its socket). Returns each node's final report.
    pub fn drain(self) -> io::Result<Vec<NodeReport>> {
        drain_targets(&self.addrs)?;
        self.join()
    }

    /// Waits for every node thread to exit without initiating a drain —
    /// for hosts whose drain is triggered externally (e.g. `pqs_serve`
    /// receiving a `DrainReq` from a separate process).
    pub fn join(self) -> io::Result<Vec<NodeReport>> {
        let mut reports = Vec::with_capacity(self.handles.len());
        for h in self.handles {
            reports.push(
                h.join()
                    .map_err(|_| io::Error::other("serve node thread panicked"))?,
            );
        }
        Ok(reports)
    }
}

/// Sends `DrainReq` to every target and waits for each `DrainAck`,
/// retransmitting on a 100 ms timeout (up to 50 attempts per node, so a
/// node finishing a 2 s-deadline op is still awaited). Usable against
/// any cluster, in-process or external.
pub fn drain_targets(targets: &[SocketAddr]) -> io::Result<()> {
    use pqs_core::transport::{Datagram, WireMsg};

    let admin = UdpSocket::bind("127.0.0.1:0")?;
    admin.set_read_timeout(Some(Duration::from_millis(100)))?;
    let req = pqs_core::wire::encode_frame(&Datagram {
        from: CLIENT_NODE_ID,
        msg: WireMsg::DrainReq,
    });
    // Acks arrive in whatever order nodes finish draining (a drained
    // node acks and exits immediately, so an ack can never be
    // re-elicited) — track the whole pending set instead of awaiting
    // targets one at a time.
    let mut pending: std::collections::HashSet<SocketAddr> = targets.iter().copied().collect();
    let mut buf = [0u8; 512];
    // 50 rounds × 100 ms recv timeout comfortably covers the 2 s
    // operation deadline of in-flight client ops.
    for _ in 0..50 {
        if pending.is_empty() {
            return Ok(());
        }
        for addr in &pending {
            // A send can race a just-closed socket; the retransmission
            // next round settles it either way.
            let _ = admin.send_to(&req, addr);
        }
        loop {
            match admin.recv_from(&mut buf) {
                Ok((n, src)) => {
                    if let Ok((dg, _)) = pqs_core::wire::decode_frame(&buf[..n]) {
                        if matches!(dg.msg, WireMsg::DrainAck { .. }) {
                            pending.remove(&src);
                            if pending.is_empty() {
                                return Ok(());
                            }
                        }
                    }
                }
                Err(ref e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(_) => break,
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        format!(
            "{} node(s) did not acknowledge drain: {pending:?}",
            pending.len()
        ),
    ))
}

/// Health-checks every target with a `Ping`, retransmitting until the
/// matching `Pong` arrives or `deadline` elapses.
pub fn ping_targets(targets: &[SocketAddr], deadline: Duration) -> io::Result<()> {
    use pqs_core::transport::{Datagram, WireMsg};

    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut buf = [0u8; 512];
    for (i, addr) in targets.iter().enumerate() {
        let nonce = 0x5049_4E47_0000_0000 | i as u64;
        let ping = pqs_core::wire::encode_frame(&Datagram {
            from: CLIENT_NODE_ID,
            msg: WireMsg::Ping { nonce },
        });
        let start = Instant::now();
        let mut alive = false;
        while start.elapsed() < deadline {
            sock.send_to(&ping, addr)?;
            if let Ok((n, src)) = sock.recv_from(&mut buf) {
                if let Ok((dg, _)) = pqs_core::wire::decode_frame(&buf[..n]) {
                    if dg.msg == (WireMsg::Pong { nonce }) && src == *addr {
                        alive = true;
                        break;
                    }
                }
            }
        }
        if !alive {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no pong from {addr}"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_respects_product_and_caps() {
        let cfg = ServeConfig::sized(5, 1, 0.1);
        assert!(cfg.endpoint.qa <= 4 && cfg.endpoint.ql <= 4);
        // qa + qℓ > n: a 5-node cluster gets certain intersection.
        assert!(cfg.endpoint.qa + cfg.endpoint.ql > 5);

        let cfg = ServeConfig::sized(64, 1, 0.1);
        let product = (cfg.endpoint.qa * cfg.endpoint.ql) as f64;
        assert!(product >= spec::min_quorum_product(64, 0.1));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn sizing_rejects_singleton() {
        ServeConfig::sized(1, 1, 0.1);
    }
}
