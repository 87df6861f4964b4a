//! End-to-end tests of the real-socket datapath: a small cluster on
//! ephemeral localhost ports, driven by the verifying client and by raw
//! client frames. Kept small — the 120k-op sustained run lives in
//! check.sh's e2e smoke, not in the unit test suite.

use pqs_core::endpoint::QuorumEndpoint;
use pqs_core::transport::{Datagram, OpStatus, WireMsg};
use pqs_core::wire;
use pqs_net::NodeId;
use pqs_serve::{drain_targets, load, node, WallClock};
use pqs_serve::{ping_targets, Cluster, ServeConfig, CLIENT_NODE_ID};
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn client_socket() -> UdpSocket {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    sock.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("set timeout");
    sock
}

/// Sends `msg` to `target`, retransmitting until a decodable reply
/// arrives, and returns it.
fn request(sock: &UdpSocket, target: SocketAddr, msg: &WireMsg) -> WireMsg {
    let frame = wire::encode_frame(&Datagram {
        from: CLIENT_NODE_ID,
        msg: msg.clone(),
    });
    let mut buf = [0u8; 2048];
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(10) {
        sock.send_to(&frame, target).expect("send");
        if let Ok((n, _)) = sock.recv_from(&mut buf) {
            if let Ok((dg, _)) = wire::decode_frame(&buf[..n]) {
                return dg.msg;
            }
        }
    }
    panic!("no reply from {target} within 10s");
}

#[test]
fn load_roundtrip_health_and_drain() {
    let cluster = Cluster::spawn(ServeConfig::sized(4, 7, 0.1)).expect("spawn");
    let addrs = cluster.addrs().to_vec();
    ping_targets(&addrs, Duration::from_secs(5)).expect("all nodes answer pings");

    let stats = load::run(&addrs, 300, 2, 7).expect("load run");
    assert_eq!(stats.puts + stats.gets, 300);
    assert_eq!(stats.ok, 300, "clean localhost: every op completes ok");
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.value_mismatches, 0);
    assert_eq!(stats.hit_ratio(), 1.0);

    // A get of a key nobody wrote fails, so the metrics below have a
    // failure to tell apart from the successes.
    let miss = request(
        &client_socket(),
        addrs[0],
        &WireMsg::ClientGet { req: 1, key: 404 },
    );
    assert_eq!(
        miss,
        WireMsg::ClientGetDone {
            req: 1,
            status: OpStatus::Failed,
            value: 0
        }
    );

    // The metrics snapshot keeps its wire contract: successes and
    // failures are counted apart and add up to what was issued.
    let sock = client_socket();
    let (mut issued_sum, mut completed_sum) = (0, 0);
    for &addr in &addrs {
        let WireMsg::MetricsResp {
            issued,
            completed,
            failed,
            ..
        } = request(&sock, addr, &WireMsg::MetricsReq)
        else {
            panic!("{addr} answered a MetricsReq with something else");
        };
        assert_eq!(issued, completed + failed);
        issued_sum += issued;
        completed_sum += completed;
    }
    assert_eq!((issued_sum, completed_sum), (301, 300));

    let reports = cluster.drain().expect("graceful drain");
    assert_eq!(reports.len(), 4);
    let completed: u64 = reports.iter().map(|r| r.client_completed).sum();
    assert_eq!(completed, 301);
    for r in &reports {
        let c = &r.counters;
        // Admission conservation at every node, drained state included.
        assert_eq!(
            c.requests,
            c.advertises_issued + c.lookups_issued + c.refused
        );
        assert_eq!(
            c.advertises_issued + c.lookups_issued,
            c.completed_ok + c.completed_failed
        );
        assert_eq!(r.malformed_datagrams, 0);
    }
}

/// An idle node answers a client as soon as the quorum operation
/// completes, not when its socket's read timeout next expires.
#[test]
fn idle_answers_do_not_wait_for_the_read_timeout() {
    let cluster = Cluster::spawn(ServeConfig::sized(5, 5, 0.1)).expect("spawn");
    let addrs = cluster.addrs().to_vec();
    ping_targets(&addrs, Duration::from_secs(5)).expect("all nodes answer pings");
    let sock = client_socket();
    let median_rtt = |requests: Vec<(SocketAddr, WireMsg, WireMsg)>| {
        let mut rtts: Vec<Duration> = requests
            .into_iter()
            .map(|(target, msg, want)| {
                let start = Instant::now();
                assert_eq!(request(&sock, target, &msg), want);
                start.elapsed()
            })
            .collect();
        rtts.sort();
        rtts[rtts.len() / 2]
    };

    let target = |i: u64| addrs[i as usize % addrs.len()];
    let puts = (0..21)
        .map(|i| {
            let put = WireMsg::ClientPut {
                req: i,
                key: i,
                value: 1000 + i,
            };
            let status = OpStatus::Ok;
            (target(i), put, WireMsg::ClientPutDone { req: i, status })
        })
        .collect();
    let put_p50 = median_rtt(puts);
    let gets = (0..21)
        .map(|i| {
            let get = WireMsg::ClientGet {
                req: 100 + i,
                key: i,
            };
            let done = WireMsg::ClientGetDone {
                req: 100 + i,
                status: OpStatus::Ok,
                value: 1000 + i,
            };
            (target(i + 1), get, done)
        })
        .collect();
    let get_p50 = median_rtt(gets);
    assert!(put_p50 < Duration::from_millis(1), "put p50 {put_p50:?}");
    assert!(get_p50 < Duration::from_millis(1), "get p50 {get_p50:?}");
    cluster.drain().expect("drain");
}

/// An answer a timer produces leaves without any datagram to wake the
/// node: of the four peers a put must reach, three are gone and one
/// never answers, so only the retry and deadline timers can finish the
/// operation.
#[test]
fn timer_produced_answer_is_sent() {
    let cfg = ServeConfig::sized(5, 9, 0.1);
    assert_eq!(cfg.endpoint.qa, 4);
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind node socket");
    let silent = UdpSocket::bind("127.0.0.1:0").expect("bind silent peer");
    let mut book = vec![sock.local_addr().unwrap(), silent.local_addr().unwrap()];
    for _ in 0..3 {
        let gone = UdpSocket::bind("127.0.0.1:0").expect("bind dead peer");
        book.push(gone.local_addr().unwrap());
    }
    let addr = book[0];
    let all: Vec<NodeId> = (0..5).map(NodeId).collect();
    let engine = QuorumEndpoint::new(NodeId(0), all, cfg.endpoint.clone(), cfg.seed);
    let book: Arc<[SocketAddr]> = book.into();
    let handle =
        std::thread::spawn(move || node::node_loop(sock, book, engine, WallClock::start()));

    // One request, never retransmitted, so no client datagram wakes the
    // node either.
    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    let put = WireMsg::ClientPut {
        req: 1,
        key: 7,
        value: 70,
    };
    let frame = wire::encode_frame(&Datagram {
        from: CLIENT_NODE_ID,
        msg: put,
    });
    client.send_to(&frame, addr).expect("send");
    let deadline = ServeConfig::wall_clock_retry().op_deadline.as_micros();
    client
        .set_read_timeout(Some(Duration::from_micros(deadline)))
        .expect("set timeout");
    let mut buf = [0u8; 2048];
    let (n, _) = client
        .recv_from(&mut buf)
        .expect("an answer within the operation deadline");
    let (dg, _) = wire::decode_frame(&buf[..n]).expect("well-formed answer");
    assert_eq!(
        dg.msg,
        WireMsg::ClientPutDone {
            req: 1,
            status: OpStatus::Failed
        }
    );

    drain_targets(&[addr]).expect("node drains");
    let report = handle.join().expect("node thread");
    assert_eq!(report.client_completed, 1);
    assert_eq!(report.counters.advertises_issued, 1);
    assert_eq!(report.counters.completed_failed, 1);
    assert!(report.counters.op_retries > 0, "the put was retried");
}

#[test]
fn duplicate_after_completion_replays_cached_answer() {
    let cluster = Cluster::spawn(ServeConfig::sized(3, 17, 0.1)).expect("spawn");
    let addrs = cluster.addrs().to_vec();
    let sock = client_socket();

    // Retransmits after completion can leave stale (identical) answers
    // in the client socket buffer; await the *expected* reply and
    // discard anything else so phases cannot cross-contaminate.
    let await_reply = |msg: &WireMsg, want: &WireMsg| {
        let frame = wire::encode_frame(&Datagram {
            from: CLIENT_NODE_ID,
            msg: msg.clone(),
        });
        let mut buf = [0u8; 2048];
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            sock.send_to(&frame, addrs[0]).expect("send");
            if let Ok((n, _)) = sock.recv_from(&mut buf) {
                if let Ok((dg, _)) = wire::decode_frame(&buf[..n]) {
                    if dg.msg == *want {
                        return;
                    }
                }
            }
        }
        panic!("expected reply {want:?} never arrived");
    };

    let put = WireMsg::ClientPut {
        req: 100,
        key: 7,
        value: 1234,
    };
    let done = WireMsg::ClientPutDone {
        req: 100,
        status: OpStatus::Ok,
    };
    await_reply(&put, &done);

    // Retransmit the *same* request after completion, several times —
    // modelling a lost ClientPutDone. Every copy must be answered from
    // the completed-request cache without starting a new operation.
    for _ in 0..3 {
        await_reply(&put, &done);
    }

    let get = WireMsg::ClientGet { req: 101, key: 7 };
    let got = WireMsg::ClientGetDone {
        req: 101,
        status: OpStatus::Ok,
        value: 1234,
    };
    await_reply(&get, &got);
    for _ in 0..3 {
        await_reply(&get, &got);
    }

    let reports = cluster.drain().expect("drain");
    let coord = &reports[0];
    // One advertise and one lookup ran end to end; the duplicates were
    // replayed, not re-executed as fresh quorum operations.
    assert_eq!(coord.counters.advertises_issued, 1);
    assert_eq!(coord.counters.lookups_issued, 1);
    assert_eq!(coord.client_completed, 2);
}

#[test]
fn drain_acks_and_closes_sockets() {
    let cluster = Cluster::spawn(ServeConfig::sized(3, 11, 0.1)).expect("spawn");
    let addrs = cluster.addrs().to_vec();
    ping_targets(&addrs, Duration::from_secs(5)).expect("alive before drain");

    let reports = cluster.drain().expect("drain idle cluster");
    for r in &reports {
        assert_eq!(r.counters.refused, 0, "nothing was in flight to refuse");
    }
    // Every socket is closed: no node answers a health check any more.
    let err = ping_targets(&addrs, Duration::from_millis(300))
        .expect_err("drained nodes must not answer pings");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
}

#[test]
fn junk_datagrams_are_counted_and_service_survives() {
    let cluster = Cluster::spawn(ServeConfig::sized(2, 3, 0.1)).expect("spawn");
    let addrs = cluster.addrs().to_vec();
    let sock = client_socket();

    // Raw junk: empty, garbage, a frame with a corrupted magic.
    sock.send_to(&[], addrs[0]).expect("send empty");
    sock.send_to(&[0xde, 0xad, 0xbe, 0xef, 0x01], addrs[0])
        .expect("send junk");
    let mut bad = wire::encode_frame(&Datagram {
        from: CLIENT_NODE_ID,
        msg: WireMsg::Ping { nonce: 1 },
    });
    bad[4] ^= 0xff;
    sock.send_to(&bad, addrs[0]).expect("send bad magic");

    // The node still serves a real put/get round trip afterwards.
    let reply = request(
        &sock,
        addrs[0],
        &WireMsg::ClientPut {
            req: 1,
            key: 42,
            value: 9000,
        },
    );
    assert_eq!(
        reply,
        WireMsg::ClientPutDone {
            req: 1,
            status: OpStatus::Ok
        }
    );
    let reply = request(&sock, addrs[1], &WireMsg::ClientGet { req: 2, key: 42 });
    assert_eq!(
        reply,
        WireMsg::ClientGetDone {
            req: 2,
            status: OpStatus::Ok,
            value: 9000
        }
    );

    let reports = cluster.drain().expect("drain");
    assert!(
        reports[0].malformed_datagrams >= 3,
        "junk must be counted, got {}",
        reports[0].malformed_datagrams
    );
    assert_eq!(reports.iter().map(|r| r.client_completed).sum::<u64>(), 2);
}
