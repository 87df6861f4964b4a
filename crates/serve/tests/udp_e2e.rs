//! End-to-end tests of the real-socket datapath: a small cluster on
//! ephemeral localhost ports, driven by the verifying client and by raw
//! client frames. Kept small — the 120k-op sustained run lives in
//! check.sh's e2e smoke, not in the unit test suite.

use pqs_core::transport::{Datagram, OpStatus, WireMsg};
use pqs_core::wire;
use pqs_serve::load;
use pqs_serve::{ping_targets, Cluster, ServeConfig, CLIENT_NODE_ID};
use std::net::{SocketAddr, UdpSocket};
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
