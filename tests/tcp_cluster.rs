//! End-to-end tests over real TCP on loopback — the same deployment
//! substrate as the paper's prototype: reactor nodes serving blocking
//! `SyncClient`s. These run actual OS threads and sockets, so they are
//! kept small and generously timed.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use gridpaxos::core::prelude::*;
use gridpaxos::services::{KvOp, KvStore};
use gridpaxos::transport::ReactorCluster;

fn wait_for_leader() {
    // Bootstrap election over real sockets; cluster timeouts are tens of ms.
    std::thread::sleep(std::time::Duration::from_millis(300));
}

#[test]
fn tcp_write_then_read_roundtrip() {
    let cluster = ReactorCluster::launch(Config::cluster(3), || Box::new(KvStore::new()))
        .expect("launch cluster");
    wait_for_leader();
    let mut client = cluster.client();

    let reply = client
        .call(
            RequestKind::Write,
            KvOp::Put("k".into(), "v".into()).encode(),
        )
        .expect("write completes over TCP");
    assert!(matches!(reply, ReplyBody::Ok(_)));

    let reply = client
        .call(RequestKind::Read, KvOp::Get("k".into()).encode())
        .expect("read completes over TCP");
    let ReplyBody::Ok(payload) = reply else {
        panic!("unexpected reply");
    };
    assert_eq!(KvStore::decode_reply(&payload).as_deref(), Some("v"));

    // Replicas converge (give the final Chosen/heartbeat a moment to
    // propagate before stopping the threads).
    std::thread::sleep(std::time::Duration::from_millis(250));
    let replicas: Vec<Replica> = cluster.shutdown().into_iter().flatten().collect();
    assert_eq!(replicas.len(), 3);
    let snaps: Vec<Bytes> = replicas.iter().map(|r| r.service_snapshot()).collect();
    assert!(snaps.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(replicas[0].chosen_prefix(), Instance(1));
}

#[test]
fn tcp_multiple_clients_interleave() {
    let cluster = ReactorCluster::launch(Config::cluster(3), || Box::new(KvStore::new()))
        .expect("launch cluster");
    wait_for_leader();

    let mut handles = Vec::new();
    for c in 0..4 {
        let mut client = cluster.client();
        handles.push(std::thread::spawn(move || {
            for i in 0..10 {
                let op = KvOp::Add(format!("counter-{c}"), 1);
                let reply = client
                    .call(RequestKind::Write, op.encode())
                    .expect("write completes");
                assert!(matches!(reply, ReplyBody::Ok(_)), "c={c} i={i}");
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    std::thread::sleep(std::time::Duration::from_millis(250));
    let replicas: Vec<Replica> = cluster.shutdown().into_iter().flatten().collect();
    let snaps: Vec<Bytes> = replicas.iter().map(|r| r.service_snapshot()).collect();
    assert!(snaps.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
    // 40 writes total were sequenced.
    assert!(replicas[0].chosen_prefix().0 >= 1);
    let mut kv = KvStore::new();
    kv.restore(&snaps[0]);
    for c in 0..4 {
        assert_eq!(kv.get(&format!("counter-{c}")), Some("10"));
    }
}

#[test]
fn tcp_transactions_commit() {
    let cfg = Config::cluster(3).with_txn_mode(TxnMode::TPaxos);
    let cluster = ReactorCluster::launch(cfg, || Box::new(KvStore::new())).expect("launch");
    wait_for_leader();
    let mut client = cluster.client();

    let script = TxnScript {
        ops: vec![
            (
                RequestKind::Write,
                KvOp::Put("a".into(), "1".into()).encode(),
            ),
            (
                RequestKind::Write,
                KvOp::Put("b".into(), "2".into()).encode(),
            ),
        ],
    };
    let outcome = client.run_txn(script).expect("txn completes");
    assert_eq!(outcome, TxnOutcome::Committed);

    let reply = client
        .call(RequestKind::Read, KvOp::Get("b".into()).encode())
        .expect("read");
    let ReplyBody::Ok(payload) = reply else {
        panic!()
    };
    assert_eq!(KvStore::decode_reply(&payload).as_deref(), Some("2"));

    std::thread::sleep(std::time::Duration::from_millis(250));
    let replicas: Vec<Replica> = cluster.shutdown().into_iter().flatten().collect();
    let snaps: Vec<Bytes> = replicas.iter().map(|r| r.service_snapshot()).collect();
    assert!(snaps.windows(2).all(|w| w[0] == w[1]));
}

// The KvStore App impl is only reachable through the trait here.
