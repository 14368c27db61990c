//! Quickstart: a replicated key-value store on three replicas over
//! loopback TCP.
//!
//! Demonstrates the 90-second path from zero to a fault-tolerant service:
//! launch three replica nodes, then issue writes, X-Paxos reads and a run
//! of increments through a blocking client. Each node is one epoll
//! reactor thread, as `gridpaxos-server` runs it, so this is Linux only.
//!
//! ```text
//! cargo run --example quickstart
//! ```

// Off Linux only the stub `main` at the bottom is live.
#![cfg_attr(not(target_os = "linux"), allow(unused_imports))]

use gridpaxos::core::prelude::*;
use gridpaxos::services::{KvOp, KvStore};

#[cfg(target_os = "linux")]
fn main() {
    use gridpaxos::transport::ReactorCluster;

    // 1. Three replica nodes on loopback ports (in a real deployment, one
    //    `gridpaxos-server` per machine — the protocol code is identical).
    let cluster = ReactorCluster::launch(Config::cluster(3), || Box::new(KvStore::new()))
        .expect("launch the cluster");

    // 2. A blocking client. Its first request and every retry go to the
    //    whole group (§3.3: clients never need to know who leads); later
    //    writes go to the replica that answered. The retry also rides out
    //    the bootstrap election.
    let mut client = cluster.client();

    // 3. Writes go through the basic protocol (consensus on ⟨req, state⟩).
    let put = KvOp::Put("greeting".into(), "hello, grid".into());
    let reply = client
        .call(RequestKind::Write, put.encode())
        .expect("write should complete");
    println!("put  -> {reply:?}");

    // 4. Reads take the X-Paxos fast path: no consensus instance, just a
    //    majority of leadership confirmations.
    let get = KvOp::Get("greeting".into());
    let reply = client
        .call(RequestKind::Read, get.encode())
        .expect("read should complete");
    if let ReplyBody::Ok(payload) = &reply {
        println!("get  -> {:?}", KvStore::decode_reply(payload));
    }

    // 5. Counters survive concurrent increments because every write is
    //    sequenced by the leader.
    for _ in 0..5 {
        let inc = KvOp::Add("hits".into(), 1);
        client
            .call(RequestKind::Write, inc.encode())
            .expect("increment should complete");
    }
    let reply = client
        .call(RequestKind::Read, KvOp::Get("hits".into()).encode())
        .expect("read should complete");
    if let ReplyBody::Ok(payload) = &reply {
        println!("hits -> {:?}", KvStore::decode_reply(payload));
        assert_eq!(KvStore::decode_reply(payload).as_deref(), Some("5"));
    }

    // 6. Shut down and inspect the replicas: any two at the same chosen
    //    prefix hold the same state. (A follower may stop one `Chosen`
    //    short of the leader.)
    let states: Vec<_> = cluster
        .shutdown()
        .into_iter()
        .flatten()
        .map(|r| (r.chosen_prefix(), r.service_snapshot()))
        .collect();
    for (prefix, snap) in &states {
        let same_prefix_same_state = states.iter().all(|(p, s)| p != prefix || s == snap);
        assert!(same_prefix_same_state, "replicas diverged!");
    }
    let prefixes: Vec<Instance> = states.iter().map(|(p, _)| *p).collect();
    println!("replicas agree at their chosen prefixes {prefixes:?}");
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("quickstart hosts live replicas, which requires Linux (epoll)");
    std::process::exit(2)
}
