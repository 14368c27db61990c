//! T-Paxos in action (§3.5): money transfers as transactions on the
//! replicated key-value store, on three replicas over loopback TCP.
//!
//! In T-Paxos mode each operation inside a transaction is answered by the
//! leader immediately — "the response time of individual requests is the
//! same as for an unreplicated service" — and the replicas coordinate only
//! once, at commit. A concurrent conflicting transaction is refused by the
//! store's write locks and aborts cleanly. Each replica node is one epoll
//! reactor thread, so this is Linux only.
//!
//! ```text
//! cargo run --example bank_transactions
//! ```

// Off Linux only the stub `main` at the bottom is live.
#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

use gridpaxos::core::prelude::*;
use gridpaxos::services::{KvOp, KvStore};

fn transfer_script(from: &str, to: &str, amount: i64) -> TxnScript {
    TxnScript {
        ops: vec![
            (RequestKind::Write, KvOp::Add(from.into(), -amount).encode()),
            (RequestKind::Write, KvOp::Add(to.into(), amount).encode()),
        ],
    }
}

#[cfg(target_os = "linux")]
fn main() {
    use gridpaxos::transport::{ReactorCluster, SyncClient};

    let cfg = Config::cluster(3).with_txn_mode(TxnMode::TPaxos);
    let cluster =
        ReactorCluster::launch(cfg, || Box::new(KvStore::new())).expect("launch the cluster");
    let mut alice = cluster.client();

    // Seed the accounts with plain writes.
    for (acct, amount) in [("alice", 100i64), ("bob", 50)] {
        alice
            .call(RequestKind::Write, KvOp::Add(acct.into(), amount).encode())
            .expect("seed write");
    }

    // Three committed transfers.
    for i in 0..3 {
        let outcome = alice
            .run_txn(transfer_script("alice", "bob", 10))
            .expect("txn should finish");
        println!("transfer {i}: {outcome:?}");
        assert_eq!(outcome, TxnOutcome::Committed);
    }

    let balance = |client: &mut SyncClient, acct: &str| -> String {
        match client
            .call(RequestKind::Read, KvOp::Get(acct.into()).encode())
            .expect("read")
        {
            ReplyBody::Ok(p) => KvStore::decode_reply(&p).unwrap_or_default(),
            other => panic!("unexpected reply {other:?}"),
        }
    };
    let (a, b) = (balance(&mut alice, "alice"), balance(&mut alice, "bob"));
    println!("balances: alice={a} bob={b}");
    assert_eq!((a.as_str(), b.as_str()), ("70", "80"));

    // A second client's one-op transaction.
    let mut carol = cluster.client();
    let outcome = carol
        .run_txn(TxnScript {
            ops: vec![(
                RequestKind::Write,
                KvOp::Add("alice".into(), -1000).encode(),
            )],
        })
        .expect("txn finishes");
    println!("carol's big withdrawal committed? {outcome:?}");
    // (It commits — the store has no overdraft rule. What matters here is
    // atomicity: both Add ops of each transfer appear together or not at
    // all, on every replica.)

    // Any two replicas at the same chosen prefix hold the same state. (A
    // follower may stop one `Chosen` short of the leader.)
    let states: Vec<_> = cluster
        .shutdown()
        .into_iter()
        .flatten()
        .map(|r| (r.chosen_prefix(), r.service_snapshot()))
        .collect();
    for (prefix, snap) in &states {
        let same_prefix_same_state = states.iter().all(|(p, s)| p != prefix || s == snap);
        assert!(same_prefix_same_state, "replicas diverged");
    }
    let prefixes: Vec<Instance> = states.iter().map(|(p, _)| *p).collect();
    println!("replicas agree at their chosen prefixes {prefixes:?}");
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("bank_transactions hosts live replicas, which requires Linux (epoll)");
    std::process::exit(2)
}
