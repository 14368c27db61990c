//! Cross-shard transactions end to end: the 2PC coordination plane
//! (`gridpaxos_core::txn`) driving bank transfers across consensus
//! groups on the simulated network, with conservation and consistency
//! checked from the replicas' own snapshots.

use gridpaxos::core::prelude::*;
use gridpaxos::services::{
    agreed_stores, audit_transfers, shard_router, transfer_legs, KvOp, KvStore,
};
use gridpaxos::simnet::workload::{Driver, TransferLoop};
use gridpaxos::simnet::{SimOpts, Topology, World};
use std::sync::{Arc, OnceLock};

const START: Time = Time(200_000_000);
const DEADLINE: Time = Time(3_600_000_000_000);

fn acct(i: usize) -> String {
    format!("acct{i}")
}

fn sharded_world(seed: u64, n_groups: usize) -> World {
    let opts = SimOpts::for_topology(Topology::sysnet(3), seed);
    World::new_sharded(
        Config::cluster(3),
        opts,
        Box::new(move |g| Box::new(KvStore::sharded_in(g.0, n_groups))),
        n_groups,
        Some(shard_router()),
    )
}

fn add_transfer_clients(w: &mut World, clients: usize, accounts: usize, n_groups: usize, per: u64) {
    for c in 0..clients {
        let legs = move |s: usize, d: usize| transfer_legs(&acct(s), &acct(d), 1, n_groups);
        w.add_client(
            Box::new(TransferLoop::new(
                accounts,
                n_groups,
                per,
                0x5eed_0000 + c as u64,
                Box::new(legs),
            )),
            None,
            START,
        );
    }
}

/// Settle, decode every group's agreed snapshot and run the transfer
/// audit: replicas agree, no prepared intent survives quiescence, and
/// every transfer is a debit matched by an equal credit, so from all-zero
/// starting balances the books sum to zero.
fn audit(w: &mut World, n_groups: usize) {
    let settle = w.now.after(Dur::from_secs(2));
    w.run_until(settle);
    if let Err(v) = agreed_stores(n_groups, |g| w.replica_states_of(g))
        .and_then(|stores| audit_transfers(&stores))
    {
        panic!("{v}");
    }
}

#[test]
fn cross_shard_transfers_conserve_total_balance() {
    let n_groups = 4;
    let accounts = 16;
    // At least one account pair must actually cross shards, or this test
    // exercises nothing.
    let spread: std::collections::BTreeSet<u32> = (0..accounts)
        .map(|i| shard_of(KvOp::Get(acct(i)).shard_key().unwrap(), n_groups).0)
        .collect();
    assert!(spread.len() > 1, "accounts all hash to one group");

    let mut w = sharded_world(11, n_groups);
    add_transfer_clients(&mut w, 4, accounts, n_groups, 25);
    assert!(w.run_to_completion(DEADLINE), "transfers did not finish");
    assert!(w.metrics.txn_commits >= 4 * 25, "retries may add commits");

    audit(&mut w, n_groups);
}

#[test]
fn transfers_survive_participant_crash_and_recovery() {
    let n_groups = 4;
    let mut w = sharded_world(29, n_groups);
    add_transfer_clients(&mut w, 3, 12, n_groups, 20);
    // Node 0 bootstraps groups 0 and 3 (g mod 3): crashing it mid-run
    // kills participant and home-group leaders alike, mid-2PC for any
    // in-flight transfer.
    w.crash_at(ProcessId(0), Time(Dur::from_millis(700).0));
    w.recover_at(ProcessId(0), Time(Dur::from_secs(3).0));
    assert!(w.run_to_completion(DEADLINE), "transfers did not finish");
    assert!(w.metrics.txn_commits >= 3 * 20);

    audit(&mut w, n_groups);
}

/// Reads all groups' `acct*` keys via the scan+fence merged-read
/// protocol and records the outcome for the test body.
struct MergedScanClient {
    read: MergedRead,
    out: Arc<OnceLock<MergedReadResult>>,
}

impl Driver for MergedScanClient {
    fn kick(
        &mut self,
        core: &mut gridpaxos::core::client::ClientCore,
        now: Time,
    ) -> Option<Vec<Action>> {
        self.read.step(core, now)
    }

    fn on_complete(
        &mut self,
        done: &gridpaxos::core::client::CompletedOp,
        _now: Time,
        _m: &mut gridpaxos::simnet::Metrics,
    ) {
        if let Some(r) = self.read.on_complete(done) {
            let _ = self.out.set(r);
        }
    }

    fn done(&self) -> bool {
        self.out.get().is_some()
    }
}

#[test]
fn merged_scan_returns_fenced_consistent_snapshot() {
    let n_groups = 2;
    let mut w = sharded_world(41, n_groups);
    add_transfer_clients(&mut w, 2, 8, n_groups, 15);
    assert!(w.run_to_completion(DEADLINE), "transfers did not finish");

    // Quiescent store: the merged read's fence versions must match the
    // versions its scans observed, certifying no write slipped between
    // the two legs in any group.
    let out = Arc::new(OnceLock::new());
    let read = MergedRead::new(
        KvOp::Scan("acct".into()).encode(),
        KvOp::Fence.encode(),
        (0..n_groups as u32).map(GroupId).collect(),
    );
    let start = w.now.after(Dur::from_millis(50));
    w.add_client(
        Box::new(MergedScanClient {
            read,
            out: Arc::clone(&out),
        }),
        None,
        start,
    );
    assert!(w.run_to_completion(DEADLINE), "merged read did not finish");

    let result = out.get().cloned().expect("completed");
    let mut merged_total = 0i64;
    for (scan, fence) in result.scans.iter().zip(&result.fences) {
        let (v_scan, body) = KvStore::decode_versioned_scan(scan).expect("versioned scan payload");
        let v_fence = KvStore::decode_fence(fence).expect("fence payload");
        assert_eq!(v_scan, v_fence, "write raced the merged read");
        for line in body.lines() {
            let (_k, v) = line.split_once('=').expect("k=v scan lines");
            merged_total += v.parse::<i64>().expect("integer balance");
        }
    }
    // The merged snapshot is itself atomic: balances sum to zero.
    assert_eq!(merged_total, 0, "merged scan exposed a half-commit");
}
