//! Property tests for cross-shard 2PC atomicity: random concurrent
//! transfer workloads under randomized crash, partition and
//! checkpoint/WAL-truncation schedules must always conserve the total
//! balance — a violated sum is a half-committed transfer.

use gridpaxos::core::prelude::*;
use gridpaxos::services::{shard_router, transfer_legs, KvStore};
use gridpaxos::simnet::workload::TransferLoop;
use gridpaxos::simnet::{SimOpts, Topology, World};
use proptest::prelude::*;

const START: Time = Time(200_000_000);
const DEADLINE: Time = Time(3_600_000_000_000);

fn acct(i: usize) -> String {
    format!("acct{i}")
}

fn sharded_world(cfg: Config, seed: u64, n_groups: usize) -> World {
    let opts = SimOpts::for_topology(Topology::sysnet(3), seed);
    World::new_sharded(
        cfg,
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
                0x9eed_0000 + c as u64,
                Box::new(legs),
            )),
            None,
            START,
        );
    }
}

/// Settle, decode every group's agreed snapshot, and assert the 2PC
/// atomicity invariant: replicas agree, no prepared intent survives
/// quiescence, and the books balance to zero.
fn assert_conserved(w: &mut World, n_groups: usize) -> Result<(), TestCaseError> {
    let settle = w.now.after(Dur::from_secs(2));
    w.run_until(settle);
    let mut total = 0i64;
    for g in 0..n_groups {
        let states = w.replica_states_of(GroupId(g as u32));
        prop_assert!(!states.is_empty(), "group {g} has no live replicas");
        prop_assert!(
            states.windows(2).all(|p| p[0] == p[1]),
            "group {g} replicas diverged"
        );
        let mut s = KvStore::sharded_in(g as u32, n_groups);
        s.restore(&states[0].1);
        prop_assert!(
            s.prepared_txns().is_empty(),
            "group {g} leaked prepared intents {:?}",
            s.prepared_txns()
        );
        for (k, v) in s.iter() {
            if k.starts_with("acct") {
                total += v.parse::<i64>().map_err(|_| {
                    TestCaseError::fail(format!("group {g} key {k} holds non-integer {v:?}"))
                })?;
            }
        }
    }
    prop_assert_eq!(
        total,
        0,
        "money created or destroyed: a half-committed transfer"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Concurrent cross-shard transfers under a randomized crash window
    /// and a randomized network partition (one node isolated from the
    /// other two — the majority side keeps working, the minority rejoins
    /// on heal). Whatever the schedule, every transfer eventually commits
    /// and the books balance.
    #[test]
    fn transfers_conserve_under_crash_and_partition_schedules(
        seed in any::<u64>(),
        n_groups in 2usize..5,
        clients in 2usize..4,
        crash_node in 0u32..3,
        crash_ms in 300u64..1200,
        down_ms in 400u64..1500,
        isolate_node in 0u32..3,
        part_from_ms in 300u64..1200,
        part_dur_ms in 300u64..1000,
        partition in any::<bool>(),
    ) {
        let per = 12u64;
        let mut w = sharded_world(Config::cluster(3), seed, n_groups);
        add_transfer_clients(&mut w, clients, 10, n_groups, per);
        w.crash_at(ProcessId(crash_node), Time(Dur::from_millis(crash_ms).0));
        w.recover_at(
            ProcessId(crash_node),
            Time(Dur::from_millis(crash_ms + down_ms).0),
        );
        if partition {
            // Isolate one node; the listed pair keeps a majority. Never
            // overlap an isolation of one node with the crash of another
            // — together they would stall every group for the overlap
            // (fine for safety, but needlessly slow).
            let pair: Vec<u32> = (0..3).filter(|n| *n != isolate_node).collect();
            let from = crash_ms + down_ms + part_from_ms;
            w.partition(
                vec![pair],
                Time(Dur::from_millis(from).0),
                Time(Dur::from_millis(from + part_dur_ms).0),
            );
        }
        prop_assert!(
            w.run_to_completion(DEADLINE),
            "transfers did not finish under the schedule"
        );
        prop_assert!(w.metrics.txn_commits >= clients as u64 * per);
        assert_conserved(&mut w, n_groups)?;
    }

    /// WAL-truncation torture: with an aggressive checkpoint cadence every
    /// node's log is truncated up to the latest checkpoint over and over
    /// while 2PC intents are live, so a crashed node's recovery state is
    /// dominated by a checkpoint taken mid-transaction — prepared intents,
    /// key locks and the home group's decision table must ride the
    /// snapshot or the recovered node resurrects without its vote and
    /// atomicity breaks. The image streams in 256 B chunks or, at 64 KiB,
    /// as one chunk.
    #[test]
    fn intents_survive_checkpoint_truncation_and_crash(
        seed in any::<u64>(),
        crash_node in 0u32..3,
        crash_ms in 300u64..1500,
        down_ms in 400u64..1500,
        chunk_bytes in prop_oneof![Just(256usize), Just(64 * 1024)],
    ) {
        let n_groups = 4;
        let clients = 3;
        let per = 12u64;
        let mut cfg = Config::cluster(3);
        // Checkpoint (and truncate the WAL) every 4 chosen decrees: with
        // transfers continuously holding prepared intents, most
        // checkpoints snapshot live 2PC state.
        cfg.checkpoint_every = 4;
        cfg.checkpoint_chunk_bytes = chunk_bytes;
        let mut w = sharded_world(cfg, seed, n_groups);
        add_transfer_clients(&mut w, clients, 8, n_groups, per);
        w.crash_at(ProcessId(crash_node), Time(Dur::from_millis(crash_ms).0));
        w.recover_at(
            ProcessId(crash_node),
            Time(Dur::from_millis(crash_ms + down_ms).0),
        );
        prop_assert!(
            w.run_to_completion(DEADLINE),
            "transfers did not finish under truncation torture"
        );
        prop_assert!(w.metrics.txn_commits >= clients as u64 * per);
        assert_conserved(&mut w, n_groups)?;
    }
}
