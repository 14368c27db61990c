//! Failure-handling integration tests: leader crashes, replica recovery,
//! catch-up, and T-Paxos leader-switch semantics (§3.6).

use bytes::Bytes;
use gridpaxos::core::prelude::*;
use gridpaxos::simnet::workload::{Driver, OpLoop, TxnLoop};
use gridpaxos::simnet::{Metrics, SimOpts, Topology, World};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const START: Time = Time(200_000_000);
const DEADLINE: Time = Time(3_600_000_000_000);

fn world(seed: u64, cfg: Config) -> World {
    let opts = SimOpts::for_topology(Topology::sysnet(cfg.n), seed);
    World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())))
}

fn settle_and_check(w: &mut World) {
    let settle = w.now.after(Dur::from_secs(2));
    w.run_until(settle);
    let states = w.replica_states();
    assert!(
        states.windows(2).all(|p| p[0] == p[1]),
        "replica states diverged"
    );
}

#[test]
fn leader_crash_mid_workload_loses_nothing() {
    let mut w = world(1, Config::cluster(3));
    for _ in 0..4 {
        w.add_client(Box::new(OpLoop::new(RequestKind::Write, 5000)), None, START);
    }
    w.crash_at(ProcessId(0), Time(Dur::from_millis(600).0));
    assert!(w.run_to_completion(DEADLINE));
    assert_eq!(w.metrics.completed_ops, 20_000);
    assert_ne!(w.leader(), Some(ProcessId(0)), "someone else leads now");
    settle_and_check(&mut w);
}

#[test]
fn reads_survive_leader_crash() {
    let mut w = world(2, Config::cluster(3));
    for _ in 0..4 {
        w.add_client(Box::new(OpLoop::new(RequestKind::Read, 5000)), None, START);
    }
    w.crash_at(ProcessId(0), Time(Dur::from_millis(500).0));
    assert!(w.run_to_completion(DEADLINE));
    assert_eq!(w.metrics.completed_ops, 20_000);
}

#[test]
fn crashed_leader_recovers_as_follower_and_catches_up() {
    let mut w = world(3, Config::cluster(3));
    for _ in 0..2 {
        w.add_client(Box::new(OpLoop::new(RequestKind::Write, 8000)), None, START);
    }
    w.crash_at(ProcessId(0), Time(Dur::from_millis(500).0));
    w.recover_at(ProcessId(0), Time(Dur::from_secs(2).0));
    assert!(w.run_to_completion(DEADLINE));
    settle_and_check(&mut w);
    // The recovered replica is back and fully caught up.
    let r0 = w.replica(ProcessId(0)).expect("r0 is up");
    let leader = w.leader().expect("stable leader");
    assert_eq!(
        r0.chosen_prefix(),
        w.replica(leader).unwrap().chosen_prefix()
    );
}

#[test]
fn double_leader_crash_is_survived() {
    let mut w = world(4, Config::cluster(3));
    for _ in 0..4 {
        w.add_client(
            Box::new(OpLoop::new(RequestKind::Write, 10_000)),
            None,
            START,
        );
    }
    // Crash the bootstrap leader, then whoever is likely to succeed it.
    w.crash_at(ProcessId(0), Time(Dur::from_millis(500).0));
    w.recover_at(ProcessId(0), Time(Dur::from_millis(1500).0));
    w.crash_at(ProcessId(1), Time(Dur::from_millis(2500).0));
    w.recover_at(ProcessId(1), Time(Dur::from_millis(3500).0));
    w.crash_at(ProcessId(2), Time(Dur::from_millis(4500).0));
    w.recover_at(ProcessId(2), Time(Dur::from_millis(5500).0));
    assert!(w.run_to_completion(DEADLINE));
    assert_eq!(w.metrics.completed_ops, 40_000);
    settle_and_check(&mut w);
}

/// A [`TxnLoop`] that raises `answered` when one of its transaction's
/// operations is answered: at that instant the session is open at the
/// leader, and the step the reply triggers — the next operation or the
/// commit — has not reached it.
struct Watched {
    inner: TxnLoop,
    answered: Arc<AtomicBool>,
}

impl Driver for Watched {
    fn kick(&mut self, core: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
        self.inner.kick(core, now)
    }

    fn on_complete(&mut self, done: &CompletedOp, now: Time, metrics: &mut Metrics) {
        if done.req.is_txn_op() {
            self.answered.store(true, Ordering::Relaxed);
        }
        self.inner.on_complete(done, now, metrics);
    }

    fn done(&self) -> bool {
        self.inner.done()
    }
}

#[test]
fn tpaxos_mid_transaction_leader_switch_aborts_then_retry_commits() {
    for seed in 5..=10 {
        let cfg = Config::cluster(3).with_txn_mode(TxnMode::TPaxos);
        let opts = SimOpts::for_topology(Topology::sysnet(3), seed);
        let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
        let answered = Arc::new(AtomicBool::new(false));
        for _ in 0..4 {
            let inner = TxnLoop::new(TxnScript::write_only(5), 2000);
            let answered = Arc::clone(&answered);
            w.add_client(Box::new(Watched { inner, answered }), None, START);
        }
        // The leader dies the instant a session's operation is answered,
        // so that session's next step reaches a leader without it.
        w.run_until(Time(Dur::from_millis(1000).0));
        answered.store(false, Ordering::Relaxed);
        while !answered.load(Ordering::Relaxed) {
            assert!(w.step(), "seed {seed}: the workload ended before the crash");
        }
        let leader = w.leader().expect("a leader before the crash");
        w.crash_at(leader, w.now);
        w.recover_at(leader, w.now.after(Dur::from_secs(1)));
        assert!(w.run_to_completion(DEADLINE), "seed {seed}");
        // Every targeted transaction eventually committed...
        assert_eq!(w.metrics.txn_commits, 8000, "seed {seed}");
        // ...but the switch aborted the one caught mid-session (T-Paxos's
        // §3.6 sensitivity).
        assert!(
            w.metrics.txn_aborts >= 1,
            "seed {seed}: expected a LeaderSwitch abort, got {}",
            w.metrics.txn_aborts
        );
        settle_and_check(&mut w);
    }
}

#[test]
fn perop_transactions_are_insensitive_to_leader_switches() {
    // Per-operation coordination replicates staged effects, so a leader
    // switch mid-transaction does NOT force an abort — the contrast the
    // paper draws in §3.6.
    let cfg = Config::cluster(3).with_txn_mode(TxnMode::PerOp);
    let mut w = {
        let opts = SimOpts::for_topology(Topology::sysnet(3), 6);
        World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())))
    };
    for _ in 0..4 {
        w.add_client(
            Box::new(TxnLoop::new(TxnScript::write_only(5), 500)),
            None,
            START,
        );
    }
    w.crash_at(ProcessId(0), Time(Dur::from_millis(700).0));
    assert!(w.run_to_completion(DEADLINE));
    assert_eq!(w.metrics.txn_commits, 2000);
    assert_eq!(
        w.metrics.txn_aborts, 0,
        "per-op transactions must survive the switch"
    );
    settle_and_check(&mut w);
}

#[test]
fn fresh_replica_joining_catches_up_via_snapshot_after_checkpoint() {
    // Checkpointing truncates the log, so a replica that was down for long
    // must be served a snapshot, not log entries.
    let cfg = Config::cluster(3).with_checkpoint_every(64);
    let mut w = {
        let opts = SimOpts::for_topology(Topology::sysnet(3), 7);
        World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())))
    };
    w.add_client(Box::new(OpLoop::new(RequestKind::Write, 3000)), None, START);
    w.crash_at(ProcessId(2), Time(Dur::from_millis(300).0));
    w.recover_at(ProcessId(2), Time(Dur::from_millis(1200).0));
    assert!(w.run_to_completion(DEADLINE));
    settle_and_check(&mut w);
    let leader = w.leader().expect("leader");
    assert!(
        w.replica(leader).unwrap().stats.catchups_served > 0,
        "the leader must have served catch-up"
    );
}

#[test]
fn minority_crash_in_five_replica_group_is_transparent() {
    let mut w = world(8, Config::cluster(5));
    for _ in 0..2 {
        w.add_client(Box::new(OpLoop::new(RequestKind::Write, 3000)), None, START);
    }
    w.crash_at(ProcessId(3), Time(Dur::from_millis(400).0));
    w.crash_at(ProcessId(4), Time(Dur::from_millis(500).0));
    assert!(w.run_to_completion(DEADLINE));
    assert_eq!(w.metrics.completed_ops, 6000);
}

#[test]
fn sharded_group_leader_crash_is_isolated_to_its_group() {
    // Four consensus groups over three nodes; group g's bootstrap leader
    // is node g mod 3, so crashing node 0 decapitates groups 0 and 3 while
    // groups 1 and 2 keep their leaders on the surviving nodes.
    let n_groups = 4usize;
    let router = ShardRouter::new(|req: &Request| req.op.first().map(|b| u64::from(*b)));
    let opts = SimOpts::for_topology(Topology::sysnet(3), 10);
    let mut w = World::new_sharded(
        Config::cluster(3),
        opts,
        Box::new(|_g| Box::new(NoopApp::new())),
        n_groups,
        Some(router),
    );
    for g in 0..n_groups as u8 {
        for _ in 0..2 {
            w.add_client(
                Box::new(OpLoop::with_payload(
                    RequestKind::Write,
                    4000,
                    Bytes::from(vec![g]),
                )),
                None,
                START,
            );
        }
    }
    let crash = Time(Dur::from_millis(600).0);
    w.crash_at(ProcessId(0), crash);

    // Just inside the suspect window after the crash: group 0 has no
    // leader yet, but the groups led by surviving nodes keep choosing.
    w.run_until(crash);
    let chosen_at_crash: Vec<_> = (1..3u32)
        .map(|g| {
            w.group_replica(ProcessId(1), GroupId(g))
                .unwrap()
                .chosen_prefix()
        })
        .collect();
    w.run_until(Time(crash.0 + Dur::from_millis(30).0));
    assert_eq!(
        w.leader_of(GroupId(0)),
        None,
        "group 0 is leaderless during the suspect window"
    );
    for (i, g) in (1..3u32).enumerate() {
        let chosen = w
            .group_replica(ProcessId(1), GroupId(g))
            .unwrap()
            .chosen_prefix();
        assert!(
            chosen > chosen_at_crash[i],
            "group {g} kept serving through the crash"
        );
    }

    // The decapitated groups re-elect and the whole workload completes.
    assert!(w.run_to_completion(DEADLINE));
    assert_eq!(w.metrics.completed_ops, 4 * 2 * 4000);
    assert_ne!(w.leader_of(GroupId(0)), Some(ProcessId(0)));
    assert_ne!(w.leader_of(GroupId(3)), Some(ProcessId(0)));
    assert_eq!(
        w.leader_of(GroupId(1)),
        Some(ProcessId(1)),
        "undisturbed group keeps its leader"
    );
    assert_eq!(
        w.leader_of(GroupId(2)),
        Some(ProcessId(2)),
        "undisturbed group keeps its leader"
    );
    // Per-group convergence across the surviving nodes.
    let settle = w.now.after(Dur::from_secs(2));
    w.run_until(settle);
    for g in 0..n_groups as u32 {
        let states = w.replica_states_of(GroupId(g));
        assert!(
            states.windows(2).all(|p| p[0] == p[1]),
            "group {g} diverged"
        );
    }
}

#[test]
fn majority_crash_stalls_until_recovery() {
    let mut w = world(9, Config::cluster(3));
    w.add_client(
        Box::new(OpLoop::new(RequestKind::Write, 50_000)),
        None,
        START,
    );
    // Take down a majority shortly after start...
    w.crash_at(ProcessId(1), Time(Dur::from_millis(400).0));
    w.crash_at(ProcessId(2), Time(Dur::from_millis(400).0));
    // ...confirm no progress while down...
    w.run_until(Time(Dur::from_secs(3).0));
    let stalled_at = w.metrics.completed_ops;
    w.run_until(Time(Dur::from_secs(5).0));
    assert!(
        w.metrics.completed_ops <= stalled_at + 1,
        "no commits without a majority"
    );
    // ...and that recovery resumes service.
    w.recover_at(ProcessId(1), Time(Dur::from_secs(5).0));
    assert!(w.run_to_completion(DEADLINE));
    assert_eq!(w.metrics.completed_ops, 50_000);
    settle_and_check(&mut w);
}
