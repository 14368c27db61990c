//! End-to-end integration tests on the simulator: failure-free runs across
//! the paper's topologies, protocol-mode equivalences, and replica
//! consistency under load.

use gridpaxos::core::prelude::*;
use gridpaxos::simnet::workload::{OpLoop, TxnLoop};
use gridpaxos::simnet::{Experiment, SimOpts, Topology, World};

const START: Time = Time(200_000_000);
const DEADLINE: Time = Time(3_600_000_000_000);

fn run_ops(
    cfg: Config,
    topology: Topology,
    kind: RequestKind,
    clients: usize,
    per_client: u64,
    seed: u64,
) -> World {
    let mut exp =
        Experiment::on(topology, seed).clients(clients, |_| OpLoop::new(kind, per_client));
    exp.cfg = cfg;
    let (mut w, done) = exp.run();
    assert!(done, "run must complete");
    let settle = w.now.after(Dur::from_secs(1));
    w.run_until(settle);
    w
}

fn assert_converged(w: &World) {
    let states = w.replica_states();
    assert!(
        states.windows(2).all(|p| p[0] == p[1]),
        "replica states diverged: {:?}",
        states.iter().map(|(i, _)| i).collect::<Vec<_>>()
    );
}

#[test]
fn writes_on_every_paper_topology_converge() {
    for (topo, cfg) in [
        (Topology::sysnet(3), Config::cluster(3)),
        (Topology::berkeley_princeton(3), Config::wan(3)),
        (Topology::wan_spread(), Config::wan(3)),
    ] {
        let name = topo.name;
        let w = run_ops(cfg, topo, RequestKind::Write, 4, 50, 1);
        assert_eq!(w.metrics.completed_ops, 200, "topology {name}");
        assert_converged(&w);
    }
}

#[test]
fn xpaxos_reads_consume_no_instances() {
    let w = run_ops(
        Config::cluster(3),
        Topology::sysnet(3),
        RequestKind::Read,
        4,
        100,
        2,
    );
    assert_eq!(w.metrics.completed_ops, 400);
    let leader = w.leader().expect("stable leader");
    let prefix = w.replica(leader).unwrap().chosen_prefix();
    assert_eq!(prefix, Instance::ZERO, "reads must not occupy instances");
}

#[test]
fn consensus_reads_and_xpaxos_reads_return_same_results() {
    // Both modes must observe the latest committed write.
    for mode in [ReadMode::XPaxos, ReadMode::Consensus] {
        let cfg = Config::cluster(3).with_read_mode(mode);
        let opts = SimOpts::for_topology(Topology::sysnet(3), 3);
        let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
        // One client interleaves writes and reads.
        struct Alternating {
            remaining: u64,
            outstanding: bool,
            last_read_value: Option<u64>,
            writes_done: u64,
        }
        impl gridpaxos::simnet::workload::Driver for Alternating {
            fn kick(
                &mut self,
                core: &mut gridpaxos::core::client::ClientCore,
                now: Time,
            ) -> Option<Vec<Action>> {
                if self.outstanding || self.remaining == 0 {
                    return None;
                }
                self.remaining -= 1;
                self.outstanding = true;
                let kind = if self.remaining.is_multiple_of(2) {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                Some(core.submit_op(kind, bytes::Bytes::new(), now))
            }
            fn on_complete(
                &mut self,
                done: &gridpaxos::core::client::CompletedOp,
                _now: Time,
                _m: &mut gridpaxos::simnet::Metrics,
            ) {
                self.outstanding = false;
                match done.req.kind {
                    RequestKind::Write => self.writes_done += 1,
                    RequestKind::Read => {
                        let payload = done.body.payload().expect("read reply");
                        let v = u64::from_le_bytes(payload[..8].try_into().unwrap());
                        assert_eq!(
                            v, self.writes_done,
                            "read must reflect the latest committed write"
                        );
                        self.last_read_value = Some(v);
                    }
                    RequestKind::Original => {}
                }
            }
            fn done(&self) -> bool {
                self.remaining == 0 && !self.outstanding
            }
        }
        w.add_client(
            Box::new(Alternating {
                remaining: 40,
                outstanding: false,
                last_read_value: None,
                writes_done: 0,
            }),
            None,
            START,
        );
        assert!(w.run_to_completion(DEADLINE), "mode {mode:?}");
    }
}

#[test]
fn classic_req_only_mode_matches_req_state_for_deterministic_service() {
    // NoopApp is deterministic, so the classic baseline must produce the
    // same final state as state shipping.
    let mut finals = Vec::new();
    for vm in [ValueMode::ReqState, ValueMode::ReqOnly] {
        let cfg = Config::cluster(3).with_value_mode(vm);
        let w = run_ops(cfg, Topology::sysnet(3), RequestKind::Write, 2, 50, 4);
        assert_converged(&w);
        finals.push(w.replica_states()[0].clone());
    }
    assert_eq!(finals[0], finals[1]);
}

#[test]
fn transactions_complete_in_both_modes_with_identical_state() {
    let mut finals = Vec::new();
    for mode in [TxnMode::PerOp, TxnMode::TPaxos] {
        let cfg = Config::cluster(3).with_txn_mode(mode);
        let opts = SimOpts::for_topology(Topology::sysnet(3), 5);
        let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
        for _ in 0..3 {
            w.add_client(
                Box::new(TxnLoop::new(TxnScript::write_only(3), 20)),
                None,
                START,
            );
        }
        assert!(w.run_to_completion(DEADLINE), "mode {mode:?}");
        assert_eq!(w.metrics.txn_commits, 60);
        assert_eq!(w.metrics.txn_aborts, 0);
        let settle = w.now.after(Dur::from_secs(1));
        w.run_until(settle);
        assert_converged(&w);
        finals.push(w.replica_states()[0].1.clone());
    }
    // 60 committed transactions of 1 "write effect" each (NoopApp counts a
    // commit as one write) — same final count in both modes.
    assert_eq!(finals[0], finals[1]);
}

#[test]
fn lossy_network_still_completes_via_retransmission() {
    let mut topo = Topology::sysnet(3);
    topo.loss = 0.01; // 1% of all messages vanish
    let cfg = Config::cluster(3);
    let opts = SimOpts::for_topology(topo, 6);
    let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
    for _ in 0..2 {
        w.add_client(Box::new(OpLoop::new(RequestKind::Write, 200)), None, START);
    }
    assert!(w.run_to_completion(DEADLINE), "loss must be survivable");
    assert_eq!(w.metrics.completed_ops, 400);
    assert!(w.metrics.dropped_msgs > 0, "the loss model must have fired");
    let settle = w.now.after(Dur::from_secs(2));
    w.run_until(settle);
    assert_converged(&w);
}

#[test]
fn singleton_and_five_replica_groups_work() {
    for n in [1usize, 5] {
        let w = run_ops(
            Config::cluster(n),
            Topology::sysnet(n),
            RequestKind::Write,
            2,
            25,
            7,
        );
        assert_eq!(w.metrics.completed_ops, 50, "n={n}");
        assert_converged(&w);
    }
}

#[test]
fn throughput_report_shapes_hold() {
    // A cheap re-assertion of the paper's headline shapes (the full
    // regeneration lives in the bench harness).
    let tput = |kind| {
        let exp = Experiment::on(Topology::sysnet(3), 8).clients(8, |_| OpLoop::new(kind, 100));
        let (w, done) = exp.run();
        assert!(done, "run must complete");
        w.metrics.ops_per_sec()
    };
    let read = tput(RequestKind::Read);
    let write = tput(RequestKind::Write);
    let orig = tput(RequestKind::Original);
    assert!(read > write, "reads {read:.0} > writes {write:.0}");
    assert!(orig > read, "original {orig:.0} > reads {read:.0}");
}
