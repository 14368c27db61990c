//! Unit tests for the replica roles, driven by a zero-latency in-memory
//! shuttle (failure-free runs need no timers; tests fire timers manually
//! where a scenario depends on them). The shuttle hosts a single-group
//! [`Node`] per replica, as every drive loop does: a replica's step is
//! its node's, and leaves through [`Node::release`], with the shuttle's
//! queue as the network.

use super::*;
use crate::client::ClientCore;
use crate::config::{ReadMode, TxnMode, ValueMode};
use crate::msg::{ImageRun, Msg};
use crate::node::{Inbox, Net, Node, TimerOps};
use crate::outbox::{Lent, Out, Outbox};
use crate::request::{AbortReason, ReplyBody, RequestKind};
use crate::service::NoopApp;
use crate::storage::{DurableState, MemStorage, NodeStorage, Storage, TailLossStorage};
use crate::types::{Addr, ClientId, Dur, GroupId, ProcessId, Seq, Time, TxnId};
use bytes::Bytes;

/// Zero-latency network: delivers every queued message immediately, in
/// FIFO order. Timer operations are dropped; tests fire timers on demand.
struct Shuttle {
    nodes: Vec<Option<Node>>,
    queue: std::collections::VecDeque<(Addr, Addr, Msg)>, // (from, to, msg)
    client_inbox: Vec<(ClientId, Msg)>,
    now: Time,
    /// The replica whose step is being released.
    stepping: u32,
    /// Of that step, the tag of each copy out so far, and how many left
    /// ahead of the barrier, once one ran.
    out: Vec<&'static str>,
    ahead: Option<usize>,
    /// Whether the power fails inside the release in progress: the
    /// barrier it lends is kept here, and comes back unsynced.
    power_cut: bool,
    lent: Option<Lent>,
    /// One line per replica step that sent anything, in the words of
    /// `outbox_conformance.txt`.
    trace: Vec<String>,
}

/// A node of one group, `p` of a cluster in `cfg`, on `disk`: fresh on
/// an empty one, recovered otherwise.
fn node(
    p: u32,
    cfg: Config,
    disk: Box<dyn NodeStorage>,
    app: fn() -> Box<dyn App>,
    seed: u64,
    now: Time,
) -> Node {
    Node::open(ProcessId(p), cfg, disk, &|_| app(), seed, now)
}

/// The storage of a node of one group, on `disk`.
fn one(disk: impl Storage + 'static) -> Box<dyn NodeStorage> {
    Box::new(vec![Box::new(disk) as Box<dyn Storage>])
}

/// What a crashed node of one group left on its disk.
fn load(mut disk: Box<dyn NodeStorage>) -> DurableState {
    disk.group(GroupId::ZERO).load()
}

impl Shuttle {
    fn new(n: usize, cfg: Config) -> Shuttle {
        Shuttle::on_disks(
            cfg,
            (0..n)
                .map(|_| Box::new(MemStorage::new()) as Box<dyn Storage>)
                .collect(),
        )
    }

    /// One replica per disk: fresh on an empty one, recovered otherwise.
    fn on_disks(cfg: Config, disks: Vec<Box<dyn Storage>>) -> Shuttle {
        Shuttle::serving(cfg, disks, || Box::new(NoopApp::new()))
    }

    /// [`Shuttle::on_disks`], replicating the service `app` builds.
    fn serving(cfg: Config, disks: Vec<Box<dyn Storage>>, app: fn() -> Box<dyn App>) -> Shuttle {
        let n = disks.len() as u32;
        let mut s = Shuttle {
            nodes: (0..n)
                .zip(disks)
                .map(|(p, disk)| {
                    Some(node(
                        p,
                        cfg.clone(),
                        Box::new(vec![disk]),
                        app,
                        7 + u64::from(p),
                        Time::ZERO,
                    ))
                })
                .collect(),
            queue: Default::default(),
            client_inbox: Vec::new(),
            now: Time::ZERO,
            stepping: 0,
            out: Vec::new(),
            ahead: None,
            power_cut: false,
            lent: None,
            trace: Vec::new(),
        };
        for p in 0..n {
            s.step(p, |node, now, timers| node.start(now, timers));
        }
        s.run();
        s
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    /// One step of replica `p`, if it is up: `run` on its node, then the
    /// release.
    fn step(&mut self, p: u32, run: impl FnOnce(&mut Node, Time, &mut TimerOps)) {
        let Some(mut node) = self.nodes[p as usize].take() else {
            return;
        };
        run(&mut node, self.now, &mut TimerOps::new());
        self.stepping = p;
        node.release(self);
        if let Some(lent) = self.lent.take() {
            node.barrier_back(lent, self, &mut Inbox::new());
        }
        self.nodes[p as usize] = Some(node);
        self.trace_step();
    }

    fn trace_step(&mut self) {
        let (ahead, barrier) = match self.ahead.take() {
            Some(k) => (k, "flush"),
            None => (0, "-"),
        };
        if !self.out.is_empty() {
            let (ahead, behind) = self.out.split_at(ahead);
            let line = format!(
                "r{}: {} | {barrier} | {}",
                self.stepping,
                ahead.join(" "),
                behind.join(" ")
            );
            // Single spaces, as the file has them.
            let words: Vec<_> = line.split_whitespace().collect();
            self.trace.push(words.join(" "));
        }
        self.out.clear();
    }

    /// Power fails on replica `p` inside the release of the step `run`
    /// takes: what may precede the barrier is on the wire, the barrier
    /// never returned. Returns what its disk holds.
    fn power_cut_mid_barrier(
        &mut self,
        p: u32,
        run: impl FnOnce(&mut Node, Time, &mut TimerOps),
    ) -> DurableState {
        self.power_cut = true;
        self.step(p, run);
        self.power_cut = false;
        load(self.crash(p))
    }

    /// A client's actions, sent as they are.
    fn send(&mut self, from: Addr, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => self.queue.push_back((from, to, msg)),
                Action::ToAllReplicas { msg } => self.send_all(from, msg),
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
            }
        }
    }

    fn send_all(&mut self, from: Addr, msg: Msg) {
        for i in 0..self.n() {
            let to = Addr::Replica(ProcessId(i as u32));
            if to != from {
                self.queue.push_back((from, to, msg.clone()));
            }
        }
    }

    /// Deliver until quiescent.
    fn run(&mut self) {
        let mut hops = 0;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            hops += 1;
            assert!(hops < 100_000, "message storm");
            match to {
                Addr::Replica(p) => {
                    self.step(p.0, |node, now, timers| {
                        node.deliver(from, msg, now, timers)
                    });
                }
                Addr::Client(c) => self.client_inbox.push((c, msg)),
            }
        }
    }

    fn fire(&mut self, p: u32, kind: TimerKind) {
        self.step(p, |node, now, timers| {
            node.fire(GroupId::ZERO, kind, now, timers);
        });
        self.run();
    }

    fn replica(&self, p: u32) -> &Replica {
        let node = self.nodes[p as usize].as_ref().unwrap();
        node.group(GroupId::ZERO).unwrap()
    }

    /// Bring replica `p` up on `disk`, not started: a configured
    /// bootstrap leader would campaign.
    fn reopen(
        &mut self,
        p: u32,
        cfg: Config,
        disk: Box<dyn NodeStorage>,
        app: fn() -> Box<dyn App>,
        seed: u64,
    ) -> &Replica {
        self.nodes[p as usize] = Some(node(p, cfg, disk, app, seed, self.now));
        self.replica(p)
    }

    /// Replica `p` taken out of the shuttle, its node gone.
    fn take(&mut self, p: u32) -> Replica {
        let node = self.nodes[p as usize].take().unwrap();
        node.into_groups().pop().unwrap()
    }

    fn crash(&mut self, p: u32) -> Box<dyn NodeStorage> {
        let node = self.nodes[p as usize].take().unwrap();
        node.into_storage()
    }

    fn leader(&self) -> Option<u32> {
        (0..self.n() as u32)
            .find(|p| self.nodes[*p as usize].is_some() && self.replica(*p).is_leader())
    }

    fn submit(&mut self, client: &mut ClientCore, kind: RequestKind) -> crate::client::CompletedOp {
        let actions = client.submit_op(kind, Bytes::new(), self.now);
        self.drive_client(client, actions)
    }

    fn drive_client(
        &mut self,
        client: &mut ClientCore,
        actions: Vec<Action>,
    ) -> crate::client::CompletedOp {
        self.try_drive_client(client, actions)
            .expect("request must complete in a failure-free run")
    }

    /// After the leader crashed: the client's first send goes to the dead
    /// leader it last heard from and is lost, so its retry timer fires —
    /// the shuttle fires no timers on its own — and the retry broadcasts.
    fn drive_client_through_retry(
        &mut self,
        client: &mut ClientCore,
        actions: Vec<Action>,
    ) -> crate::client::CompletedOp {
        let lost = self.try_drive_client(client, actions);
        assert!(lost.is_none(), "the hinted leader is dead");
        let retry = client.on_timer(TimerKind::ClientRetry, self.now);
        self.drive_client(client, retry)
    }

    fn try_drive_client(
        &mut self,
        client: &mut ClientCore,
        actions: Vec<Action>,
    ) -> Option<crate::client::CompletedOp> {
        let from = Addr::Client(client.id());
        self.send(from, actions);
        self.run();
        let mut result = None;
        let inbox = std::mem::take(&mut self.client_inbox);
        for (c, msg) in inbox {
            if c == client.id() {
                let (done, acts) = client.on_message(msg, self.now);
                self.send(from, acts);
                if let Some(d) = done {
                    result = Some(d);
                }
            }
        }
        self.run();
        result
    }

    fn assert_replica_states_converged(&mut self) {
        // Let stragglers catch up via a heartbeat round first.
        if let Some(lead) = self.leader() {
            self.fire(lead, TimerKind::Heartbeat);
        }
        let snaps: Vec<_> = (0..self.n() as u32)
            .filter(|p| self.nodes[*p as usize].is_some())
            .map(|p| {
                (
                    self.replica(p).chosen_prefix(),
                    self.replica(p).service_snapshot(),
                )
            })
            .collect();
        for w in snaps.windows(2) {
            assert_eq!(w[0], w[1], "replica states diverged");
        }
    }
}

impl Net for Shuttle {
    fn transmit(&mut self, outs: &mut Vec<Out>) {
        let from = Addr::Replica(ProcessId(self.stepping));
        for out in outs.drain(..) {
            let queued = self.queue.len();
            let tag = out.msg().tag();
            match out {
                Out::One(to, msg) => self.queue.push_back((from, to, msg)),
                Out::All(msg) => self.send_all(from, msg),
            }
            let copies = self.queue.len() - queued;
            self.out.extend(std::iter::repeat_n(tag, copies));
        }
    }

    /// The barrier runs here, after what left ahead of it; a barrier the
    /// power fails at is kept, never synced.
    fn lend(&mut self, lent: Lent) -> Result<(), Lent> {
        self.ahead = Some(self.out.len());
        if !self.power_cut {
            return Err(lent);
        }
        self.lent = Some(lent);
        Ok(())
    }
}

/// Replica `p` of a shuttle's `nodes` itself, to step it by hand: what
/// its handlers return goes nowhere.
fn core(nodes: &mut [Option<Node>], p: u32) -> &mut Replica {
    nodes[p as usize].as_mut().unwrap().group_mut(GroupId::ZERO)
}

/// The first buffered send of its kind in `node`'s step so far.
fn buffered(node: &Node, want: impl Fn(&Msg) -> bool) -> Msg {
    let mut msgs = node.sends().map(Out::msg);
    msgs.find(|m| want(m)).cloned().expect("message buffered")
}

/// One durable write — request, `Accept` to both followers, the first
/// `Accepted`, `Reply` and `Chosen` — leaves this loop as it leaves every
/// other: `outbox_conformance.txt` holds the steps, and the simulator's
/// node and the model checker's cluster are held to the same file by
/// tests of their own.
#[test]
fn a_durable_write_leaves_the_shuttle_as_it_leaves_every_loop() {
    let mut s = Shuttle::on_disks(cluster_cfg(3), tail_loss_disks(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.trace.clear(); // the election
    s.submit(&mut c, RequestKind::Write);
    let golden = include_str!("../outbox_conformance.txt");
    assert_eq!(s.trace, golden.lines().collect::<Vec<_>>());
}

fn cluster_cfg(n: usize) -> Config {
    Config::cluster(n)
}

#[test]
fn bootstrap_elects_the_configured_leader() {
    let s = Shuttle::new(3, cluster_cfg(3));
    assert_eq!(s.leader(), Some(0));
    assert!(s.replica(1).promised() == s.replica(0).promised());
    assert_eq!(s.replica(0).promised().proposer, ProcessId(0));
}

#[test]
fn write_commits_on_all_replicas() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let done = s.submit(&mut c, RequestKind::Write);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(done.leader, ProcessId(0));
    s.assert_replica_states_converged();
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1));
    // All three no-op services counted the write.
    for p in 0..3 {
        let snap = s.replica(p).service_snapshot();
        assert_eq!(u64::from_le_bytes(snap[..8].try_into().unwrap()), 1);
    }
}

#[test]
fn xpaxos_read_completes_without_consensus_instance() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    let before = s.replica(0).chosen_prefix();
    let done = s.submit(&mut c, RequestKind::Read);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    // Reads consume no instance.
    assert_eq!(s.replica(0).chosen_prefix(), before);
    assert_eq!(s.replica(0).stats.xpaxos_reads, 1);
}

#[test]
fn consensus_read_mode_runs_full_instance() {
    let cfg = cluster_cfg(3).with_read_mode(ReadMode::Consensus);
    let mut s = Shuttle::new(3, cfg);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let done = s.submit(&mut c, RequestKind::Read);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1));
    assert_eq!(s.replica(0).stats.consensus_reads, 1);
}

#[test]
fn original_requests_bypass_coordination() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let done = s.submit(&mut c, RequestKind::Original);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(0).chosen_prefix(), Instance::ZERO);
    assert_eq!(s.replica(0).stats.originals, 1);
}

#[test]
fn duplicate_request_is_answered_from_dedup() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let done = s.submit(&mut c, RequestKind::Write);
    let req = done.req.clone();
    // Replay the identical request straight at the leader.
    s.send(
        Addr::Client(c.id()),
        vec![Action::send(Addr::Replica(ProcessId(0)), Msg::Request(req))],
    );
    s.run();
    // Exactly one more reply arrives, no new instance is consumed.
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1));
    let replies = s
        .client_inbox
        .iter()
        .filter(|(cid, _)| *cid == c.id())
        .count();
    assert_eq!(replies, 1);
}

#[test]
fn many_writes_from_many_clients_stay_consistent() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut clients: Vec<ClientCore> = (0..4)
        .map(|i| ClientCore::new(ClientId(i), 3, Dur::from_millis(100)))
        .collect();
    for round in 0..5 {
        for c in clients.iter_mut() {
            let done = s.submit(c, RequestKind::Write);
            assert!(matches!(done.body, ReplyBody::Ok(_)), "round {round}");
        }
    }
    assert_eq!(s.replica(0).chosen_prefix(), Instance(20));
    s.assert_replica_states_converged();
}

#[test]
fn leader_crash_failover_and_continued_service() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    s.crash(0);
    // r1 suspects and takes over.
    s.now = Time(Dur::from_secs(10).0);
    s.fire(1, TimerKind::LeaderCheck);
    assert_eq!(s.leader(), Some(1));
    // The new leader must know the first write.
    assert_eq!(s.replica(1).chosen_prefix(), Instance(1));
    // And keep serving: the client's retry finds it.
    let actions = c.submit_op(RequestKind::Write, Bytes::new(), s.now);
    let done = s.drive_client_through_retry(&mut c, actions);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(done.leader, ProcessId(1));
    assert_eq!(s.replica(1).chosen_prefix(), Instance(2));
}

#[test]
fn deposed_leader_rolls_back_tentative_execution() {
    // Drive r0 to execute a write tentatively but never commit it, by
    // dropping its outbound accept.
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);

    // Detach r0: feed it a request directly and drop its outbound traffic.
    let req = crate::request::Request::new(
        crate::request::RequestId::new(ClientId(9), crate::types::Seq(1)),
        RequestKind::Write,
        Bytes::new(),
    );
    let r0 = core(&mut s.nodes, 0);
    let _dropped = r0.on_message(Addr::Client(ClientId(9)), Msg::Request(req), s.now);
    // r0 executed tentatively: its service saw the write...
    let snap = s.replica(0).service_snapshot();
    assert_eq!(u64::from_le_bytes(snap[..8].try_into().unwrap()), 2);

    // ...and a higher-ballot prepare, delivered synchronously, forces the
    // rollback at the moment of step-down.
    let higher = crate::ballot::Ballot::new(99, ProcessId(1));
    let r0 = core(&mut s.nodes, 0);
    let _promise = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::Prepare {
            ballot: higher,
            chosen_prefix: Instance(1),
            known_above: vec![],
        },
        s.now,
    );
    assert!(!s.replica(0).is_leader());
    let snap = s.replica(0).service_snapshot();
    assert_eq!(
        u64::from_le_bytes(snap[..8].try_into().unwrap()),
        1,
        "tentative write must be rolled back on step-down"
    );
}

/// r0 leads and every replica applied one write; r0 then executes a
/// second write (client 9) at instance 2 whose `Accept` goes nowhere.
fn leader_with_a_lost_accept() -> Shuttle {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    let r0 = core(&mut s.nodes, 0);
    let _lost = r0.on_message(
        Addr::Client(ClientId(9)),
        Msg::Request(write_req(9, 1)),
        s.now,
    );
    assert!(r0.is_leader() && r0.checker_view().tentative_exec);
    assert_eq!(writes_applied(r0), 2);
    s
}

fn write_req(client: u64, seq: u64) -> crate::request::Request {
    let id = crate::request::RequestId::new(ClientId(client), Seq(seq));
    crate::request::Request::new(id, RequestKind::Write, Bytes::new())
}

fn writes_applied(r: &Replica) -> u64 {
    u64::from_le_bytes(r.service_snapshot()[..8].try_into().unwrap())
}

/// What a fresh service holds after the decrees `r` knows chosen.
fn replay_of_chosen(r: &Replica) -> Bytes {
    let mut app = NoopApp::new();
    let mut i = Instance(1);
    while i <= r.chosen_prefix() {
        let (_, decree) = r.log.get(i).expect("chosen instance retained");
        for e in decree.entries.iter() {
            if let crate::command::Command::Req(req) = &e.cmd {
                app.apply(req, &e.update);
            }
        }
        i = i.next();
    }
    app.snapshot()
}

/// A later leadership filled instance 2 with a no-op; `msg` carries its
/// ballot to r0, whose own `Prepare`/`Accept` frames from that leadership
/// were dropped. r0 must be a follower of that ballot afterwards.
fn deliver_from_a_newer_leadership(s: &mut Shuttle, msg: impl Fn(Ballot) -> Msg) -> &Replica {
    let newer = Ballot::new(99, ProcessId(1));
    let r0 = core(&mut s.nodes, 0);
    let _ = r0.on_message(Addr::Replica(ProcessId(1)), msg(newer), s.now);
    assert!(!r0.is_leader(), "deposed by the newer ballot");
    assert_eq!(r0.promised(), newer);
    assert_eq!(r0.stable.disk().load().promised, newer, "and persisted");
    assert!(!r0.checker_view().tentative_exec);
    r0
}

/// ROADMAP P0's probe: an old `CatchUpReq` answered by a later
/// leadership. The parent neither stepped down nor adopted the ballot,
/// and skipped the app because the instance *number* matched the one it
/// had executed: `leader=true prefix=i2 state=2` over a chosen history
/// that gives 1.
#[test]
fn late_catchup_from_a_newer_leadership_deposes_before_it_applies() {
    let mut s = leader_with_a_lost_accept();
    let r0 = deliver_from_a_newer_leadership(&mut s, |ballot| Msg::CatchUp {
        ballot,
        image: None,
        entries: vec![(Instance(2), Decree::noop())],
    });
    assert_eq!(r0.chosen_prefix(), Instance(2));
    assert_eq!(r0.service_snapshot(), replay_of_chosen(r0));
    assert_eq!(writes_applied(r0), 1);
}

/// The same answer as an image: installed on a follower, never on a
/// replica that still leads.
#[test]
fn late_catchup_image_from_a_newer_leadership_deposes_before_it_installs() {
    let mut s = leader_with_a_lost_accept();
    let state_at_2 = s.replica(1).service_snapshot(); // write, then no-op
    let r0 = deliver_from_a_newer_leadership(&mut s, |ballot| Msg::CatchUp {
        ballot,
        image: Some(ImageRun {
            upto: Instance(2),
            total: 1,
            first: 0,
            dedup: vec![],
            pieces: vec![state_at_2.clone()],
        }),
        entries: vec![],
    });
    assert_eq!(r0.chosen_prefix(), Instance(2));
    assert_eq!(r0.service_snapshot(), state_at_2);
}

/// A confirm round of a newer leadership used to be answered by a replica
/// that went on leading under its old ballot.
#[test]
fn confirm_req_from_a_newer_leadership_deposes_before_it_answers() {
    let mut s = leader_with_a_lost_accept();
    let r0 = deliver_from_a_newer_leadership(&mut s, |ballot| Msg::ConfirmReq {
        ballot,
        epoch: 1,
        backlog: false,
    });
    assert_eq!(r0.chosen_prefix(), Instance(1));
    assert_eq!(r0.service_snapshot(), replay_of_chosen(r0));
}

/// A node stopped with a decree in flight hands back the state of its
/// chosen prefix, as the followers hold it — not its tentative execution.
/// Storage is untouched: the accepted decree is still there for the next
/// election to find.
#[test]
fn stopped_leader_hands_back_its_chosen_prefix_state() {
    let mut s = leader_with_a_lost_accept();
    let r0 = core(&mut s.nodes, 0);
    r0.stop();
    assert_eq!(r0.chosen_prefix(), s.replica(1).chosen_prefix());
    assert_eq!(
        s.replica(0).service_snapshot(),
        s.replica(1).service_snapshot()
    );
    let disk = load(s.crash(0));
    assert!(disk.accepted.contains_key(&Instance(2)));
}

/// The first message of its kind among `actions`.
fn sent(actions: &[Action], want: impl Fn(&Msg) -> bool) -> Msg {
    let mut msgs = actions.iter().filter_map(|a| match a {
        Action::Send { msg, .. } | Action::ToAllReplicas { msg } => Some(msg),
        Action::SetTimer { .. } | Action::CancelTimer { .. } => None,
    });
    msgs.find(|m| want(m)).cloned().expect("message sent")
}

/// A request retransmitted to a new leader that is still recovering the
/// decree with the original queues behind the recovery — the dedup table
/// does not know it yet. The parent executed it a second time once the
/// recovered decree had applied: the followers skipped the second entry
/// as a duplicate, the leader's service had run it (`state=3` beside
/// `state=2` at prefix `i3`).
#[test]
fn retransmission_queued_during_recovery_is_not_executed_twice() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    let from = |p: u32| Addr::Replica(ProcessId(p));
    let retry = || Msg::Request(write_req(9, 1));
    // r0 proposes the write; r1 and r2 accept it, their answers are lost
    // and r0 dies.
    let proposed = core(&mut s.nodes, 0).on_message(Addr::Client(ClientId(9)), retry(), s.now);
    let accept = sent(&proposed, |m| matches!(m, Msg::Accept { .. }));
    for p in [1, 2] {
        let r = core(&mut s.nodes, p);
        let _lost = r.on_message(from(0), accept.clone(), s.now);
    }
    s.crash(0);
    // r1 wins with r2's promise and re-proposes the decree; before r2
    // answers, the client's retry arrives.
    s.now = Time(Dur::from_secs(10).0);
    let r1 = core(&mut s.nodes, 1);
    let campaign = r1.on_timer(TimerKind::LeaderCheck, s.now);
    let prepare = sent(&campaign, |m| matches!(m, Msg::Prepare { .. }));
    let promised = core(&mut s.nodes, 2).on_message(from(1), prepare, s.now);
    let promise = sent(&promised, |m| matches!(m, Msg::Promise { .. }));
    s.step(1, |node, now, timers| {
        node.deliver(from(2), promise, now, timers);
        node.deliver(Addr::Client(ClientId(9)), retry(), now, timers);
    });
    s.run();
    s.assert_replica_states_converged();
    assert_eq!(writes_applied(s.replica(1)), 2);
    let answers = s.client_inbox.iter().filter(|(c, _)| *c == ClientId(9));
    assert!(answers.count() >= 1, "and the client hears of it");
}

#[test]
fn tentative_proposal_resurfaces_through_new_leader() {
    // A deposed leader's accepted-but-uncommitted decree is learned via
    // promises and legitimately completed by the new leader.
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);

    let req = crate::request::Request::new(
        crate::request::RequestId::new(ClientId(9), crate::types::Seq(1)),
        RequestKind::Write,
        Bytes::new(),
    );
    let r0 = core(&mut s.nodes, 0);
    let _dropped = r0.on_message(Addr::Client(ClientId(9)), Msg::Request(req), s.now);

    // r1 takes over; its prepare majority includes r0, so the tentative
    // decree is re-proposed under the new ballot and commits everywhere.
    s.now = Time(Dur::from_secs(10).0);
    s.fire(1, TimerKind::LeaderCheck);
    assert_eq!(s.leader(), Some(1));
    assert_eq!(s.replica(1).chosen_prefix(), Instance(2));
    s.assert_replica_states_converged();
    for p in 0..3 {
        let snap = s.replica(p).service_snapshot();
        assert_eq!(u64::from_le_bytes(snap[..8].try_into().unwrap()), 2);
    }
    // The waiting client was answered by the new leader.
    assert!(s
        .client_inbox
        .iter()
        .any(|(cid, m)| *cid == ClientId(9)
            && matches!(m, Msg::Reply(r) if r.leader == ProcessId(1))));
}

#[test]
fn tpaxos_ops_reply_immediately_commit_coordinates() {
    let cfg = cluster_cfg(3).with_txn_mode(TxnMode::TPaxos);
    let mut s = Shuttle::new(3, cfg);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let txn = TxnId(1);

    for i in 0..3u64 {
        let id = c.next_request_id();
        let req = crate::request::Request::txn_op(id, RequestKind::Write, txn, Bytes::new());
        let actions = c.submit(req, s.now);
        let done = s.drive_client(&mut c, actions);
        assert!(matches!(done.body, ReplyBody::Ok(_)), "op {i}");
        // No consensus yet.
        assert_eq!(s.replica(0).chosen_prefix(), Instance::ZERO);
    }
    let id = c.next_request_id();
    let commit = crate::request::Request::txn_commit(id, txn, 3);
    let actions = c.submit(commit, s.now);
    let done = s.drive_client(&mut c, actions);
    assert_eq!(done.body, ReplyBody::TxnCommitted { txn });
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1));
    s.assert_replica_states_converged();
    assert_eq!(s.replica(0).stats.txns_committed, 1);
}

#[test]
fn tpaxos_commit_after_leader_switch_aborts() {
    let cfg = cluster_cfg(3).with_txn_mode(TxnMode::TPaxos);
    let mut s = Shuttle::new(3, cfg);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let txn = TxnId(1);
    // Two ops land at r0.
    for _ in 0..2 {
        let id = c.next_request_id();
        let req = crate::request::Request::txn_op(id, RequestKind::Write, txn, Bytes::new());
        let actions = c.submit(req, s.now);
        let done = s.drive_client(&mut c, actions);
        assert!(matches!(done.body, ReplyBody::Ok(_)));
    }
    // Leader dies; r1 takes over with no session for the txn.
    s.crash(0);
    s.now = Time(Dur::from_secs(10).0);
    s.fire(1, TimerKind::LeaderCheck);
    assert_eq!(s.leader(), Some(1));

    let id = c.next_request_id();
    let commit = crate::request::Request::txn_commit(id, txn, 2);
    let actions = c.submit(commit, s.now);
    let done = s.drive_client_through_retry(&mut c, actions);
    assert_eq!(
        done.body,
        ReplyBody::TxnAborted {
            txn,
            reason: AbortReason::LeaderSwitch
        }
    );
    // Nothing of the transaction is visible anywhere.
    s.assert_replica_states_converged();
    for p in 1..3 {
        let snap = s.replica(p).service_snapshot();
        assert_eq!(u64::from_le_bytes(snap[..8].try_into().unwrap()), 0);
    }
}

/// P0 (c): the leader dies after the `Accept` of a T-Paxos commit decree
/// left; the followers hold it, the new leader recovers it. The client's
/// retransmitted `Commit` arrives while that recovery is still collecting
/// votes: the new leader has no session for the transaction, but the
/// decree it is re-proposing commits it — §3.5 breaks if the client is
/// told "aborted" for a transaction whose decree is chosen.
#[test]
fn tpaxos_commit_retransmitted_during_recovery_is_never_told_aborted() {
    let cfg = cluster_cfg(3).with_txn_mode(TxnMode::TPaxos);
    let mut s = Shuttle::new(3, cfg);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let txn = TxnId(1);
    for _ in 0..2 {
        let id = c.next_request_id();
        let req = crate::request::Request::txn_op(id, RequestKind::Write, txn, Bytes::new());
        let actions = c.submit(req, s.now);
        let done = s.drive_client(&mut c, actions);
        assert!(matches!(done.body, ReplyBody::Ok(_)));
    }
    let from = |p: u32| Addr::Replica(ProcessId(p));
    let client = Addr::Client(ClientId(1));
    let commit = crate::request::Request::txn_commit(c.next_request_id(), txn, 2);
    let retry = || Msg::Request(commit.clone());
    // r0 proposes the commit decree; r1 and r2 accept it, their answers
    // are lost and r0 dies.
    let r0 = core(&mut s.nodes, 0);
    let proposed = r0.on_message(client, retry(), s.now);
    let accept = sent(&proposed, |m| matches!(m, Msg::Accept { .. }));
    for p in [1, 2] {
        let r = core(&mut s.nodes, p);
        let _lost = r.on_message(from(0), accept.clone(), s.now);
    }
    s.crash(0);
    // r1 wins with r2's promise and re-proposes the decree; before r2
    // answers, the client's retransmission arrives.
    s.now = Time(Dur::from_secs(10).0);
    let r1 = core(&mut s.nodes, 1);
    let campaign = r1.on_timer(TimerKind::LeaderCheck, s.now);
    let prepare = sent(&campaign, |m| matches!(m, Msg::Prepare { .. }));
    let r2 = core(&mut s.nodes, 2);
    let promised = r2.on_message(from(1), prepare, s.now);
    let promise = sent(&promised, |m| matches!(m, Msg::Promise { .. }));
    s.step(1, |node, now, timers| {
        node.deliver(from(2), promise, now, timers);
        node.deliver(client, retry(), now, timers);
    });
    s.run();
    // The decree is chosen, the transaction applied everywhere...
    s.assert_replica_states_converged();
    assert_eq!(s.replica(1).chosen_prefix(), Instance(1));
    assert_eq!(writes_applied(s.replica(1)), 1, "one commit, applied once");
    // ...and the client hears "committed", never "aborted".
    let mut told = Vec::new();
    for (_, m) in &s.client_inbox {
        if let Msg::Reply(r) = m {
            told.extend((r.id == commit.id).then(|| r.body.clone()));
        }
    }
    assert!(
        !told
            .iter()
            .any(|b| matches!(b, ReplyBody::TxnAborted { .. })),
        "told aborted for a transaction whose decree is chosen: {told:?}"
    );
    assert!(told.contains(&ReplyBody::TxnCommitted { txn }));
}

#[test]
fn tpaxos_client_abort_discards_staged_ops() {
    let cfg = cluster_cfg(3).with_txn_mode(TxnMode::TPaxos);
    let mut s = Shuttle::new(3, cfg);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let txn = TxnId(1);
    let id = c.next_request_id();
    let req = crate::request::Request::txn_op(id, RequestKind::Write, txn, Bytes::new());
    let actions = c.submit(req, s.now);
    s.drive_client(&mut c, actions);

    let id = c.next_request_id();
    let abort = crate::request::Request::txn_abort(id, txn);
    let actions = c.submit(abort, s.now);
    let done = s.drive_client(&mut c, actions);
    assert_eq!(
        done.body,
        ReplyBody::TxnAborted {
            txn,
            reason: AbortReason::ClientAbort
        }
    );
    assert_eq!(s.replica(0).chosen_prefix(), Instance::ZERO);
    s.assert_replica_states_converged();
}

#[test]
fn crashed_replica_recovers_from_storage() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    for _ in 0..3 {
        s.submit(&mut c, RequestKind::Write);
    }
    // r2 crashes and recovers from its own storage.
    let storage = s.crash(2);
    let noop = || Box::new(NoopApp::new()) as Box<dyn App>;
    let recovered = s.reopen(2, cluster_cfg(3), storage, noop, 99);
    assert_eq!(recovered.chosen_prefix(), Instance(3));
    let snap = recovered.service_snapshot();
    assert_eq!(u64::from_le_bytes(snap[..8].try_into().unwrap()), 3);
    // It keeps participating.
    let done = s.submit(&mut c, RequestKind::Write);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    s.assert_replica_states_converged();
}

fn tail_loss_disks(n: usize) -> Vec<Box<dyn Storage>> {
    (0..n)
        .map(|_| Box::new(TailLossStorage::default()) as Box<dyn Storage>)
        .collect()
}

/// Power loss right after a reply, on disks that forget what no barrier
/// covered. The chosen-prefix mark of the last decree rides the *next*
/// barrier, which never came: every replica, the leader included, finds
/// its accept record but not the mark, recovers one instance short, and
/// the election relearns the decree. No acknowledged write is lost.
///
/// Mutation that must fail this test: make `save_accepted` as lazy as
/// the mark (written without `Stable::write`, so no barrier precedes
/// `Accepted` or the reply) — the disks then hold promises only and the
/// recovered cluster has forgotten all three writes.
#[test]
fn power_loss_after_reply_recovers_one_short_and_loses_no_acked_write() {
    let mut s = Shuttle::on_disks(cluster_cfg(3), tail_loss_disks(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    for _ in 0..3 {
        let done = s.submit(&mut c, RequestKind::Write);
        assert!(matches!(done.body, ReplyBody::Ok(_)));
    }
    assert_eq!(s.replica(0).chosen_prefix(), Instance(3));

    let survived: Vec<_> = (0..3).map(|p| load(s.crash(p))).collect();
    for (p, disk) in survived.iter().enumerate() {
        assert_eq!(disk.chosen_prefix, Instance(2), "r{p}: last mark unsynced");
        assert!(
            disk.accepted.contains_key(&Instance(3)),
            "r{p}: accept synced"
        );
    }

    let mut s = Shuttle::on_disks(
        cluster_cfg(3),
        survived
            .into_iter()
            .map(|disk| Box::new(TailLossStorage::holding(disk)) as Box<dyn Storage>)
            .collect(),
    );
    // r0's bootstrap election collected the accepted decree and chose it
    // again; everyone is back where the client was told they were.
    assert_eq!(s.leader(), Some(0));
    assert_eq!(s.replica(0).chosen_prefix(), Instance(3));
    let done = s.submit(&mut c, RequestKind::Write);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    s.assert_replica_states_converged();
    for p in 0..3 {
        assert_eq!(s.replica(p).chosen_prefix(), Instance(4));
        let snap = s.replica(p).service_snapshot();
        assert_eq!(u64::from_le_bytes(snap[..8].try_into().unwrap()), 4);
    }
}

/// The leader alone crashes after its reply. It comes back one instance
/// short, under a successor, and catches up like any lagging follower.
#[test]
fn crashed_leader_rejoins_one_instance_short_and_catches_up() {
    let mut s = Shuttle::on_disks(cluster_cfg(3), tail_loss_disks(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    for _ in 0..3 {
        s.submit(&mut c, RequestKind::Write);
    }
    let disk = load(s.crash(0));
    s.now = Time(Dur::from_secs(10).0);
    s.fire(1, TimerKind::LeaderCheck);
    assert_eq!(s.leader(), Some(1));
    let actions = c.submit_op(RequestKind::Write, Bytes::new(), s.now);
    s.drive_client_through_retry(&mut c, actions);

    // (Not started: the configured bootstrap leader would campaign.)
    let disk = one(TailLossStorage::holding(disk));
    let noop = || Box::new(NoopApp::new()) as Box<dyn App>;
    let recovered = s.reopen(0, cluster_cfg(3), disk, noop, 99);
    assert_eq!(recovered.chosen_prefix(), Instance(2));
    s.assert_replica_states_converged();
    assert_eq!(s.replica(0).chosen_prefix(), Instance(4));
}

/// A service whose every write rolls a die and answers with the roll; the
/// state is the rolls so far. A replica that executed a request again,
/// instead of applying the decree that already holds its outcome, would
/// show a different roll. The shipped state is the whole effect, so its
/// decrees carry no request body.
#[derive(Default)]
struct Dice(Vec<u8>);

impl App for Dice {
    fn execute(
        &mut self,
        req: &crate::request::Request,
        ctx: &mut crate::service::ExecCtx<'_>,
    ) -> (Bytes, crate::command::StateUpdate) {
        if req.kind == RequestKind::Read {
            return (self.snapshot(), crate::command::StateUpdate::None);
        }
        let roll = ctx.rng.gen::<u64>().to_le_bytes();
        self.0.extend_from_slice(&roll);
        ctx.update_subsumes_op();
        (
            Bytes::copy_from_slice(&roll),
            crate::command::StateUpdate::Full(self.snapshot()),
        )
    }
    fn apply(&mut self, _req: &crate::request::Request, update: &crate::command::StateUpdate) {
        if let crate::command::StateUpdate::Full(state) = update {
            self.0 = state.to_vec();
        }
    }
    fn snapshot(&self) -> Bytes {
        Bytes::copy_from_slice(&self.0)
    }
    fn restore(&mut self, snap: &[u8]) {
        self.0 = snap.to_vec();
    }
}

/// Three replicas of [`Dice`] on tail-loss disks with one write chosen,
/// then the crash point the early `Accept` opens: the leader proposes a
/// second write, its `Accept` leaves, and power fails before its barrier
/// returns. Returns the shuttle (r0 down, the `Accept`s in flight), the
/// client with its request outstanding, what r0's disk holds and the
/// state the lost leader rolled.
fn leader_lost_between_accept_and_barrier() -> (Shuttle, ClientCore, DurableState, Bytes) {
    let mut s = Shuttle::serving(cluster_cfg(3), tail_loss_disks(3), || {
        Box::new(Dice::default())
    });
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);

    let roll = c.submit_op(RequestKind::Write, Bytes::from_static(b"roll"), s.now);
    let request = sent(&roll, |m| matches!(m, Msg::Request(_)));
    let mut accept = None;
    let disk = s.power_cut_mid_barrier(0, |node, now, timers| {
        node.deliver(Addr::Client(ClientId(1)), request, now, timers);
        accept = Some(buffered(node, |m| matches!(m, Msg::Accept { .. })));
    });
    let Some(Msg::Accept { entries, .. }) = accept else {
        unreachable!()
    };
    let entry = &entries[0].1.entries[0];
    let crate::command::StateUpdate::Full(rolled) = entry.update.clone() else {
        panic!("a Dice write ships its state");
    };
    let crate::command::Command::Req(req) = &entry.cmd else {
        panic!("a plain write");
    };
    assert!(req.op.is_empty(), "the decree names the request, no more");
    assert_eq!(disk.chosen_prefix, Instance::ZERO, "marks are lazy");
    assert_eq!(
        disk.accepted.keys().copied().collect::<Vec<_>>(),
        vec![Instance(1)],
        "the leader's vote for instance 2 never reached its disk"
    );
    (s, c, disk, rolled)
}

/// Restart r0 on `disk` as the configured bootstrap leader: it campaigns.
fn restart_old_leader(s: &mut Shuttle, disk: DurableState) {
    let disk = one(TailLossStorage::holding(disk));
    s.reopen(0, cluster_cfg(3), disk, || Box::new(Dice::default()), 99);
    s.step(0, |node, now, timers| node.start(now, timers));
    s.run();
}

/// The client's retransmission timer fires and the request is answered:
/// returns the answer.
fn retransmit(s: &mut Shuttle, c: &mut ClientCore) -> Bytes {
    let actions = c.on_timer(TimerKind::ClientRetry, s.now);
    let done = s.drive_client(c, actions);
    let ReplyBody::Ok(answer) = done.body else {
        panic!("got {:?}", done.body);
    };
    answer
}

fn assert_all_hold(s: &mut Shuttle, prefix: Instance) -> Bytes {
    s.assert_replica_states_converged();
    for p in 0..3 {
        assert_eq!(s.replica(p).chosen_prefix(), prefix, "r{p}");
    }
    s.replica(0).service_snapshot()
}

/// The leader dies after its `Accept` left and before its barrier
/// returned; the followers accepted and synced. Its disk lacks the
/// instance, so after the restart it campaigns above its durable promise
/// and the election relearns the decree from a follower: the write —
/// never acknowledged, but possibly chosen — is chosen with the outcome
/// the lost leader rolled, nobody executes it again, and the client's
/// retransmission is answered from it — from the reply the body-less
/// decree carries, the roll only the lost leader ever saw.
///
/// Mutation that must fail this test: `Msg::precedes_barrier` false for
/// `Accept` (nothing leaves before the cut, so nothing is relearned and
/// the retransmission rolls again).
#[test]
fn leader_lost_after_its_accept_left_relearns_the_decree_from_a_follower() {
    let (mut s, mut c, disk, rolled) = leader_lost_between_accept_and_barrier();
    s.run(); // the followers accept and sync; their `Accepted` finds nobody
    let promised = disk.promised;
    restart_old_leader(&mut s, disk);
    assert_eq!(s.leader(), Some(0));
    assert!(s.replica(0).promised() > promised, "a ballot it never used");
    assert_eq!(s.replica(0).chosen_prefix(), Instance(2), "relearned");
    assert_eq!(
        retransmit(&mut s, &mut c),
        rolled[8..],
        "the recovered reply"
    );
    assert_eq!(assert_all_hold(&mut s, Instance(2)), rolled);
}

/// The same crash, and the `Accept` frames are lost with the leader: the
/// instance is simply absent, and the client's retransmission is
/// executed — once.
#[test]
fn leader_lost_with_its_accept_leaves_no_trace_and_the_retry_runs_once() {
    let (mut s, mut c, disk, rolled) = leader_lost_between_accept_and_barrier();
    s.queue.clear();
    restart_old_leader(&mut s, disk);
    assert_eq!(s.leader(), Some(0));
    assert_eq!(
        s.replica(0).chosen_prefix(),
        Instance(1),
        "nothing to relearn"
    );
    retransmit(&mut s, &mut c);
    let state = assert_all_hold(&mut s, Instance(2));
    assert_eq!(state.len(), 16, "two writes, two rolls");
    assert_eq!(state[..8], rolled[..8], "the first write stands");
}

/// Of a step whose barrier never returned, only `Accept` may have
/// escaped. An `Accepted`, a `Promise` or a `Prepare` would speak for a
/// record the disk lost; a singleton's `Reply` would acknowledge a write
/// that exists nowhere.
///
/// Mutations that must fail this test: `Msg::precedes_barrier` true for
/// `Accepted`, `Promise`, `Prepare`, or `Reply`.
#[test]
fn a_power_cut_mid_barrier_lets_nothing_but_accepts_escape() {
    let three = || Shuttle::on_disks(cluster_cfg(3), tail_loss_disks(3));
    let nothing_escaped = |s: &Shuttle, what: &str| {
        assert!(s.queue.is_empty() && s.client_inbox.is_empty(), "{what}");
    };
    let r0 = Addr::Replica(ProcessId(0));

    // A follower's `Accepted`.
    let mut s = three();
    let ballot = s.replica(0).promised();
    let accept = Msg::Accept {
        ballot,
        entries: vec![(Instance(1), Decree::noop())],
    };
    let disk = s.power_cut_mid_barrier(1, |node, now, timers| {
        node.deliver(r0, accept, now, timers);
        buffered(node, |m| matches!(m, Msg::Accepted { .. }));
    });
    assert!(disk.accepted.is_empty());
    nothing_escaped(&s, "Accepted");

    // A promiser's `Promise`.
    let mut s = three();
    let prepare = Msg::Prepare {
        ballot: Ballot::new(ballot.round + 1, ProcessId(2)),
        chosen_prefix: Instance::ZERO,
        known_above: Vec::new(),
    };
    let r2 = Addr::Replica(ProcessId(2));
    let disk = s.power_cut_mid_barrier(1, |node, now, timers| {
        node.deliver(r2, prepare, now, timers);
        buffered(node, |m| matches!(m, Msg::Promise { .. }));
    });
    assert_eq!(disk.promised, ballot);
    nothing_escaped(&s, "Promise");

    // A candidate's `Prepare`.
    let mut s = three();
    s.now = Time(Dur::from_secs(10).0);
    let disk = s.power_cut_mid_barrier(1, |node, now, timers| {
        node.fire(GroupId::ZERO, TimerKind::LeaderCheck, now, timers);
        buffered(node, |m| matches!(m, Msg::Prepare { .. }));
    });
    assert_eq!(disk.promised, ballot);
    nothing_escaped(&s, "Prepare");

    // A singleton's `Reply`: it commits in the proposing step.
    let mut s = Shuttle::on_disks(cluster_cfg(1), tail_loss_disks(1));
    let request = Msg::Request(write_req(1, 1));
    let client = Addr::Client(ClientId(1));
    let disk = s.power_cut_mid_barrier(0, |node, now, timers| {
        node.deliver(client, request, now, timers);
        buffered(node, |m| matches!(m, Msg::Reply(_)));
    });
    assert!(disk.accepted.is_empty());
    nothing_escaped(&s, "Reply");
}

/// A leader whose image came from an install keeps it as its own: asked
/// for catch-up while its window is open, by a follower its log no longer
/// reaches, it serves that image's chunks, as it would a checkpoint of
/// its own — the chosen prefix, not the prefix plus the decree it is still
/// proposing. [`Dice`] rolls per write, so the unchosen roll would show.
#[test]
fn an_installed_image_is_served_as_chunks_over_an_open_window() {
    let cfg = cluster_cfg(3).with_checkpoint_every(2);
    let disks = (0..3).map(|_| Box::new(MemStorage::new()) as Box<dyn Storage>);
    let mut s = Shuttle::serving(cfg.clone(), disks.collect(), || Box::new(Dice::default()));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.crash(2);
    for _ in 0..4 {
        s.submit(&mut c, RequestKind::Write);
    }

    // A fresh r2 installs r0's image at i4 by catch-up, then leads.
    let fresh = |p: u32, now| {
        let (app, disk) = (Box::new(Dice::default()), Box::new(MemStorage::new()));
        Replica::new(ProcessId(p), cfg.clone(), app, disk, 9, now)
    };
    let disk = one(MemStorage::new());
    s.reopen(2, cfg.clone(), disk, || Box::new(Dice::default()), 9);
    s.fire(0, TimerKind::Heartbeat);
    assert_eq!(s.replica(2).chosen_prefix(), Instance(4));
    s.crash(0);
    s.now = Time(Dur::from_secs(10).0);
    s.fire(2, TimerKind::LeaderCheck);
    assert_eq!(s.leader(), Some(2));
    let image = core(&mut s.nodes, 2).stable.disk().checkpoint_chunks();
    assert_eq!(
        image.map(|ck| ck.upto),
        Some(Instance(4)),
        "installed, kept"
    );
    assert_eq!(s.replica(2).stats.checkpoints, 0, "and not its own");

    // A fifth write is executed and proposed, and its `Accept` goes nowhere.
    let request = sent(&c.submit_op(RequestKind::Write, Bytes::new(), s.now), |m| {
        matches!(m, Msg::Request(_))
    });
    let now = s.now;
    let leader = core(&mut s.nodes, 2);
    let proposed = leader.on_message(Addr::Client(c.id()), request, now);
    sent(&proposed, |m| matches!(m, Msg::Accept { .. }));
    assert_eq!(leader.chosen_prefix(), Instance(4));
    assert_eq!(leader.service_snapshot().len(), 5 * 8, "the window is open");

    // An empty r0 asks for everything: one reply, the image's pieces, then
    // the log above them.
    let r0 = Addr::Replica(ProcessId(0));
    let served = leader.on_message(
        r0,
        Msg::CatchUpReq {
            have: Instance::ZERO,
            resume: None,
        },
        now,
    );
    let tags: Vec<_> = served
        .iter()
        .filter_map(|a| match a {
            Action::Send { msg, .. } => Some(msg.tag()),
            Action::ToAllReplicas { .. } | Action::SetTimer { .. } | Action::CancelTimer { .. } => {
                None
            }
        })
        .collect();
    assert_eq!(tags, ["catchup"]);
    let mut follower = fresh(0, now);
    for a in served {
        if let Action::Send { msg, .. } = a {
            follower.on_message(Addr::Replica(ProcessId(2)), msg, now);
        }
    }
    assert_eq!(follower.chosen_prefix(), Instance(4));

    let leader = core(&mut s.nodes, 2);
    leader.stop(); // abandons the fifth write
    assert_eq!(leader.service_snapshot().len(), 4 * 8);
    assert_eq!(
        follower.service_snapshot(),
        leader.service_snapshot(),
        "equal prefix, equal state"
    );
}

/// A stored chunk is served in pieces of the chunk size, sliced from it
/// rather than copied; an empty chunk is one empty piece, so it still
/// streams.
#[test]
fn an_image_is_cut_into_slices_of_the_chunk_size() {
    let app = Bytes::from(vec![1u8; 10]);
    let pieces = cut(&app, 4);
    let lens: Vec<_> = pieces.iter().map(|p| p.len()).collect();
    assert_eq!(lens, [4, 4, 2]);
    assert_eq!(pieces[1].as_ptr(), app[4..].as_ptr(), "a slice, not a copy");
    let whole = cut(&app, 64);
    assert_eq!((whole.len(), &whole[0]), (1, &app));
    assert_eq!(cut(&Bytes::new(), 4), [Bytes::new()]);
}

fn open_r1(storage: MemStorage) -> Replica {
    Replica::open(
        ProcessId(1),
        cluster_cfg(3),
        Box::new(NoopApp::new()),
        Box::new(storage),
        5,
        Time::ZERO,
    )
}

/// Recovering from nothing and starting fresh differ only in how they
/// seed the rng, so the stream shows which constructor `open` picked.
#[test]
fn open_on_empty_storage_equals_new() {
    let mut opened = open_r1(MemStorage::new());
    let mut fresh = Replica::new(
        ProcessId(1),
        cluster_cfg(3),
        Box::new(NoopApp::new()),
        Box::new(MemStorage::new()),
        5,
        Time::ZERO,
    );
    assert_eq!(opened.rng.next_u64(), fresh.rng.next_u64());
    assert_eq!(opened.promised(), Ballot::ZERO);
    assert_eq!(opened.chosen_prefix(), Instance::ZERO);
}

/// Each kind of prior state alone sends `open` down the recovery path:
/// the recovered field is one `Replica::new` would have left empty.
#[test]
fn open_recovers_on_each_kind_of_prior_state() {
    let b = Ballot::new(4, ProcessId(0));

    let mut promised = MemStorage::new();
    promised.save_promised(b);
    assert_eq!(open_r1(promised).promised(), b);

    let mut accepted = MemStorage::new();
    accepted.save_accepted(Instance(1), b, &Decree::noop());
    assert!(open_r1(accepted).log.get(Instance(1)).is_some());

    let mut checkpointed = MemStorage::new();
    checkpointed.checkpoint_begin(Instance(2), &[], 1);
    checkpointed.checkpoint_chunk(0, NoopApp::new().snapshot());
    checkpointed.checkpoint_commit();
    let r = open_r1(checkpointed);
    let due = |prefix| r.exec.checkpoint_due(Instance(prefix), 2, 0);
    assert_eq!((due(3), due(4)), (None, Some(exec::Due::Count)));
}

/// A chosen prefix with nothing under it is prior state too — corrupt
/// prior state, which recovery halts on; starting fresh over it (what a
/// test omitting `chosen_prefix` would do) would silently fork the replica.
#[test]
#[should_panic(expected = "durable log is missing instance")]
fn open_recovers_on_a_bare_chosen_prefix() {
    let mut chosen = MemStorage::new();
    chosen.save_chosen_prefix(Instance(1));
    let _ = open_r1(chosen);
}

/// Every checkpoint streams in chunks, so a `Config` built by hand with
/// a zero chunk size (past the builder's check) is refused at creation.
#[test]
#[should_panic(expected = "checkpoint_chunk_bytes must be nonzero")]
fn a_replica_refuses_a_zero_chunk_size() {
    let mut cfg = cluster_cfg(3);
    cfg.checkpoint_chunk_bytes = 0;
    let (app, disk) = (Box::new(NoopApp::new()), Box::new(MemStorage::new()));
    let _ = Replica::new(ProcessId(0), cfg, app, disk, 1, Time::ZERO);
}

#[test]
fn checkpointing_truncates_the_log() {
    let cfg = cluster_cfg(3).with_checkpoint_every(4);
    let mut s = Shuttle::new(3, cfg);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    for _ in 0..10 {
        s.submit(&mut c, RequestKind::Write);
    }
    assert!(s.replica(0).stats.checkpoints >= 2);
    assert!(
        s.replica(0).log_len() < 10,
        "log must shrink after checkpoints: {}",
        s.replica(0).log_len()
    );
    s.assert_replica_states_converged();
}

#[test]
fn lagging_replica_catches_up_via_heartbeat() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);

    // r2 crashes, misses traffic, then a *fresh* r2 rejoins (empty state).
    s.crash(2);
    for _ in 0..3 {
        s.submit(&mut c, RequestKind::Write);
    }
    let disk = one(MemStorage::new());
    s.reopen(2, cluster_cfg(3), disk, || Box::new(NoopApp::new()), 123);
    s.step(2, |node, now, timers| node.start(now, timers));
    s.run();
    // Heartbeat announces the chosen prefix; r2 requests catch-up.
    s.fire(0, TimerKind::Heartbeat);
    assert_eq!(s.replica(2).chosen_prefix(), Instance(4));
    s.assert_replica_states_converged();
}

#[test]
fn n5_tolerates_two_crashes() {
    let mut s = Shuttle::new(5, cluster_cfg(5));
    let mut c = ClientCore::new(ClientId(1), 5, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    s.crash(3);
    s.crash(4);
    let done = s.submit(&mut c, RequestKind::Write);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(0).chosen_prefix(), Instance(2));
}

/// §3.3: "If the replica knows any instance greater than 90, it sends the
/// leader not only all the requests ... but also the state of the latest
/// proposal it knows." A candidate behind its majority does not lead at
/// the majority: the promise names the promiser's prefix and carries no
/// state, and the candidate pulls up to it by catch-up first — from the
/// promiser's log, or, past a truncated log (`checkpoint_every` 2), from
/// its image and the log above it.
fn lagging_candidate_pulls_before_it_leads(cfg: Config) {
    let mut s = Shuttle::new(3, cfg.clone());
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);

    // r2 crashes; the group commits more writes without it.
    let storage = s.crash(2);
    for _ in 0..4 {
        s.submit(&mut c, RequestKind::Write);
    }
    let noop = || Box::new(NoopApp::new()) as Box<dyn App>;
    let recovered = s.reopen(2, cfg.clone(), storage, noop, 7);
    assert_eq!(recovered.chosen_prefix(), Instance(1), "r2 is behind");

    // The leader dies before any heartbeat can catch r2 up, and r2
    // campaigns first (we control the timers). r1's promise names
    // prefix 5 and carries no state.
    s.crash(0);
    s.now = Time(Dur::from_secs(10).0);
    let campaign = core(&mut s.nodes, 2).on_timer(TimerKind::LeaderCheck, s.now);
    let prepare = sent(&campaign, |m| matches!(m, Msg::Prepare { .. }));
    let from = |p: u32| Addr::Replica(ProcessId(p));
    let promised = core(&mut s.nodes, 1).on_message(from(2), prepare, s.now);
    let promise = sent(&promised, |m| matches!(m, Msg::Promise { .. }));
    let Msg::Promise { chosen_prefix, .. } = &promise else {
        unreachable!()
    };
    assert_eq!(*chosen_prefix, Instance(5));
    s.step(2, |node, now, timers| {
        node.deliver(from(1), promise, now, timers);
        assert!(
            !node.group(GroupId::ZERO).unwrap().is_leader(),
            "no lead below P"
        );
        let req = buffered(node, |m| matches!(m, Msg::CatchUpReq { .. }));
        assert_eq!(
            req,
            Msg::CatchUpReq {
                have: Instance(1),
                resume: None
            }
        );
    });
    s.run();

    assert_eq!(s.leader(), Some(2), "the lagging replica won once at P");
    assert_eq!(s.replica(2).stats.elections_started, 1);
    assert_eq!(s.replica(1).stats.catchups_served, 1, "one reply");
    assert_eq!(s.replica(2).chosen_prefix(), Instance(5));
    assert_eq!(writes_applied(s.replica(2)), 5);

    // And it keeps serving correctly, once the client's retry finds it.
    let actions = c.submit_op(RequestKind::Write, Bytes::new(), s.now);
    let done = s.drive_client_through_retry(&mut c, actions);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(2).chosen_prefix(), Instance(6));
    s.assert_replica_states_converged();
}

#[test]
fn lagging_candidate_pulls_from_the_log_before_it_leads() {
    lagging_candidate_pulls_before_it_leads(cluster_cfg(3));
}

#[test]
fn lagging_candidate_pulls_past_a_truncated_log_before_it_leads() {
    let cfg = cluster_cfg(3).with_checkpoint_every(2);
    lagging_candidate_pulls_before_it_leads(cfg);
}

/// A run that claims `u32::MAX` pieces is held as the one piece that
/// came, not as slots for the ones it claims; the image stays open and
/// the next piece is asked for at once, from the sender.
#[test]
fn a_run_claiming_u32_max_pieces_holds_only_what_arrived() {
    let (app, disk) = (Box::new(NoopApp::new()), Box::new(MemStorage::new()));
    let mut r = Replica::new(ProcessId(0), cluster_cfg(3), app, disk, 1, Time::ZERO);
    let run = ImageRun {
        upto: Instance(5),
        total: u32::MAX,
        first: 0,
        dedup: vec![],
        pieces: vec![Bytes::from_static(&[7; 8])],
    };
    let reply = Msg::CatchUp {
        ballot: Ballot::new(1, ProcessId(1)),
        image: Some(run),
        entries: vec![],
    };
    let next = r.on_message(Addr::Replica(ProcessId(1)), reply, Time::ZERO);
    let (image, _) = r.pull.as_ref().expect("assembling");
    assert_eq!(image.chunks.len(), 1);
    assert!(image.chunks.capacity() <= 4, "{}", image.chunks.capacity());
    assert_eq!(r.chosen_prefix(), Instance::ZERO);
    let ask = sent(&next, |m| matches!(m, Msg::CatchUpReq { .. }));
    let want = Msg::CatchUpReq {
        have: Instance::ZERO,
        resume: Some((Instance(5), 1)),
    };
    assert_eq!(ask, want);
}

#[test]
fn xpaxos_read_defers_behind_tentative_write() {
    // §3.4's consistency requirement: "the value that the service returns
    // as a response to a read must reflect the latest update". A read
    // arriving while a write is tentatively executed but uncommitted must
    // wait for the commit — and then observe it.
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write); // instance 1 committed

    // Feed the leader a write directly and withhold its accept traffic:
    // the write is now tentative (inflight, uncommitted).
    let w = crate::request::Request::new(
        crate::request::RequestId::new(ClientId(8), crate::types::Seq(1)),
        RequestKind::Write,
        Bytes::new(),
    );
    let r0 = core(&mut s.nodes, 0);
    let withheld = r0.on_message(Addr::Client(ClientId(8)), Msg::Request(w), s.now);
    assert!(
        withheld.iter().any(|a| matches!(
            a,
            Action::ToAllReplicas {
                msg: Msg::Accept { .. }
            }
        )),
        "the write was proposed"
    );

    // A read arrives; the leader must NOT reply yet (no execution against
    // tentative state), even with majority confirms.
    let read = crate::request::Request::new(
        crate::request::RequestId::new(ClientId(9), crate::types::Seq(1)),
        RequestKind::Read,
        Bytes::new(),
    );
    let r0 = core(&mut s.nodes, 0);
    let ballot = r0.promised();
    let a1 = r0.on_message(Addr::Client(ClientId(9)), Msg::Request(read.clone()), s.now);
    let a2 = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::Confirm {
            ballot,
            read: read.id,
        },
        s.now,
    );
    let a3 = r0.on_message(
        Addr::Replica(ProcessId(2)),
        Msg::Confirm {
            ballot,
            read: read.id,
        },
        s.now,
    );
    for a in a1.iter().chain(&a2).chain(&a3) {
        assert!(
            !matches!(
                a,
                Action::Send {
                    to: Addr::Client(_),
                    msg: Msg::Reply(_)
                }
            ),
            "read must not be answered before the tentative write resolves"
        );
    }

    // Now let the write commit: deliver the accepted acks.
    let instance = Instance(2);
    let r0 = core(&mut s.nodes, 0);
    let mut actions = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::Accepted {
            ballot,
            instances: vec![instance],
        },
        s.now,
    );
    actions.extend(r0.on_message(
        Addr::Replica(ProcessId(2)),
        Msg::Accepted {
            ballot,
            instances: vec![instance],
        },
        s.now,
    ));
    // The commit unblocks the deferred read, which already has its
    // majority of confirms — the reply must reflect the committed write.
    let reply = actions.iter().find_map(|a| match a {
        Action::Send {
            to: Addr::Client(ClientId(9)),
            msg: Msg::Reply(r),
        } => Some(r.clone()),
        Action::Send { .. }
        | Action::ToAllReplicas { .. }
        | Action::SetTimer { .. }
        | Action::CancelTimer { .. } => None,
    });
    let reply = reply.expect("deferred read answered on commit");
    let payload = reply.body.payload().expect("ok reply");
    assert_eq!(
        u64::from_le_bytes(payload[..8].try_into().unwrap()),
        2,
        "the read observes both committed writes"
    );
}

#[test]
fn dueling_candidates_resolve_to_one_leader() {
    // Two replicas suspect the (never-started) leader at the same moment
    // and campaign concurrently; ballot ordering + stability must leave
    // exactly one leader.
    let cfg = cluster_cfg(3).with_bootstrap_leader(None);
    let mut s = Shuttle::new(3, cfg);
    assert_eq!(s.leader(), None, "nobody leads initially");

    s.now = Time(Dur::from_secs(10).0);
    // Collect both candidacies BEFORE delivering anything: a real duel.
    for p in [1, 2] {
        s.step(p, |node, now, timers| {
            node.fire(GroupId::ZERO, TimerKind::LeaderCheck, now, timers);
        });
    }
    s.run();

    let leaders: Vec<u32> = (0..3).filter(|p| s.replica(*p).is_leader()).collect();
    assert_eq!(leaders.len(), 1, "exactly one leader after the duel");
    // Same-round duels resolve toward the higher proposer id.
    assert_eq!(leaders[0], 2);

    // The group serves requests normally afterwards.
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let done = s.submit(&mut c, RequestKind::Write);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    s.assert_replica_states_converged();
}

#[test]
fn confirm_outracing_read_request_is_buffered() {
    // A follower's Confirm can reach the leader before the client's own
    // request (latency variance); the vote must not be lost.
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let read = crate::request::Request::new(
        crate::request::RequestId::new(ClientId(5), crate::types::Seq(1)),
        RequestKind::Read,
        Bytes::new(),
    );
    let r0 = core(&mut s.nodes, 0);
    let ballot = r0.promised();
    // Confirms arrive first...
    let a = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::Confirm {
            ballot,
            read: read.id,
        },
        s.now,
    );
    assert!(a.is_empty(), "nothing to do yet");
    // ...then the request: it must complete immediately using the
    // buffered vote (majority = self + r1).
    let actions = r0.on_message(Addr::Client(ClientId(5)), Msg::Request(read.clone()), s.now);
    assert!(
        actions.iter().any(|act| matches!(
            act,
            Action::Send {
                to: Addr::Client(ClientId(5)),
                msg: Msg::Reply(_)
            }
        )),
        "buffered early confirm must complete the read"
    );
}

#[test]
fn stale_leader_cannot_answer_reads_after_deposition() {
    // §3.4: "only the leader with the highest accepted ballot number can
    // receive confirms from a majority and respond to read requests."
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);

    // Depose r0 via a direct higher-ballot prepare (it answers with a
    // promise, which we drop — r0 now believes in ballot b99).
    let higher = crate::ballot::Ballot::new(99, ProcessId(1));
    let r0 = core(&mut s.nodes, 0);
    let _ = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::Prepare {
            ballot: higher,
            chosen_prefix: Instance(1),
            known_above: vec![],
        },
        s.now,
    );
    assert!(!s.replica(0).is_leader());

    // A client read reaching the deposed r0 produces no reply and no
    // stale confirms counted toward itself.
    let read = crate::request::Request::new(
        crate::request::RequestId::new(ClientId(9), crate::types::Seq(1)),
        RequestKind::Read,
        Bytes::new(),
    );
    let r0 = core(&mut s.nodes, 0);
    let actions = r0.on_message(Addr::Client(ClientId(9)), Msg::Request(read.clone()), s.now);
    for a in &actions {
        assert!(
            !matches!(
                a,
                Action::Send {
                    msg: Msg::Reply(_),
                    ..
                }
            ),
            "a deposed leader must not answer reads"
        );
    }
    // As a follower it confirms toward the new leadership instead.
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send { to: Addr::Replica(ProcessId(1)), msg: Msg::Confirm { ballot, .. } }
            if *ballot == higher
    )));
}

#[test]
fn lease_read_is_answered_locally() {
    let cfg = cluster_cfg(3).with_read_mode(ReadMode::Lease);
    let mut s = Shuttle::new(3, cfg);
    // The bootstrap heartbeat was acked during Shuttle::new's run, so the
    // leader holds a lease anchored at t=0.
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    let done = s.submit(&mut c, RequestKind::Read);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(0).stats.lease_reads, 1, "served under the lease");
    assert_eq!(s.replica(0).stats.xpaxos_reads, 0);
    assert_eq!(s.replica(0).stats.consensus_reads, 0);
    // No extra consensus instance for the read.
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1));
}

#[test]
fn expired_lease_falls_back_to_consensus_reads() {
    let cfg = cluster_cfg(3).with_read_mode(ReadMode::Lease);
    let mut s = Shuttle::new(3, cfg);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    // Let the lease (25 ms) lapse without any further heartbeats.
    s.now = Time(Dur::from_secs(10).0);
    let done = s.submit(&mut c, RequestKind::Read);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(0).stats.lease_reads, 0);
    assert_eq!(
        s.replica(0).stats.consensus_reads,
        1,
        "leaseless reads take the safe consensus path"
    );
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1));

    // A fresh heartbeat round re-arms the lease; reads go local again.
    s.fire(0, TimerKind::Heartbeat);
    let done = s.submit(&mut c, RequestKind::Read);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(0).stats.lease_reads, 1);
}

#[test]
fn lease_mode_followers_do_not_confirm_reads() {
    let cfg = cluster_cfg(3).with_read_mode(ReadMode::Lease);
    let mut s = Shuttle::new(3, cfg);
    let read = crate::request::Request::new(
        crate::request::RequestId::new(ClientId(5), crate::types::Seq(1)),
        RequestKind::Read,
        Bytes::new(),
    );
    let r1 = core(&mut s.nodes, 1);
    let actions = r1.on_message(Addr::Client(ClientId(5)), Msg::Request(read), s.now);
    assert!(
        actions.is_empty(),
        "lease mode saves the per-read confirm traffic entirely"
    );
}

#[test]
fn retransmitted_tpaxos_op_replays_cached_reply_without_restaging() {
    let cfg = cluster_cfg(3).with_txn_mode(TxnMode::TPaxos);
    let mut s = Shuttle::new(3, cfg);
    let txn = TxnId(1);
    let op = crate::request::Request::txn_op(
        crate::request::RequestId::new(ClientId(1), crate::types::Seq(1)),
        RequestKind::Write,
        txn,
        Bytes::new(),
    );
    // Deliver the same op twice (a client retransmission).
    for _ in 0..2 {
        s.send(
            Addr::Client(ClientId(1)),
            vec![Action::send(
                Addr::Replica(ProcessId(0)),
                Msg::Request(op.clone()),
            )],
        );
        s.run();
    }
    // Two replies (original + replay), but committing with n_ops = 1 must
    // succeed — proving the op was staged exactly once.
    let replies = s
        .client_inbox
        .iter()
        .filter(|(c, _)| *c == ClientId(1))
        .count();
    assert_eq!(replies, 2, "both deliveries answered");
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    c.next_request_id(); // burn seq 1, used manually above
    let commit = crate::request::Request::txn_commit(c.next_request_id(), txn, 1);
    let actions = c.submit(commit, s.now);
    let done = s.drive_client(&mut c, actions);
    assert_eq!(done.body, ReplyBody::TxnCommitted { txn });
    s.assert_replica_states_converged();
}

#[test]
fn perop_txn_abort_discards_replicated_staging() {
    // In per-op mode the abort itself is a consensus operation, so the
    // backups discard their replicated staging too.
    let cfg = cluster_cfg(3); // PerOp is the default
    let mut s = Shuttle::new(3, cfg);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    let txn = TxnId(1);
    // One staged write through consensus (NoopApp stages nothing but the
    // instance is consumed).
    let id = c.next_request_id();
    let op = crate::request::Request::txn_op(id, RequestKind::Write, txn, Bytes::new());
    let actions = c.submit(op, s.now);
    let done = s.drive_client(&mut c, actions);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1), "op coordinated");

    let id = c.next_request_id();
    let abort = crate::request::Request::txn_abort(id, txn);
    let actions = c.submit(abort, s.now);
    let done = s.drive_client(&mut c, actions);
    assert_eq!(
        done.body,
        ReplyBody::TxnAborted {
            txn,
            reason: AbortReason::ClientAbort
        }
    );
    assert_eq!(
        s.replica(0).chosen_prefix(),
        Instance(2),
        "the abort is coordinated in per-op mode"
    );
    s.assert_replica_states_converged();
    // Nothing committed.
    for p in 0..3 {
        let snap = s.replica(p).service_snapshot();
        assert_eq!(u64::from_le_bytes(snap[..8].try_into().unwrap()), 0);
    }
}

#[test]
fn candidate_restarts_election_with_higher_ballot_on_timeout() {
    // Isolate r1 as a candidate whose prepares go nowhere; its election
    // timer must produce a fresh, strictly higher ballot each attempt.
    let cfg = cluster_cfg(3).with_bootstrap_leader(None);
    let mut s = Shuttle::new(3, cfg);
    s.now = Time(Dur::from_secs(10).0);
    let r1 = core(&mut s.nodes, 1);
    let _dropped = r1.on_timer(TimerKind::LeaderCheck, s.now);
    let b1 = r1.promised();
    assert!(matches!(r1.role(), Role::Candidate(_)));
    let _dropped = r1.on_timer(TimerKind::Election, s.now);
    let b2 = r1.promised();
    assert!(
        b2 > b1,
        "retry must outbid the previous attempt: {b1} -> {b2}"
    );
    assert!(matches!(r1.role(), Role::Candidate(_)));
    assert!(r1.stats.elections_started >= 2);
}

#[test]
fn duplicate_accepted_acks_do_not_double_commit() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    let before = s.replica(0).stats.commits_led;
    // Replay a stale Accepted for the already-committed instance.
    let ballot = s.replica(0).promised();
    let r0 = core(&mut s.nodes, 0);
    let _ = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::Accepted {
            ballot,
            instances: vec![Instance(1)],
        },
        s.now,
    );
    assert_eq!(s.replica(0).stats.commits_led, before, "no double commit");
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1));
}

#[test]
fn heartbeats_propagate_chosen_to_slow_followers() {
    // A follower that missed the Chosen message learns commitment from the
    // next heartbeat (heartbeats double as Chosen retransmissions).
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    // Followers applied via the Chosen broadcast in the shuttle run.
    assert_eq!(s.replica(1).chosen_prefix(), Instance(1));
    // Heartbeat on top is harmless and idempotent.
    s.fire(0, TimerKind::Heartbeat);
    assert_eq!(s.replica(1).chosen_prefix(), Instance(1));
    s.assert_replica_states_converged();
}

// ----------------------------------------------------------------------
// Decree batching edges. The shuttle drops timer actions, so the batch
// window only advances when a test fires TimerKind::BatchWindow itself —
// exactly the control these edges need.
// ----------------------------------------------------------------------

/// Queue a raw write at the leader (r0) without running the shuttle.
fn push_write(s: &mut Shuttle, client: u64, seq: u64) -> crate::request::RequestId {
    push_request(s, client, seq, RequestKind::Write)
}

fn push_request(
    s: &mut Shuttle,
    client: u64,
    seq: u64,
    kind: RequestKind,
) -> crate::request::RequestId {
    let id = crate::request::RequestId::new(ClientId(client), crate::types::Seq(seq));
    let req = crate::request::Request::new(id, kind, Bytes::new());
    s.queue.push_back((
        Addr::Client(ClientId(client)),
        Addr::Replica(ProcessId(0)),
        Msg::Request(req),
    ));
    id
}

/// Every request id committed on r0, in log order — duplicates included,
/// so callers can assert nothing was dropped or double-proposed.
fn committed_ids(s: &Shuttle) -> Vec<crate::request::RequestId> {
    let r = s.replica(0);
    let mut ids = Vec::new();
    let mut i = Instance(1);
    while i <= r.chosen_prefix() {
        let (_, d) = r.log.get(i).expect("chosen instance present");
        for e in d.entries.iter() {
            match &e.cmd {
                crate::command::Command::Req(req) => ids.push(req.id),
                crate::command::Command::TxnCommit { id, .. } => ids.push(*id),
                crate::command::Command::TxnPrepare { req, .. } => ids.push(req.id),
                crate::command::Command::TxnDecide { id, .. } => ids.push(*id),
                crate::command::Command::Noop => {}
            }
        }
        i = i.next();
    }
    ids
}

fn batch_sizes(s: &Shuttle) -> Vec<usize> {
    let r = s.replica(0);
    let mut sizes = Vec::new();
    let mut i = Instance(1);
    while i <= r.chosen_prefix() {
        sizes.push(r.log.get(i).expect("chosen").1.entries.len());
        i = i.next();
    }
    sizes
}

#[test]
fn queue_exactly_at_max_batch_proposes_one_full_decree() {
    let mut cfg = cluster_cfg(3);
    cfg.max_batch = 4;
    let mut s = Shuttle::new(3, cfg);

    // Burst of 1 + max_batch concurrent writes: the first proposes alone
    // (pipeline free), the other four queue behind it and must come out as
    // exactly one full decree — not 4 singletons, not split.
    let mut expected = Vec::new();
    for i in 0..5u64 {
        expected.push(push_write(&mut s, 10 + i, 1));
    }
    s.run();
    assert_eq!(s.replica(0).chosen_prefix(), Instance(2));
    assert_eq!(batch_sizes(&s), vec![1, 4]);

    // last_batch is now 4 (> 1), so the adaptive window applies. A second
    // burst that reaches exactly max_batch while the window is armed must
    // propose immediately — `queue.len() < max_batch` no longer holds —
    // without any BatchWindow timer ever firing (the shuttle drops them).
    for i in 0..4u64 {
        expected.push(push_write(&mut s, 20 + i, 1));
    }
    s.run();
    assert_eq!(s.replica(0).chosen_prefix(), Instance(3));
    assert_eq!(batch_sizes(&s), vec![1, 4, 4]);

    // Nothing dropped, nothing double-proposed.
    let mut ids = committed_ids(&s);
    assert_eq!(ids.len(), expected.len());
    ids.sort();
    expected.sort();
    assert_eq!(ids, expected);
    s.assert_replica_states_converged();
}

#[test]
fn batch_window_rearm_exhaustion_flushes_the_queue() {
    let mut cfg = cluster_cfg(3);
    cfg.max_batch = 4;
    let mut s = Shuttle::new(3, cfg);

    // Prime last_batch = 2 so the adaptive window arms for small queues.
    for i in 0..3u64 {
        push_write(&mut s, 10 + i, 1);
    }
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 2]);

    // A lone write now arms the window instead of proposing: it waits for
    // company that never comes.
    let lonely = push_write(&mut s, 30, 1);
    s.run();
    assert_eq!(s.replica(0).chosen_prefix(), Instance(2), "held back");
    {
        let Role::Leader(l) = s.replica(0).role() else {
            panic!("r0 leads")
        };
        assert!(l.window_armed);
        assert_eq!(l.window_rearms, 8);
        assert_eq!(l.queue.len(), 1);
    }

    // Each firing below the previous batch size burns one re-arm...
    for burns in 1..=8u32 {
        s.fire(0, TimerKind::BatchWindow);
        let Role::Leader(l) = s.replica(0).role() else {
            panic!("r0 leads")
        };
        assert_eq!(l.window_rearms, 8 - burns);
        assert_eq!(
            s.replica(0).chosen_prefix(),
            Instance(2),
            "still waiting after {burns} re-arms"
        );
    }
    // ...and with re-arms exhausted the next firing flushes the queue as an
    // undersized decree rather than holding the request forever.
    s.fire(0, TimerKind::BatchWindow);
    assert_eq!(s.replica(0).chosen_prefix(), Instance(3));
    assert_eq!(batch_sizes(&s), vec![1, 2, 1]);
    assert_eq!(committed_ids(&s).last(), Some(&lonely));
    {
        let Role::Leader(l) = s.replica(0).role() else {
            panic!("r0 leads")
        };
        assert!(!l.window_armed);
        assert!(l.queue.is_empty());
    }
    // The request completed exactly once.
    let ids = committed_ids(&s);
    assert_eq!(ids.iter().filter(|id| **id == lonely).count(), 1);
    s.assert_replica_states_converged();
}

fn lead(s: &Shuttle) -> &LeaderState {
    let Role::Leader(l) = s.replica(0).role() else {
        panic!("r0 leads")
    };
    l
}

#[test]
fn a_batch_closed_before_its_window_fires_disarms_the_window() {
    let mut cfg = cluster_cfg(3);
    cfg.max_batch = 4;
    let mut s = Shuttle::new(3, cfg);
    for i in 0..5u64 {
        push_write(&mut s, 10 + i, 1);
    }
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 4]);

    // New clients: the window arms and burns one re-arm...
    push_write(&mut s, 20, 1);
    s.run();
    s.fire(0, TimerKind::BatchWindow);
    assert!(lead(&s).window_armed);
    assert_eq!(lead(&s).window_rearms, 7);
    // ...then the queue reaches max_batch and proposes without it.
    for i in 1..4u64 {
        push_write(&mut s, 20 + i, 1);
    }
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 4, 4]);
    assert!(!lead(&s).window_armed, "the proposal took the window");

    // The next wave's first arrival arms a window of its own.
    push_write(&mut s, 20, 2);
    s.run();
    assert_eq!(s.replica(0).chosen_prefix(), Instance(3), "held back");
    assert!(lead(&s).window_armed);
    assert_eq!(lead(&s).window_rearms, 8);
}

#[test]
fn a_wave_closes_on_its_last_arrival() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    for i in 0..5u64 {
        push_write(&mut s, 10 + i, 1);
    }
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 4]);

    // The four answered clients come back; no BatchWindow fires.
    for i in 0..3u64 {
        push_write(&mut s, 11 + i, 2);
        s.run();
        assert_eq!(s.replica(0).chosen_prefix(), Instance(2), "wave not in yet");
        assert!(lead(&s).window_armed);
    }
    push_write(&mut s, 14, 2);
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 4, 4]);
    assert!(!lead(&s).window_armed);
    s.assert_replica_states_converged();
}

#[test]
fn a_wave_split_by_the_decree_in_flight_merges() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    for i in 0..3u64 {
        push_write(&mut s, 10 + i, 1);
    }
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 2]);

    // 11 and 12 come back and close their wave; 20 and 21 queue while
    // that decree is in flight.
    push_write(&mut s, 11, 2);
    push_write(&mut s, 12, 2);
    push_write(&mut s, 20, 1);
    push_write(&mut s, 21, 1);
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 2, 2]);
    assert_eq!(lead(&s).queue.len(), 2);
    assert!(lead(&s).window_armed);

    // Closing at the previous batch size would propose 20 and 21 alone,
    // and the halves would alternate from then on. The wave waits for 11
    // and 12 and proposes all four together.
    push_write(&mut s, 11, 3);
    push_write(&mut s, 12, 3);
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 2, 2, 4]);
    s.assert_replica_states_converged();
}

#[test]
fn a_client_back_with_a_read_leaves_the_wave_to_the_window() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    for i in 0..3u64 {
        push_write(&mut s, 10 + i, 1);
    }
    s.run();
    assert_eq!(batch_sizes(&s), vec![1, 2]);

    push_write(&mut s, 11, 2);
    // An X-Paxos read goes to every replica; the followers confirm it.
    let read = push_request(&mut s, 12, 2, RequestKind::Read);
    let (from, _, msg) = s.queue.back().cloned().expect("queued");
    for p in 1..3 {
        s.queue
            .push_back((from, Addr::Replica(ProcessId(p)), msg.clone()));
    }
    s.run();
    assert!(
        s.client_inbox
            .iter()
            .any(|(_, m)| matches!(m, Msg::Reply(r) if r.id == read)),
        "the read is answered through its own door"
    );
    // The write waits for the window, as it did before the wave rule.
    for _ in 0..8 {
        s.fire(0, TimerKind::BatchWindow);
        assert_eq!(s.replica(0).chosen_prefix(), Instance(2));
    }
    s.fire(0, TimerKind::BatchWindow);
    assert_eq!(batch_sizes(&s), vec![1, 2, 1]);
    s.assert_replica_states_converged();
}

#[test]
fn tpaxos_commit_queued_behind_full_batch_is_neither_dropped_nor_doubled() {
    let mut cfg = cluster_cfg(3).with_txn_mode(TxnMode::TPaxos);
    cfg.max_batch = 2;
    cfg.batch_window = Dur::ZERO; // window edges are covered above
    let mut s = Shuttle::new(3, cfg);
    let txn = TxnId(1);

    // T-Paxos op: answered immediately, no coordination yet.
    let op_id = crate::request::RequestId::new(ClientId(1), crate::types::Seq(1));
    let op = crate::request::Request::txn_op(op_id, RequestKind::Write, txn, Bytes::new());
    s.queue.push_back((
        Addr::Client(ClientId(1)),
        Addr::Replica(ProcessId(0)),
        Msg::Request(op),
    ));
    s.run();
    assert_eq!(s.replica(0).chosen_prefix(), Instance::ZERO);

    // Now a burst: w1 proposes alone, w2+w3 fill a max_batch decree, and
    // the commit request lands behind that full batch in the queue.
    let w1 = push_write(&mut s, 11, 1);
    let w2 = push_write(&mut s, 12, 1);
    let w3 = push_write(&mut s, 13, 1);
    let commit_id = crate::request::RequestId::new(ClientId(1), crate::types::Seq(2));
    let commit = crate::request::Request::txn_commit(commit_id, txn, 1);
    s.queue.push_back((
        Addr::Client(ClientId(1)),
        Addr::Replica(ProcessId(0)),
        Msg::Request(commit),
    ));
    s.run();

    // Three decrees: [w1], [w2, w3] (full), [commit].
    assert_eq!(batch_sizes(&s), vec![1, 2, 1]);
    assert_eq!(committed_ids(&s), vec![w1, w2, w3, commit_id]);

    // The commit decree reconstructs the session's ops and the stash is
    // drained — a retransmitted commit would abort, not re-propose.
    let (_, d) = s.replica(0).log.get(Instance(3)).expect("commit decree");
    let crate::command::Command::TxnCommit { id, txn: t, ops } = &d.entries[0].cmd else {
        panic!("expected TxnCommit, got {:?}", d.entries[0].cmd);
    };
    assert_eq!(*id, commit_id);
    assert_eq!(*t, txn);
    assert_eq!(ops.len(), 1);
    assert_eq!(ops[0].id, op_id);
    {
        let Role::Leader(l) = s.replica(0).role() else {
            panic!("r0 leads")
        };
        assert!(l.committing.is_empty(), "commit stash drained");
        assert!(l.txns.is_empty(), "session closed");
        assert!(l.queue.is_empty());
    }
    // The client saw the committed transaction exactly once.
    let commit_replies = s
        .client_inbox
        .iter()
        .filter(|(c, m)| {
            *c == ClientId(1)
                && matches!(m, Msg::Reply(r) if r.id == commit_id
                    && r.body == ReplyBody::TxnCommitted { txn })
        })
        .count();
    assert_eq!(commit_replies, 1);
    s.assert_replica_states_converged();
}

#[test]
fn singleton_group_commits_alone() {
    let mut s = Shuttle::new(1, cluster_cfg(1));
    assert_eq!(s.leader(), Some(0));
    let mut c = ClientCore::new(ClientId(1), 1, Dur::from_millis(100));
    let done = s.submit(&mut c, RequestKind::Write);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    let done = s.submit(&mut c, RequestKind::Read);
    assert!(matches!(done.body, ReplyBody::Ok(_)));
    assert_eq!(s.replica(0).chosen_prefix(), Instance(1));
}

// ----------------------------------------------------------------------
// Epoch-batched confirm rounds (extension). These tests model a read whose
// client broadcast only reached the leader — the follower copies were lost
// — so per-read confirms never arrive and only a round can complete it.
// ----------------------------------------------------------------------

/// Queue a read at the leader (r0) only, without running the shuttle.
fn push_read(s: &mut Shuttle, client: u64, seq: u64) -> crate::request::RequestId {
    let id = crate::request::RequestId::new(ClientId(client), crate::types::Seq(seq));
    let req = crate::request::Request::new(id, RequestKind::Read, Bytes::new());
    s.queue.push_back((
        Addr::Client(ClientId(client)),
        Addr::Replica(ProcessId(0)),
        Msg::Request(req),
    ));
    id
}

fn read_req(client: u64, seq: u64) -> crate::request::Request {
    crate::request::Request::new(
        crate::request::RequestId::new(ClientId(client), crate::types::Seq(seq)),
        RequestKind::Read,
        Bytes::new(),
    )
}

/// `reads.rs`'s rule, row by row: what an open read needs before it is
/// answered, in a group of three (majority two; the leader's own vote is
/// the first).
#[test]
fn the_one_door() {
    use super::reads::{verdict, Verdict, Verdict::*};
    let (x, lease) = (ReadMode::XPaxos, ReadMode::Lease);
    let follower = ReadMode::Follower { max_staleness: 2 };
    /// Mode; executed?; per-read votes; a round of its epoch completed?;
    /// lease live?; the verdict; what the row shows.
    type Case = (ReadMode, bool, usize, bool, bool, Verdict, &'static str);
    let cases: [Case; 14] = [
        (
            x,
            true,
            2,
            false,
            false,
            Reply,
            "§3.4: executed, and a majority says we lead",
        ),
        (
            x,
            true,
            1,
            false,
            false,
            Wait,
            "one vote short of a majority is no leadership",
        ),
        (
            x,
            true,
            1,
            true,
            false,
            Reply,
            "a completed round of its epoch stands in for the votes",
        ),
        (x, true, 3, true, true, Reply, "both validations at once"),
        (
            x,
            false,
            3,
            true,
            true,
            Wait,
            "result absent: wait, whatever the votes",
        ),
        (x, false, 1, false, false, Wait, "nothing yet"),
        (
            x,
            true,
            1,
            false,
            true,
            Wait,
            "a lease validates nothing outside lease mode",
        ),
        (
            lease,
            true,
            1,
            false,
            true,
            Reply,
            "a live lease needs no vote",
        ),
        (
            lease,
            true,
            3,
            true,
            false,
            Requeue,
            "lease lapsed under the read: through consensus",
        ),
        (
            lease,
            false,
            1,
            false,
            true,
            Wait,
            "leased, not executed: behind the decree in flight",
        ),
        (
            lease,
            false,
            1,
            false,
            false,
            Wait,
            "a lapsed lease requeues only once the read has run",
        ),
        (
            follower,
            true,
            1,
            false,
            false,
            Reply,
            "the leader is at its own watermark",
        ),
        (
            follower,
            false,
            3,
            true,
            true,
            Wait,
            "...once it has executed",
        ),
        (
            ReadMode::Consensus,
            true,
            1,
            false,
            true,
            Wait,
            "a mode that opens no read answers none",
        ),
    ];
    for (mode, executed, votes, confirmed, leased, want, what) in cases {
        let said = verdict(mode, 2, executed, votes, confirmed, leased);
        assert_eq!(said, want, "{what}");
    }
}

/// The lease row of the table through the doors: a lease-mode read that
/// arrived under a live lease and waited behind a decree in flight finds
/// the lease lapsed when the decree commits. It is not answered locally;
/// it becomes a decree itself.
#[test]
fn lease_lapsing_under_a_deferred_read_sends_it_through_consensus() {
    let cfg = cluster_cfg(3).with_read_mode(ReadMode::Lease);
    let mut s = Shuttle::new(3, cfg);
    let client = |c: u64| Addr::Client(ClientId(c));
    let r0 = core(&mut s.nodes, 0);
    let ballot = r0.promised();
    // A write in flight, its `Accept`s withheld; the read opens under the
    // bootstrap heartbeat's lease and waits.
    let withheld = r0.on_message(client(8), Msg::Request(write_req(8, 1)), s.now);
    let waiting = r0.on_message(client(9), Msg::Request(read_req(9, 1)), s.now);
    assert!(waiting.is_empty(), "opened, not executed, not queued");
    // The followers' votes arrive after the lease (25 ms) ran out.
    s.now = Time(Dur::from_secs(10).0);
    let accept = sent(&withheld, |m| matches!(m, Msg::Accept { .. }));
    let Msg::Accept { entries, .. } = &accept else {
        unreachable!()
    };
    let instances = vec![entries[0].0];
    let voted = Msg::Accepted { ballot, instances };
    let r0 = core(&mut s.nodes, 0);
    let committed = r0.on_message(Addr::Replica(ProcessId(1)), voted, s.now);
    let reproposed = sent(&committed, |m| matches!(m, Msg::Accept { .. }));
    let Msg::Accept { entries, .. } = &reproposed else {
        unreachable!()
    };
    assert!(
        entries[0].1.answers(read_req(9, 1).id),
        "the read is a decree now"
    );
    let answered = committed
        .iter()
        .any(|a| matches!(a, Action::Send { to, msg: Msg::Reply(_) } if *to == client(9)));
    assert!(!answered, "no local answer without a lease");
    assert_eq!(s.replica(0).stats.lease_reads, 0);
    assert_eq!(s.replica(0).stats.consensus_reads, 1);
}

#[test]
fn early_confirm_buffer_is_bounded_fifo() {
    let cap = super::reads::EARLY_CONFIRM_CAP;
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let ballot = s.replica(0).promised();
    // Confirms for reads whose client requests never arrive at the leader
    // (the client crashed mid-broadcast, say). The buffer must stay
    // bounded, evicting oldest-first.
    let overflow = 8;
    for seq in 0..(cap + overflow) as u64 {
        let read = crate::request::RequestId::new(ClientId(99), crate::types::Seq(seq));
        s.queue.push_back((
            Addr::Replica(ProcessId(1)),
            Addr::Replica(ProcessId(0)),
            Msg::Confirm { ballot, read },
        ));
    }
    s.run();
    let reads = &s.replica(0).reads;
    assert_eq!(reads.early_buffered(), (cap, cap));
    for seq in 0..overflow as u64 {
        let oldest = crate::request::RequestId::new(ClientId(99), crate::types::Seq(seq));
        assert!(!reads.holds_early(oldest), "oldest evicted");
    }
    let newest = crate::request::RequestId::new(
        ClientId(99),
        crate::types::Seq((cap + overflow - 1) as u64),
    );
    assert!(reads.holds_early(newest), "newest retained");
}

#[test]
fn concurrent_reads_complete_through_a_single_confirm_round() {
    let deep = super::reads::CONFIRM_BACKLOG_THRESHOLD as u64;
    let mut s = Shuttle::new(3, cluster_cfg(3));
    for client in 1..=deep {
        push_read(&mut s, client, 1);
    }
    s.run();
    // All reads completed through one round — no per-read confirm could
    // have voted for them.
    assert_eq!(s.replica(0).stats.confirm_rounds, 1);
    assert_eq!(s.replica(0).stats.batched_reads, deep);
    assert_eq!(s.replica(0).stats.xpaxos_reads, deep);
    let replies = s
        .client_inbox
        .iter()
        .filter(|(_, m)| matches!(m, Msg::Reply(_)))
        .count();
    assert_eq!(replies, deep as usize);
    // The round carried the backlog hint: followers switched off per-read
    // confirms.
    assert!(s.replica(1).reads.suppressed());
    assert!(s.replica(2).reads.suppressed());
    // Hysteresis: the next lone read still rides a round (followers are
    // suppressed, so nothing else can complete it)...
    push_read(&mut s, deep + 1, 1);
    s.run();
    assert_eq!(s.replica(0).stats.confirm_rounds, 2);
    assert!(
        s.replica(1).reads.suppressed(),
        "one shallow round keeps the hint up through a burst gap"
    );
    // ...and only a second consecutive shallow round lifts suppression.
    push_read(&mut s, deep + 2, 1);
    s.run();
    assert_eq!(s.replica(0).stats.confirm_rounds, 3);
    assert!(!s.replica(1).reads.suppressed());
    assert!(!s.replica(2).reads.suppressed());
    assert_eq!(s.replica(0).stats.xpaxos_reads, deep + 2);
}

#[test]
fn retransmitted_lone_read_forces_a_confirm_round() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    // A lone read that reached only the leader launches no round — its
    // per-read confirms are presumed in flight — so it stalls for now.
    push_read(&mut s, 1, 1);
    s.run();
    assert_eq!(s.replica(0).stats.confirm_rounds, 0);
    assert!(
        s.client_inbox.is_empty(),
        "no votes, no round: the read cannot have completed"
    );
    // The client retransmission withdraws that presumption: the leader
    // must force a round rather than stall forever.
    push_read(&mut s, 1, 1);
    s.run();
    assert_eq!(s.replica(0).stats.confirm_rounds, 1);
    assert_eq!(s.replica(0).stats.batched_reads, 1);
    assert!(s
        .client_inbox
        .iter()
        .any(|(c, m)| *c == ClientId(1) && matches!(m, Msg::Reply(_))));
}

#[test]
fn stale_confirm_batch_answers_are_ignored() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let ballot = s.replica(0).promised();
    let now = s.now;
    let r0 = core(&mut s.nodes, 0);
    // No round in flight: a late duplicate answer is a no-op.
    let out = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::ConfirmBatch { ballot, epoch: 7 },
        now,
    );
    assert!(out.is_empty());
    // Open round epoch 1 with a backlog of leader-only reads, answers
    // withheld.
    let deep = super::reads::CONFIRM_BACKLOG_THRESHOLD as u64;
    let mut launched = false;
    for client in 1..=deep {
        let acts = r0.on_message(
            Addr::Client(ClientId(client)),
            Msg::Request(read_req(client, 1)),
            now,
        );
        launched |= acts.iter().any(|a| {
            matches!(
                a,
                Action::ToAllReplicas {
                    msg: Msg::ConfirmReq { epoch: 1, .. }
                }
            )
        });
    }
    assert!(launched, "a deep backlog must open round epoch 1");
    // Answers for the wrong epoch must not complete the round.
    for epoch in [0, 9] {
        let out = r0.on_message(
            Addr::Replica(ProcessId(1)),
            Msg::ConfirmBatch { ballot, epoch },
            now,
        );
        assert!(out.is_empty(), "epoch {epoch} is not the sealed epoch");
    }
    // Nor do answers from a different leadership's round.
    let out = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::ConfirmBatch {
            ballot: crate::ballot::Ballot::ZERO,
            epoch: 1,
        },
        now,
    );
    assert!(out.is_empty());
    // The matching answer still completes it afterwards.
    let out = r0.on_message(
        Addr::Replica(ProcessId(1)),
        Msg::ConfirmBatch { ballot, epoch: 1 },
        now,
    );
    let replies = out
        .iter()
        .filter(|a| {
            matches!(
                a,
                Action::Send {
                    to: Addr::Client(_),
                    msg: Msg::Reply(_)
                }
            )
        })
        .count();
    assert_eq!(
        replies, deep as usize,
        "one valid majority answer releases every covered read"
    );
    assert_eq!(r0.stats.batched_reads, deep);
}

#[test]
fn confirm_round_answers_after_losing_leadership_are_ignored() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let old_ballot = s.replica(0).promised();
    // Make the leader look dead to r1's failure detector.
    s.now = Time(Dur::from_secs(10).0);
    let now = s.now;
    {
        // Round epoch 1 in flight at r0 (answers withheld).
        let r0 = core(&mut s.nodes, 0);
        for client in 1..=super::reads::CONFIRM_BACKLOG_THRESHOLD as u64 {
            let _ = r0.on_message(
                Addr::Client(ClientId(client)),
                Msg::Request(read_req(client, 1)),
                now,
            );
        }
    }
    // r1 seizes leadership; r0 adopts the higher ballot and steps down,
    // dropping its pending reads and its round.
    s.fire(1, TimerKind::LeaderCheck);
    assert_eq!(s.leader(), Some(1));
    // The old round's answer arrives late at the deposed leader: it must
    // be dropped on the floor, not answer the abandoned reads.
    let r0 = core(&mut s.nodes, 0);
    let out = r0.on_message(
        Addr::Replica(ProcessId(2)),
        Msg::ConfirmBatch {
            ballot: old_ballot,
            epoch: 1,
        },
        now,
    );
    assert!(out.is_empty(), "a deposed leader ignores its old round");
    // The same stale answer at the new leader is ignored too.
    let r1 = core(&mut s.nodes, 1);
    let out = r1.on_message(
        Addr::Replica(ProcessId(2)),
        Msg::ConfirmBatch {
            ballot: old_ballot,
            epoch: 1,
        },
        now,
    );
    assert!(out.is_empty(), "another leadership's answers never count");
    // No client ever saw a reply from the abandoned reads.
    assert!(s
        .client_inbox
        .iter()
        .all(|(_, m)| !matches!(m, Msg::Reply(_))));
}

#[test]
fn disabled_confirm_batching_leaves_the_per_read_path_untouched() {
    let mut s = Shuttle::new(3, cluster_cfg(3).with_confirm_batching(false));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    for _ in 0..3 {
        let done = s.submit(&mut c, RequestKind::Read);
        assert!(matches!(done.body, ReplyBody::Ok(_)));
    }
    assert_eq!(s.replica(0).stats.xpaxos_reads, 3);
    assert_eq!(s.replica(0).stats.confirm_rounds, 0);
    assert_eq!(s.replica(0).stats.batched_reads, 0);
    // A deep backlog of leader-only reads (and even a retransmission)
    // launches no rounds with batching off — the knob leaves every new
    // path dormant.
    for client in 10..10 + super::reads::CONFIRM_BACKLOG_THRESHOLD as u64 {
        push_read(&mut s, client, 1);
    }
    push_read(&mut s, 10, 1);
    s.run();
    assert_eq!(s.replica(0).stats.confirm_rounds, 0);
    assert!(!s.replica(1).reads.suppressed());
}

#[test]
fn lone_reads_with_batching_on_use_the_per_read_path_unchanged() {
    // Sequential single-client reads (the paper's E1 setup) must behave
    // byte-identically with batching on: confirms arrive per read, no
    // round ever launches, and followers stay unsuppressed.
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    for _ in 0..3 {
        let done = s.submit(&mut c, RequestKind::Read);
        assert!(matches!(done.body, ReplyBody::Ok(_)));
    }
    assert_eq!(s.replica(0).stats.xpaxos_reads, 3);
    assert_eq!(s.replica(0).stats.confirm_rounds, 0);
    assert_eq!(s.replica(0).stats.batched_reads, 0);
    assert!(!s.replica(1).reads.suppressed());
    assert!(!s.replica(2).reads.suppressed());
}

// ----------------------------------------------------------------------
// `exec.rs`: the executor alone, over both rollback legs. (The script
// lives here, not in a `mod tests` of `exec.rs`, so that file stays all
// product code.)
// ----------------------------------------------------------------------

/// [`NoopApp`] behind an undo log of its own: the rollback leg `KvStore`
/// takes. A `restore` would mean the executor snapshotted anyway.
#[derive(Default)]
pub(crate) struct UndoLogged {
    app: NoopApp,
    undo: Option<u64>,
}

impl App for UndoLogged {
    /// A read asked for chosen state under a window answers from the
    /// count before it.
    fn execute(
        &mut self,
        req: &crate::request::Request,
        ctx: &mut crate::service::ExecCtx<'_>,
    ) -> (Bytes, crate::command::StateUpdate) {
        match self.undo {
            Some(before) if ctx.wants_chosen_state() => {
                ctx.answered_from_chosen_state();
                let chosen = NoopApp {
                    writes_applied: before,
                };
                (chosen.snapshot(), crate::command::StateUpdate::None)
            }
            Some(_) | None => self.app.execute(req, ctx),
        }
    }
    fn apply(&mut self, req: &crate::request::Request, update: &crate::command::StateUpdate) {
        self.app.apply(req, update);
    }
    fn snapshot(&self) -> Bytes {
        self.app.snapshot()
    }
    fn restore(&mut self, _snap: &[u8]) {
        unreachable!("the undo log rolls back, not a snapshot");
    }
    fn tentative_begin(&mut self) -> bool {
        self.undo = Some(self.app.writes_applied);
        true
    }
    fn tentative_rollback(&mut self) {
        self.app.writes_applied = self.undo.take().expect("a window is open");
    }
    fn tentative_commit(&mut self) {
        self.undo.take().expect("a window is open");
    }
}

/// One executor, the decrees chosen so far, and after every step the
/// check that the state is their replay (plus the open window, if any).
struct ExecScript {
    exec: Executor,
    rng: SmallRng,
    chosen: Vec<Decree>,
    next_seq: u64,
}

impl ExecScript {
    fn writes(&mut self, client: u64, n: usize) -> Vec<crate::request::Request> {
        let mut write = || {
            self.next_seq += 1;
            write_req(client, self.next_seq)
        };
        (0..n).map(|_| write()).collect()
    }

    fn run(exec: &mut Executor, rng: &mut SmallRng, batch: Vec<crate::request::Request>) -> Decree {
        exec.execute(batch, Time::ZERO, rng, &mut ReplicaStats::default(), |_| {
            None
        })
    }

    /// This executor runs `n` writes ahead of consensus.
    fn execute(&mut self, n: usize) -> Decree {
        let batch = self.writes(1, n);
        let decree = Self::run(&mut self.exec, &mut self.rng, batch);
        self.check(Some(&decree));
        decree
    }

    /// What another leader at the same chosen prefix would propose next.
    fn foreign(&mut self, n: usize) -> Decree {
        let mut other = Executor::new(Box::new(NoopApp::new()), ValueMode::ReqState);
        for d in &self.chosen {
            other.chosen(d, &mut self.rng);
        }
        let batch = self.writes(2, n);
        Self::run(&mut other, &mut self.rng, batch)
    }

    fn chosen(&mut self, decree: Decree) {
        self.exec.chosen(&decree, &mut self.rng);
        self.chosen.push(decree);
        self.check(None);
    }

    fn abandon(&mut self) {
        self.exec.abandon();
        self.check(None);
    }

    fn check(&self, window: Option<&Decree>) {
        assert_eq!(self.exec.window_open(), window.is_some());
        let mut app = NoopApp::new();
        let mut last = None;
        for decree in self.chosen.iter().chain(window) {
            for e in decree.entries.iter() {
                let crate::command::Command::Req(req) = &e.cmd else {
                    panic!("the script only writes")
                };
                app.apply(req, &e.update);
                last = Some(req.id).filter(|id| id.client == ClientId(1)).or(last);
            }
        }
        assert_eq!(self.exec.state(), app.snapshot());
        if window.is_none() {
            let table = self.exec.last_reply(ClientId(1)).map(|(seq, _)| seq);
            assert_eq!(table, last.map(|id| id.seq), "dedup follows chosen");
        }
    }
}

/// (b) of the issue: execute / abandon / `chosen` with the own decree, a
/// foreign decree over an open window, a foreign decree with the window
/// closed — and the own decree's *content* arriving as another allocation
/// (re-proposed by a later leader, decoded from the wire).
#[test]
fn executor_state_is_the_replay_of_the_chosen_decrees() {
    let legs: [Box<dyn App>; 2] = [Box::new(NoopApp::new()), Box::<UndoLogged>::default()];
    for app in legs {
        let mut s = ExecScript {
            exec: Executor::new(app, ValueMode::ReqState),
            rng: SmallRng::seed_from_u64(3),
            chosen: Vec::new(),
            next_seq: 0,
        };
        let own = s.execute(1);
        s.chosen(own);
        s.execute(2);
        s.abandon();
        s.abandon(); // closed already: nothing to undo
        s.execute(2);
        let noop = s.foreign(0);
        s.chosen(noop);
        let other = s.foreign(3);
        s.chosen(other);
        let own = s.execute(1);
        s.chosen(Decree {
            entries: own.entries.iter().cloned().collect(),
        });
    }
}

/// `Executor::checkpoint_due`, the one place that decides: by count, by
/// bytes against `max(2 × last image, LOG_BYTES_FLOOR)`, and never for
/// `checkpoint_every == 0`, over an open window or during a freeze.
#[test]
fn a_checkpoint_falls_due_by_count_or_by_retained_bytes() {
    use exec::Due;
    const FLOOR: u64 = crate::log::LOG_BYTES_FLOOR;
    const MIB: u64 = 1 << 20;
    let fresh = || Executor::new(Box::new(NoopApp::new()), ValueMode::ReqState);
    let due = |e: &Executor, prefix, every, bytes| e.checkpoint_due(Instance(prefix), every, bytes);

    // No image yet: the budget is the floor.
    let mut e = fresh();
    for ((prefix, every, bytes), want) in [
        ((1023, 1024, 0), None),
        ((1024, 1024, 0), Some(Due::Count)),
        ((10, 1024, FLOOR - 1), None),
        ((10, 1024, FLOOR), Some(Due::Bytes)),
        ((1024, 1024, FLOOR), Some(Due::Count)), // both: the cap names it
        ((5000, 0, 10 * FLOOR), None),           // 0 is "never", for bytes too
    ] {
        assert_eq!(
            due(&e, prefix, every, bytes),
            want,
            "{prefix} {every} {bytes}"
        );
    }

    // After an image of 5 MiB the log may weigh twice that; after a small
    // one the floor holds again. An installed snapshot counts as an image.
    e.checkpointed(Instance(100), 5 * MIB);
    assert_eq!(due(&e, 110, 1024, FLOOR), None);
    assert_eq!(due(&e, 110, 1024, 10 * MIB - 1), None);
    assert_eq!(due(&e, 110, 1024, 10 * MIB), Some(Due::Bytes));
    assert_eq!(due(&e, 1124, 1024, 0), Some(Due::Count));
    e.checkpointed(Instance(200), MIB);
    assert_eq!(due(&e, 210, 1024, FLOOR), Some(Due::Bytes));
    let snap = SnapshotBlob {
        upto: Instance(300),
        app: Bytes::from(vec![0; 6 * MIB as usize]),
        dedup: vec![],
    };
    e.install(&snap);
    assert_eq!(due(&e, 310, 1024, 12 * MIB - 1), None);
    assert_eq!(due(&e, 310, 1024, 12 * MIB), Some(Due::Bytes));

    // Not over an open window: the image must be chosen state only.
    let mut e = fresh();
    let mut rng = SmallRng::seed_from_u64(1);
    let own = ExecScript::run(&mut e, &mut rng, vec![write_req(1, 1)]);
    assert_eq!(due(&e, 4096, 1024, 10 * FLOOR), None);
    e.chosen(&own, &mut rng);
    assert_eq!(due(&e, 4096, 1024, 0), Some(Due::Count));

    // Not while one is being written.
    e.freeze_at(Instance(1), 64 * 1024, Time::ZERO);
    assert_eq!(due(&e, 4096, 1024, 10 * FLOOR), None);
    assert!(e.pump(usize::MAX, |_, _| {}).is_some());
    assert_eq!(due(&e, 4096, 1024, FLOOR), Some(Due::Count));
}

/// A service that says of everything it executes or stages that the
/// update subsumes the operation — more than any bundled service claims.
struct Subsuming;

impl App for Subsuming {
    fn execute(
        &mut self,
        req: &crate::request::Request,
        ctx: &mut crate::service::ExecCtx<'_>,
    ) -> (Bytes, crate::command::StateUpdate) {
        ctx.update_subsumes_op();
        let write = req.kind != RequestKind::Read;
        let update = write.then(|| crate::command::StateUpdate::Delta(req.op.clone()));
        (
            req.op.clone(),
            update.unwrap_or(crate::command::StateUpdate::None),
        )
    }
    fn apply(&mut self, _req: &crate::request::Request, _update: &crate::command::StateUpdate) {}
    fn snapshot(&self) -> Bytes {
        Bytes::new()
    }
    fn restore(&mut self, _snap: &[u8]) {}
    fn txn_execute(
        &mut self,
        _txn: TxnId,
        req: &crate::request::Request,
        _durable: bool,
        ctx: &mut crate::service::ExecCtx<'_>,
    ) -> Result<(Bytes, crate::command::StateUpdate), AbortReason> {
        Ok(self.execute(req, ctx))
    }
    fn txn_commit(&mut self, _txn: TxnId) -> crate::command::StateUpdate {
        crate::command::StateUpdate::Delta(Bytes::from_static(b"commit"))
    }
    fn txn_prepare(
        &mut self,
        _txn: TxnId,
        req: &crate::request::Request,
        ctx: &mut crate::service::ExecCtx<'_>,
    ) -> Result<crate::command::StateUpdate, AbortReason> {
        Ok(self.execute(req, ctx).1)
    }
}

/// The decree drops the body of a plain write under `ValueMode::ReqState`
/// whose execution said the update subsumes it — and of nothing else: a
/// consensus read, the classic `ReqOnly` baseline (backups re-execute from
/// the body) and every transactional arm keep theirs.
#[test]
fn only_a_plain_write_whose_update_subsumes_it_loses_its_body() {
    use crate::request::{Request, RequestId};
    let op = Bytes::from_static(b"put k v");
    let id = |seq| RequestId::new(ClientId(1), Seq(seq));
    let txn = TxnId(9);
    let batch = || {
        vec![
            Request::new(id(1), RequestKind::Write, op.clone()),
            Request::new(id(2), RequestKind::Read, op.clone()),
            Request::txn_op(id(3), RequestKind::Write, txn, op.clone()),
            Request::txn_commit(id(4), txn, 1),
            Request::txn_prepare(id(5), TxnId(10), op.clone()),
            Request::txn_decide(id(6), TxnId(10), true, true),
            Request::txn_commit(id(7), TxnId(11), 1),
        ]
    };
    // The last commit is a T-Paxos one: its session's operations ride it.
    let tpaxos_op = Request::txn_op(id(70), RequestKind::Write, TxnId(11), op.clone());
    let run = |mode| {
        let mut e = Executor::new(Box::new(Subsuming), mode);
        let mut rng = SmallRng::seed_from_u64(1);
        let session = |rid| (rid == id(7)).then(|| vec![tpaxos_op.clone()]);
        e.execute(
            batch(),
            Time::ZERO,
            &mut rng,
            &mut ReplicaStats::default(),
            session,
        )
    };
    let bodies =
        |d: &Decree| -> Vec<usize> { d.entries.iter().map(|e| e.cmd.op_bytes()).collect() };
    let n = op.len();
    // (commit and decide requests carry no operation to begin with)
    assert_eq!(bodies(&run(ValueMode::ReqState)), [0, n, n, 0, n, 0, n]);
    assert_eq!(bodies(&run(ValueMode::ReqOnly)), [n, n, n, 0, n, 0, n]);
    // Identity, update and reply are all still there.
    let d = run(ValueMode::ReqState);
    assert_eq!(d.entries[0].cmd.request_id(), Some(id(1)));
    assert_eq!(d.entries[0].update.payload_len(), n);
    assert_eq!(d.entries[0].reply, ReplyBody::Ok(op.clone()));
    // The app answers a write with its update's own buffer: the reply is
    // a slice of the update, counted once.
    assert_eq!(d.entries[0].reply_in_update(), Some(0..n));
    // Operation + update + reply: one, two, two, none, two, none and one
    // copy of the op, and the six bytes of "commit" twice.
    assert_eq!(d.payload_bytes(), (8 * n + 2 * 6) as u64);
}

// ----------------------------------------------------------------------
// What the persist-before-send check in `Outbox::push` lets through
// ----------------------------------------------------------------------

/// A follower that promised `b`, crashed and recovered answers a
/// retransmitted `Prepare(b)` with a `Promise` and writes nothing new:
/// the promise it answers for is the one it loaded from its disk.
#[test]
fn push_allows_a_recovered_follower_to_promise_what_it_loaded() {
    let cfg = cluster_cfg(3).with_bootstrap_leader(None);
    let ballot = Ballot::new(1, ProcessId(2));
    let candidate = Addr::Replica(ProcessId(2));
    let prepare = || Msg::Prepare {
        ballot,
        chosen_prefix: Instance::ZERO,
        known_above: Vec::new(),
    };
    let open = |mut disk: Box<dyn NodeStorage>| {
        let (id, app, g) = (ProcessId(1), Box::new(NoopApp::new()), GroupId::ZERO);
        let mut r = Replica::on(id, cfg.clone(), app, disk.as_mut(), g, 7, Time::ZERO, false);
        r.stable.hold(Some(disk));
        r
    };
    let mut r = open(one(MemStorage::new()));
    r.on_message(candidate, prepare(), Time::ZERO);
    let mut r = open(r.stable.give_back().unwrap());
    let writes = r.stable.disk().write_count();
    let mut outbox = Outbox::default();
    for action in r.on_message(candidate, prepare(), Time::ZERO) {
        if let Action::Send { to, msg } = action {
            assert!(matches!(msg, Msg::Promise { ballot: b, .. } if b == ballot));
            outbox.push(Out::One(to, msg), &r);
        }
    }
    assert!(!outbox.is_empty(), "promised");
    assert_eq!(r.stable.disk().write_count(), writes, "nothing new written");
}

/// A follower that applied an instance answers a retransmitted `Accept`
/// for it without writing: the acceptance is vacuous, and its record of
/// accepts no longer holds the instance (the mark pruned it).
#[test]
fn push_allows_a_follower_to_reack_below_its_chosen_prefix() {
    let mut s = Shuttle::new(3, cluster_cfg(3));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    s.fire(0, TimerKind::Heartbeat);
    assert_eq!(s.replica(1).chosen_prefix(), Instance(1));
    let (ballot, decree) = s.replica(0).log().get(Instance(1)).cloned().unwrap();
    let writes = core(&mut s.nodes, 1).stable.disk().write_count();
    let accept = Msg::Accept {
        ballot,
        entries: vec![(Instance(1), decree)],
    };
    s.trace.clear();
    s.step(1, |node, now, timers| {
        node.deliver(Addr::Replica(ProcessId(0)), accept, now, timers);
    });
    assert_eq!(core(&mut s.nodes, 1).stable.disk().write_count(), writes);
    assert_eq!(s.trace, ["r1: | - | accepted"]);
}

/// A service with no state whose image streams in eight empty chunks, so
/// a checkpoint stays open across drive cycles.
struct SlowImage;

impl App for SlowImage {
    fn execute(
        &mut self,
        _req: &crate::request::Request,
        _ctx: &mut crate::service::ExecCtx<'_>,
    ) -> (Bytes, crate::command::StateUpdate) {
        (Bytes::new(), crate::command::StateUpdate::None)
    }
    fn apply(&mut self, _req: &crate::request::Request, _update: &crate::command::StateUpdate) {}
    fn snapshot(&self) -> Bytes {
        Bytes::new()
    }
    fn restore(&mut self, _snap: &[u8]) {}
    fn snapshot_begin(&mut self, _chunk_bytes: usize) -> usize {
        8
    }
    fn snapshot_chunk(&mut self, _idx: usize) -> Bytes {
        Bytes::new()
    }
}

/// A leader retransmits the `Accept` of a decree it proposed before a
/// checkpoint truncated the instances below it: truncation leaves the
/// record of accepts to the chosen-prefix marks, so the leader's own vote
/// is still on record.
#[test]
fn push_allows_a_retransmit_after_a_truncation() {
    let cfg = cluster_cfg(3).with_checkpoint_every(2);
    let disks = (0..3)
        .map(|_| Box::new(MemStorage::new()) as Box<dyn Storage>)
        .collect();
    let mut s = Shuttle::serving(cfg, disks, || Box::new(SlowImage));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    s.submit(&mut c, RequestKind::Write);
    assert!(
        s.replica(0).checkpointing(),
        "instance 2 opened a checkpoint"
    );
    let _ = (s.crash(1), s.crash(2));
    let actions = c.submit_op(RequestKind::Write, Bytes::new(), s.now);
    assert!(s.try_drive_client(&mut c, actions).is_none(), "no quorum");
    assert!(s.replica(0).checkpointing(), "instance 3 proposed first");
    while s.replica(0).checkpointing() {
        s.fire(0, TimerKind::Heartbeat);
    }
    assert_eq!(s.replica(0).log().get(Instance(2)), None, "truncated");
    s.trace.clear();
    s.fire(0, TimerKind::Retransmit);
    assert_eq!(s.trace, ["r0: | - | accept accept"]);
}

// ----------------------------------------------------------------------
// Beside the barrier: what a drive loop may run while this replica's
// storage syncs elsewhere, and reads of chosen state under a window.
// ----------------------------------------------------------------------

/// A 3-replica cluster in `mode` serving [`UndoLogged`], one write
/// chosen, and a second executed by leader 0 whose `Accept` is withheld:
/// its window is open.
fn window_open(mode: ReadMode) -> Shuttle {
    let cfg = cluster_cfg(3).with_read_mode(mode);
    let disks = (0..3).map(|_| Box::new(MemStorage::new()) as Box<dyn Storage>);
    let mut s = Shuttle::serving(cfg, disks.collect(), || Box::new(UndoLogged::default()));
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    s.submit(&mut c, RequestKind::Write);
    let r0 = core(&mut s.nodes, 0);
    let withheld = r0.on_message(
        Addr::Client(ClientId(8)),
        Msg::Request(write_req(8, 1)),
        s.now,
    );
    sent(&withheld, |m| matches!(m, Msg::Accept { .. }));
    assert!(r0.checker_view().tentative_exec);
    s
}

fn plain_read(client: u64) -> crate::request::Request {
    let id = crate::request::RequestId::new(ClientId(client), Seq(1));
    crate::request::Request::new(id, RequestKind::Read, Bytes::new())
}

/// One message of every variant — a request as a plain read, a write and
/// a transactional read — named for the table, and the sender.
fn every_variant(b: Ballot) -> Vec<(&'static str, Addr, Msg)> {
    let peer = Addr::Replica(ProcessId(1));
    let client = Addr::Client(ClientId(9));
    let i = Instance(1);
    let txn_read = crate::request::Request::txn_op(
        crate::request::RequestId::new(ClientId(9), Seq(2)),
        RequestKind::Read,
        TxnId(1),
        Bytes::new(),
    );
    let reply = crate::request::Reply {
        id: plain_read(9).id,
        leader: ProcessId(0),
        watermark: i,
        body: ReplyBody::Empty,
    };
    let read = Msg::Request(plain_read(9));
    let image = ImageRun {
        upto: i,
        total: 1,
        first: 0,
        dedup: Vec::new(),
        pieces: vec![Bytes::new()],
    };
    let higher = Ballot::new(b.round + 1, ProcessId(2));
    vec![
        ("read", client, read.clone()),
        ("write", client, Msg::Request(write_req(9, 3))),
        ("txn read", client, Msg::Request(txn_read)),
        ("reply", client, Msg::Reply(reply)),
        (
            "prepare",
            peer,
            Msg::Prepare {
                ballot: higher,
                chosen_prefix: i,
                known_above: Vec::new(),
            },
        ),
        (
            "promise",
            peer,
            Msg::Promise {
                ballot: b,
                chosen_prefix: i,
                accepted: Vec::new(),
            },
        ),
        (
            "prepare_nack",
            peer,
            Msg::PrepareNack {
                ballot: b,
                promised: higher,
            },
        ),
        (
            "accept",
            peer,
            Msg::Accept {
                ballot: b,
                entries: vec![(Instance(9), Decree::noop())],
            },
        ),
        (
            "accepted",
            peer,
            Msg::Accepted {
                ballot: b,
                instances: vec![Instance(2)],
            },
        ),
        (
            "accept_nack",
            peer,
            Msg::AcceptNack {
                ballot: b,
                promised: higher,
            },
        ),
        ("chosen", peer, Msg::Chosen { ballot: b, upto: i }),
        (
            "confirm",
            peer,
            Msg::Confirm {
                ballot: b,
                read: plain_read(9).id,
            },
        ),
        (
            "confirm_req",
            peer,
            Msg::ConfirmReq {
                ballot: b,
                epoch: 1,
                backlog: false,
            },
        ),
        (
            "confirm_batch",
            peer,
            Msg::ConfirmBatch {
                ballot: b,
                epoch: 1,
            },
        ),
        (
            "heartbeat",
            peer,
            Msg::Heartbeat {
                ballot: b,
                chosen: i,
                hb_seq: 1,
            },
        ),
        (
            "heartbeat_ack",
            peer,
            Msg::HeartbeatAck {
                ballot: b,
                hb_seq: 1,
            },
        ),
        (
            "catchup_req",
            peer,
            Msg::CatchUpReq {
                have: Instance::ZERO,
                resume: None,
            },
        ),
        (
            "catchup",
            peer,
            Msg::CatchUp {
                ballot: b,
                image: Some(image),
                entries: Vec::new(),
            },
        ),
        (
            "grouped read",
            client,
            Msg::Grouped {
                group: crate::types::GroupId::ZERO,
                inner: Box::new(read),
            },
        ),
    ]
}

/// Every `Msg` variant × role × read mode through
/// [`Replica::serves_beside_barrier`]: it admits a plain read under
/// X-Paxos at a follower or at a leader with no recovery outstanding, and
/// a `Confirm` at a leader — each only while the promise is durable — and
/// nothing else: no `Confirm` or read while a promise is inside the
/// barrier, no read under `Consensus`, `Lease` or follower reads, no
/// `Prepare`, `Accept`, `Chosen` or `Heartbeat`. Each admitted step then
/// runs with the storage away — any call on it panics — and
/// sends no `Accept`.
#[test]
fn beside_the_barrier_runs_reads_and_confirms_only() {
    let modes = [
        ReadMode::XPaxos,
        ReadMode::Lease,
        ReadMode::Consensus,
        ReadMode::Follower { max_staleness: 4 },
    ];
    let mut admitted_steps = 0;
    for mode in modes {
        let mut s = window_open(mode);
        let now = s.now;
        let leader = s.take(0);
        let b = leader.promised();
        let mut recovering = window_open(mode).take(0);
        if let Role::Leader(l) = &mut recovering.role {
            l.recovery = Some(super::leader::RecoveryBatch::default());
        }
        let follower = s.take(1);
        let mut candidate = s.take(2);
        candidate.start_election(now, &mut Vec::new());
        candidate.barrier();
        let mut promised_anew = window_open(mode).take(1);
        let prepare = Msg::Prepare {
            ballot: Ballot::new(b.round + 1, ProcessId(2)),
            chosen_prefix: Instance::ZERO,
            known_above: Vec::new(),
        };
        promised_anew.on_message(Addr::Replica(ProcessId(2)), prepare, now);
        let roles = [
            ("leader", leader),
            ("leader in recovery", recovering),
            ("follower", follower),
            ("candidate", candidate),
            ("promise inside the barrier", promised_anew),
        ];
        let xpaxos = mode == ReadMode::XPaxos;
        for (role, mut r) in roles {
            assert_eq!(
                r.stable.promise_durable(),
                role != "promise inside the barrier"
            );
            let variants = every_variant(b);
            let tags: std::collections::BTreeSet<_> =
                variants.iter().map(|(_, _, m)| m.tag()).collect();
            assert_eq!(
                tags.len(),
                16,
                "every variant but the envelope, which wraps a read"
            );
            for (name, from, msg) in variants {
                let want = match (name, role) {
                    (_, "promise inside the barrier") => false,
                    ("read" | "grouped read", "leader" | "follower") => xpaxos,
                    ("confirm", "leader" | "leader in recovery") => true,
                    _ => false,
                };
                let got = r.serves_beside_barrier(&msg);
                assert_eq!(got, want, "{name} at a {role} under {mode:?}");
                if !got {
                    continue;
                }
                let storage = r.stable.give_back();
                let actions = r.on_message(from, msg, now);
                r.stable.hold(storage);
                let accept = actions.iter().any(|a| match a {
                    Action::Send { msg, .. } | Action::ToAllReplicas { msg } => {
                        matches!(msg, Msg::Accept { .. })
                    }
                    Action::SetTimer { .. } | Action::CancelTimer { .. } => false,
                });
                assert!(!accept, "{name} at a {role} proposed");
                admitted_steps += 1;
            }
        }
    }
    // X-Paxos: read, grouped read at leader and follower; confirm at both
    // leaders. Every other mode: the confirms.
    assert_eq!(admitted_steps, 6 + 3 * 2);
}

/// §3.4 under a decree in flight: a read that reaches the leader while
/// its window is open is executed on the state before it — the service
/// keeps it as its undo log — and answered as soon as a majority
/// confirms, before the write commits. Its reply holds the one chosen
/// write, not the tentative second. (`NoopApp` keeps no undo log, and the
/// read waits for the commit: `xpaxos_read_defers_behind_tentative_write`.)
#[test]
fn a_read_under_a_window_is_answered_from_chosen_state() {
    let mut s = window_open(ReadMode::XPaxos);
    let now = s.now;
    let r0 = core(&mut s.nodes, 0);
    let ballot = r0.promised();
    let read = plain_read(9);
    let mut actions = r0.on_message(Addr::Client(ClientId(9)), Msg::Request(read.clone()), now);
    let confirm = Msg::Confirm {
        ballot,
        read: read.id,
    };
    actions.extend(r0.on_message(Addr::Replica(ProcessId(1)), confirm, now));
    let reply = sent(&actions, |m| matches!(m, Msg::Reply(_)));
    let Msg::Reply(reply) = reply else {
        unreachable!()
    };
    let count = u64::from_le_bytes(reply.body.payload().unwrap()[..8].try_into().unwrap());
    assert_eq!((reply.id, count), (read.id, 1), "the chosen write only");
    assert!(r0.checker_view().tentative_exec, "the window is still open");
    assert_eq!(writes_applied(r0), 2, "and holds the second write");
}
