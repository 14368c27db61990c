//! State moves one way. A promise names the promiser's chosen prefix and
//! carries no state; a replica that is behind — a follower, or a candidate
//! behind the highest promiser of its majority — pulls what it lacks, one
//! `CatchUpReq` answered by one `CatchUp` at a time, from any replica that
//! is ahead. A reply carries at most `LOG_BYTES_FLOOR` payload bytes plus
//! one piece (or decree), and a piece is at most `checkpoint_chunk_bytes`
//! whatever the service's own chunking.
//!
//! Every replica-to-replica message here crosses the wire codec, encoded
//! by the sender and decoded by the receiver as on a socket, so a message
//! the decoder refuses shows as a failed decode. Timers fire only when a
//! test fires them.

use bytes::Bytes;
use gridpaxos::core::client::{ClientCore, CompletedOp};
use gridpaxos::core::log::LOG_BYTES_FLOOR;
use gridpaxos::core::msg::{ImageRun, Msg};
use gridpaxos::core::node::{Node, TimerOps};
use gridpaxos::core::outbox::Out;
use gridpaxos::core::prelude::*;
use gridpaxos::services::{KvOp, KvStore, ShipMode, SizedApp};
use gridpaxos::transport::wire::{decode_msg, encode_to_bytes};
use std::collections::VecDeque;

/// Room for what a reply encodes beside its payload: tags, ballot, the
/// image header, the dedup table of the few clients here, a length prefix
/// per piece and the framing of the decrees above the image.
const HEADER: usize = 16 << 10;

const MIB: usize = 1 << 20;

/// Three replicas on an in-memory network that carries encoded frames.
struct Net {
    cfg: Config,
    app: fn(usize) -> Box<dyn App>,
    state: usize,
    nodes: Vec<Option<Node>>,
    queue: VecDeque<(Addr, Addr, Bytes)>,
    client_inbox: Vec<Msg>,
    now: Time,
    /// The replica whose step is being released.
    stepping: u32,
    /// Every catch-up reply sent: its encoded length and its image run.
    replies: Vec<(usize, Option<ImageRun>)>,
}

impl Net {
    fn new(cfg: Config, app: fn(usize) -> Box<dyn App>, state: usize) -> Net {
        let mut net = Net {
            cfg,
            app,
            state,
            nodes: Vec::new(),
            queue: VecDeque::new(),
            client_inbox: Vec::new(),
            now: Time::ZERO,
            stepping: 0,
            replies: Vec::new(),
        };
        for p in 0..3 {
            let node = net.fresh(p);
            net.nodes.push(Some(node));
        }
        for p in 0..3 {
            net.start(p);
        }
        net.run();
        net
    }

    /// Replica `p` on `disk`: fresh on an empty one, recovered otherwise.
    fn open(&self, p: u32, disk: Box<dyn NodeStorage>, seed: u64) -> Node {
        let app = |_| (self.app)(self.state);
        Node::open(ProcessId(p), self.cfg.clone(), disk, &app, seed, self.now)
    }

    fn fresh(&self, p: u32) -> Node {
        let disk = vec![Box::new(MemStorage::new()) as Box<dyn Storage>];
        self.open(p, Box::new(disk), 11 + u64::from(p))
    }

    fn start(&mut self, p: u32) {
        self.step(p, |node, now, timers| node.start(now, timers));
    }

    fn replica(&self, p: u32) -> &Replica {
        let node = self.nodes[p as usize].as_ref().expect("live");
        node.group(GroupId::ZERO).expect("one group")
    }

    fn replica_mut(&mut self, p: u32) -> &mut Replica {
        let node = self.nodes[p as usize].as_mut().expect("live");
        node.group_mut(GroupId::ZERO)
    }

    fn live(&self) -> impl Iterator<Item = &Replica> {
        let nodes = self.nodes.iter().flatten();
        nodes.filter_map(|node| node.group(GroupId::ZERO))
    }

    fn leader(&self) -> Option<u32> {
        (0..3).find(|p| self.nodes[*p as usize].is_some() && self.replica(*p).is_leader())
    }

    /// One step of replica `p`, if it is up: `run` on its node, then the
    /// release, over this network.
    fn step(&mut self, p: u32, run: impl FnOnce(&mut Node, Time, &mut TimerOps)) {
        let Some(mut node) = self.nodes[p as usize].take() else {
            return;
        };
        run(&mut node, self.now, &mut TimerOps::new());
        self.stepping = p;
        node.release(self);
        self.nodes[p as usize] = Some(node);
    }

    fn send(&mut self, from: Addr, to: Addr, msg: &Msg) {
        let frame = encode_to_bytes(msg);
        if let Msg::CatchUp { image, .. } = msg {
            self.replies.push((frame.len(), image.clone()));
        }
        self.queue.push_back((from, to, frame));
    }

    /// Deliver until quiescent, decoding every frame.
    fn run(&mut self) {
        while let Some((from, to, mut frame)) = self.queue.pop_front() {
            let msg = decode_msg(&mut frame).expect("every frame decodes");
            match to {
                Addr::Replica(p) => {
                    self.step(p.0, |node, now, timers| {
                        node.deliver(from, msg, now, timers)
                    });
                }
                Addr::Client(_) => self.client_inbox.push(msg),
            }
        }
    }

    fn fire(&mut self, p: u32, kind: TimerKind) {
        self.step(p, |node, now, timers| {
            node.fire(GroupId::ZERO, kind, now, timers);
        });
        self.run();
    }

    fn advance(&mut self, ms: u64) {
        self.now = self.now.after(Dur::from_millis(ms));
    }

    fn crash(&mut self, p: u32) -> Box<dyn NodeStorage> {
        let node = self.nodes[p as usize].take().expect("live");
        node.into_storage()
    }

    /// The client's actions reach the replicas; its replies come back.
    fn drive(&mut self, c: &mut ClientCore, actions: Vec<Action>) -> Option<CompletedOp> {
        let from = Addr::Client(c.id());
        for a in actions {
            match a {
                Action::Send { to, msg } => self.send(from, to, &msg),
                Action::ToAllReplicas { msg } => {
                    for p in 0..3 {
                        self.send(from, Addr::Replica(ProcessId(p)), &msg);
                    }
                }
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
            }
        }
        self.run();
        let mut done = None;
        for msg in std::mem::take(&mut self.client_inbox) {
            let (completed, more) = c.on_message(msg, self.now);
            done = done.or(completed);
            done = self.drive(c, more).or(done);
        }
        done
    }

    /// One write, through the client's retry if its hinted leader is gone.
    fn write(&mut self, c: &mut ClientCore, op: Bytes) -> CompletedOp {
        let actions = c.submit_op(RequestKind::Write, op, self.now);
        if let Some(done) = self.drive(c, actions) {
            return done;
        }
        let retry = c.on_timer(TimerKind::ClientRetry, self.now);
        self.drive(c, retry).expect("the retry completes")
    }

    /// Heartbeats from the leader until every live replica is at its
    /// prefix; each heartbeat shows a lagging follower it is behind.
    fn converge(&mut self) {
        let lead = self.leader().expect("a leader");
        for _ in 0..64 {
            let prefix = self.replica(lead).chosen_prefix();
            if self.live().all(|r| r.chosen_prefix() == prefix) {
                let states: Vec<_> = self.live().map(Replica::service_snapshot).collect();
                assert!(states.windows(2).all(|w| w[0] == w[1]), "states diverged");
                return;
            }
            self.advance(50);
            self.fire(lead, TimerKind::Heartbeat);
        }
        panic!("no convergence");
    }

    /// Every reply within the bound, every piece within the chunk size.
    /// Returns how many replies carried image pieces.
    fn assert_replies_bounded(&self) -> usize {
        let chunk = self.cfg.checkpoint_chunk_bytes;
        let bound = LOG_BYTES_FLOOR as usize + chunk + HEADER;
        for (len, image) in &self.replies {
            assert!(*len <= bound, "a reply of {len} B > {bound} B");
            let pieces = image.iter().flat_map(|run| &run.pieces);
            assert!(
                pieces.clone().all(|p| p.len() <= chunk),
                "a piece past {chunk} B"
            );
        }
        self.replies.iter().filter(|(_, i)| i.is_some()).count()
    }
}

impl gridpaxos::core::node::Net for Net {
    fn transmit(&mut self, outs: &mut Vec<Out>) {
        let me = self.stepping;
        let from = Addr::Replica(ProcessId(me));
        for out in outs.drain(..) {
            match out {
                Out::One(to, msg) => self.send(from, to, &msg),
                Out::All(msg) => {
                    for p in (0..3).filter(|p| *p != me) {
                        self.send(from, Addr::Replica(ProcessId(p)), &msg);
                    }
                }
            }
        }
    }
}

fn sized(state: usize) -> Box<dyn App> {
    Box::new(SizedApp::new(state, ShipMode::Delta))
}

fn kv(_: usize) -> Box<dyn App> {
    Box::new(KvStore::new())
}

/// `writes` empty-bodied writes (a `SizedApp` patches itself).
fn writes(net: &mut Net, c: &mut ClientCore, writes: usize) {
    for _ in 0..writes {
        let done = net.write(c, Bytes::new());
        assert!(matches!(done.body, ReplyBody::Ok(_)), "{:?}", done.body);
    }
}

/// A failover whose elected candidate is behind a truncated log: r2
/// misses four writes, over which r0 and r1 checkpoint and truncate;
/// then r0 dies and r2 campaigns first. r1's promise names prefix 5 and
/// carries no state: r2 pulls r1's image and the log above it, in
/// replies of at most the floor plus a piece, and only then leads.
fn failover_behind_a_truncated_log(state: usize) {
    let cfg = Config::cluster(3)
        .with_checkpoint_every(2)
        .with_checkpoint_chunk_bytes(256 << 10);
    let mut net = Net::new(cfg, sized, state);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    writes(&mut net, &mut c, 1);
    let disk = net.crash(2);
    writes(&mut net, &mut c, 4);
    assert!(
        net.replica(1).stats.checkpoints >= 2,
        "r1 truncated its log"
    );

    net.nodes[2] = Some(net.open(2, disk, 7));
    assert_eq!(net.replica(2).chosen_prefix(), Instance(1), "r2 is behind");
    net.crash(0);
    net.advance(10_000);
    net.fire(2, TimerKind::LeaderCheck);

    assert_eq!(net.leader(), Some(2), "the lagging replica leads");
    let r2 = net.replica(2);
    assert_eq!(
        (r2.stats.elections_started, r2.chosen_prefix()),
        (1, Instance(5))
    );
    assert_eq!(r2.service_snapshot(), net.replica(1).service_snapshot());
    let pulled = net.assert_replies_bounded();
    let min = (state as u64).div_ceil(LOG_BYTES_FLOOR) as usize;
    assert!(pulled >= min, "{pulled} replies for {state} B");
    let largest = net.replies.iter().map(|(len, _)| len).max();
    println!("{state} B pulled in {pulled} image replies, the largest {largest:?} B");

    writes(&mut net, &mut c, 1);
    assert_eq!(net.replica(2).chosen_prefix(), Instance(6));
    net.converge();
}

#[test]
fn a_failover_behind_a_truncated_log_pulls_the_state_before_it_leads() {
    failover_behind_a_truncated_log(9 * MIB);
}

/// The same failover at 64 MiB of state: eight replies or more, each one
/// frame the transports carry.
#[test]
#[cfg_attr(debug_assertions, ignore = "64 MiB of state: release mode")]
fn a_failover_behind_a_truncated_log_pulls_64_mib_before_it_leads() {
    failover_behind_a_truncated_log(64 * MIB);
}

/// A wiped follower pulls a monolithic image past the decoder's 16 MiB
/// byte-string limit: a `SizedApp` keeps `App`'s one chunk, which goes
/// out cut into pieces of the chunk size, a bounded run per reply, each
/// reply asking for the next at once. A request that names the image
/// resumes at its piece; one naming another image starts again at 0.
#[test]
fn a_monolithic_image_past_16_mib_is_pulled_in_bounded_pieces() {
    let cfg = Config::cluster(3)
        .with_checkpoint_every(2)
        .with_checkpoint_chunk_bytes(MIB);
    let mut net = Net::new(cfg, sized, 17 * MIB);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    writes(&mut net, &mut c, 5);
    net.nodes[2] = Some(net.fresh(2));
    net.start(2);
    net.run();
    net.converge();
    assert!(net.assert_replies_bounded() >= 3, "17 MiB in 8 MiB runs");

    let pulled = net
        .replies
        .iter()
        .filter_map(|(_, i)| i.as_ref())
        .next_back();
    let upto = pulled.expect("an image was pulled").upto;
    let ask = |resume| Msg::CatchUpReq {
        have: Instance::ZERO,
        resume,
    };
    let from = Addr::Replica(ProcessId(2));
    for (resume, first) in [(Some((upto, 9)), 9), (Some((Instance(1), 9)), 0), (None, 0)] {
        let served = net.replica_mut(0).on_message(from, ask(resume), Time::ZERO);
        let run = served.into_iter().find_map(|a| match a {
            Action::Send {
                msg: Msg::CatchUp { image, .. },
                ..
            } => image,
            Action::Send { .. } | Action::ToAllReplicas { .. } => None,
            Action::SetTimer { .. } | Action::CancelTimer { .. } => None,
        });
        assert_eq!(
            run.map(|r| (r.upto, r.first)),
            Some((upto, first)),
            "{resume:?}"
        );
    }
}

/// A multi-chunk `KvStore` image with small chunk bytes, pulled by a
/// wiped follower: some of its chunks (one 64 KiB value each) are past
/// the chunk size and go out cut; every reply stays within the bound.
#[test]
fn a_chunked_kvstore_image_is_pulled_in_bounded_replies() {
    let cfg = Config::cluster(3)
        .with_checkpoint_every(16)
        .with_checkpoint_chunk_bytes(16 << 10);
    let mut net = Net::new(cfg, kv, 0);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    for k in 0..145 {
        let value = char::from(b'a' + (k % 26) as u8)
            .to_string()
            .repeat(64 << 10);
        let done = net.write(&mut c, KvOp::Put(format!("k{k:03}"), value).encode());
        assert!(matches!(done.body, ReplyBody::Ok(_)), "{:?}", done.body);
        // No timer fires here, so each checkpoint streams only as decrees
        // apply; finish it, so the next one covers the store as it is.
        for p in 0..2 {
            net.replica_mut(p).pump_checkpoint(usize::MAX);
        }
    }
    net.nodes[2] = Some(net.fresh(2));
    net.start(2);
    net.run();
    net.converge();
    assert!(net.assert_replies_bounded() >= 2, "9 MiB in 8 MiB runs");
}

/// An image of more than 65,536 pieces installs: the requester holds the
/// pieces that came, and no cap on their count stands in for a bound on
/// what they weigh.
#[test]
fn an_image_of_more_than_65536_pieces_installs() {
    let cfg = Config::cluster(3)
        .with_checkpoint_every(2)
        .with_checkpoint_chunk_bytes(1);
    let mut net = Net::new(cfg, sized, 70_000);
    let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
    writes(&mut net, &mut c, 3);
    net.nodes[2] = Some(net.fresh(2));
    net.start(2);
    net.run();
    net.converge();
    net.assert_replies_bounded();
    let pieces = net
        .replies
        .iter()
        .flat_map(|(_, i)| i)
        .map(|r| r.total)
        .max();
    assert!(pieces > Some(65_536), "{pieces:?}");
}

/// A promise is the same size whatever the promiser's state: over 17 MiB
/// of state (past the decoder's 16 MiB byte-string limit) it encodes to
/// as many bytes as over an empty one, and decodes.
#[test]
fn a_promise_weighs_the_same_over_17_mib_of_state() {
    let promise = |state: usize| {
        let mut net = Net::new(Config::cluster(3), sized, state);
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        writes(&mut net, &mut c, 1);
        net.crash(2);
        writes(&mut net, &mut c, 2);
        let now = net.now;
        let r1 = net.replica_mut(1);
        let prepare = Msg::Prepare {
            ballot: Ballot::new(9, ProcessId(2)),
            chosen_prefix: Instance(1),
            known_above: vec![],
        };
        let promised = r1.on_message(Addr::Replica(ProcessId(2)), prepare, now);
        let frame = promised.into_iter().find_map(|a| match a {
            Action::Send {
                msg: msg @ Msg::Promise { .. },
                ..
            } => Some(encode_to_bytes(&msg)),
            Action::Send { .. } | Action::ToAllReplicas { .. } => None,
            Action::SetTimer { .. } | Action::CancelTimer { .. } => None,
        });
        frame.expect("a promise")
    };
    let (big, empty) = (promise(17 * MIB), promise(0));
    assert_eq!(big.len(), empty.len());
    let decoded = decode_msg(&mut big.clone()).expect("decodes");
    assert!(matches!(
        decoded,
        Msg::Promise {
            chosen_prefix: Instance(3),
            ..
        }
    ));
}
