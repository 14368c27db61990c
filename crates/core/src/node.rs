//! One node, every host: the sans-io drive of one process's replica
//! groups.
//!
//! A [`Node`] is everything a drive loop does to a process but the I/O
//! and the clock, so every host runs the same steps — the epoll reactor
//! of `gridpaxos-transport`, the simulator's `World`, the model checker's
//! cluster and the test shuttles — and what the live path runs is what a
//! seeded run reproduces and the checker explores. [`Node::admit`] queues
//! an arrival and [`Node::step_next`] routes the oldest to the group its
//! envelope names and steps it; [`Node::deliver`] is the two at once. The
//! group's sends wait in the node's outbox, enveloped, and its timer
//! operations go back to the host as [`TimerOp`]s, which cannot carry a
//! send. [`Node::release`] runs the one order of sends and barrier
//! ([`crate::outbox`]) over the host's [`Net`], which keeps its clock and
//! network and says where a barrier syncs: the reactor lends it to a
//! thread pool, the simulator, the checker and the shuttles sync inline
//! and are never away.
//!
//! While a barrier is away, [`Node::step_next`] runs only what
//! `Replica::serves_beside_barrier` admits and holds the rest, enveloped
//! as it arrived and in arrival order; a release sends what the admitted
//! steps made at once; [`Node::fire`] refuses, since a timer's handler
//! may write storage. [`Node::barrier_back`] sends what waited behind the
//! barrier and puts the held messages back at the front of the node's
//! queue, ahead of anything that arrived after them.
//!
//! The node's backlog is what it has queued and what it holds. From
//! [`ADMIT_HIGH`] down to [`ADMIT_LOW`], [`Node::admit`] sheds a client
//! request with the `Busy` reply the host sends at once, outside the
//! outbox: it never reached a replica, so no barrier covers it. A host
//! that steps each arrival at once has a backlog of one and never sheds.
//!
//! A node is the one owner of its process's stable storage, one
//! [`NodeStorage`] for all its groups. The storage sits with one group at
//! a time, the one the node stepped last, and moves to the group the node
//! steps next; a host that steps a group by hand reaches it through
//! [`Node::group_mut`], which moves it too. No two threads ever hold it
//! at once: the barrier takes it away, in its [`Lent`], and brings it
//! back.
//!
//! A power cut inside a release needs no door of its own: a host whose
//! [`Net::lend`] keeps the barrier and hands it back unflushed through
//! [`Node::barrier_back`] has sent the ahead list and lost the behind
//! list with the process, the barrier is still due, and
//! [`Node::into_storage`] keeps what the previous barrier covered.
//!
//! ## Groups (extension beyond the paper)
//!
//! The `G` groups of a node are fully independent instances of the whole
//! protocol — log, ballots, election, failure detector, strict §3.3
//! pipeline — so every per-group safety argument carries over verbatim,
//! and `G` leaders run `G` pipelines over a hash-partitioned keyspace. A
//! multi-group node wraps every protocol message in [`Msg::Grouped`]; a
//! node with one group never wraps, byte-identical to the plain
//! [`Replica`] protocol. Nothing is ordered across groups, and bootstrap
//! leaders rotate across processes (`(p + g) mod n`).

use crate::action::{Action, TimerKind};
use crate::config::Config;
use crate::msg::Msg;
use crate::outbox::{release_begin, release_beside, release_end, Held, Lent, Out, Outbox};
use crate::replica::Replica;
use crate::request::{Reply, ReplyBody};
use crate::service::App;
use crate::storage::NodeStorage;
use crate::types::{Addr, Dur, GroupId, Instance, ProcessId, Time};
use std::collections::VecDeque;

/// The backlog at which a node starts shedding client requests.
pub const ADMIT_HIGH: usize = 4096;

/// The backlog at which a shedding node admits client requests again.
pub const ADMIT_LOW: usize = 1024;

/// Derive group `g`'s config from the deployment config: identical except
/// for the bootstrap leader. A geo-aware [`Config::placement`] entry for
/// the group wins (the bench harness computes one by client-weighted RTT);
/// otherwise the bootstrap leader rotates across processes so leadership
/// load spreads over the cluster.
#[must_use]
pub fn group_config(cfg: &Config, g: GroupId) -> Config {
    let mut c = cfg.clone();
    if let Some(placed) = cfg
        .placement
        .as_ref()
        .and_then(|p| p.get(g.0 as usize))
        .copied()
    {
        debug_assert!((placed.0 as usize) < cfg.n, "placement names a replica");
        c.bootstrap_leader = Some(placed);
    } else if let Some(p) = c.bootstrap_leader {
        c.bootstrap_leader = Some(ProcessId((p.0 + g.0) % cfg.n as u32));
    }
    c
}

/// Derive group `g`'s RNG seed from the process seed. Group 0 keeps the
/// seed unchanged, so a single-group [`Node`] is bit-identical to a bare
/// [`Replica`] built with the same seed.
#[must_use]
pub fn group_seed(seed: u64, g: GroupId) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(g.0))
}

/// What a step asks of its host's timers, for one group: unlike an
/// [`Action`], it cannot carry a send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerOp {
    /// Arm the timer of this kind to fire after the delay, replacing one
    /// pending.
    Set(TimerKind, Dur),
    /// Cancel the pending timer of this kind, if any.
    Cancel(TimerKind),
}

/// A step's timer operations, in the order the handler made them, each
/// with its group: a buffer the host passes in and drains.
pub type TimerOps = Vec<(GroupId, TimerOp)>;

/// The host's half of a release: its network, and where a barrier syncs.
pub trait Net {
    /// Hand `outs` to the network, in order, leaving the list empty (its
    /// allocation stays). On return the messages are out of the host's
    /// hands — offered to the kernel, not merely queued — as of now on
    /// the host's clock, which a barrier that ran since the last call has
    /// moved.
    fn transmit(&mut self, outs: &mut Vec<Out>);

    /// Take the barrier to sync elsewhere — [`Lent::flush`] on any
    /// thread, then [`Node::barrier_back`] — or hand it back as the error
    /// to sync here and now, which is the default.
    fn lend(&mut self, lent: Lent) -> Result<(), Lent> {
        Err(lent)
    }
}

/// One process: `G` replica groups sharing one identity and one storage,
/// its backlog, the sends of the cycle in progress, and the barrier away
/// with what waits for it.
pub struct Node {
    id: ProcessId,
    /// One of them holds the storage, but while the barrier is away.
    groups: Vec<Replica>,
    /// Arrivals not yet stepped, each with its sender, in arrival order.
    queue: VecDeque<(Addr, Msg)>,
    /// What arrived while a barrier is away and waits for it, enveloped
    /// as it arrived.
    held: VecDeque<(Addr, Msg)>,
    /// Whether client requests are shed: from a backlog of
    /// [`ADMIT_HIGH`] down to [`ADMIT_LOW`].
    shedding: bool,
    outbox: Outbox,
    /// The sends behind the barrier away, while one is.
    behind: Option<Held>,
}

impl Node {
    /// Open a node over `storage`, one group for each it stores (as
    /// returned by [`Node::into_storage`]): each group is
    /// [`Replica::open`]ed, so fresh storage gives a fresh group and
    /// storage with prior state a recovered one. The app factory receives
    /// the group it is building for, so a sharded service can know which
    /// slice of the keyspace it owns (and refuse, with a typed abort,
    /// operations that belong elsewhere).
    #[must_use]
    pub fn open(
        id: ProcessId,
        cfg: Config,
        storage: Box<dyn NodeStorage>,
        app_factory: &dyn Fn(GroupId) -> Box<dyn App>,
        seed: u64,
        now: Time,
    ) -> Node {
        Node::build(id, cfg, storage, app_factory, seed, now, false)
    }

    /// [`Node::open`] for a process that crashed: each group is
    /// [`Replica::recover`]ed, so it draws its timer jitter as a
    /// recovered replica even from storage its crash left empty.
    #[must_use]
    pub fn recover(
        id: ProcessId,
        cfg: Config,
        storage: Box<dyn NodeStorage>,
        app_factory: &dyn Fn(GroupId) -> Box<dyn App>,
        seed: u64,
        now: Time,
    ) -> Node {
        Node::build(id, cfg, storage, app_factory, seed, now, true)
    }

    fn build(
        id: ProcessId,
        cfg: Config,
        storage: Box<dyn NodeStorage>,
        app_factory: &dyn Fn(GroupId) -> Box<dyn App>,
        seed: u64,
        now: Time,
        recovered: bool,
    ) -> Node {
        let n = storage.n_groups() as u32;
        assert!(n > 0, "at least one group");
        let mut storage = storage;
        let groups = (0..n).map(GroupId).map(|g| {
            let (cfg, seed) = (group_config(&cfg, g), group_seed(seed, g));
            let app = app_factory(g);
            Replica::on(id, cfg, app, storage.as_mut(), g, seed, now, recovered)
        });
        let mut groups: Vec<Replica> = groups.collect();
        groups[0].stable.hold(Some(storage));
        Node {
            id,
            groups,
            queue: VecDeque::new(),
            held: VecDeque::new(),
            shedding: false,
            outbox: Outbox::default(),
            behind: None,
        }
    }

    /// This process's id.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Number of groups hosted.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Access one group's replica.
    #[must_use]
    pub fn group(&self, g: GroupId) -> Option<&Replica> {
        self.groups.get(g.0 as usize)
    }

    /// Group `g`'s replica, holding the node's storage, to step by hand:
    /// what its handlers return goes to the caller, not through the
    /// outbox.
    ///
    /// # Panics
    /// If the node does not host `g`.
    pub fn group_mut(&mut self, g: GroupId) -> &mut Replica {
        let i = g.0 as usize;
        if !self.groups[i].stable.holds() {
            let disk = self.groups.iter_mut().find_map(|c| c.stable.give_back());
            self.groups[i].stable.hold(disk);
        }
        &mut self.groups[i]
    }

    /// Whether a barrier is away: lent, and not yet back.
    #[must_use]
    pub fn barrier_away(&self) -> bool {
        self.behind.is_some()
    }

    /// How many arrivals wait for [`Node::step_next`].
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The sends buffered since the last release.
    pub fn sends(&self) -> impl Iterator<Item = &Out> {
        self.outbox.iter()
    }

    /// Start every group.
    pub fn start(&mut self, now: Time, timers: &mut TimerOps) {
        for g in (0..self.groups.len() as u32).map(GroupId) {
            self.step(g, timers, |core| core.on_start(now));
        }
    }

    /// Queue an arrival for [`Node::step_next`], or, if it is a client
    /// request and the node is shedding, return its `Busy` reply instead,
    /// in the envelope the request came in, for the host to send at once.
    #[must_use = "a shed request's Busy reply goes back to its client"]
    pub fn admit(&mut self, from: Addr, msg: Msg) -> Option<Msg> {
        // Every message but the envelope is bare, whatever its variant.
        #[allow(clippy::wildcard_enum_match_arm)]
        let (g, inner) = match &msg {
            Msg::Grouped { group, inner } => (*group, inner.as_ref()),
            bare => (GroupId::ZERO, bare),
        };
        if let Msg::Request(req) = inner {
            if self.shedding() {
                let busy = Msg::Reply(Reply {
                    id: req.id,
                    leader: self.id,
                    watermark: Instance::ZERO,
                    body: ReplyBody::Busy,
                });
                return Some(self.envelope(g, busy));
            }
        }
        self.queue.push_back((from, msg));
        None
    }

    /// Step the oldest arrival, if there is one, and say whether there
    /// was. It goes to the group its envelope names (a bare message can
    /// only come from a single-group sender and addresses group 0); one
    /// for a group this process does not host is dropped — a
    /// mis-configured peer, not a protocol condition. While a barrier is
    /// away, a message the group may not run beside it is held.
    pub fn step_next(&mut self, now: Time, timers: &mut TimerOps) -> bool {
        let Some((from, msg)) = self.queue.pop_front() else {
            return false;
        };
        // Every message but the envelope is bare, whatever its variant.
        #[allow(clippy::wildcard_enum_match_arm)]
        let (g, inner) = match msg {
            Msg::Grouped { group, inner } => (group, *inner),
            bare => (GroupId::ZERO, bare),
        };
        match self.groups.get(g.0 as usize) {
            None => {}
            Some(core) if self.behind.is_some() && !core.serves_beside_barrier(&inner) => {
                let msg = self.envelope(g, inner);
                self.held.push_back((from, msg));
            }
            Some(_) => self.step(g, timers, |core| core.on_message(from, inner, now)),
        }
        // The backlog shrinks here, unless the message was held: a latch
        // that reaches the low mark opens now, not at the next request.
        self.shedding();
        true
    }

    /// [`Node::admit`] a message and step everything queued.
    ///
    /// # Panics
    /// If the message is shed: a host that builds a backlog admits and
    /// steps on its own.
    pub fn deliver(&mut self, from: Addr, msg: Msg, now: Time, timers: &mut TimerOps) {
        let shed = self.admit(from, msg);
        assert!(shed.is_none(), "shed by a host that steps each arrival");
        while self.step_next(now, timers) {}
    }

    /// Fire group `g`'s timer `kind`.
    ///
    /// # Panics
    /// While a barrier is away: a timer's handler may write storage, and
    /// the host holds its timers until the barrier is back.
    pub fn fire(&mut self, g: GroupId, kind: TimerKind, now: Time, timers: &mut TimerOps) {
        assert!(
            self.behind.is_none(),
            "a timer fired while a barrier is away"
        );
        if self.groups.len() > g.0 as usize {
            self.step(g, timers, |core| core.on_timer(kind, now));
        }
    }

    /// Release the buffered sends over `net`: while a barrier is away,
    /// what the admitted steps made, at once; otherwise the one order of
    /// [`crate::outbox`], the barrier lent to `net` if it takes it.
    pub fn release(&mut self, net: &mut impl Net) {
        if self.behind.is_some() {
            return release_beside(&mut self.outbox, net);
        }
        let Some((lent, held)) = release_begin(&mut self.groups, &mut self.outbox, net) else {
            return;
        };
        let lent = if lent.is_empty() {
            Err(lent)
        } else {
            net.lend(lent)
        };
        match lent {
            Ok(()) => self.behind = Some(held),
            Err(lent) => self.sync_here(lent, held, net),
        }
    }

    /// The barrier away is back, synced: send what waited behind it, and
    /// put the messages held for it at the front of the node's queue, in
    /// arrival order, to run before anything that arrived since.
    ///
    /// # Panics
    /// If no barrier is away.
    pub fn barrier_back(&mut self, lent: Lent, net: &mut impl Net) {
        let Some(held) = self.behind.take() else {
            panic!("no barrier away");
        };
        release_end(&mut self.groups, &mut self.outbox, net, lent, held);
        self.held.append(&mut self.queue);
        std::mem::swap(&mut self.queue, &mut self.held); // both keep their allocations
    }

    /// A clean stop: release what is buffered with the barrier here, then
    /// [`Replica::stop`] every group — that last flush, and a decree still
    /// in flight taken back — and hand the groups back in group order.
    ///
    /// # Panics
    /// If a barrier is away: the host brings it back first.
    pub fn stop(mut self, net: &mut impl Net) -> Vec<Replica> {
        assert!(self.behind.is_none(), "stopped with a barrier away");
        if let Some((lent, held)) = release_begin(&mut self.groups, &mut self.outbox, net) {
            self.sync_here(lent, held, net);
        }
        for g in (0..self.groups.len() as u32).map(GroupId) {
            self.group_mut(g).stop();
        }
        self.groups
    }

    /// Every group's replica, in group order, as they are: one of them
    /// holds the storage.
    #[must_use]
    pub fn into_groups(self) -> Vec<Replica> {
        self.groups
    }

    /// Consume the process (a crash), keeping its stable storage.
    ///
    /// # Panics
    /// If a barrier is away: the storage is not here to keep.
    #[must_use]
    pub fn into_storage(self) -> Box<dyn NodeStorage> {
        match self
            .groups
            .into_iter()
            .find_map(|mut c| c.stable.give_back())
        {
            Some(disk) => disk,
            None => panic!("crashed with a barrier away"),
        }
    }

    /// Whether client requests are shed at the backlog as it is now:
    /// from [`ADMIT_HIGH`] on, until it is down to [`ADMIT_LOW`].
    fn shedding(&mut self) -> bool {
        let backlog = self.queue.len() + self.held.len();
        self.shedding = backlog >= ADMIT_HIGH || (self.shedding && backlog > ADMIT_LOW);
        self.shedding
    }

    /// Run `step` on group `g`, holding the storage, and buffer what it
    /// sends.
    fn step(
        &mut self,
        g: GroupId,
        timers: &mut TimerOps,
        step: impl FnOnce(&mut Replica) -> Vec<Action>,
    ) {
        let actions = step(self.group_mut(g));
        self.buffer(g, actions, timers);
    }

    /// The barrier synced on the host's thread, then the rest of the
    /// release.
    fn sync_here(&mut self, mut lent: Lent, held: Held, net: &mut impl Net) {
        lent.flush();
        release_end(&mut self.groups, &mut self.outbox, net, lent, held);
    }

    /// What group `g`'s `msg` looks like on the wire: in the group
    /// envelope in a multi-group deployment, as it is with one group.
    fn envelope(&self, g: GroupId, msg: Msg) -> Msg {
        if self.groups.len() == 1 {
            return msg;
        }
        debug_assert!(
            !matches!(msg, Msg::Grouped { .. }),
            "group envelopes never nest"
        );
        Msg::Grouped {
            group: g,
            inner: Box::new(msg),
        }
    }

    /// Buffer group `g`'s sends, enveloped, in the outbox, and hand its
    /// timer operations to the host.
    fn buffer(&mut self, g: GroupId, actions: Vec<Action>, timers: &mut TimerOps) {
        for a in actions {
            let out = match a {
                Action::Send { to, msg } => Out::One(to, self.envelope(g, msg)),
                Action::ToAllReplicas { msg } => Out::All(self.envelope(g, msg)),
                Action::SetTimer { kind, after } => {
                    timers.push((g, TimerOp::Set(kind, after)));
                    continue;
                }
                Action::CancelTimer { kind } => {
                    timers.push((g, TimerOp::Cancel(kind)));
                    continue;
                }
            };
            self.outbox.push(out, &self.groups[g.0 as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::tests::UndoLogged;
    use crate::request::{Request, RequestId, RequestKind};
    use crate::service::NoopApp;
    use crate::storage::{MemStorage, Storage, TailLossStorage};
    use crate::types::{ClientId, Instance, Seq};
    use bytes::Bytes;
    use std::sync::Arc;

    fn noop(_g: GroupId) -> Box<dyn App> {
        Box::new(NoopApp::new())
    }

    fn fresh(n_groups: usize) -> Box<dyn NodeStorage> {
        let disk = |_| Box::new(MemStorage::new()) as Box<dyn Storage>;
        Box::new((0..n_groups).map(disk).collect::<Vec<_>>())
    }

    fn node(n_groups: usize, seed: u64) -> Node {
        let cfg = Config::cluster(3);
        Node::open(ProcessId(0), cfg, fresh(n_groups), &noop, seed, Time::ZERO)
    }

    fn write_req(seq: u64) -> Msg {
        Msg::Request(Request::new(
            RequestId::new(ClientId(1), Seq(seq)),
            RequestKind::Write,
            Bytes::new(),
        ))
    }

    /// A bare replica's actions and a node's buffered sends and timer
    /// operations, written the same way.
    fn rendered(actions: Vec<Action>) -> (Vec<String>, Vec<String>) {
        let (mut sends, mut timers) = (Vec::new(), Vec::new());
        for a in actions {
            match a {
                Action::Send { to, msg } => sends.push(format!("{:?}", Out::One(to, msg))),
                Action::ToAllReplicas { msg } => sends.push(format!("{:?}", Out::All(msg))),
                Action::SetTimer { kind, after } => {
                    timers.push(format!("{:?}", TimerOp::Set(kind, after)));
                }
                Action::CancelTimer { kind } => timers.push(format!("{:?}", TimerOp::Cancel(kind))),
            }
        }
        (sends, timers)
    }

    /// A single-group node's buffered sends and timer operations, each
    /// of the latter tagged with group 0.
    fn buffered(n: &mut Node, timers: &mut TimerOps) -> (Vec<String>, Vec<String>) {
        let sends = n.sends().map(|o| format!("{o:?}")).collect();
        assert!(timers.iter().all(|(g, _)| *g == GroupId::ZERO));
        let ops = timers.drain(..).map(|(_, op)| format!("{op:?}")).collect();
        n.release(&mut Dropped);
        (sends, ops)
    }

    /// A network that drops everything and syncs every barrier here.
    struct Dropped;

    impl Net for Dropped {
        fn transmit(&mut self, outs: &mut Vec<Out>) {
            outs.clear();
        }
    }

    #[test]
    fn single_group_is_action_identical_to_bare_replica() {
        let seed = 42;
        let mut bare = Replica::new(
            ProcessId(0),
            Config::cluster(3),
            Box::new(NoopApp::new()),
            Box::new(MemStorage::new()),
            seed,
            Time::ZERO,
        );
        let mut m = node(1, seed);
        let mut timers = TimerOps::new();

        m.start(Time::ZERO, &mut timers);
        let want = rendered(bare.on_start(Time::ZERO));
        assert!(!want.0.is_empty() && !want.1.is_empty());
        assert_eq!(buffered(&mut m, &mut timers), want, "G=1 must not wrap");

        let from = Addr::Client(ClientId(1));
        m.deliver(from, write_req(1), Time(1), &mut timers);
        let want = rendered(bare.on_message(from, write_req(1), Time(1)));
        assert_eq!(buffered(&mut m, &mut timers), want);
    }

    #[test]
    fn bootstrap_leaders_rotate_across_groups() {
        let m = node(4, 7);
        for g in 0..4u32 {
            let cfg = m.group(GroupId(g)).unwrap().config();
            assert_eq!(cfg.bootstrap_leader, Some(ProcessId(g % 3)));
        }
        // The rotation only renames the bootstrap leader; n is untouched.
        assert_eq!(m.group(GroupId(3)).unwrap().config().n, 3);
    }

    #[test]
    fn placement_overrides_rotation_per_group() {
        // Groups 0 and 1 pinned (geo placement); group 2 past the vector
        // falls back to the rotation.
        let cfg = Config::cluster(3).with_placement(Some(vec![ProcessId(2), ProcessId(2)]));
        let m = Node::open(ProcessId(0), cfg, fresh(3), &noop, 21, Time::ZERO);
        let leader = |g: u32| m.group(GroupId(g)).unwrap().config().bootstrap_leader;
        assert_eq!(leader(0), Some(ProcessId(2)));
        assert_eq!(leader(1), Some(ProcessId(2)));
        assert_eq!(leader(2), Some(ProcessId(2)), "rotation fallback");
    }

    #[test]
    fn grouped_messages_route_to_their_group_only() {
        let mut m = node(2, 9);
        let mut timers = TimerOps::new();
        m.start(Time::ZERO, &mut timers);
        m.release(&mut Dropped);
        timers.clear();
        // Group 1's bootstrap leader is r1, not us; group 0's is r0 = us,
        // so starting up put group 0 into an election.
        assert!(m.group(GroupId::ZERO).unwrap().leading_ballot().is_some());
        // A request enveloped for group 1 must not touch group 0's state.
        let before = m.group(GroupId::ZERO).unwrap().log_len();
        let msg = Msg::Grouped {
            group: GroupId(1),
            inner: Box::new(write_req(1)),
        };
        m.deliver(Addr::Client(ClientId(1)), msg, Time(1), &mut timers);
        assert!(timers.iter().all(|(g, _)| *g == GroupId(1)));
        assert!(m
            .sends()
            .all(|o| matches!(o.msg(), Msg::Grouped { group, .. } if *group == GroupId(1))));
        assert_eq!(m.group(GroupId::ZERO).unwrap().log_len(), before);
    }

    #[test]
    fn multi_group_outputs_are_enveloped() {
        // p0 is group 0's bootstrap leader and p1 group 1's: each starts
        // an election in its own group only, and each answers the other's
        // `Prepare` in the group that sent it.
        let mut p0 = node(2, 11);
        let cfg = Config::cluster(3);
        let mut p1 = Node::open(ProcessId(1), cfg, fresh(2), &noop, 11, Time::ZERO);
        let mut timers = TimerOps::new();
        let sent_by = |n: &mut Node, g: GroupId| {
            let out: Vec<Msg> = n.sends().map(|o| o.msg().clone()).collect();
            assert!(!out.is_empty());
            for msg in &out {
                let Msg::Grouped { group, inner } = msg else {
                    panic!("unwrapped outbound message: {msg:?}");
                };
                assert_eq!(*group, g, "{msg:?}");
                assert!(!matches!(**inner, Msg::Grouped { .. }), "no nesting");
            }
            n.release(&mut Dropped);
            out
        };
        p0.start(Time::ZERO, &mut timers);
        let prepare0 = sent_by(&mut p0, GroupId::ZERO);
        p1.start(Time::ZERO, &mut timers);
        let prepare1 = sent_by(&mut p1, GroupId(1));

        let (r0, r1) = (Addr::Replica(ProcessId(0)), Addr::Replica(ProcessId(1)));
        p0.deliver(r1, prepare1[0].clone(), Time(1), &mut timers);
        sent_by(&mut p0, GroupId(1));
        p1.deliver(r0, prepare0[0].clone(), Time(1), &mut timers);
        sent_by(&mut p1, GroupId::ZERO);
    }

    #[test]
    fn unknown_group_is_dropped() {
        let mut m = node(2, 13);
        let msg = Msg::Grouped {
            group: GroupId(7),
            inner: Box::new(write_req(1)),
        };
        let mut timers = TimerOps::new();
        m.deliver(Addr::Client(ClientId(1)), msg, Time(1), &mut timers);
        assert!(timers.is_empty() && m.sends().next().is_none());
    }

    #[test]
    fn crash_and_recover_preserves_every_group() {
        let mut m = node(2, 15);
        m.start(Time::ZERO, &mut TimerOps::new());
        m.release(&mut Dropped);
        let storage = m.into_storage();
        assert_eq!(storage.n_groups(), 2);
        let m2 = Node::open(
            ProcessId(0),
            Config::cluster(3),
            storage,
            &noop,
            15,
            Time(1),
        );
        assert_eq!(m2.n_groups(), 2);
        assert_eq!(
            m2.group(GroupId(1)).unwrap().config().bootstrap_leader,
            Some(ProcessId(1))
        );
    }

    #[test]
    fn group_seed_is_identity_for_group_zero() {
        assert_eq!(group_seed(0xabcd, GroupId::ZERO), 0xabcd);
        assert_ne!(group_seed(0xabcd, GroupId(1)), 0xabcd);
        assert_ne!(
            group_seed(0xabcd, GroupId(1)),
            group_seed(0xabcd, GroupId(2))
        );
    }

    // ----- the barrier away --------------------------------------------

    /// One node's network in [`Three`]: what it transmitted, and, when it
    /// lends, the barrier it took.
    #[derive(Default)]
    struct Kept {
        sent: Vec<Out>,
        lends: bool,
        lent: Option<Lent>,
        lends_taken: usize,
    }

    impl Net for Kept {
        fn transmit(&mut self, outs: &mut Vec<Out>) {
            self.sent.append(outs);
        }

        fn lend(&mut self, lent: Lent) -> Result<(), Lent> {
            if !self.lends {
                return Err(lent);
            }
            self.lends_taken += 1;
            self.lent = Some(lent);
            Ok(())
        }
    }

    /// Three single-group nodes serving [`UndoLogged`] on the disks
    /// `disk` makes, with no batch window; replicas' messages go where
    /// they are addressed when the test pumps, a client's reply stays in
    /// its sender's `sent`.
    struct Three {
        nodes: Vec<Node>,
        nets: Vec<Kept>,
        now: Time,
    }

    const CLIENT: Addr = Addr::Client(ClientId(5));

    fn three(disk: impl Fn() -> Box<dyn Storage>) -> Three {
        let mut cfg = Config::cluster(3);
        cfg.batch_window = Dur::ZERO;
        let app = |_| Box::new(UndoLogged::default()) as Box<dyn App>;
        let nodes = (0..3)
            .map(|i| {
                let disk = Box::new(vec![disk()]);
                Node::open(ProcessId(i), cfg.clone(), disk, &app, 7, Time::ZERO)
            })
            .collect();
        let nets = (0..3).map(|_| Kept::default()).collect();
        let mut t = Three {
            nodes,
            nets,
            now: Time::ZERO,
        };
        for i in 0..3 {
            t.nodes[i].start(t.now, &mut TimerOps::new());
            t.release(i);
        }
        t.pump();
        assert!(t.nodes[0].group(GroupId::ZERO).unwrap().is_leader());
        let first = t.request(1, RequestKind::Write);
        t.deliver(0, CLIENT, first);
        t.release(0);
        t.pump();
        assert_eq!(t.replies(0), [(1, 1)], "the first write");
        t
    }

    impl Three {
        fn request(&self, seq: u64, kind: RequestKind) -> Msg {
            let id = RequestId::new(ClientId(5), Seq(seq));
            Msg::Request(Request::new(id, kind, Bytes::new()))
        }

        fn deliver(&mut self, i: usize, from: Addr, msg: Msg) {
            self.nodes[i].deliver(from, msg, self.now, &mut TimerOps::new());
        }

        fn release(&mut self, i: usize) {
            self.nodes[i].release(&mut self.nets[i]);
        }

        /// Deliver every replica message sent so far, and what those
        /// steps send, until nothing moves.
        fn pump(&mut self) {
            loop {
                let mut moved = false;
                for i in 0..3 {
                    let sent = std::mem::take(&mut self.nets[i].sent);
                    let from = Addr::Replica(ProcessId(i as u32));
                    for out in sent {
                        let to = match &out {
                            Out::One(Addr::Replica(p), _) => vec![p.0 as usize],
                            Out::All(_) => (0..3).filter(|j| *j != i).collect(),
                            Out::One(Addr::Client(_), _) => {
                                self.nets[i].sent.push(out);
                                continue;
                            }
                        };
                        for j in to {
                            self.deliver(j, from, out.msg().clone());
                            self.release(j);
                            moved = true;
                        }
                    }
                }
                if !moved {
                    return;
                }
            }
        }

        /// The client replies node `i` sent, as (sequence, writes the
        /// state held); the rest of what it sent stays.
        fn replies(&mut self, i: usize) -> Vec<(u64, u64)> {
            let mut replies = Vec::new();
            self.nets[i].sent.retain(|out| match out {
                Out::One(_, Msg::Reply(r)) => {
                    let state = r.body.payload().and_then(|b| b.get(..8));
                    let count = state.map_or(0, |b| {
                        u64::from_le_bytes(b.try_into().expect("eight bytes"))
                    });
                    replies.push((r.id.seq.0, count));
                    false
                }
                Out::One(..) | Out::All(_) => true,
            });
            replies
        }
    }

    /// The leader's disk lends: a second write leaves its `Accept` and
    /// takes the barrier away. Returns the cluster and the barrier.
    fn away() -> (Three, Lent) {
        let mut t = three(|| Box::new(MemStorage::modelled(Arc::default(), true)));
        t.nets[0].lends = true;
        let write = t.request(2, RequestKind::Write);
        t.deliver(0, CLIENT, write);
        t.release(0);
        assert!(t.nodes[0].barrier_away());
        let tags: Vec<_> = t.nets[0].sent.iter().map(|o| o.msg().tag()).collect();
        assert_eq!(tags, ["accept"], "the Accept leaves ahead of the barrier");
        let lent = t.nets[0].lent.take().expect("the barrier lent");
        (t, lent)
    }

    /// Beside the barrier, a read and the `Confirm` that validates it run
    /// at once: the leader answers from the state before the write in
    /// flight, and no `Accept` goes out.
    #[test]
    fn a_read_and_its_confirm_are_answered_beside_the_barrier() {
        let (mut t, _lent) = away();
        t.nets[0].sent.clear();
        let read = t.request(3, RequestKind::Read);
        t.deliver(0, CLIENT, read.clone());
        t.deliver(1, CLIENT, read);
        t.release(1);
        let confirm = t.nets[1].sent.pop().expect("the follower's confirm");
        assert_eq!(confirm.msg().tag(), "confirm");
        t.deliver(0, Addr::Replica(ProcessId(1)), confirm.msg().clone());
        assert!(t.nodes[0].held.is_empty(), "nothing held");
        t.release(0);
        assert!(t.nodes[0].barrier_away(), "still away");
        assert_eq!(t.replies(0), [(3, 1)], "the chosen write only");
        assert!(t.nets[0].sent.is_empty(), "and nothing else: no Accept");
    }

    /// A write that arrives while the barrier is away waits for it, with
    /// the follower's `Accepted` that commits the write in flight, and
    /// both come back ahead of a write that arrived, still unstepped,
    /// while the barrier was away.
    #[test]
    fn a_write_waits_for_the_barrier_and_runs_first_after_it() {
        let (mut t, mut lent) = away();
        let accept = t.nets[0].sent.pop().expect("the Accept");
        t.deliver(0, CLIENT, t.request(3, RequestKind::Write));
        t.deliver(1, Addr::Replica(ProcessId(0)), accept.msg().clone());
        t.release(1);
        let accepted = t.nets[1].sent.pop().expect("the follower's vote");
        t.deliver(0, Addr::Replica(ProcessId(1)), accepted.msg().clone());
        assert_eq!(t.nodes[0].held.len(), 2);
        t.release(0);
        assert!(t.nets[0].sent.is_empty(), "held steps sent nothing");
        let later = t.request(4, RequestKind::Write);
        let later = t.nodes[0].admit(CLIENT, later);
        assert!(later.is_none() && t.nodes[0].queued() == 1);

        lent.flush();
        t.nodes[0].barrier_back(lent, &mut t.nets[0]);
        assert!(!t.nodes[0].barrier_away() && t.nodes[0].held.is_empty());
        let queue = t.nodes[0].queue.iter();
        let order: Vec<_> = queue.map(|(from, m)| (*from, m.tag())).collect();
        let r1 = Addr::Replica(ProcessId(1));
        let arrival = [(CLIENT, "request"), (r1, "accepted"), (CLIENT, "request")];
        assert_eq!(order, arrival, "held first, in arrival order");
        t.nets[0].lends = false;
        while t.nodes[0].step_next(t.now, &mut TimerOps::new()) {}
        t.release(0);
        t.pump();
        assert_eq!(t.replies(0), [(2, 2), (3, 3), (4, 4)]);
    }

    /// A timer's handler may write storage: none fires while the barrier
    /// is away.
    #[test]
    #[should_panic(expected = "a timer fired while a barrier is away")]
    fn a_timer_fired_while_the_barrier_is_away_is_refused() {
        let (mut t, _lent) = away();
        let (now, mut timers) = (t.now, TimerOps::new());
        t.nodes[0].fire(GroupId::ZERO, TimerKind::Heartbeat, now, &mut timers);
    }

    /// Power fails at the barrier of a step that made one due, on a disk
    /// that loses what no barrier covered: the `Accept` left ahead of it,
    /// the barrier comes back unsynced and sends nothing, the barrier is
    /// still due, and the disk holds what it held before the step.
    #[test]
    fn a_power_cut_at_the_barrier_lets_only_the_ahead_list_out() {
        let mut t = three(|| Box::new(TailLossStorage::default()));
        let before = format!(
            "{:?}",
            t.nodes[0].group_mut(GroupId::ZERO).stable.disk().load()
        );
        t.nets[0].lends = true;
        t.deliver(0, CLIENT, t.request(2, RequestKind::Write));
        t.release(0);
        let lent = t.nets[0].lent.take().expect("the barrier lent");
        let tags = |t: &Three| -> Vec<_> { t.nets[0].sent.iter().map(|o| o.msg().tag()).collect() };
        assert_eq!(tags(&t), ["accept"], "the ahead list only");
        t.nodes[0].barrier_back(lent, &mut t.nets[0]);
        assert_eq!(
            tags(&t),
            ["accept"],
            "nothing more when it comes back unsynced"
        );
        let mut node = t.nodes.remove(0);
        assert!(node.group_mut(GroupId::ZERO).barrier_due(), "still due");
        let mut disk = node.into_storage();
        assert_eq!(
            format!("{:?}", disk.group(GroupId::ZERO).load()),
            before,
            "what the last barrier covered"
        );
    }

    /// A step that made no barrier due goes out whole, power cut or not:
    /// the leader's commit writes the chosen-prefix mark only.
    #[test]
    fn a_power_cut_after_a_step_with_no_barrier_due_lets_it_all_out() {
        let mut t = three(|| Box::new(TailLossStorage::default()));
        t.deliver(0, CLIENT, t.request(2, RequestKind::Write));
        t.release(0);
        let accept = t.nets[0].sent.pop().expect("the Accept");
        t.deliver(1, Addr::Replica(ProcessId(0)), accept.msg().clone());
        t.release(1);
        let accepted = t.nets[1].sent.pop().expect("the follower's vote");
        t.nets[0].lends = true;
        t.deliver(0, Addr::Replica(ProcessId(1)), accepted.msg().clone());
        t.release(0);
        assert!(t.nets[0].lent.is_none() && !t.nodes[0].barrier_away());
        let tags: Vec<_> = t.nets[0].sent.iter().map(|o| o.msg().tag()).collect();
        assert_eq!(tags, ["reply", "chosen"]);
        assert_eq!(t.replies(0), [(2, 2)]);
    }

    /// Storage durable as written has no barrier due, so a node on it
    /// never lends one and is never away.
    #[test]
    fn an_in_memory_node_is_never_away() {
        let mut t = three(|| Box::new(MemStorage::new()));
        t.nets[0].lends = true;
        for seq in 2..5 {
            t.deliver(0, CLIENT, t.request(seq, RequestKind::Write));
            t.release(0);
            assert!(!t.nodes[0].barrier_away());
            t.pump();
        }
        assert_eq!(t.replies(0), [(2, 2), (3, 3), (4, 4)]);
        assert_eq!(t.nets[0].lends_taken, 0);
        assert_eq!(
            t.nodes[0].group(GroupId::ZERO).unwrap().chosen_prefix(),
            Instance(4)
        );
    }

    // ----- the admission gate ------------------------------------------

    /// Group `g`'s write `seq` from client 1, as a node of `n` groups
    /// receives it.
    fn request_to(n: &Node, g: GroupId, seq: u64) -> Msg {
        n.envelope(g, write_req(seq))
    }

    /// Admit [`ADMIT_HIGH`] requests to group `g` without a step: the
    /// backlog at the high mark, every one of them queued.
    fn at_the_high_mark(n: &mut Node, g: GroupId) {
        for seq in 0..ADMIT_HIGH as u64 {
            let msg = request_to(n, g, seq);
            assert!(n.admit(CLIENT, msg).is_none(), "request {seq} shed");
        }
        assert_eq!(n.queued(), ADMIT_HIGH);
    }

    /// With [`ADMIT_HIGH`] requests queued, the next is answered `Busy`
    /// at once and not queued: bare from a one-group node, in its
    /// group's envelope from a multi-group one.
    #[test]
    fn a_request_past_the_high_mark_is_answered_busy_in_its_envelope() {
        for (n_groups, g) in [(1, GroupId::ZERO), (2, GroupId(1))] {
            let mut n = node(n_groups, 3);
            at_the_high_mark(&mut n, g);
            let msg = request_to(&n, g, 9_999);
            let busy = n.admit(CLIENT, msg).expect("shed");
            assert_eq!(n.queued(), ADMIT_HIGH, "the shed request is not queued");
            let reply = Msg::Reply(Reply {
                id: RequestId::new(ClientId(1), Seq(9_999)),
                leader: ProcessId(0),
                watermark: Instance::ZERO,
                body: ReplyBody::Busy,
            });
            let want = match n_groups {
                1 => reply,
                _ => Msg::Grouped {
                    group: g,
                    inner: Box::new(reply),
                },
            };
            assert_eq!(busy, want);
        }
    }

    /// Only a client request is shed: a replica's message is queued
    /// whatever the backlog.
    #[test]
    fn a_message_that_is_not_a_request_is_never_shed() {
        let mut n = node(2, 5);
        at_the_high_mark(&mut n, GroupId::ZERO);
        let request = request_to(&n, GroupId::ZERO, 9_999);
        assert!(n.admit(CLIENT, request).is_some(), "shedding");
        let catch_up = Msg::CatchUpReq {
            have: Instance::ZERO,
            resume: None,
        };
        let msg = n.envelope(GroupId(1), catch_up);
        assert!(n.admit(Addr::Replica(ProcessId(1)), msg).is_none());
        assert_eq!(n.queued(), ADMIT_HIGH + 1);
    }

    /// What a node holds behind a barrier away is backlog too: with
    /// [`ADMIT_HIGH`] writes held and none queued, the next is shed.
    #[test]
    fn held_messages_count_toward_the_backlog() {
        let (mut t, _lent) = away();
        let now = t.now;
        for seq in 0..ADMIT_HIGH as u64 {
            let write = t.request(10 + seq, RequestKind::Write);
            assert!(t.nodes[0].admit(CLIENT, write).is_none());
            assert!(t.nodes[0].step_next(now, &mut TimerOps::new()));
        }
        let node = &t.nodes[0];
        assert_eq!((node.queued(), node.held.len()), (0, ADMIT_HIGH));
        let write = t.request(9_999, RequestKind::Write);
        assert!(t.nodes[0].admit(CLIENT, write).is_some(), "shed");
    }

    /// A shedding node sheds until its backlog is down to [`ADMIT_LOW`],
    /// and admits again from there.
    #[test]
    fn shedding_stops_at_exactly_the_low_mark() {
        let mut n = node(1, 17);
        at_the_high_mark(&mut n, GroupId::ZERO);
        let mut timers = TimerOps::new();
        let mut seq = 10_000;
        let mut next = |n: &mut Node| {
            seq += 1;
            let msg = request_to(n, GroupId::ZERO, seq);
            n.admit(CLIENT, msg)
        };
        assert!(next(&mut n).is_some(), "at the high mark");
        while n.queued() > ADMIT_LOW + 1 {
            assert!(n.step_next(Time(1), &mut timers));
        }
        assert!(next(&mut n).is_some(), "one above the low mark");
        assert!(n.step_next(Time(1), &mut timers));
        assert_eq!(n.queued(), ADMIT_LOW);
        assert!(next(&mut n).is_none(), "at the low mark");
        assert!(next(&mut n).is_none(), "and above it");
        n.release(&mut Dropped);
    }

    /// A step that holds its message leaves the backlog as it was: a
    /// shedding node one above the low mark that holds a write behind
    /// the barrier away still sheds.
    #[test]
    fn a_held_step_does_not_reopen_the_gate() {
        let (mut t, _lent) = away();
        let (now, reads) = (t.now, (ADMIT_HIGH - ADMIT_LOW - 1) as u64);
        let kind = |i| {
            if i < reads {
                RequestKind::Read
            } else {
                RequestKind::Write
            }
        };
        let mut arrivals: Vec<Msg> = (0..=ADMIT_HIGH as u64)
            .map(|i| t.request(10 + i, kind(i)))
            .collect();
        let (node, mut timers) = (&mut t.nodes[0], TimerOps::new());
        let past = arrivals.pop().expect("one past the high mark");
        for msg in arrivals {
            assert!(node.admit(CLIENT, msg).is_none());
        }
        assert!(
            node.admit(CLIENT, past.clone()).is_some(),
            "at the high mark"
        );
        for _ in 0..=reads {
            assert!(node.step_next(now, &mut timers));
        }
        let backlog = (node.queued(), node.held.len());
        assert_eq!(
            backlog,
            (ADMIT_LOW, 1),
            "the reads ran beside, the write held"
        );
        assert!(node.admit(CLIENT, past).is_some(), "one above the low mark");
    }
}
