//! A node's outbox: where a cycle's sends wait, and the one place that
//! says in which order they and the flush barrier happen.
//!
//! ## Group commit: the flush barrier
//!
//! A [`crate::node::Node`] — what every drive loop hosts: the epoll
//! reactor, the simulator, the model checker's cluster and the test
//! shuttles — buffers its groups' sends here instead of transmitting
//! them one by one, and [`crate::node::Node::release`] runs them out over
//! the host's [`Net`] in this order:
//!
//! 1. the **ahead** list goes to the network — the `Accept`s of cores
//!    that had a barrier due when they produced them
//!    (`Msg::precedes_barrier` decides the class, `Outbox::push` asks the
//!    core);
//! 2. the node's storage is flushed for every core that wrote a record a
//!    message may acknowledge since its last barrier — one sync for every
//!    record the batch appended. On a node's one log, each of those groups
//!    is flushed: the first syncs, the rest find the log clean, and none
//!    keeps a flag that would make its next commit-only cycle pay a sync
//!    of its own;
//! 3. the **behind** list, everything else, goes to the network.
//!
//! The release is `release_begin` (step 1, and the node's storage
//! [`Lent`] with the cores whose barrier is due), [`Lent::flush`] and
//! `release_end` (the storage back, then step 3). A `Node` may lend the
//! barrier to its host instead of flushing it, and until it is back
//! sends what the steps `Replica::serves_beside_barrier` admits made —
//! reads, which write nothing and acknowledge no record — through
//! `release_beside`. A power
//! cut inside a release is a host that keeps the [`Lent`] and hands it
//! back unflushed: `release_end` then drops the behind list and leaves
//! the barrier due.
//!
//! Persist-before-send (§3.1/§3.3) holds at batch granularity: no
//! `Promise`, `Accepted`, `Reply` or `Chosen` reaches the wire before the
//! record it acknowledges is durable. An `Accept` acknowledges nothing on
//! its sender's disk, so the leader's sync runs beside the followers'
//! round trip: a durable write costs `2M + E + max(S, 2m + S)`, not
//! `2M + E + S + 2m + S` (DESIGN.md §5). The leader's own vote is durable
//! before any later step can count a follower's `Accepted` with it: the
//! node finishes the barrier before it runs the cores again, but for the
//! admitted reads. The chosen-prefix mark makes no barrier due; it rides
//! the next decree's. With no barrier due — always, on storage durable as
//! written — the ahead list stays empty and the release is one pass in
//! production order; with nothing buffered it does nothing.
//!
//! `Outbox::push` checks every send against what its core's storage
//! wrote, and panics on a `Prepare` or `Promise` above the promise
//! written, or an `Accept` or `Accepted` above the chosen prefix with no
//! accept record at its ballot (`replica/stable.rs`). Every test,
//! simulated run and model-checked state runs through it.
//!
//! No other code runs the barrier (but [`Replica::stop`], the flush on
//! the way out) or asks `precedes_barrier`, and only a `Node` buffers a
//! send, runs a release or asks what may run beside a barrier away: all
//! of these are crate-private, and this module exports [`Out`] and
//! [`Lent`] alone, so a drive loop outside this crate cannot keep its own
//! copy of the order. Each of these fails to compile:
//!
//! ```compile_fail
//! fn drive(core: &mut gridpaxos_core::replica::Replica) { core.barrier(); }
//! ```
//! ```compile_fail
//! fn due(core: &gridpaxos_core::replica::Replica) -> bool { core.barrier_due() }
//! ```
//! ```compile_fail
//! fn ahead(msg: &gridpaxos_core::msg::Msg) -> bool { msg.precedes_barrier() }
//! ```
//! ```compile_fail
//! use gridpaxos_core::{msg::Msg, replica::Replica};
//! fn beside(core: &Replica, msg: &Msg) -> bool { core.serves_beside_barrier(msg) }
//! ```
//! ```compile_fail,E0603
//! use gridpaxos_core::outbox::Outbox;
//! ```
//! ```compile_fail,E0603
//! use gridpaxos_core::outbox::Held;
//! ```
//! ```compile_fail,E0603
//! use gridpaxos_core::outbox::release_begin;
//! ```
//! ```compile_fail,E0603
//! use gridpaxos_core::outbox::release_end;
//! ```
//! ```compile_fail,E0603
//! use gridpaxos_core::outbox::release_beside;
//! ```
//!
//! Nor is there a second drive to borrow the order from — no trait a loop
//! implements to run it over its own cores, no whole release, no release
//! stopped at its barrier:
//!
//! ```compile_fail,E0432
//! use gridpaxos_core::outbox::Wire;
//! ```
//! ```compile_fail,E0432
//! use gridpaxos_core::outbox::release;
//! ```
//! ```compile_fail,E0432
//! use gridpaxos_core::outbox::release_to_barrier;
//! ```
//!
//! The two names the repo benchmark still calls are deprecated shims,
//! and CI builds the workspace with warnings denied:
//!
//! ```compile_fail
//! #![deny(deprecated)]
//! fn drive(core: &mut gridpaxos_core::replica::Replica) { core.flush_storage(); }
//! ```
//! ```compile_fail
//! #![deny(deprecated)]
//! fn due(core: &gridpaxos_core::replica::Replica) -> bool { core.storage_dirty() }
//! ```

use crate::msg::Msg;
use crate::node::Net;
use crate::replica::Replica;
use crate::storage::NodeStorage;
use crate::types::{Addr, GroupId};

/// A buffered send.
#[derive(Debug)]
pub enum Out {
    /// To one participant.
    One(Addr, Msg),
    /// To every replica but the sender.
    All(Msg),
}

impl Out {
    /// The message, whoever it goes to.
    #[must_use]
    pub fn msg(&self) -> &Msg {
        match self {
            Out::One(_, msg) | Out::All(msg) => msg,
        }
    }
}

/// One cycle's sends, sorted by which side of the barrier they leave on.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    ahead: Vec<Out>,
    behind: Vec<Out>,
}

impl Outbox {
    /// Buffer a send that core `from` just produced. It goes ahead only
    /// if `from` has a barrier due now: without one there is nothing to
    /// get ahead of, and the send keeps its place among the others.
    ///
    /// # Panics
    /// If the send acknowledges a record `from` never wrote (module
    /// docs): persist-before-send, checked on every build.
    pub(crate) fn push(&mut self, out: Out, from: &Replica) {
        if let Some(what) = from.stable.unwritten(out.msg(), from.chosen_prefix()) {
            panic!("persist-before-send: {what}");
        }
        if out.msg().precedes_barrier() && from.barrier_due() {
            self.ahead.push(out);
        } else {
            self.behind.push(out);
        }
    }

    /// Whether nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.ahead.is_empty() && self.behind.is_empty()
    }

    /// Every buffered send, the ahead list first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Out> {
        self.ahead.iter().chain(&self.behind)
    }
}

/// The node's storage, away from its node between `release_begin` and
/// `release_end`, with the groups whose barrier is due: the one thing a
/// host may do with it is [`Lent::flush`], on any thread, and hand it
/// back ([`crate::node::Node::barrier_back`]).
#[must_use = "the storage goes back through `Node::barrier_back`"]
pub struct Lent {
    disk: Box<dyn NodeStorage>,
    due: Vec<GroupId>,
    synced: bool,
}

impl Lent {
    /// The barrier: a flush of every group due — on one log, one sync.
    pub fn flush(&mut self) {
        for g in &self.due {
            self.disk.group(*g).flush();
        }
        self.synced = true;
    }

    /// Whether no core had a barrier due: there is nothing to sync.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }
}

/// The behind list of a release stopped at its barrier.
#[must_use = "the behind list leaves through `release_end`"]
#[derive(Debug)]
pub(crate) struct Held(Vec<Out>);

/// The release up to its sync: the ahead list to the network, the node's
/// storage lent with every core whose barrier is due (the barrier of a
/// core that raised one on storage durable as written runs here), and
/// the behind list held. `None` when nothing is buffered.
///
/// # Panics
/// If no core holds the storage.
pub(crate) fn release_begin(
    cores: &mut [Replica],
    outbox: &mut Outbox,
    net: &mut impl Net,
) -> Option<(Lent, Held)> {
    if outbox.is_empty() {
        return None;
    }
    if !outbox.ahead.is_empty() {
        net.transmit(&mut outbox.ahead);
    }
    let behind = std::mem::take(&mut outbox.behind);
    let Some(mut disk) = cores.iter_mut().find_map(|c| c.stable.give_back()) else {
        panic!("a release with the storage away");
    };
    let mut due = Vec::new();
    for (g, core) in (0..).map(GroupId).zip(cores) {
        if !core.stable.raised() {
            continue;
        }
        if disk.dirty(g) {
            due.push(g);
        } else {
            disk.group(g).flush();
            core.stable.barrier_over();
        }
    }
    let synced = due.is_empty();
    Some((Lent { disk, due, synced }, Held(behind)))
}

/// The release after its sync: the storage back to the node's first
/// core, then the held behind list to the network — unless the sync
/// never ran (the power failed at it), when it is lost with the process.
pub(crate) fn release_end(
    cores: &mut [Replica],
    outbox: &mut Outbox,
    net: &mut impl Net,
    lent: Lent,
    held: Held,
) {
    cores[0].stable.hold(Some(lent.disk));
    if lent.synced {
        for g in lent.due {
            cores[g.0 as usize].stable.barrier_over();
        }
    }
    let Held(mut behind) = held;
    if lent.synced {
        net.transmit(&mut behind);
    } else {
        behind.clear();
    }
    if outbox.behind.is_empty() {
        outbox.behind = behind; // keeps the allocation
    }
}

/// What the steps [`Replica::serves_beside_barrier`] admitted sent, while
/// a barrier is away: to the network at once, since none acknowledges a
/// record.
///
/// # Panics
/// If an `Accept` is among them: it belongs ahead of a barrier, and no
/// admitted step proposes.
pub(crate) fn release_beside(outbox: &mut Outbox, net: &mut impl Net) {
    assert!(
        outbox.ahead.is_empty() && !outbox.behind.iter().any(|o| o.msg().precedes_barrier()),
        "an Accept beside a barrier"
    );
    if !outbox.behind.is_empty() {
        net.transmit(&mut outbox.behind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ballot::Ballot;
    use crate::command::{Decree, DedupEntry};
    use crate::config::Config;
    use crate::node::{Node, TimerOps};
    use crate::request::{Request, RequestId, RequestKind};
    use crate::service::{App, NoopApp};
    use crate::storage::{ChunkedCheckpoint, DurableState, MemStorage, Storage};
    use crate::types::{ClientId, Dur, GroupId, Instance, ProcessId, Seq, Time};
    use bytes::Bytes;
    use std::sync::Arc;

    /// What the disks and the network did, in order: shared, as a disk
    /// must be `Send`, and only ever taken for one push or one read.
    #[allow(clippy::disallowed_types)]
    type Log = Arc<std::sync::Mutex<Vec<String>>>;

    /// A disk that is dirty from a write to the next flush and writes
    /// every flush into the log the network writes into.
    struct Disk {
        dirty: bool,
        log: Log,
    }

    impl Storage for Disk {
        fn save_promised(&mut self, _: Ballot) {
            self.dirty = true;
        }
        fn save_accepted(&mut self, _: Instance, _: Ballot, _: &Decree) {
            self.dirty = true;
        }
        fn save_chosen_prefix(&mut self, _: Instance) {
            self.dirty = true;
        }
        fn truncate_upto(&mut self, _: Instance) {
            self.dirty = true;
        }
        fn load(&self) -> DurableState {
            DurableState::default()
        }
        fn flush(&mut self) {
            self.dirty = false;
            self.log.lock().unwrap().push("flush".into());
        }
        fn is_dirty(&self) -> bool {
            self.dirty
        }
        fn checkpoint_begin(&mut self, _: Instance, _: &[DedupEntry], _: usize) {}
        fn checkpoint_chunk(&mut self, _: usize, _: Bytes) {}
        fn checkpoint_commit(&mut self) {}
        fn checkpoint_abort(&mut self) {}
        fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
            None
        }
    }

    /// A network that writes down what it is asked to transmit, into the
    /// log the disks write their flushes into.
    struct Recorder(Log);

    impl Net for Recorder {
        fn transmit(&mut self, outs: &mut Vec<Out>) {
            let tags: Vec<_> = outs.drain(..).map(|out| out.msg().tag()).collect();
            self.0.lock().unwrap().push(tags.join(" "));
        }
    }

    const LEADER: Addr = Addr::Replica(ProcessId(0));
    const R1: Addr = Addr::Replica(ProcessId(1));
    const CLIENT: Addr = Addr::Client(ClientId(1));

    /// A follower core on a [`Disk`] that writes into `log`.
    fn follower(log: &Log) -> Replica {
        let disk = Disk {
            dirty: false,
            log: Arc::clone(log),
        };
        let app = Box::new(NoopApp::new());
        let cfg = Config::cluster(3);
        Replica::new(ProcessId(1), cfg, app, Box::new(disk), 7, Time::ZERO)
    }

    fn grouped(g: u32, inner: Msg) -> Msg {
        Msg::Grouped {
            group: GroupId(g),
            inner: Box::new(inner),
        }
    }

    /// Process 0 of a three-process cluster with no batch window: group 0
    /// leads with one write in flight and a second queued, on a [`Disk`]
    /// if `on_disk_0` and else on storage durable as written; group 1
    /// follows on a [`Disk`], and if `due_on_1` it promised a candidate
    /// and has not flushed the promise.
    fn node(on_disk_0: bool, due_on_1: bool) -> (Node, Recorder) {
        let log = Log::default();
        let disk = || {
            let log = Arc::clone(&log);
            Box::new(Disk { dirty: false, log }) as Box<dyn Storage>
        };
        let mut cfg = Config::cluster(3);
        cfg.batch_window = Dur::ZERO;
        let app = |_| Box::new(NoopApp::new()) as Box<dyn App>;
        let storage_0 = if on_disk_0 {
            disk()
        } else {
            Box::new(MemStorage::new())
        };
        let storage = Box::new(vec![storage_0, disk()]);
        let mut node = Node::open(ProcessId(0), cfg, storage, &app, 7, Time::ZERO);
        let mut net = Recorder(log);
        let mut timers = TimerOps::new();
        node.start(Time::ZERO, &mut timers);
        let ballot = node.group(GroupId::ZERO).unwrap().promised();
        let promise = Msg::Promise {
            ballot,
            chosen_prefix: Instance::ZERO,
            accepted: Vec::new(),
        };
        node.deliver(R1, grouped(0, promise), Time::ZERO, &mut timers);
        for seq in 1..=2 {
            let id = RequestId::new(ClientId(1), Seq(seq));
            let write = Request::new(id, RequestKind::Write, Bytes::new());
            node.deliver(
                CLIENT,
                grouped(0, Msg::Request(write)),
                Time::ZERO,
                &mut timers,
            );
        }
        node.release(&mut net);
        assert!(node.group(GroupId::ZERO).unwrap().is_leader());
        if due_on_1 {
            let prepare = Msg::Prepare {
                ballot: Ballot::new(9, ProcessId(2)),
                chosen_prefix: Instance::ZERO,
                known_above: Vec::new(),
            };
            let core = node.group_mut(GroupId(1));
            core.on_message(Addr::Replica(ProcessId(2)), prepare, Time::ZERO);
            assert!(core.barrier_due());
        }
        net.0.lock().unwrap().clear();
        (node, net)
    }

    /// Group 0's leader counts the vote that chooses the write in flight:
    /// it answers the client, says the decree is chosen and proposes the
    /// write that waited.
    fn chosen(node: &mut Node) {
        let ballot = node.group(GroupId::ZERO).unwrap().promised();
        let instances = vec![Instance(1)];
        let accepted = grouped(0, Msg::Accepted { ballot, instances });
        node.deliver(R1, accepted, Time::ZERO, &mut TimerOps::new());
    }

    #[test]
    fn the_one_release() {
        /// What it shows; whether group 0 is on a disk; whether group 1
        /// has a barrier due; whether group 0 steps; what the log holds.
        type Case = (&'static str, bool, bool, bool, &'static [&'static str]);
        let cases: [Case; 5] = [
            (
                "ahead, barrier, behind; of two cores, the one flush due",
                true,
                false,
                true,
                &["accept", "flush", "reply chosen"],
            ),
            (
                "no barrier due: one pass in production order",
                false,
                false,
                true,
                &["reply accept chosen"],
            ),
            (
                "a barrier due on another core gets nobody ahead, and runs",
                false,
                true,
                true,
                &["flush", "reply accept chosen"],
            ),
            (
                "two cores, both dirty: each is flushed, once",
                true,
                true,
                true,
                &["accept", "flush", "flush", "reply chosen"],
            ),
            (
                "nothing buffered: nothing happens, barrier due or not",
                true,
                true,
                false,
                &[],
            ),
        ];
        for (what, on_disk_0, due_on_1, step, expect) in cases {
            let (mut node, mut net) = node(on_disk_0, due_on_1);
            if step {
                chosen(&mut node);
            }
            node.release(&mut net);
            assert_eq!(*net.0.lock().unwrap(), expect, "{what}");
            assert!(node.sends().next().is_none(), "{what}: the lists are spent");
            let due = (0..2).any(|g| node.group_mut(GroupId(g)).barrier_due());
            assert_eq!(due, due_on_1 && !step, "{what}: the barrier ran");
        }
    }

    /// Beside a barrier only what an admitted step sent leaves, at once;
    /// an `Accept` among it is a step that should have waited.
    #[test]
    #[should_panic(expected = "an Accept beside a barrier")]
    fn release_beside_refuses_an_accept() {
        let log = Log::default();
        let accept = Msg::Accept {
            ballot: Ballot::new(1, ProcessId(1)),
            entries: Vec::new(),
        };
        let mut outbox = Outbox::default();
        outbox.push(Out::All(accept), &follower(&log));
        release_beside(&mut outbox, &mut Recorder(log));
    }

    /// Persist-before-send at the source: an `Accepted` for an instance
    /// the core never saved does not get into the outbox.
    #[test]
    #[should_panic(expected = "persist-before-send: accepted of i1 at b1.0 with no accept record")]
    fn push_refuses_an_accepted_never_saved() {
        let core = follower(&Log::default());
        let ballot = Ballot::new(1, ProcessId(0));
        let instances = vec![Instance(1)];
        let accepted = Msg::Accepted { ballot, instances };
        Outbox::default().push(Out::One(LEADER, accepted), &core);
    }

    /// Nor does a `Promise` above the promise the core saved.
    #[test]
    #[should_panic(
        expected = "persist-before-send: promise at b2.2, but the promise written is b1.2"
    )]
    fn push_refuses_a_promise_above_the_one_saved() {
        let mut core = follower(&Log::default());
        let saved = Ballot::new(1, ProcessId(2));
        let prepare = Msg::Prepare {
            ballot: saved,
            chosen_prefix: Instance::ZERO,
            known_above: Vec::new(),
        };
        core.on_message(Addr::Replica(ProcessId(2)), prepare, Time::ZERO);
        let promise = Msg::Promise {
            ballot: Ballot::new(2, ProcessId(2)),
            chosen_prefix: Instance::ZERO,
            accepted: Vec::new(),
        };
        Outbox::default().push(Out::One(Addr::Replica(ProcessId(2)), promise), &core);
    }
}
