//! The drive loops' outbox: where a cycle's sends wait, and the one place
//! that says in which order they and the flush barrier happen.
//!
//! ## Group commit: the flush barrier
//!
//! A drive loop — a [`crate::node::Node`], which the epoll reactor and
//! the simulator host; the model checker's cluster; the replica tests'
//! shuttle — buffers its cores' `Send`/`ToAllReplicas` actions here
//! instead of transmitting them one by one. [`release`] then:
//!
//! 1. hands the **ahead** list to the network — the `Accept`s of cores
//!    that had a barrier due when they produced them
//!    (`Msg::precedes_barrier` decides the class, [`Outbox::push`] asks
//!    the core);
//! 2. runs `Replica::barrier` on every core that wrote a record a
//!    message may acknowledge since its last barrier — one sync for every
//!    record the batch appended. Cores that share one log (a node's
//!    groups) are all flushed: the first syncs, the rest find the log
//!    clean, and none keeps a flag that would make its next commit-only
//!    cycle pay a sync of its own;
//! 3. hands the **behind** list, everything else, to the network.
//!
//! [`release`] is `release_begin` (step 1, and the storage of every core
//! whose barrier is due [`Lent`]), [`Lent::flush`] and `release_end` (the
//! storages back, then step 3). A `Node` may lend the barrier to its host
//! instead of flushing it, and until it is back sends what the steps
//! `Replica::serves_beside_barrier` admits made — reads, which write
//! nothing and acknowledge no record — through `release_beside`.
//!
//! Persist-before-send (§3.1/§3.3) holds at batch granularity: no
//! `Promise`, `Accepted`, `Reply` or `Chosen` reaches the wire before the
//! record it acknowledges is durable. An `Accept` acknowledges nothing on
//! its sender's disk, so the leader's sync runs beside the followers'
//! round trip: a durable write costs `2M + E + max(S, 2m + S)`, not
//! `2M + E + S + 2m + S` (DESIGN.md §5). The leader's own vote is durable
//! before any later step can count a follower's `Accepted` with it: the
//! loop finishes the barrier before it runs the cores again, but for the
//! admitted reads. The chosen-prefix mark makes no barrier due; it rides
//! the next decree's. With no barrier due — always, on storage durable as
//! written — the ahead list stays empty and `release` is one pass in
//! production order; with nothing buffered it does nothing.
//!
//! [`Outbox::push`] checks every send against what its core's storage
//! wrote, and panics on a `Prepare` or `Promise` above the promise
//! written, or an `Accept` or `Accepted` above the chosen prefix with no
//! accept record at its ballot (`replica/stable.rs`). Every test,
//! simulated run and model-checked state runs through it.
//!
//! No other code runs the barrier (but [`Replica::stop`], the flush on
//! the way out) or asks `precedes_barrier`, and only a `Node` splits a
//! release around a barrier away or asks what may run beside it: all of
//! these are crate-private, so a drive loop outside this crate cannot
//! keep its own copy of the order. Each of these fails to compile:
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
//! ```compile_fail
//! use gridpaxos_core::outbox::{release_begin, Held, Lent, Wire};
//! fn begin(wire: &mut impl Wire) -> Option<(Lent, Held)> { release_begin(wire) }
//! ```
//! ```compile_fail
//! use gridpaxos_core::outbox::{release_end, Held, Lent, Wire};
//! fn end(wire: &mut impl Wire, lent: Lent, held: Held) { release_end(wire, lent, held) }
//! ```
//! ```compile_fail
//! use gridpaxos_core::outbox::{release_beside, Wire};
//! fn beside(wire: &mut impl Wire) { release_beside(wire) }
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
use crate::replica::Replica;
use crate::storage::Storage;
use crate::types::Addr;

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

/// What [`release`] drives: a loop's cores, its outbox and its network.
pub trait Wire {
    /// Every replica core the loop hosts.
    fn cores(&mut self) -> &mut [Replica];
    /// Where the loop buffered the cycle's sends.
    fn outbox(&mut self) -> &mut Outbox;
    /// Hand `outs` to the network, as [`crate::node::Net::transmit`].
    fn transmit(&mut self, outs: &mut Vec<Out>);
}

/// One cycle's sends, sorted by which side of the barrier they leave on.
#[derive(Debug, Default)]
pub struct Outbox {
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
    pub fn push(&mut self, out: Out, from: &Replica) {
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
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ahead.is_empty() && self.behind.is_empty()
    }

    /// Every buffered send, the ahead list first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Out> {
        self.ahead.iter().chain(&self.behind)
    }
}

/// The storages of the cores whose barrier is due, away from their
/// cores between `release_begin` and `release_end`: the one thing a
/// host may do with them is [`Lent::flush`], on any thread, and hand them
/// back ([`crate::node::Node::barrier_back`]).
#[must_use = "the storages go back through `Node::barrier_back`"]
pub struct Lent {
    /// Each with the index of its core in [`Wire::cores`].
    storages: Vec<(usize, Box<dyn Storage>)>,
    synced: bool,
}

impl Lent {
    /// The barrier: one sync of every lent storage.
    pub fn flush(&mut self) {
        for (_, storage) in &mut self.storages {
            storage.flush();
        }
        self.synced = true;
    }

    /// Whether no core had a barrier due: there is nothing to sync.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.storages.is_empty()
    }
}

/// The behind list of a release stopped at its barrier.
#[must_use = "the behind list leaves through `release_end`"]
#[derive(Debug)]
pub struct Held(Vec<Out>);

/// Ahead list, barrier, behind list (module docs); nothing at all when
/// nothing is buffered.
pub fn release(wire: &mut impl Wire) {
    if let Some((mut lent, held)) = release_begin(wire) {
        lent.flush();
        release_end(wire, lent, held);
    }
}

/// [`release`] with the power failing at the barrier: the ahead list is
/// out, no sync ran, and what waited behind it is lost with the process.
/// Where no barrier was due the release was its one pass, nothing waited
/// for anything, and the cut falls after it.
pub fn release_to_barrier(wire: &mut impl Wire) {
    if let Some((lent, held)) = release_begin(wire) {
        release_end(wire, lent, held);
    }
}

/// The release up to its sync: the ahead list to the network, the
/// storage of every core whose barrier is due lent (the barrier of a core
/// that raised one on storage durable as written runs here), and the
/// behind list held. `None` when nothing is buffered.
pub(crate) fn release_begin(wire: &mut impl Wire) -> Option<(Lent, Held)> {
    if wire.outbox().is_empty() {
        return None;
    }
    let mut outbox = std::mem::take(wire.outbox());
    if !outbox.ahead.is_empty() {
        wire.transmit(&mut outbox.ahead);
    }
    let behind = std::mem::take(&mut outbox.behind);
    *wire.outbox() = outbox;
    let cores = wire.cores().iter_mut().enumerate();
    let storages: Vec<_> = cores
        .filter_map(|(i, core)| core.lend_barrier().map(|s| (i, s)))
        .collect();
    let synced = storages.is_empty();
    Some((Lent { storages, synced }, Held(behind)))
}

/// The release after its sync: the storages back to their cores, then
/// the held behind list to the network — unless the sync never ran (the
/// power failed at it), when it is lost with the process.
pub(crate) fn release_end(wire: &mut impl Wire, lent: Lent, held: Held) {
    let cores = wire.cores();
    for (i, storage) in lent.storages {
        cores[i].stable.take_back(storage, lent.synced);
    }
    let Held(mut behind) = held;
    if lent.synced {
        wire.transmit(&mut behind);
    } else {
        behind.clear();
    }
    let outbox = wire.outbox();
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
pub(crate) fn release_beside(wire: &mut impl Wire) {
    let outbox = wire.outbox();
    assert!(
        outbox.ahead.is_empty() && !outbox.behind.iter().any(|o| o.msg().precedes_barrier()),
        "an Accept beside a barrier"
    );
    let mut behind = std::mem::take(&mut outbox.behind);
    if !behind.is_empty() {
        wire.transmit(&mut behind);
    }
    wire.outbox().behind = behind;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ballot::Ballot;
    use crate::command::{Decree, DedupEntry};
    use crate::config::Config;
    use crate::service::NoopApp;
    use crate::storage::{ChunkedCheckpoint, DurableState, Storage};
    use crate::types::{Instance, ProcessId, Time};
    use bytes::Bytes;
    use std::sync::{Arc, Mutex};

    type Log = Arc<Mutex<Vec<String>>>;

    /// A disk that is dirty from a write to the next flush and writes
    /// every flush into the log the wire writes into.
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

    /// A loop of two cores that writes down what it is asked to transmit.
    struct Recorder {
        cores: Vec<Replica>,
        /// The `Accepted` each core answered leader 0's `Accept` with.
        acks: Vec<Msg>,
        outbox: Outbox,
        log: Log,
    }

    impl Wire for Recorder {
        fn cores(&mut self) -> &mut [Replica] {
            &mut self.cores
        }
        fn outbox(&mut self) -> &mut Outbox {
            &mut self.outbox
        }
        fn transmit(&mut self, outs: &mut Vec<Out>) {
            let tags: Vec<_> = outs.drain(..).map(|out| out.msg().tag()).collect();
            self.log.lock().unwrap().push(tags.join(" "));
        }
    }

    const LEADER: Addr = Addr::Replica(ProcessId(0));

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

    /// Two follower cores that accepted instance 1 from leader 0 and ran
    /// the barrier; those named in `barrier_due` have since promised a
    /// candidate and not flushed the promise.
    fn recorder(barrier_due: [bool; 2]) -> Recorder {
        let log = Log::default();
        let mut acks = Vec::new();
        let cores = barrier_due
            .iter()
            .map(|due| {
                let mut core = follower(&log);
                let accept = Msg::Accept {
                    ballot: Ballot::new(1, ProcessId(0)),
                    entries: vec![(Instance(1), Decree::noop())],
                };
                match core.on_message(LEADER, accept, Time::ZERO).pop() {
                    Some(Action::Send { msg, .. }) => acks.push(msg),
                    other => panic!("an Accepted, not {other:?}"),
                }
                core.barrier();
                if *due {
                    let prepare = Msg::Prepare {
                        ballot: Ballot::new(1, ProcessId(2)),
                        chosen_prefix: Instance::ZERO,
                        known_above: Vec::new(),
                    };
                    core.on_message(Addr::Replica(ProcessId(2)), prepare, Time::ZERO);
                }
                assert_eq!(core.barrier_due(), *due);
                core
            })
            .collect();
        log.lock().unwrap().clear();
        Recorder {
            cores,
            acks,
            outbox: Outbox::default(),
            log,
        }
    }

    /// A step's worth of sends by core `from`, in the order a handler
    /// might make them: its acknowledgement, an `Accept`, a commit.
    fn push_step(wire: &mut Recorder, from: usize) {
        let ballot = Ballot::new(1, ProcessId(1));
        let entries = Vec::new();
        let accept = Msg::Accept { ballot, entries };
        let upto = Instance(1);
        let chosen = Msg::Chosen { ballot, upto };
        let core = &wire.cores[from];
        let accepted = wire.acks[from].clone();
        wire.outbox.push(Out::One(LEADER, accepted), core);
        wire.outbox.push(Out::All(accept), core);
        wire.outbox.push(Out::All(chosen), core);
    }

    #[test]
    fn the_one_release() {
        /// What it shows; the cores with a barrier due; the core whose
        /// step is buffered, if any; the entry point; what the log holds.
        type Case = (
            &'static str,
            [bool; 2],
            Option<usize>,
            fn(&mut Recorder),
            &'static [&'static str],
        );
        let cases: [Case; 7] = [
            (
                "ahead, barrier, behind; of two cores, the one flush due",
                [true, false],
                Some(0),
                release,
                &["accept", "flush", "accepted chosen"],
            ),
            (
                "no barrier due: one pass in production order",
                [false, false],
                Some(0),
                release,
                &["accepted accept chosen"],
            ),
            (
                "a barrier due on another core gets nobody ahead, and runs",
                [false, true],
                Some(0),
                release,
                &["flush", "accepted accept chosen"],
            ),
            (
                "two cores, both dirty: each is flushed, once",
                [true, true],
                Some(1),
                release,
                &["accept", "flush", "flush", "accepted chosen"],
            ),
            (
                "nothing buffered: nothing happens, barrier due or not",
                [true, false],
                None,
                release,
                &[],
            ),
            (
                "cut at the barrier: the ahead list and no flush",
                [true, false],
                Some(0),
                release_to_barrier,
                &["accept"],
            ),
            (
                "cut with no barrier due: the one pass was over",
                [false, false],
                Some(0),
                release_to_barrier,
                &["accepted accept chosen"],
            ),
        ];
        for (what, barrier_due, step_of, entry, expect) in cases {
            let mut wire = recorder(barrier_due);
            if let Some(from) = step_of {
                push_step(&mut wire, from);
            }
            entry(&mut wire);
            assert_eq!(*wire.log.lock().unwrap(), expect, "{what}");
            assert!(wire.outbox.is_empty(), "{what}: the lists are spent");
        }
    }

    /// Beside a barrier only what an admitted step sent leaves, at once;
    /// an `Accept` among it is a step that should have waited.
    #[test]
    #[should_panic(expected = "an Accept beside a barrier")]
    fn release_beside_refuses_an_accept() {
        let mut wire = recorder([false, false]);
        push_step(&mut wire, 0);
        release_beside(&mut wire);
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
