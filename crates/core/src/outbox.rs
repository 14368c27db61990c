//! The drive loops' outbox: where a cycle's sends wait, and the one place
//! that says in which order they and the flush barrier happen.
//!
//! ## Group commit: the flush barrier
//!
//! A drive loop — the epoll reactor of `gridpaxos-transport`, the
//! simulator's node, the model checker's cluster, the replica tests'
//! shuttle — runs messages and timers through
//! its replica cores and buffers the resulting `Send`/`ToAllReplicas`
//! actions here instead of transmitting them one by one. [`release`] then
//! does, in this order:
//!
//! 1. hands the **ahead** list to the network — the `Accept`s of cores
//!    that had a barrier due when they produced them
//!    (`Msg::precedes_barrier` decides the class, [`Outbox::push`]
//!    asks the core);
//! 2. runs `Replica::barrier` on every core that wrote a record a
//!    message may acknowledge since its last barrier — one sync covering
//!    every record the whole batch appended. Cores that share one log
//!    (the groups of a node) are all flushed: the first syncs, the rest
//!    find the log clean and pay nothing, and none keeps a flag that
//!    would make its next commit-only cycle pay a sync of its own;
//! 3. hands the **behind** list, everything else, to the network.
//!
//! Persist-before-send (§3.1/§3.3) holds at batch granularity: no
//! `Promise`, `Accepted`, `Reply` or `Chosen` reaches the wire before the
//! record it acknowledges is durable. An `Accept` acknowledges nothing on
//! its sender's disk, so the leader's sync runs beside the followers'
//! round trip instead of before it: a durable write costs
//! `2M + E + max(S, 2m + S)`, not `2M + E + S + 2m + S` (DESIGN.md §5).
//! The leader's own vote is the unflushed record; it is durable before
//! any later step can count a follower's `Accepted` with it, because the
//! loop calls `release` — and so finishes the barrier — before it runs
//! the cores again.
//!
//! A barrier is due for the records a message can acknowledge; the
//! chosen-prefix mark is not one, so committing a decree costs no sync of
//! its own and the mark rides the next decree's barrier. When no barrier
//! is due — always, on storage that is durable as written — the ahead
//! list stays empty and `release` is one pass over the sends in the
//! order the cores produced them. With nothing buffered there is nothing
//! to do: a barrier is for the messages behind it, and a record nobody
//! has acknowledged yet waits for the first release that sends anything.
//!
//! Persist-before-send holds at the source too: [`Outbox::push`] checks
//! every send against what its core's stable storage wrote, and panics on
//! a `Prepare` or `Promise` above the promise written, or an `Accept` or
//! `Accepted` for an instance above the chosen prefix with no accept
//! record at its ballot (`replica/stable.rs`). Every test, simulated run
//! and model-checked state runs through it.
//!
//! No other code runs the barrier (but [`Replica::stop`], the flush on
//! the way out) or asks `precedes_barrier`: all three are crate-private,
//! so a drive loop outside this crate cannot keep its own copy of the
//! order. Each of these fails to compile:
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
    /// Hand `outs` to the network, in order, leaving the list empty (its
    /// allocation stays). On return the messages are out of the loop's
    /// hands — offered to the kernel, not merely queued — as of now on
    /// the loop's clock, which a barrier that ran since the last call
    /// has moved.
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
}

/// Ahead list, barrier, behind list (module docs); nothing at all when
/// nothing is buffered.
pub fn release(wire: &mut impl Wire) {
    release_or_cut(wire, false);
}

/// [`release`] with the power failing at the barrier: the ahead list is
/// out, no sync ran, and what waited behind it is lost with the process.
/// Where no barrier was due the release was its one pass, nothing waited
/// for anything, and the cut falls after it.
pub fn release_to_barrier(wire: &mut impl Wire) {
    release_or_cut(wire, true);
}

fn release_or_cut(wire: &mut impl Wire, power_cut: bool) {
    if wire.outbox().is_empty() {
        return;
    }
    let mut outbox = std::mem::take(wire.outbox());
    if !outbox.ahead.is_empty() {
        wire.transmit(&mut outbox.ahead);
    }
    if power_cut && wire.cores().iter().any(Replica::barrier_due) {
        outbox.behind.clear();
    } else {
        for core in wire.cores() {
            core.barrier();
        }
        wire.transmit(&mut outbox.behind);
    }
    *wire.outbox() = outbox;
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
            snapshot: None,
        };
        Outbox::default().push(Out::One(Addr::Replica(ProcessId(2)), promise), &core);
    }
}
