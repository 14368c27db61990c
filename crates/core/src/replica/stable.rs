//! The replica's stable storage: a typed door for every write, the one
//! rule that says when a durability barrier is due, and a record of what
//! was written that every send is checked against.
//!
//! A barrier ([`Storage::flush`]) has to complete before a message leaves
//! only when that message can *acknowledge* a record: a `Promise` the
//! promised ballot; an `Accepted` — or the leader's own vote, followed by
//! a client reply — the accepted decree; any later message of a replica
//! that installed a snapshot, the state that now stands in for its accept
//! records. Those are written through [`Stable::promise`],
//! [`Stable::accept`] and [`Stable::install`], which raise the barrier.
//! Which of a step's messages wait for it is the other half of the rule,
//! [`crate::msg::Msg::precedes_barrier`]: all but `Accept`, which
//! acknowledges nothing — the leader's vote it travels with is counted
//! only in a later step, and the barrier is over by then.
//!
//! Two kinds of record no message acknowledges, and their doors raise no
//! barrier. They become durable with the next barrier (or the flush a
//! drive loop runs on its way out):
//!
//! * The chosen-prefix mark ([`Stable::mark_chosen`]). A decree is chosen
//!   once a majority holds it durably *accepted*, which the accept
//!   barrier guarantees before any `Accepted` leaves; the mark only saves
//!   a recovering replica from relearning what it already applied. It is
//!   appended after the accept records it covers, so it is never durable
//!   without them. A replica that crashes with marks unsynced recovers
//!   that many instances short and relearns them like any lagging
//!   follower.
//! * A periodic checkpoint and the truncation that follows it. They
//!   replace records that are already durable with an image of the same
//!   state; losing them costs a longer replay, nothing else. (The file
//!   backend syncs them itself in any case.)
//!
//! There is no untyped door: an accept record written so that it raises
//! no barrier cannot be spelled. Beside the storage, `Stable` keeps what
//! the doors wrote — the last promise, and the ballot of the last
//! accept record of each instance above the last chosen-prefix mark — and
//! [`Stable::unwritten`] checks a send against it: `Outbox::push` refuses
//! a `Prepare` or `Promise` above the promise written, and an `Accept` or
//! `Accepted` naming an instance above the chosen prefix that holds no
//! accept record at its ballot. The marks prune the record, so it holds
//! the instances in flight, not the log.
//!
//! A bare replica holds its storage for life. A node's groups share the
//! node's one [`NodeStorage`], which the node moves to the group it steps
//! ([`Stable::hold`], [`Stable::give_back`]); any call on it from a group
//! that does not hold it panics. So does one while the node's barrier
//! runs on another thread and the drive loop serves what needs no record:
//! the storage went with the barrier.
//! `Stable` also keeps the promise the last completed barrier covered,
//! which is what a replica may vouch for while the next one runs.

use crate::ballot::Ballot;
use crate::command::{Decree, DedupEntry, SnapshotBlob};
use crate::msg::Msg;
use crate::storage::{DurableState, NodeStorage, Storage};
use crate::types::{GroupId, Instance};
use bytes::Bytes;
use std::collections::BTreeMap;

/// Owner of a replica's [`Storage`]. Nothing else in `replica/` holds the
/// storage, so a write site cannot forget the barrier: it has to say
/// which record it writes.
pub(crate) struct Stable {
    /// `None` while another of the node's groups holds it, or its
    /// barrier does.
    storage: Option<Box<dyn NodeStorage>>,
    /// This replica's group in `storage`.
    group: GroupId,
    /// An acknowledgeable record was written since the last barrier.
    raised: bool,
    /// The promise written last (promises only rise).
    promised: Ballot,
    /// The ballot of the last accept record written, per instance above
    /// the last chosen-prefix mark.
    accepted: BTreeMap<Instance, Ballot>,
    /// The promise a completed barrier covered (or storage loaded).
    durable_promised: Ballot,
}

/// Any call on the storage while it is away: a step the node did not
/// bring it to, or one that should have waited for the barrier.
fn away() -> ! {
    panic!("storage away: with another group, or at a barrier")
}

impl Stable {
    pub(crate) fn new(storage: Option<Box<dyn NodeStorage>>, group: GroupId) -> Stable {
        Stable {
            storage,
            group,
            raised: false,
            promised: Ballot::ZERO,
            accepted: BTreeMap::new(),
            durable_promised: Ballot::ZERO,
        }
    }

    /// Take up the record of what `durable`, loaded from this storage,
    /// holds: a recovered replica answers for what it wrote before.
    pub(crate) fn seed(&mut self, durable: &DurableState) {
        self.promised = durable.promised;
        self.durable_promised = durable.promised;
        let above = durable.accepted.range(durable.chosen_prefix.next()..);
        self.accepted = above.map(|(i, (b, _))| (*i, *b)).collect();
    }

    /// The storage, for the doors and what reads it.
    pub(crate) fn disk(&mut self) -> &mut dyn Storage {
        match &mut self.storage {
            Some(storage) => storage.group(self.group),
            None => away(),
        }
    }

    /// Whether this replica holds the storage.
    pub(crate) fn holds(&self) -> bool {
        self.storage.is_some()
    }

    /// Take up the node's storage.
    pub(crate) fn hold(&mut self, storage: Option<Box<dyn NodeStorage>>) {
        self.storage = storage;
    }

    /// Hand the node's storage over, if this replica holds it.
    pub(crate) fn give_back(&mut self) -> Option<Box<dyn NodeStorage>> {
        self.storage.take()
    }

    /// Write a promise: raises the barrier.
    pub(crate) fn promise(&mut self, b: Ballot) {
        self.disk().save_promised(b);
        self.promised = b;
        self.raised = true;
    }

    /// Write an accept record: raises the barrier.
    pub(crate) fn accept(&mut self, i: Instance, b: Ballot, d: &Decree) {
        self.disk().save_accepted(i, b, d);
        self.accepted.insert(i, b);
        self.raised = true;
    }

    /// Store an installed image, whose app bytes are `chunks`
    /// concatenated, and what it replaces: raises the barrier — from here
    /// on it stands in for the accept records up to `snap.upto`.
    pub(crate) fn install(&mut self, snap: &SnapshotBlob, chunks: Vec<Bytes>) {
        self.checkpoint_begin(snap.upto, &snap.dedup, chunks.len());
        for (i, chunk) in chunks.into_iter().enumerate() {
            self.checkpoint_chunk(i, chunk);
        }
        self.checkpoint_commit();
        self.truncate(snap.upto);
        self.mark_chosen(snap.upto);
        self.raised = true;
    }

    /// Write the chosen-prefix mark (module docs): raises no barrier.
    pub(crate) fn mark_chosen(&mut self, upto: Instance) {
        self.disk().save_chosen_prefix(upto);
        while let Some(first) = self.accepted.first_entry() {
            if *first.key() > upto {
                break;
            }
            first.remove();
        }
    }

    /// Open a periodic checkpoint: raises no barrier.
    pub(crate) fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        self.disk().checkpoint_begin(upto, dedup, total);
    }

    /// Write a checkpoint chunk: raises no barrier.
    pub(crate) fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        self.disk().checkpoint_chunk(idx, data);
    }

    /// Commit the checkpoint: raises no barrier.
    pub(crate) fn checkpoint_commit(&mut self) {
        self.disk().checkpoint_commit();
    }

    /// Drop the checkpoint under construction.
    pub(crate) fn checkpoint_abort(&mut self) {
        self.disk().checkpoint_abort();
    }

    /// Drop the accept records a committed image covers: raises no
    /// barrier, and leaves the record to the marks.
    pub(crate) fn truncate(&mut self, upto: Instance) {
        self.disk().truncate_upto(upto);
    }

    /// Whether an acknowledgeable record was written since the last
    /// barrier, whether or not the storage still holds it unsynced.
    pub(crate) fn raised(&self) -> bool {
        self.raised
    }

    /// Whether the drive loop must run the barrier before it transmits.
    pub(crate) fn barrier_due(&self) -> bool {
        self.raised
            && match &self.storage {
                Some(storage) => storage.dirty(self.group),
                None => away(),
            }
    }

    /// The barrier: everything recorded so far, of either kind, is
    /// durable when this returns.
    pub(crate) fn flush(&mut self) {
        self.disk().flush();
        self.barrier_over();
    }

    /// A barrier that covered this group's records completed.
    pub(crate) fn barrier_over(&mut self) {
        self.raised = false;
        self.durable_promised = self.promised;
    }

    /// Whether the promise written last is durable: a barrier covered it.
    pub(crate) fn promise_durable(&self) -> bool {
        self.durable_promised == self.promised
    }

    /// What `msg` acknowledges that was never written, if anything, for a
    /// replica whose chosen prefix is `chosen_prefix`: a `Prepare` (the
    /// candidate's promise to itself) or `Promise` above the promise
    /// written; an instance of an `Accepted`, or of an `Accept` (the
    /// leader's own vote), above the prefix with no accept record at the
    /// message's ballot. At or below the prefix an acceptance is
    /// vacuously satisfied.
    pub(crate) fn unwritten(&self, msg: &Msg, chosen_prefix: Instance) -> Option<String> {
        let unrecorded = |ballot: Ballot, i: Instance| {
            let recorded = self.accepted.get(&i);
            (i > chosen_prefix && recorded != Some(&ballot)).then(|| {
                format!(
                    "{} of {i:?} at {ballot:?} with no accept record at that ballot \
                     (recorded: {recorded:?}; chosen prefix {chosen_prefix:?})",
                    msg.tag()
                )
            })
        };
        match msg {
            Msg::Prepare { ballot, .. } | Msg::Promise { ballot, .. } => (*ballot > self.promised)
                .then(|| {
                    format!(
                        "{} at {ballot:?}, but the promise written is {:?}",
                        msg.tag(),
                        self.promised
                    )
                }),
            Msg::Accepted { ballot, instances } => {
                instances.iter().find_map(|i| unrecorded(*ballot, *i))
            }
            Msg::Accept { ballot, entries } => {
                entries.iter().find_map(|(i, _)| unrecorded(*ballot, *i))
            }
            Msg::Grouped { inner, .. } => self.unwritten(inner, chosen_prefix),
            Msg::Request(_)
            | Msg::Reply(_)
            | Msg::PrepareNack { .. }
            | Msg::AcceptNack { .. }
            | Msg::Chosen { .. }
            | Msg::Confirm { .. }
            | Msg::ConfirmReq { .. }
            | Msg::ConfirmBatch { .. }
            | Msg::Heartbeat { .. }
            | Msg::HeartbeatAck { .. }
            | Msg::CatchUpReq { .. }
            | Msg::CatchUp { .. } => None,
        }
    }
}
