//! The replica's stable storage and the one rule that says when a
//! durability barrier is due.
//!
//! A barrier ([`Storage::flush`]) has to complete before a message leaves
//! only when that message can *acknowledge* a record: a `Promise` the
//! promised ballot; an `Accepted` — or the leader's own vote, followed by
//! a client reply — the accepted decree; any later message of a replica
//! that installed a snapshot, the state that now stands in for its accept
//! records. Those are written through [`Stable::acked`], which raises the
//! barrier. Which of a step's messages wait for it is the other half of
//! the rule, [`crate::msg::Msg::precedes_barrier`]: all but `Accept`,
//! which acknowledges nothing — the leader's vote it travels with is
//! counted only in a later step, and the barrier is over by then.
//!
//! Two kinds of record no message acknowledges, and they are written
//! through [`Stable::unacked`]. They become durable with the next barrier
//! (or the flush a drive loop runs on its way out):
//!
//! * The chosen-prefix mark. A decree is chosen once a majority holds it
//!   durably *accepted*, which the accept barrier guarantees before any
//!   `Accepted` leaves; the mark only saves a recovering replica from
//!   relearning what it already applied. It is appended after the accept
//!   records it covers, so it is never durable without them. A replica
//!   that crashes with marks unsynced recovers that many instances short
//!   and relearns them like any lagging follower.
//! * A periodic checkpoint and the truncation that follows it. They
//!   replace records that are already durable with an image of the same
//!   state; losing them costs a longer replay, nothing else. (The file
//!   backend syncs them itself in any case.)

use crate::storage::Storage;

/// Owner of a replica's [`Storage`]. Nothing else in `replica/` holds the
/// storage, so a write site cannot forget the barrier: it has to say
/// which kind of record it writes.
pub(crate) struct Stable {
    storage: Box<dyn Storage>,
    /// An acknowledgeable record was written since the last barrier.
    barrier_due: bool,
}

impl Stable {
    pub(crate) fn new(storage: Box<dyn Storage>) -> Stable {
        Stable {
            storage,
            barrier_due: false,
        }
    }

    /// Read access.
    pub(crate) fn get(&self) -> &dyn Storage {
        self.storage.as_ref()
    }

    /// Write a record a message may acknowledge: raises the barrier.
    pub(crate) fn acked(&mut self) -> &mut dyn Storage {
        self.barrier_due = true;
        self.storage.as_mut()
    }

    /// Write a chosen-prefix mark or a periodic checkpoint (module docs):
    /// raises no barrier.
    pub(crate) fn unacked(&mut self) -> &mut dyn Storage {
        self.storage.as_mut()
    }

    /// Whether the drive loop must run the barrier before it transmits.
    pub(crate) fn barrier_due(&self) -> bool {
        self.barrier_due && self.storage.is_dirty()
    }

    /// The barrier: everything recorded so far, of either kind, is
    /// durable when this returns.
    pub(crate) fn flush(&mut self) {
        self.storage.flush();
        self.barrier_due = false;
    }

    pub(crate) fn into_inner(self) -> Box<dyn Storage> {
        self.storage
    }
}
