//! The drive loops' outbox: where a cycle's sends wait, and the one place
//! that says in which order they and the flush barrier happen.
//!
//! ## Group commit: the flush barrier
//!
//! A drive loop ([`crate::reactor`], [`crate::node`]) runs a batch of
//! messages and timers through its replica cores and buffers the
//! resulting `Send`/`ToAllReplicas` actions here instead of transmitting
//! them one by one. [`Outbox::release`] then does, in this order:
//!
//! 1. hands the **ahead** list to the network — the `Accept`s of cores
//!    that had a barrier due when they produced them
//!    ([`Msg::precedes_barrier`] decides the class, [`Outbox::push`]
//!    asks the core);
//! 2. runs [`Replica::flush_storage`] on every core whose
//!    [`Replica::storage_dirty`] says a barrier is due — one sync covering
//!    every record the whole batch appended;
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
//! order the cores produced them.

use gridpaxos_core::msg::Msg;
use gridpaxos_core::replica::Replica;
use gridpaxos_core::types::Addr;

/// A buffered send.
pub(crate) enum Out {
    /// To one participant.
    One(Addr, Msg),
    /// To every replica but the sender.
    All(Msg),
}

impl Out {
    fn msg(&self) -> &Msg {
        match self {
            Out::One(_, msg) | Out::All(msg) => msg,
        }
    }
}

/// What [`Outbox::release`] drives: a loop's cores and its network.
pub(crate) trait Wire {
    /// Every replica core the loop hosts.
    fn cores(&mut self) -> &mut [Replica];
    /// Hand `outs` to the network, in order, leaving the list empty (its
    /// allocation stays). On return the bytes have been offered to the
    /// kernel, not merely queued.
    fn transmit(&mut self, outs: &mut Vec<Out>);
}

/// One cycle's sends, sorted by which side of the barrier they leave on.
#[derive(Default)]
pub(crate) struct Outbox {
    ahead: Vec<Out>,
    behind: Vec<Out>,
}

impl Outbox {
    /// Buffer a send that core `from` just produced. It goes ahead only
    /// if `from` has a barrier due now: without one there is nothing to
    /// get ahead of, and the send keeps its place among the others.
    pub(crate) fn push(&mut self, out: Out, from: &Replica) {
        if out.msg().precedes_barrier() && from.storage_dirty() {
            self.ahead.push(out);
        } else {
            self.behind.push(out);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ahead.is_empty() && self.behind.is_empty()
    }

    /// Ahead list, barrier, behind list (module docs).
    pub(crate) fn release(&mut self, wire: &mut impl Wire) {
        if !self.ahead.is_empty() {
            wire.transmit(&mut self.ahead);
        }
        for core in wire.cores() {
            if core.storage_dirty() {
                core.flush_storage();
            }
        }
        wire.transmit(&mut self.behind);
    }
}
