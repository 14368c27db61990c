//! Commands, decrees and state updates — the values consensus is run on.
//!
//! The key idea of the paper (§3.3): for a *nondeterministic* service the
//! value chosen by consensus instance `i` is not just the `i`-th request
//! but the tuple `⟨req, state⟩` — the request *and the leader's resulting
//! state* — so backups never have to re-execute nondeterministic code.

use crate::request::{ReplyBody, Request, RequestId};
use crate::types::{ClientId, Instance, Seq, TxnId};
use bytes::Bytes;
use std::ops::Range;
use std::sync::Arc;

/// How the leader's post-execution state is shipped to the backups.
///
/// §3.3 describes both size reductions we implement:
/// shipping only the *updated* part of the state ([`StateUpdate::Delta`])
/// and shipping the request plus auxiliary information that lets replicas
/// *reproduce* the nondeterministic choice deterministically
/// ([`StateUpdate::Reproduce`], e.g. the random draw made by a randomized
/// resource broker).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum StateUpdate {
    /// The request did not change service state (reads, no-ops).
    None,
    /// Complete service snapshot after executing the request.
    Full(Bytes),
    /// Service-defined incremental update.
    Delta(Bytes),
    /// Auxiliary nondeterminism record; each replica re-executes the
    /// request deterministically using it.
    Reproduce(Bytes),
}

impl StateUpdate {
    /// Size in bytes of the shipped payload (0 for `None`).
    #[must_use]
    pub fn payload_len(&self) -> usize {
        match self {
            StateUpdate::None => 0,
            StateUpdate::Full(b) | StateUpdate::Delta(b) | StateUpdate::Reproduce(b) => b.len(),
        }
    }

    /// Whether applying this update is a no-op.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, StateUpdate::None)
    }
}

/// The command half of a decree.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Command {
    /// Gap filler proposed during recovery when no live proposal exists for
    /// an instance (§3.3's new-leader narrative).
    Noop,
    /// An ordinary client request (or a per-operation-coordinated
    /// transaction request, including commits/aborts in that mode).
    Req(Request),
    /// A T-Paxos transaction commit: the only coordination point of an
    /// optimized transaction. Carries every operation of the transaction so
    /// a future leader can reconstruct replies, plus the commit request id.
    TxnCommit {
        /// The client's commit request.
        id: RequestId,
        /// Transaction being committed.
        txn: TxnId,
        /// The operations executed inside the transaction, in order.
        ops: Vec<Request>,
    },
    /// 2PC phase one (cross-shard extension): install the prepared-write
    /// intent of `txn` in this participant group. Choosing this decree *is*
    /// the group's durable yes vote — the coordinator only learns
    /// `TxnPrepared` after the decree is chosen on a majority, so the vote
    /// survives any single leader crash.
    TxnPrepare {
        /// Transaction being prepared.
        txn: TxnId,
        /// The coordinator's prepare request (its `op` payload carries the
        /// group-local write set, encoded by the service).
        req: Request,
    },
    /// 2PC phase two (cross-shard extension): commit or abort the prepared
    /// intent of `txn`. In the transaction's home group this decree is also
    /// the authoritative decision record (`record`), first-writer-wins; a
    /// conflicting later decide observes the recorded outcome instead.
    TxnDecide {
        /// The coordinator's decide request id (for the reply/dedup table).
        id: RequestId,
        /// Transaction being decided.
        txn: TxnId,
        /// Commit (true) or abort (false) — the *requested* outcome; the
        /// recorded decision wins if one already exists.
        commit: bool,
        /// Whether this group records the decision (home group only).
        record: bool,
    },
}

impl Command {
    /// Bytes of service-level operation the command carries.
    pub(crate) fn op_bytes(&self) -> usize {
        match self {
            Command::Noop | Command::TxnDecide { .. } => 0,
            Command::Req(req) | Command::TxnPrepare { req, .. } => req.op.len(),
            Command::TxnCommit { ops, .. } => ops.iter().map(|r| r.op.len()).sum(),
        }
    }

    /// The client request id this command answers, if any.
    #[must_use]
    pub fn request_id(&self) -> Option<RequestId> {
        match self {
            Command::Noop => None,
            Command::Req(r) => Some(r.id),
            Command::TxnCommit { id, .. } => Some(*id),
            Command::TxnPrepare { req, .. } => Some(req.id),
            Command::TxnDecide { id, .. } => Some(*id),
        }
    }
}

/// One executed command inside a decree: `⟨command, state change, reply⟩`.
///
/// The reply is carried so that (a) the leader can answer the client after
/// commit and (b) any later leader can re-answer a retransmitted duplicate
/// without re-executing (at-most-once semantics).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DecreeEntry {
    /// What was executed.
    pub cmd: Command,
    /// The leader's state change from executing it.
    pub update: StateUpdate,
    /// The reply owed to the client.
    pub reply: ReplyBody,
}

impl DecreeEntry {
    /// Where the reply's payload lies in the update's, if it is a slice of
    /// the update's buffer (a `KvStore` `Put` answers with the value its
    /// delta carries): the byte range within the update payload. Such a
    /// reply is shipped and logged once — the wire codec writes it as a
    /// reference into the update — and [`Decree::payload_bytes`] counts it
    /// once. An empty reply is never a slice.
    #[must_use]
    pub fn reply_in_update(&self) -> Option<Range<usize>> {
        let reply = self.reply.payload().filter(|p| !p.is_empty())?;
        let update = match &self.update {
            StateUpdate::None => return None,
            StateUpdate::Full(b) | StateUpdate::Delta(b) | StateUpdate::Reproduce(b) => b,
        };
        // Two live buffers never overlap, so a reply whose bytes lie in
        // the update's range is a view of them.
        let start = (reply.as_ptr() as usize).checked_sub(update.as_ptr() as usize)?;
        let end = start + reply.len();
        (end <= update.len()).then_some(start..end)
    }
}

/// The full value chosen by one consensus instance.
///
/// A decree is a *batch*: the leader executes every request that queued up
/// behind the previous instance and proposes them as one value. This keeps
/// §3.3's strict pipelining (at most one proposal outstanding, no gaps)
/// while letting throughput exceed one request per coordination round-trip
/// — without it, closed-loop write throughput would be capped at
/// `1 / (2m)` regardless of client count, far below the paper's Figure 5.
/// Entries apply in order; the state after the decree reflects all of
/// them.
///
/// A decree is immutable once built and every holder shares one copy:
/// `clone` bumps a reference count, so the log, the storage mirror and an
/// outgoing `Accept` carry the same entries rather than a deep copy each.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Decree {
    /// Executed commands, in execution order.
    pub entries: Arc<[DecreeEntry]>,
}

impl Decree {
    /// The canonical no-op decree used for gap filling during recovery.
    #[must_use]
    pub fn noop() -> Decree {
        Decree::default()
    }

    /// A decree carrying a single command.
    #[must_use]
    pub fn single(cmd: Command, update: StateUpdate, reply: ReplyBody) -> Decree {
        Decree {
            entries: Arc::new([DecreeEntry { cmd, update, reply }]),
        }
    }

    /// Payload bytes the decree holds: operation, update and reply of every
    /// entry — what the service's values make of it, fixed-size framing left
    /// out, and a reply inside its update ([`DecreeEntry::reply_in_update`])
    /// counted once. The unit of the log's byte budget
    /// ([`crate::log::LOG_BYTES_FLOOR`]).
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        let of = |e: &DecreeEntry| {
            let reply = match e.reply_in_update() {
                Some(_) => 0,
                None => e.reply.payload().map_or(0, |p| p.len()),
            };
            e.cmd.op_bytes() + e.update.payload_len() + reply
        };
        self.entries.iter().map(of).sum::<usize>() as u64
    }

    /// Whether this decree answers the given request id.
    #[must_use]
    pub fn answers(&self, id: RequestId) -> bool {
        self.entries.iter().any(|e| e.cmd.request_id() == Some(id))
    }
}

/// An entry a replica has *accepted* (but not necessarily learned chosen)
/// for some instance. Shipped inside `Promise` messages during recovery.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AcceptedEntry {
    /// The instance.
    pub instance: Instance,
    /// Ballot under which the decree was accepted.
    pub ballot: crate::ballot::Ballot,
    /// The decree itself.
    pub decree: Decree,
}

/// One row of the at-most-once deduplication table: the last executed
/// sequence number and reply for a client.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DedupEntry {
    /// The client.
    pub client: ClientId,
    /// Highest executed sequence number for that client.
    pub seq: Seq,
    /// Reply produced for it.
    pub reply: ReplyBody,
}

/// A complete, self-contained snapshot of replica service state as of a
/// given instance: the application state plus the dedup table. Shipped in
/// promises (when the promiser is ahead of the candidate), and what
/// [`crate::storage::Storage::load`] assembles from the stored chunked
/// checkpoint at recovery.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SnapshotBlob {
    /// All instances `<= upto` are reflected in `app`.
    pub upto: Instance,
    /// Opaque application snapshot ([`crate::service::App::snapshot`]).
    pub app: Bytes,
    /// Deduplication table as of `upto`.
    pub dedup: Vec<DedupEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use crate::types::*;

    #[test]
    fn state_update_sizes() {
        assert_eq!(StateUpdate::None.payload_len(), 0);
        assert!(StateUpdate::None.is_none());
        assert_eq!(
            StateUpdate::Full(Bytes::from_static(b"abcd")).payload_len(),
            4
        );
        assert_eq!(
            StateUpdate::Delta(Bytes::from_static(b"ab")).payload_len(),
            2
        );
        assert!(!StateUpdate::Delta(Bytes::new()).is_none());
    }

    #[test]
    fn command_request_ids() {
        assert_eq!(Command::Noop.request_id(), None);
        let rid = RequestId::new(ClientId(4), Seq(2));
        let req = Request::new(rid, RequestKind::Write, Bytes::new());
        assert_eq!(Command::Req(req).request_id(), Some(rid));
        let commit = Command::TxnCommit {
            id: rid,
            txn: TxnId(1),
            ops: vec![],
        };
        assert_eq!(commit.request_id(), Some(rid));
    }

    #[test]
    fn noop_decree_is_empty() {
        let d = Decree::noop();
        assert!(d.entries.is_empty());
        assert!(!d.answers(RequestId::new(ClientId(1), Seq(1))));
    }

    #[test]
    fn decree_answers_matching_request() {
        let rid = RequestId::new(ClientId(4), Seq(2));
        let req = Request::new(rid, RequestKind::Write, Bytes::new());
        let d = Decree::single(
            Command::Req(req),
            StateUpdate::None,
            ReplyBody::Ok(Bytes::new()),
        );
        assert!(d.answers(rid));
        assert!(!d.answers(RequestId::new(ClientId(4), Seq(3))));
    }

    /// A reply is inside its update only as a non-empty view of the
    /// update's own buffer, and is then counted once.
    #[test]
    fn a_reply_inside_its_update_is_named_and_counted_once() {
        let delta = Bytes::from(vec![3u8; 100]);
        let entry = |update: StateUpdate, reply: Bytes| DecreeEntry {
            cmd: Command::Noop,
            update,
            reply: ReplyBody::Ok(reply),
        };
        let shared = entry(StateUpdate::Delta(delta.clone()), delta.slice(60..100));
        assert_eq!(shared.reply_in_update(), Some(60..100));
        let whole = entry(StateUpdate::Full(delta.clone()), delta.clone());
        assert_eq!(whole.reply_in_update(), Some(0..100));
        let copied = entry(
            StateUpdate::Delta(delta.clone()),
            Bytes::copy_from_slice(&delta[60..]),
        );
        assert_eq!(copied.reply_in_update(), None);
        let empty = entry(StateUpdate::Delta(delta.clone()), delta.slice(10..10));
        assert_eq!(empty.reply_in_update(), None);
        // The update is shorter than the buffer the reply views.
        let shorter = entry(
            StateUpdate::Reproduce(delta.slice(0..50)),
            delta.slice(40..60),
        );
        assert_eq!(shorter.reply_in_update(), None);
        let no_update = entry(StateUpdate::None, delta.slice(0..10));
        assert_eq!(no_update.reply_in_update(), None);
        let weigh = |e: DecreeEntry| {
            Decree {
                entries: Arc::new([e]),
            }
            .payload_bytes()
        };
        assert_eq!(weigh(shared), 100);
        assert_eq!(weigh(copied), 140);
        assert_eq!(weigh(no_update), 10);
    }
}
