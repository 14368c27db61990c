//! Client-visible request and reply types.
//!
//! The evaluation in §4 of the paper distinguishes three request kinds —
//! *read* (does not change service state, coordinated with X-Paxos),
//! *write* (changes state, coordinated with the basic protocol) and
//! *original* (sent to an unreplicated service; the leader replies without
//! any coordination). We model all three so the benchmark harness can
//! regenerate every figure.

use crate::types::{ClientId, Instance, ProcessId, Seq, TxnId};
use bytes::Bytes;
use std::fmt;

/// Globally unique identity of a client request: `(client, seq)`.
///
/// Clients number their requests sequentially, which makes retransmission
/// idempotent: replicas remember the last reply per client and resend it
/// when they see a duplicate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId {
    /// Issuing client.
    pub client: ClientId,
    /// Client-local sequence number.
    pub seq: Seq,
}

impl RequestId {
    /// Construct a request id.
    #[must_use]
    pub fn new(client: ClientId, seq: Seq) -> RequestId {
        RequestId { client, seq }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq.0)
    }
}

/// Classification of a request, as in §4's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RequestKind {
    /// Does not change service state. Eligible for the X-Paxos fast path.
    Read,
    /// Changes service state. Always coordinated with the basic protocol.
    Write,
    /// Baseline: executed by the leader with an immediate reply and **no
    /// coordination**. Models the paper's unreplicated "original" service.
    /// Unsafe for stateful services — used only by the benchmark harness.
    Original,
}

impl RequestKind {
    /// Whether this request may mutate service state.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, RequestKind::Write)
    }
}

/// Transaction control attached to a request (T-Paxos, §3.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TxnCtl {
    /// This request is an operation inside transaction `txn`.
    Op {
        /// The enclosing transaction.
        txn: TxnId,
    },
    /// Commit `txn`. `n_ops` is the number of operations the client issued
    /// inside the transaction; a leader whose session does not hold exactly
    /// that many staged operations (e.g. because it took over mid-
    /// transaction) must abort — this is how §3.6's "leader switch aborts
    /// the transaction" rule is enforced.
    Commit {
        /// The transaction being committed.
        txn: TxnId,
        /// Operation count the leader's session must match.
        n_ops: u32,
    },
    /// Abort `txn`, discarding all staged effects.
    Abort {
        /// The transaction being aborted.
        txn: TxnId,
    },
    /// 2PC phase one (cross-shard extension): ask this participant group
    /// to vote on transaction `txn`. The request's `op` payload carries
    /// the group's write set; a yes vote installs it as a durable,
    /// majority-replicated intent (the decree *is* the vote record).
    Prepare {
        /// The distributed transaction being prepared.
        txn: TxnId,
    },
    /// 2PC phase two: commit or abort the prepared intent of `txn`. With
    /// `record` set (the transaction's home group) the decision is
    /// recorded first-writer-wins in the group's decision table, making
    /// it the authoritative outcome; participants apply with `record`
    /// unset and simply resolve their intent.
    Decide {
        /// The distributed transaction being decided.
        txn: TxnId,
        /// Commit (true) or abort (false).
        commit: bool,
        /// Record the decision in this group's decision table (home
        /// group only).
        record: bool,
    },
}

impl TxnCtl {
    /// The transaction this control message refers to.
    #[must_use]
    pub fn txn(self) -> TxnId {
        match self {
            TxnCtl::Op { txn }
            | TxnCtl::Commit { txn, .. }
            | TxnCtl::Abort { txn }
            | TxnCtl::Prepare { txn }
            | TxnCtl::Decide { txn, .. } => txn,
        }
    }

    /// Whether this is a commit.
    #[must_use]
    pub fn is_commit(self) -> bool {
        matches!(self, TxnCtl::Commit { .. })
    }
}

/// A client request.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Request {
    /// Unique identity; duplicates (retransmissions) carry the same id.
    pub id: RequestId,
    /// Read / write / original classification.
    pub kind: RequestKind,
    /// Transaction context, if the client is using transactions.
    pub txn: Option<TxnCtl>,
    /// Opaque service-level operation, interpreted by the [`crate::service::App`].
    pub op: Bytes,
}

impl Request {
    /// A plain (non-transactional) request.
    #[must_use]
    pub fn new(id: RequestId, kind: RequestKind, op: Bytes) -> Request {
        Request {
            id,
            kind,
            txn: None,
            op,
        }
    }

    /// An operation inside a transaction.
    #[must_use]
    pub fn txn_op(id: RequestId, kind: RequestKind, txn: TxnId, op: Bytes) -> Request {
        Request {
            id,
            kind,
            txn: Some(TxnCtl::Op { txn }),
            op,
        }
    }

    /// A transaction commit request.
    #[must_use]
    pub fn txn_commit(id: RequestId, txn: TxnId, n_ops: u32) -> Request {
        Request {
            id,
            kind: RequestKind::Write,
            txn: Some(TxnCtl::Commit { txn, n_ops }),
            op: Bytes::new(),
        }
    }

    /// A transaction abort request.
    #[must_use]
    pub fn txn_abort(id: RequestId, txn: TxnId) -> Request {
        Request {
            id,
            kind: RequestKind::Write,
            txn: Some(TxnCtl::Abort { txn }),
            op: Bytes::new(),
        }
    }

    /// A 2PC prepare request: `op` carries the participant group's write
    /// set, encoded by the service.
    #[must_use]
    pub fn txn_prepare(id: RequestId, txn: TxnId, ops: Bytes) -> Request {
        Request {
            id,
            kind: RequestKind::Write,
            txn: Some(TxnCtl::Prepare { txn }),
            op: ops,
        }
    }

    /// A 2PC decide request (commit or abort a prepared transaction).
    #[must_use]
    pub fn txn_decide(id: RequestId, txn: TxnId, commit: bool, record: bool) -> Request {
        Request {
            id,
            kind: RequestKind::Write,
            txn: Some(TxnCtl::Decide {
                txn,
                commit,
                record,
            }),
            op: Bytes::new(),
        }
    }

    /// Whether this request is a transaction operation (not commit/abort).
    #[must_use]
    pub fn is_txn_op(&self) -> bool {
        matches!(self.txn, Some(TxnCtl::Op { .. }))
    }
}

/// Why a transaction was aborted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AbortReason {
    /// The client asked for the abort.
    ClientAbort,
    /// The leader changed mid-transaction, so staged effects were lost
    /// (T-Paxos is sensitive to leader switches, §3.6).
    LeaderSwitch,
    /// The service detected a conflict with a concurrent transaction
    /// (§3.5: services supporting transactions need locks or similar).
    Conflict,
    /// The service does not support transactions.
    Unsupported,
    /// The operation touched keys outside this consensus group (cross-
    /// shard extension). Retriable: the client should re-drive the
    /// operation through the 2PC coordinator instead of a single group.
    CrossShard,
    /// The 2PC outcome could not be learned before the coordinator gave
    /// up (e.g. the home group was unreachable). The transaction may yet
    /// commit or abort; the client must re-drive resolution before
    /// reusing the transaction's keys.
    InDoubt,
}

/// Body of a reply from the leader to a client.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ReplyBody {
    /// Successful execution; opaque service-level result.
    Ok(Bytes),
    /// The transaction committed.
    TxnCommitted {
        /// The committed transaction.
        txn: TxnId,
    },
    /// The transaction aborted.
    TxnAborted {
        /// The aborted transaction.
        txn: TxnId,
        /// Why it aborted.
        reason: AbortReason,
    },
    /// 2PC yes vote: the group chose a decree installing the prepared
    /// intent, so the vote is durable on a majority (cross-shard
    /// extension). Sent only after the prepare decree is *chosen* — a
    /// `TxnPrepared` reply is a promise that survives leader crashes.
    TxnPrepared {
        /// The prepared transaction.
        txn: TxnId,
    },
    /// Filler for decrees that carry no client reply (e.g. no-ops chosen
    /// to close log gaps during recovery).
    Empty,
    /// Overload shed: the node's admission gate refused the request before
    /// it reached the protocol (extension — reactor transport
    /// backpressure). The request was **not** executed and left no trace
    /// in the dedup table; the client should back off and retry.
    Busy,
}

impl ReplyBody {
    /// The service-level payload, if this is a plain `Ok` reply.
    #[must_use]
    pub fn payload(&self) -> Option<&Bytes> {
        match self {
            ReplyBody::Ok(b) => Some(b),
            ReplyBody::TxnCommitted { .. }
            | ReplyBody::TxnAborted { .. }
            | ReplyBody::TxnPrepared { .. }
            | ReplyBody::Empty
            | ReplyBody::Busy => None,
        }
    }

    /// Whether the reply signals a committed transaction.
    #[must_use]
    pub fn is_committed(&self) -> bool {
        matches!(self, ReplyBody::TxnCommitted { .. })
    }

    /// Whether the reply is an overload shed (the request was not
    /// executed; retry after a backoff).
    #[must_use]
    pub fn is_busy(&self) -> bool {
        matches!(self, ReplyBody::Busy)
    }
}

/// A reply, as delivered to the client by the answering replica.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Reply {
    /// The request this reply answers.
    pub id: RequestId,
    /// The answering replica's current view of the leader (lets clients
    /// learn the leader). Leaders report themselves; a follower serving a
    /// bounded-staleness read reports the leader it believes in, so stale
    /// per-group hints refresh off the read path too.
    pub leader: ProcessId,
    /// Decree index the answering replica's applied state reflects
    /// (follower-read extension): the highest contiguously applied
    /// instance at execution time. Clients use it to enforce monotonic
    /// reads and read-your-writes across replicas. Leader replies tag the
    /// instance the decree was chosen at (writes) or the applied prefix
    /// (fast-path reads).
    pub watermark: Instance,
    /// Result.
    pub body: ReplyBody,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::*;

    fn rid(c: u64, s: u64) -> RequestId {
        RequestId::new(ClientId(c), Seq(s))
    }

    #[test]
    fn request_constructors_classify() {
        let r = Request::new(rid(1, 1), RequestKind::Read, Bytes::from_static(b"x"));
        assert!(!r.kind.is_write());
        assert!(r.txn.is_none());

        let w = Request::txn_op(rid(1, 2), RequestKind::Write, TxnId(9), Bytes::new());
        assert!(w.is_txn_op());
        assert_eq!(w.txn.unwrap().txn(), TxnId(9));

        let c = Request::txn_commit(rid(1, 3), TxnId(9), 3);
        assert!(c.txn.unwrap().is_commit());
        assert!(!c.is_txn_op());

        let a = Request::txn_abort(rid(1, 4), TxnId(9));
        assert_eq!(a.txn.unwrap().txn(), TxnId(9));
        assert!(!a.txn.unwrap().is_commit());
    }

    #[test]
    fn request_ids_order_by_client_then_seq() {
        assert!(rid(1, 5) < rid(2, 1));
        assert!(rid(1, 1) < rid(1, 2));
    }

    #[test]
    fn reply_body_projections() {
        let ok = ReplyBody::Ok(Bytes::from_static(b"hi"));
        assert_eq!(ok.payload().unwrap().as_ref(), b"hi");
        assert!(!ok.is_committed());
        let committed = ReplyBody::TxnCommitted { txn: TxnId(1) };
        assert!(committed.is_committed());
        assert!(committed.payload().is_none());
        assert!(ReplyBody::Empty.payload().is_none());
    }

    #[test]
    fn original_kind_is_not_write_class() {
        // "Original" bypasses coordination entirely; it must not be treated
        // as a write by the protocol dispatch.
        assert!(!RequestKind::Original.is_write());
        assert!(RequestKind::Write.is_write());
    }
}
