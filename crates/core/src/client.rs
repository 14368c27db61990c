//! Client-side protocol core (sans-io).
//!
//! Per §3.3, a client never needs to know who the leader is: its first
//! request and every retry go to **all** service replicas, and only the
//! leader answers. The client remembers, per group, the leader that last
//! answered, and sends later writes, T-Paxos ops and 2PC legs to it alone
//! — followers would only drop them. A timeout or a `Busy` drops the hint,
//! so the retry broadcasts again. The client keeps at most one request
//! outstanding and matches replies by request id, which makes retries
//! idempotent end to end.
//!
//! In a multi-group (sharded) deployment the client additionally routes
//! each request to its consensus group — determined by a [`ShardRouter`]
//! over the request's service-level key — and wraps traffic in the group
//! envelope. Reads always broadcast (the X-Paxos fast path needs the
//! followers' confirm votes) — except in
//! bounded-staleness follower-read mode, where the client unicasts reads
//! to its nearest replica and enforces the session guarantees itself: a
//! per-group monotonic *read watermark* (the highest applied decree any
//! accepted reply reflected) lets it discard follower replies that would
//! travel backwards in time, so monotonic reads and read-your-writes hold
//! without ever contacting the leader.

use crate::action::{Action, TimerKind};
use crate::msg::Msg;
use crate::request::{Reply, ReplyBody, Request, RequestId, RequestKind, TxnCtl};
use crate::types::{shard_of, Addr, ClientId, Dur, GroupId, Instance, ProcessId, Seq, Time, TxnId};
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Maps a request to its service-level shard key (`None` = keyless, routes
/// to group 0). A pure function of the request — typically a hash of the
/// key the service would extract via
/// [`crate::service::App::shard_key`] — shared by every client.
#[derive(Clone)]
pub struct ShardRouter(pub Arc<RouteFn>);

/// The routing function a [`ShardRouter`] wraps.
pub type RouteFn = dyn Fn(&Request) -> Option<u64> + Send + Sync;

impl ShardRouter {
    /// Wrap a routing function.
    pub fn new(f: impl Fn(&Request) -> Option<u64> + Send + Sync + 'static) -> ShardRouter {
        ShardRouter(Arc::new(f))
    }

    /// The shard key of `req`, if any.
    #[must_use]
    pub fn key_of(&self, req: &Request) -> Option<u64> {
        (self.0)(req)
    }
}

impl fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ShardRouter(..)")
    }
}

/// A finished operation, as reported to the embedding workload driver.
#[derive(Clone, Debug)]
pub struct CompletedOp {
    /// The request that completed.
    pub req: Request,
    /// The leader's reply.
    pub body: ReplyBody,
    /// Leader that answered.
    pub leader: ProcessId,
    /// Round-trip time from first transmission to reply.
    pub rtt: Dur,
    /// Number of retransmissions that were needed.
    pub retries: u32,
}

#[derive(Clone, Debug)]
struct Pending {
    req: Request,
    group: GroupId,
    first_sent: Time,
    retries: u32,
}

/// Sans-io client state machine.
#[derive(Clone, Debug)]
pub struct ClientCore {
    id: ClientId,
    n_replicas: usize,
    next_seq: Seq,
    next_txn: TxnId,
    retry_timeout: Dur,
    outstanding: Option<Pending>,
    n_groups: usize,
    router: Option<ShardRouter>,
    /// Last leader observed to answer, per group (`GroupId.0` keyed).
    leader_hints: HashMap<u32, ProcessId>,
    /// Whether reads route to a follower and are gated by the session
    /// watermark (bounded-staleness follower-read mode).
    follower_reads: bool,
    /// Nearest replica, by RTT, to unicast follower reads to. `None`
    /// broadcasts reads; whichever replica is within the staleness bound
    /// answers first.
    read_target: Option<ProcessId>,
    /// Highest applied decree any accepted reply reflected, per group
    /// (`GroupId.0` keyed). Monotonic: a follower-read reply below this
    /// mark is discarded, which is what makes monotonic reads and
    /// read-your-writes hold without leader contact.
    read_watermarks: HashMap<u32, Instance>,
}

impl ClientCore {
    /// A client talking to a group of `n_replicas` replicas.
    #[must_use]
    pub fn new(id: ClientId, n_replicas: usize, retry_timeout: Dur) -> ClientCore {
        ClientCore {
            id,
            n_replicas,
            next_seq: Seq(1),
            // Namespaced by client so ids are globally unique: the 2PC
            // plane keys prepared intents, key locks and the home-group
            // decision table by bare `TxnId`, so two clients' transactions
            // must never share one (T-Paxos sessions key by
            // `(ClientId, TxnId)` and never cared).
            next_txn: TxnId((id.0 << 24) | 1),
            retry_timeout,
            outstanding: None,
            n_groups: 1,
            router: None,
            leader_hints: HashMap::new(),
            follower_reads: false,
            read_target: None,
            read_watermarks: HashMap::new(),
        }
    }

    /// Enable bounded-staleness follower reads: plain reads unicast to
    /// `nearest` (the lowest-RTT replica; `None` broadcasts) and replies
    /// are gated by the per-group read watermark so session guarantees
    /// hold client-side. Writes are unaffected.
    #[must_use]
    pub fn with_follower_reads(mut self, nearest: Option<ProcessId>) -> ClientCore {
        self.follower_reads = true;
        self.read_target = nearest;
        self
    }

    /// Make the client shard-aware: route each request into one of
    /// `n_groups` consensus groups using `router`. With `n_groups == 1`
    /// (or no router) behavior is identical to [`ClientCore::new`].
    #[must_use]
    pub fn with_groups(mut self, n_groups: usize, router: Option<ShardRouter>) -> ClientCore {
        assert!(n_groups >= 1, "need at least one group");
        self.n_groups = n_groups;
        self.router = router;
        self
    }

    /// Number of consensus groups this client routes across.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// This client's id.
    #[must_use]
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Whether a request is currently in flight.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.outstanding.is_some()
    }

    /// The id of the request in flight, if any.
    #[must_use]
    pub fn outstanding_id(&self) -> Option<RequestId> {
        self.outstanding.as_ref().map(|p| p.req.id)
    }

    /// How long a request waits for its reply before it is retransmitted.
    #[must_use]
    pub fn retry_timeout(&self) -> Dur {
        self.retry_timeout
    }

    /// Give up on the outstanding request, if any, and cancel its retry
    /// timer: the next submit starts clean. A late reply to it is ignored,
    /// because replies match by request id.
    pub fn abandon(&mut self) -> Vec<Action> {
        self.outstanding = None;
        vec![Action::CancelTimer {
            kind: TimerKind::ClientRetry,
        }]
    }

    /// Allocate the next request id.
    pub fn next_request_id(&mut self) -> RequestId {
        let id = RequestId::new(self.id, self.next_seq);
        self.next_seq = self.next_seq.next();
        id
    }

    /// Allocate a fresh transaction id, unique across clients (the
    /// client id occupies the high bits).
    pub fn next_txn_id(&mut self) -> TxnId {
        let t = self.next_txn;
        self.next_txn = TxnId(t.0 + 1);
        t
    }

    /// Build and submit a plain request. Panics if one is already
    /// outstanding (the closed-loop discipline of the paper's clients:
    /// "A client will not send a new request until it receives the reply
    /// associated with the previous one").
    pub fn submit_op(&mut self, kind: RequestKind, op: Bytes, now: Time) -> Vec<Action> {
        let id = self.next_request_id();
        self.submit(Request::new(id, kind, op), now)
    }

    /// Submit a pre-built request (used for transaction traffic).
    pub fn submit(&mut self, req: Request, now: Time) -> Vec<Action> {
        let group = self.group_of(&req);
        self.submit_to(req, group, now)
    }

    /// Submit a pre-built request pinned to an explicit consensus group,
    /// bypassing the router. Used by the 2PC coordinator
    /// ([`crate::txn::TxnCoordinator`]): its Prepare/Decide requests
    /// target a specific participant group, not a key.
    pub fn submit_to(&mut self, req: Request, group: GroupId, now: Time) -> Vec<Action> {
        assert!(
            self.outstanding.is_none(),
            "client {} already has an outstanding request",
            self.id
        );
        self.outstanding = Some(Pending {
            req: req.clone(),
            group,
            first_sent: now,
            retries: 0,
        });
        let mut actions = self.send_request(group, req);
        actions.push(Action::timer(TimerKind::ClientRetry, self.retry_timeout));
        actions
    }

    /// The consensus group `req` routes to. Single-group transactions
    /// (T-Paxos / per-op sessions) are pinned to group 0: a transaction
    /// session lives on one leader (§3.5), so all its operations must
    /// share a group. 2PC traffic routes per participant group via
    /// [`ClientCore::submit_to`] instead.
    fn group_of(&self, req: &Request) -> GroupId {
        if self.n_groups <= 1 || req.txn.is_some() {
            return GroupId::ZERO;
        }
        match self.router.as_ref().and_then(|r| r.key_of(req)) {
            Some(key) => shard_of(key, self.n_groups),
            None => GroupId::ZERO,
        }
    }

    /// The session's read watermark for `group`: the highest applied
    /// decree any accepted reply has reflected. Follower-read replies
    /// below this are discarded rather than delivered.
    #[must_use]
    pub fn read_watermark(&self, group: GroupId) -> Instance {
        self.read_watermarks
            .get(&group.0)
            .copied()
            .unwrap_or(Instance::ZERO)
    }

    /// Wrap `msg` in the group envelope iff this is a multi-group client.
    fn wrap(&self, group: GroupId, msg: Msg) -> Msg {
        if self.n_groups <= 1 {
            msg
        } else {
            Msg::Grouped {
                group,
                inner: Box::new(msg),
            }
        }
    }

    /// First transmission of `req`: unicast to the leader that last
    /// answered in its group, when one is known and the request doesn't
    /// need the full quorum to see it; otherwise the §3.3 broadcast. Reads
    /// always broadcast — the X-Paxos fast path (§3.4) collects Confirm
    /// votes from the followers, which therefore must receive the request
    /// too.
    fn send_request(&self, group: GroupId, req: Request) -> Vec<Action> {
        // Follower-read mode: a plain read needs only *some* replica
        // within the staleness bound, so first transmission goes to the
        // nearest one. A retry falls back to broadcast (the nearest
        // replica may be lagging past the bound, partitioned, or dead —
        // the leader's copy always answers).
        if self.follower_reads && req.kind == RequestKind::Read && req.txn.is_none() {
            if let Some(nearest) = self.read_target {
                return vec![Action::send(
                    Addr::Replica(nearest),
                    self.wrap(group, Msg::Request(req)),
                )];
            }
        }
        if req.kind != RequestKind::Read {
            if let Some(&leader) = self.leader_hints.get(&group.0) {
                return vec![Action::send(
                    Addr::Replica(leader),
                    self.wrap(group, Msg::Request(req)),
                )];
            }
        }
        self.broadcast(group, req)
    }

    fn broadcast(&self, group: GroupId, req: Request) -> Vec<Action> {
        (0..self.n_replicas)
            .map(|r| {
                Action::send(
                    Addr::Replica(ProcessId(r as u32)),
                    self.wrap(group, Msg::Request(req.clone())),
                )
            })
            .collect()
    }

    /// Handle an incoming message. Returns the completed operation when the
    /// outstanding request is answered.
    pub fn on_message(&mut self, msg: Msg, now: Time) -> (Option<CompletedOp>, Vec<Action>) {
        // Every message but the envelope is bare, whatever its variant.
        #[allow(clippy::wildcard_enum_match_arm)]
        let (group, msg) = match msg {
            Msg::Grouped { group, inner } => (Some(group), *inner),
            other => (None, other),
        };
        let Msg::Reply(reply) = msg else {
            return (None, Vec::new());
        };
        self.on_reply(group, reply, now)
    }

    fn on_reply(
        &mut self,
        group: Option<GroupId>,
        reply: Reply,
        now: Time,
    ) -> (Option<CompletedOp>, Vec<Action>) {
        match &self.outstanding {
            // Overload shed: the node's admission gate refused the request
            // before it reached the protocol. The op stays outstanding —
            // the already-armed retry timer re-broadcasts after a backoff,
            // which is exactly the degradation the gate asks for. The
            // shedder is not the leader, so the hint is not adopted — and
            // the *answering* group's cached hint is dropped (not just the
            // outstanding request's group): a Busy unicast answer means the
            // hinted node is overloaded or no longer leading there, and
            // retries must fall back to broadcast rather than hammer it.
            Some(p) if p.req.id == reply.id && reply.body.is_busy() => {
                self.leader_hints.remove(&group.unwrap_or(p.group).0);
                (None, Vec::new())
            }
            // A follower answered a session read from state older than
            // this session has already observed (possible when a retry
            // broadcast reaches several lagging followers). Discard the
            // reply and stay outstanding: the armed retry timer will
            // re-broadcast, and a fresher replica — ultimately the
            // leader's own copy — answers. The answering replica's leader
            // view is still adopted so stale hints refresh off the read
            // path.
            Some(p)
                if p.req.id == reply.id
                    && self.follower_reads
                    && p.req.kind == RequestKind::Read
                    && p.req.txn.is_none()
                    && reply.watermark < self.read_watermark(group.unwrap_or(p.group)) =>
            {
                self.leader_hints
                    .insert(group.unwrap_or(p.group).0, reply.leader);
                (None, Vec::new())
            }
            Some(p) if p.req.id == reply.id => {
                let p = self.outstanding.take().expect("checked above");
                let g = group.unwrap_or(p.group);
                // Whoever answered is that group's leader (or, for a
                // follower-served read, the answerer's view of the
                // leader); unicast the next write there.
                self.leader_hints.insert(g.0, reply.leader);
                // Session guarantee bookkeeping: remember the freshest
                // applied state any reply has reflected. Writes push the
                // mark to their own decree (read-your-writes); reads push
                // it to the prefix they saw (monotonic reads).
                let wm = self.read_watermarks.entry(g.0).or_insert(Instance::ZERO);
                if reply.watermark > *wm {
                    *wm = reply.watermark;
                }
                let done = CompletedOp {
                    req: p.req,
                    body: reply.body,
                    leader: reply.leader,
                    rtt: now.since(p.first_sent),
                    retries: p.retries,
                };
                (
                    Some(done),
                    vec![Action::CancelTimer {
                        kind: TimerKind::ClientRetry,
                    }],
                )
            }
            // Stale duplicate (a retransmitted earlier request answered
            // twice) or a reply while idle: ignore.
            _ => (None, Vec::new()),
        }
    }

    /// Handle a timer firing: retransmit the outstanding request to all
    /// replicas and re-arm. A timeout also invalidates the group's leader
    /// hint — the hinted leader may have crashed or been deposed — so the
    /// retry reverts to the §3.3 broadcast.
    pub fn on_timer(&mut self, kind: TimerKind, _now: Time) -> Vec<Action> {
        if kind != TimerKind::ClientRetry {
            return Vec::new();
        }
        let Some(p) = &mut self.outstanding else {
            return Vec::new();
        };
        p.retries += 1;
        let (req, group) = (p.req.clone(), p.group);
        self.leader_hints.remove(&group.0);
        let mut actions = self.broadcast(group, req);
        actions.push(Action::timer(TimerKind::ClientRetry, self.retry_timeout));
        actions
    }
}

/// Outcome of driving a whole transaction to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// All operations executed and the commit was acknowledged.
    Committed,
    /// The transaction aborted (reason attached).
    Aborted(crate::request::AbortReason),
}

/// A scripted transaction: the ordered operations to run, then commit.
#[derive(Clone, Debug)]
pub struct TxnScript {
    /// Operations as `(kind, payload)` pairs, e.g. 2 reads + 1 write for
    /// the paper's 3-request read/write transactions.
    pub ops: Vec<(RequestKind, Bytes)>,
}

impl TxnScript {
    /// The evaluation's read/write transaction shape: `reads` reads
    /// followed by `writes` writes.
    #[must_use]
    pub fn read_write(reads: usize, writes: usize) -> TxnScript {
        let mut ops = Vec::with_capacity(reads + writes);
        ops.extend((0..reads).map(|_| (RequestKind::Read, Bytes::new())));
        ops.extend((0..writes).map(|_| (RequestKind::Write, Bytes::new())));
        TxnScript { ops }
    }

    /// The evaluation's write-only transaction shape.
    #[must_use]
    pub fn write_only(writes: usize) -> TxnScript {
        TxnScript {
            ops: (0..writes)
                .map(|_| (RequestKind::Write, Bytes::new()))
                .collect(),
        }
    }
}

/// Drives one transaction through a [`ClientCore`], one operation at a
/// time, finishing with the commit.
#[derive(Clone, Debug)]
pub struct TxnDriver {
    script: TxnScript,
    txn: TxnId,
    next_op: usize,
    started: Option<Time>,
    finished: Option<TxnOutcome>,
}

impl TxnDriver {
    /// Start driving `script` as transaction `txn`.
    #[must_use]
    pub fn new(script: TxnScript, txn: TxnId) -> TxnDriver {
        TxnDriver {
            script,
            txn,
            next_op: 0,
            started: None,
            finished: None,
        }
    }

    /// The transaction id.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Whether the driver has issued everything and seen the final reply.
    #[must_use]
    pub fn outcome(&self) -> Option<&TxnOutcome> {
        self.finished.as_ref()
    }

    /// Issue the next step (an operation or the commit) through `client`.
    /// Returns `None` if the transaction already finished.
    pub fn step(&mut self, client: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
        if self.finished.is_some() {
            return None;
        }
        self.started.get_or_insert(now);
        let id = client.next_request_id();
        let req = if self.next_op < self.script.ops.len() {
            let (kind, op) = self.script.ops[self.next_op].clone();
            Request::txn_op(id, kind, self.txn, op)
        } else {
            Request::txn_commit(id, self.txn, self.script.ops.len() as u32)
        };
        Some(client.submit(req, now))
    }

    /// Feed a completed operation back. Returns the outcome once final.
    pub fn on_complete(&mut self, done: &CompletedOp) -> Option<TxnOutcome> {
        match &done.body {
            ReplyBody::TxnAborted { txn, reason } if *txn == self.txn => {
                self.finished = Some(TxnOutcome::Aborted(*reason));
            }
            ReplyBody::TxnCommitted { txn } if *txn == self.txn => {
                self.finished = Some(TxnOutcome::Committed);
            }
            ReplyBody::Ok(_)
            | ReplyBody::TxnCommitted { .. }
            | ReplyBody::TxnAborted { .. }
            | ReplyBody::TxnPrepared { .. }
            | ReplyBody::Empty
            | ReplyBody::Busy => {
                // An ordinary op reply: move to the next step.
                if matches!(done.req.txn, Some(TxnCtl::Op { txn }) if txn == self.txn) {
                    self.next_op += 1;
                }
            }
        }
        self.finished.clone()
    }

    /// Total steps (ops + commit) this script issues.
    #[must_use]
    pub fn total_steps(&self) -> usize {
        self.script.ops.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(id: RequestId, body: ReplyBody) -> Msg {
        reply_wm(id, Instance::ZERO, body)
    }

    fn reply_wm(id: RequestId, watermark: Instance, body: ReplyBody) -> Msg {
        reply_from(ProcessId(0), id, watermark, body)
    }

    fn reply_from(leader: ProcessId, id: RequestId, watermark: Instance, body: ReplyBody) -> Msg {
        Msg::Reply(Reply {
            id,
            leader,
            watermark,
            body,
        })
    }

    /// Where `actions` send to, in order.
    fn targets(actions: &[Action]) -> Vec<Addr> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                Action::ToAllReplicas { .. }
                | Action::SetTimer { .. }
                | Action::CancelTimer { .. } => None,
            })
            .collect()
    }

    fn all_three() -> Vec<Addr> {
        (0..3).map(|r| Addr::Replica(ProcessId(r))).collect()
    }

    fn to(r: u32) -> Vec<Addr> {
        vec![Addr::Replica(ProcessId(r))]
    }

    /// Replica `by` answers client 1's request `seq` with `body`.
    fn answer(c: &mut ClientCore, seq: u64, by: u32, body: ReplyBody) -> Option<CompletedOp> {
        let id = RequestId::new(ClientId(1), Seq(seq));
        let msg = reply_from(ProcessId(by), id, Instance(seq), body);
        c.on_message(msg, Time(seq * 10)).0
    }

    fn ok() -> ReplyBody {
        ReplyBody::Ok(Bytes::new())
    }

    // ----- one rule for where a request goes ----------------------------

    /// A single-group client whose first write replica 2 answered: the
    /// second write, and a T-Paxos op, go to replica 2 alone.
    #[test]
    fn a_second_write_goes_only_to_the_replica_that_answered_the_first() {
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        let first = c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        assert_eq!(
            targets(&first),
            all_three(),
            "no hint yet: the §3.3 broadcast"
        );
        assert!(answer(&mut c, 1, 2, ok()).is_some());
        let second = c.submit_op(RequestKind::Write, Bytes::new(), Time(12));
        assert_eq!(targets(&second), to(2));
        answer(&mut c, 2, 2, ok());
        let id = c.next_request_id();
        let op = Request::txn_op(id, RequestKind::Write, TxnId(1), Bytes::new());
        assert_eq!(targets(&c.submit(op, Time(22))), to(2));
    }

    /// The hinted leader died with the write in hand: the retry
    /// broadcasts, the new leader answers, and the next write goes to it.
    #[test]
    fn a_retry_after_the_hinted_leader_died_broadcasts_and_repoints_the_hint() {
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        answer(&mut c, 1, 0, ok());
        let lost = c.submit_op(RequestKind::Write, Bytes::new(), Time(12));
        assert_eq!(targets(&lost), to(0));
        let retry = c.on_timer(TimerKind::ClientRetry, Time(15));
        assert_eq!(targets(&retry), all_three(), "the retry broadcasts");
        let done = answer(&mut c, 2, 1, ok()).expect("the new leader answers");
        assert_eq!(done.retries, 1);
        let next = c.submit_op(RequestKind::Write, Bytes::new(), Time(22));
        assert_eq!(targets(&next), to(1));
    }

    /// A `Busy` from the hinted leader drops the hint, as a timeout does:
    /// the retry must not single out the overloaded node again.
    #[test]
    fn a_busy_reply_drops_the_hint_of_a_single_group_client() {
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        answer(&mut c, 1, 2, ok());
        let shed = c.submit_op(RequestKind::Write, Bytes::new(), Time(12));
        assert_eq!(targets(&shed), to(2));
        assert!(answer(&mut c, 2, 2, ReplyBody::Busy).is_none());
        assert!(c.is_busy(), "the write stays outstanding");
        assert!(c.leader_hints.is_empty(), "Busy dropped the hint");
    }

    #[test]
    fn submit_broadcasts_to_all_replicas_and_arms_retry() {
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        let actions = c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        let sends = actions
            .iter()
            .filter(|a| matches!(a, Action::Send { .. }))
            .count();
        assert_eq!(sends, 3, "request goes to all replicas");
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::ClientRetry,
                ..
            }
        )));
        assert!(c.is_busy());
    }

    #[test]
    fn reply_completes_and_measures_rtt() {
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        let actions = c.submit_op(RequestKind::Read, Bytes::new(), Time(1_000));
        let Action::Send {
            msg: Msg::Request(r),
            ..
        } = &actions[0]
        else {
            panic!("unexpected {:?}", actions[0]);
        };
        let id = r.id;
        let (done, actions) = c.on_message(reply(id, ReplyBody::Ok(Bytes::new())), Time(5_000));
        let done = done.expect("completed");
        assert_eq!(done.rtt, Dur(4_000));
        assert_eq!(done.retries, 0);
        assert!(!c.is_busy());
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::CancelTimer {
                kind: TimerKind::ClientRetry
            }
        )));
    }

    #[test]
    fn stale_reply_is_ignored() {
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        c.submit_op(RequestKind::Read, Bytes::new(), Time::ZERO);
        let stale = RequestId::new(ClientId(1), Seq(999));
        let (done, actions) = c.on_message(reply(stale, ReplyBody::Empty), Time(1));
        assert!(done.is_none());
        assert!(actions.is_empty());
        assert!(c.is_busy());
    }

    /// A request given up on leaves nothing behind: its timer is
    /// cancelled, the next submit does not trip the one-outstanding
    /// assertion, and the abandoned request's late reply completes nothing.
    #[test]
    fn an_abandoned_request_frees_the_client() {
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        let cancel = c.abandon();
        assert!(matches!(
            cancel[..],
            [Action::CancelTimer {
                kind: TimerKind::ClientRetry
            }]
        ));
        assert!(!c.is_busy());
        c.submit_op(RequestKind::Write, Bytes::new(), Time(5));
        assert!(answer(&mut c, 1, 0, ok()).is_none(), "the late reply");
        assert!(answer(&mut c, 2, 0, ok()).is_some());
    }

    #[test]
    fn busy_reply_leaves_request_outstanding_and_completes_on_retry() {
        let mut c = ClientCore::new(ClientId(1), 3, Dur::from_millis(100));
        let actions = c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        let Action::Send {
            msg: Msg::Request(r),
            ..
        } = &actions[0]
        else {
            panic!("unexpected {:?}", actions[0]);
        };
        let id = r.id;
        // An overloaded node sheds: the op must stay outstanding (no
        // completion, no timer cancellation) so the retry timer can
        // re-broadcast it.
        let (done, actions) = c.on_message(reply(id, ReplyBody::Busy), Time(1));
        assert!(done.is_none(), "Busy must not complete the op");
        assert!(actions.is_empty(), "retry timer stays armed");
        assert!(c.is_busy());
        // The retry then re-broadcasts, and a real reply completes with the
        // retry counted.
        let actions = c.on_timer(TimerKind::ClientRetry, Time(2));
        assert!(actions.iter().any(|a| matches!(a, Action::Send { .. })));
        let (done, _) = c.on_message(reply(id, ReplyBody::Ok(Bytes::new())), Time(3));
        assert_eq!(done.expect("completes").retries, 1);
    }

    #[test]
    fn retry_rebroadcasts() {
        let mut c = ClientCore::new(ClientId(1), 5, Dur::from_millis(100));
        c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        let actions = c.on_timer(TimerKind::ClientRetry, Time(1));
        let sends = actions
            .iter()
            .filter(|a| matches!(a, Action::Send { .. }))
            .count();
        assert_eq!(sends, 5);
        // Completion then reports one retry.
        let id = RequestId::new(ClientId(1), Seq(1));
        let (done, _) = c.on_message(reply(id, ReplyBody::Ok(Bytes::new())), Time(2));
        assert_eq!(done.unwrap().retries, 1);
    }

    #[test]
    fn txn_driver_walks_ops_then_commit() {
        let mut c = ClientCore::new(ClientId(2), 3, Dur::from_millis(100));
        let mut d = TxnDriver::new(TxnScript::read_write(2, 1), TxnId(1));
        assert_eq!(d.total_steps(), 4);

        for step in 0..4 {
            let actions = d.step(&mut c, Time(step)).expect("more steps");
            let Action::Send {
                msg: Msg::Request(r),
                ..
            } = &actions[0]
            else {
                panic!("unexpected {:?}", actions[0]);
            };
            let req = r.clone();
            if step < 3 {
                assert!(req.is_txn_op());
            } else {
                assert!(req.txn.unwrap().is_commit());
            }
            let body = if step < 3 {
                ReplyBody::Ok(Bytes::new())
            } else {
                ReplyBody::TxnCommitted { txn: TxnId(1) }
            };
            let (done, _) = c.on_message(reply(req.id, body), Time(step + 10));
            let outcome = d.on_complete(&done.unwrap());
            if step < 3 {
                assert!(outcome.is_none());
            } else {
                assert_eq!(outcome, Some(TxnOutcome::Committed));
            }
        }
        assert!(d.step(&mut c, Time(99)).is_none(), "finished");
    }

    #[test]
    fn txn_driver_reports_abort() {
        let mut c = ClientCore::new(ClientId(2), 3, Dur::from_millis(100));
        let mut d = TxnDriver::new(TxnScript::write_only(2), TxnId(4));
        let actions = d.step(&mut c, Time(0)).unwrap();
        let Action::Send {
            msg: Msg::Request(r),
            ..
        } = &actions[0]
        else {
            panic!("unexpected {:?}", actions[0]);
        };
        let req = r.clone();
        let (done, _) = c.on_message(
            reply(
                req.id,
                ReplyBody::TxnAborted {
                    txn: TxnId(4),
                    reason: crate::request::AbortReason::LeaderSwitch,
                },
            ),
            Time(5),
        );
        let outcome = d.on_complete(&done.unwrap()).unwrap();
        assert_eq!(
            outcome,
            TxnOutcome::Aborted(crate::request::AbortReason::LeaderSwitch)
        );
    }

    // ----- multi-group routing ------------------------------------------

    /// Router that shards on the first payload byte.
    fn byte_router() -> ShardRouter {
        ShardRouter::new(|req: &Request| req.op.first().map(|b| u64::from(*b)))
    }

    fn sharded_client(n_groups: usize) -> ClientCore {
        ClientCore::new(ClientId(9), 3, Dur::from_millis(100))
            .with_groups(n_groups, Some(byte_router()))
    }

    fn sent_groups(actions: &[Action]) -> Vec<GroupId> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Msg::Grouped { group, .. },
                    ..
                } => Some(*group),
                Action::Send { .. }
                | Action::ToAllReplicas { .. }
                | Action::SetTimer { .. }
                | Action::CancelTimer { .. } => None,
            })
            .collect()
    }

    #[test]
    fn sharded_submit_routes_by_key_and_wraps() {
        let mut c = sharded_client(4);
        // Key byte 6 → 6 % 4 = group 2; broadcast (no hint yet) to all 3.
        let actions = c.submit_op(RequestKind::Write, Bytes::from_static(&[6]), Time::ZERO);
        let groups = sent_groups(&actions);
        assert_eq!(groups.len(), 3, "no hint yet: broadcast to all replicas");
        assert!(groups.iter().all(|g| *g == GroupId(2)));
    }

    #[test]
    fn keyless_and_txn_requests_route_to_group_zero() {
        let mut c = sharded_client(4);
        let actions = c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        assert!(sent_groups(&actions).iter().all(|g| *g == GroupId::ZERO));
        let (done, _) = c.on_message(
            Msg::Grouped {
                group: GroupId::ZERO,
                inner: Box::new(reply(
                    RequestId::new(ClientId(9), Seq(1)),
                    ReplyBody::Ok(Bytes::new()),
                )),
            },
            Time(1),
        );
        assert!(done.is_some());

        // A transaction op with a "shardable" payload still pins to group 0.
        let id = c.next_request_id();
        let treq = Request::txn_op(id, RequestKind::Write, TxnId(1), Bytes::from_static(&[7]));
        let actions = c.submit(treq, Time(2));
        assert!(sent_groups(&actions).iter().all(|g| *g == GroupId::ZERO));
    }

    #[test]
    fn reply_caches_leader_hint_and_next_write_unicasts() {
        let mut c = sharded_client(4);
        let actions = c.submit_op(RequestKind::Write, Bytes::from_static(&[6]), Time::ZERO);
        assert_eq!(sent_groups(&actions).len(), 3);
        // Group 2's leader (replica 1) answers.
        let (done, _) = c.on_message(
            Msg::Grouped {
                group: GroupId(2),
                inner: Box::new(Msg::Reply(Reply {
                    id: RequestId::new(ClientId(9), Seq(1)),
                    leader: ProcessId(1),
                    watermark: Instance::ZERO,
                    body: ReplyBody::Ok(Bytes::new()),
                })),
            },
            Time(5),
        );
        assert!(done.is_some());

        // Next write to the same group goes straight to the hinted leader.
        let actions = c.submit_op(RequestKind::Write, Bytes::from_static(&[2]), Time(10));
        assert_eq!(targets(&actions), to(1), "unicast to hint");
        assert_eq!(sent_groups(&actions), vec![GroupId(2)]);

        // A retry invalidates the hint and reverts to broadcast.
        let actions = c.on_timer(TimerKind::ClientRetry, Time(200));
        assert_eq!(sent_groups(&actions).len(), 3, "hint dropped on timeout");
    }

    #[test]
    fn sharded_reads_always_broadcast() {
        let mut c = sharded_client(4);
        c.submit_op(RequestKind::Write, Bytes::from_static(&[6]), Time::ZERO);
        let (done, _) = c.on_message(
            Msg::Grouped {
                group: GroupId(2),
                inner: Box::new(Msg::Reply(Reply {
                    id: RequestId::new(ClientId(9), Seq(1)),
                    leader: ProcessId(1),
                    watermark: Instance::ZERO,
                    body: ReplyBody::Ok(Bytes::new()),
                })),
            },
            Time(5),
        );
        assert!(done.is_some());
        // Same group, but a read: the X-Paxos fast path needs every
        // replica to see it, so it must broadcast despite the hint.
        let actions = c.submit_op(RequestKind::Read, Bytes::from_static(&[2]), Time(10));
        assert_eq!(sent_groups(&actions).len(), 3);
    }

    // ----- bounded-staleness follower reads -----------------------------

    #[test]
    fn follower_read_unicasts_to_nearest_and_retry_broadcasts() {
        let mut c = ClientCore::new(ClientId(3), 3, Dur::from_millis(100))
            .with_follower_reads(Some(ProcessId(2)));
        let actions = c.submit_op(RequestKind::Read, Bytes::new(), Time::ZERO);
        assert_eq!(
            targets(&actions),
            to(2),
            "read unicasts to the nearest replica"
        );
        // The follower's reply names the leader (r0); a write goes there.
        let (done, _) = c.on_message(
            reply(
                RequestId::new(ClientId(3), Seq(1)),
                ReplyBody::Ok(Bytes::new()),
            ),
            Time(1),
        );
        assert!(done.is_some());
        let actions = c.submit_op(RequestKind::Write, Bytes::new(), Time(2));
        assert_eq!(
            targets(&actions),
            to(0),
            "the write goes to the leader the read's reply named"
        );
        // A retried read falls back to broadcast — the nearest replica
        // may be lagging past the bound or unreachable.
        let (done, _) = c.on_message(
            reply(
                RequestId::new(ClientId(3), Seq(2)),
                ReplyBody::Ok(Bytes::new()),
            ),
            Time(3),
        );
        assert!(done.is_some());
        c.submit_op(RequestKind::Read, Bytes::new(), Time(4));
        let actions = c.on_timer(TimerKind::ClientRetry, Time(200));
        assert_eq!(targets(&actions), all_three(), "retry reverts to broadcast");
    }

    #[test]
    fn stale_follower_read_reply_is_discarded_until_watermark() {
        let mut c = ClientCore::new(ClientId(4), 3, Dur::from_millis(100))
            .with_follower_reads(Some(ProcessId(1)));
        // A write completes at decree 5: read-your-writes pins the
        // session watermark there.
        c.submit_op(RequestKind::Write, Bytes::new(), Time::ZERO);
        let (done, _) = c.on_message(
            reply_wm(
                RequestId::new(ClientId(4), Seq(1)),
                Instance(5),
                ReplyBody::Ok(Bytes::new()),
            ),
            Time(1),
        );
        assert!(done.is_some());
        assert_eq!(c.read_watermark(GroupId::ZERO), Instance(5));

        // A follower still at decree 3 answers the next read: the reply
        // must be discarded (the op stays outstanding, retry timer armed)
        // or the session would see its own write disappear.
        c.submit_op(RequestKind::Read, Bytes::new(), Time(2));
        let id = RequestId::new(ClientId(4), Seq(2));
        let (done, actions) = c.on_message(
            reply_wm(id, Instance(3), ReplyBody::Ok(Bytes::new())),
            Time(3),
        );
        assert!(
            done.is_none(),
            "stale follower reply must not complete the read"
        );
        assert!(actions.is_empty(), "retry timer stays armed");
        assert!(c.is_busy());

        // A fresh-enough replica (>= the watermark) completes it, and the
        // read advances the watermark monotonically.
        let (done, _) = c.on_message(
            reply_wm(id, Instance(6), ReplyBody::Ok(Bytes::new())),
            Time(4),
        );
        assert!(done.is_some());
        assert_eq!(c.read_watermark(GroupId::ZERO), Instance(6));
    }

    #[test]
    fn follower_read_reply_refreshes_stale_leader_hint() {
        // Regression: a follower-read reply reveals the answering
        // replica's leader view; the client must refresh its per-group
        // hint from it so the next write unicasts to the *new*
        // leader instead of hammering the deposed one.
        let mut c = sharded_client(4).with_follower_reads(Some(ProcessId(2)));
        // Establish a (soon stale) hint: replica 1 leads group 2.
        c.submit_op(RequestKind::Write, Bytes::from_static(&[6]), Time::ZERO);
        let (done, _) = c.on_message(
            Msg::Grouped {
                group: GroupId(2),
                inner: Box::new(Msg::Reply(Reply {
                    id: RequestId::new(ClientId(9), Seq(1)),
                    leader: ProcessId(1),
                    watermark: Instance(1),
                    body: ReplyBody::Ok(Bytes::new()),
                })),
            },
            Time(1),
        );
        assert!(done.is_some());

        // Leadership moves to replica 0. A follower serves the next read
        // and reports the new leader in the reply envelope.
        c.submit_op(RequestKind::Read, Bytes::from_static(&[6]), Time(2));
        let (done, _) = c.on_message(
            Msg::Grouped {
                group: GroupId(2),
                inner: Box::new(Msg::Reply(Reply {
                    id: RequestId::new(ClientId(9), Seq(2)),
                    leader: ProcessId(0),
                    watermark: Instance(2),
                    body: ReplyBody::Ok(Bytes::new()),
                })),
            },
            Time(3),
        );
        assert!(done.is_some());

        // The next write to group 2 unicasts straight to the new leader.
        let actions = c.submit_op(RequestKind::Write, Bytes::from_static(&[6]), Time(4));
        assert_eq!(
            targets(&actions),
            to(0),
            "hint refreshed off the follower-read path"
        );
    }
}
