//! Leader-role logic: sequencing writes through consensus (§3.3), the
//! X-Paxos read fast path (§3.4) and T-Paxos transaction sessions (§3.5).

use super::{Replica, Role};
use crate::action::{Action, TimerKind};
use crate::ballot::Ballot;
use crate::command::Decree;
use crate::config::{ReadMode, TxnMode};
use crate::msg::Msg;
use crate::request::{AbortReason, Reply, ReplyBody, Request, RequestId, RequestKind, TxnCtl};
use crate::types::{Addr, ClientId, Instance, ProcessId, Time, TxnId};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Cap on buffered early read-confirms (confirms that outrace the client's
/// own request to the leader). FIFO-evicted beyond this.
pub(crate) const EARLY_CONFIRM_CAP: usize = 1024;

/// Minimum backlog before a confirm round carries the suppression hint. A
/// round serializes its covered reads behind one replica↔replica round
/// trip, while per-read confirms pipeline — so batching only pays once a
/// single round amortizes over enough reads. Below this threshold the
/// leader leaves the per-read path alone (no rounds, no suppression);
/// above it, one `ConfirmReq`/`ConfirmBatch` exchange replaces
/// `covered × (n - 1)` confirm messages.
pub(crate) const CONFIRM_BACKLOG_THRESHOLD: usize = 24;

/// The single outstanding proposal (§3.3: "The leader never tries to
/// propose more than one proposal simultaneously").
#[derive(Debug)]
pub(crate) struct Inflight {
    pub instance: Instance,
    pub acks: HashSet<ProcessId>,
}

/// The batched accept phase a fresh leader runs for recovered instances.
#[derive(Debug, Default)]
pub(crate) struct RecoveryBatch {
    /// Instances still lacking a majority.
    pub pending: BTreeSet<Instance>,
    /// Acks per instance (self included).
    pub acks: HashMap<Instance, HashSet<ProcessId>>,
}

/// An X-Paxos read in progress at the leader.
#[derive(Debug)]
pub struct PendingRead {
    /// The read request (always present; early confirms are buffered
    /// separately until the request arrives).
    pub req: Request,
    /// Replicas that confirmed our leadership for this read (self included).
    pub votes: HashSet<ProcessId>,
    /// Execution result, once the read has run.
    pub result: Option<ReplyBody>,
    /// Arrival time (for latency accounting).
    pub arrived: Time,
    /// Confirm epoch this read was opened under: the next round the leader
    /// will launch. A completed round with an equal-or-higher epoch
    /// validates the read (extension; per-read `Confirm` votes still count).
    pub epoch: u64,
    /// Set once a confirm round covering `epoch` reached a majority.
    pub confirmed: bool,
}

/// An in-flight epoch-confirm round (extension): the leader broadcast one
/// `ConfirmReq { epoch }` and each follower answers with one
/// `ConfirmBatch`, validating every read opened in `epoch` or earlier.
#[derive(Debug)]
pub(crate) struct ConfirmRound {
    /// The sealed epoch.
    pub epoch: u64,
    /// Whether the round carried the load hint (covered more than one read).
    pub backlog: bool,
    /// Followers that answered (self is implicit).
    pub acks: HashSet<ProcessId>,
}

/// A T-Paxos transaction session on the leader: operations executed and
/// answered immediately, coordination deferred to commit.
#[derive(Debug, Default)]
pub struct TxnSession {
    /// Operations executed so far, with their cached replies (for
    /// idempotent retransmission handling).
    pub ops: Vec<(Request, Bytes)>,
}

/// Mutable state of the leader role.
#[derive(Debug)]
pub struct LeaderState {
    /// The leadership ballot.
    pub ballot: Ballot,
    /// Next unused instance.
    pub(crate) next_instance: Instance,
    /// Requests awaiting their turn (strict pipelining: depth one).
    pub(crate) queue: VecDeque<Request>,
    pub(crate) inflight: Option<Inflight>,
    pub(crate) recovery: Option<RecoveryBatch>,
    pub(crate) reads: HashMap<RequestId, PendingRead>,
    pub(crate) early_confirms: HashMap<RequestId, HashSet<ProcessId>>,
    pub(crate) early_order: VecDeque<RequestId>,
    /// Highest confirm epoch launched under this leadership (extension).
    pub(crate) confirm_epoch: u64,
    /// The confirm round currently in flight, if any. Rounds are
    /// event-driven: one launches the moment an unconfirmed read exists and
    /// none is in flight, so a read never waits on a batching window.
    pub(crate) confirm_round: Option<ConfirmRound>,
    /// Load observed when the last round completed: the larger of how
    /// many reads it validated and how many it left unconfirmed.
    /// Hysteresis for the backlog hint: a burst drains the read table
    /// between rounds, so the first read of the next burst would
    /// otherwise look like a lone read and flap the followers out of
    /// suppression every cycle.
    pub(crate) last_round_covered: usize,
    /// Whether the most recent `ConfirmReq` carried `backlog = true`,
    /// i.e. the followers are (as far as the leader knows) suppressing
    /// per-read confirms and open reads complete only through rounds.
    pub(crate) suppress_hinted: bool,
    /// Active T-Paxos sessions.
    pub(crate) txns: HashMap<(ClientId, TxnId), TxnSession>,
    /// T-Paxos sessions whose commit request is queued but not yet
    /// proposed (ops retained to build the commit decree).
    pub(crate) committing: HashMap<RequestId, ((ClientId, TxnId), TxnSession)>,
    /// Monotonic heartbeat counter (anchors read leases).
    pub(crate) hb_seq: u64,
    /// When the heartbeat `hb_seq` was sent.
    pub(crate) hb_sent_at: Time,
    /// Followers that acked heartbeat `hb_seq`.
    pub(crate) hb_acks: HashSet<ProcessId>,
    /// Read lease expiry (Lease mode): local reads allowed before this.
    pub(crate) lease_until: Time,
    /// Size of the last decree proposed (drives the adaptive batch window).
    pub(crate) last_batch: usize,
    /// Whether a batch-window timer is pending.
    pub(crate) window_armed: bool,
    /// Remaining re-arms of the batch window while the queue keeps growing.
    pub(crate) window_rearms: u32,
}

impl LeaderState {
    pub(crate) fn new(ballot: Ballot, next_instance: Instance) -> LeaderState {
        LeaderState {
            ballot,
            next_instance,
            queue: VecDeque::new(),
            inflight: None,
            recovery: None,
            reads: HashMap::new(),
            early_confirms: HashMap::new(),
            early_order: VecDeque::new(),
            confirm_epoch: 0,
            confirm_round: None,
            last_round_covered: 0,
            suppress_hinted: false,
            txns: HashMap::new(),
            committing: HashMap::new(),
            hb_seq: 0,
            hb_sent_at: Time::ZERO,
            hb_acks: HashSet::new(),
            lease_until: Time::ZERO,
            last_batch: 0,
            window_armed: false,
            window_rearms: 0,
        }
    }

    /// Whether a read lease is currently held (Lease mode).
    pub(crate) fn lease_valid(&self, now: Time) -> bool {
        now < self.lease_until
    }

    /// Whether the leader may start executing work against committed state
    /// (no tentative proposal outstanding, recovery finished).
    fn quiescent(&self) -> bool {
        self.inflight.is_none() && self.recovery.is_none()
    }

    /// Whether a request with this id is already being worked on.
    fn knows_request(&self, id: RequestId) -> bool {
        self.reads.contains_key(&id)
            || self.committing.contains_key(&id)
            || self.queue.iter().any(|r| r.id == id)
    }

    fn buffer_early_confirm(&mut self, read: RequestId, from: ProcessId) {
        let entry = self.early_confirms.entry(read).or_insert_with(|| {
            self.early_order.push_back(read);
            HashSet::new()
        });
        entry.insert(from);
        while self.early_order.len() > EARLY_CONFIRM_CAP {
            if let Some(old) = self.early_order.pop_front() {
                self.early_confirms.remove(&old);
            }
        }
    }

    fn take_early_confirms(&mut self, read: RequestId) -> Option<HashSet<ProcessId>> {
        let got = self.early_confirms.remove(&read);
        if got.is_some() {
            self.early_order.retain(|r| *r != read);
        }
        got
    }
}

impl Replica {
    // ------------------------------------------------------------------
    // Request dispatch (all roles)
    // ------------------------------------------------------------------

    pub(crate) fn handle_request(&mut self, req: Request, now: Time, out: &mut Vec<Action>) {
        if self.is_leader() {
            self.leader_handle_request(req, now, out);
            return;
        }
        // Bounded-staleness follower reads (extension): any replica within
        // the staleness bound answers plain reads from its applied state —
        // zero coordination messages, the client's session watermark
        // supplies the ordering guarantees.
        if let ReadMode::Follower { max_staleness } = self.cfg.read_mode {
            if req.kind == RequestKind::Read && req.txn.is_none() {
                self.follower_serve_read(&req, max_staleness, now, out);
                return;
            }
        }
        // Follower / candidate. For X-Paxos reads, "every other service
        // process sends a confirm message to the process with the highest
        // ballot number it has accepted" (§3.4). Everything else is the
        // leader's business (the client broadcast already reached it).
        let tpaxos_txn_op = req.is_txn_op() && self.cfg.txn_mode == TxnMode::TPaxos;
        if req.kind == RequestKind::Read
            && self.cfg.read_mode == ReadMode::XPaxos
            && !tpaxos_txn_op
            && !self.confirm_suppressed
            && !self.promised.is_zero()
            && self.promised.proposer != self.id
        {
            out.push(Action::send(
                Addr::Replica(self.promised.proposer),
                Msg::Confirm {
                    ballot: self.promised,
                    read: req.id,
                },
            ));
        }
    }

    fn reply_to(&self, id: RequestId, body: ReplyBody, out: &mut Vec<Action>) {
        out.push(Action::send(
            Addr::Client(id.client),
            Msg::Reply(Reply {
                id,
                leader: self.id,
                // Leader-local replies (fast-path reads, T-Paxos ops,
                // dedup re-replies) reflect every applied decree.
                watermark: self.log.chosen_prefix(),
                body,
            }),
        ));
    }

    /// Serve a read locally from follower state (extension): execute
    /// against the applied prefix and tag the reply with it, provided this
    /// replica knows a leader and lags its commit watermark by at most
    /// `max_staleness` decrees. Otherwise stay silent — the client's
    /// broadcast (or retry) reaches the leader, which always serves.
    fn follower_serve_read(
        &mut self,
        req: &Request,
        max_staleness: u64,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        let Some(leader) = self.leader_hint() else {
            self.stats.follower_read_rejects += 1;
            return;
        };
        let prefix = self.log.chosen_prefix();
        // Our own prefix is a lower bound on the true watermark, so the
        // difference saturates at zero.
        let staleness = self.leader_commit.0.saturating_sub(prefix.0);
        if staleness > max_staleness {
            self.stats.follower_read_rejects += 1;
            return;
        }
        let body = self.exec.answer(req, now, &mut self.rng);
        self.stats.follower_reads += 1;
        self.stats.follower_read_staleness += staleness;
        self.stats.follower_read_staleness_max =
            self.stats.follower_read_staleness_max.max(staleness);
        #[cfg(feature = "check-hooks")]
        let watermark = if self.chaos_inflate_watermark {
            self.leader_commit.max(prefix)
        } else {
            prefix
        };
        #[cfg(not(feature = "check-hooks"))]
        let watermark = prefix;
        out.push(Action::send(
            Addr::Client(req.id.client),
            Msg::Reply(Reply {
                id: req.id,
                // Not us: the leader we believe in, so a stale per-group
                // hint at the client refreshes off the read path too.
                leader,
                watermark,
                body,
            }),
        ));
    }

    fn leader_handle_request(&mut self, req: Request, now: Time, out: &mut Vec<Action>) {
        // At-most-once: answer duplicates from the dedup table.
        if let Some((seq, reply)) = self.exec.last_reply(req.id.client) {
            if req.id.seq < seq {
                return;
            }
            if req.id.seq == seq {
                let cached = reply.clone();
                self.reply_to(req.id, cached, out);
                return;
            }
        }
        // Already queued / in flight / pending: the retransmission will be
        // answered when the original completes.
        {
            let Role::Leader(l) = &self.role else { return };
            if l.knows_request(req.id)
                || l.inflight.is_some()
                    && self
                        .log
                        .get(l.next_instance.prev())
                        .is_some_and(|(_, d)| d.answers(req.id))
            {
                // A retransmitted read still waiting on a confirm round:
                // re-send the round request in case it (or its answers)
                // was lost, and force a fresh round if none is in flight
                // (possible when a suppression-lifting hint was itself
                // lost, leaving followers silent with no round coming).
                // The per-read path gets the same liveness for free —
                // followers re-confirm the retransmitted broadcast.
                let stalled_read = l.reads.contains_key(&req.id);
                if stalled_read {
                    if let Some(round) = &l.confirm_round {
                        out.push(Action::broadcast(Msg::ConfirmReq {
                            ballot: l.ballot,
                            epoch: round.epoch,
                            backlog: round.backlog,
                        }));
                        return;
                    }
                    self.maybe_launch_confirm_round(true, out);
                }
                return;
            }
        }

        match (req.kind, req.txn, self.cfg.txn_mode) {
            (RequestKind::Original, _, _) => {
                // Unreplicated baseline: execute and answer immediately,
                // with no coordination and no durability.
                self.stats.originals += 1;
                let body = self.exec.answer(&req, now, &mut self.rng);
                self.reply_to(req.id, body, out);
            }
            (_, Some(TxnCtl::Op { txn }), TxnMode::TPaxos) => {
                self.tpaxos_op(req, txn, now, out);
            }
            (_, Some(TxnCtl::Commit { txn, n_ops }), TxnMode::TPaxos) => {
                self.tpaxos_commit(req, txn, n_ops, now, out);
            }
            (_, Some(TxnCtl::Abort { txn }), TxnMode::TPaxos) => {
                self.tpaxos_abort(req, txn, out);
            }
            (RequestKind::Read, _, _) if self.cfg.read_mode == ReadMode::XPaxos => {
                self.leader_handle_read(req, now, out);
            }
            (RequestKind::Read, _, _) if self.cfg.read_mode.is_follower() => {
                // Follower-read mode at the leader: the leader is trivially
                // at its own commit watermark, so serve locally with zero
                // coordination. The pending-read machinery still defers
                // execution behind an outstanding tentative write.
                self.leader_handle_read(req, now, out);
            }
            (RequestKind::Read, _, _) if self.cfg.read_mode == ReadMode::Lease => {
                let leased = matches!(&self.role, Role::Leader(l) if l.lease_valid(now));
                if leased {
                    // Local read under the lease: no per-read messages at
                    // all; completion only awaits quiescence.
                    self.leader_handle_read(req, now, out);
                } else {
                    // No lease (e.g. right after taking over): fall back
                    // to a full consensus instance for safety.
                    let Role::Leader(l) = &mut self.role else {
                        return;
                    };
                    l.queue.push_back(req);
                    self.try_propose_next(now, out);
                }
            }
            _ => {
                // Writes, consensus-mode reads, and per-operation
                // transaction traffic: strict-pipelined consensus.
                let Role::Leader(l) = &mut self.role else {
                    return;
                };
                l.queue.push_back(req);
                self.try_propose_next(now, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // X-Paxos reads (§3.4)
    // ------------------------------------------------------------------

    fn leader_handle_read(&mut self, req: Request, now: Time, out: &mut Vec<Action>) {
        let id = req.id;
        let me = self.id;
        let quiescent = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            let mut votes = l.take_early_confirms(id).unwrap_or_default();
            votes.insert(me);
            let epoch = l.confirm_epoch + 1;
            l.reads.insert(
                id,
                PendingRead {
                    req,
                    votes,
                    result: None,
                    arrived: now,
                    epoch,
                    confirmed: false,
                },
            );
            l.quiescent()
        };
        if quiescent {
            self.execute_pending_read(id, now);
        }
        self.check_read_complete(id, now, out);
        self.maybe_launch_confirm_round(false, out);
    }

    /// Execute a pending read against committed state. Callable only when
    /// the leader is quiescent (otherwise the read would observe a
    /// tentative, possibly-rolled-back write).
    fn execute_pending_read(&mut self, id: RequestId, now: Time) {
        let Role::Leader(l) = &mut self.role else {
            return;
        };
        if let Some(p) = l.reads.get_mut(&id).filter(|p| p.result.is_none()) {
            p.result = Some(self.exec.answer(&p.req, now, &mut self.rng));
        }
    }

    fn check_read_complete(&mut self, id: RequestId, now: Time, out: &mut Vec<Action>) {
        let majority = self.cfg.majority();
        let lease_mode = self.cfg.read_mode == ReadMode::Lease;
        let follower_mode = self.cfg.read_mode.is_follower();
        enum Disposition {
            Wait,
            Reply,
            /// The lease lapsed under a lease-mode read: re-route through
            /// consensus for safety.
            Requeue(Request),
        }
        let disposition = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            match l.reads.get(&id) {
                None => Disposition::Wait,
                Some(p) if p.result.is_none() => Disposition::Wait,
                Some(_) if follower_mode => Disposition::Reply,
                Some(p) => {
                    if lease_mode {
                        if l.lease_valid(now) {
                            Disposition::Reply
                        } else {
                            Disposition::Requeue(p.req.clone())
                        }
                    } else if p.votes.len() >= majority || p.confirmed {
                        Disposition::Reply
                    } else {
                        Disposition::Wait
                    }
                }
            }
        };
        match disposition {
            Disposition::Wait => {}
            Disposition::Reply => {
                // The read was just observed present with a result; take it
                // out by ownership (no-op if that somehow no longer holds).
                let removed = {
                    let Role::Leader(l) = &mut self.role else {
                        return;
                    };
                    l.reads.remove(&id)
                };
                let Some(p) = removed else { return };
                let Some(body) = p.result else { return };
                if lease_mode {
                    self.stats.lease_reads += 1;
                } else if follower_mode {
                    // The leader serves at staleness zero by definition.
                    self.stats.follower_reads += 1;
                } else {
                    self.stats.xpaxos_reads += 1;
                    if p.votes.len() < majority {
                        self.stats.batched_reads += 1;
                    }
                }
                self.reply_to(id, body, out);
            }
            Disposition::Requeue(req) => {
                let Role::Leader(l) = &mut self.role else {
                    return;
                };
                l.reads.remove(&id);
                l.queue.push_back(req);
                self.try_propose_next(now, out);
            }
        }
    }

    pub(crate) fn handle_confirm(
        &mut self,
        from: Addr,
        ballot: Ballot,
        read: RequestId,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        self.note_ballot(ballot);
        let Some(pid) = from.as_replica() else { return };
        {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            if l.ballot != ballot {
                return; // confirm for a different leadership
            }
            match l.reads.get_mut(&read) {
                Some(p) => {
                    p.votes.insert(pid);
                }
                None => {
                    // Outran the client's request; buffer it.
                    l.buffer_early_confirm(read, pid);
                    return;
                }
            }
        }
        self.check_read_complete(read, now, out);
    }

    // ------------------------------------------------------------------
    // Epoch-batched confirm rounds (extension)
    // ------------------------------------------------------------------

    /// Launch a confirm round if batching is on, none is in flight, and at
    /// least one read still lacks leadership confirmation. Rounds are
    /// purely event-driven — launched on read arrival and re-launched on
    /// round completion — so a lone read never waits on a window, and
    /// reads arriving during an in-flight round accumulate into the next
    /// epoch.
    ///
    /// A shallow backlog (under [`CONFIRM_BACKLOG_THRESHOLD`] both now and
    /// in the last round, followers not suppressed) launches no round at
    /// all: the per-read confirms are already in flight and pipeline
    /// better than a serialized round would.
    /// `force` overrides that skip — used on client retransmissions, where
    /// the leader can no longer assume the per-read confirms ever arrived.
    fn maybe_launch_confirm_round(&mut self, force: bool, out: &mut Vec<Action>) {
        if !self.cfg.confirm_batching || self.cfg.read_mode != ReadMode::XPaxos {
            return;
        }
        let majority = self.cfg.majority();
        let Role::Leader(l) = &mut self.role else {
            return;
        };
        if l.confirm_round.is_some() {
            return;
        }
        let covered = l
            .reads
            .values()
            .filter(|p| !p.confirmed && p.votes.len() < majority)
            .count();
        if covered == 0 {
            return;
        }
        // The load hint, with two-level hysteresis. Entry: only a backlog
        // deep enough to amortize a round's serialization switches the
        // followers to suppression — shallower congestion is served better
        // by the pipelined per-read confirms. Persistence: once suppressed,
        // rounds launch at burst boundaries and each covers only the
        // arrivals of one round-trip, typically below the entry threshold;
        // any round covering more than a lone read keeps the hint up, and
        // only two consecutive single-read rounds (genuine load collapse)
        // lift suppression.
        let backlog = if l.suppress_hinted {
            covered > 1 || l.last_round_covered > 1
        } else {
            covered >= CONFIRM_BACKLOG_THRESHOLD
        };
        if !force && !backlog && !l.suppress_hinted {
            return;
        }
        l.confirm_epoch += 1;
        l.suppress_hinted = backlog;
        l.confirm_round = Some(ConfirmRound {
            epoch: l.confirm_epoch,
            backlog,
            acks: HashSet::new(),
        });
        self.stats.confirm_rounds += 1;
        out.push(Action::broadcast(Msg::ConfirmReq {
            ballot: l.ballot,
            epoch: l.confirm_epoch,
            backlog,
        }));
    }

    /// A follower validated a whole confirm epoch. On a majority, every
    /// read opened in that epoch or earlier is leadership-confirmed at
    /// once — the O(n)-per-round traffic that replaces O(reads × n)
    /// per-read confirms. Stale answers (wrong ballot after a leader
    /// change, or an epoch already rolled over) are ignored.
    pub(crate) fn handle_confirm_batch(
        &mut self,
        from: Addr,
        ballot: Ballot,
        epoch: u64,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        self.note_ballot(ballot);
        let Some(pid) = from.as_replica() else { return };
        let majority = self.cfg.majority();
        let completed: Vec<RequestId> = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            if l.ballot != ballot {
                return; // an answer to a different leadership's round
            }
            let Some(round) = &mut l.confirm_round else {
                return; // no round in flight (late duplicate answer)
            };
            if round.epoch != epoch {
                return; // the epoch has rolled over since this was sent
            }
            round.acks.insert(pid);
            if round.acks.len() + 1 < majority {
                return;
            }
            l.confirm_round = None;
            let mut completed: Vec<RequestId> = l
                .reads
                .iter_mut()
                .filter(|(_, p)| !p.confirmed && p.epoch <= epoch)
                .map(|(id, p)| {
                    p.confirmed = true;
                    *id
                })
                .collect();
            // `reads` is a HashMap, so collection order is arbitrary per
            // process; replies must go out in a fixed order or a seeded
            // simulation run stops being reproducible.
            completed.sort_unstable();
            // Load measure for the hysteresis: what this round covered OR
            // what it left behind, whichever is larger. A round that
            // covers one read but leaves a dozen unconfirmed is a burst
            // boundary, not a load collapse — only a round that both
            // covers ≤1 and leaves ≤1 signals the closed loop has drained.
            let remaining = l.reads.values().filter(|p| !p.confirmed).count();
            l.last_round_covered = completed.len().max(remaining);
            completed
        };
        for id in completed {
            self.check_read_complete(id, now, out);
        }
        // Reads that arrived during the round are waiting in the next
        // epoch: seal and launch it immediately.
        self.maybe_launch_confirm_round(false, out);
    }

    // ------------------------------------------------------------------
    // T-Paxos transactions (§3.5)
    // ------------------------------------------------------------------

    fn tpaxos_op(&mut self, req: Request, txn: TxnId, now: Time, out: &mut Vec<Action>) {
        let key = (req.id.client, txn);
        let is_new = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            if let Some(sess) = l.txns.get(&key) {
                // Retransmitted op: replay the cached reply.
                if let Some((_, cached)) = sess.ops.iter().find(|(r, _)| r.id == req.id) {
                    let cached = cached.clone();
                    self.reply_to(req.id, ReplyBody::Ok(cached), out);
                    return;
                }
                false
            } else {
                l.txns.insert(key, TxnSession::default());
                true
            }
        };
        match self.exec.stage(txn, is_new, &req, now, &mut self.rng) {
            Ok(bytes) => {
                if let Role::Leader(l) = &mut self.role {
                    if let Some(sess) = l.txns.get_mut(&key) {
                        sess.ops.push((req.clone(), bytes.clone()));
                    }
                }
                // The paper's point: "the response time of individual
                // requests is the same as for an unreplicated service".
                self.reply_to(req.id, ReplyBody::Ok(bytes), out);
            }
            Err(reason) => {
                if let Role::Leader(l) = &mut self.role {
                    l.txns.remove(&key);
                }
                self.stats.txns_aborted += 1;
                self.reply_to(req.id, ReplyBody::TxnAborted { txn, reason }, out);
            }
        }
    }

    fn tpaxos_commit(
        &mut self,
        req: Request,
        txn: TxnId,
        n_ops: u32,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        let key = (req.id.client, txn);
        let session = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            l.txns.remove(&key)
        };
        match session {
            Some(sess) if sess.ops.len() == n_ops as usize => {
                // Stash the session for decree construction at propose time
                // and enter the consensus pipeline: this is the *only*
                // coordination the transaction pays for.
                let Role::Leader(l) = &mut self.role else {
                    return;
                };
                l.committing.insert(req.id, (key, sess));
                l.queue.push_back(req);
                self.try_propose_next(now, out);
            }
            other => {
                // Missing session or an op-count mismatch: this leader did
                // not see the whole transaction (it took over mid-flight) —
                // abort, exactly as §3.6 prescribes.
                if other.is_some() {
                    self.exec.txn_abort(txn);
                }
                self.stats.txns_aborted += 1;
                self.reply_to(
                    req.id,
                    ReplyBody::TxnAborted {
                        txn,
                        reason: AbortReason::LeaderSwitch,
                    },
                    out,
                );
            }
        }
    }

    fn tpaxos_abort(&mut self, req: Request, txn: TxnId, out: &mut Vec<Action>) {
        let key = (req.id.client, txn);
        let had = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            l.txns.remove(&key).is_some()
        };
        if had {
            self.exec.txn_abort(txn);
            self.stats.txns_aborted += 1;
        }
        // Aborts are answered immediately and idempotently; nothing was
        // replicated, so nothing needs coordination.
        self.reply_to(
            req.id,
            ReplyBody::TxnAborted {
                txn,
                reason: AbortReason::ClientAbort,
            },
            out,
        );
    }

    // ------------------------------------------------------------------
    // The consensus pipeline
    // ------------------------------------------------------------------

    /// Propose the next batch of queued requests if the pipeline is free.
    /// §3.3: the leader "will not propose the i-th request and the
    /// corresponding state until the (i-1)-th commits" — strict pipelining;
    /// the *batch* is one proposal, so no gaps can arise, and throughput
    /// is not capped at one request per coordination round-trip.
    fn try_propose_next(&mut self, now: Time, out: &mut Vec<Action>) {
        let batch = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            if !l.quiescent() || l.queue.is_empty() {
                return;
            }
            // Adaptive coalescing: under concurrency (the previous decree
            // carried several requests) hold the proposal briefly so the
            // whole burst of unblocked closed-loop clients lands in one
            // decree — the socket-drain batching a real server gets for
            // free. At low load (previous batch ≤ 1) propose immediately,
            // so single-client latency is exactly the paper's model.
            let window = self.cfg.batch_window;
            if l.last_batch > 1
                && window > crate::types::Dur::ZERO
                && l.queue.len() < self.cfg.max_batch
            {
                if !l.window_armed {
                    l.window_armed = true;
                    l.window_rearms = 8;
                    out.push(Action::timer(TimerKind::BatchWindow, window));
                }
                return;
            }
            let take = l.queue.len().min(self.cfg.max_batch);
            l.queue.drain(..take).collect::<Vec<_>>()
        };
        self.execute_and_propose(batch, now, out);
    }

    /// The batch window elapsed: propose everything queued, regardless of
    /// the adaptive condition.
    pub(crate) fn on_batch_window_timer(&mut self, now: Time, out: &mut Vec<Action>) {
        let batch = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            if !l.quiescent() || l.queue.is_empty() {
                l.window_armed = false;
                return;
            }
            // Still collecting a burst: while the queue has not yet reached
            // the previous batch size (and re-arms remain), wait a little
            // longer so the whole burst of unblocked clients coalesces.
            if l.queue.len() < l.last_batch.min(self.cfg.max_batch) && l.window_rearms > 0 {
                l.window_rearms -= 1;
                out.push(Action::timer(TimerKind::BatchWindow, self.cfg.batch_window));
                return;
            }
            l.window_armed = false;
            let take = l.queue.len().min(self.cfg.max_batch);
            l.queue.drain(..take).collect::<Vec<_>>()
        };
        self.execute_and_propose(batch, now, out);
    }

    fn execute_and_propose(&mut self, batch: Vec<Request>, now: Time, out: &mut Vec<Action>) {
        let Role::Leader(l) = &mut self.role else {
            return;
        };
        // Execute ahead of consensus (§3.3). A T-Paxos commit's decree
        // carries the operations of its session, stashed at commit time.
        let tpaxos = self.cfg.txn_mode == TxnMode::TPaxos;
        let committing = &mut l.committing;
        let decree = self
            .exec
            .execute(batch, now, &mut self.rng, &mut self.stats, |id| {
                tpaxos.then(|| {
                    let session = committing.remove(&id).map(|(_, sess)| sess.ops);
                    session.into_iter().flatten().map(|(r, _)| r).collect()
                })
            });
        let (ballot, instance) = (l.ballot, l.next_instance);
        l.next_instance = instance.next();
        l.last_batch = decree.entries.len();
        let mut acks = HashSet::with_capacity(self.cfg.n);
        acks.insert(self.id);
        l.inflight = Some(Inflight { instance, acks });
        // Self-accept durably, then ask the backups.
        self.stable.acked().save_accepted(instance, ballot, &decree);
        self.log.record_accept(instance, ballot, decree.clone());
        out.push(Action::broadcast(Msg::Accept {
            ballot,
            entries: vec![(instance, decree)],
        }));
        out.push(Action::timer(
            TimerKind::Retransmit,
            self.cfg.retransmit_timeout,
        ));
        // A singleton group is its own majority.
        self.check_inflight_commit(now, out);
    }

    pub(crate) fn handle_accepted(
        &mut self,
        from: Addr,
        ballot: Ballot,
        instances: &[Instance],
        now: Time,
        out: &mut Vec<Action>,
    ) {
        let Some(pid) = from.as_replica() else { return };
        let majority = self.cfg.majority();
        enum Outcome {
            None,
            Inflight,
            Recovery {
                newly_chosen: Vec<Instance>,
                finished: bool,
            },
        }
        let outcome = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            if l.ballot != ballot {
                return; // stale ack for an older leadership of ours
            }
            if let Some(rec) = &mut l.recovery {
                let mut newly = Vec::new();
                for i in instances {
                    if rec.pending.contains(i) {
                        let acks = rec.acks.entry(*i).or_default();
                        acks.insert(pid);
                        if acks.len() >= majority {
                            rec.pending.remove(i);
                            newly.push(*i);
                        }
                    }
                }
                let finished = rec.pending.is_empty();
                if finished {
                    l.recovery = None;
                }
                Outcome::Recovery {
                    newly_chosen: newly,
                    finished,
                }
            } else if let Some(inf) = &mut l.inflight {
                if instances.contains(&inf.instance) {
                    inf.acks.insert(pid);
                    Outcome::Inflight
                } else {
                    Outcome::None
                }
            } else {
                Outcome::None
            }
        };
        match outcome {
            Outcome::None => {}
            Outcome::Inflight => self.check_inflight_commit(now, out),
            Outcome::Recovery {
                newly_chosen,
                finished,
            } => {
                for i in newly_chosen {
                    self.log.mark_chosen(i);
                    self.stats.commits_led += 1;
                }
                self.drain_apply(now, out);
                self.broadcast_chosen(out);
                if finished {
                    out.push(Action::CancelTimer {
                        kind: TimerKind::Retransmit,
                    });
                    self.leader_after_advance(now, out);
                }
            }
        }
    }

    fn check_inflight_commit(&mut self, now: Time, out: &mut Vec<Action>) {
        let majority = self.cfg.majority();
        let committed = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            match &l.inflight {
                Some(inf) if inf.acks.len() >= majority => {
                    let i = inf.instance;
                    l.inflight = None;
                    Some(i)
                }
                _ => None,
            }
        };
        let Some(i) = committed else { return };
        self.stats.commits_led += 1;
        out.push(Action::CancelTimer {
            kind: TimerKind::Retransmit,
        });
        self.log.mark_chosen(i);
        self.drain_apply(now, out); // replies to the client, runs after-advance
        self.broadcast_chosen(out);
    }

    fn broadcast_chosen(&mut self, out: &mut Vec<Action>) {
        let Role::Leader(l) = &self.role else { return };
        out.push(Action::broadcast(Msg::Chosen {
            ballot: l.ballot,
            upto: self.log.chosen_prefix(),
        }));
    }

    /// Called whenever the applied prefix advances under our leadership:
    /// execute reads that were deferred behind a tentative write, then
    /// start the next proposal.
    pub(crate) fn leader_after_advance(&mut self, now: Time, out: &mut Vec<Action>) {
        let pending_reads: Vec<RequestId> = {
            let Role::Leader(l) = &self.role else { return };
            if !l.quiescent() {
                return;
            }
            l.reads
                .iter()
                .filter(|(_, p)| p.result.is_none())
                .map(|(id, _)| *id)
                .collect()
        };
        // HashMap iteration order is arbitrary; execute in request order so
        // replies are deterministic for a given schedule (replay/checking).
        let mut pending_reads = pending_reads;
        pending_reads.sort_unstable();
        for id in pending_reads {
            self.execute_pending_read(id, now);
            self.check_read_complete(id, now, out);
        }
        self.try_propose_next(now, out);
    }

    // ------------------------------------------------------------------
    // Leader timers
    // ------------------------------------------------------------------

    pub(crate) fn on_heartbeat_timer(&mut self, now: Time, out: &mut Vec<Action>) {
        let chosen = self.log.chosen_prefix();
        let Role::Leader(l) = &mut self.role else {
            return;
        };
        l.hb_seq += 1;
        l.hb_sent_at = now;
        l.hb_acks.clear();
        if self.cfg.majority() == 1 {
            let lease_dur = self.cfg.lease_dur.min(self.cfg.suspect_timeout);
            l.lease_until = l.lease_until.max(now.after(lease_dur));
        }
        out.push(Action::broadcast(Msg::Heartbeat {
            ballot: l.ballot,
            chosen,
            hb_seq: l.hb_seq,
        }));
        out.push(Action::timer(
            TimerKind::Heartbeat,
            self.cfg.heartbeat_interval,
        ));
    }

    /// A follower granted us a lease vote for heartbeat `hb_seq`. A
    /// majority (counting ourselves) extends the lease to
    /// `send time + lease_dur` — anchored at the *send* time, so the lease
    /// can never outlive the followers' suspicion timeouts.
    pub(crate) fn handle_heartbeat_ack(
        &mut self,
        from: Addr,
        ballot: Ballot,
        hb_seq: u64,
        _now: Time,
    ) {
        let Some(pid) = from.as_replica() else { return };
        let majority = self.cfg.majority();
        let lease_dur = self.cfg.lease_dur.min(self.cfg.suspect_timeout);
        let Role::Leader(l) = &mut self.role else {
            return;
        };
        if l.ballot != ballot || l.hb_seq != hb_seq {
            return; // stale ack
        }
        l.hb_acks.insert(pid);
        if l.hb_acks.len() + 1 >= majority {
            l.lease_until = l.lease_until.max(l.hb_sent_at.after(lease_dur));
        }
    }

    pub(crate) fn on_retransmit_timer(&mut self, _now: Time, out: &mut Vec<Action>) {
        let (ballot, instances) = {
            let Role::Leader(l) = &self.role else { return };
            let instances: Vec<Instance> = if let Some(rec) = &l.recovery {
                rec.pending.iter().copied().collect()
            } else if let Some(inf) = &l.inflight {
                vec![inf.instance]
            } else {
                return; // nothing outstanding; do not re-arm
            };
            (l.ballot, instances)
        };
        let entries: Vec<(Instance, Decree)> = instances
            .iter()
            .filter_map(|i| self.log.get(*i).map(|(_, d)| (*i, d.clone())))
            .collect();
        if !entries.is_empty() {
            out.push(Action::broadcast(Msg::Accept { ballot, entries }));
        }
        out.push(Action::timer(
            TimerKind::Retransmit,
            self.cfg.retransmit_timeout,
        ));
    }

    // ------------------------------------------------------------------
    // Used by candidate.rs when installing the recovered batch
    // ------------------------------------------------------------------

    pub(crate) fn install_recovery_batch(
        &mut self,
        batch: BTreeMap<Instance, Decree>,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        let (ballot, entries) = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            if batch.is_empty() {
                return;
            }
            let mut rec = RecoveryBatch::default();
            for i in batch.keys() {
                rec.pending.insert(*i);
                let mut acks = HashSet::with_capacity(self.cfg.n);
                acks.insert(self.id);
                rec.acks.insert(*i, acks);
            }
            l.recovery = Some(rec);
            (l.ballot, batch.into_iter().collect::<Vec<_>>())
        };
        let instances: Vec<Instance> = entries.iter().map(|(i, _)| *i).collect();
        for (i, d) in &entries {
            self.stable.acked().save_accepted(*i, ballot, d);
            self.log.record_accept(*i, ballot, d.clone());
        }
        // One single accept message for the whole batch (§3.3), built by
        // moving the already-owned batch — the log keeps its own copies
        // from `record_accept` above, so no second clone of every decree.
        out.push(Action::broadcast(Msg::Accept { ballot, entries }));
        out.push(Action::timer(
            TimerKind::Retransmit,
            self.cfg.retransmit_timeout,
        ));
        // A singleton group commits immediately.
        if self.cfg.majority() == 1 {
            self.handle_accepted(Addr::Replica(self.id), ballot, &instances, now, out);
        }
    }
}
