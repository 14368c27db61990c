//! Leader-role logic: sequencing requests through consensus (§3.3) — the
//! queue, the one decree in flight, the recovery batch, the batch window,
//! retransmission — and T-Paxos transaction sessions (§3.5). Reads that
//! skip consensus (§3.4 and its extensions) are `reads.rs`'s: this file
//! hands it every read that arrives and gets back the ones to queue.
//!
//! When a loaded batch closes: as soon as every client the last decree
//! answered has queued again (the *wave* is in), else when the batch
//! window gives up waiting for it.

use super::{Replica, Role};
use crate::action::{Action, TimerKind};
use crate::ballot::Ballot;
use crate::command::Decree;
use crate::config::TxnMode;
use crate::msg::Msg;
use crate::request::{AbortReason, Reply, ReplyBody, Request, RequestId, RequestKind, TxnCtl};
use crate::types::{Addr, ClientId, Dur, Instance, ProcessId, Time, TxnId};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

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

/// A T-Paxos transaction session on the leader: operations executed and
/// answered immediately, coordination deferred to commit.
#[derive(Debug, Default)]
pub struct TxnSession {
    /// Operations executed so far, with their cached replies (for
    /// idempotent retransmission handling).
    pub ops: Vec<(Request, Bytes)>,
}

/// Mutable state of the leader role.
#[derive(Debug, Default)]
pub struct LeaderState {
    /// The leadership ballot.
    pub ballot: Ballot,
    /// Next unused instance.
    pub(crate) next_instance: Instance,
    /// Requests awaiting their turn (strict pipelining: depth one).
    pub(crate) queue: VecDeque<Request>,
    pub(crate) inflight: Option<Inflight>,
    pub(crate) recovery: Option<RecoveryBatch>,
    /// Active T-Paxos sessions.
    pub(crate) txns: HashMap<(ClientId, TxnId), TxnSession>,
    /// T-Paxos sessions whose commit request is queued but not yet
    /// proposed (ops retained to build the commit decree).
    pub(crate) committing: HashMap<RequestId, ((ClientId, TxnId), TxnSession)>,
    /// Size of the last decree proposed (drives the adaptive batch window).
    pub(crate) last_batch: usize,
    /// Whether a batch-window timer is pending.
    pub(crate) window_armed: bool,
    /// Remaining re-arms of the batch window while the queue keeps growing.
    pub(crate) window_rearms: u32,
    /// Clients the last chosen decree answered that have not queued again
    /// since (kept only under a batch window): empty means the wave is in.
    pub(crate) wave: BTreeSet<ClientId>,
}

impl LeaderState {
    /// Whether the leader may start executing work against committed state
    /// (no tentative proposal outstanding, recovery finished).
    fn quiescent(&self) -> bool {
        self.inflight.is_none() && self.recovery.is_none()
    }

    /// `chosen` set its clients free: wait for those not queued again.
    fn await_wave(&mut self, chosen: &Decree) {
        let answered = chosen.entries.iter().filter_map(|e| e.cmd.request_id());
        self.wave = answered.map(|id| id.client).collect();
        for r in &self.queue {
            self.wave.remove(&r.id.client);
        }
    }
}

impl Replica {
    // ------------------------------------------------------------------
    // Request dispatch
    // ------------------------------------------------------------------

    pub(crate) fn reply_to(&self, id: RequestId, body: ReplyBody, out: &mut Vec<Action>) {
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

    /// Whether we lead with no decree in flight and no recovery
    /// outstanding: the service state is chosen state.
    pub(crate) fn quiescent(&self) -> bool {
        matches!(&self.role, Role::Leader(l) if l.quiescent())
    }

    /// Whether the decree at `i` answers request `id`.
    fn decree_answers(&self, i: Instance, id: RequestId) -> bool {
        self.log.get(i).is_some_and(|(_, d)| d.answers(id))
    }

    /// Whether a request with this id is already being worked on: an open
    /// read, queued, or answered by the decree in flight.
    fn working_on(&self, id: RequestId) -> bool {
        let Role::Leader(l) = &self.role else {
            return false;
        };
        self.reads.is_open(id)
            || l.committing.contains_key(&id)
            || l.queue.iter().any(|r| r.id == id)
            || l.inflight
                .as_ref()
                .is_some_and(|inf| self.decree_answers(inf.instance, id))
    }

    /// Whether a decree this leader is still recovering answers `id`.
    fn recovering(&self, id: RequestId) -> bool {
        let Role::Leader(l) = &self.role else {
            return false;
        };
        let mut pending = l.recovery.iter().flat_map(|rec| &rec.pending);
        pending.any(|i| self.decree_answers(*i, id))
    }

    /// Into the consensus pipeline: strict-pipelined, one decree at a time.
    pub(crate) fn sequence(&mut self, req: Request, now: Time, out: &mut Vec<Action>) {
        let Role::Leader(l) = &mut self.role else {
            return;
        };
        l.wave.remove(&req.id.client);
        l.queue.push_back(req);
        self.try_propose_next(now, out);
    }

    pub(crate) fn leader_handle_request(&mut self, req: Request, now: Time, out: &mut Vec<Action>) {
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
        // answered when the original completes (a stalled read gets its
        // confirm round re-sent).
        if self.working_on(req.id) {
            self.read_retransmitted(req.id, out);
            return;
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
            (RequestKind::Read, _, _) => {
                // Answered through the read door, unless it says the read
                // is a decree like any other.
                if let Some(req) = self.read_arrived(req, now, out) {
                    self.sequence(req, now, out);
                }
            }
            // Writes and per-operation transaction traffic.
            (RequestKind::Write, _, _) => self.sequence(req, now, out),
        }
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
                self.sequence(req, now, out);
            }
            // No session, but the decree this leader is recovering commits
            // the transaction: its leader was lost after the commit's
            // `Accept` left. The reply goes out when the decree applies —
            // "aborted" now would be a lie (§3.5).
            None if self.recovering(req.id) => {}
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
    /// is not capped at one request per coordination round-trip. A loaded
    /// batch proposes once its wave is in or it holds `max_batch`.
    fn try_propose_next(&mut self, now: Time, out: &mut Vec<Action>) {
        let batch = {
            let Role::Leader(l) = &mut self.role else {
                return;
            };
            if !l.quiescent() || l.queue.is_empty() {
                return;
            }
            // Adaptive coalescing: under concurrency (the previous decree
            // carried several requests) hold the proposal until the
            // closed-loop clients that decree unblocked have all queued
            // again, so the wave lands in one decree — a wave cut at the
            // previous batch size instead settles into alternating half
            // waves. The window bounds the wait for a wave that does not
            // come back whole. At low load (previous batch ≤ 1) propose
            // immediately, so single-client latency is the paper's model.
            let window = self.cfg.batch_window;
            if l.last_batch > 1
                && window > Dur::ZERO
                && l.queue.len() < self.cfg.max_batch
                && !l.wave.is_empty()
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
        // A batch that closed before its window fired takes the timer
        // with it: the next wave arms its own.
        if std::mem::take(&mut l.window_armed) {
            out.push(Action::CancelTimer {
                kind: TimerKind::BatchWindow,
            });
        }
        let (ballot, instance) = (l.ballot, l.next_instance);
        l.next_instance = instance.next();
        l.last_batch = decree.entries.len();
        let mut acks = HashSet::with_capacity(self.cfg.n);
        acks.insert(self.id);
        l.inflight = Some(Inflight { instance, acks });
        // Self-accept durably, then ask the backups.
        self.stable.accept(instance, ballot, &decree);
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
                    let windowed = self.cfg.batch_window > Dur::ZERO;
                    if let Some((_, d)) = self.log.get(i).filter(|_| windowed) {
                        l.await_wave(d);
                    }
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
    /// once no decree is in flight, the reads deferred behind a tentative
    /// write execute, then the next proposal starts.
    pub(crate) fn leader_after_advance(&mut self, now: Time, out: &mut Vec<Action>) {
        if !self.quiescent() {
            return;
        }
        self.reads_after_advance(now, out);
        self.try_propose_next(now, out);
    }

    // ------------------------------------------------------------------
    // Leader timers
    // ------------------------------------------------------------------

    pub(crate) fn on_heartbeat_timer(&mut self, now: Time, out: &mut Vec<Action>) {
        let Role::Leader(l) = &self.role else {
            return;
        };
        out.push(Action::broadcast(Msg::Heartbeat {
            ballot: l.ballot,
            chosen: self.log.chosen_prefix(),
            hb_seq: self.reads.heartbeat_sent(now, &self.cfg),
        }));
        out.push(Action::timer(
            TimerKind::Heartbeat,
            self.cfg.heartbeat_interval,
        ));
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
            self.stable.accept(*i, ballot, d);
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
