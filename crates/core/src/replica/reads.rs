//! Read coordination and the one door a read is answered through.
//!
//! §3.4's promise is one sentence: the leader answers a read only after
//! executing it on chosen state *and* learning from a majority that it
//! still leads. [`Reads`] holds all the state that sentence needs, on
//! both sides, and this file alone reads the read mode, the
//! confirm-batching knob and the lease: they are [`ReadPolicy`]'s private
//! fields. [`verdict`] is the rule: an open read *waits*
//! until it has executed — only on a quiescent leader: no decree in
//! flight, no recovery outstanding, since a tentative write may still be
//! rolled back — and then until its mode's validation holds:
//!
//! | mode      | what validates an executed read                          |
//! |-----------|----------------------------------------------------------|
//! | X-Paxos   | a majority of per-read `Confirm`s, or a completed confirm round of its epoch or later |
//! | lease     | the lease is live; lapsed ⇒ *requeue* through consensus  |
//! | follower  | nothing: the leader is at its own commit watermark       |
//! | consensus | never opened here — the read is a decree like any write  |
//!
//! `Replica::settle` acts on the verdict and is the only way a read
//! leaves the table. The doors in: a request's arrival
//! (`follower_sees_request`, `read_arrived`, `read_retransmitted`),
//! `Confirm`, `ConfirmReq` / `ConfirmBatch`, `Heartbeat` / `HeartbeatAck`,
//! "the prefix advanced" (`reads_after_advance`) and a leadership's begin
//! and end. `leader.rs` sees a read only when a door hands it back for
//! the consensus queue.

use super::Replica;
use crate::action::Action;
use crate::ballot::Ballot;
use crate::config::{Config, ReadMode, TxnMode};
use crate::msg::Msg;
use crate::request::{Reply, ReplyBody, Request, RequestId, RequestKind};
use crate::types::{Addr, Dur, Instance, ProcessId, Time};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

/// Cap on buffered early read-confirms (confirms that outrace the client's
/// own request to the leader). FIFO-evicted beyond this.
pub(super) const EARLY_CONFIRM_CAP: usize = 1024;

/// Minimum backlog before a confirm round carries the suppression hint. A
/// round serializes its reads behind one replica↔replica round trip while
/// per-read confirms pipeline, so a round pays only once it amortizes over
/// enough reads: below this, no rounds and no suppression; above it, one
/// exchange replaces `covered × (n - 1)` confirm messages.
pub(super) const CONFIRM_BACKLOG_THRESHOLD: usize = 24;

/// How reads are validated: the mode, and the two knobs of its
/// extensions. Carried by [`Config`] and set by its builders; its fields
/// are this module's alone, so no other code decides read policy. A host
/// that routes client reads asks [`ReadPolicy::follower_reads`]:
///
/// ```
/// use gridpaxos_core::config::{Config, ReadMode};
/// let cfg = Config::cluster(3).with_read_mode(ReadMode::Follower { max_staleness: 4 });
/// assert!(cfg.reads.follower_reads());
/// ```
///
/// and reads nothing else of it:
///
/// ```compile_fail,E0616
/// use gridpaxos_core::config::{Config, ReadMode};
/// let cfg = Config::cluster(3).with_read_mode(ReadMode::Follower { max_staleness: 4 });
/// assert!(cfg.reads.mode == ReadMode::Follower { max_staleness: 4 });
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadPolicy {
    /// Read coordination mode.
    mode: ReadMode,
    /// Epoch-batched confirm rounds for [`ReadMode::XPaxos`] (extension):
    /// under read load the leader seals open reads into confirm epochs and
    /// validates each epoch with one `ConfirmReq`/`ConfirmBatch` exchange
    /// per follower instead of one `Confirm` per read, collapsing
    /// O(reads × n) confirm traffic to O(n) per round. A lone read still
    /// completes off the followers' per-read confirms (the round carries a
    /// `backlog` hint and suppression only engages under load), so the
    /// paper's `2M + max(E, m)` single-read latency is preserved. `false`
    /// reproduces the paper's per-read confirm protocol exactly.
    confirm_batching: bool,
    /// Duration of a read lease ([`ReadMode::Lease`]), measured from the
    /// moment the granting heartbeat was sent; capped at `suspect_timeout`,
    /// or the lease could outlive the guarantee that no new leader is
    /// elected.
    lease_dur: Dur,
}

impl ReadPolicy {
    /// X-Paxos with confirm rounds, and leases of `lease_dur`.
    pub(crate) fn new(lease_dur: Dur) -> ReadPolicy {
        ReadPolicy {
            mode: ReadMode::XPaxos,
            confirm_batching: true,
            lease_dur,
        }
    }

    pub(crate) fn with_mode(self, mode: ReadMode) -> ReadPolicy {
        ReadPolicy { mode, ..self }
    }

    pub(crate) fn with_confirm_batching(self, confirm_batching: bool) -> ReadPolicy {
        ReadPolicy {
            confirm_batching,
            ..self
        }
    }

    /// Whether any replica answers reads from its applied state
    /// ([`ReadMode::Follower`]): only then may a host route a client's
    /// reads to the replica nearest it.
    #[must_use]
    pub fn follower_reads(&self) -> bool {
        matches!(self.mode, ReadMode::Follower { .. })
    }

    /// The lease a majority of heartbeat votes grants, under `cfg`.
    fn lease(cfg: &Config) -> Dur {
        cfg.reads.lease_dur.min(cfg.suspect_timeout)
    }
}

/// A read open at the leader.
struct PendingRead {
    req: Request,
    /// Replicas that confirmed our leadership for this read (self included).
    votes: BTreeSet<ProcessId>,
    /// Execution result, once the read has run.
    result: Option<ReplyBody>,
    /// Confirm epoch it was opened under: the next round to launch. A
    /// completed round of an equal or higher epoch validates it.
    epoch: u64,
    /// Set once a confirm round covering `epoch` reached a majority.
    confirmed: bool,
}

/// An in-flight epoch-confirm round (extension): the leader broadcast one
/// `ConfirmReq { epoch }` and each follower answers with one
/// `ConfirmBatch`, validating every read opened in `epoch` or earlier.
struct ConfirmRound {
    epoch: u64,
    /// Whether the round carried the load hint (covered more than one read).
    backlog: bool,
    /// Followers that answered (self is implicit).
    acks: BTreeSet<ProcessId>,
}

/// Read coordination of one leadership; gone when it ends.
#[derive(Default)]
struct Leading {
    ballot: Ballot,
    /// Open reads, in request order: replies and executions that one event
    /// releases go out in a fixed order, so a seeded run is reproducible.
    open: BTreeMap<RequestId, PendingRead>,
    early: BTreeMap<RequestId, BTreeSet<ProcessId>>,
    early_order: VecDeque<RequestId>,
    /// Highest confirm epoch launched under this leadership (extension).
    epoch: u64,
    /// The confirm round in flight, if any (event-driven: a read never
    /// waits on a batching window).
    round: Option<ConfirmRound>,
    /// Load when the last round completed: the larger of what it validated
    /// and what it left unconfirmed. Hysteresis for the backlog hint — a
    /// burst drains the table between rounds, and the next burst's first
    /// read must not flap the followers out of suppression.
    last_round_covered: usize,
    /// Whether the last `ConfirmReq` carried `backlog = true`: as far as we
    /// know the followers suppress per-read confirms, and open reads
    /// complete only through rounds.
    suppress_hinted: bool,
    /// Monotonic heartbeat counter (anchors read leases).
    hb_seq: u64,
    /// When the heartbeat `hb_seq` was sent.
    hb_sent_at: Time,
    /// Followers that acked heartbeat `hb_seq`.
    hb_acks: BTreeSet<ProcessId>,
    /// Read lease expiry (lease mode): local reads allowed before this.
    lease_until: Time,
}

impl Leading {
    fn buffer_early(&mut self, read: RequestId, from: ProcessId) {
        let entry = self.early.entry(read).or_insert_with(|| {
            self.early_order.push_back(read);
            BTreeSet::new()
        });
        entry.insert(from);
        while self.early_order.len() > EARLY_CONFIRM_CAP {
            if let Some(old) = self.early_order.pop_front() {
                self.early.remove(&old);
            }
        }
    }

    fn take_early(&mut self, read: RequestId) -> Option<BTreeSet<ProcessId>> {
        let got = self.early.remove(&read);
        if got.is_some() {
            self.early_order.retain(|r| *r != read);
        }
        got
    }
}

/// Owner of a replica's read-coordination state (module docs).
#[derive(Default)]
pub(crate) struct Reads {
    /// Follower side: the leader's rounds reported a read backlog, so our
    /// per-read confirms are suppressed — the round traffic replaces them.
    /// A performance switch: it cuts confirm traffic, never answers a read.
    suppressed: bool,
    /// The leader's commit watermark as learned from `Chosen`/`Heartbeat`
    /// traffic. A locally served read is `leader_commit` minus our applied
    /// prefix stale (saturating: our prefix is itself a lower bound).
    leader_commit: Instance,
    /// Leader side, while we lead.
    lead: Option<Leading>,
}

/// What the door says of an open read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Verdict {
    /// Not executed yet, or not validated yet.
    Wait,
    /// Executed on chosen state and validated: answer it.
    Reply,
    /// The lease lapsed under a lease-mode read: through consensus instead.
    Requeue,
}

/// The rule (module docs): `executed` on a quiescent leader, and validated
/// the way `mode` demands — by `votes` per-read confirms or a completed
/// round of the read's epoch (`round_confirmed`), by a live lease, or not
/// at all.
pub(super) fn verdict(
    mode: ReadMode,
    majority: usize,
    executed: bool,
    votes: usize,
    round_confirmed: bool,
    lease_live: bool,
) -> Verdict {
    if !executed {
        return Verdict::Wait;
    }
    match mode {
        ReadMode::Follower { .. } => Verdict::Reply,
        ReadMode::Lease if lease_live => Verdict::Reply,
        ReadMode::Lease => Verdict::Requeue,
        ReadMode::XPaxos | ReadMode::Consensus if votes >= majority || round_confirmed => {
            Verdict::Reply
        }
        ReadMode::XPaxos | ReadMode::Consensus => Verdict::Wait,
    }
}

impl Reads {
    /// `Chosen` / `Heartbeat` certified the sender's prefix as `upto`.
    pub(crate) fn learn_commit(&mut self, upto: Instance) {
        self.leader_commit = self.leader_commit.max(upto);
    }

    /// We promised a newer leadership: it starts with per-read confirms
    /// enabled; its own rounds re-establish suppression if load warrants.
    pub(crate) fn promised_anew(&mut self) {
        self.suppressed = false;
    }

    /// We lead under `ballot` from `now` on (the takeover's heartbeat,
    /// `hb_seq` 0, leaves with this step).
    pub(crate) fn leadership_began(&mut self, ballot: Ballot, now: Time) {
        self.lead = Some(Leading {
            ballot,
            hb_sent_at: now,
            ..Leading::default()
        });
    }

    /// Open reads, the round and the lease die with the leadership: the
    /// clients retry at the new leader.
    pub(crate) fn leadership_ended(&mut self) {
        self.lead = None;
    }

    /// Whether `id` is a read waiting at the door.
    pub(crate) fn is_open(&self, id: RequestId) -> bool {
        self.lead.as_ref().is_some_and(|l| l.open.contains_key(&id))
    }

    /// The leader is about to send its next heartbeat: the sequence number
    /// it carries, which the lease votes answer. A singleton group is its
    /// own majority and extends the lease here.
    pub(crate) fn heartbeat_sent(&mut self, now: Time, cfg: &Config) -> u64 {
        let Some(l) = &mut self.lead else { return 0 };
        l.hb_seq += 1;
        l.hb_sent_at = now;
        l.hb_acks.clear();
        if cfg.majority() == 1 {
            l.lease_until = l.lease_until.max(now.after(ReadPolicy::lease(cfg)));
        }
        l.hb_seq
    }

    /// The state of the leadership under `ballot`, if that is ours.
    fn leading(&mut self, ballot: Ballot) -> Option<&mut Leading> {
        self.lead.as_mut().filter(|l| l.ballot == ballot)
    }

    /// Everything above that shapes later behaviour, for the model
    /// checker's fingerprint (arrival times and lease expiries stay out,
    /// as all clocks do).
    pub(crate) fn fingerprint(&self, h: &mut impl Hasher) {
        self.suppressed.hash(h);
        self.leader_commit.hash(h);
        let Some(l) = &self.lead else { return };
        for (id, p) in &l.open {
            (id, &p.votes, &p.result, p.epoch, p.confirmed).hash(h);
        }
        for early in &l.early {
            early.hash(h);
        }
        l.early_order.hash(h);
        l.epoch.hash(h);
        if let Some(round) = &l.round {
            (round.epoch, round.backlog, &round.acks).hash(h);
        }
        l.last_round_covered.hash(h);
        l.suppress_hinted.hash(h);
        (l.hb_seq, &l.hb_acks).hash(h);
    }
}

impl Replica {
    /// The leader's commit watermark as this replica last learned it
    /// (follower-read extension; tests and the checker harness).
    #[must_use]
    pub fn leader_commit(&self) -> Instance {
        self.reads.leader_commit
    }

    // ------------------------------------------------------------------
    // Arrival
    // ------------------------------------------------------------------

    /// A client request reached a replica that does not lead. Writes and
    /// transactions are the leader's business and are dropped unanswered
    /// (a broadcast copy reached the leader too; a copy unicast here on a
    /// stale hint waits for the client's retry); a read is served from
    /// local state in follower mode, and in X-Paxos "every other service
    /// process sends a confirm message to the process with the highest
    /// ballot number it has accepted" (§3.4).
    pub(crate) fn follower_sees_request(
        &mut self,
        req: &Request,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if req.kind != RequestKind::Read {
            return;
        }
        match self.cfg.reads.mode {
            // Bounded-staleness follower reads (extension): any replica
            // within the bound answers plain reads from its applied state —
            // zero coordination messages, the client's session watermark
            // supplies the ordering guarantees.
            ReadMode::Follower { max_staleness } if req.txn.is_none() => {
                self.follower_serve_read(req, max_staleness, now, out);
            }
            ReadMode::XPaxos => {
                let tpaxos_txn_op = req.is_txn_op() && self.cfg.txn_mode == TxnMode::TPaxos;
                if !tpaxos_txn_op
                    && !self.reads.suppressed
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
            ReadMode::Follower { .. } | ReadMode::Lease | ReadMode::Consensus => {}
        }
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
        let staleness = self.reads.leader_commit.0.saturating_sub(prefix.0);
        if staleness > max_staleness {
            self.stats.follower_read_rejects += 1;
            return;
        }
        let body = self.exec.answer(req, now, &mut self.rng);
        self.stats.follower_reads += 1;
        self.stats.follower_read_staleness += staleness;
        self.stats.follower_read_staleness_max =
            self.stats.follower_read_staleness_max.max(staleness);
        out.push(Action::send(
            Addr::Client(req.id.client),
            Msg::Reply(Reply {
                id: req.id,
                // Not us: the leader we believe in, so a stale per-group
                // hint at the client refreshes off the read path too.
                leader,
                watermark: prefix,
                body,
            }),
        ));
    }

    /// A read reached the leader. Returned to the caller if it has to go
    /// through consensus — consensus mode, or lease mode with no lease
    /// held (e.g. right after taking over). Otherwise it is opened here
    /// and answered through [`Replica::settle`]: X-Paxos collects its
    /// validation; under a lease, and in follower mode (the leader is
    /// trivially at its own commit watermark), completion only awaits
    /// quiescence.
    pub(crate) fn read_arrived(
        &mut self,
        req: Request,
        now: Time,
        out: &mut Vec<Action>,
    ) -> Option<Request> {
        let Some(l) = &mut self.reads.lead else {
            return Some(req);
        };
        let opens = match self.cfg.reads.mode {
            ReadMode::XPaxos | ReadMode::Follower { .. } => true,
            ReadMode::Lease => now < l.lease_until,
            ReadMode::Consensus => false,
        };
        if !opens {
            return Some(req);
        }
        let id = req.id;
        let mut votes = l.take_early(id).unwrap_or_default();
        votes.insert(self.id);
        l.open.insert(
            id,
            PendingRead {
                req,
                votes,
                result: None,
                epoch: l.epoch + 1,
                confirmed: false,
            },
        );
        let quiescent = self.quiescent();
        self.settle(id, quiescent, now, out);
        self.maybe_launch_confirm_round(false, out);
        None
    }

    /// The client retransmitted a request the leader is already working
    /// on. If that is a read still waiting on a confirm round, re-send the
    /// round request in case it (or its answers) was lost, and force a
    /// fresh round if none is in flight (possible when a suppression-
    /// lifting hint was itself lost, leaving followers silent with no
    /// round coming). The per-read path gets the same liveness for free —
    /// followers re-confirm the retransmitted broadcast.
    pub(crate) fn read_retransmitted(&mut self, id: RequestId, out: &mut Vec<Action>) {
        let Some(l) = &self.reads.lead else { return };
        if !l.open.contains_key(&id) {
            return;
        }
        if let Some(round) = &l.round {
            out.push(Action::broadcast(Msg::ConfirmReq {
                ballot: l.ballot,
                epoch: round.epoch,
                backlog: round.backlog,
            }));
            return;
        }
        self.maybe_launch_confirm_round(true, out);
    }

    // ------------------------------------------------------------------
    // The door
    // ------------------------------------------------------------------

    /// Ask [`verdict`] about open read `id` and act on the answer; no other
    /// code answers, requeues or executes an open read. `quiescent` is the
    /// caller's word that no decree is in flight and no recovery
    /// outstanding: only then may a read that has not run yet execute
    /// (otherwise it would observe a tentative, possibly-rolled-back
    /// write). A vote or a round's answer never executes.
    fn settle(&mut self, id: RequestId, quiescent: bool, now: Time, out: &mut Vec<Action>) {
        let (mode, majority) = (self.cfg.reads.mode, self.cfg.majority());
        let Some(l) = &mut self.reads.lead else {
            return;
        };
        let Some(p) = l.open.get_mut(&id) else {
            return;
        };
        if quiescent && p.result.is_none() {
            p.result = Some(self.exec.answer(&p.req, now, &mut self.rng));
        }
        let (executed, votes) = (p.result.is_some(), p.votes.len());
        let lease_live = now < l.lease_until;
        match verdict(mode, majority, executed, votes, p.confirmed, lease_live) {
            Verdict::Wait => {}
            Verdict::Reply => {
                let Some(body) = l.open.remove(&id).and_then(|p| p.result) else {
                    return;
                };
                match mode {
                    ReadMode::Lease => self.stats.lease_reads += 1,
                    // The leader serves at staleness zero by definition.
                    ReadMode::Follower { .. } => self.stats.follower_reads += 1,
                    ReadMode::XPaxos | ReadMode::Consensus => {
                        self.stats.xpaxos_reads += 1;
                        if votes < majority {
                            self.stats.batched_reads += 1;
                        }
                    }
                }
                self.reply_to(id, body, out);
            }
            Verdict::Requeue => {
                if let Some(p) = l.open.remove(&id) {
                    self.sequence(p.req, now, out);
                }
            }
        }
    }

    /// The applied prefix advanced under our leadership and the leader is
    /// quiescent: execute, in request order, the reads that were deferred
    /// behind a tentative write.
    pub(crate) fn reads_after_advance(&mut self, now: Time, out: &mut Vec<Action>) {
        let Some(l) = &self.reads.lead else { return };
        let deferred = l.open.iter().filter(|(_, p)| p.result.is_none());
        let deferred: Vec<RequestId> = deferred.map(|(id, _)| *id).collect();
        for id in deferred {
            self.settle(id, true, now, out);
        }
    }

    // ------------------------------------------------------------------
    // Per-read confirms (§3.4)
    // ------------------------------------------------------------------

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
        let Some(l) = self.reads.leading(ballot) else {
            return; // confirm for a different leadership
        };
        let Some(p) = l.open.get_mut(&read) else {
            l.buffer_early(read, pid); // outran the client's request
            return;
        };
        p.votes.insert(pid);
        self.settle(read, false, now, out);
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
        if !self.cfg.reads.confirm_batching || self.cfg.reads.mode != ReadMode::XPaxos {
            return;
        }
        let majority = self.cfg.majority();
        let Some(l) = self.reads.lead.as_mut().filter(|l| l.round.is_none()) else {
            return;
        };
        let uncovered = |p: &&PendingRead| !p.confirmed && p.votes.len() < majority;
        let covered = l.open.values().filter(uncovered).count();
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
        l.epoch += 1;
        l.suppress_hinted = backlog;
        l.round = Some(ConfirmRound {
            epoch: l.epoch,
            backlog,
            acks: BTreeSet::new(),
        });
        self.stats.confirm_rounds += 1;
        out.push(Action::broadcast(Msg::ConfirmReq {
            ballot: l.ballot,
            epoch: l.epoch,
            backlog,
        }));
    }

    /// The leader sealed confirm epoch `epoch` (extension): answer with a
    /// single [`Msg::ConfirmBatch`] that validates every read it opened in
    /// that epoch — "I have accepted no ballot higher than `ballot`" holds
    /// here, after all of those reads arrived, which is exactly what one
    /// per-read confirm certifies. A deposed leader's round gets no answer
    /// (we promised higher), so it can never reach a majority.
    pub(crate) fn handle_confirm_req(
        &mut self,
        ballot: Ballot,
        epoch: u64,
        backlog: bool,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if ballot.proposer == self.id || !self.defer_to(ballot, now, out) {
            return;
        }
        // Adopt the leader's load hint: under a backlog the round traffic
        // replaces per-read confirms; a single-read round lifts it.
        self.reads.suppressed = backlog;
        out.push(Action::send(
            Addr::Replica(ballot.proposer),
            Msg::ConfirmBatch { ballot, epoch },
        ));
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
        let Some(l) = self.reads.leading(ballot) else {
            return; // an answer to a different leadership's round
        };
        // No round in flight (late duplicate answer), or the epoch has
        // rolled over since this was sent.
        let Some(round) = l.round.as_mut().filter(|r| r.epoch == epoch) else {
            return;
        };
        round.acks.insert(pid);
        if round.acks.len() + 1 < majority {
            return;
        }
        l.round = None;
        let covered = l
            .open
            .iter_mut()
            .filter(|(_, p)| !p.confirmed && p.epoch <= epoch);
        let completed: Vec<RequestId> = covered
            .map(|(id, p)| {
                p.confirmed = true;
                *id
            })
            .collect();
        // Load measure for the hysteresis: what this round covered OR
        // what it left behind, whichever is larger. A round that
        // covers one read but leaves a dozen unconfirmed is a burst
        // boundary, not a load collapse — only a round that both
        // covers ≤1 and leaves ≤1 signals the closed loop has drained.
        let remaining = l.open.values().filter(|p| !p.confirmed).count();
        l.last_round_covered = completed.len().max(remaining);
        for id in completed {
            self.settle(id, false, now, out);
        }
        // Reads that arrived during the round are waiting in the next
        // epoch: seal and launch it immediately.
        self.maybe_launch_confirm_round(false, out);
    }

    // ------------------------------------------------------------------
    // Leases (extension)
    // ------------------------------------------------------------------

    /// A heartbeat of the leadership under `ballot` arrived: in lease mode
    /// a follower grants the leader a lease vote by acking it.
    pub(crate) fn grant_lease_vote(&self, ballot: Ballot, hb_seq: u64, out: &mut Vec<Action>) {
        if self.cfg.reads.mode == ReadMode::Lease && ballot >= self.promised && !self.is_leader() {
            out.push(Action::send(
                Addr::Replica(ballot.proposer),
                Msg::HeartbeatAck { ballot, hb_seq },
            ));
        }
    }

    /// A follower granted us a lease vote for heartbeat `hb_seq`. A
    /// majority (counting ourselves) extends the lease to
    /// `send time + lease_dur` — anchored at the *send* time, so the lease
    /// can never outlive the followers' suspicion timeouts.
    pub(crate) fn handle_heartbeat_ack(&mut self, from: Addr, ballot: Ballot, hb_seq: u64) {
        let Some(pid) = from.as_replica() else { return };
        let majority = self.cfg.majority();
        let lease_dur = ReadPolicy::lease(&self.cfg);
        let Some(l) = self.reads.leading(ballot).filter(|l| l.hb_seq == hb_seq) else {
            return; // stale ack
        };
        l.hb_acks.insert(pid);
        if l.hb_acks.len() + 1 >= majority {
            l.lease_until = l.lease_until.max(l.hb_sent_at.after(lease_dur));
        }
    }
}

/// What the unit tests ask of the seam.
#[cfg(test)]
impl Reads {
    /// Whether this follower holds back its per-read confirms.
    pub(super) fn suppressed(&self) -> bool {
        self.suppressed
    }

    /// How many reads have confirms buffered ahead of their request, and
    /// how long the eviction queue is.
    pub(super) fn early_buffered(&self) -> (usize, usize) {
        let l = self.lead.as_ref().expect("leading");
        (l.early.len(), l.early_order.len())
    }

    /// Whether confirms for `read` are buffered ahead of its request.
    pub(super) fn holds_early(&self, read: RequestId) -> bool {
        let l = self.lead.as_ref().expect("leading");
        l.early.contains_key(&read)
    }
}
