//! Cross-shard transactions: a two-phase-commit coordination plane
//! layered on the consensus groups.
//!
//! Single-group transactions (T-Paxos, §3.5) live entirely on one
//! leader. A transaction that touches keys in *different* groups cannot:
//! no single log orders its writes. The classical fix is to run 2PC
//! *over* the replicated groups — each participant group makes its vote
//! durable by choosing a PREPARE decree, and the coordinator's decision
//! is itself a decree in a deterministic *home group*, so every step of
//! the protocol inherits the fault tolerance of the underlying
//! replication. A participant that voted yes survives any single-node
//! crash still holding its intent; the decision survives because it is
//! chosen, not because the coordinator process stays alive.
//!
//! The flow driven by [`TxnCoordinator`]:
//!
//! ```text
//!   client/coordinator          group g1 .. gk            home group H
//!   ------------------          ---------------           ------------
//!   Prepare{txn}+ops  ───────►  decree TxnPrepare
//!                     ◄───────  TxnPrepared (chosen ⇒ durable vote)
//!        ... all k groups voted yes ...
//!   Decide{commit,record} ────────────────────────────►   decree TxnDecide
//!                     ◄──────────────────────────────     actual outcome
//!   Decide{commit,¬record} ──►  decree TxnDecide
//!                     ◄───────  ack (resolves intent)
//! ```
//!
//! The home group is a pure function of the transaction id
//! ([`home_group`]), so a recovering party needs no state to find the
//! decision. The decision decree is **record-if-absent**: the first
//! `Decide` with `record` set wins and every later one — including a
//! resolver's presumed-abort probe — is answered with the recorded
//! outcome. That single rule closes the classical 2PC in-doubt window:
//!
//! * Coordinator crashes *before* any decision is recorded → a resolver
//!   ([`TxnCoordinator::resolve`]) records ABORT at the home group and
//!   releases the prepared intents.
//! * Coordinator crashes *after* recording COMMIT → the resolver's abort
//!   probe loses the record-if-absent race, learns COMMIT, and finishes
//!   the commit instead. No participant can observe both outcomes.
//!
//! The coordinator is a sans-io driver in the style of
//! [`crate::client::TxnDriver`]: `step` issues the next request through a
//! [`ClientCore`], `on_complete` consumes the reply and advances the
//! phase machine. It never talks to the network itself.

use bytes::Bytes;

use crate::action::Action;
use crate::client::{ClientCore, CompletedOp};
use crate::request::{AbortReason, ReplyBody, Request, TxnCtl};
use crate::types::{shard_of, GroupId, Time, TxnId};

/// The group that records a transaction's commit/abort decision.
///
/// A pure function of the transaction id so that any party — the
/// coordinator, a resolver started after a crash, a participant leader
/// inspecting its own in-doubt intents — finds the same group with no
/// shared state. The id is mixed (SplitMix64 finalizer) before sharding
/// because sequential ids would otherwise pile every decision onto a few
/// groups.
#[must_use]
pub fn home_group(txn: TxnId, n_groups: usize) -> GroupId {
    let mut z = txn.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    shard_of(z ^ (z >> 31), n_groups)
}

/// Final outcome of a cross-shard transaction, as seen by its driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The decision decree recorded COMMIT and every participant that
    /// held an intent has been told.
    Committed,
    /// The decision decree recorded ABORT (reason attached) and every
    /// prepared participant has released its intent.
    Aborted(AbortReason),
    /// The driver gave up mid-protocol while at least one participant may
    /// still hold a prepared intent. The transaction's fate is decided by
    /// whoever resolves it ([`TxnCoordinator::resolve`]) — *not* by this
    /// driver.
    InDoubt,
}

/// Where the coordinator is in the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Sending `Prepare` to `legs[idx]`.
    Prepare { idx: usize },
    /// Sending the recording `Decide` to the home group.
    DecideHome { commit: bool },
    /// Propagating the recorded outcome to `notify[idx]`.
    Notify { commit: bool, idx: usize },
    /// Protocol complete; `outcome` is final.
    Done,
}

/// Drives one cross-shard transaction through a [`ClientCore`], one
/// request at a time (the client's closed-loop discipline).
///
/// Requests are routed with [`ClientCore::submit_to`] — Prepare goes to
/// the participant group that owns the keys, Decide to the home group
/// first (with `record`) and then to each prepared participant (without).
#[derive(Clone, Debug)]
pub struct TxnCoordinator {
    txn: TxnId,
    home: GroupId,
    /// Participant legs: `(group, encoded write set)`. Resolver-mode
    /// coordinators carry empty write sets (they only send Decides).
    legs: Vec<(GroupId, Bytes)>,
    /// Groups whose `TxnPrepared` vote we hold (they have durable
    /// intents to resolve). In resolver mode: all given participants.
    prepared: Vec<GroupId>,
    /// Why phase 1 failed, if it did.
    abort_reason: Option<AbortReason>,
    /// Groups still owed the decision once it is recorded.
    notify: Vec<GroupId>,
    resolver: bool,
    phase: Phase,
    started: Option<Time>,
    outcome: Option<Outcome>,
}

impl TxnCoordinator {
    /// Coordinate `txn` across `legs` (one `(group, encoded ops)` pair
    /// per participant group) in a deployment of `n_groups` groups.
    #[must_use]
    pub fn new(txn: TxnId, n_groups: usize, legs: Vec<(GroupId, Bytes)>) -> TxnCoordinator {
        assert!(!legs.is_empty(), "a transaction needs at least one leg");
        TxnCoordinator {
            txn,
            home: home_group(txn, n_groups),
            legs,
            prepared: Vec::new(),
            abort_reason: None,
            notify: Vec::new(),
            resolver: false,
            phase: Phase::Prepare { idx: 0 },
            started: None,
            outcome: None,
        }
    }

    /// Resolve an in-doubt `txn` whose intents may survive on
    /// `participants`: record presumed-abort at the home group (losing
    /// gracefully to an already-recorded COMMIT), then propagate the
    /// *actual* recorded outcome to every participant. Safe to run
    /// concurrently with the original coordinator — the home group's
    /// record-if-absent decree linearizes the race.
    #[must_use]
    pub fn resolve(txn: TxnId, n_groups: usize, participants: Vec<GroupId>) -> TxnCoordinator {
        let prepared = participants.clone();
        TxnCoordinator {
            txn,
            home: home_group(txn, n_groups),
            legs: participants
                .into_iter()
                .map(|g| (g, Bytes::new()))
                .collect(),
            prepared,
            abort_reason: None,
            notify: Vec::new(),
            resolver: true,
            phase: Phase::DecideHome { commit: false },
            started: None,
            outcome: None,
        }
    }

    /// The transaction being coordinated.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The group holding (or destined to hold) the decision decree.
    #[must_use]
    pub fn home(&self) -> GroupId {
        self.home
    }

    /// Groups known to hold a durable prepared intent. If the driver
    /// abandons the transaction, these are the participants a resolver
    /// must visit.
    #[must_use]
    pub fn prepared(&self) -> &[GroupId] {
        &self.prepared
    }

    /// The final outcome, once the protocol has fully completed.
    #[must_use]
    pub fn outcome(&self) -> Option<&Outcome> {
        self.outcome.as_ref()
    }

    /// The outcome to report if the driver stops retrying now. Before any
    /// vote is durable this is a clean abort (presumed abort: unresolved
    /// participants time out to ABORT); afterwards the transaction is
    /// genuinely in doubt until resolved.
    #[must_use]
    pub fn abandon_outcome(&self) -> Outcome {
        match &self.outcome {
            Some(o) => o.clone(),
            None if self.prepared.is_empty() => Outcome::Aborted(AbortReason::InDoubt),
            None => Outcome::InDoubt,
        }
    }

    /// Issue the next protocol request through `client`. Returns `None`
    /// once the protocol has finished.
    pub fn step(&mut self, client: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
        self.started.get_or_insert(now);
        let id = client.next_request_id();
        match self.phase.clone() {
            Phase::Prepare { idx } => {
                let (group, ops) = self.legs[idx].clone();
                Some(client.submit_to(Request::txn_prepare(id, self.txn, ops), group, now))
            }
            Phase::DecideHome { commit } => Some(client.submit_to(
                Request::txn_decide(id, self.txn, commit, true),
                self.home,
                now,
            )),
            Phase::Notify { commit, idx } => Some(client.submit_to(
                Request::txn_decide(id, self.txn, commit, false),
                self.notify[idx],
                now,
            )),
            Phase::Done => None,
        }
    }

    /// Feed a completed operation back. Returns the outcome once the
    /// whole protocol (decision recorded *and* propagated) is finished.
    pub fn on_complete(&mut self, done: &CompletedOp) -> Option<Outcome> {
        // Only this transaction's replies advance the machine.
        if done.req.txn.map(TxnCtl::txn) != Some(self.txn) {
            return None;
        }
        match self.phase.clone() {
            Phase::Prepare { idx } => match &done.body {
                ReplyBody::TxnPrepared { .. } => {
                    self.prepared.push(self.legs[idx].0);
                    if idx + 1 < self.legs.len() {
                        self.phase = Phase::Prepare { idx: idx + 1 };
                    } else {
                        self.phase = Phase::DecideHome { commit: true };
                    }
                }
                ReplyBody::TxnAborted { reason, .. } => {
                    // A no vote. The refusing group holds no intent; the
                    // groups that already voted yes do, so the abort must
                    // still be recorded and propagated to them.
                    self.abort_reason = Some(*reason);
                    self.phase = Phase::DecideHome { commit: false };
                }
                ReplyBody::Ok(_)
                | ReplyBody::TxnCommitted { .. }
                | ReplyBody::Empty
                | ReplyBody::Busy => {}
            },
            Phase::DecideHome { commit: asked } => {
                let actual = match &done.body {
                    ReplyBody::TxnCommitted { .. } => true,
                    ReplyBody::TxnAborted { .. } => false,
                    ReplyBody::Ok(_)
                    | ReplyBody::TxnPrepared { .. }
                    | ReplyBody::Empty
                    | ReplyBody::Busy => return None,
                };
                self.outcome = Some(if actual {
                    Outcome::Committed
                } else if let Some(r) = self.abort_reason {
                    Outcome::Aborted(r)
                } else {
                    // We asked for commit (or a resolver probe) and the
                    // recorded decision is abort: someone else settled the
                    // race. From this driver's view the cause is the
                    // in-doubt resolution, not a local conflict.
                    Outcome::Aborted(if asked && !self.resolver {
                        AbortReason::InDoubt
                    } else {
                        AbortReason::ClientAbort
                    })
                });
                // Propagate the *recorded* outcome to every participant
                // still holding an intent. The home group just resolved
                // its own intent (if it had one) as part of the decision
                // decree, so it is excluded.
                self.notify = self
                    .prepared
                    .iter()
                    .copied()
                    .filter(|g| *g != self.home)
                    .collect();
                self.phase = if self.notify.is_empty() {
                    Phase::Done
                } else {
                    Phase::Notify {
                        commit: actual,
                        idx: 0,
                    }
                };
            }
            Phase::Notify { commit, idx } => match &done.body {
                ReplyBody::TxnCommitted { .. } | ReplyBody::TxnAborted { .. } => {
                    self.phase = if idx + 1 < self.notify.len() {
                        Phase::Notify {
                            commit,
                            idx: idx + 1,
                        }
                    } else {
                        Phase::Done
                    };
                }
                ReplyBody::Ok(_)
                | ReplyBody::TxnPrepared { .. }
                | ReplyBody::Empty
                | ReplyBody::Busy => {}
            },
            Phase::Done => {}
        }
        if self.phase == Phase::Done {
            self.outcome.clone()
        } else {
            None
        }
    }
}

/// A fenced two-leg merged read across several groups.
///
/// Cross-shard reads have no lock to hide behind: each group serves its
/// slice of the range from its own applied state, and the slices may
/// straddle a transaction commit. The classical fix (borrowed from
/// optimistic readers) is to read twice: leg 1 collects each group's
/// answer together with a state version, leg 2 re-reads just the
/// versions. If no group's version moved between the legs, the leg-1
/// answers coexisted at a single logical instant and their merge is a
/// consistent snapshot; otherwise the caller retries.
///
/// The driver is service-agnostic: it submits the given `scan_op` and
/// `fence_op` payloads as reads and hands raw reply payloads back. The
/// service layer (e.g. the KV store's versioned scan) interprets them.
#[derive(Clone, Debug)]
pub struct MergedRead {
    scan_op: Bytes,
    fence_op: Bytes,
    groups: Vec<GroupId>,
    /// `groups.len()` scan payloads, then `groups.len()` fence payloads.
    replies: Vec<Bytes>,
    done: bool,
}

/// The raw results of a [`MergedRead`], one entry per group.
#[derive(Clone, Debug)]
pub struct MergedReadResult {
    /// The groups read, in submission order.
    pub groups: Vec<GroupId>,
    /// Leg-1 payloads (the data reads), aligned with `groups`.
    pub scans: Vec<Bytes>,
    /// Leg-2 payloads (the version fences), aligned with `groups`.
    pub fences: Vec<Bytes>,
}

impl MergedRead {
    /// Read `scan_op` then `fence_op` across `groups`.
    #[must_use]
    pub fn new(scan_op: Bytes, fence_op: Bytes, groups: Vec<GroupId>) -> MergedRead {
        assert!(!groups.is_empty(), "a merged read needs at least one group");
        MergedRead {
            scan_op,
            fence_op,
            groups,
            replies: Vec::new(),
            done: false,
        }
    }

    /// Issue the next read through `client`; `None` once both legs ran.
    pub fn step(&mut self, client: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
        if self.done {
            return None;
        }
        let n = self.groups.len();
        let idx = self.replies.len();
        let (group, op) = if idx < n {
            (self.groups[idx], self.scan_op.clone())
        } else {
            (self.groups[idx - n], self.fence_op.clone())
        };
        let id = client.next_request_id();
        Some(client.submit_to(
            Request::new(id, crate::request::RequestKind::Read, op),
            group,
            now,
        ))
    }

    /// Feed a completed read back; returns the collected legs when the
    /// second fence reply lands.
    pub fn on_complete(&mut self, done: &CompletedOp) -> Option<MergedReadResult> {
        if self.done {
            return None;
        }
        let payload = done.body.payload()?.clone();
        self.replies.push(payload);
        let n = self.groups.len();
        if self.replies.len() < 2 * n {
            return None;
        }
        self.done = true;
        let fences = self.replies.split_off(n);
        Some(MergedReadResult {
            groups: self.groups.clone(),
            scans: std::mem::take(&mut self.replies),
            fences,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use crate::request::{Reply, RequestKind};
    use crate::types::{ClientId, Dur, ProcessId, Seq};

    fn client(n_groups: usize) -> ClientCore {
        ClientCore::new(ClientId(7), 3, Dur::from_millis(50)).with_groups(n_groups, None)
    }

    /// Extract the (single) request a `step` produced, asserting it was
    /// routed to `group`.
    fn sent_request(actions: &[Action], group: GroupId) -> Request {
        for a in actions {
            if let Action::Send { msg, .. } | Action::ToAllReplicas { msg } = a {
                // Every message but the envelope is bare.
                #[allow(clippy::wildcard_enum_match_arm)]
                let (g, inner) = match msg {
                    Msg::Grouped { group, inner } => (*group, (**inner).clone()),
                    other => (GroupId::ZERO, other.clone()),
                };
                if let Msg::Request(req) = inner {
                    assert_eq!(g, group, "request routed to wrong group");
                    return req;
                }
            }
        }
        panic!("no request in actions");
    }

    /// Answer the outstanding request on `client` with `body`.
    fn answer(
        client: &mut ClientCore,
        req: &Request,
        group: GroupId,
        body: ReplyBody,
    ) -> CompletedOp {
        let reply = Reply {
            id: req.id,
            leader: ProcessId(0),
            watermark: crate::types::Instance::ZERO,
            body,
        };
        let msg = Msg::Grouped {
            group,
            inner: Box::new(Msg::Reply(reply)),
        };
        let (done, _) = client.on_message(msg, Time::ZERO);
        done.expect("reply should complete the op")
    }

    #[test]
    fn home_group_is_deterministic_and_spreads() {
        let g = 4;
        assert_eq!(home_group(TxnId(42), g), home_group(TxnId(42), g));
        // Sequential ids should not all land on the same group.
        let homes: std::collections::HashSet<u32> =
            (0..32).map(|i| home_group(TxnId(i), g).0).collect();
        assert!(homes.len() > 1, "mixing failed: all txns share a home");
        assert_eq!(home_group(TxnId(9), 1), GroupId::ZERO);
    }

    #[test]
    fn commit_path_prepares_decides_home_then_notifies() {
        let n_groups = 4;
        let txn = TxnId(5);
        let (g1, g2) = (GroupId(1), GroupId(2));
        let home = home_group(txn, n_groups);
        let mut c = client(n_groups);
        let mut coord = TxnCoordinator::new(
            txn,
            n_groups,
            vec![
                (g1, Bytes::from_static(b"a")),
                (g2, Bytes::from_static(b"b")),
            ],
        );

        // Leg 1: prepare g1.
        let acts = coord.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, g1);
        assert!(matches!(req.txn, Some(TxnCtl::Prepare { txn: t }) if t == txn));
        let done = answer(&mut c, &req, g1, ReplyBody::TxnPrepared { txn });
        assert_eq!(coord.on_complete(&done), None);

        // Leg 2: prepare g2.
        let acts = coord.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, g2);
        let done = answer(&mut c, &req, g2, ReplyBody::TxnPrepared { txn });
        assert_eq!(coord.on_complete(&done), None);
        assert_eq!(coord.prepared(), &[g1, g2]);

        // Decision: recorded at the home group.
        let acts = coord.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, home);
        assert!(matches!(
            req.txn,
            Some(TxnCtl::Decide {
                commit: true,
                record: true,
                ..
            })
        ));
        let done = answer(&mut c, &req, home, ReplyBody::TxnCommitted { txn });
        let mut out = coord.on_complete(&done);

        // Propagation: every prepared group except the home one.
        let expect: Vec<GroupId> = [g1, g2].into_iter().filter(|g| *g != home).collect();
        for g in expect {
            assert_eq!(out, None, "outcome must wait for propagation");
            let acts = coord.step(&mut c, Time::ZERO).unwrap();
            let req = sent_request(&acts, g);
            assert!(matches!(
                req.txn,
                Some(TxnCtl::Decide {
                    commit: true,
                    record: false,
                    ..
                })
            ));
            let done = answer(&mut c, &req, g, ReplyBody::TxnCommitted { txn });
            out = coord.on_complete(&done);
        }
        assert_eq!(out, Some(Outcome::Committed));
        assert!(coord.step(&mut c, Time::ZERO).is_none());
    }

    #[test]
    fn no_vote_aborts_and_releases_prepared_legs() {
        let n_groups = 4;
        let txn = TxnId(14);
        let (g1, g2) = (GroupId(1), GroupId(3));
        let home = home_group(txn, n_groups);
        assert!(home != g1, "test wants g1 distinct from home");
        let mut c = client(n_groups);
        let mut coord = TxnCoordinator::new(
            txn,
            n_groups,
            vec![
                (g1, Bytes::from_static(b"a")),
                (g2, Bytes::from_static(b"b")),
            ],
        );

        // g1 votes yes.
        let acts = coord.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, g1);
        let done = answer(&mut c, &req, g1, ReplyBody::TxnPrepared { txn });
        coord.on_complete(&done);

        // g2 votes no.
        let acts = coord.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, g2);
        let done = answer(
            &mut c,
            &req,
            g2,
            ReplyBody::TxnAborted {
                txn,
                reason: AbortReason::Conflict,
            },
        );
        assert_eq!(coord.on_complete(&done), None);

        // Abort recorded at home...
        let acts = coord.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, home);
        assert!(matches!(
            req.txn,
            Some(TxnCtl::Decide {
                commit: false,
                record: true,
                ..
            })
        ));
        let done = answer(
            &mut c,
            &req,
            home,
            ReplyBody::TxnAborted {
                txn,
                reason: AbortReason::ClientAbort,
            },
        );
        assert_eq!(coord.on_complete(&done), None);

        // ...then propagated only to g1 (the sole prepared leg).
        let acts = coord.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, g1);
        let done = answer(
            &mut c,
            &req,
            g1,
            ReplyBody::TxnAborted {
                txn,
                reason: AbortReason::ClientAbort,
            },
        );
        assert_eq!(
            coord.on_complete(&done),
            Some(Outcome::Aborted(AbortReason::Conflict))
        );
    }

    #[test]
    fn resolver_adopts_recorded_commit() {
        let n_groups = 4;
        let txn = TxnId(21);
        let home = home_group(txn, n_groups);
        let part = GroupId((home.0 + 1) % n_groups as u32);
        let mut c = client(n_groups);
        let mut r = TxnCoordinator::resolve(txn, n_groups, vec![part]);

        // The presumed-abort probe goes to the home group...
        let acts = r.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, home);
        assert!(matches!(
            req.txn,
            Some(TxnCtl::Decide {
                commit: false,
                record: true,
                ..
            })
        ));
        // ...which answers with the *already recorded* COMMIT.
        let done = answer(&mut c, &req, home, ReplyBody::TxnCommitted { txn });
        assert_eq!(r.on_complete(&done), None);

        // The resolver finishes the commit at the participant.
        let acts = r.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, part);
        assert!(matches!(
            req.txn,
            Some(TxnCtl::Decide {
                commit: true,
                record: false,
                ..
            })
        ));
        let done = answer(&mut c, &req, part, ReplyBody::TxnCommitted { txn });
        assert_eq!(r.on_complete(&done), Some(Outcome::Committed));
    }

    #[test]
    fn abandon_outcome_tracks_in_doubt_window() {
        let n_groups = 4;
        let txn = TxnId(30);
        let g1 = GroupId(1);
        let mut c = client(n_groups);
        let mut coord = TxnCoordinator::new(txn, n_groups, vec![(g1, Bytes::from_static(b"a"))]);
        // Before any durable vote: abandoning is a clean abort.
        assert_eq!(
            coord.abandon_outcome(),
            Outcome::Aborted(AbortReason::InDoubt)
        );
        let acts = coord.step(&mut c, Time::ZERO).unwrap();
        let req = sent_request(&acts, g1);
        let done = answer(&mut c, &req, g1, ReplyBody::TxnPrepared { txn });
        coord.on_complete(&done);
        // A durable intent exists: the transaction is genuinely in doubt.
        assert_eq!(coord.abandon_outcome(), Outcome::InDoubt);
    }

    #[test]
    fn merged_read_runs_scan_then_fence_legs() {
        let groups = vec![GroupId(0), GroupId(2)];
        let mut c = client(4);
        let mut mr = MergedRead::new(
            Bytes::from_static(b"scan"),
            Bytes::from_static(b"fence"),
            groups.clone(),
        );
        let mut result = None;
        for (leg, g) in groups.iter().chain(groups.iter()).enumerate() {
            assert!(result.is_none());
            let acts = mr.step(&mut c, Time::ZERO).unwrap();
            let req = sent_request(&acts, *g);
            assert_eq!(req.kind, RequestKind::Read);
            let payload = Bytes::from(format!("r{leg}"));
            let done = answer(&mut c, &req, *g, ReplyBody::Ok(payload));
            result = mr.on_complete(&done);
        }
        let r = result.expect("both legs answered");
        assert_eq!(r.groups, groups);
        assert_eq!(
            r.scans,
            vec![Bytes::from_static(b"r0"), Bytes::from_static(b"r1")]
        );
        assert_eq!(
            r.fences,
            vec![Bytes::from_static(b"r2"), Bytes::from_static(b"r3")]
        );
        assert!(mr.step(&mut c, Time::ZERO).is_none());
    }

    #[test]
    fn txn_requests_route_to_explicit_groups_not_group_zero() {
        // submit_to bypasses the txn-pins-to-group-0 rule in group_of:
        // 2PC traffic must reach the participant group that owns the keys.
        let mut c = client(4);
        let id = crate::request::RequestId::new(ClientId(7), Seq(99));
        let req = Request::txn_prepare(id, TxnId(1), Bytes::new());
        let acts = c.submit_to(req, GroupId(3), Time::ZERO);
        let sent = sent_request(&acts, GroupId(3));
        assert_eq!(sent.id, id);
    }
}
