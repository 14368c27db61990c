//! The service abstraction: what the replication layer replicates.
//!
//! A *nondeterministic* service implements [`App`]. Only the current leader
//! ever calls [`App::execute`] — the one place nondeterminism (randomness,
//! local time) may enter, via the [`ExecCtx`] handed in. Backups never
//! execute; they *apply* the leader's state update ([`App::apply`]), which
//! must be deterministic. This split is precisely what lets the protocol of
//! §3.3 keep nondeterministic replicas consistent.

use crate::command::StateUpdate;
use crate::request::{AbortReason, Request};
use crate::types::{Time, TxnId};
use bytes::Bytes;
use rand::rngs::SmallRng;

/// Execution context handed to [`App::execute`]. Encapsulates every source
/// of nondeterminism so the rest of the system stays deterministic and
/// simulation-friendly: the *logical* current time and a per-replica seeded
/// RNG (distinct seeds per replica are exactly what makes replicas diverge
/// if run independently — the scenario the paper's protocol exists to fix).
pub struct ExecCtx<'a> {
    /// Current time as seen by the executing replica.
    pub now: Time,
    /// Per-replica random number generator.
    pub rng: &'a mut SmallRng,
    /// See [`ExecCtx::update_subsumes_op`].
    op_subsumed: bool,
    /// See [`ExecCtx::wants_chosen_state`].
    chosen_state: bool,
    /// See [`ExecCtx::answered_from_chosen_state`].
    answered_chosen: bool,
}

impl<'a> ExecCtx<'a> {
    /// Construct a context.
    pub fn new(now: Time, rng: &'a mut SmallRng) -> ExecCtx<'a> {
        ExecCtx {
            now,
            rng,
            op_subsumed: false,
            chosen_state: false,
            answered_chosen: false,
        }
    }

    /// A context for a read the leader asks of its service while a
    /// tentative window ([`App::tentative_begin`]) is open. Public so that
    /// a service's tests can ask what it answers there.
    pub fn for_chosen_state(now: Time, rng: &'a mut SmallRng) -> ExecCtx<'a> {
        ExecCtx {
            chosen_state: true,
            ..ExecCtx::new(now, rng)
        }
    }

    /// Whether [`App::execute`] is asked for a plain read of the state
    /// *before* the open tentative window: the chosen state, which the
    /// window's undo log still holds. A service that can answer from it
    /// does, and says [`ExecCtx::answered_from_chosen_state`]; one that
    /// cannot answers as it likes, says nothing, and the read waits for
    /// the window to close. Asked through the context, like
    /// [`ExecCtx::update_subsumes_op`], so an `App` that wraps another
    /// passes it on without knowing of it.
    #[must_use]
    pub fn wants_chosen_state(&self) -> bool {
        self.chosen_state
    }

    /// Said by [`App::execute`] of a read asked for
    /// [`ExecCtx::wants_chosen_state`]: the reply it returns is what the
    /// state before the open window holds. Only then does the leader use
    /// it.
    pub fn answered_from_chosen_state(&mut self) {
        self.answered_chosen = self.chosen_state;
    }

    /// Whether the execution said [`ExecCtx::answered_from_chosen_state`].
    #[must_use]
    pub fn chosen_state_answered(&self) -> bool {
        self.answered_chosen
    }

    /// Said by [`App::execute`] of the [`StateUpdate::Delta`] or
    /// [`StateUpdate::Full`] it is about to return: the update is the
    /// request's whole effect, [`App::apply`] does not read `req.op` beside
    /// it. Under `ValueMode::ReqState` the decree of a plain write then
    /// carries the request's identity, the update and the reply, and not a
    /// second copy of the value: `apply` is handed an empty `op`. A service
    /// that decodes the operation in `apply` (the bundled scheduler and
    /// broker do) says nothing and keeps the body — which is why the
    /// replica layer cannot decide this for it. Said through the context,
    /// not a trait method, so an `App` that wraps another (the apply
    /// pool, a tracing wrapper) passes it on without knowing of it.
    pub fn update_subsumes_op(&mut self) {
        self.op_subsumed = true;
    }

    /// Whether the execution said [`ExecCtx::update_subsumes_op`].
    pub(crate) fn op_subsumed(&self) -> bool {
        self.op_subsumed
    }
}

/// A replicated service application.
///
/// # Contract
///
/// * `execute` may be nondeterministic (it gets an [`ExecCtx`]); it returns
///   the client-visible reply and a [`StateUpdate`] describing the state
///   change.
/// * `apply` must be **deterministic**: given the same pre-state, request
///   and update, every replica ends in the same post-state. For
///   [`StateUpdate::Reproduce`] the update carries whatever auxiliary
///   record (`aux`) `execute` chose to emit, and `apply` replays the
///   request deterministically from it.
/// * `snapshot`/`restore` serialize the complete service state; they back
///   checkpoints, recovery promises and catch-up transfers.
///
/// The transaction hooks are only exercised for services driven through
/// T-Paxos or per-operation transactions; the defaults reject transactions.
pub trait App: Send {
    /// Execute `req` against current state (leader only). Returns the reply
    /// payload and the update to replicate.
    ///
    /// For a [`crate::request::RequestKind::Read`] request the update must
    /// be [`StateUpdate::None`]; the replica layer enforces this.
    fn execute(&mut self, req: &Request, ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate);

    /// Deterministically apply a replicated update (all replicas, including
    /// the leader replaying its own log after recovery).
    fn apply(&mut self, req: &Request, update: &StateUpdate);

    /// Serialize the complete service state.
    fn snapshot(&self) -> Bytes;

    /// Replace the service state with a snapshot produced by [`App::snapshot`].
    fn restore(&mut self, snap: &[u8]);

    /// The shard key of `req`, for multi-group (sharded) deployments: two
    /// requests returning the same key are guaranteed to land in the same
    /// consensus group and therefore observe each other in a total order.
    /// `None` means the request is keyless (or the service is unsharded)
    /// and routes to group 0. The default keeps every service unsharded.
    fn shard_key(&self, _req: &Request) -> Option<u64> {
        None
    }

    /// Begin staging transaction `txn` (leader only).
    fn txn_begin(&mut self, _txn: TxnId) {}

    /// Execute one operation inside `txn`, staging its effects (leader
    /// only). Returns the reply payload and — for per-operation coordinated
    /// transactions — a staging update the backups apply to mirror the
    /// staged effect. Services that cannot honor the operation (e.g. a lock
    /// conflict with a concurrent transaction) return an [`AbortReason`].
    ///
    /// `durable` distinguishes the two transaction modes:
    ///
    /// * `true` (per-operation coordination): the staged effect is
    ///   replicated through consensus, so it is part of replicated state
    ///   and **must** be included in [`App::snapshot`].
    /// * `false` (T-Paxos): the staged effect lives only on the leader and
    ///   dies with its leadership (§3.6), so it **must not** appear in
    ///   snapshots; [`App::restore`] additionally clears all volatile
    ///   staging.
    fn txn_execute(
        &mut self,
        _txn: TxnId,
        _req: &Request,
        _durable: bool,
        _ctx: &mut ExecCtx<'_>,
    ) -> Result<(Bytes, StateUpdate), AbortReason> {
        Err(AbortReason::Unsupported)
    }

    /// Commit `txn`: fold its staged effects into committed state and
    /// return the combined update for replication (leader only).
    fn txn_commit(&mut self, _txn: TxnId) -> StateUpdate {
        StateUpdate::None
    }

    /// Abort `txn`, discarding staged effects (leader only).
    fn txn_abort(&mut self, _txn: TxnId) {}

    /// Begin an undo-logged tentative execution (leader only). The replica
    /// layer calls this immediately before [`App::execute`]-ing a proposal
    /// it may later have to abandon (a lost leadership race, §3.3). A
    /// service that returns `true` promises that a later
    /// [`App::tentative_rollback`] restores the exact pre-`execute` state
    /// and that [`App::tentative_commit`] makes the execution permanent.
    /// While the window is open the leader may ask it for plain reads of
    /// the pre-window state ([`ExecCtx::wants_chosen_state`]).
    /// The default returns `false`, and the replica falls back to taking a
    /// full [`App::snapshot`] before executing — correct for any service,
    /// but O(state size) per decree.
    fn tentative_begin(&mut self) -> bool {
        false
    }

    /// Discard the effects of the tentative execution opened by the last
    /// [`App::tentative_begin`], restoring the pre-execution state.
    fn tentative_rollback(&mut self) {}

    /// Make the tentative execution permanent (its decree was chosen).
    fn tentative_commit(&mut self) {}

    /// Freeze the current state for incremental (chunked) snapshot
    /// emission and return the number of chunks. The frozen image must
    /// equal what [`App::snapshot`] would have returned at the moment of
    /// the freeze, and the concatenation of
    /// `snapshot_chunk(0) .. snapshot_chunk(n-1)` must reproduce those
    /// bytes exactly. While frozen, `apply`/`execute` may continue to
    /// mutate live state without disturbing the frozen image, and
    /// [`App::snapshot`] keeps returning the *live* state. `chunk_bytes`
    /// is the target chunk size; the default freezes nothing and reports a
    /// single chunk (emitted by the default [`App::snapshot_chunk`], which
    /// falls back to a monolithic [`App::snapshot`]).
    fn snapshot_begin(&mut self, _chunk_bytes: usize) -> usize {
        1
    }

    /// Emit chunk `idx` (ascending from 0, each index exactly once) of the
    /// image frozen by the last [`App::snapshot_begin`].
    fn snapshot_chunk(&mut self, idx: usize) -> Bytes {
        debug_assert_eq!(idx, 0, "default chunking emits a single chunk");
        self.snapshot()
    }

    /// Release the frozen image (after the last chunk, or on abort).
    fn snapshot_end(&mut self) {}

    /// 2PC phase one (leader only, cross-shard extension): validate the
    /// write set carried by `req.op`, install it as a prepared intent with
    /// key locks, and return the staging update the backups apply to mirror
    /// the intent. Prepared intents are replicated state: they **must** be
    /// included in [`App::snapshot`] and survive [`App::restore`]. Services
    /// that cannot honor the prepare (lock conflict, malformed write set,
    /// keys outside this shard) return an [`AbortReason`] — the no vote.
    fn txn_prepare(
        &mut self,
        _txn: TxnId,
        _req: &Request,
        _ctx: &mut ExecCtx<'_>,
    ) -> Result<StateUpdate, AbortReason> {
        Err(AbortReason::Unsupported)
    }

    /// 2PC phase two (leader only, cross-shard extension): resolve the
    /// prepared intent of `txn` — fold it into committed state (`commit`)
    /// or discard it, releasing its locks. With `record` set this group is
    /// the transaction's home group: the decision is recorded
    /// first-writer-wins in the service's decision table, and a recorded
    /// decision overrides the requested `commit` flag. Returns the
    /// **actual** outcome (true = committed) and the update for the
    /// backups. Must be idempotent: deciding an unknown or already-decided
    /// transaction re-reports the recorded outcome (or presumed abort)
    /// without changing state.
    fn txn_decide(&mut self, _txn: TxnId, commit: bool, _record: bool) -> (bool, StateUpdate) {
        (commit, StateUpdate::None)
    }

    /// Deterministically apply a replicated 2PC decide on a backup,
    /// mirroring [`App::txn_decide`] from the shipped update.
    fn apply_txn_decide(&mut self, txn: TxnId, commit: bool, update: &StateUpdate) {
        let _ = (txn, commit);
        if !update.is_none() {
            let dummy = Request::new(
                crate::request::RequestId::new(
                    crate::types::ClientId(u64::MAX),
                    crate::types::Seq(0),
                ),
                crate::request::RequestKind::Write,
                Bytes::new(),
            );
            self.apply(&dummy, update);
        }
    }

    /// Apply a replicated T-Paxos transaction commit (all replicas). The
    /// default simply applies the combined update as a write; services with
    /// richer staging semantics may override.
    fn apply_txn_commit(&mut self, _txn: TxnId, ops: &[Request], update: &StateUpdate) {
        if let Some(first) = ops.first() {
            self.apply(first, update);
        } else if !update.is_none() {
            // No ops recorded but a state change shipped: apply it against a
            // synthetic empty request.
            let dummy = Request::new(
                crate::request::RequestId::new(
                    crate::types::ClientId(u64::MAX),
                    crate::types::Seq(0),
                ),
                crate::request::RequestKind::Write,
                Bytes::new(),
            );
            self.apply(&dummy, update);
        }
    }
}

/// The trivial service used by the paper's evaluation (§4): every request
/// "invokes an empty method" so measurements isolate replication overhead.
/// State is a single counter of applied writes (a few bytes, like the
/// paper's small service state), so tests can still verify replica
/// consistency.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NoopApp {
    /// Number of writes applied — the entire service state.
    pub writes_applied: u64,
}

impl NoopApp {
    /// Fresh no-op service.
    #[must_use]
    pub fn new() -> NoopApp {
        NoopApp::default()
    }

    fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.writes_applied.to_le_bytes())
    }

    fn decode(buf: &[u8]) -> u64 {
        let mut b = [0u8; 8];
        let n = buf.len().min(8);
        b[..n].copy_from_slice(&buf[..n]);
        u64::from_le_bytes(b)
    }
}

impl App for NoopApp {
    fn execute(&mut self, req: &Request, _ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        match req.kind {
            crate::request::RequestKind::Read => (self.encode(), StateUpdate::None),
            crate::request::RequestKind::Write | crate::request::RequestKind::Original => {
                self.writes_applied += 1;
                (self.encode(), StateUpdate::Full(self.encode()))
            }
        }
    }

    fn apply(&mut self, _req: &Request, update: &StateUpdate) {
        match update {
            StateUpdate::None => {}
            StateUpdate::Full(b) | StateUpdate::Delta(b) => {
                self.writes_applied = Self::decode(b);
            }
            StateUpdate::Reproduce(_) => {
                self.writes_applied += 1;
            }
        }
    }

    fn snapshot(&self) -> Bytes {
        self.encode()
    }

    fn restore(&mut self, snap: &[u8]) {
        self.writes_applied = Self::decode(snap);
    }

    // The evaluation's transactions also invoke empty methods; stage nothing
    // and count committed writes at commit time.
    fn txn_begin(&mut self, _txn: TxnId) {}

    fn txn_execute(
        &mut self,
        _txn: TxnId,
        _req: &Request,
        _durable: bool,
        _ctx: &mut ExecCtx<'_>,
    ) -> Result<(Bytes, StateUpdate), AbortReason> {
        Ok((Bytes::new(), StateUpdate::None))
    }

    fn txn_commit(&mut self, _txn: TxnId) -> StateUpdate {
        self.writes_applied += 1;
        StateUpdate::Full(self.encode())
    }

    fn txn_abort(&mut self, _txn: TxnId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, RequestKind};
    use crate::types::{ClientId, Seq};
    use rand::SeedableRng;

    fn req(kind: RequestKind, seq: u64) -> Request {
        Request::new(RequestId::new(ClientId(1), Seq(seq)), kind, Bytes::new())
    }

    #[test]
    fn noop_reads_do_not_change_state() {
        let mut app = NoopApp::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let (_, up) = app.execute(&req(RequestKind::Read, 1), &mut ctx);
        assert!(up.is_none());
        assert_eq!(app.writes_applied, 0);
    }

    #[test]
    fn noop_writes_ship_full_state() {
        let mut app = NoopApp::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let (_, up) = app.execute(&req(RequestKind::Write, 1), &mut ctx);
        assert_eq!(app.writes_applied, 1);
        let StateUpdate::Full(b) = &up else {
            panic!("expected Full, got {up:?}");
        };
        assert_eq!(NoopApp::decode(b), 1);

        // A backup applying the update converges.
        let mut backup = NoopApp::new();
        backup.apply(&req(RequestKind::Write, 1), &up);
        assert_eq!(backup, app);
    }

    #[test]
    fn noop_snapshot_roundtrip() {
        let mut app = NoopApp::new();
        app.writes_applied = 42;
        let snap = app.snapshot();
        let mut restored = NoopApp::new();
        restored.restore(&snap);
        assert_eq!(restored, app);
    }

    #[test]
    fn noop_txn_counts_on_commit_only() {
        let mut app = NoopApp::new();
        let mut rng = SmallRng::seed_from_u64(1);
        app.txn_begin(TxnId(1));
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let r = Request::txn_op(
            RequestId::new(ClientId(1), Seq(1)),
            RequestKind::Write,
            TxnId(1),
            Bytes::new(),
        );
        app.txn_execute(TxnId(1), &r, false, &mut ctx).unwrap();
        assert_eq!(app.writes_applied, 0, "staged, not committed");
        let up = app.txn_commit(TxnId(1));
        assert_eq!(app.writes_applied, 1);
        assert!(!up.is_none());
    }

    #[test]
    fn default_txn_hooks_reject() {
        // A minimal app that doesn't override transactions.
        struct Plain;
        impl App for Plain {
            fn execute(&mut self, _r: &Request, _c: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
                (Bytes::new(), StateUpdate::None)
            }
            fn apply(&mut self, _r: &Request, _u: &StateUpdate) {}
            fn snapshot(&self) -> Bytes {
                Bytes::new()
            }
            fn restore(&mut self, _s: &[u8]) {}
        }
        let mut p = Plain;
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let r = req(RequestKind::Write, 1);
        assert_eq!(
            p.txn_execute(TxnId(1), &r, true, &mut ctx).unwrap_err(),
            AbortReason::Unsupported
        );
    }
}
