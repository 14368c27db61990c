//! The replica's service state and the one rule for what it reflects.
//!
//! §3.3 rests on one promise: replicas at the same chosen prefix hold the
//! same state, although only the leader executes. [`Executor`] keeps it.
//! It alone holds the [`App`] and the at-most-once table, and what they
//! hold is always *the chosen prefix*, or *the chosen prefix plus one open
//! window*: the leader's execution of the decree it is proposing
//! ([`Executor::execute`]). An app that keeps the window as an undo log
//! can still be asked for the chosen prefix alone, by a plain read
//! ([`Executor::answer_chosen`]).
//!
//! A decree reaches the service through [`Executor::chosen`] and no other
//! way. The very decree the window executed (`Arc::ptr_eq` on its entries
//! — not its instance number) commits the window; any other abandons it
//! first. A leadership that ends, a snapshot that arrives, a node that
//! stops: each calls [`Executor::abandon`], and the state is the chosen
//! prefix again. The ordering side (`mod.rs`, `leader.rs`, `candidate.rs`)
//! decides *which* decree is chosen and never touches service state.

use super::ReplicaStats;
use crate::command::{Command, Decree, DecreeEntry, DedupEntry, SnapshotBlob, StateUpdate};
use crate::config::ValueMode;
use crate::log::LOG_BYTES_FLOOR;
use crate::request::{AbortReason, ReplyBody, Request, RequestId, RequestKind, TxnCtl};
use crate::service::{App, ExecCtx};
use crate::types::{ClientId, Instance, Seq, Time, TxnId};
use bytes::Bytes;
use rand::rngs::SmallRng;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The leader's execution of a decree that is not chosen yet.
struct Window {
    /// The decree the execution built; the log and the `Accept` share it.
    decree: Decree,
    /// The state before it, for an app without an undo log of its own
    /// ([`App::tentative_begin`] returned `false`): O(state) per decree,
    /// the cost that hook exists to remove.
    pre: Option<Bytes>,
}

/// An incremental checkpoint in flight: the app holds a frozen image
/// ([`App::snapshot_begin`]) and [`Executor::pump`] streams its chunks.
pub(crate) struct Freeze {
    /// Chosen prefix the frozen image reflects.
    pub upto: Instance,
    /// Chunks the app promised at the freeze.
    pub total: usize,
    /// Next chunk to emit.
    next: usize,
    /// Bytes emitted so far.
    pub bytes: u64,
    /// Drive-clock time of the freeze (duration metrics only).
    pub started: Time,
}

/// Which bound on the log made a checkpoint due.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Due {
    /// `checkpoint_every` instances since the last one.
    Count,
    /// The retained decrees outweigh the image that replaces them.
    Bytes,
}

/// Owner of a replica's service state (module docs).
pub(crate) struct Executor {
    app: Box<dyn App>,
    value_mode: ValueMode,
    /// At-most-once table: last executed seq + reply per client.
    dedup: HashMap<ClientId, (Seq, ReplyBody)>,
    window: Option<Window>,
    last_checkpoint: Instance,
    /// App bytes of the last image written or installed (0 before any).
    last_image_bytes: u64,
    freeze: Option<Freeze>,
}

impl Executor {
    pub(crate) fn new(app: Box<dyn App>, value_mode: ValueMode) -> Executor {
        Executor {
            app,
            value_mode,
            dedup: HashMap::new(),
            window: None,
            last_checkpoint: Instance::ZERO,
            last_image_bytes: 0,
            freeze: None,
        }
    }

    /// Execute `batch` ahead of consensus and build its decree; the window
    /// stays open until [`Executor::chosen`] or [`Executor::abandon`].
    /// `tpaxos_ops` hands over the operations of a T-Paxos session whose
    /// commit is in the batch (`None` outside T-Paxos mode).
    pub(crate) fn execute(
        &mut self,
        batch: Vec<Request>,
        now: Time,
        rng: &mut SmallRng,
        stats: &mut ReplicaStats,
        mut tpaxos_ops: impl FnMut(RequestId) -> Option<Vec<Request>>,
    ) -> Decree {
        debug_assert!(self.window.is_none(), "one proposal at a time (§3.3)");
        let pre = (!self.app.tentative_begin()).then(|| self.app.snapshot());
        let decree = Decree {
            entries: batch
                .into_iter()
                .map(|req| self.entry(req, now, rng, stats, &mut tpaxos_ops))
                .collect(),
        };
        self.window = Some(Window {
            decree: decree.clone(),
            pre,
        });
        decree
    }

    /// Execute a request and build its decree entry `⟨req, state, reply⟩`.
    fn entry(
        &mut self,
        req: Request,
        now: Time,
        rng: &mut SmallRng,
        stats: &mut ReplicaStats,
        tpaxos_ops: &mut impl FnMut(RequestId) -> Option<Vec<Request>>,
    ) -> DecreeEntry {
        if let Some(reply) = self.executed(req.id) {
            // A retransmission that queued while a new leader was still
            // recovering the decree with the original. Every replica skips
            // this entry ([`Executor::chosen`]); it only carries the reply.
            let (cmd, update) = (Command::Req(req), StateUpdate::None);
            return DecreeEntry { cmd, update, reply };
        }
        let mut ctx = ExecCtx::new(now, rng);
        let aborted = |txn, reason| ReplyBody::TxnAborted { txn, reason };
        let (cmd, update, reply) = match req.txn {
            // Per-op coordinated transaction operation: stage durably and
            // replicate the staging record.
            Some(TxnCtl::Op { txn }) => match self.app.txn_execute(txn, &req, true, &mut ctx) {
                Ok((bytes, staging)) => (Command::Req(req), staging, ReplyBody::Ok(bytes)),
                Err(reason) => (Command::Req(req), StateUpdate::None, aborted(txn, reason)),
            },
            Some(TxnCtl::Commit { txn, .. }) => {
                let update = self.app.txn_commit(txn);
                stats.txns_committed += 1;
                let cmd = match tpaxos_ops(req.id) {
                    Some(ops) => Command::TxnCommit {
                        id: req.id,
                        txn,
                        ops,
                    },
                    None => Command::Req(req),
                };
                (cmd, update, ReplyBody::TxnCommitted { txn })
            }
            // Per-op mode: the staged effects were replicated, so their
            // disposal must be too.
            Some(TxnCtl::Abort { txn }) => {
                self.app.txn_abort(txn);
                stats.txns_aborted += 1;
                let reply = aborted(txn, AbortReason::ClientAbort);
                (Command::Req(req), StateUpdate::None, reply)
            }
            // 2PC phase one (cross-shard extension): a yes vote is a chosen
            // decree installing the prepared intent — the reply goes out
            // only after the decree commits, so `TxnPrepared` certifies a
            // majority-durable vote. A no vote stages nothing, so there is
            // nothing to replicate beyond the (dedup-table) reply.
            Some(TxnCtl::Prepare { txn }) => match self.app.txn_prepare(txn, &req, &mut ctx) {
                Ok(update) => (
                    Command::TxnPrepare { txn, req },
                    update,
                    ReplyBody::TxnPrepared { txn },
                ),
                Err(reason) => (Command::Req(req), StateUpdate::None, aborted(txn, reason)),
            },
            // 2PC phase two: the service reports the *actual* outcome (a
            // recorded home-group decision wins over the requested flag),
            // and the decree carries that outcome so backups resolve
            // identically.
            Some(TxnCtl::Decide {
                txn,
                commit,
                record,
            }) => {
                let (commit, update) = self.app.txn_decide(txn, commit, record);
                match (record, commit) {
                    (false, _) => {}
                    (true, true) => stats.txns_committed += 1,
                    (true, false) => stats.txns_aborted += 1,
                }
                let cmd = Command::TxnDecide {
                    id: req.id,
                    txn,
                    commit,
                    record,
                };
                let reply = if commit {
                    ReplyBody::TxnCommitted { txn }
                } else {
                    aborted(txn, AbortReason::ClientAbort)
                };
                (cmd, update, reply)
            }
            None => {
                let (bytes, update) = self.app.execute(&req, &mut ctx);
                let update = match (req.kind, self.value_mode) {
                    (RequestKind::Read, _) => {
                        debug_assert!(update.is_none(), "reads must not change state");
                        stats.consensus_reads += 1;
                        StateUpdate::None
                    }
                    // Classic baseline: ship the request only; backups
                    // re-execute (sound for deterministic services).
                    (_, ValueMode::ReqOnly) => StateUpdate::None,
                    (_, ValueMode::ReqState) => update,
                };
                // The update is the whole effect and the entry carries the
                // reply: where the service says `apply` will not read the
                // body beside it, the decree keeps the request's identity
                // and not a second copy of its value.
                let subsumed = ctx.op_subsumed()
                    && matches!(update, StateUpdate::Delta(_) | StateUpdate::Full(_));
                let op = if subsumed { Bytes::new() } else { req.op };
                let req = Request { op, ..req };
                (Command::Req(req), update, ReplyBody::Ok(bytes))
            }
        };
        DecreeEntry { cmd, update, reply }
    }

    /// Instance by instance, the chosen decrees arrive here — the only way
    /// one reaches the service and the dedup table. The decree the open
    /// window executed commits the window (the state already reflects it);
    /// any other abandons the window, if one is open, and is applied.
    pub(crate) fn chosen(&mut self, decree: &Decree, rng: &mut SmallRng) {
        let own = self
            .window
            .as_ref()
            .is_some_and(|w| Arc::ptr_eq(&w.decree.entries, &decree.entries));
        if !own {
            self.abandon();
        } else if self.window.take().is_some_and(|w| w.pre.is_none()) {
            self.app.tentative_commit();
        }
        for entry in decree.entries.iter() {
            let Some(id) = entry.cmd.request_id() else {
                continue; // no-op gap filler
            };
            if self.executed(id).is_some() {
                continue; // at most once
            }
            if !own {
                self.apply(entry, rng);
            }
            self.dedup.insert(id.client, (id.seq, entry.reply.clone()));
        }
    }

    /// Apply one entry of a decree executed elsewhere.
    fn apply(&mut self, entry: &DecreeEntry, rng: &mut SmallRng) {
        match &entry.cmd {
            Command::Noop => {}
            Command::Req(req) if self.value_mode == ValueMode::ReqOnly => {
                // Classic SMR: every replica executes. Only sound for
                // deterministic services.
                let _ = self.app.execute(req, &mut ExecCtx::new(Time::ZERO, rng));
            }
            // A 2PC intent install is a self-describing staging delta,
            // applied like any replicated write.
            Command::Req(req) | Command::TxnPrepare { req, .. } => {
                self.app.apply(req, &entry.update);
            }
            Command::TxnCommit { txn, ops, .. } => {
                self.app.apply_txn_commit(*txn, ops, &entry.update);
            }
            Command::TxnDecide { txn, commit, .. } => {
                self.app.apply_txn_decide(*txn, *commit, &entry.update);
            }
        }
    }

    /// Close the window without its decree: the state is the chosen prefix
    /// again. A no-op when no window is open.
    pub(crate) fn abandon(&mut self) {
        match self.window.take() {
            None => {}
            Some(Window { pre: Some(pre), .. }) => self.app.restore(&pre),
            Some(Window { pre: None, .. }) => self.app.tentative_rollback(),
        }
    }

    /// Whether the state runs one unchosen decree ahead of the prefix.
    pub(crate) fn window_open(&self) -> bool {
        self.window.is_some()
    }

    /// At most once: whether a chosen decree already executed `id` or a
    /// later request of its client, and the reply owed then — the cached
    /// one while `id` is still the client's latest.
    fn executed(&self, id: RequestId) -> Option<ReplyBody> {
        let known = self.last_reply(id.client);
        let (seq, reply) = known.filter(|(seq, _)| *seq >= id.seq)?;
        Some(if seq == id.seq {
            reply.clone()
        } else {
            ReplyBody::Empty
        })
    }

    /// The last request of `client` a chosen decree executed, and its
    /// reply.
    pub(crate) fn last_reply(&self, client: ClientId) -> Option<(Seq, &ReplyBody)> {
        self.dedup.get(&client).map(|(s, r)| (*s, r))
    }

    /// Execute `req` and answer at once: a read (a per-op transactional
    /// one through its transaction's view, own staged writes visible), or
    /// the unreplicated `Original` baseline.
    pub(crate) fn answer(&mut self, req: &Request, now: Time, rng: &mut SmallRng) -> ReplyBody {
        let mut ctx = ExecCtx::new(now, rng);
        let read = req.kind == RequestKind::Read;
        let (bytes, update) = match req.txn {
            Some(TxnCtl::Op { txn }) if read => {
                match self.app.txn_execute(txn, req, true, &mut ctx) {
                    Ok(done) => done,
                    Err(reason) => return ReplyBody::TxnAborted { txn, reason },
                }
            }
            _ => self.app.execute(req, &mut ctx),
        };
        debug_assert!(!read || update.is_none(), "reads must not change state");
        ReplyBody::Ok(bytes)
    }

    /// Answer plain read `req` from the chosen prefix while the window is
    /// open: the app is asked for the state before the window
    /// ([`ExecCtx::wants_chosen_state`]), and its reply counts only if it
    /// says it answered from there. An app without an undo log of its own
    /// is not asked — its window holds a snapshot, not the pre-images a
    /// read of chosen state needs — and neither is one with no window.
    pub(crate) fn answer_chosen(
        &mut self,
        req: &Request,
        now: Time,
        rng: &mut SmallRng,
    ) -> Option<ReplyBody> {
        debug_assert!(req.kind == RequestKind::Read && req.txn.is_none());
        self.window.as_ref().filter(|w| w.pre.is_none())?;
        let mut ctx = ExecCtx::for_chosen_state(now, rng);
        let (bytes, update) = self.app.execute(req, &mut ctx);
        debug_assert!(update.is_none(), "reads must not change state");
        ctx.chosen_state_answered().then_some(ReplyBody::Ok(bytes))
    }

    /// Stage one T-Paxos operation (`first` opens the session). Volatile:
    /// the effect lives only on this leader until the commit decree
    /// replicates it. A refused operation aborts the session.
    pub(crate) fn stage(
        &mut self,
        txn: TxnId,
        first: bool,
        req: &Request,
        now: Time,
        rng: &mut SmallRng,
    ) -> Result<Bytes, AbortReason> {
        if first {
            self.app.txn_begin(txn);
        }
        let mut ctx = ExecCtx::new(now, rng);
        let staged = self.app.txn_execute(txn, req, false, &mut ctx);
        if staged.is_err() {
            self.app.txn_abort(txn);
        }
        staged.map(|(bytes, _staging_ignored)| bytes)
    }

    /// Discard a T-Paxos session's staged effects.
    pub(crate) fn txn_abort(&mut self, txn: TxnId) {
        self.app.txn_abort(txn);
    }

    /// The service state as it stands (an open window included).
    pub(crate) fn state(&self) -> Bytes {
        self.app.snapshot()
    }

    /// The dedup table in client order: a `HashMap` iterates in arbitrary
    /// order per process, and snapshots must serialize identically on
    /// every replica or state digests (and seeded replays) diverge on
    /// equal states.
    fn dedup_table(&self) -> Vec<DedupEntry> {
        let mut table: Vec<DedupEntry> = self
            .dedup
            .iter()
            .map(|(c, (s, r))| DedupEntry {
                client: *c,
                seq: *s,
                reply: r.clone(),
            })
            .collect();
        table.sort_unstable_by_key(|e| e.client);
        table
    }

    /// Replace everything with `snap` (a checkpoint at recovery, or an
    /// image a catch-up assembled). The incoming state obliterates
    /// the local one, so an open window is abandoned and a freeze thawed
    /// first: `restore` sees a quiesced app. Returns whether a freeze was
    /// in flight — its half-written checkpoint is the caller's to abort.
    pub(crate) fn install(&mut self, snap: &SnapshotBlob) -> bool {
        let thawed = self.freeze.take().is_some();
        if thawed {
            self.app.snapshot_end();
        }
        self.abandon();
        self.app.restore(&snap.app);
        let table = snap.dedup.iter();
        self.dedup = table
            .map(|e| (e.client, (e.seq, e.reply.clone())))
            .collect();
        self.last_checkpoint = snap.upto;
        self.last_image_bytes = snap.app.len() as u64;
        thawed
    }

    /// Whether a checkpoint is due at `prefix`, and by which bound on the
    /// log: `every` instances past the last one (the cap), or `log_bytes`
    /// of retained decrees outweighing the image that replaces them —
    /// twice its size, and no less than [`LOG_BYTES_FLOOR`]. `every == 0`
    /// means never. Not while one is being written, and not over an open
    /// window: the image must be chosen state only.
    pub(crate) fn checkpoint_due(
        &self,
        prefix: Instance,
        every: u64,
        log_bytes: u64,
    ) -> Option<Due> {
        if every == 0 || self.freeze.is_some() || self.window.is_some() {
            None
        } else if prefix.0 - self.last_checkpoint.0 >= every {
            Some(Due::Count)
        } else if log_bytes >= LOG_BYTES_FLOOR.max(2 * self.last_image_bytes) {
            Some(Due::Bytes)
        } else {
            None
        }
    }

    /// A checkpoint at `upto`, an image of `image_bytes`, is complete.
    pub(crate) fn checkpointed(&mut self, upto: Instance, image_bytes: u64) {
        self.last_checkpoint = upto;
        self.last_image_bytes = image_bytes;
    }

    /// Freeze the state at `prefix` for emission in chunks of
    /// `chunk_bytes`; returns the dedup table and the chunk count.
    pub(crate) fn freeze_at(
        &mut self,
        prefix: Instance,
        chunk_bytes: usize,
        now: Time,
    ) -> (Vec<DedupEntry>, usize) {
        let total = self.app.snapshot_begin(chunk_bytes);
        self.freeze = Some(Freeze {
            upto: prefix,
            total,
            next: 0,
            bytes: 0,
            started: now,
        });
        (self.dedup_table(), total)
    }

    /// Whether a freeze is in flight.
    pub(crate) fn frozen(&self) -> bool {
        self.freeze.is_some()
    }

    /// Hand up to `budget` chunks of the frozen image to `sink`. After the
    /// last one the image is released and the finished freeze returned.
    pub(crate) fn pump(
        &mut self,
        budget: usize,
        mut sink: impl FnMut(usize, Bytes),
    ) -> Option<Freeze> {
        let ck = self.freeze.as_mut()?;
        for _ in 0..budget.min(ck.total - ck.next) {
            let data = self.app.snapshot_chunk(ck.next);
            ck.bytes += data.len() as u64;
            sink(ck.next, data);
            ck.next += 1;
        }
        if ck.next < ck.total {
            return None;
        }
        self.app.snapshot_end();
        self.freeze.take()
    }

    /// Everything above that shapes later behaviour, for the model
    /// checker's fingerprint (the drive clock stays out, as all clocks do).
    pub(crate) fn fingerprint(&self, h: &mut impl Hasher) {
        (self.last_checkpoint, self.last_image_bytes).hash(h);
        self.window.as_ref().map(|w| w.pre.is_none()).hash(h);
        if let Some(ck) = &self.freeze {
            (ck.upto, ck.total, ck.next, ck.bytes).hash(h);
        }
        // By reference, in client order: this runs once per explored state.
        let mut dedup: Vec<_> = self.dedup.iter().collect();
        dedup.sort_unstable_by_key(|(c, _)| **c);
        dedup.hash(h);
        self.state().hash(h);
    }
}
