//! A transactional key-value store: plain reads and writes, and three
//! kinds of transaction, each staging its writes until it ends —
//!
//! * **per-operation coordination** (§4.2): each staged write rides its
//!   own decree, so staging is replicated state — `durable`: mirrored by
//!   `Stage` / `CommitTxn` / `AbortTxn` deltas, part of the image;
//! * **T-Paxos** (§4.2): staged writes live on the current leader only —
//!   `volatile`: never in the image, cleared by `restore` and by a
//!   rollback, as the [`App`] contract asks; the commit decree carries
//!   the whole batch;
//! * **cross-shard 2PC** (our extension): a PREPARE vote is a promise, so
//!   the intent is replicated state — `prepared`: installed by
//!   `Prepare2pc`, resolved only by a decide — beside the home group's
//!   `decisions`.
//!
//! Five files: `ops` is what crosses the boundary ([`KvOp`], the write
//! it resolves to, the deltas a decree ships, replies, codecs, the shard
//! router); `intents` the one shape of a staged write (`Intents`) and
//! the decision table; `image` the snapshot image, the first-touch
//! overlay and chunked emission; `audit` what a quiescent deployment
//! that ran transfers must satisfy; this file [`KvStore`] and its `App`.
//!
//! One rule: **a key has at most one holder across the three `Intents`**,
//! and `KvStore::held_by_other` alone asks. A write to a held key is
//! refused, never queued — [`AbortReason::Conflict`] to a transaction,
//! `\0LOCKED` to a plain write: "any service that supports transactions
//! needs to deal with concurrency of this type using locks or other
//! mechanisms" (§3.5). A `TxnId` comes from one client counter
//! (`core/src/client.rs`, `next_txn`) and names one transaction in one
//! mode, so a transaction reads its own writes through the `Intents` it
//! stages into.

mod audit;
mod image;
mod intents;
mod ops;

pub use audit::{agreed_stores, audit_transfers};
pub use ops::{decode_txn_ops, encode_txn_ops, shard_router, transfer_legs, KvOp, SCAN_BLOCKED};

use bytes::Bytes;
use gridpaxos_core::command::StateUpdate;
use gridpaxos_core::request::{AbortReason, Request, TxnCtl};
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::types::TxnId;
use image::{entry_enc_len, Frozen, Overlay};
use intents::{Decisions, Intents};
use ops::{
    fence_reply, fnv1a, value_reply, versioned_scan_reply, Change, KvDelta, KvWrite, ReadOp,
};
use std::collections::BTreeMap;

/// A transaction's view of the store: the `Intents` it stages into and
/// its id. `None` is a plain request's view, committed state alone.
type View<'a> = Option<(&'a Intents, u64)>;

/// What rolling back a tentative leader-side execution
/// ([`App::tentative_begin`]) puts back — byte for byte what
/// `restore(pre-exec snapshot)` would, at O(touched) instead of O(state).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Tentative {
    /// Pre-images of committed keys mutated since `tentative_begin`.
    undo: Overlay,
    /// `durable` and `prepared` as they were (bounded by open
    /// transactions).
    durable: Intents,
    prepared: Intents,
    /// Decisions recorded since. The table is insert-only and grows
    /// without bound: the window keeps these ids, never a copy of it.
    decided: Vec<u64>,
    /// State version as of `tentative_begin`.
    version: u64,
}

/// The store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    committed: BTreeMap<String, String>,
    /// Exact encoded size of the committed entries (excluding the u32
    /// count header), maintained incrementally on every mutation. Lets
    /// `encode_state` reserve once and `snapshot_begin` price the whole
    /// snapshot in O(1).
    committed_enc_bytes: usize,
    /// Replicated staging (per-op coordinated transactions).
    durable: Intents,
    /// Leader-local staging (T-Paxos). Never snapshotted.
    volatile: Intents,
    /// Replicated 2PC intents, held from prepare to decide.
    prepared: Intents,
    /// Replicated 2PC outcomes (home-group role).
    decisions: Decisions,
    /// Replicated state version: bumped once per state-mutating decree on
    /// every replica, identically on leader and backups. The fence a
    /// merged cross-group scan checks for consistency.
    version: u64,
    /// Shard placement, if this store is one shard of a multi-group
    /// deployment: `(own group, total groups)`. Deployment configuration,
    /// not replicated state: never snapshotted, preserved across restore.
    shard: Option<(u32, u32)>,
    /// In-progress chunked snapshot, if any.
    frozen: Option<Frozen>,
    /// In-progress tentative execution, if any.
    tentative: Option<Tentative>,
}

impl KvStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// Empty store acting as one shard of a multi-group deployment, with
    /// unknown placement: [`App::shard_key`] reports per-key placement
    /// and `Scan` replies are version-prefixed for merged cross-group
    /// reads. Prefer [`KvStore::sharded_in`], which also lets the store
    /// refuse 2PC write sets that do not belong to its group.
    #[must_use]
    pub fn sharded() -> KvStore {
        KvStore::sharded_in(0, 1)
    }

    /// Empty store acting as group `group` of `n_groups`. Knowing its own
    /// placement, the store verifies at prepare time that every key in a
    /// 2PC write set actually hashes to this group and refuses the vote
    /// with [`AbortReason::CrossShard`] otherwise — a misrouted leg must
    /// not acquire locks it can never be asked to resolve correctly.
    #[must_use]
    pub fn sharded_in(group: u32, n_groups: usize) -> KvStore {
        KvStore {
            shard: Some((group, n_groups.max(1) as u32)),
            ..KvStore::default()
        }
    }

    /// Committed value of `key` (tests / examples).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.committed.get(key).map(String::as_str)
    }

    /// Number of committed keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// Whether the committed map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// The replicated state version (bumped once per state-mutating
    /// decree). What `Fence` reads and versioned scans are fenced on.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Committed entries in key order (checkers and tests).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.committed.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Transactions currently holding a prepared 2PC intent here.
    #[must_use]
    pub fn prepared_txns(&self) -> Vec<u64> {
        self.prepared.txns().collect()
    }

    /// The recorded decision for `txn`, if this store's group is its home
    /// and a decide-with-record decree has been chosen.
    #[must_use]
    pub fn decision(&self, txn: u64) -> Option<bool> {
        self.decisions.get(&txn).copied()
    }

    /// The conflict rule: whether a transaction other than `txn` holds
    /// `key`, in any of the three modes (`None`: the asker is a plain
    /// write, so any holder is another).
    fn held_by_other(&self, key: &str, txn: Option<u64>) -> bool {
        [&self.durable, &self.volatile, &self.prepared]
            .iter()
            .any(|held| held.held_by_other(key, txn))
    }

    /// Set or remove a committed entry, maintaining the incremental
    /// encoded-size counter. Does *not* record undo (rollback uses it to
    /// restore pre-images directly).
    fn set_committed(&mut self, k: String, v: Option<String>) {
        let empty = entry_enc_len(&k, "");
        let old = match v {
            Some(v) => {
                self.committed_enc_bytes += empty + v.len();
                self.committed.insert(k, v)
            }
            None => self.committed.remove(&k),
        };
        if let Some(old) = old {
            self.committed_enc_bytes -= empty + old.len();
        }
    }

    /// Every committed-map mutation funnels through here: the pre-image
    /// goes into both active overlays before the map changes, so frozen
    /// snapshots and tentative rollbacks see consistent images.
    fn apply_write(&mut self, w: KvWrite) {
        let frozen = self.frozen.as_mut().map(|fz| &mut fz.undo);
        let tentative = self.tentative.as_mut().map(|tn| &mut tn.undo);
        for overlay in [frozen, tentative].into_iter().flatten() {
            overlay.record(w.key(), &self.committed);
        }
        match w {
            KvWrite::Put(k, v) => self.set_committed(k, Some(v)),
            KvWrite::Del(k) => self.set_committed(k, None),
        }
    }

    /// One state-mutating decree's worth of committed writes.
    fn commit_writes(&mut self, ws: impl IntoIterator<Item = KvWrite>) {
        for w in ws {
            self.apply_write(w);
        }
        self.version += 1;
    }

    /// The value of `key` through `view`: the transaction's own last
    /// staged write, else committed state.
    fn read_through<'a>(&'a self, view: View<'a>, key: &str) -> Option<&'a str> {
        match view.and_then(|(staged, txn)| staged.staged_value(txn, key)) {
            Some(own) => own,
            None => self.get(key),
        }
    }

    /// Answer a plain read from the state before the open tentative
    /// window (`ExecCtx::wants_chosen_state`): a `Get` from the key's
    /// pre-image, or its committed value if the window left it alone; a
    /// `Fence` from the version the window began at. A `Scan` would merge
    /// the pre-images into a range and is not answered here: it waits for
    /// the window to close.
    fn answer_chosen(&self, read: &ReadOp) -> Option<Bytes> {
        let tn = self.tentative.as_ref();
        match read {
            ReadOp::Get(k) => {
                let pre = tn.and_then(|tn| tn.undo.pre_image(k));
                Some(value_reply(pre.unwrap_or_else(|| self.get(k))))
            }
            ReadOp::Fence => Some(fence_reply(tn.map_or(self.version, |tn| tn.version))),
            ReadOp::Scan(_) => None,
        }
    }

    /// Answer a read, a `Get` through the asker's own staged writes.
    fn answer(&self, view: View<'_>, read: &ReadOp) -> Bytes {
        match read {
            ReadOp::Get(k) => value_reply(self.read_through(view, k)),
            ReadOp::Scan(p) => self.scan_reply(p),
            ReadOp::Fence => fence_reply(self.version),
        }
    }

    /// Prefix scan over committed state (staged transaction writes are not
    /// visible to scans), `key=value` per line.
    ///
    /// On a sharded store the reply is one leg of a merged cross-group
    /// read, so it is prefixed with the state version (tag byte `1` +
    /// `u64` version + body; see [`KvStore::decode_versioned_scan`]) — the
    /// client re-reads every group's version after collecting the legs and
    /// accepts the merge only if none moved. A scan overlapping a prepared
    /// 2PC intent is refused with [`SCAN_BLOCKED`]: those bytes' fate is
    /// undecided and serving either value could expose a half-committed
    /// transaction.
    fn scan_reply(&self, prefix: &str) -> Bytes {
        if self.shard.is_some() && self.prepared.holds_prefix(prefix) {
            return Bytes::from_static(SCAN_BLOCKED);
        }
        let mut out = String::new();
        for (k, v) in self.committed.range(prefix.to_owned()..) {
            if !k.starts_with(prefix) {
                break;
            }
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        match self.shard {
            Some(_) => versioned_scan_reply(self.version, &out),
            None => Bytes::from(out.into_bytes()),
        }
    }

    /// Whether `key` belongs to a different consensus group than this
    /// store (only decidable when the store knows its placement).
    fn foreign_key(&self, key: &str) -> bool {
        match self.shard {
            Some((group, n_groups)) if n_groups > 1 => {
                (fnv1a(key.as_bytes()) % u64::from(n_groups)) as u32 != group
            }
            _ => false,
        }
    }

    /// Resolve a write op to the concrete write it implies; its reply is
    /// the value it stores, empty for a delete. An `Add` reads the current
    /// value through `view` and becomes the `Put` of the sum — wrapping, as
    /// the release binaries always have: the operands are the client's,
    /// and a checked sum would be a panic inside `execute`.
    fn write_of(&self, view: View<'_>, key: String, change: Change) -> KvWrite {
        let value = match change {
            Change::Del => return KvWrite::Del(key),
            Change::Put(v) => v,
            Change::Add(d) => {
                let cur = self.read_through(view, &key);
                let cur: i64 = cur.and_then(|v| v.parse().ok()).unwrap_or(0);
                cur.wrapping_add(d).to_string()
            }
        };
        KvWrite::Put(key, value)
    }

    /// Resolve a 2PC transaction locally: record the decision if asked
    /// (first writer wins), then apply or drop the intent. Returns the
    /// *actual* outcome — the recorded decision when one exists, which may
    /// differ from what the caller requested (the in-doubt race). Shared
    /// verbatim by the leader (`txn_decide`) and backups
    /// (`apply_txn_decide`) so the two can never diverge.
    fn decide_2pc(&mut self, txn: u64, commit: bool, record: bool) -> bool {
        let actual = if record {
            let first = !self.decisions.contains_key(&txn);
            if let (true, Some(tn)) = (first, &mut self.tentative) {
                tn.decided.push(txn);
            }
            *self.decisions.entry(txn).or_insert(commit)
        } else {
            // Participant-directed decide: trust the recorded decision if
            // this group happens to also be the home, else the message.
            self.decisions.get(&txn).copied().unwrap_or(commit)
        };
        let intent = self.prepared.take(txn).filter(|_| actual);
        self.commit_writes(intent.into_iter().flatten());
        actual
    }

    /// What a delta does to the store — on the backup that receives it
    /// and, for staging and intents, on the leader that made it.
    fn apply_delta(&mut self, delta: KvDelta) {
        match delta {
            KvDelta::ApplyWrites(ws) => self.commit_writes(ws),
            KvDelta::Stage(txn, w) => self.durable.stage(txn, w),
            KvDelta::CommitTxn(txn) => {
                let ws = self.durable.take(txn);
                self.commit_writes(ws.into_iter().flatten());
            }
            KvDelta::AbortTxn(txn) => drop(self.durable.take(txn)),
            KvDelta::Prepare2pc(txn, ws) => {
                self.prepared.put(txn, ws);
                self.version += 1;
            }
            KvDelta::Decide2pc {
                txn,
                commit,
                record,
            } => drop(self.decide_2pc(txn, commit, record)),
        }
    }

    /// Become the store `image` encodes; a malformed image is ignored.
    fn install(&mut self, image: Bytes) {
        if let Some(mut s) = KvStore::decode_state(image) {
            s.shard = self.shard; // deployment config, not state
            *self = s; // volatile staging cleared by construction
        }
    }
}

impl App for KvStore {
    fn execute(&mut self, req: &Request, ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        let Some(op) = KvOp::decode(req.op.clone()) else {
            return (Bytes::from_static(b"\0BAD_OP"), StateUpdate::None);
        };
        let (key, change) = match op.into_write() {
            Ok(write) => write,
            Err(read) => {
                let chosen = ctx.wants_chosen_state().then(|| self.answer_chosen(&read));
                if let Some(body) = chosen.flatten() {
                    ctx.answered_from_chosen_state();
                    return (body, StateUpdate::None);
                }
                return (self.answer(None, &read), StateUpdate::None);
            }
        };
        // A non-transactional write still respects transaction locks —
        // including 2PC intent locks, whose keys' fate is decided
        // elsewhere: refuse to clobber a key a transaction holds.
        if self.held_by_other(&key, None) {
            return (Bytes::from_static(b"\0LOCKED"), StateUpdate::None);
        }
        // The decoded value is copied into the delta, then moved into the
        // store. A put's value ends its delta and is its reply: the reply
        // is that slice, so the decree ships and logs the value once.
        let w = self.write_of(None, key, change);
        let delta = KvDelta::encode_apply_writes(std::slice::from_ref(&w));
        let reply = delta.slice(delta.len() - w.value().map_or(0, str::len)..);
        self.commit_writes([w]);
        // The delta names its own key and value; `apply` reads `req.txn`
        // (the payload-less abort) and never `req.op`.
        ctx.update_subsumes_op();
        (reply, StateUpdate::Delta(delta))
    }

    fn apply(&mut self, req: &Request, update: &StateUpdate) {
        match update {
            StateUpdate::None => {
                // A coordinated abort ships no payload; the transaction
                // control on the request tells us what to discard.
                if let Some(TxnCtl::Abort { txn }) = req.txn {
                    self.durable.take(txn.0);
                }
            }
            StateUpdate::Full(b) => self.install(b.clone()),
            // (The store emits no `Reproduce`; `of` finds no delta in one.)
            StateUpdate::Delta(_) | StateUpdate::Reproduce(_) => {
                if let Some(delta) = KvDelta::of(update) {
                    self.apply_delta(delta);
                }
            }
        }
    }

    fn snapshot(&self) -> Bytes {
        // Volatile staging deliberately excluded (leader-local only).
        self.encode_state()
    }

    fn restore(&mut self, snap: &[u8]) {
        self.install(Bytes::copy_from_slice(snap));
    }

    fn shard_key(&self, req: &Request) -> Option<u64> {
        self.shard?;
        KvOp::decode(req.op.clone()).and_then(|op| op.shard_key())
    }

    fn txn_execute(
        &mut self,
        txn: TxnId,
        req: &Request,
        durable: bool,
        _ctx: &mut ExecCtx<'_>,
    ) -> Result<(Bytes, StateUpdate), AbortReason> {
        let Some(op) = KvOp::decode(req.op.clone()) else {
            return Err(AbortReason::Conflict);
        };
        let t = txn.0;
        let staged = if durable {
            &self.durable
        } else {
            &self.volatile
        };
        let (key, change) = match op.into_write() {
            Ok(write) => write,
            // A transaction session lives on one group's leader; a
            // consistent cross-group scan needs the merged-read protocol,
            // not a single-group transaction.
            Err(ReadOp::Scan(_)) if self.shard.is_some() => return Err(AbortReason::CrossShard),
            Err(read) => return Ok((self.answer(Some((staged, t)), &read), StateUpdate::None)),
        };
        if self.held_by_other(&key, Some(t)) {
            return Err(AbortReason::Conflict);
        }
        let w = self.write_of(Some((staged, t)), key, change);
        if !durable {
            let reply = Bytes::copy_from_slice(w.value().unwrap_or_default().as_bytes());
            self.volatile.stage(t, w);
            return Ok((reply, StateUpdate::None)); // not replicated
        }
        // As in `execute`: the value ends its `Stage` delta and is its
        // reply, so the decree ships and logs it once.
        let value = w.value().map_or(0, str::len);
        let delta = KvDelta::Stage(t, w);
        let update = delta.encode();
        let reply = update.slice(update.len() - value..);
        self.apply_delta(delta);
        Ok((reply, StateUpdate::Delta(update)))
    }

    fn txn_commit(&mut self, txn: TxnId) -> StateUpdate {
        let t = txn.0;
        if let Some(ws) = self.volatile.take(t) {
            // T-Paxos: ship the whole batch; backups have no staging.
            let delta = KvDelta::encode_apply_writes(&ws);
            self.commit_writes(ws);
            StateUpdate::Delta(delta)
        } else if let Some(ws) = self.durable.take(t) {
            // Per-op coordination: backups hold identical staging; a
            // commit marker suffices.
            self.commit_writes(ws);
            StateUpdate::Delta(KvDelta::CommitTxn(t).encode())
        } else {
            StateUpdate::None // empty transaction
        }
    }

    fn txn_abort(&mut self, txn: TxnId) {
        self.volatile.take(txn.0);
        self.durable.take(txn.0);
    }

    fn apply_txn_commit(&mut self, _txn: TxnId, _ops: &[Request], update: &StateUpdate) {
        if let Some(delta @ KvDelta::ApplyWrites(_)) = KvDelta::of(update) {
            self.apply_delta(delta);
        }
    }

    // ---- 2PC participant / home-group hooks -----------------------------

    fn txn_prepare(
        &mut self,
        txn: TxnId,
        req: &Request,
        _ctx: &mut ExecCtx<'_>,
    ) -> Result<StateUpdate, AbortReason> {
        let t = txn.0;
        // A late prepare for a transaction whose fate is already recorded
        // here (this group is its home and a resolver beat us) must not
        // create an intent nobody will resolve.
        if self.decisions.contains_key(&t) {
            return Err(AbortReason::InDoubt);
        }
        // 2PC legs are pure, non-empty write sets; reads ride the
        // merged-read protocol instead.
        let leg = decode_txn_ops(req.op.clone())
            .and_then(|ops| ops.into_iter().map(|op| op.into_write().ok()).collect())
            .filter(|leg: &Vec<_>| !leg.is_empty())
            .ok_or(AbortReason::Unsupported)?;
        // Every key must hash to this group — a misrouted leg gets a
        // typed refusal, not silently-wrong locks.
        if leg.iter().any(|(key, _)| self.foreign_key(key)) {
            return Err(AbortReason::CrossShard);
        }
        // Vote no on any lock conflict: 2PC never waits, it aborts and
        // lets the coordinator retry.
        if leg.iter().any(|(key, _)| self.held_by_other(key, Some(t))) {
            return Err(AbortReason::Conflict);
        }
        // Resolve the ops to concrete writes *now*, under the locks — an
        // `Add` reads the committed value through the earlier writes of
        // this same leg (and of no earlier prepare of `t`: a re-prepare
        // starts over).
        let mut resolved = Intents::default();
        for (key, change) in leg {
            let w = self.write_of(Some((&resolved, t)), key, change);
            resolved.stage(t, w);
        }
        let delta = KvDelta::Prepare2pc(t, resolved.take(t).unwrap_or_default());
        let update = StateUpdate::Delta(delta.encode());
        self.apply_delta(delta);
        Ok(update)
    }

    fn txn_decide(&mut self, txn: TxnId, commit: bool, record: bool) -> (bool, StateUpdate) {
        let actual = self.decide_2pc(txn.0, commit, record);
        // Always ship the delta (even when no local intent existed): the
        // backups must mirror the decision-table insert and the version
        // bump, and a recorded decision must carry the *actual* outcome.
        let delta = KvDelta::Decide2pc {
            txn: txn.0,
            commit: actual,
            record,
        };
        (actual, StateUpdate::Delta(delta.encode()))
    }

    fn apply_txn_decide(&mut self, txn: TxnId, commit: bool, update: &StateUpdate) {
        // The delta carries the leader's resolved outcome; fall back to
        // the command's flag only if the payload is missing.
        match KvDelta::of(update) {
            Some(delta @ KvDelta::Decide2pc { .. }) => self.apply_delta(delta),
            _ => drop(self.decide_2pc(txn.0, commit, false)),
        }
    }

    // ---- tentative execution (undo log; replaces pre-exec snapshots) ----

    fn tentative_begin(&mut self) -> bool {
        debug_assert!(self.tentative.is_none(), "tentative windows never nest");
        self.tentative = Some(Tentative {
            undo: Overlay::default(),
            durable: self.durable.clone(),
            prepared: self.prepared.clone(),
            decided: Vec::new(),
            version: self.version,
        });
        true
    }

    fn tentative_rollback(&mut self) {
        let Some(tn) = self.tentative.take() else {
            return;
        };
        // Mirror `restore(pre-exec snapshot)` exactly: committed entries
        // back to their pre-images, replicated staging and intents back to
        // their clones, the window's decisions unrecorded, volatile
        // staging cleared.
        for (k, img) in tn.undo.into_pre_images() {
            self.set_committed(k, img);
        }
        self.durable = tn.durable;
        self.prepared = tn.prepared;
        for txn in tn.decided {
            self.decisions.remove(&txn);
        }
        self.version = tn.version;
        self.volatile = Intents::default();
    }

    fn tentative_commit(&mut self) {
        self.tentative = None;
    }

    // ---- chunked snapshots (incremental checkpoints) --------------------

    fn snapshot_begin(&mut self, chunk_bytes: usize) -> usize {
        debug_assert!(self.frozen.is_none(), "snapshots never nest");
        self.frozen.insert(Frozen::of(self, chunk_bytes)).total
    }

    fn snapshot_chunk(&mut self, idx: usize) -> Bytes {
        match &mut self.frozen {
            Some(fz) => fz.chunk(&self.committed, idx),
            None => {
                debug_assert!(false, "snapshot_chunk outside a snapshot window");
                self.snapshot()
            }
        }
    }

    fn snapshot_end(&mut self) {
        self.frozen = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridpaxos_core::request::{RequestId, RequestKind};
    use gridpaxos_core::types::{ClientId, Seq, Time};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    pub(super) fn req(seq: u64, kind: RequestKind, op: &KvOp) -> Request {
        Request::new(RequestId::new(ClientId(1), Seq(seq)), kind, op.encode())
    }

    pub(super) fn txn_req(seq: u64, kind: RequestKind, txn: TxnId, op: &KvOp) -> Request {
        Request::txn_op(
            RequestId::new(ClientId(1), Seq(seq)),
            kind,
            txn,
            op.encode(),
        )
    }

    pub(super) fn exec(store: &mut KvStore, r: &Request) -> (Bytes, StateUpdate) {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        store.execute(r, &mut ctx)
    }

    #[test]
    fn put_get_del_roundtrip_with_backup_convergence() {
        let mut leader = KvStore::new();
        let mut backup = KvStore::new();

        let put = req(1, RequestKind::Write, &KvOp::Put("a".into(), "1".into()));
        let (_, up) = exec(&mut leader, &put);
        backup.apply(&put, &up);
        assert_eq!(leader.get("a"), Some("1"));
        assert_eq!(backup, leader);

        let get = req(2, RequestKind::Read, &KvOp::Get("a".into()));
        let (reply, up) = exec(&mut leader, &get);
        assert!(up.is_none());
        assert_eq!(KvStore::decode_reply(&reply), Some("1".into()));

        let del = req(3, RequestKind::Write, &KvOp::Del("a".into()));
        let (_, up) = exec(&mut leader, &del);
        backup.apply(&del, &up);
        assert_eq!(leader.get("a"), None);
        assert_eq!(backup, leader);
    }

    /// A plain write answers with the value its delta carries, as a slice
    /// of the delta, so its decree ships and logs the value once; a delete
    /// answers with nothing.
    #[test]
    fn a_writes_reply_is_a_slice_of_its_delta() {
        use gridpaxos_core::command::{Command, DecreeEntry};
        use gridpaxos_core::request::ReplyBody;
        let mut s = KvStore::new();
        let long = "v".repeat(2048);
        for (seq, op, want) in [
            (1, KvOp::Put("k".into(), long.clone()), long.as_str()),
            (2, KvOp::Add("n".into(), 5), "5"),
            (3, KvOp::Add("n".into(), -7), "-2"),
            (4, KvOp::Del("k".into()), ""),
        ] {
            let (reply, update) = exec(&mut s, &req(seq, RequestKind::Write, &op));
            assert_eq!(reply, want.as_bytes());
            let entry = DecreeEntry {
                cmd: Command::Noop,
                update,
                reply: ReplyBody::Ok(reply),
            };
            assert_eq!(
                entry.reply_in_update().is_some(),
                !want.is_empty(),
                "{op:?}"
            );
        }
        // A durable staged write (per-operation coordination) ships its
        // value in its `Stage` delta, and answers with it.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let t = TxnId(3);
        let staged = txn_req(
            5,
            RequestKind::Write,
            t,
            &KvOp::Put("s".into(), long.clone()),
        );
        let (reply, update) = s.txn_execute(t, &staged, true, &mut ctx).unwrap();
        assert_eq!(reply, long.as_bytes());
        let entry = DecreeEntry {
            cmd: Command::Noop,
            update,
            reply: ReplyBody::Ok(reply),
        };
        assert!(entry.reply_in_update().is_some(), "a staged put");
    }

    #[test]
    fn add_reads_through_and_increments() {
        let mut s = KvStore::new();
        let (r1, _) = exec(
            &mut s,
            &req(1, RequestKind::Write, &KvOp::Add("n".into(), 5)),
        );
        assert_eq!(KvStore::decode_reply(&r1), Some("5".into()));
        let (r2, _) = exec(
            &mut s,
            &req(2, RequestKind::Write, &KvOp::Add("n".into(), -2)),
        );
        assert_eq!(KvStore::decode_reply(&r2), Some("3".into()));
        assert_eq!(s.get("n"), Some("3"));
    }

    #[test]
    fn missing_key_reply_decodes_to_none() {
        let mut s = KvStore::new();
        let (reply, _) = exec(
            &mut s,
            &req(1, RequestKind::Read, &KvOp::Get("nope".into())),
        );
        assert_eq!(KvStore::decode_reply(&reply), None);
    }

    #[test]
    fn volatile_txn_commit_ships_full_batch() {
        let mut leader = KvStore::new();
        let mut backup = KvStore::new();
        let t = TxnId(1);
        let mut rng = SmallRng::seed_from_u64(1);

        leader.txn_begin(t);
        for (i, op) in [KvOp::Put("x".into(), "1".into()), KvOp::Add("x".into(), 2)]
            .iter()
            .enumerate()
        {
            let r = txn_req(i as u64 + 1, RequestKind::Write, t, op);
            let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
            let (_, up) = leader.txn_execute(t, &r, false, &mut ctx).unwrap();
            assert!(up.is_none(), "volatile staging is not replicated");
        }
        // Staged, not committed; and invisible to snapshots.
        assert_eq!(leader.get("x"), None);
        assert_eq!(leader.snapshot(), backup.snapshot());

        let update = leader.txn_commit(t);
        assert_eq!(leader.get("x"), Some("3"), "read-through Add saw staged 1");
        backup.apply_txn_commit(t, &[], &update);
        assert_eq!(backup, leader);
    }

    #[test]
    fn durable_txn_staging_replicates_and_commits_by_marker() {
        let mut leader = KvStore::new();
        let mut backup = KvStore::new();
        let t = TxnId(2);
        let mut rng = SmallRng::seed_from_u64(1);

        let r = txn_req(1, RequestKind::Write, t, &KvOp::Put("y".into(), "9".into()));
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let (_, up) = leader.txn_execute(t, &r, true, &mut ctx).unwrap();
        backup.apply(&r, &up); // staging record replicated
        assert_eq!(
            leader.snapshot(),
            backup.snapshot(),
            "durable staging in snapshot"
        );

        let commit_update = leader.txn_commit(t);
        let commit_req = Request::txn_commit(RequestId::new(ClientId(1), Seq(2)), t, 1);
        backup.apply(&commit_req, &commit_update);
        assert_eq!(backup, leader);
        assert_eq!(backup.get("y"), Some("9"));
    }

    #[test]
    fn conflicting_txn_is_refused() {
        let mut s = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let (t1, t2) = (TxnId(1), TxnId(2));
        let r1 = txn_req(
            1,
            RequestKind::Write,
            t1,
            &KvOp::Put("k".into(), "a".into()),
        );
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        s.txn_execute(t1, &r1, false, &mut ctx).unwrap();

        let r2 = txn_req(
            2,
            RequestKind::Write,
            t2,
            &KvOp::Put("k".into(), "b".into()),
        );
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        assert_eq!(
            s.txn_execute(t2, &r2, false, &mut ctx).unwrap_err(),
            AbortReason::Conflict
        );
        // Reads are not blocked.
        let r3 = txn_req(3, RequestKind::Read, t2, &KvOp::Get("k".into()));
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        assert!(s.txn_execute(t2, &r3, false, &mut ctx).is_ok());

        // Abort releases the lock.
        s.txn_abort(t1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        assert!(s.txn_execute(t2, &r2, false, &mut ctx).is_ok());
    }

    #[test]
    fn plain_write_respects_txn_locks() {
        let mut s = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let t = TxnId(1);
        let r = txn_req(1, RequestKind::Write, t, &KvOp::Put("k".into(), "a".into()));
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        s.txn_execute(t, &r, false, &mut ctx).unwrap();

        let (reply, up) = exec(
            &mut s,
            &req(2, RequestKind::Write, &KvOp::Put("k".into(), "x".into())),
        );
        assert_eq!(reply.as_ref(), b"\0LOCKED");
        assert!(up.is_none());
    }

    #[test]
    fn scan_returns_prefix_matches_in_order() {
        let mut s = KvStore::new();
        for (k, v) in [("a:1", "x"), ("a:2", "y"), ("b:1", "z")] {
            exec(
                &mut s,
                &req(1, RequestKind::Write, &KvOp::Put(k.into(), v.into())),
            );
        }
        let (reply, up) = exec(&mut s, &req(2, RequestKind::Read, &KvOp::Scan("a:".into())));
        assert!(up.is_none(), "scans are pure reads");
        assert_eq!(reply.as_ref(), b"a:1=x\na:2=y");
        let (empty, _) = exec(&mut s, &req(3, RequestKind::Read, &KvOp::Scan("zz".into())));
        assert!(empty.is_empty());
    }

    #[test]
    fn sharded_store_serves_versioned_scans_and_fences() {
        let mut s = KvStore::sharded();
        let (r, _) = exec(
            &mut s,
            &req(1, RequestKind::Write, &KvOp::Put("k".into(), "v".into())),
        );
        assert_eq!(KvStore::decode_reply(&r), Some("v".into()));
        // Sharded scans carry the state version so merged cross-group
        // reads can be fenced.
        let (reply, up) = exec(&mut s, &req(2, RequestKind::Read, &KvOp::Scan("".into())));
        assert!(up.is_none());
        let (v, body) = KvStore::decode_versioned_scan(&reply).expect("versioned");
        assert_eq!(v, 1, "one write, one version bump");
        assert_eq!(body, "k=v");
        let (fence, _) = exec(&mut s, &req(3, RequestKind::Read, &KvOp::Fence));
        assert_eq!(KvStore::decode_fence(&fence), Some(1));
        // Inside a single-group transaction a cross-key scan is a typed
        // abort: consistency needs the merged-read protocol.
        let t = TxnId(1);
        let rs = txn_req(4, RequestKind::Read, t, &KvOp::Scan("".into()));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        assert_eq!(
            s.txn_execute(t, &rs, false, &mut ctx).unwrap_err(),
            AbortReason::CrossShard
        );
        // An unsharded store's scan format is unchanged.
        let mut plain = KvStore::new();
        exec(
            &mut plain,
            &req(5, RequestKind::Write, &KvOp::Put("k".into(), "v".into())),
        );
        let (reply, _) = exec(
            &mut plain,
            &req(6, RequestKind::Read, &KvOp::Scan("".into())),
        );
        assert_eq!(reply.as_ref(), b"k=v");
    }

    #[test]
    fn shard_router_matches_replica_shard_key() {
        let sharded = KvStore::sharded();
        let router = crate::kvstore::shard_router();
        let ops = [
            KvOp::Get("alpha".into()),
            KvOp::Put("alpha".into(), "1".into()),
            KvOp::Del("beta".into()),
            KvOp::Add("gamma".into(), 1),
        ];
        for op in &ops {
            let kind = match op {
                KvOp::Get(_) => RequestKind::Read,
                _ => RequestKind::Write,
            };
            let r = req(1, kind, op);
            let k = gridpaxos_core::service::App::shard_key(&sharded, &r);
            assert!(k.is_some());
            assert_eq!(router.key_of(&r), k, "client and replica agree on {op:?}");
        }
        // All ops on the same key share a shard key; Scan has none.
        assert_eq!(ops[0].shard_key(), ops[1].shard_key());
        assert_eq!(KvOp::Scan("a".into()).shard_key(), None);
        // An unsharded store reports keyless for everything.
        let plain = KvStore::new();
        let r = req(1, RequestKind::Read, &ops[0]);
        assert_eq!(gridpaxos_core::service::App::shard_key(&plain, &r), None);
    }

    #[test]
    fn txn_read_sees_own_staged_writes_only() {
        let mut s = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        exec(
            &mut s,
            &req(1, RequestKind::Write, &KvOp::Put("k".into(), "old".into())),
        );

        let (t1, t2) = (TxnId(1), TxnId(2));
        let w = txn_req(
            2,
            RequestKind::Write,
            t1,
            &KvOp::Put("k".into(), "new".into()),
        );
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        s.txn_execute(t1, &w, false, &mut ctx).unwrap();

        let own = txn_req(3, RequestKind::Read, t1, &KvOp::Get("k".into()));
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let (reply, _) = s.txn_execute(t1, &own, false, &mut ctx).unwrap();
        assert_eq!(KvStore::decode_reply(&reply), Some("new".into()));

        let other = txn_req(4, RequestKind::Read, t2, &KvOp::Get("k".into()));
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let (reply, _) = s.txn_execute(t2, &other, false, &mut ctx).unwrap();
        assert_eq!(
            KvStore::decode_reply(&reply),
            Some("old".into()),
            "no dirty reads"
        );
    }

    #[test]
    fn tentative_commit_keeps_the_writes() {
        let mut s = KvStore::new();
        assert!(s.tentative_begin());
        exec(
            &mut s,
            &req(1, RequestKind::Write, &KvOp::Put("k".into(), "v".into())),
        );
        s.tentative_commit();
        assert_eq!(s.get("k"), Some("v"));
        let mut fresh = KvStore::new();
        fresh.restore(&s.snapshot());
        assert_eq!(fresh, s);
    }

    /// A plain read asked for chosen state, as the leader asks under an
    /// open window: the reply, if the store says it answered from there.
    pub(super) fn read_chosen(store: &mut KvStore, seq: u64, op: &KvOp) -> Option<Bytes> {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::for_chosen_state(Time::ZERO, &mut rng);
        let (reply, up) = store.execute(&req(seq, RequestKind::Read, op), &mut ctx);
        assert!(up.is_none(), "a read changes nothing");
        ctx.chosen_state_answered().then_some(reply)
    }

    /// Under an open window a read of chosen state sees the state before
    /// it: a key the window wrote reads its pre-image, a key it inserted
    /// reads `NOT_FOUND`, a key it left alone its value, `Fence` the
    /// version the window began at — and a `Scan` is not answered, so it
    /// waits for the window to close.
    #[test]
    fn a_read_under_a_window_sees_the_state_before_it() {
        let mut s = KvStore::new();
        let put = |k: &str, v: &str| KvOp::Put(k.into(), v.into());
        exec(&mut s, &req(1, RequestKind::Write, &put("a", "1")));
        exec(&mut s, &req(2, RequestKind::Write, &put("b", "2")));
        let version = s.version();
        assert!(s.tentative_begin());
        exec(&mut s, &req(3, RequestKind::Write, &put("a", "9")));
        exec(&mut s, &req(4, RequestKind::Write, &put("new", "x")));
        assert_eq!(s.get("a"), Some("9"), "the window holds the write");

        let get = |k: &str| KvOp::Get(k.into());
        let body = |v: Option<&str>| Some(value_reply(v));
        assert_eq!(read_chosen(&mut s, 5, &get("a")), body(Some("1")));
        assert_eq!(read_chosen(&mut s, 6, &get("new")), body(None));
        assert_eq!(read_chosen(&mut s, 7, &get("b")), body(Some("2")));
        assert_eq!(
            read_chosen(&mut s, 8, &KvOp::Fence),
            Some(fence_reply(version))
        );
        assert_eq!(read_chosen(&mut s, 9, &KvOp::Scan(String::new())), None);

        // Asked plainly, the same store answers from the window.
        let (now, _) = exec(&mut s, &req(10, RequestKind::Read, &get("a")));
        assert_eq!(now, value_reply(Some("9")));
    }

    // ---- 2PC -----------------------------------------------------------

    pub(super) fn prep_req(seq: u64, txn: TxnId, ops: &[KvOp]) -> Request {
        Request::txn_prepare(
            RequestId::new(ClientId(1), Seq(seq)),
            txn,
            encode_txn_ops(ops),
        )
    }

    pub(super) fn prepare(
        s: &mut KvStore,
        seq: u64,
        txn: TxnId,
        ops: &[KvOp],
    ) -> Result<StateUpdate, AbortReason> {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let r = prep_req(seq, txn, ops);
        s.txn_prepare(txn, &r, &mut ctx)
    }

    #[test]
    fn prepare_then_commit_applies_intent_on_leader_and_backup() {
        let mut leader = KvStore::sharded();
        let mut backup = KvStore::sharded();
        let t = TxnId(1);
        exec(
            &mut leader,
            &req(
                1,
                RequestKind::Write,
                &KvOp::Put("acct".into(), "10".into()),
            ),
        );
        backup.apply(
            &req(
                1,
                RequestKind::Write,
                &KvOp::Put("acct".into(), "10".into()),
            ),
            &StateUpdate::Delta(
                KvDelta::ApplyWrites(vec![KvWrite::Put("acct".into(), "10".into())]).encode(),
            ),
        );

        // Prepare: the Add resolves to a concrete Put under the lock.
        let up = prepare(&mut leader, 2, t, &[KvOp::Add("acct".into(), 5)]).unwrap();
        backup.apply(&prep_req(2, t, &[KvOp::Add("acct".into(), 5)]), &up);
        assert_eq!(leader.get("acct"), Some("10"), "intent not yet applied");
        assert_eq!(leader.prepared_txns(), vec![1]);
        assert_eq!(backup.encode_state(), leader.encode_state());

        // Commit-decide applies the resolved write on both.
        let (actual, up) = leader.txn_decide(t, true, false);
        assert!(actual);
        backup.apply_txn_decide(t, true, &up);
        assert_eq!(leader.get("acct"), Some("15"));
        assert!(leader.prepared_txns().is_empty());
        assert_eq!(backup.encode_state(), leader.encode_state());
    }

    #[test]
    fn prepare_votes_no_on_conflicts_and_foreign_keys() {
        let n_groups = 4u64;
        let mine: String = (0..)
            .map(|i| format!("k{i}"))
            .find(|k| fnv1a(k.as_bytes()).is_multiple_of(n_groups))
            .unwrap();
        let foreign: String = (0..)
            .map(|i| format!("k{i}"))
            .find(|k| fnv1a(k.as_bytes()) % n_groups == 1)
            .unwrap();
        let mut s = KvStore::sharded_in(0, n_groups as usize);

        // A key of another group: typed cross-shard refusal.
        assert_eq!(
            prepare(&mut s, 1, TxnId(1), &[KvOp::Put(foreign, "x".into())]).unwrap_err(),
            AbortReason::CrossShard
        );
        // Reads are not a write set.
        assert_eq!(
            prepare(&mut s, 2, TxnId(1), &[KvOp::Get(mine.clone())]).unwrap_err(),
            AbortReason::Unsupported
        );
        // A prepared intent locks its keys against later prepares...
        prepare(&mut s, 3, TxnId(1), &[KvOp::Put(mine.clone(), "a".into())]).unwrap();
        assert_eq!(
            prepare(&mut s, 4, TxnId(2), &[KvOp::Put(mine.clone(), "b".into())]).unwrap_err(),
            AbortReason::Conflict
        );
        // ...and against plain writes.
        let (reply, up) = exec(
            &mut s,
            &req(5, RequestKind::Write, &KvOp::Put(mine.clone(), "c".into())),
        );
        assert_eq!(reply.as_ref(), b"\0LOCKED");
        assert!(up.is_none());
        // Decide releases the lock.
        s.txn_decide(TxnId(1), false, false);
        assert!(prepare(&mut s, 6, TxnId(2), &[KvOp::Put(mine, "b".into())]).is_ok());
    }

    #[test]
    fn decision_table_is_record_if_absent() {
        let mut s = KvStore::sharded();
        // A resolver records presumed-abort first...
        let (actual, _) = s.txn_decide(TxnId(9), false, true);
        assert!(!actual);
        // ...so the original coordinator's commit loses the race.
        let (actual, _) = s.txn_decide(TxnId(9), true, true);
        assert!(!actual, "recorded decision wins");
        assert_eq!(s.decision(9), Some(false));
        // And a late prepare for the decided txn is refused.
        assert_eq!(
            prepare(&mut s, 1, TxnId(9), &[KvOp::Put("k".into(), "v".into())]).unwrap_err(),
            AbortReason::InDoubt
        );
    }

    #[test]
    fn sharded_scan_blocks_while_intent_overlaps_prefix() {
        let mut s = KvStore::sharded();
        prepare(
            &mut s,
            1,
            TxnId(1),
            &[KvOp::Put("acct:a".into(), "5".into())],
        )
        .unwrap();
        let (reply, _) = exec(
            &mut s,
            &req(2, RequestKind::Read, &KvOp::Scan("acct:".into())),
        );
        assert_eq!(reply.as_ref(), SCAN_BLOCKED);
        // A disjoint prefix is served.
        let (reply, _) = exec(
            &mut s,
            &req(3, RequestKind::Read, &KvOp::Scan("other:".into())),
        );
        assert!(KvStore::decode_versioned_scan(&reply).is_some());
        // After the decide, the scan serves the committed write.
        s.txn_decide(TxnId(1), true, false);
        let (reply, _) = exec(
            &mut s,
            &req(4, RequestKind::Read, &KvOp::Scan("acct:".into())),
        );
        let (_, body) = KvStore::decode_versioned_scan(&reply).unwrap();
        assert_eq!(body, "acct:a=5");
    }

    #[test]
    fn tentative_rollback_restores_2pc_state() {
        let mut s = KvStore::sharded();
        exec(
            &mut s,
            &req(1, RequestKind::Write, &KvOp::Put("a".into(), "1".into())),
        );
        let before = s.clone();
        assert!(gridpaxos_core::service::App::tentative_begin(&mut s));
        prepare(&mut s, 2, TxnId(5), &[KvOp::Put("b".into(), "2".into())]).unwrap();
        s.txn_decide(TxnId(5), true, true);
        gridpaxos_core::service::App::tentative_rollback(&mut s);
        assert_eq!(s, before, "intents, decisions and version all restored");
    }

    // ---- the one conflict rule -------------------------------------------

    #[derive(Clone, Copy, Debug)]
    enum Mode {
        PerOp,
        TPaxos,
        TwoPc,
    }

    /// Transaction `txn` writes key `k`, the way `mode` does it.
    fn write_in(s: &mut KvStore, mode: Mode, txn: u64) -> Result<(), AbortReason> {
        let op = KvOp::Put("k".into(), format!("by-{txn}"));
        if let Mode::TwoPc = mode {
            return prepare(s, 1, TxnId(txn), &[op]).map(drop);
        }
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let r = txn_req(1, RequestKind::Write, TxnId(txn), &op);
        let durable = matches!(mode, Mode::PerOp);
        s.txn_execute(TxnId(txn), &r, durable, &mut ctx).map(drop)
    }

    fn plain_write_is_locked(s: &mut KvStore) -> bool {
        let plain = KvOp::Put("k".into(), "plain".into());
        let (reply, up) = exec(s, &req(9, RequestKind::Write, &plain));
        let locked = reply.as_ref() == b"\0LOCKED";
        assert_eq!(locked, up.is_none(), "a refused write changes nothing");
        locked
    }

    /// Holder × requester: whoever holds `k`, in whichever mode, every
    /// other writer is refused and the holder itself is not; every way a
    /// transaction ends lets the key go.
    #[test]
    fn who_may_write_a_held_key() {
        const MODES: [Mode; 3] = [Mode::PerOp, Mode::TPaxos, Mode::TwoPc];
        type Release = (&'static str, fn(&mut KvStore));
        for holder in MODES {
            let held = || {
                let mut s = KvStore::new();
                write_in(&mut s, holder, 1).unwrap();
                s
            };
            assert!(
                plain_write_is_locked(&mut held()),
                "{holder:?} holds, plain write"
            );
            for requester in MODES {
                assert_eq!(
                    write_in(&mut held(), requester, 2),
                    Err(AbortReason::Conflict),
                    "{holder:?} holds, {requester:?} transaction asks"
                );
            }
            assert_eq!(
                write_in(&mut held(), holder, 1),
                Ok(()),
                "{holder:?} itself"
            );

            let releases: &[Release] = match holder {
                Mode::PerOp => &[
                    ("txn_abort", |s| s.txn_abort(TxnId(1))),
                    ("txn_commit", |s| drop(s.txn_commit(TxnId(1)))),
                    ("AbortTxn delta", |s| {
                        let abort = StateUpdate::Delta(KvDelta::AbortTxn(1).encode());
                        s.apply(&req(2, RequestKind::Write, &KvOp::Fence), &abort);
                    }),
                    ("a coordinated abort request", |s| {
                        let id = RequestId::new(ClientId(1), Seq(2));
                        s.apply(&Request::txn_abort(id, TxnId(1)), &StateUpdate::None);
                    }),
                ],
                Mode::TPaxos => &[
                    ("txn_abort", |s| s.txn_abort(TxnId(1))),
                    ("txn_commit", |s| drop(s.txn_commit(TxnId(1)))),
                ],
                Mode::TwoPc => &[
                    ("decide commit", |s| {
                        drop(s.txn_decide(TxnId(1), true, false))
                    }),
                    ("decide abort", |s| {
                        drop(s.txn_decide(TxnId(1), false, true))
                    }),
                ],
            };
            for (how, release) in releases {
                let mut s = held();
                release(&mut s);
                assert!(
                    !plain_write_is_locked(&mut s),
                    "{holder:?} released by {how}"
                );
            }
        }
    }

    /// What the open tentative window holds: undo keys + staged writes +
    /// decision ids.
    fn footprint(s: &KvStore) -> usize {
        s.tentative.as_ref().map_or(0, |tn| {
            tn.undo.len() + tn.durable.n_writes() + tn.prepared.n_writes() + tn.decided.len()
        })
    }

    /// `tentative_begin` runs before every leader proposal: what it sets
    /// aside is what the window goes on to touch, not the decision table.
    #[test]
    fn a_tentative_window_holds_what_it_touched() {
        let mut s = KvStore::sharded();
        for txn in 0..10_000 {
            s.txn_decide(TxnId(txn), txn % 2 == 0, true);
        }
        let before = s.clone();
        assert!(s.tentative_begin());
        exec(
            &mut s,
            &req(1, RequestKind::Write, &KvOp::Put("k".into(), "v".into())),
        );
        s.txn_decide(TxnId(10_000), true, true);
        assert!(
            footprint(&s) <= 4,
            "one key and one decision touched, {} things held",
            footprint(&s)
        );
        s.tentative_rollback();
        assert_eq!(s, before);
    }

    /// The operands of an `Add` are the client's: past the end of `i64`
    /// it wraps, on every path that evaluates one, and the backup follows.
    #[test]
    fn add_wraps_at_the_ends_of_i64() {
        let mut leader = KvStore::new();
        let mut backup = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let twice = i64::MAX.wrapping_add(i64::MAX).to_string();

        for seq in 1..=2 {
            let r = req(
                seq,
                RequestKind::Write,
                &KvOp::Add("plain".into(), i64::MAX),
            );
            let (_, up) = exec(&mut leader, &r);
            backup.apply(&r, &up);
        }
        assert_eq!(leader.get("plain"), Some(twice.as_str()));

        let t = TxnId(1);
        for seq in 3..=4 {
            let r = txn_req(
                seq,
                RequestKind::Write,
                t,
                &KvOp::Add("staged".into(), i64::MAX),
            );
            let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
            let (_, up) = leader.txn_execute(t, &r, true, &mut ctx).unwrap();
            backup.apply(&r, &up);
        }
        let commit = Request::txn_commit(RequestId::new(ClientId(1), Seq(5)), t, 2);
        backup.apply(&commit, &leader.txn_commit(t));
        assert_eq!(leader.get("staged"), Some(twice.as_str()));

        let leg = [
            KvOp::Add("leg".into(), i64::MAX),
            KvOp::Add("leg".into(), i64::MAX),
        ];
        let up = prepare(&mut leader, 6, TxnId(2), &leg).unwrap();
        backup.apply(&prep_req(6, TxnId(2), &leg), &up);
        let (_, up) = leader.txn_decide(TxnId(2), true, false);
        backup.apply_txn_decide(TxnId(2), true, &up);
        assert_eq!(leader.get("leg"), Some(twice.as_str()));

        assert_eq!(backup, leader);
    }

    // ---- the parent's bytes ------------------------------------------------

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// One image holding every section (committed keys, per-op staging,
    /// an intent re-prepared with a different write set, two decisions,
    /// the version), its 64-byte chunks, and one encoding per delta arm.
    fn golden_subjects() -> (Bytes, Vec<Bytes>, Vec<Bytes>) {
        let mut s = KvStore::sharded();
        let mut rng = SmallRng::seed_from_u64(1);
        for (seq, op) in [
            KvOp::Put("a".into(), "1".into()),
            KvOp::Add("n".into(), 41),
            KvOp::Put("gone".into(), "x".into()),
            KvOp::Del("gone".into()),
        ]
        .iter()
        .enumerate()
        {
            exec(&mut s, &req(seq as u64 + 1, RequestKind::Write, op));
        }
        let t = TxnId(7);
        for (seq, op) in [KvOp::Put("b".into(), "2".into()), KvOp::Del("a2".into())]
            .iter()
            .enumerate()
        {
            let r = txn_req(seq as u64 + 5, RequestKind::Write, t, op);
            let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
            s.txn_execute(t, &r, true, &mut ctx).unwrap();
        }
        let leg = [KvOp::Put("c".into(), "3".into()), KvOp::Add("n".into(), 1)];
        prepare(&mut s, 7, TxnId(3), &leg).unwrap();
        prepare(&mut s, 8, TxnId(3), &[KvOp::Del("d".into())]).unwrap();
        s.txn_decide(TxnId(9), false, true);
        s.txn_decide(TxnId(11), true, true);
        let image = s.snapshot();
        let total = s.snapshot_begin(64);
        let chunks = (0..total).map(|i| s.snapshot_chunk(i)).collect();
        s.snapshot_end();
        let put = || KvWrite::Put("k".into(), "v".into());
        let deltas = vec![
            KvDelta::ApplyWrites(vec![put(), KvWrite::Del("d".into())]).encode(),
            KvDelta::Stage(7, put()).encode(),
            KvDelta::CommitTxn(7).encode(),
            KvDelta::AbortTxn(7).encode(),
            KvDelta::Prepare2pc(3, vec![KvWrite::Del("d".into()), put()]).encode(),
            KvDelta::Decide2pc {
                txn: 9,
                commit: true,
                record: false,
            }
            .encode(),
        ];
        (image, chunks, deltas)
    }

    /// Every byte that leaves the store is what the commit before the
    /// `Intents` refactor wrote: the goldens are `golden_subjects` run
    /// there and printed.
    #[test]
    fn the_stores_bytes_are_the_parents() {
        let (image, chunks, deltas) = golden_subjects();
        assert_eq!(
            hex(&image),
            "0200000001000000610100000031010000006e020000003431\
             010000000700000000000000020000000001000000620100000032010200000061320200000002000000\
             6132070000000000000001000000620700000000000000\
             0800000000000000\
             0100000003000000000000000100000001010000006403000000010000006303000000000000000100\
             0000640300000000000000010000006e0300000000000000\
             020000000900000000000000000b0000000000000001",
            "committed | durable | version | prepared | decisions"
        );
        let chunks: Vec<String> = chunks.iter().map(|c| hex(c)).collect();
        assert_eq!(
            chunks,
            [
                "0200000001000000610100000031010000006e0200000034310100000007000000\
                 00000000020000000001000000620100000032010200000061320200000002",
                "0000006132070000000000000001000000620700000000000000080000000000\
                 0000010000000300000000000000010000000101000000640300000001000000",
                "63030000000000000001000000640300000000000000010000006e0300000000\
                 000000020000000900000000000000000b0000000000000001",
            ]
        );
        let deltas: Vec<String> = deltas.iter().map(|d| hex(d)).collect();
        assert_eq!(
            deltas,
            [
                "000200000000010000006b0100000076010100000064",
                "01070000000000000000010000006b0100000076",
                "020700000000000000",
                "030700000000000000",
                "0403000000000000000200000001010000006400010000006b0100000076",
                "0509000000000000000100",
            ]
        );
    }

    fn arb_key() -> impl Strategy<Value = String> {
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("d"), Just("e")].prop_map(String::from)
    }

    pub(super) fn arb_op() -> impl Strategy<Value = KvOp> {
        prop_oneof![
            (arb_key(), "[a-z]{0,12}").prop_map(|(k, v)| KvOp::Put(k, v)),
            arb_key().prop_map(KvOp::Del),
            (arb_key(), -9i64..9).prop_map(|(k, d)| KvOp::Add(k, d)),
        ]
    }

    mod props {
        use super::*;

        proptest! {
            /// A backup driven by per-decree deltas ends byte-identical to
            /// one restored from the leader's full snapshot.
            #[test]
            fn delta_applied_backup_equals_snapshot_restored_backup(
                ops in proptest::collection::vec(arb_op(), 0..40)
            ) {
                let mut leader = KvStore::new();
                let mut backup = KvStore::new();
                for (i, op) in ops.iter().enumerate() {
                    let r = req(i as u64 + 1, RequestKind::Write, op);
                    let (_, up) = exec(&mut leader, &r);
                    backup.apply(&r, &up);
                }
                prop_assert_eq!(&backup, &leader);
                let mut restored = KvStore::new();
                restored.restore(&leader.snapshot());
                prop_assert_eq!(&restored, &leader);
                prop_assert_eq!(restored.snapshot(), backup.snapshot());
            }

            /// Rollback of a tentative execution restores the pre-exec
            /// image exactly, whatever the interleaving of writes.
            #[test]
            fn tentative_rollback_restores_exactly(
                base in proptest::collection::vec(arb_op(), 0..15),
                spec in proptest::collection::vec(arb_op(), 1..15),
            ) {
                let mut s = KvStore::new();
                for (i, op) in base.iter().enumerate() {
                    exec(&mut s, &req(i as u64 + 1, RequestKind::Write, op));
                }
                let before = s.clone();
                prop_assert!(s.tentative_begin());
                for (i, op) in spec.iter().enumerate() {
                    exec(&mut s, &req(100 + i as u64, RequestKind::Write, op));
                }
                s.tentative_rollback();
                prop_assert_eq!(&s, &before);
                prop_assert_eq!(s.snapshot(), before.snapshot());
            }

            /// Whatever a window wrote, a `Get` or `Fence` of chosen state
            /// answers what a clone that rolled the window back answers.
            #[test]
            fn a_read_of_chosen_state_is_the_read_after_rollback(
                base in proptest::collection::vec(arb_op(), 0..15),
                spec in proptest::collection::vec(arb_op(), 1..15),
                key in arb_key(),
            ) {
                let mut s = KvStore::new();
                for (i, op) in base.iter().enumerate() {
                    exec(&mut s, &req(i as u64 + 1, RequestKind::Write, op));
                }
                prop_assert!(s.tentative_begin());
                for (i, op) in spec.iter().enumerate() {
                    exec(&mut s, &req(100 + i as u64, RequestKind::Write, op));
                }
                let mut rolled_back = s.clone();
                rolled_back.tentative_rollback();
                for read in [KvOp::Get(key), KvOp::Fence] {
                    let (want, _) = exec(&mut rolled_back, &req(200, RequestKind::Read, &read));
                    prop_assert_eq!(read_chosen(&mut s, 200, &read), Some(want));
                }
            }
        }
    }
}
