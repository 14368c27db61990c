//! A transactional key-value store.
//!
//! The service behind the T-Paxos evaluation scenarios: it supports plain
//! reads/writes, *and* transactions with write-locking and staged effects,
//! in both coordination modes:
//!
//! * **durable staging** (per-operation coordination): staged writes and
//!   locks are part of replicated state — they ride each op's decree, are
//!   included in snapshots and survive leader switches;
//! * **volatile staging** (T-Paxos): staged writes live only on the
//!   current leader; the commit decree carries the full write batch so
//!   backups can apply it in one step. Volatile staging is excluded from
//!   snapshots and cleared by `restore`, matching the
//!   [`gridpaxos_core::service::App`] contract.
//!
//! Conflicting transactions (a write lock held by another transaction) are
//! refused with [`AbortReason::Conflict`] — "any service that supports
//! transactions needs to deal with concurrency of this type using locks or
//! other mechanisms" (§3.5).

use crate::codec::{get_i64, get_str, get_u32, get_u64, get_u8, put_str};
use bytes::{BufMut, Bytes, BytesMut};
use gridpaxos_core::client::ShardRouter;
use gridpaxos_core::command::StateUpdate;
use gridpaxos_core::request::{AbortReason, Request, TxnCtl};
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::types::TxnId;
use std::collections::BTreeMap;

/// A client-visible operation on the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key. `kind` must be `Read`.
    Get(String),
    /// Write a key.
    Put(String, String),
    /// Delete a key.
    Del(String),
    /// Add `delta` to the integer value of a key (missing = 0).
    Add(String, i64),
    /// Read all keys with the given prefix. `kind` must be `Read`.
    /// Cross-key: on sharded stores the reply is version-prefixed (see
    /// [`KvStore::decode_versioned_scan`]) so a merged cross-group read
    /// can be fenced for consistency.
    Scan(String),
    /// Read the store's state version (see [`KvStore::version`]). `kind`
    /// must be `Read`. Keyless: routed explicitly, never by shard.
    Fence,
}

impl KvOp {
    /// Encode to an opaque request payload.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        match self {
            KvOp::Get(k) => {
                out.put_u8(0);
                put_str(&mut out, k);
            }
            KvOp::Put(k, v) => {
                out.put_u8(1);
                put_str(&mut out, k);
                put_str(&mut out, v);
            }
            KvOp::Del(k) => {
                out.put_u8(2);
                put_str(&mut out, k);
            }
            KvOp::Add(k, d) => {
                out.put_u8(3);
                put_str(&mut out, k);
                out.put_i64_le(*d);
            }
            KvOp::Scan(p) => {
                out.put_u8(4);
                put_str(&mut out, p);
            }
            KvOp::Fence => {
                out.put_u8(5);
            }
        }
        out.freeze()
    }

    /// Decode a request payload.
    #[must_use]
    pub fn decode(mut b: Bytes) -> Option<KvOp> {
        KvOp::decode_one(&mut b)
    }

    /// Decode one op from the front of `b` (ops are self-delimiting, so
    /// lists concatenate — see [`encode_txn_ops`]).
    fn decode_one(b: &mut Bytes) -> Option<KvOp> {
        match get_u8(b)? {
            0 => Some(KvOp::Get(get_str(b)?)),
            1 => Some(KvOp::Put(get_str(b)?, get_str(b)?)),
            2 => Some(KvOp::Del(get_str(b)?)),
            3 => Some(KvOp::Add(get_str(b)?, get_i64(b)?)),
            4 => Some(KvOp::Scan(get_str(b)?)),
            5 => Some(KvOp::Fence),
            _ => None,
        }
    }

    /// The shard key of this op: an FNV-1a hash of the target key, so all
    /// ops on one key land in one consensus group. `Scan` and `Fence` are
    /// cross-key / keyless and have no shard key.
    #[must_use]
    pub fn shard_key(&self) -> Option<u64> {
        match self {
            KvOp::Scan(_) | KvOp::Fence => None,
            single => Some(fnv1a(single.key().as_bytes())),
        }
    }

    fn key(&self) -> &str {
        match self {
            KvOp::Get(k) | KvOp::Put(k, _) | KvOp::Del(k) | KvOp::Add(k, _) | KvOp::Scan(k) => k,
            KvOp::Fence => "",
        }
    }

    fn is_write(&self) -> bool {
        matches!(self, KvOp::Put(..) | KvOp::Del(_) | KvOp::Add(..))
    }
}

/// Encode a 2PC prepare payload: the ordered single-shard write set one
/// participant group stages as a unit (`u32` count + concatenated ops).
#[must_use]
pub fn encode_txn_ops(ops: &[KvOp]) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u32_le(ops.len() as u32);
    for op in ops {
        out.extend_from_slice(&op.encode());
    }
    out.freeze()
}

/// Decode a 2PC prepare payload built by [`encode_txn_ops`].
#[must_use]
pub fn decode_txn_ops(mut b: Bytes) -> Option<Vec<KvOp>> {
    let n = get_u32(&mut b)? as usize;
    let mut ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ops.push(KvOp::decode_one(&mut b)?);
    }
    Some(ops)
}

/// FNV-1a — stable across processes (unlike `std`'s `DefaultHasher`), so
/// clients and replicas agree on shard placement.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Client-side routing function for sharded deployments: decodes the op
/// and hashes its key exactly as [`KvStore`]'s [`App::shard_key`] does.
#[must_use]
pub fn shard_router() -> ShardRouter {
    ShardRouter::new(|req| KvOp::decode(req.op.clone()).and_then(|op| op.shard_key()))
}

/// Build the per-group 2PC legs of a balance transfer: `Add(src, -amount)`
/// and `Add(dst, +amount)`, grouped by each key's shard. One leg when both
/// accounts happen to live in the same group, two (a cross-shard
/// transaction) otherwise. Each leg is an [`encode_txn_ops`] payload for
/// [`gridpaxos_core::txn::TxnCoordinator`].
#[must_use]
pub fn transfer_legs(
    src: &str,
    dst: &str,
    amount: i64,
    n_groups: usize,
) -> Vec<(gridpaxos_core::types::GroupId, Bytes)> {
    use gridpaxos_core::types::shard_of;
    let debit = KvOp::Add(src.into(), -amount);
    let credit = KvOp::Add(dst.into(), amount);
    let g_src = shard_of(debit.shard_key().expect("Add has a key"), n_groups);
    let g_dst = shard_of(credit.shard_key().expect("Add has a key"), n_groups);
    if g_src == g_dst {
        vec![(g_src, encode_txn_ops(&[debit, credit]))]
    } else {
        vec![
            (g_src, encode_txn_ops(&[debit])),
            (g_dst, encode_txn_ops(&[credit])),
        ]
    }
}

/// One staged or committed mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
enum KvWrite {
    Put(String, String),
    Del(String),
}

impl KvWrite {
    fn encode_into(&self, out: &mut BytesMut) {
        match self {
            KvWrite::Put(k, v) => {
                out.put_u8(0);
                put_str(out, k);
                put_str(out, v);
            }
            KvWrite::Del(k) => {
                out.put_u8(1);
                put_str(out, k);
            }
        }
    }

    fn decode(b: &mut Bytes) -> Option<KvWrite> {
        match get_u8(b)? {
            0 => Some(KvWrite::Put(get_str(b)?, get_str(b)?)),
            1 => Some(KvWrite::Del(get_str(b)?)),
            _ => None,
        }
    }

    fn key(&self) -> &str {
        match self {
            KvWrite::Put(k, _) | KvWrite::Del(k) => k,
        }
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Staging {
    /// Staged writes per transaction, in execution order.
    writes: BTreeMap<u64, Vec<KvWrite>>,
    /// Write locks: key → owning transaction.
    locks: BTreeMap<String, u64>,
}

impl Staging {
    fn lock_conflicts(&self, key: &str, txn: u64) -> bool {
        self.locks.get(key).is_some_and(|owner| *owner != txn)
    }

    fn stage(&mut self, txn: u64, w: KvWrite) {
        self.locks.insert(w.key().to_owned(), txn);
        self.writes.entry(txn).or_default().push(w);
    }

    fn discard(&mut self, txn: u64) {
        self.writes.remove(&txn);
        self.locks.retain(|_, owner| *owner != txn);
    }

    fn take(&mut self, txn: u64) -> Vec<KvWrite> {
        let ws = self.writes.remove(&txn).unwrap_or_default();
        self.locks.retain(|_, owner| *owner != txn);
        ws
    }

    fn staged_value<'a>(&'a self, txn: u64, key: &str) -> Option<Option<&'a str>> {
        // Last staged write for the key within the transaction wins.
        let ws = self.writes.get(&txn)?;
        ws.iter().rev().find(|w| w.key() == key).map(|w| match w {
            KvWrite::Put(_, v) => Some(v.as_str()),
            KvWrite::Del(_) => None,
        })
    }
}

/// Replicated 2PC participant/home-group state. Everything here is part
/// of the replicated image: intents survive crashes (that is what makes a
/// PREPARE vote a promise) and the decision table is what an in-doubt
/// resolver consults, so both ride snapshots and deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct TwoPhase {
    /// Prepared intents: txn → concrete writes, resolved at prepare time
    /// (an `Add` becomes the `Put` of its result) so applying them later
    /// is deterministic whatever else committed in between.
    intents: BTreeMap<u64, Vec<KvWrite>>,
    /// Keys locked by a prepared intent: key → owning txn. Held from
    /// prepare to decide; conflicting ops abort rather than wait.
    locks: BTreeMap<String, u64>,
    /// Recorded decisions (home-group role): txn → committed?
    /// Record-if-absent — the first decide with `record` set wins, which
    /// is the rule that closes the 2PC in-doubt window. Never pruned in
    /// this reproduction (decision GC is out of scope).
    decisions: BTreeMap<u64, bool>,
}

impl TwoPhase {
    fn lock_conflicts(&self, key: &str, txn: u64) -> bool {
        self.locks.get(key).is_some_and(|owner| *owner != txn)
    }

    /// Install a prepared intent, locking its keys.
    fn prepare(&mut self, txn: u64, writes: Vec<KvWrite>) {
        for w in &writes {
            self.locks.insert(w.key().to_owned(), txn);
        }
        self.intents.insert(txn, writes);
    }

    /// Drop a transaction's intent and locks, returning the writes to
    /// apply if it committed.
    fn resolve(&mut self, txn: u64) -> Option<Vec<KvWrite>> {
        self.locks.retain(|_, owner| *owner != txn);
        self.intents.remove(&txn)
    }
}

/// Replicated state-update payloads.
enum KvDelta {
    /// Apply writes to committed state (plain writes, T-Paxos commits).
    ApplyWrites(Vec<KvWrite>),
    /// Record a durable staged write (per-op coordinated transactions).
    Stage(u64, KvWrite),
    /// Merge a transaction's durable staging into committed state.
    CommitTxn(u64),
    /// Discard a transaction's durable staging.
    AbortTxn(u64),
    /// Install a 2PC prepared intent (resolved writes + key locks).
    Prepare2pc(u64, Vec<KvWrite>),
    /// Resolve a 2PC transaction: apply or drop its intent; `record` adds
    /// the outcome to the decision table (home-group decrees only).
    Decide2pc {
        txn: u64,
        commit: bool,
        record: bool,
    },
}

impl KvDelta {
    /// The encoding of `ApplyWrites(ws)`, from borrowed writes and into
    /// one exact allocation: the caller keeps `ws` to store them, and a
    /// large value is copied once, not once per buffer doubling.
    fn encode_apply_writes(ws: &[KvWrite]) -> Bytes {
        let len = 5 + ws.iter().map(kvwrite_enc_len).sum::<usize>();
        let mut out = BytesMut::with_capacity(len);
        out.put_u8(0);
        out.put_u32_le(ws.len() as u32);
        for w in ws {
            w.encode_into(&mut out);
        }
        debug_assert_eq!(out.len(), len);
        out.freeze()
    }

    fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        match self {
            KvDelta::ApplyWrites(ws) => return KvDelta::encode_apply_writes(ws),
            KvDelta::Stage(txn, w) => {
                out.put_u8(1);
                out.put_u64_le(*txn);
                w.encode_into(&mut out);
            }
            KvDelta::CommitTxn(txn) => {
                out.put_u8(2);
                out.put_u64_le(*txn);
            }
            KvDelta::AbortTxn(txn) => {
                out.put_u8(3);
                out.put_u64_le(*txn);
            }
            KvDelta::Prepare2pc(txn, ws) => {
                out.put_u8(4);
                out.put_u64_le(*txn);
                out.put_u32_le(ws.len() as u32);
                for w in ws {
                    w.encode_into(&mut out);
                }
            }
            KvDelta::Decide2pc {
                txn,
                commit,
                record,
            } => {
                out.put_u8(5);
                out.put_u64_le(*txn);
                out.put_u8(u8::from(*commit));
                out.put_u8(u8::from(*record));
            }
        }
        out.freeze()
    }

    fn decode(mut b: Bytes) -> Option<KvDelta> {
        match get_u8(&mut b)? {
            0 => {
                let n = get_u32(&mut b)? as usize;
                let mut ws = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ws.push(KvWrite::decode(&mut b)?);
                }
                Some(KvDelta::ApplyWrites(ws))
            }
            1 => Some(KvDelta::Stage(get_u64(&mut b)?, KvWrite::decode(&mut b)?)),
            2 => Some(KvDelta::CommitTxn(get_u64(&mut b)?)),
            3 => Some(KvDelta::AbortTxn(get_u64(&mut b)?)),
            4 => {
                let txn = get_u64(&mut b)?;
                let n = get_u32(&mut b)? as usize;
                let mut ws = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ws.push(KvWrite::decode(&mut b)?);
                }
                Some(KvDelta::Prepare2pc(txn, ws))
            }
            5 => Some(KvDelta::Decide2pc {
                txn: get_u64(&mut b)?,
                commit: get_u8(&mut b)? != 0,
                record: get_u8(&mut b)? != 0,
            }),
            _ => None,
        }
    }
}

/// Encoded size of one committed entry (`put_str` key + `put_str` value).
fn entry_enc_len(k: &str, v: &str) -> usize {
    8 + k.len() + v.len()
}

/// Encoded size of one [`KvWrite`].
fn kvwrite_enc_len(w: &KvWrite) -> usize {
    match w {
        KvWrite::Put(k, v) => 9 + k.len() + v.len(),
        KvWrite::Del(k) => 5 + k.len(),
    }
}

/// Exact encoded size of the durable-staging section of
/// [`KvStore::encode_state`]. Durable staging is bounded by open
/// transactions, so this walk is cheap.
fn durable_enc_len(s: &Staging) -> usize {
    let mut n = 8; // the two u32 section counts
    for ws in s.writes.values() {
        n += 12; // txn id + per-txn write count
        n += ws.iter().map(kvwrite_enc_len).sum::<usize>();
    }
    for k in s.locks.keys() {
        n += 12 + k.len(); // key + owner
    }
    n
}

/// Serialize the durable-staging section (the first part of what
/// [`KvStore::encode_state`] appends after the committed entries).
fn encode_durable(s: &Staging, out: &mut BytesMut) {
    out.put_u32_le(s.writes.len() as u32);
    for (txn, ws) in &s.writes {
        out.put_u64_le(*txn);
        out.put_u32_le(ws.len() as u32);
        for w in ws {
            w.encode_into(out);
        }
    }
    out.put_u32_le(s.locks.len() as u32);
    for (k, t) in &s.locks {
        put_str(out, k);
        out.put_u64_le(*t);
    }
}

/// Exact encoded size of the version + 2PC section of
/// [`KvStore::encode_state`]. Bounded by in-flight transactions plus the
/// decision table, so this walk stays cheap.
fn two_phase_enc_len(version: u64, tp: &TwoPhase) -> usize {
    let _ = version;
    let mut n = 8 + 12; // version + the three u32 section counts
    for ws in tp.intents.values() {
        n += 12; // txn id + per-txn write count
        n += ws.iter().map(kvwrite_enc_len).sum::<usize>();
    }
    for k in tp.locks.keys() {
        n += 12 + k.len(); // key + owner
    }
    n += 9 * tp.decisions.len(); // txn id + commit flag
    n
}

/// Serialize the version + 2PC section (everything in
/// [`KvStore::encode_state`] after the durable staging).
fn encode_two_phase(version: u64, tp: &TwoPhase, out: &mut BytesMut) {
    out.put_u64_le(version);
    out.put_u32_le(tp.intents.len() as u32);
    for (txn, ws) in &tp.intents {
        out.put_u64_le(*txn);
        out.put_u32_le(ws.len() as u32);
        for w in ws {
            w.encode_into(out);
        }
    }
    out.put_u32_le(tp.locks.len() as u32);
    for (k, t) in &tp.locks {
        put_str(out, k);
        out.put_u64_le(*t);
    }
    out.put_u32_le(tp.decisions.len() as u32);
    for (txn, commit) in &tp.decisions {
        out.put_u64_le(*txn);
        out.put_u8(u8::from(*commit));
    }
}

/// Outcome of one [`serialize_frozen_after`] call.
enum FrozenScan {
    /// Budget reached; resume strictly after this key.
    More(String),
    /// The frozen image is fully serialized.
    Exhausted,
}

/// Serialize entries of the *frozen* committed image strictly after
/// `after` (in key order) into `out`, until `out.len()` reaches `budget`
/// or the image runs out. The image is the live map overlaid with the
/// freeze-time pre-images in `undo` (`Some(v)` = held `v` at freeze,
/// `None` = did not exist).
///
/// One call serializes a whole chunk: a single O(log n) range seek plus a
/// linear merge that writes borrowed strings straight into `out`. A
/// per-entry variant (re-seeking and cloning key + value for every entry)
/// made chunk cost grow with state size through allocator churn, which is
/// exactly what incremental checkpoints exist to avoid.
fn serialize_frozen_after(
    committed: &BTreeMap<String, String>,
    undo: &BTreeMap<String, Option<String>>,
    after: Option<&str>,
    budget: usize,
    out: &mut BytesMut,
) -> FrozenScan {
    use std::ops::Bound;
    let bounds: (Bound<&str>, Bound<&str>) = match after {
        Some(k) => (Bound::Excluded(k), Bound::Unbounded),
        None => (Bound::Unbounded, Bound::Unbounded),
    };
    let mut live = committed.range::<str, _>(bounds).peekable();
    let mut pre = undo.range::<str, _>(bounds).peekable();
    let mut cursor: Option<&str> = None;
    while out.len() < budget {
        let entry: Option<(&str, &str)> = loop {
            match (live.peek(), pre.peek()) {
                (None, None) => break None,
                (Some(&(k, v)), None) => {
                    live.next();
                    break Some((k.as_str(), v.as_str()));
                }
                (None, Some(&(k, img))) => {
                    pre.next();
                    if let Some(v) = img {
                        break Some((k.as_str(), v.as_str()));
                    }
                    // Inserted after the freeze: not part of the image.
                }
                (Some(&(lk, lv)), Some(&(pk, img))) => {
                    if pk <= lk {
                        if pk == lk {
                            live.next(); // the pre-image shadows the live value
                        }
                        pre.next();
                        if let Some(v) = img {
                            break Some((pk.as_str(), v.as_str()));
                        }
                    } else {
                        live.next();
                        break Some((lk.as_str(), lv.as_str()));
                    }
                }
            }
        };
        match entry {
            Some((k, v)) => {
                put_str(out, k);
                put_str(out, v);
                cursor = Some(k);
            }
            None => return FrozenScan::Exhausted,
        }
    }
    match cursor {
        Some(k) => FrozenScan::More(k.to_owned()),
        // Budget was already covered on entry: resume where we started.
        None => match after {
            Some(k) => FrozenScan::More(k.to_owned()),
            None => FrozenScan::Exhausted,
        },
    }
}

/// Freeze-time state of an in-progress chunked snapshot
/// ([`App::snapshot_begin`]): an undo overlay plus a lazy serialization
/// cursor. Chunk `k` is bytes `[k·target, (k+1)·target)` of the canonical
/// encoding — entries may span chunk boundaries, which is what makes the
/// chunk count computable in O(1) at freeze.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Frozen {
    /// Pre-images of committed keys mutated since the freeze (first touch
    /// wins). `None` = the key did not exist at freeze.
    undo: BTreeMap<String, Option<String>>,
    /// Durable-staging section, serialized eagerly at freeze (small).
    tail: Bytes,
    /// Whether `tail` has been appended to `pending` yet.
    tail_done: bool,
    /// Target chunk size in bytes.
    chunk_bytes: usize,
    /// Total chunks promised by `snapshot_begin`.
    total: usize,
    /// Chunks emitted so far (the next expected index).
    emitted: usize,
    /// Last committed key serialized (resume point for the range scan).
    cursor: Option<String>,
    /// Serialized-but-not-yet-emitted bytes.
    pending: BytesMut,
}

/// Undo overlay for a tentative leader-side execution
/// ([`App::tentative_begin`]): rollback restores committed entries from
/// pre-images and durable staging from a clone, and clears volatile
/// staging — byte-for-byte what `restore(pre-exec snapshot)` used to do,
/// at O(writes) instead of O(state).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Tentative {
    /// Pre-images of committed keys mutated since `tentative_begin`
    /// (first touch wins). `None` = the key did not exist.
    undo: BTreeMap<String, Option<String>>,
    /// Durable staging as of `tentative_begin`.
    durable: Staging,
    /// 2PC state as of `tentative_begin` (small: bounded by in-flight
    /// transactions plus the decision table).
    two_phase: TwoPhase,
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
    durable: Staging,
    /// Leader-local staging (T-Paxos). Never snapshotted.
    volatile: Staging,
    /// Replicated 2PC state (prepared intents, key locks, decisions).
    two_phase: TwoPhase,
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

/// Reply payload for a missing key.
const NOT_FOUND: &[u8] = b"\0NOT_FOUND";

/// Retriable reply payload for a sharded `Scan` that overlaps a prepared
/// 2PC intent: serving it would expose bytes whose fate (commit or abort)
/// is still in flight. The client backs off and re-runs the merged read.
pub const SCAN_BLOCKED: &[u8] = b"\0SCAN_BLOCKED";

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

    /// Decode a reply payload produced by this service.
    #[must_use]
    pub fn decode_reply(payload: &Bytes) -> Option<String> {
        if payload.as_ref() == NOT_FOUND {
            None
        } else {
            String::from_utf8(payload.to_vec()).ok()
        }
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
        self.two_phase.intents.keys().copied().collect()
    }

    /// The recorded decision for `txn`, if this store's group is its home
    /// and a decide-with-record decree has been chosen.
    #[must_use]
    pub fn decision(&self, txn: u64) -> Option<bool> {
        self.two_phase.decisions.get(&txn).copied()
    }

    /// Decode a sharded `Scan` reply: `(state version, body)`. `None` if
    /// the scan was refused ([`SCAN_BLOCKED`]) or the payload is not a
    /// versioned scan.
    #[must_use]
    pub fn decode_versioned_scan(payload: &Bytes) -> Option<(u64, String)> {
        let mut b = payload.clone();
        if get_u8(&mut b)? != 1 {
            return None;
        }
        let version = get_u64(&mut b)?;
        Some((version, String::from_utf8(b.to_vec()).ok()?))
    }

    /// Decode a `Fence` reply into the state version it read.
    #[must_use]
    pub fn decode_fence(payload: &Bytes) -> Option<u64> {
        let mut b = payload.clone();
        let v = get_u64(&mut b)?;
        b.is_empty().then_some(v)
    }

    /// Record the pre-image of `key` in both active overlays (first touch
    /// wins). Every committed-map mutation funnels through here before
    /// touching the map, so frozen snapshots and tentative rollbacks see
    /// consistent images.
    fn record_undo(&mut self, key: &str) {
        if let Some(fz) = &mut self.frozen {
            if !fz.undo.contains_key(key) {
                fz.undo
                    .insert(key.to_owned(), self.committed.get(key).cloned());
            }
        }
        if let Some(tn) = &mut self.tentative {
            if !tn.undo.contains_key(key) {
                tn.undo
                    .insert(key.to_owned(), self.committed.get(key).cloned());
            }
        }
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

    fn apply_write(&mut self, w: KvWrite) {
        self.record_undo(w.key());
        match w {
            KvWrite::Put(k, v) => self.set_committed(k, Some(v)),
            KvWrite::Del(k) => self.set_committed(k, None),
        }
    }

    fn read_through(&self, txn: Option<u64>, key: &str) -> Option<String> {
        if let Some(t) = txn {
            for staging in [&self.volatile, &self.durable] {
                if let Some(v) = staging.staged_value(t, key) {
                    return v.map(str::to_owned);
                }
            }
        }
        self.committed.get(key).cloned()
    }

    fn reply_for(value: Option<String>) -> Bytes {
        match value {
            Some(v) => Bytes::from(v.into_bytes()),
            None => Bytes::from_static(NOT_FOUND),
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
        if self.shard.is_some() && self.two_phase.locks.keys().any(|k| k.starts_with(prefix)) {
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
        if self.shard.is_none() {
            return Bytes::from(out.into_bytes());
        }
        let mut b = BytesMut::with_capacity(9 + out.len());
        b.put_u8(1);
        b.put_u64_le(self.version);
        b.extend_from_slice(out.as_bytes());
        b.freeze()
    }

    /// Reply payload for a `Fence` read: the raw state version.
    fn fence_reply(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(8);
        b.put_u64_le(self.version);
        b.freeze()
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

    /// Resolve an op to the write it implies, reading through staged state
    /// (needed by `Add`).
    fn write_of(&self, txn: Option<u64>, op: KvOp) -> Option<(KvWrite, Bytes)> {
        let put = |k, v: String| {
            let reply = Bytes::copy_from_slice(v.as_bytes());
            Some((KvWrite::Put(k, v), reply))
        };
        match op {
            KvOp::Get(_) | KvOp::Scan(_) | KvOp::Fence => None,
            KvOp::Put(k, v) => put(k, v),
            KvOp::Del(k) => Some((KvWrite::Del(k), Bytes::new())),
            KvOp::Add(k, d) => {
                let cur: i64 = self
                    .read_through(txn, &k)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                put(k, (cur + d).to_string())
            }
        }
    }

    /// Exact encoded size of [`KvStore::encode_state`]'s output, in O(1)
    /// for the committed section (the incremental counter) plus a walk of
    /// the small durable-staging section.
    fn encoded_state_len(&self) -> usize {
        4 + self.committed_enc_bytes
            + durable_enc_len(&self.durable)
            + two_phase_enc_len(self.version, &self.two_phase)
    }

    fn encode_state(&self) -> Bytes {
        // One exact reservation: the committed section is priced by the
        // incrementally-maintained counter, so serialization never
        // reallocates (the old code grew the buffer O(log n) times, each
        // a full copy of the state).
        let mut out = BytesMut::with_capacity(self.encoded_state_len());
        out.put_u32_le(self.committed.len() as u32);
        for (k, v) in &self.committed {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        encode_durable(&self.durable, &mut out);
        encode_two_phase(self.version, &self.two_phase, &mut out);
        debug_assert_eq!(out.len(), self.encoded_state_len());
        out.freeze()
    }

    fn decode_state(mut b: Bytes) -> Option<KvStore> {
        let mut s = KvStore::new();
        let n = get_u32(&mut b)? as usize;
        for _ in 0..n {
            let k = get_str(&mut b)?;
            let v = get_str(&mut b)?;
            s.committed_enc_bytes += entry_enc_len(&k, &v);
            s.committed.insert(k, v);
        }
        let nt = get_u32(&mut b)? as usize;
        for _ in 0..nt {
            let txn = get_u64(&mut b)?;
            let nw = get_u32(&mut b)? as usize;
            let mut ws = Vec::with_capacity(nw.min(1024));
            for _ in 0..nw {
                ws.push(KvWrite::decode(&mut b)?);
            }
            s.durable.writes.insert(txn, ws);
        }
        let nl = get_u32(&mut b)? as usize;
        for _ in 0..nl {
            let k = get_str(&mut b)?;
            let t = get_u64(&mut b)?;
            s.durable.locks.insert(k, t);
        }
        s.version = get_u64(&mut b)?;
        let ni = get_u32(&mut b)? as usize;
        for _ in 0..ni {
            let txn = get_u64(&mut b)?;
            let nw = get_u32(&mut b)? as usize;
            let mut ws = Vec::with_capacity(nw.min(1024));
            for _ in 0..nw {
                ws.push(KvWrite::decode(&mut b)?);
            }
            s.two_phase.intents.insert(txn, ws);
        }
        let nl2 = get_u32(&mut b)? as usize;
        for _ in 0..nl2 {
            let k = get_str(&mut b)?;
            let t = get_u64(&mut b)?;
            s.two_phase.locks.insert(k, t);
        }
        let nd = get_u32(&mut b)? as usize;
        for _ in 0..nd {
            let txn = get_u64(&mut b)?;
            let commit = get_u8(&mut b)? != 0;
            s.two_phase.decisions.insert(txn, commit);
        }
        Some(s)
    }

    /// Resolve a 2PC transaction locally: record the decision if asked
    /// (first writer wins), then apply or drop the intent. Returns the
    /// *actual* outcome — the recorded decision when one exists, which may
    /// differ from what the caller requested (the in-doubt race). Shared
    /// verbatim by the leader (`txn_decide`) and backups
    /// (`apply_txn_decide`) so the two can never diverge.
    fn decide_2pc(&mut self, txn: u64, commit: bool, record: bool) -> bool {
        let actual = if record {
            *self.two_phase.decisions.entry(txn).or_insert(commit)
        } else {
            // Participant-directed decide: trust the recorded decision if
            // this group happens to also be the home, else the message.
            self.two_phase
                .decisions
                .get(&txn)
                .copied()
                .unwrap_or(commit)
        };
        if let Some(ws) = self.two_phase.resolve(txn) {
            if actual {
                for w in ws {
                    self.apply_write(w);
                }
            }
        }
        self.version += 1;
        actual
    }
}

impl App for KvStore {
    fn execute(&mut self, req: &Request, ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        let Some(op) = KvOp::decode(req.op.clone()) else {
            return (Bytes::from_static(b"\0BAD_OP"), StateUpdate::None);
        };
        match op {
            KvOp::Get(k) => (
                Self::reply_for(self.read_through(None, &k)),
                StateUpdate::None,
            ),
            KvOp::Scan(p) => (self.scan_reply(&p), StateUpdate::None),
            KvOp::Fence => (self.fence_reply(), StateUpdate::None),
            other => {
                // A non-transactional write still respects transaction
                // locks — including 2PC intent locks, whose keys' fate is
                // decided elsewhere: refuse to clobber a key a
                // transaction holds.
                if self.durable.lock_conflicts(other.key(), u64::MAX)
                    || self.volatile.lock_conflicts(other.key(), u64::MAX)
                    || self.two_phase.lock_conflicts(other.key(), u64::MAX)
                {
                    return (Bytes::from_static(b"\0LOCKED"), StateUpdate::None);
                }
                // The decoded value is copied into the reply and into the
                // delta, then moved into the store.
                let (w, reply) = self.write_of(None, other).expect("write op");
                let delta = KvDelta::encode_apply_writes(std::slice::from_ref(&w));
                self.apply_write(w);
                self.version += 1;
                // The delta names its own key and value; `apply` reads
                // `req.txn` (the payload-less abort) and never `req.op`.
                ctx.update_subsumes_op();
                (reply, StateUpdate::Delta(delta))
            }
        }
    }

    fn apply(&mut self, req: &Request, update: &StateUpdate) {
        match update {
            StateUpdate::None => {
                // A coordinated abort ships no payload; the transaction
                // control on the request tells us what to discard.
                if let Some(TxnCtl::Abort { txn }) = req.txn {
                    self.durable.discard(txn.0);
                }
            }
            StateUpdate::Full(b) => {
                if let Some(mut s) = KvStore::decode_state(b.clone()) {
                    s.shard = self.shard; // deployment config, not state
                    *self = s;
                }
            }
            StateUpdate::Delta(b) => match KvDelta::decode(b.clone()) {
                Some(KvDelta::ApplyWrites(ws)) => {
                    for w in ws {
                        self.apply_write(w);
                    }
                    self.version += 1;
                }
                Some(KvDelta::Stage(txn, w)) => self.durable.stage(txn, w),
                Some(KvDelta::CommitTxn(txn)) => {
                    for w in self.durable.take(txn) {
                        self.apply_write(w);
                    }
                    self.version += 1;
                }
                Some(KvDelta::AbortTxn(txn)) => self.durable.discard(txn),
                Some(KvDelta::Prepare2pc(txn, ws)) => {
                    self.two_phase.prepare(txn, ws);
                    self.version += 1;
                }
                Some(KvDelta::Decide2pc {
                    txn,
                    commit,
                    record,
                }) => {
                    self.decide_2pc(txn, commit, record);
                }
                None => {}
            },
            StateUpdate::Reproduce(_) => {
                // The KV store never emits Reproduce updates.
            }
        }
    }

    fn snapshot(&self) -> Bytes {
        // Volatile staging deliberately excluded (leader-local only).
        self.encode_state()
    }

    fn restore(&mut self, snap: &[u8]) {
        if let Some(mut s) = KvStore::decode_state(Bytes::copy_from_slice(snap)) {
            s.shard = self.shard; // deployment config, not state
            *self = s; // volatile staging cleared by construction
        }
    }

    fn shard_key(&self, req: &Request) -> Option<u64> {
        self.shard?;
        KvOp::decode(req.op.clone()).and_then(|op| op.shard_key())
    }

    fn txn_begin(&mut self, _txn: TxnId) {}

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
        // Write locks: conflict with any other transaction in either
        // staging area (or a prepared 2PC intent) aborts this operation.
        if op.is_write()
            && (self.durable.lock_conflicts(op.key(), t)
                || self.volatile.lock_conflicts(op.key(), t)
                || self.two_phase.lock_conflicts(op.key(), t))
        {
            return Err(AbortReason::Conflict);
        }
        match op {
            KvOp::Get(k) => Ok((
                Self::reply_for(self.read_through(Some(t), &k)),
                StateUpdate::None,
            )),
            KvOp::Scan(p) => {
                if self.shard.is_some() {
                    // A transaction session lives on one group's leader; a
                    // consistent cross-group scan needs the merged-read
                    // protocol, not a single-group transaction.
                    return Err(AbortReason::CrossShard);
                }
                Ok((self.scan_reply(&p), StateUpdate::None))
            }
            KvOp::Fence => Ok((self.fence_reply(), StateUpdate::None)),
            other => {
                let (w, reply) = self.write_of(Some(t), other).expect("write op");
                let staging = if durable {
                    &mut self.durable
                } else {
                    &mut self.volatile
                };
                staging.stage(t, w.clone());
                let update = if durable {
                    StateUpdate::Delta(KvDelta::Stage(t, w).encode())
                } else {
                    StateUpdate::None // volatile staging is not replicated
                };
                Ok((reply, update))
            }
        }
    }

    fn txn_commit(&mut self, txn: TxnId) -> StateUpdate {
        let t = txn.0;
        if self.volatile.writes.contains_key(&t) {
            // T-Paxos: ship the whole batch; backups have no staging.
            let ws = self.volatile.take(t);
            let delta = KvDelta::encode_apply_writes(&ws);
            for w in ws {
                self.apply_write(w);
            }
            self.version += 1;
            StateUpdate::Delta(delta)
        } else if self.durable.writes.contains_key(&t) {
            // Per-op coordination: backups hold identical staging; a
            // commit marker suffices.
            for w in self.durable.take(t) {
                self.apply_write(w);
            }
            self.version += 1;
            StateUpdate::Delta(KvDelta::CommitTxn(t).encode())
        } else {
            StateUpdate::None // empty transaction
        }
    }

    fn txn_abort(&mut self, txn: TxnId) {
        self.volatile.discard(txn.0);
        self.durable.discard(txn.0);
    }

    fn apply_txn_commit(&mut self, _txn: TxnId, _ops: &[Request], update: &StateUpdate) {
        if let StateUpdate::Delta(b) = update {
            if let Some(KvDelta::ApplyWrites(ws)) = KvDelta::decode(b.clone()) {
                for w in ws {
                    self.apply_write(w);
                }
                self.version += 1;
            }
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
        if self.two_phase.decisions.contains_key(&t) {
            return Err(AbortReason::InDoubt);
        }
        let Some(ops) = decode_txn_ops(req.op.clone()) else {
            return Err(AbortReason::Unsupported);
        };
        if ops.is_empty() || ops.iter().any(|op| !op.is_write()) {
            // 2PC legs are pure write sets; reads ride the merged-read
            // protocol instead.
            return Err(AbortReason::Unsupported);
        }
        // Every key must hash to this group — a misrouted leg gets a
        // typed refusal, not silently-wrong locks.
        if ops.iter().any(|op| self.foreign_key(op.key())) {
            return Err(AbortReason::CrossShard);
        }
        // Vote no on any lock conflict (T-Paxos staging or another
        // prepared intent): 2PC never waits, it aborts and lets the
        // coordinator retry.
        if ops.iter().any(|op| {
            self.durable.lock_conflicts(op.key(), t)
                || self.volatile.lock_conflicts(op.key(), t)
                || self.two_phase.lock_conflicts(op.key(), t)
        }) {
            return Err(AbortReason::Conflict);
        }
        // Resolve the ops to concrete writes *now*, under the locks —
        // an `Add` reads the current committed value (through earlier
        // writes of this same leg) and becomes the `Put` of the result,
        // so applying the intent at decide time is deterministic no
        // matter what else committed in between.
        let mut writes: Vec<KvWrite> = Vec::with_capacity(ops.len());
        for op in &ops {
            let w = match op {
                KvOp::Put(k, v) => KvWrite::Put(k.clone(), v.clone()),
                KvOp::Del(k) => KvWrite::Del(k.clone()),
                KvOp::Add(k, d) => {
                    let through = writes
                        .iter()
                        .rev()
                        .find(|w| w.key() == k.as_str())
                        .map(|w| match w {
                            KvWrite::Put(_, v) => Some(v.clone()),
                            KvWrite::Del(_) => None,
                        });
                    let cur: i64 = match through {
                        Some(v) => v.and_then(|v| v.parse().ok()).unwrap_or(0),
                        None => self
                            .committed
                            .get(k)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0),
                    };
                    KvWrite::Put(k.clone(), (cur + d).to_string())
                }
                KvOp::Get(_) | KvOp::Scan(_) | KvOp::Fence => unreachable!("writes only"),
            };
            writes.push(w);
        }
        self.two_phase.prepare(t, writes.clone());
        self.version += 1;
        Ok(StateUpdate::Delta(KvDelta::Prepare2pc(t, writes).encode()))
    }

    fn txn_decide(&mut self, txn: TxnId, commit: bool, record: bool) -> (bool, StateUpdate) {
        let actual = self.decide_2pc(txn.0, commit, record);
        // Always ship the delta (even when no local intent existed): the
        // backups must mirror the decision-table insert and the version
        // bump, and a recorded decision must carry the *actual* outcome.
        (
            actual,
            StateUpdate::Delta(
                KvDelta::Decide2pc {
                    txn: txn.0,
                    commit: actual,
                    record,
                }
                .encode(),
            ),
        )
    }

    fn apply_txn_decide(&mut self, txn: TxnId, commit: bool, update: &StateUpdate) {
        // The delta carries the leader's resolved outcome; fall back to
        // the command's flag only if the payload is missing.
        if let StateUpdate::Delta(b) = update {
            if let Some(KvDelta::Decide2pc {
                txn,
                commit,
                record,
            }) = KvDelta::decode(b.clone())
            {
                self.decide_2pc(txn, commit, record);
                return;
            }
        }
        self.decide_2pc(txn.0, commit, false);
    }

    // ---- tentative execution (undo log; replaces pre-exec snapshots) ----

    fn tentative_begin(&mut self) -> bool {
        debug_assert!(self.tentative.is_none(), "tentative windows never nest");
        self.tentative = Some(Tentative {
            undo: BTreeMap::new(),
            durable: self.durable.clone(),
            two_phase: self.two_phase.clone(),
            version: self.version,
        });
        true
    }

    fn tentative_rollback(&mut self) {
        let Some(tn) = self.tentative.take() else {
            return;
        };
        // Mirror `restore(pre-exec snapshot)` exactly: committed entries
        // back to their pre-images, durable staging and 2PC state back to
        // their clones, volatile staging cleared.
        for (k, img) in tn.undo {
            self.set_committed(k, img);
        }
        self.durable = tn.durable;
        self.two_phase = tn.two_phase;
        self.version = tn.version;
        self.volatile = Staging::default();
    }

    fn tentative_commit(&mut self) {
        self.tentative = None;
    }

    // ---- chunked snapshots (incremental checkpoints) --------------------

    fn snapshot_begin(&mut self, chunk_bytes: usize) -> usize {
        debug_assert!(self.frozen.is_none(), "snapshots never nest");
        let chunk_bytes = chunk_bytes.max(1);
        let mut tail = BytesMut::with_capacity(
            durable_enc_len(&self.durable) + two_phase_enc_len(self.version, &self.two_phase),
        );
        encode_durable(&self.durable, &mut tail);
        encode_two_phase(self.version, &self.two_phase, &mut tail);
        let total_bytes = 4 + self.committed_enc_bytes + tail.len();
        let total = total_bytes.div_ceil(chunk_bytes).max(1);
        let mut pending = BytesMut::with_capacity(chunk_bytes.min(total_bytes) + 64);
        pending.put_u32_le(self.committed.len() as u32);
        self.frozen = Some(Frozen {
            undo: BTreeMap::new(),
            tail: tail.freeze(),
            tail_done: false,
            chunk_bytes,
            total,
            emitted: 0,
            cursor: None,
            pending,
        });
        total
    }

    fn snapshot_chunk(&mut self, idx: usize) -> Bytes {
        let Some(mut fz) = self.frozen.take() else {
            debug_assert!(false, "snapshot_chunk outside a snapshot window");
            return self.snapshot();
        };
        debug_assert_eq!(idx, fz.emitted, "chunks are emitted in order");
        let last = idx + 1 >= fz.total;
        // Serialize frozen entries until this chunk's byte budget is
        // covered (the last chunk drains everything). Once the tail went
        // in, the image is fully serialized — the stale resume cursor
        // must not restart the entry scan.
        if !fz.tail_done && (last || fz.pending.len() < fz.chunk_bytes) {
            let budget = if last { usize::MAX } else { fz.chunk_bytes };
            match serialize_frozen_after(
                &self.committed,
                &fz.undo,
                fz.cursor.as_deref(),
                budget,
                &mut fz.pending,
            ) {
                FrozenScan::More(k) => fz.cursor = Some(k),
                FrozenScan::Exhausted => {
                    if !fz.tail_done {
                        fz.tail_done = true;
                        fz.pending.extend_from_slice(&fz.tail);
                    }
                }
            }
        }
        let take = if last {
            fz.pending.len()
        } else {
            // Non-last chunks are always full: the freeze-time byte count
            // priced every chunk before the last at exactly `chunk_bytes`.
            debug_assert!(fz.pending.len() >= fz.chunk_bytes);
            fz.chunk_bytes.min(fz.pending.len())
        };
        let out = fz.pending.split_to(take).freeze();
        fz.emitted += 1;
        self.frozen = Some(fz);
        out
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn req(seq: u64, kind: RequestKind, op: &KvOp) -> Request {
        Request::new(RequestId::new(ClientId(1), Seq(seq)), kind, op.encode())
    }

    fn txn_req(seq: u64, kind: RequestKind, txn: TxnId, op: &KvOp) -> Request {
        Request::txn_op(
            RequestId::new(ClientId(1), Seq(seq)),
            kind,
            txn,
            op.encode(),
        )
    }

    fn exec(store: &mut KvStore, r: &Request) -> (Bytes, StateUpdate) {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        store.execute(r, &mut ctx)
    }

    #[test]
    fn ops_roundtrip_their_encoding() {
        for op in [
            KvOp::Get("k".into()),
            KvOp::Put("k".into(), "v".into()),
            KvOp::Del("k".into()),
            KvOp::Add("k".into(), -7),
            KvOp::Scan("k".into()),
        ] {
            assert_eq!(KvOp::decode(op.encode()), Some(op));
        }
        assert_eq!(KvOp::decode(Bytes::from_static(&[9])), None);
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
    fn snapshot_restore_roundtrip_drops_volatile() {
        let mut s = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        exec(
            &mut s,
            &req(1, RequestKind::Write, &KvOp::Put("a".into(), "1".into())),
        );
        // Durable staging present.
        let t = TxnId(7);
        let r = txn_req(2, RequestKind::Write, t, &KvOp::Put("b".into(), "2".into()));
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        s.txn_execute(t, &r, true, &mut ctx).unwrap();
        // Volatile staging present.
        let tv = TxnId(8);
        let rv = txn_req(
            3,
            RequestKind::Write,
            tv,
            &KvOp::Put("c".into(), "3".into()),
        );
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        s.txn_execute(tv, &rv, false, &mut ctx).unwrap();

        let snap = s.snapshot();
        let mut restored = KvStore::new();
        restored.restore(&snap);
        assert_eq!(restored.get("a"), Some("1"));
        assert!(restored.durable.writes.contains_key(&7));
        assert!(restored.volatile.writes.is_empty(), "volatile dropped");

        // The original's committed+durable state matches the restored one.
        let mut original_clean = s.clone();
        original_clean.volatile = Staging::default();
        assert_eq!(restored, original_clean);
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
            let kind = if op.is_write() {
                RequestKind::Write
            } else {
                RequestKind::Read
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
    fn restore_preserves_shard_placement() {
        let mut donor = KvStore::new();
        exec(
            &mut donor,
            &req(1, RequestKind::Write, &KvOp::Put("a".into(), "1".into())),
        );
        let snap = donor.snapshot();
        let mut s = KvStore::sharded();
        s.restore(&snap);
        assert_eq!(s.get("a"), Some("1"));
        let (reply, _) = exec(&mut s, &req(2, RequestKind::Read, &KvOp::Scan("".into())));
        assert!(
            KvStore::decode_versioned_scan(&reply).is_some(),
            "still sharded after restore"
        );
        assert_eq!(s.version(), donor.version(), "version rides the snapshot");
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

    /// Emit every chunk of an open chunked snapshot and concatenate.
    fn collect_chunks(s: &mut KvStore, chunk_bytes: usize) -> Bytes {
        use gridpaxos_core::service::App;
        let total = s.snapshot_begin(chunk_bytes);
        let mut out = bytes::BytesMut::new();
        for i in 0..total {
            let c = s.snapshot_chunk(i);
            if i + 1 < total {
                assert_eq!(c.len(), chunk_bytes, "non-final chunks are full");
            }
            out.extend_from_slice(&c);
        }
        s.snapshot_end();
        out.freeze()
    }

    #[test]
    fn tentative_rollback_is_equivalent_to_pre_exec_restore() {
        use gridpaxos_core::service::App;
        let mut s = KvStore::new();
        for (k, v) in [("a", "1"), ("b", "2"), ("c", "3")] {
            exec(
                &mut s,
                &req(1, RequestKind::Write, &KvOp::Put(k.into(), v.into())),
            );
        }
        let before = s.clone();
        let snap = s.snapshot();

        assert!(s.tentative_begin(), "KvStore supports undo-log rollback");
        exec(
            &mut s,
            &req(2, RequestKind::Write, &KvOp::Put("a".into(), "X".into())),
        );
        exec(&mut s, &req(3, RequestKind::Write, &KvOp::Del("b".into())));
        exec(
            &mut s,
            &req(4, RequestKind::Write, &KvOp::Put("new".into(), "n".into())),
        );
        exec(
            &mut s,
            &req(5, RequestKind::Write, &KvOp::Add("ctr".into(), 7)),
        );
        s.tentative_rollback();

        assert_eq!(s.snapshot(), snap, "rollback restores the exact image");
        assert_eq!(s, before);

        // And the same store still works for committed applies afterwards.
        exec(
            &mut s,
            &req(6, RequestKind::Write, &KvOp::Put("d".into(), "4".into())),
        );
        assert_eq!(s.get("d"), Some("4"));
    }

    #[test]
    fn tentative_commit_keeps_the_writes() {
        use gridpaxos_core::service::App;
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

    #[test]
    fn chunked_snapshot_concatenates_to_the_monolithic_one() {
        use gridpaxos_core::service::App;
        let mut s = KvStore::new();
        for i in 0..40 {
            exec(
                &mut s,
                &req(
                    i,
                    RequestKind::Write,
                    &KvOp::Put(format!("key-{i:03}"), format!("value-{i}")),
                ),
            );
        }
        let mono = s.snapshot();
        for chunk_bytes in [1, 7, 64, mono.len() - 1, mono.len(), mono.len() + 1] {
            let total = s.snapshot_begin(chunk_bytes);
            assert_eq!(total, mono.len().div_ceil(chunk_bytes).max(1));
            s.snapshot_end();
            assert_eq!(
                collect_chunks(&mut s, chunk_bytes),
                mono,
                "chunk_bytes={chunk_bytes}"
            );
        }
        let mut fresh = KvStore::new();
        fresh.restore(&collect_chunks(&mut s, 13));
        assert_eq!(fresh, s);
    }

    #[test]
    fn writes_during_a_frozen_snapshot_do_not_leak_into_it() {
        use gridpaxos_core::service::App;
        let mut s = KvStore::new();
        for (k, v) in [("a", "1"), ("m", "2"), ("z", "3")] {
            exec(
                &mut s,
                &req(1, RequestKind::Write, &KvOp::Put(k.into(), v.into())),
            );
        }
        let at_freeze = s.snapshot();

        let total = s.snapshot_begin(8);
        // Mutate every way possible while frozen: overwrite, delete,
        // insert before/between/after the cursor's eventual positions.
        for op in [
            KvOp::Put("a".into(), "overwritten".into()),
            KvOp::Del("m".into()),
            KvOp::Put("0-early".into(), "new".into()),
            KvOp::Put("q-mid".into(), "new".into()),
            KvOp::Put("zz-late".into(), "new".into()),
        ] {
            exec(&mut s, &req(9, RequestKind::Write, &op));
        }
        assert_ne!(s.snapshot(), at_freeze, "live snapshot tracks the writes");
        let mut out = bytes::BytesMut::new();
        for i in 0..total {
            out.extend_from_slice(&s.snapshot_chunk(i));
        }
        s.snapshot_end();
        assert_eq!(out.freeze(), at_freeze, "chunks serve the frozen epoch");

        // After the freeze ends the store serves the mutated state.
        assert_eq!(s.get("a"), Some("overwritten"));
        assert_eq!(s.get("m"), None);
        assert_eq!(s.get("q-mid"), Some("new"));
    }

    // ---- 2PC -----------------------------------------------------------

    fn prep_req(seq: u64, txn: TxnId, ops: &[KvOp]) -> Request {
        Request::txn_prepare(
            RequestId::new(ClientId(1), Seq(seq)),
            txn,
            encode_txn_ops(ops),
        )
    }

    fn prepare(
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
    fn txn_ops_roundtrip_their_encoding() {
        let ops = vec![
            KvOp::Put("a".into(), "1".into()),
            KvOp::Del("b".into()),
            KvOp::Add("c".into(), -3),
        ];
        assert_eq!(decode_txn_ops(encode_txn_ops(&ops)), Some(ops));
        assert_eq!(decode_txn_ops(Bytes::from_static(&[1, 0, 0, 0, 9])), None);
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
    fn snapshot_roundtrips_2pc_state() {
        let mut s = KvStore::sharded();
        exec(
            &mut s,
            &req(1, RequestKind::Write, &KvOp::Put("a".into(), "1".into())),
        );
        prepare(&mut s, 2, TxnId(3), &[KvOp::Put("b".into(), "2".into())]).unwrap();
        s.txn_decide(TxnId(7), false, true); // an unrelated recorded abort
        let mut fresh = KvStore::sharded();
        fresh.restore(&s.snapshot());
        assert_eq!(fresh, s);
        assert_eq!(fresh.prepared_txns(), vec![3]);
        assert_eq!(fresh.decision(7), Some(false));
        // The chunked emission covers the 2PC tail too.
        assert_eq!(collect_chunks(&mut s, 7), fresh.snapshot());
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

    mod props {
        use super::*;
        use gridpaxos_core::service::App;
        use proptest::prelude::*;

        fn arb_key() -> impl Strategy<Value = String> {
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("d"), Just("e")]
                .prop_map(String::from)
        }

        fn arb_op() -> impl Strategy<Value = KvOp> {
            prop_oneof![
                (arb_key(), "[a-z]{0,12}").prop_map(|(k, v)| KvOp::Put(k, v)),
                arb_key().prop_map(KvOp::Del),
                (arb_key(), -9i64..9).prop_map(|(k, d)| KvOp::Add(k, d)),
            ]
        }

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

            /// Chunked emission reproduces the monolithic snapshot at every
            /// chunk size, including degenerate 1-byte chunks, and restores
            /// to an equal store.
            #[test]
            fn chunked_snapshot_roundtrips_at_every_boundary(
                ops in proptest::collection::vec(arb_op(), 0..25),
                chunk_bytes in 1usize..400,
            ) {
                let mut s = KvStore::new();
                for (i, op) in ops.iter().enumerate() {
                    exec(&mut s, &req(i as u64 + 1, RequestKind::Write, op));
                }
                let mono = s.snapshot();
                let chunked = collect_chunks(&mut s, chunk_bytes);
                prop_assert_eq!(&chunked, &mono);
                let mut fresh = KvStore::new();
                fresh.restore(&chunked);
                prop_assert_eq!(&fresh, &s);
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
        }
    }
}
