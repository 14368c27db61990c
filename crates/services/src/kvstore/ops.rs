//! What crosses the store's boundary: the client's [`KvOp`], the concrete
//! [`KvWrite`] an op resolves to, the [`KvDelta`] a decree ships to the
//! backups, their codecs, and the shard placement clients and replicas
//! must agree on. No store state lives here.

use super::KvStore;
use crate::codec::{get_i64, get_str, get_u32, get_u64, get_u8, put_str};
use bytes::{BufMut, Bytes, BytesMut};
use gridpaxos_core::client::ShardRouter;
use gridpaxos_core::command::StateUpdate;
use gridpaxos_core::types::{shard_of, GroupId};

/// A client-visible operation on the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key. `kind` must be `Read`.
    Get(String),
    /// Write a key.
    Put(String, String),
    /// Delete a key.
    Del(String),
    /// Add `delta` to the integer value of a key (missing = 0), wrapping
    /// at the ends of `i64`.
    Add(String, i64),
    /// Read all keys with the given prefix. `kind` must be `Read`.
    /// Cross-key: on sharded stores the reply is version-prefixed (see
    /// [`super::KvStore::decode_versioned_scan`]) so a merged cross-group
    /// read can be fenced for consistency.
    Scan(String),
    /// Read the store's state version (see [`super::KvStore::version`]).
    /// `kind` must be `Read`. Keyless: routed explicitly, never by shard.
    Fence,
}

/// What a write op does to its key. [`KvOp::into_write`] is the only
/// source of one, so a function that takes a `Change` is handed a write.
pub(super) enum Change {
    Put(String),
    Del,
    Add(i64),
}

/// The ops that are not writes.
pub(super) enum ReadOp {
    Get(String),
    Scan(String),
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
            KvOp::Get(k) | KvOp::Put(k, _) | KvOp::Del(k) | KvOp::Add(k, _) => {
                Some(fnv1a(k.as_bytes()))
            }
        }
    }

    /// A write split into its key and what it does to it, or the read
    /// this op is.
    pub(super) fn into_write(self) -> Result<(String, Change), ReadOp> {
        match self {
            KvOp::Put(k, v) => Ok((k, Change::Put(v))),
            KvOp::Del(k) => Ok((k, Change::Del)),
            KvOp::Add(k, d) => Ok((k, Change::Add(d))),
            KvOp::Get(k) => Err(ReadOp::Get(k)),
            KvOp::Scan(p) => Err(ReadOp::Scan(p)),
            KvOp::Fence => Err(ReadOp::Fence),
        }
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
    decode_list(&mut b, KvOp::decode_one)
}

/// A `u32` count and that many items; the count is the sender's, so it
/// sizes no allocation beyond a small one.
fn decode_list<T>(b: &mut Bytes, one: fn(&mut Bytes) -> Option<T>) -> Option<Vec<T>> {
    let n = get_u32(b)? as usize;
    let mut items = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        items.push(one(b)?);
    }
    Some(items)
}

/// FNV-1a — stable across processes (unlike `std`'s `DefaultHasher`), so
/// clients and replicas agree on shard placement.
pub(super) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Client-side routing function for sharded deployments: decodes the op
/// and hashes its key exactly as [`super::KvStore`]'s
/// [`gridpaxos_core::service::App::shard_key`] does.
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
pub fn transfer_legs(src: &str, dst: &str, amount: i64, n_groups: usize) -> Vec<(GroupId, Bytes)> {
    let group_of = |key: &str| shard_of(fnv1a(key.as_bytes()), n_groups);
    let debit = KvOp::Add(src.into(), amount.wrapping_neg());
    let credit = KvOp::Add(dst.into(), amount);
    let (g_src, g_dst) = (group_of(src), group_of(dst));
    if g_src == g_dst {
        vec![(g_src, encode_txn_ops(&[debit, credit]))]
    } else {
        vec![
            (g_src, encode_txn_ops(&[debit])),
            (g_dst, encode_txn_ops(&[credit])),
        ]
    }
}

/// Reply payload for a missing key.
const NOT_FOUND: &[u8] = b"\0NOT_FOUND";

/// Retriable reply payload for a sharded `Scan` that overlaps a prepared
/// 2PC intent: serving it would expose bytes whose fate (commit or abort)
/// is still in flight. The client backs off and re-runs the merged read.
pub const SCAN_BLOCKED: &[u8] = b"\0SCAN_BLOCKED";

/// The reply to a read of one key; [`KvStore::decode_reply`] reads it.
pub(super) fn value_reply(v: Option<&str>) -> Bytes {
    match v {
        Some(v) => Bytes::copy_from_slice(v.as_bytes()),
        None => Bytes::from_static(NOT_FOUND),
    }
}

/// A `Fence` reply: the raw state version.
pub(super) fn fence_reply(version: u64) -> Bytes {
    Bytes::copy_from_slice(&version.to_le_bytes())
}

/// One leg of a merged cross-group read: tag byte `1`, the state
/// version, the body.
pub(super) fn versioned_scan_reply(version: u64, body: &str) -> Bytes {
    let mut b = BytesMut::with_capacity(9 + body.len());
    b.put_u8(1);
    b.put_u64_le(version);
    b.extend_from_slice(body.as_bytes());
    b.freeze()
}

impl KvStore {
    /// Decode a reply payload produced by this service.
    #[must_use]
    pub fn decode_reply(payload: &Bytes) -> Option<String> {
        if payload.as_ref() == NOT_FOUND {
            None
        } else {
            String::from_utf8(payload.to_vec()).ok()
        }
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
}

/// One staged or committed mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) enum KvWrite {
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

    fn enc_len(&self) -> usize {
        match self {
            KvWrite::Put(k, v) => 9 + k.len() + v.len(),
            KvWrite::Del(k) => 5 + k.len(),
        }
    }

    pub(super) fn key(&self) -> &str {
        match self {
            KvWrite::Put(k, _) | KvWrite::Del(k) => k,
        }
    }

    /// The value this write leaves under its key (`None`: deleted).
    pub(super) fn value(&self) -> Option<&str> {
        match self {
            KvWrite::Put(_, v) => Some(v),
            KvWrite::Del(_) => None,
        }
    }
}

/// Exact size of [`encode_writes`]' output.
pub(super) fn writes_enc_len(ws: &[KvWrite]) -> usize {
    4 + ws.iter().map(KvWrite::enc_len).sum::<usize>()
}

/// A write list as two deltas and both snapshot sections carry it: a
/// `u32` count, then the writes.
pub(super) fn encode_writes(ws: &[KvWrite], out: &mut BytesMut) {
    out.put_u32_le(ws.len() as u32);
    for w in ws {
        w.encode_into(out);
    }
}

/// Decode a write list built by [`encode_writes`].
pub(super) fn decode_writes(b: &mut Bytes) -> Option<Vec<KvWrite>> {
    decode_list(b, KvWrite::decode)
}

/// Replicated state-update payloads.
pub(super) enum KvDelta {
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
    pub(super) fn encode_apply_writes(ws: &[KvWrite]) -> Bytes {
        let len = 1 + writes_enc_len(ws);
        let mut out = BytesMut::with_capacity(len);
        out.put_u8(0);
        encode_writes(ws, &mut out);
        debug_assert_eq!(out.len(), len);
        out.freeze()
    }

    pub(super) fn encode(&self) -> Bytes {
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
                encode_writes(ws, &mut out);
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

    /// The delta `update` carries, if it carries one.
    pub(super) fn of(update: &StateUpdate) -> Option<KvDelta> {
        match update {
            StateUpdate::Delta(b) => KvDelta::decode(b.clone()),
            _ => None,
        }
    }

    fn decode(mut b: Bytes) -> Option<KvDelta> {
        match get_u8(&mut b)? {
            0 => Some(KvDelta::ApplyWrites(decode_writes(&mut b)?)),
            1 => Some(KvDelta::Stage(get_u64(&mut b)?, KvWrite::decode(&mut b)?)),
            2 => Some(KvDelta::CommitTxn(get_u64(&mut b)?)),
            3 => Some(KvDelta::AbortTxn(get_u64(&mut b)?)),
            4 => Some(KvDelta::Prepare2pc(
                get_u64(&mut b)?,
                decode_writes(&mut b)?,
            )),
            5 => Some(KvDelta::Decide2pc {
                txn: get_u64(&mut b)?,
                commit: get_u8(&mut b)? != 0,
                record: get_u8(&mut b)? != 0,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn txn_ops_roundtrip_their_encoding() {
        let ops = vec![
            KvOp::Put("a".into(), "1".into()),
            KvOp::Del("b".into()),
            KvOp::Add("c".into(), -3),
        ];
        assert_eq!(decode_txn_ops(encode_txn_ops(&ops)), Some(ops));
        assert_eq!(decode_txn_ops(Bytes::from_static(&[1, 0, 0, 0, 9])), None);
    }
}
