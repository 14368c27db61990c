//! The store's image — what `snapshot` returns, `restore` accepts and a
//! chunked checkpoint emits piece by piece — and the first-touch
//! [`Overlay`] that lets the live map keep moving under a frozen image or
//! be rolled back under a tentative execution.
//!
//! Layout: `u32` count + committed entries in key order; the `durable`
//! section; the `u64` version; the `prepared` section; the decisions.
//! Volatile staging is leader-local and never part of it.

use super::intents::{decode_decisions, encode_decisions, Intents};
use super::KvStore;
use crate::codec::{get_str, get_u32, get_u64, put_str};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;

/// Encoded size of one committed entry (`put_str` key + `put_str` value).
pub(super) fn entry_enc_len(k: &str, v: &str) -> usize {
    8 + k.len() + v.len()
}

impl KvStore {
    /// Exact encoded size of everything after the committed entries.
    fn tail_enc_len(&self) -> usize {
        self.durable.enc_len() + 8 + self.prepared.enc_len() + 4 + 9 * self.decisions.len()
    }

    fn encode_tail(&self, out: &mut BytesMut) {
        self.durable.encode(out);
        out.put_u64_le(self.version);
        self.prepared.encode(out);
        encode_decisions(&self.decisions, out);
    }

    pub(super) fn encode_state(&self) -> Bytes {
        // One exact reservation: the committed section is priced by the
        // incrementally-maintained counter, so serialization never
        // reallocates (growing the buffer copies the state O(log n)
        // times).
        let len = 4 + self.committed_enc_bytes + self.tail_enc_len();
        let mut out = BytesMut::with_capacity(len);
        out.put_u32_le(self.committed.len() as u32);
        for (k, v) in &self.committed {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        self.encode_tail(&mut out);
        debug_assert_eq!(out.len(), len);
        out.freeze()
    }

    pub(super) fn decode_state(mut b: Bytes) -> Option<KvStore> {
        let mut s = KvStore::new();
        for _ in 0..get_u32(&mut b)? {
            let k = get_str(&mut b)?;
            let v = get_str(&mut b)?;
            s.committed_enc_bytes += entry_enc_len(&k, &v);
            s.committed.insert(k, v);
        }
        s.durable = Intents::decode(&mut b)?;
        s.version = get_u64(&mut b)?;
        s.prepared = Intents::decode(&mut b)?;
        s.decisions = decode_decisions(&mut b)?;
        Some(s)
    }
}

/// Pre-images of the committed keys mutated since some point in time,
/// first touch wins. `None` = the key did not exist then.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct Overlay(BTreeMap<String, Option<String>>);

impl Overlay {
    /// Note what `key` holds in `committed`, unless already noted. To be
    /// called before the map changes under `key`.
    pub(super) fn record(&mut self, key: &str, committed: &BTreeMap<String, String>) {
        if !self.0.contains_key(key) {
            self.0.insert(key.to_owned(), committed.get(key).cloned());
        }
    }

    /// What `key` held when it was first noted, if it was: `Some(None)`
    /// for a key that did not exist then.
    pub(super) fn pre_image(&self, key: &str) -> Option<Option<&str>> {
        self.0.get(key).map(Option::as_deref)
    }

    /// The pre-images, to put back.
    pub(super) fn into_pre_images(self) -> impl Iterator<Item = (String, Option<String>)> {
        self.0.into_iter()
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
/// freeze-time pre-images in `undo`.
///
/// One call serializes a whole chunk: a single O(log n) range seek plus a
/// linear merge that writes borrowed strings straight into `out`. A
/// per-entry variant (re-seeking and cloning key + value for every entry)
/// made chunk cost grow with state size through allocator churn, which is
/// exactly what incremental checkpoints exist to avoid.
fn serialize_frozen_after(
    committed: &BTreeMap<String, String>,
    undo: &Overlay,
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
    let mut pre = undo.0.range::<str, _>(bounds).peekable();
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
/// ([`gridpaxos_core::service::App::snapshot_begin`]): an undo overlay
/// plus a lazy serialization cursor. Chunk `k` is bytes
/// `[k·target, (k+1)·target)` of the canonical encoding — entries may
/// span chunk boundaries, which is what makes the chunk count computable
/// in O(1) at freeze.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct Frozen {
    /// Pre-images of committed keys mutated since the freeze.
    pub(super) undo: Overlay,
    /// Everything after the committed entries, serialized eagerly at
    /// freeze (small).
    tail: Bytes,
    /// Whether `tail` has been appended to `pending` yet.
    tail_done: bool,
    /// Target chunk size in bytes.
    chunk_bytes: usize,
    /// Total chunks promised by `snapshot_begin`.
    pub(super) total: usize,
    /// Chunks emitted so far (the next expected index).
    emitted: usize,
    /// Last committed key serialized (resume point for the range scan).
    cursor: Option<String>,
    /// Serialized-but-not-yet-emitted bytes.
    pending: BytesMut,
}

impl Frozen {
    /// Freeze `store`'s image as it stands, priced in O(1) plus the tail.
    pub(super) fn of(store: &KvStore, chunk_bytes: usize) -> Frozen {
        let chunk_bytes = chunk_bytes.max(1);
        let mut tail = BytesMut::with_capacity(store.tail_enc_len());
        store.encode_tail(&mut tail);
        let total_bytes = 4 + store.committed_enc_bytes + tail.len();
        let mut pending = BytesMut::with_capacity(chunk_bytes.min(total_bytes) + 64);
        pending.put_u32_le(store.committed.len() as u32);
        Frozen {
            undo: Overlay::default(),
            tail: tail.freeze(),
            tail_done: false,
            chunk_bytes,
            total: total_bytes.div_ceil(chunk_bytes).max(1),
            emitted: 0,
            cursor: None,
            pending,
        }
    }

    /// Chunk `idx` of the frozen image; `committed` is the live map.
    pub(super) fn chunk(&mut self, committed: &BTreeMap<String, String>, idx: usize) -> Bytes {
        debug_assert_eq!(idx, self.emitted, "chunks are emitted in order");
        let last = idx + 1 >= self.total;
        // Serialize frozen entries until this chunk's byte budget is
        // covered (the last chunk drains everything). Once the tail went
        // in, the image is fully serialized — the stale resume cursor
        // must not restart the entry scan.
        if !self.tail_done && (last || self.pending.len() < self.chunk_bytes) {
            let budget = if last { usize::MAX } else { self.chunk_bytes };
            match serialize_frozen_after(
                committed,
                &self.undo,
                self.cursor.as_deref(),
                budget,
                &mut self.pending,
            ) {
                FrozenScan::More(k) => self.cursor = Some(k),
                FrozenScan::Exhausted => {
                    self.tail_done = true;
                    self.pending.extend_from_slice(&self.tail);
                }
            }
        }
        let take = if last {
            self.pending.len()
        } else {
            // Non-last chunks are always full: the freeze-time byte count
            // priced every chunk before the last at exactly `chunk_bytes`.
            debug_assert!(self.pending.len() >= self.chunk_bytes);
            self.chunk_bytes.min(self.pending.len())
        };
        self.emitted += 1;
        self.pending.split_to(take).freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{arb_op, exec, prepare, req, txn_req};
    use super::super::KvOp;
    use super::*;
    use gridpaxos_core::request::RequestKind;
    use gridpaxos_core::service::{App, ExecCtx};
    use gridpaxos_core::types::{Time, TxnId};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    impl Overlay {
        pub(in crate::kvstore) fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// Emit every chunk of an open chunked snapshot and concatenate.
    fn collect_chunks(s: &mut KvStore, chunk_bytes: usize) -> Bytes {
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
        assert!(restored.durable.txns().eq([7]));
        assert_eq!(restored.volatile, Intents::default(), "volatile dropped");

        // The original's committed+durable state matches the restored one.
        let mut original_clean = s.clone();
        original_clean.volatile = Intents::default();
        assert_eq!(restored, original_clean);
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
    fn chunked_snapshot_concatenates_to_the_monolithic_one() {
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

    proptest! {
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
    }
}
