//! The one shape of a staged write — [`Intents`]: per transaction, the
//! writes it will make and the keys it holds until it ends — and the 2PC
//! decision table beside it. The store keeps three `Intents` that differ
//! in lifecycle only (see [`super`]); what a lock means, how a staged
//! value is read back and how a section is laid out in the image is
//! decided here, once.

use super::ops::{decode_writes, encode_writes, writes_enc_len, KvWrite};
use crate::codec::{get_str, get_u32, get_u64, get_u8, put_str};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;

/// Writes staged by open transactions and the write locks they hold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct Intents {
    /// Staged writes per transaction, in execution order. Concrete: an
    /// `Add` was resolved to the `Put` of its result when it was staged,
    /// so applying them later is deterministic whatever else committed in
    /// between.
    writes: BTreeMap<u64, Vec<KvWrite>>,
    /// Write locks: key → owning transaction. Held until the transaction
    /// ends; a conflicting op is refused rather than made to wait.
    locks: BTreeMap<String, u64>,
}

impl Intents {
    /// Append one write to `txn`'s list, locking its key.
    pub(super) fn stage(&mut self, txn: u64, w: KvWrite) {
        self.locks.insert(w.key().to_owned(), txn);
        self.writes.entry(txn).or_default().push(w);
    }

    /// Install `ws` as `txn`'s whole list, locking their keys. A second
    /// `put` replaces the list and keeps the locks the first one took.
    pub(super) fn put(&mut self, txn: u64, ws: Vec<KvWrite>) {
        for w in &ws {
            self.locks.insert(w.key().to_owned(), txn);
        }
        self.writes.insert(txn, ws);
    }

    /// End `txn` here: release its locks and hand back what it staged.
    pub(super) fn take(&mut self, txn: u64) -> Option<Vec<KvWrite>> {
        self.locks.retain(|_, owner| *owner != txn);
        self.writes.remove(&txn)
    }

    /// What `txn` itself last staged for `key`: `Some(None)` is a staged
    /// delete, `None` is "nothing staged".
    pub(super) fn staged_value(&self, txn: u64, key: &str) -> Option<Option<&str>> {
        let ws = self.writes.get(&txn)?;
        ws.iter().rev().find(|w| w.key() == key).map(KvWrite::value)
    }

    /// Whether a transaction other than `txn` holds `key` (`None`: the
    /// asker is no transaction, so any holder is another).
    pub(super) fn held_by_other(&self, key: &str, txn: Option<u64>) -> bool {
        self.locks.get(key).is_some_and(|owner| Some(*owner) != txn)
    }

    /// Whether any held key starts with `prefix`.
    pub(super) fn holds_prefix(&self, prefix: &str) -> bool {
        self.locks.keys().any(|k| k.starts_with(prefix))
    }

    /// The transactions with staged writes, in id order.
    pub(super) fn txns(&self) -> impl Iterator<Item = u64> + '_ {
        self.writes.keys().copied()
    }

    /// Exact size of [`Intents::encode`]'s output. Bounded by open
    /// transactions, so this walk is cheap.
    pub(super) fn enc_len(&self) -> usize {
        let writes = self.writes.values().map(|ws| 8 + writes_enc_len(ws));
        let locks = self.locks.keys().map(|k| 12 + k.len());
        8 + writes.sum::<usize>() + locks.sum::<usize>()
    }

    /// One section of the image: `u32` transactions, each its id and its
    /// write list; then `u32` locks, each its key and its owner.
    pub(super) fn encode(&self, out: &mut BytesMut) {
        out.put_u32_le(self.writes.len() as u32);
        for (txn, ws) in &self.writes {
            out.put_u64_le(*txn);
            encode_writes(ws, out);
        }
        out.put_u32_le(self.locks.len() as u32);
        for (k, t) in &self.locks {
            put_str(out, k);
            out.put_u64_le(*t);
        }
    }

    /// Decode a section built by [`Intents::encode`].
    pub(super) fn decode(b: &mut Bytes) -> Option<Intents> {
        let mut s = Intents::default();
        for _ in 0..get_u32(b)? {
            s.writes.insert(get_u64(b)?, decode_writes(b)?);
        }
        for _ in 0..get_u32(b)? {
            s.locks.insert(get_str(b)?, get_u64(b)?);
        }
        Some(s)
    }
}

/// Recorded 2PC outcomes (home-group role): txn → committed? Part of the
/// replicated image — it is what an in-doubt resolver consults. Insert
/// only (`entry().or_insert`: the first recorded outcome wins, which
/// closes the 2PC in-doubt window) and never pruned in this reproduction
/// (decision GC is out of scope), so nothing may copy it per decree.
pub(super) type Decisions = BTreeMap<u64, bool>;

/// The last section of the image: `u32` count, then id and outcome.
pub(super) fn encode_decisions(d: &Decisions, out: &mut BytesMut) {
    out.put_u32_le(d.len() as u32);
    for (txn, commit) in d {
        out.put_u64_le(*txn);
        out.put_u8(u8::from(*commit));
    }
}

pub(super) fn decode_decisions(b: &mut Bytes) -> Option<Decisions> {
    let mut d = Decisions::new();
    for _ in 0..get_u32(b)? {
        d.insert(get_u64(b)?, get_u8(b)? != 0);
    }
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Intents {
        /// Staged writes held, over all transactions.
        pub(in crate::kvstore) fn n_writes(&self) -> usize {
            self.writes.values().map(Vec::len).sum()
        }
    }

    fn put(k: &str) -> KvWrite {
        KvWrite::Put(k.into(), "v".into())
    }

    /// `stage` appends, `put` replaces — and the keys of the list it
    /// replaced stay held until the transaction ends.
    #[test]
    fn a_second_put_replaces_the_list_and_keeps_the_locks() {
        let mut s = Intents::default();
        s.stage(1, put("a"));
        s.stage(1, put("b"));
        assert_eq!(s.n_writes(), 2);
        s.put(1, vec![put("c")]);
        assert_eq!(s.n_writes(), 1);
        for key in ["a", "b", "c"] {
            assert!(s.held_by_other(key, None), "{key} held");
            assert!(s.held_by_other(key, Some(2)));
            assert!(!s.held_by_other(key, Some(1)), "not against its holder");
        }
        assert_eq!(s.take(1), Some(vec![put("c")]));
        assert_eq!(s, Intents::default(), "every lock released");
    }

    #[test]
    fn a_section_roundtrips_and_is_priced_exactly() {
        let mut s = Intents::default();
        s.stage(7, put("a"));
        s.stage(7, KvWrite::Del("b".into()));
        s.put(9, vec![put("c")]);
        let mut out = BytesMut::new();
        s.encode(&mut out);
        assert_eq!(out.len(), s.enc_len());
        let mut b = out.freeze();
        assert_eq!(Intents::decode(&mut b), Some(s));
        assert!(b.is_empty());
    }
}
