//! The modelled disk of the durable workloads.
//!
//! A real `fsync` on this class of machine moved between 200 and 350 µs
//! from one call to the next (and single-client durable write p50 by
//! ±15 % run to run), which no 10 % gate survives. The benchmark also
//! may not write outside its checkout, so tmpfs is out. The durable
//! workloads therefore keep the real write-ahead log — every append is a
//! real `write(2)` into `wal.log` through the shipped `FlushCoordinator` —
//! but open it with `SyncMode::Never` and put the cost of the barrier back
//! as a *stated* delay: [`DelayStorage`] tracks which records await a
//! barrier exactly as `SyncMode::Batched` does and makes every dirty
//! `flush()` last `SYNC_DELAY`. The reactor's flush-then-transmit path
//! runs unchanged: it sees dirty storage, calls `flush()`, and waits.

use bytes::Bytes;
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{Decree, DedupEntry, SnapshotBlob};
use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState, Storage};
use gridpaxos_core::types::Instance;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one node's storage has done, readable while the node runs.
/// Statistics only: they publish no other data, hence `Relaxed`.
#[derive(Clone, Debug, Default)]
pub struct StorageCounters(Arc<(AtomicU64, AtomicU64)>);

impl StorageCounters {
    /// `save_accepted` calls: on the leader, one per decree proposed.
    pub fn accepts(&self) -> u64 {
        self.0 .0.load(Ordering::Relaxed)
    }

    /// Dirty flushes, each of which waited out the modelled delay.
    pub fn syncs(&self) -> u64 {
        self.0 .1.load(Ordering::Relaxed)
    }
}

/// Delegating [`Storage`] that counts, and — when it models a disk —
/// makes every dirty `flush()` take at least `delay`.
pub struct DelayStorage<S> {
    inner: S,
    /// `None`: count only; dirtiness and flushes are the inner storage's
    /// (the `_mem` workloads, whose `MemStorage` must stay free).
    delay: Option<Duration>,
    /// Records appended since the last barrier (the inner log is opened
    /// without syncs and so never reports dirty itself).
    unsynced: bool,
    counters: StorageCounters,
}

impl<S: Storage> DelayStorage<S> {
    /// Model a disk whose sync takes `delay`.
    pub fn modelled(inner: S, delay: Duration) -> DelayStorage<S> {
        DelayStorage {
            inner,
            delay: Some(delay),
            unsynced: false,
            counters: StorageCounters::default(),
        }
    }

    /// Count and otherwise pass everything through.
    pub fn counting(inner: S) -> DelayStorage<S> {
        DelayStorage {
            delay: None,
            ..DelayStorage::modelled(inner, Duration::ZERO)
        }
    }

    pub fn counters(&self) -> StorageCounters {
        self.counters.clone()
    }
}

impl<S: Storage> Storage for DelayStorage<S> {
    fn save_promised(&mut self, b: Ballot) {
        self.inner.save_promised(b);
        self.unsynced = self.delay.is_some();
    }

    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
        self.inner.save_accepted(i, b, d);
        self.unsynced = self.delay.is_some();
        self.counters.0 .0.fetch_add(1, Ordering::Relaxed);
    }

    fn save_chosen_prefix(&mut self, upto: Instance) {
        self.inner.save_chosen_prefix(upto);
        self.unsynced = self.delay.is_some();
    }

    fn save_checkpoint(&mut self, snap: &SnapshotBlob) {
        self.inner.save_checkpoint(snap);
    }

    fn truncate_upto(&mut self, upto: Instance) {
        // The inner log rewrites and syncs itself here; nothing is left
        // pending afterwards.
        self.inner.truncate_upto(upto);
        self.unsynced = false;
    }

    fn load(&self) -> DurableState {
        self.inner.load()
    }

    fn flush(&mut self) {
        let Some(delay) = self.delay else {
            return self.inner.flush();
        };
        if !self.is_dirty() {
            return;
        }
        let t0 = Instant::now();
        self.inner.flush();
        if let Some(rest) = delay.checked_sub(t0.elapsed()) {
            std::thread::sleep(rest);
        }
        self.unsynced = false;
        self.counters.0 .1.fetch_add(1, Ordering::Relaxed);
    }

    fn is_dirty(&self) -> bool {
        self.unsynced || self.inner.is_dirty()
    }

    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }

    fn supports_chunked_checkpoint(&self) -> bool {
        self.inner.supports_chunked_checkpoint()
    }

    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        self.inner.checkpoint_begin(upto, dedup, total);
    }

    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        self.inner.checkpoint_chunk(idx, data);
    }

    fn checkpoint_commit(&mut self) {
        self.inner.checkpoint_commit();
    }

    fn checkpoint_abort(&mut self) {
        self.inner.checkpoint_abort();
    }

    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        self.inner.checkpoint_chunks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridpaxos_core::storage::MemStorage;
    use gridpaxos_core::types::ProcessId;

    const DELAY: Duration = Duration::from_millis(5);

    fn ballot() -> Ballot {
        Ballot {
            round: 1,
            proposer: ProcessId(0),
        }
    }

    #[test]
    fn clean_flush_adds_no_delay_and_counts_nothing() {
        let mut s = DelayStorage::modelled(MemStorage::new(), DELAY);
        let t0 = Instant::now();
        for _ in 0..100 {
            s.flush();
        }
        assert!(
            t0.elapsed() < DELAY,
            "100 clean flushes took {:?}",
            t0.elapsed()
        );
        assert_eq!(s.counters().syncs(), 0);
    }

    #[test]
    fn dirty_flush_waits_once_and_cleans() {
        let mut s = DelayStorage::modelled(MemStorage::new(), DELAY);
        let counters = s.counters();
        assert!(!s.is_dirty());
        s.save_promised(ballot());
        s.save_chosen_prefix(Instance(1));
        assert!(s.is_dirty());
        let t0 = Instant::now();
        s.flush();
        assert!(t0.elapsed() >= DELAY);
        assert!(!s.is_dirty());
        assert_eq!(counters.syncs(), 1, "one barrier covers both records");
        s.flush();
        assert_eq!(counters.syncs(), 1);
    }

    #[test]
    fn counting_only_leaves_memstorage_free() {
        let mut s = DelayStorage::counting(MemStorage::new());
        let counters = s.counters();
        s.save_promised(ballot());
        s.save_accepted(Instance(1), ballot(), &Decree::noop());
        assert!(!s.is_dirty(), "MemStorage is never dirty, wrapped or not");
        s.flush();
        assert_eq!((counters.accepts(), counters.syncs()), (1, 0));
    }

    #[test]
    fn everything_else_passes_through() {
        let mut s = DelayStorage::modelled(MemStorage::new(), DELAY);
        let mut plain = MemStorage::new();
        for st in [&mut s as &mut dyn Storage, &mut plain] {
            st.save_promised(ballot());
            st.checkpoint_begin(Instance(7), &[], 2);
            st.checkpoint_chunk(0, Bytes::from_static(b"ab"));
            st.checkpoint_chunk(1, Bytes::from_static(b"cd"));
            st.checkpoint_commit();
        }
        assert!(s.supports_chunked_checkpoint());
        assert_eq!(s.write_count(), plain.write_count());
        let ck = s.checkpoint_chunks().expect("committed image");
        assert_eq!((ck.upto, ck.chunks.len()), (Instance(7), 2));
        let loaded = s.load();
        assert_eq!(loaded.promised, ballot());
        assert_eq!(loaded.checkpoint.expect("assembled").app.as_ref(), b"abcd");
        // Checkpoint traffic does not go through the log: only the promise
        // is awaiting a barrier.
        assert!(s.is_dirty());
        s.truncate_upto(Instance(7));
        assert!(!s.is_dirty());
    }
}
