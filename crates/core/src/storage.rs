//! Stable storage abstraction.
//!
//! The paper's model allows crashed processes to *recover* (§3.1), which
//! requires that promises, accepted proposals and checkpoints survive a
//! crash. The protocol core writes through the [`Storage`] trait; the
//! simulator keeps each process's [`MemStorage`] alive across simulated
//! crashes, and a real deployment backs the same trait with fsync'd
//! files (`gridpaxos_transport::fstorage`).
//!
//! Records become durable at the [`Storage::flush`] barrier, not when
//! they are written, and the replica asks for a barrier only on account
//! of records a message can acknowledge — the chosen-prefix mark waits
//! for the next one (`replica/stable.rs` has the rule and the argument).
//! A crash therefore loses a tail of records: [`MemStorage`] and a killed
//! process's files both keep it, so the tests that need the loss — and
//! the model checker's power-cut choices — use [`TailLossStorage`], a
//! storage double like `MemStorage` beside it.

use crate::ballot::Ballot;
use crate::command::{Decree, DedupEntry, SnapshotBlob};
use crate::types::{GroupId, Instance};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A chunked checkpoint as held by a [`Storage`] backend: the frozen
/// apply epoch, the dedup table at that epoch and the app-state chunks
/// (whose concatenation is the canonical `App::snapshot()` encoding).
/// Chunks are refcounted [`Bytes`], so cloning one of these to serve a
/// catch-up costs O(chunks), not O(state bytes).
#[derive(Clone, Debug)]
pub struct ChunkedCheckpoint {
    /// Instances `<= upto` are covered by this checkpoint.
    pub upto: Instance,
    /// Dedup table at the frozen epoch.
    pub dedup: Vec<DedupEntry>,
    /// App-state chunks, in emission order.
    pub chunks: Vec<Bytes>,
}

impl ChunkedCheckpoint {
    /// Reassemble the monolithic [`SnapshotBlob`] (recovery-time cost
    /// only: one concatenation of the chunk bytes).
    #[must_use]
    pub fn assemble(&self) -> SnapshotBlob {
        let total: usize = self.chunks.iter().map(|c| c.len()).sum();
        let mut app = bytes::BytesMut::with_capacity(total);
        for c in &self.chunks {
            app.extend_from_slice(c);
        }
        SnapshotBlob {
            upto: self.upto,
            app: app.freeze(),
            dedup: self.dedup.clone(),
        }
    }
}

/// Everything a replica reloads after a crash.
#[derive(Clone, Debug, Default)]
pub struct DurableState {
    /// Highest ballot promised (never accept/promise below this).
    pub promised: Ballot,
    /// Accepted proposals still in the log, by instance.
    pub accepted: BTreeMap<Instance, (Ballot, Decree)>,
    /// Contiguous chosen-and-applied prefix at the time of the last write.
    pub chosen_prefix: Instance,
    /// Latest checkpoint, if any.
    pub checkpoint: Option<SnapshotBlob>,
}

impl DurableState {
    /// Whether the storage this was loaded from has never recorded
    /// anything — the one "fresh or recover?" test (see
    /// [`crate::replica::Replica::open`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.promised.is_zero()
            && self.accepted.is_empty()
            && self.checkpoint.is_none()
            && self.chosen_prefix == Instance::ZERO
    }
}

/// Write-ahead stable storage for one replica group. A bare replica owns
/// one for life; a node's groups reach theirs through the node's one
/// [`NodeStorage`], only while the node steps them.
///
/// Durability is *batch-granular*: `save_*` records a write-ahead entry
/// but need not reach the platter on its own — [`Storage::flush`] is the
/// barrier that makes everything recorded so far durable. The protocol's
/// persist-before-send rule (§3.1/§3.3) therefore holds as long as the
/// embedding runtime calls `flush()` after the handlers run and before
/// any resulting `Promise`/`Accepted` leaves the process; every drive
/// loop does by hosting a [`crate::node::Node`], whose release runs it.
/// The file backend syncs nowhere else; a backend that keeps state
/// purely in memory leaves `flush` a no-op.
pub trait Storage: Send {
    /// Persist a promise. Must be durable (after the covering [`Storage::flush`])
    /// before the promise is sent.
    fn save_promised(&mut self, b: Ballot);
    /// Persist an accepted proposal. Must be durable (after the covering
    /// [`Storage::flush`]) before `Accepted` is sent. Overwrites any
    /// previous acceptance for the same instance.
    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree);
    /// Persist the contiguous chosen-and-applied prefix.
    fn save_chosen_prefix(&mut self, upto: Instance);
    /// Drop accepted entries for instances `<= upto` (they are covered by a
    /// checkpoint).
    fn truncate_upto(&mut self, upto: Instance);
    /// Reload everything (crash recovery).
    fn load(&self) -> DurableState;
    /// Durability barrier: everything recorded by earlier `save_*` calls
    /// is on stable storage when this returns. One `flush` may cover many
    /// records (group commit); backends that hold state in memory need
    /// not override the default no-op.
    fn flush(&mut self) {}
    /// Whether records recorded since the last [`Storage::flush`] are
    /// still awaiting the barrier. Always `false` for backends whose
    /// `save_*` calls are immediately durable.
    fn is_dirty(&self) -> bool {
        false
    }
    /// Total persist operations recorded so far (observability).
    fn write_count(&self) -> u64 {
        0
    }

    /// Inert: every periodic checkpoint is chunked, and nothing reads
    /// this. Delete in ROADMAP item 1: `benchmark/src/delay_storage.rs`
    /// forwards it and its test asserts it.
    #[doc(hidden)]
    fn supports_chunked_checkpoint(&self) -> bool {
        true
    }

    /// Inert: an installed image goes through the chunk calls like a
    /// periodic one, and nothing calls this. Delete in ROADMAP item 1:
    /// `benchmark/src/{delay_storage,trace}.rs` forward it.
    #[doc(hidden)]
    fn save_checkpoint(&mut self, _snap: &SnapshotBlob) {}

    /// Open a checkpoint at apply epoch `upto` with the given dedup
    /// table; `total` chunks will follow. Replaces any prior pending
    /// (uncommitted) chunked checkpoint. Every image a replica holds is
    /// written this way: a periodic checkpoint, and an image it installs
    /// from a peer. No default: a backend that ignored the chunk calls
    /// would have the replica truncate its log behind an image it never
    /// stored.
    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize);

    /// Append chunk `idx` (ascending from 0) of the pending checkpoint.
    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes);

    /// Atomically commit the pending chunked checkpoint: after this
    /// returns, [`Storage::load`] reflects the new checkpoint.
    fn checkpoint_commit(&mut self);

    /// Discard the pending chunked checkpoint (e.g. superseded by an
    /// installed catch-up snapshot).
    fn checkpoint_abort(&mut self);

    /// The latest *committed* chunked checkpoint, if this backend holds
    /// one — the one image [`Storage::load`] assembles. Serving replicas
    /// stream these chunks to lagging peers without re-serializing
    /// O(state) (the chunks are refcounted).
    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint>;
}

/// The stable storage of a whole node: one owner for every group's
/// records, which a [`crate::node::Node`] keeps and moves into the group
/// it steps. A `Vec` with one [`Storage`] per group is the case of a store
/// per group; a node's shared write-ahead log (`transport::fstorage`)
/// implements it once for all its groups.
pub trait NodeStorage: Send {
    /// Number of groups stored.
    fn n_groups(&self) -> usize;
    /// Group `g`'s storage, for as long as the borrow lasts.
    fn group(&mut self, g: GroupId) -> &mut dyn Storage;
    /// Whether group `g`'s records await a barrier ([`Storage::is_dirty`]).
    fn dirty(&self, g: GroupId) -> bool;
}

impl NodeStorage for Vec<Box<dyn Storage>> {
    fn n_groups(&self) -> usize {
        self.len()
    }
    fn group(&mut self, g: GroupId) -> &mut dyn Storage {
        self[g.0 as usize].as_mut()
    }
    fn dirty(&self, g: GroupId) -> bool {
        self[g.0 as usize].is_dirty()
    }
}

/// What the [`MemStorage`]s that share it did, for a simulator that
/// charges for it ([`MemStorage::modelled`]).
#[derive(Debug, Default)]
pub struct DiskMeter {
    /// Records appended.
    pub appends: AtomicU64,
    /// Barriers that had something to sync.
    pub syncs: AtomicU64,
}

/// In-memory [`Storage`]. "Durability" means surviving a *simulated* crash:
/// the embedding runtime detaches the storage from the dead replica and
/// hands it to the recovered incarnation.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    /// Everything but the image: `state.checkpoint` stays `None`.
    state: DurableState,
    /// The one image, the latest committed checkpoint (`load` assembles
    /// it).
    chunked: Option<ChunkedCheckpoint>,
    /// Chunked checkpoint under construction: `(partial, expected_total)`.
    pending: Option<(ChunkedCheckpoint, usize)>,
    /// Number of persist operations performed (observability for tests
    /// and the write-amplification ablation bench).
    pub writes: u64,
    /// A modelled disk: where it reports, and whether its syncs cost
    /// anything — only then is a write unsynced until the next `flush`.
    model: Option<(Arc<DiskMeter>, bool)>,
    unsynced: bool,
}

impl MemStorage {
    /// Fresh, empty storage.
    #[must_use]
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Fresh, empty storage that models a disk: every append and every
    /// barrier that ran is counted in `meter`, and with `syncs_cost` a
    /// write makes it [`Storage::is_dirty`] until [`Storage::flush`], so
    /// the drive loops' release runs its barrier as on a real log.
    #[must_use]
    pub fn modelled(meter: Arc<DiskMeter>, syncs_cost: bool) -> MemStorage {
        MemStorage {
            model: Some((meter, syncs_cost)),
            ..MemStorage::default()
        }
    }

    fn wrote(&mut self) {
        self.writes += 1;
        if let Some((meter, syncs_cost)) = &self.model {
            meter.appends.fetch_add(1, Ordering::Relaxed);
            self.unsynced = *syncs_cost;
        }
    }
}

impl Storage for MemStorage {
    fn save_promised(&mut self, b: Ballot) {
        self.state.promised = b;
        self.wrote();
    }

    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
        self.state.accepted.insert(i, (b, d.clone()));
        self.wrote();
    }

    fn save_chosen_prefix(&mut self, upto: Instance) {
        debug_assert!(upto >= self.state.chosen_prefix);
        self.state.chosen_prefix = upto;
        self.wrote();
    }

    fn truncate_upto(&mut self, upto: Instance) {
        self.state.accepted = self.state.accepted.split_off(&upto.next());
        self.wrote();
    }

    fn load(&self) -> DurableState {
        DurableState {
            checkpoint: self.chunked.as_ref().map(ChunkedCheckpoint::assemble),
            ..self.state.clone()
        }
    }

    // Unless a disk is modelled, a write is "durable" the moment it lands
    // in the struct: the barrier has nothing to do and is never due.
    fn flush(&mut self) {
        if let Some((meter, _)) = &self.model {
            if std::mem::take(&mut self.unsynced) {
                meter.syncs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn is_dirty(&self) -> bool {
        self.unsynced
    }

    fn write_count(&self) -> u64 {
        self.writes
    }

    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        self.pending = Some((
            ChunkedCheckpoint {
                upto,
                dedup: dedup.to_vec(),
                chunks: Vec::with_capacity(total),
            },
            total,
        ));
        self.wrote();
    }

    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        if let Some((ck, _)) = &mut self.pending {
            debug_assert_eq!(idx, ck.chunks.len(), "chunks arrive in order");
            ck.chunks.push(data);
        }
        self.wrote();
    }

    fn checkpoint_commit(&mut self) {
        if let Some((ck, total)) = self.pending.take() {
            debug_assert_eq!(ck.chunks.len(), total, "commit of a complete image");
            self.chunked = Some(ck);
        }
        self.wrote();
    }

    fn checkpoint_abort(&mut self) {
        self.pending = None;
    }

    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        self.chunked.clone()
    }
}

/// Test double for a disk under power loss: [`Storage::load`] — what a
/// recovering process reads — answers with the state as of the last
/// [`Storage::flush`]; every record appended since is forgotten.
///
/// The process that recovers gets the disk it read,
/// `TailLossStorage::holding(crashed.load())`, not the crashed handle,
/// which still remembers the lost tail.
#[derive(Clone, Debug, Default)]
pub struct TailLossStorage {
    live: MemStorage,
    /// `live` as of the last barrier.
    synced: MemStorage,
}

impl TailLossStorage {
    /// A disk holding exactly `state`, all of it durable. Its image is
    /// kept as one chunk, so a replica recovered on it serves catch-up.
    #[must_use]
    pub fn holding(mut state: DurableState) -> TailLossStorage {
        let chunked = state.checkpoint.take().map(|snap| ChunkedCheckpoint {
            upto: snap.upto,
            dedup: snap.dedup,
            chunks: vec![snap.app],
        });
        let disk = MemStorage {
            state,
            chunked,
            ..MemStorage::default()
        };
        TailLossStorage {
            live: disk.clone(),
            synced: disk,
        }
    }
}

impl Storage for TailLossStorage {
    fn save_promised(&mut self, b: Ballot) {
        self.live.save_promised(b);
    }
    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
        self.live.save_accepted(i, b, d);
    }
    fn save_chosen_prefix(&mut self, upto: Instance) {
        self.live.save_chosen_prefix(upto);
    }
    fn truncate_upto(&mut self, upto: Instance) {
        self.live.truncate_upto(upto);
    }
    fn load(&self) -> DurableState {
        self.synced.load()
    }
    fn flush(&mut self) {
        self.synced = self.live.clone();
    }
    fn is_dirty(&self) -> bool {
        self.live.writes > self.synced.writes
    }
    fn write_count(&self) -> u64 {
        self.live.writes
    }
    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        self.live.checkpoint_begin(upto, dedup, total);
    }
    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        self.live.checkpoint_chunk(idx, data);
    }
    fn checkpoint_commit(&mut self) {
        self.live.checkpoint_commit();
    }
    fn checkpoint_abort(&mut self) {
        self.live.checkpoint_abort();
    }
    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        self.live.checkpoint_chunks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ballot::Ballot;
    use crate::types::ProcessId;

    fn ballot(r: u64) -> Ballot {
        Ballot::new(r, ProcessId(0))
    }

    #[test]
    fn roundtrip_promise_and_accepts() {
        let mut s = MemStorage::new();
        s.save_promised(ballot(3));
        s.save_accepted(Instance(1), ballot(3), &Decree::noop());
        s.save_accepted(Instance(2), ballot(3), &Decree::noop());
        s.save_chosen_prefix(Instance(1));

        let d = s.load();
        assert_eq!(d.promised, ballot(3));
        assert_eq!(d.accepted.len(), 2);
        assert_eq!(d.chosen_prefix, Instance(1));
        assert!(d.checkpoint.is_none());
    }

    #[test]
    fn accept_overwrites_same_instance() {
        let mut s = MemStorage::new();
        s.save_accepted(Instance(1), ballot(1), &Decree::noop());
        s.save_accepted(Instance(1), ballot(2), &Decree::noop());
        let d = s.load();
        assert_eq!(d.accepted[&Instance(1)].0, ballot(2));
    }

    #[test]
    fn truncate_drops_covered_entries() {
        let mut s = MemStorage::new();
        for i in 1..=5 {
            s.save_accepted(Instance(i), ballot(1), &Decree::noop());
        }
        s.truncate_upto(Instance(3));
        let d = s.load();
        assert_eq!(
            d.accepted.keys().copied().collect::<Vec<_>>(),
            vec![Instance(4), Instance(5)]
        );
    }

    #[test]
    fn write_counter_tracks_persist_ops() {
        let mut s = MemStorage::new();
        assert_eq!(s.writes, 0);
        s.save_promised(ballot(1));
        s.save_chosen_prefix(Instance(0));
        assert_eq!(s.writes, 2);
        assert_eq!(s.write_count(), 2);
    }

    #[test]
    fn chunked_checkpoint_commit_is_visible_to_load() {
        let mut s = MemStorage::new();
        s.checkpoint_begin(Instance(9), &[], 3);
        for (i, part) in [b"aa".as_slice(), b"bbb", b"c"].iter().enumerate() {
            s.checkpoint_chunk(i, Bytes::copy_from_slice(part));
        }
        // Uncommitted: load sees nothing.
        assert!(s.load().checkpoint.is_none());
        s.checkpoint_commit();
        let d = s.load();
        let snap = d.checkpoint.expect("committed checkpoint");
        assert_eq!(snap.upto, Instance(9));
        assert_eq!(&snap.app[..], b"aabbbc", "chunks concatenate in order");
        let ck = s.checkpoint_chunks().expect("chunks retained");
        assert_eq!(ck.chunks.len(), 3);
        assert_eq!(ck.assemble().app, snap.app);
    }

    #[test]
    fn chunked_checkpoint_abort_discards_pending() {
        let mut s = MemStorage::new();
        s.checkpoint_begin(Instance(4), &[], 2);
        s.checkpoint_chunk(0, Bytes::from_static(b"xy"));
        s.checkpoint_abort();
        s.checkpoint_commit(); // nothing pending: a no-op
        assert!(s.load().checkpoint.is_none());
        assert!(s.checkpoint_chunks().is_none());
    }

    fn commit(s: &mut dyn Storage, upto: u64, chunks: &[&'static [u8]]) {
        s.checkpoint_begin(Instance(upto), &[], chunks.len());
        for (i, c) in chunks.iter().enumerate() {
            s.checkpoint_chunk(i, Bytes::from_static(c));
        }
        s.checkpoint_commit();
    }

    /// A disk holds one image: a later commit — an install lands on a
    /// disk with a periodic image this way — replaces it, and that one is
    /// what `load` and catch-up serve from then on.
    #[test]
    fn a_later_image_replaces_the_one_held() {
        let mut s = MemStorage::new();
        commit(&mut s, 2, &[b"old"]);
        commit(&mut s, 5, &[b"ne", b"w"]);
        let ck = s.checkpoint_chunks().expect("one image");
        assert_eq!((ck.upto, ck.chunks.len()), (Instance(5), 2));
        let snap = s.load().checkpoint.expect("assembled");
        assert_eq!((snap.upto, &snap.app[..]), (Instance(5), &b"new"[..]));
    }

    /// A recovered disk keeps its image as chunks, so the replica on it
    /// can serve catch-up from it.
    #[test]
    fn a_tail_loss_disk_holding_an_image_serves_its_chunks() {
        let mut s = MemStorage::new();
        commit(&mut s, 3, &[b"ab", b"c"]);
        let reopened = TailLossStorage::holding(s.load());
        let ck = reopened.checkpoint_chunks().expect("image kept");
        assert_eq!(ck.upto, Instance(3));
        assert_eq!(ck.assemble().app, Bytes::from_static(b"abc"));
        assert_eq!(reopened.load().checkpoint, s.load().checkpoint);
    }

    #[test]
    fn durable_state_is_empty_until_any_one_field_is_written() {
        assert!(MemStorage::new().load().is_empty());
        let writes: [fn(&mut MemStorage); 4] = [
            |s| s.save_promised(ballot(1)),
            |s| s.save_accepted(Instance(1), ballot(1), &Decree::noop()),
            |s| s.save_chosen_prefix(Instance(1)),
            |s| commit(s, 1, &[b""]),
        ];
        for (i, write) in writes.iter().enumerate() {
            let mut s = MemStorage::new();
            write(&mut s);
            assert!(!s.load().is_empty(), "write {i} alone is prior state");
        }
    }

    #[test]
    fn tail_loss_storage_forgets_what_no_flush_covered() {
        let mut s = TailLossStorage::default();
        s.save_promised(ballot(1));
        s.save_accepted(Instance(1), ballot(1), &Decree::noop());
        assert!(s.is_dirty());
        assert!(s.load().is_empty(), "nothing is durable before a barrier");
        s.flush();
        assert!(!s.is_dirty());
        s.save_chosen_prefix(Instance(1));
        s.save_accepted(Instance(2), ballot(1), &Decree::noop());
        let disk = s.load();
        assert_eq!(disk.promised, ballot(1));
        assert_eq!(disk.chosen_prefix, Instance::ZERO);
        assert_eq!(
            disk.accepted.keys().copied().collect::<Vec<_>>(),
            vec![Instance(1)]
        );
        // The recovering process's disk holds that and nothing more, even
        // after its own next barrier.
        let mut reopened = TailLossStorage::holding(disk);
        reopened.save_promised(ballot(2));
        reopened.flush();
        assert_eq!(reopened.load().chosen_prefix, Instance::ZERO);
        assert_eq!(reopened.load().accepted.len(), 1);
    }

    #[test]
    fn mem_storage_flush_is_a_clean_no_op() {
        let mut s = MemStorage::new();
        s.save_promised(ballot(1));
        assert!(!s.is_dirty(), "MemStorage writes are durable immediately");
        s.flush();
        assert_eq!(s.load().promised, ballot(1));
        assert_eq!(s.writes, 1, "flush is not a persist op");
    }
}
