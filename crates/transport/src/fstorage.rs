//! File-backed stable storage: a write-ahead log plus an atomically
//! replaced checkpoint file per group. This is what makes a deployment
//! actually crash-recoverable — the paper's model explicitly allows
//! processes to recover (§3.1), which requires promises and accepted
//! proposals to survive on disk.
//!
//! Layout inside the data directory:
//!
//! * `wal.log` — length-prefixed records, appended: promised ballots,
//!   accepted decrees, chosen-prefix advances. In a multi-group
//!   deployment every group sharing the directory appends to this one
//!   log (records for group `g > 0` carry a group envelope; group 0
//!   records stay byte-identical to the single-group format).
//! * `checkpoint.chunks` (group 0) / `checkpoint-g<N>.chunks` — the one
//!   image a group holds, whether the replica made it (a periodic
//!   checkpoint) or installed it from a peer: a header frame (`upto`,
//!   chunk count, dedup table), then one frame per chunk, each written
//!   as the chunk streams in. The file is built as `*.chunks.tmp`,
//!   fsync'd and renamed into place (atomic on POSIX); after the rename
//!   the *directory* is fsync'd so the replacement itself survives power
//!   loss. Catch-up serves these same chunks.
//!
//! Durability has one discipline, the flush barrier: appends only
//! write, and [`Storage::flush`] issues one `sync_data` covering every
//! record appended since the previous barrier (group commit). The
//! reactor's drive loop calls `flush()` after draining a batch of events
//! and *before* transmitting any resulting message, so a
//! promise or accepted proposal is on stable storage before it is
//! announced (§3.3) — persist-before-send at batch granularity.
//! [`SyncMode`] only says whether the barrier reaches the platter:
//! [`SyncMode::Batched`] does, [`SyncMode::Never`] skips every fsync
//! (tests, and harnesses that model the disk themselves).
//!
//! A [`FlushCoordinator`] opens one shared log for all `G` groups of a
//! node: every group's handle appends into the same file, and whichever
//! group reaches its flush barrier first syncs everything — the other
//! groups then observe clean storage and skip their own fsync. That is
//! what collapses `G` per-group fsyncs per drain cycle into one.
//!
//! **No fsync runs while the WAL lock is held.** Appends serialize under
//! the lock (they must — the log is one file), but the platter waits —
//! `sync_data` on the WAL, the checkpoint file's sync, the directory
//! fsync after a rename — all happen outside it, so other groups keep
//! appending while one group's barrier is in flight. The flush barrier
//! keeps two sequence numbers, appended and durable. A flush that finds
//! `appended_seq > durable_seq` fsyncs a dup'd handle with the lock
//! released, then raises `durable_seq` to the `appended_seq` it saw.
//! `is_dirty() == false` therefore still means *every appended record is
//! durable*: `durable_seq` only advances after a covering fsync returns.
//! Two flushers racing on one log would each sync — one redundant fsync,
//! never a lost record — but none do: a node's release flushes its
//! groups one after another, on its loop or on the one pool thread its
//! barrier went to, never both at once. (The lone fsync under the lock is `truncate_upto`'s
//! WAL rewrite, which must hold it across its file work: releasing it
//! between the mirror snapshot and the rename would lose any record
//! appended in between. It runs in `rewrite_wal`, a call the `one-guard`
//! lint rule does not follow; every fsync it can see here runs with the
//! guard dropped.)
//!
//! A committed checkpoint file that does not parse is corruption, not a
//! torn write (it is written to a temp file and renamed into place), and
//! the log behind it may already be truncated: [`FlushCoordinator::open`]
//! refuses the directory with [`io::ErrorKind::InvalidData`] naming the
//! file. It refuses a retired `.bin` image the same way. A leftover
//! `*.tmp` was never committed and is ignored.
//!
//! `truncate_upto` compacts by rewriting the WAL with only the retained
//! records (all groups). A torn record at the WAL tail (a crash
//! mid-append) ends the replay, and open cuts the file back to the last
//! intact record, so what is appended after recovery replays next time.
//! A well-formed record for a group `>= n_groups` is not torn: it is a
//! differently sized deployment's log, and open refuses it with
//! [`io::ErrorKind::InvalidData`] naming the group.

use crate::framing::{read_frame, write_frame};
use crate::wire::{
    get_ballot, get_decree, get_dedup_table, get_instance, put_ballot, put_decree, put_dedup_table,
    put_instance,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{Decree, DedupEntry};
use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState, Storage};
use gridpaxos_core::types::Instance;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const TAG_PROMISED: u8 = 1;
const TAG_ACCEPTED: u8 = 2;
const TAG_CHOSEN: u8 = 3;
/// Envelope for a record belonging to group `> 0` in a shared WAL:
/// `TAG_GROUP, u32 LE group, <bare record>`. Group 0 records are written
/// bare so a single-group WAL stays byte-identical to the original
/// format.
const TAG_GROUP: u8 = 4;

/// When the write-ahead log reaches the platter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Group commit: records only append; the [`Storage::flush`] barrier
    /// issues one `sync_data` covering everything since the last barrier.
    Batched,
    /// Never fsync (tests; durability limited to surviving process exit).
    Never,
}

impl SyncMode {
    /// Run `sync`, a barrier on the platter, unless nothing ever syncs.
    fn sync(self, what: &str, sync: impl FnOnce() -> io::Result<()>) {
        if self != SyncMode::Never {
            fatal_io(what, sync());
        }
    }
}

/// Unwrap an I/O result that the durability layer cannot survive losing.
///
/// Storage failures here are fatal *by design*: the `Storage` trait's
/// persist calls must complete before the corresponding protocol message
/// is sent (persist-before-send), so continuing past a failed write would
/// silently void the crash-recovery guarantees the protocol relies on.
/// Halting is the crash-stop behavior the model assumes (§3.1).
fn fatal_io<T>(what: &str, r: io::Result<T>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("fatal storage I/O failure ({what}): {e}"),
    }
}

/// The WAL's guard. A holder that panicked was on a `fatal_io` path that
/// takes the process down with it, so poison is never worth a refusal.
fn lock(wal: &Mutex<WalInner>) -> MutexGuard<'_, WalInner> {
    wal.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A chunked checkpoint mid-stream: the temp file being written plus the
/// in-memory mirror of the chunks that have passed through it.
struct PendingChunked {
    file: File,
    ck: ChunkedCheckpoint,
    total: usize,
}

/// Shared state of one data directory's WAL (all groups). It sits behind
/// a lock because other threads read the coordinator's counters while the
/// reactor thread appends.
struct WalInner {
    dir: PathBuf,
    wal: File,
    /// In-memory mirror per group (authoritative for `load`, kept in sync
    /// with disk).
    states: Vec<DurableState>,
    /// Pending (uncommitted) chunked checkpoint per group.
    pending_chunks: Vec<Option<PendingChunked>>,
    /// Latest committed chunked checkpoint per group (mirrors the
    /// `checkpoint*.chunks` file).
    chunked: Vec<Option<ChunkedCheckpoint>>,
    mode: SyncMode,
    /// Sequence number of the last record appended (all groups).
    appended_seq: u64,
    /// Sequence number up to which records are known durable. The WAL is
    /// dirty iff `appended_seq > durable_seq`; a flush barrier raises it
    /// to the `appended_seq` it observed once its fsync has returned.
    durable_seq: u64,
    /// Total records appended (all groups).
    appends: u64,
    /// Total WAL `sync_data` calls issued (all groups). `appends / syncs`
    /// is the amortization factor group commit buys.
    syncs: u64,
}

impl WalInner {
    fn append(&mut self, group: u32, record: &[u8]) {
        fatal_io("WAL append", write_record(&mut self.wal, group, record));
        self.appends += 1;
        self.appended_seq += 1;
        if self.mode == SyncMode::Never {
            // Nothing ever syncs: records count as durable on append so
            // the WAL never reports dirty.
            self.durable_seq = self.appended_seq;
        }
    }

    /// Rewrite the WAL from the in-memory mirrors (compaction).
    ///
    /// This is the one file-I/O path that runs entirely under the WAL
    /// lock: a record appended between the mirror snapshot and the
    /// `rename` would exist in neither the old log nor the new one, so
    /// appends must be excluded for the whole swap.
    fn rewrite_wal(&mut self) {
        let tmp = self.dir.join("wal.tmp");
        {
            let mut f = fatal_io("create wal.tmp", File::create(&tmp));
            for (g, state) in self.states.iter().enumerate() {
                let g = g as u32;
                let mut compacted = |out: &BytesMut| {
                    fatal_io("write wal.tmp", write_record(&mut f, g, out));
                };
                let mut out = BytesMut::new();
                out.put_u8(TAG_PROMISED);
                put_ballot(&mut out, &state.promised);
                compacted(&out);
                let mut out = BytesMut::new();
                out.put_u8(TAG_CHOSEN);
                put_instance(&mut out, &state.chosen_prefix);
                compacted(&out);
                for (i, (b, d)) in &state.accepted {
                    let mut out = BytesMut::new();
                    out.put_u8(TAG_ACCEPTED);
                    put_instance(&mut out, i);
                    put_ballot(&mut out, b);
                    put_decree(&mut out, d);
                    compacted(&out);
                }
            }
            self.mode.sync("fsync wal.tmp", || f.sync_data());
        }
        fatal_io("swap WAL", fs::rename(&tmp, self.dir.join("wal.log")));
        self.mode.sync("fsync data dir", || sync_dir(&self.dir));
        self.wal = fatal_io(
            "reopen WAL",
            OpenOptions::new()
                .append(true)
                .open(self.dir.join("wal.log")),
        );
        // The fresh log was synced before the swap; nothing is pending.
        self.durable_seq = self.appended_seq;
    }

    fn chunked_begin(&mut self, group: u32, upto: Instance, dedup: &[DedupEntry], total: usize) {
        let tmp = chunked_tmp_path(&self.dir, group);
        let mut file = fatal_io("create chunks.tmp", File::create(&tmp));
        // Header frame: apply epoch, expected chunk count, dedup table.
        let mut out = BytesMut::new();
        put_instance(&mut out, &upto);
        out.put_u32_le(u32::try_from(total).unwrap_or(u32::MAX));
        put_dedup_table(&mut out, dedup);
        fatal_io("write chunks header", write_frame(&mut file, &out));
        self.pending_chunks[group as usize] = Some(PendingChunked {
            file,
            ck: ChunkedCheckpoint {
                upto,
                dedup: dedup.to_vec(),
                chunks: Vec::with_capacity(total),
            },
            total,
        });
    }

    fn chunked_chunk(&mut self, group: u32, idx: usize, data: Bytes) {
        if let Some(p) = &mut self.pending_chunks[group as usize] {
            debug_assert_eq!(idx, p.ck.chunks.len(), "chunks arrive in order");
            fatal_io("write chunk frame", write_frame(&mut p.file, &data));
            p.ck.chunks.push(data);
        }
    }

    fn chunked_abort(&mut self, group: u32) {
        if self.pending_chunks[group as usize].take().is_some() {
            let _ = fs::remove_file(chunked_tmp_path(&self.dir, group));
        }
    }
}

fn chunked_path(dir: &Path, group: u32) -> PathBuf {
    if group == 0 {
        dir.join("checkpoint.chunks")
    } else {
        dir.join(format!("checkpoint-g{group}.chunks"))
    }
}

fn chunked_tmp_path(dir: &Path, group: u32) -> PathBuf {
    if group == 0 {
        dir.join("checkpoint.chunks.tmp")
    } else {
        dir.join(format!("checkpoint-g{group}.chunks.tmp"))
    }
}

/// Parse a committed `*.chunks` file: a header frame (`upto`, chunk
/// count, dedup table) followed by one frame per chunk. Returns `None`
/// on any inconsistency — commit renames atomically, so a malformed file
/// is corruption. The WAL behind the image may already be truncated, so
/// the replayed log cannot stand in for it: the caller refuses to open.
fn read_chunked(path: &Path) -> Option<ChunkedCheckpoint> {
    let mut r = BufReader::new(File::open(path).ok()?);
    let mut header = read_frame(&mut r).ok()??;
    let upto = get_instance(&mut header).ok()?;
    if header.remaining() < 4 {
        return None;
    }
    let total = header.get_u32_le() as usize;
    let dedup = get_dedup_table(&mut header).ok()?;
    // `total` is read, not trusted: reserve what a sane image needs and
    // let the count check below judge the rest.
    let mut chunks = Vec::with_capacity(total.min(1024));
    while let Ok(Some(frame)) = read_frame(&mut r) {
        chunks.push(frame);
    }
    (chunks.len() == total).then_some(ChunkedCheckpoint {
        upto,
        dedup,
        chunks,
    })
}

/// Write `record` to a WAL as one frame: bare for group 0, inside the
/// [`TAG_GROUP`] envelope for any other group.
fn write_record(w: &mut impl Write, group: u32, record: &[u8]) -> io::Result<()> {
    if group == 0 {
        return write_frame(w, record);
    }
    let mut wrapped = BytesMut::with_capacity(record.len() + 5);
    wrapped.put_u8(TAG_GROUP);
    wrapped.put_u32_le(group);
    wrapped.extend_from_slice(record);
    write_frame(w, &wrapped)
}

/// The error for a checkpoint file open cannot use, naming it.
fn refuse(what: &str, path: &Path) -> io::Error {
    let what = format!("{what} checkpoint file {}", path.display());
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Whether a WAL read failed on the bytes, not the disk: a frame cut
/// short, or a length prefix past the limit.
fn torn(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
    )
}

/// fsync a directory so a rename performed inside it is durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Durable [`Storage`] backed by files in a directory — the handle for
/// one consensus group's share of the (possibly shared) write-ahead log.
pub struct FileStorage {
    wal: Arc<Mutex<WalInner>>,
    group: u32,
}

impl FileStorage {
    /// Open (or create) single-group storage in `dir`, replaying any
    /// existing WAL.
    pub fn open_with_mode(dir: impl AsRef<Path>, mode: SyncMode) -> io::Result<FileStorage> {
        let coord = FlushCoordinator::open(dir, mode, 1)?;
        Ok(coord.storage(0))
    }

    /// The data directory.
    #[must_use]
    pub fn dir(&self) -> PathBuf {
        lock(&self.wal).dir.clone()
    }

    /// Records appended to the (shared) WAL so far.
    #[must_use]
    pub fn appends(&self) -> u64 {
        lock(&self.wal).appends
    }

    /// WAL `sync_data` calls issued so far. Group commit amortizes:
    /// `syncs` grows per flush barrier, not per record.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        lock(&self.wal).syncs
    }

    /// Update the mirror and append one record for this group, under the
    /// lock. Durability waits for the next flush barrier.
    fn append_record(&self, record: &[u8], update: impl FnOnce(&mut WalInner)) {
        let mut inner = lock(&self.wal);
        update(&mut inner);
        inner.append(self.group, record);
    }
}

/// What one WAL frame held.
enum Replayed {
    /// A record of ours, applied to its group's state.
    Applied,
    /// Not a record: a torn or corrupt tail.
    Torn,
    /// A well-formed record of group `g >= n_groups`: another
    /// deployment's data.
    Foreign(usize),
}

fn replay_record(frame: &mut Bytes, states: &mut [DurableState]) -> Replayed {
    let applied = |ok| {
        if ok {
            Replayed::Applied
        } else {
            Replayed::Torn
        }
    };
    if frame.remaining() < 1 {
        return Replayed::Torn;
    }
    let tag = frame.get_u8();
    if tag != TAG_GROUP {
        return applied(apply_record(tag, frame, &mut states[0]));
    }
    if frame.remaining() < 5 {
        return Replayed::Torn;
    }
    let g = frame.get_u32_le() as usize;
    let tag = frame.get_u8();
    match states.get_mut(g) {
        Some(state) => applied(apply_record(tag, frame, state)),
        None if apply_record(tag, frame, &mut DurableState::default()) => Replayed::Foreign(g),
        None => Replayed::Torn,
    }
}

/// Apply one record, its group envelope already read; false if it does
/// not parse.
fn apply_record(tag: u8, frame: &mut Bytes, state: &mut DurableState) -> bool {
    match tag {
        TAG_PROMISED => match get_ballot(frame) {
            Ok(b) => {
                state.promised = state.promised.max(b);
                true
            }
            Err(_) => false,
        },
        TAG_ACCEPTED => {
            let (Ok(i), Ok(b)) = (get_instance(frame), get_ballot(frame)) else {
                return false;
            };
            match get_decree(frame) {
                Ok(d) => {
                    state.accepted.insert(i, (b, d));
                    true
                }
                Err(_) => false,
            }
        }
        TAG_CHOSEN => match get_instance(frame) {
            Ok(i) => {
                state.chosen_prefix = state.chosen_prefix.max(i);
                true
            }
            Err(_) => false,
        },
        _ => false,
    }
}

impl Storage for FileStorage {
    fn save_promised(&mut self, b: Ballot) {
        let mut out = BytesMut::new();
        out.put_u8(TAG_PROMISED);
        put_ballot(&mut out, &b);
        let g = self.group as usize;
        self.append_record(&out, |inner| inner.states[g].promised = b);
    }

    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
        let mut out = BytesMut::new();
        out.put_u8(TAG_ACCEPTED);
        put_instance(&mut out, &i);
        put_ballot(&mut out, &b);
        put_decree(&mut out, d);
        let g = self.group as usize;
        self.append_record(&out, |inner| {
            inner.states[g].accepted.insert(i, (b, d.clone()));
        });
    }

    fn save_chosen_prefix(&mut self, upto: Instance) {
        let mut out = BytesMut::new();
        out.put_u8(TAG_CHOSEN);
        put_instance(&mut out, &upto);
        let g = self.group as usize;
        self.append_record(&out, |inner| inner.states[g].chosen_prefix = upto);
    }

    fn truncate_upto(&mut self, upto: Instance) {
        let mut inner = lock(&self.wal);
        let g = self.group as usize;
        inner.states[g].accepted = inner.states[g].accepted.split_off(&upto.next());
        // The WAL rewrite must hold the lock for the whole mirror-write
        // + fsync + rename: a record appended between the snapshot and
        // the rename would be lost.
        inner.rewrite_wal();
    }

    fn load(&self) -> DurableState {
        let inner = lock(&self.wal);
        let g = self.group as usize;
        DurableState {
            checkpoint: inner.chunked[g].as_ref().map(ChunkedCheckpoint::assemble),
            ..inner.states[g].clone()
        }
    }

    /// The group-commit barrier: make every record appended before this
    /// call durable, running the `sync_data` on a dup'd handle *outside*
    /// the lock so other groups keep appending while the platter works.
    /// Records appended meanwhile ride the next barrier.
    fn flush(&mut self) {
        let inner = lock(&self.wal);
        let target = inner.appended_seq;
        if inner.durable_seq >= target {
            return; // clean flush is free
        }
        let wal = fatal_io("dup WAL handle", inner.wal.try_clone());
        drop(inner);
        fatal_io("WAL fsync (flush barrier)", wal.sync_data());
        let mut inner = lock(&self.wal);
        inner.syncs += 1;
        inner.durable_seq = inner.durable_seq.max(target);
    }

    fn is_dirty(&self) -> bool {
        let inner = lock(&self.wal);
        inner.appended_seq > inner.durable_seq
    }

    fn write_count(&self) -> u64 {
        lock(&self.wal).appends
    }

    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        lock(&self.wal).chunked_begin(self.group, upto, dedup, total);
    }

    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        lock(&self.wal).chunked_chunk(self.group, idx, data);
    }

    fn checkpoint_commit(&mut self) {
        // Take the finished image out of the shared state, then fsync and
        // swap it into place with the lock released — the chunk frames
        // were already written as they streamed in, so commit's file work
        // (fsync + rename + dir fsync) needs no WAL state.
        let g = self.group as usize;
        let (p, dir, mode) = {
            let mut inner = lock(&self.wal);
            let Some(p) = inner.pending_chunks[g].take() else {
                return;
            };
            (p, inner.dir.clone(), inner.mode)
        };
        debug_assert_eq!(p.ck.chunks.len(), p.total, "commit of a complete image");
        mode.sync("fsync chunks", || p.file.sync_data());
        fatal_io(
            "swap chunked checkpoint",
            fs::rename(
                chunked_tmp_path(&dir, self.group),
                chunked_path(&dir, self.group),
            ),
        );
        // Without this the rename itself can be lost on power failure even
        // though the file's contents were synced: it lives in the
        // directory, not the file.
        mode.sync("fsync data dir", || sync_dir(&dir));
        lock(&self.wal).chunked[g] = Some(p.ck);
    }

    fn checkpoint_abort(&mut self) {
        lock(&self.wal).chunked_abort(self.group);
    }

    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        lock(&self.wal).chunked[self.group as usize].clone()
    }
}

/// One node's durability plane: all `G` groups sharing a data directory
/// append into a single write-ahead log, so one [`Storage::flush`]
/// barrier — issued by whichever group's drive loop reaches it first —
/// covers every group's pending records with a single fsync per drain
/// cycle instead of `G` independent ones.
pub struct FlushCoordinator {
    wal: Arc<Mutex<WalInner>>,
    n_groups: usize,
}

impl FlushCoordinator {
    /// Open (or create) the shared log in `dir` for `n_groups` groups,
    /// replaying any existing WAL and per-group checkpoints. A committed
    /// checkpoint file that does not parse fails the open with
    /// [`io::ErrorKind::InvalidData`], naming the file. So does a
    /// `checkpoint.bin` or `checkpoint-g<N>.bin`: the format older builds
    /// stored an installed image in, which this one does not read, and
    /// the log behind it may already be truncated. A torn WAL tail is cut
    /// away. A well-formed WAL record for a group `>= n_groups` (a
    /// differently sized deployment's data directory) fails the open with
    /// `InvalidData` naming the group.
    pub fn open(
        dir: impl AsRef<Path>,
        mode: SyncMode,
        n_groups: usize,
    ) -> io::Result<FlushCoordinator> {
        assert!(n_groups >= 1, "need at least one group");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut states: Vec<DurableState> =
            (0..n_groups).map(|_| DurableState::default()).collect();

        // Older builds stored an installed image as `checkpoint*.bin`. This
        // one does not read it, and the log behind it may be truncated.
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            let per_group = name.starts_with("checkpoint-g") && name.ends_with(".bin");
            if name == "checkpoint.bin" || per_group {
                return Err(refuse("retired-format", &path));
            }
        }
        // Checkpoints first (they are the base the WAL builds on).
        let mut chunked: Vec<Option<ChunkedCheckpoint>> = Vec::with_capacity(n_groups);
        for (g, state) in states.iter_mut().enumerate() {
            let path = chunked_path(&dir, g as u32);
            let ck = if path.exists() {
                let ck = read_chunked(&path).ok_or_else(|| refuse("corrupt", &path))?;
                state.chosen_prefix = state.chosen_prefix.max(ck.upto);
                Some(ck)
            } else {
                None
            };
            chunked.push(ck);
        }

        // Replay the WAL up to the first frame that is not one of our
        // records — a torn tail — and cut the file back to the last record
        // replayed: an append after recovery must not land behind torn
        // bytes, where the next replay would stop before reaching it.
        let wal_path = dir.join("wal.log");
        if wal_path.exists() {
            let mut r = BufReader::new(File::open(&wal_path)?);
            let mut intact = 0u64;
            loop {
                let mut frame = match read_frame(&mut r) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) if torn(&e) => break,
                    // A disk that fails to read is not a torn write.
                    Err(e) => return Err(e),
                };
                let len = 4 + frame.len() as u64;
                match replay_record(&mut frame, &mut states) {
                    Replayed::Applied => intact += len,
                    Replayed::Torn => break,
                    Replayed::Foreign(g) => {
                        let what = format!(
                            "{} holds a record of group {g}, and this node hosts {n_groups}",
                            wal_path.display()
                        );
                        return Err(io::Error::new(io::ErrorKind::InvalidData, what));
                    }
                }
            }
            if fs::metadata(&wal_path)?.len() > intact {
                let wal = OpenOptions::new().write(true).open(&wal_path)?;
                wal.set_len(intact)?;
                if mode != SyncMode::Never {
                    wal.sync_data()?;
                }
            }
        }

        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        Ok(FlushCoordinator {
            wal: Arc::new(Mutex::new(WalInner {
                dir,
                wal,
                states,
                pending_chunks: (0..n_groups).map(|_| None).collect(),
                chunked,
                mode,
                appended_seq: 0,
                durable_seq: 0,
                appends: 0,
                syncs: 0,
            })),
            n_groups,
        })
    }

    /// Number of groups sharing this log.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// The [`Storage`] handle for group `g`.
    ///
    /// # Panics
    /// If `g >= n_groups`.
    #[must_use]
    pub fn storage(&self, g: usize) -> FileStorage {
        assert!(g < self.n_groups, "group {g} out of range");
        FileStorage {
            wal: Arc::clone(&self.wal),
            group: g as u32,
        }
    }

    /// Handles for every group, in group order.
    #[must_use]
    pub fn storages(&self) -> Vec<FileStorage> {
        (0..self.n_groups).map(|g| self.storage(g)).collect()
    }

    /// Records appended to the shared WAL so far (all groups).
    #[must_use]
    pub fn appends(&self) -> u64 {
        lock(&self.wal).appends
    }

    /// WAL `sync_data` calls issued so far (all groups). With group
    /// commit, `appends / syncs` is the amortization factor.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        lock(&self.wal).syncs
    }

    /// Whether records are pending the next flush barrier.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        let inner = lock(&self.wal);
        inner.appended_seq > inner.durable_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridpaxos_core::command::{Command, StateUpdate};
    use gridpaxos_core::request::{ReplyBody, Request, RequestId, RequestKind};
    use gridpaxos_core::types::{ClientId, ProcessId, Seq};
    use proptest::prelude::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gridpaxos-fstorage-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn ballot(r: u64) -> Ballot {
        Ballot::new(r, ProcessId(0))
    }

    /// Commit an image of `chunks` at `upto` through the chunk calls.
    fn commit(s: &mut FileStorage, upto: u64, chunks: &[&'static [u8]]) {
        s.checkpoint_begin(Instance(upto), &[], chunks.len());
        for (i, c) in chunks.iter().enumerate() {
            s.checkpoint_chunk(i, Bytes::from_static(c));
        }
        s.checkpoint_commit();
    }

    fn decree(seq: u64) -> Decree {
        Decree::single(
            Command::Req(Request::new(
                RequestId::new(ClientId(1), Seq(seq)),
                RequestKind::Write,
                Bytes::from(vec![7u8; 32]),
            )),
            StateUpdate::Full(Bytes::from(vec![9u8; 16])),
            ReplyBody::Ok(Bytes::new()),
        )
    }

    #[test]
    fn survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let mut s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
            s.save_promised(ballot(3));
            for i in 1..=5u64 {
                s.save_accepted(Instance(i), ballot(3), &decree(i));
            }
            s.save_chosen_prefix(Instance(4));
        } // "crash"
        let s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
        let d = s.load();
        assert_eq!(d.promised, ballot(3));
        assert_eq!(d.accepted.len(), 5);
        assert_eq!(d.accepted[&Instance(2)].1, decree(2));
        assert_eq!(d.chosen_prefix, Instance(4));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_and_truncate_compact_the_wal() {
        let dir = tmpdir("compact");
        {
            let mut s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
            for i in 1..=20u64 {
                s.save_accepted(Instance(i), ballot(1), &decree(i));
            }
            s.save_chosen_prefix(Instance(20));
            commit(&mut s, 18, &[b"app-state"]);
            let before = fs::metadata(dir.join("wal.log")).unwrap().len();
            s.truncate_upto(Instance(18));
            let after = fs::metadata(dir.join("wal.log")).unwrap().len();
            assert!(after < before, "compaction must shrink the WAL");
        }
        let s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
        let d = s.load();
        assert_eq!(d.accepted.len(), 2, "only instances 19, 20 retained");
        assert_eq!(d.checkpoint.as_ref().unwrap().upto, Instance(18));
        assert_eq!(d.chosen_prefix, Instance(20));
        fs::remove_dir_all(dir).ok();
    }

    /// A directory holds one image per group: a later commit replaces
    /// it, whether the replica made the image or installed it, and
    /// reopen finds that one, chunks and all.
    #[test]
    fn chunked_checkpoint_survives_reopen_and_replaces_the_image_held() {
        let dir = tmpdir("chunked");
        {
            let mut s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
            for i in 1..=8u64 {
                s.save_accepted(Instance(i), ballot(1), &decree(i));
            }
            s.save_chosen_prefix(Instance(8));
            commit(&mut s, 2, &[b"old"]);
            s.checkpoint_begin(Instance(6), &[], 3);
            s.checkpoint_chunk(0, Bytes::from_static(b"aa"));
            s.checkpoint_chunk(1, Bytes::from_static(b"bbb"));
            // Uncommitted: load still sees the image held.
            assert_eq!(s.load().checkpoint.unwrap().upto, Instance(2));
            s.checkpoint_chunk(2, Bytes::from_static(b"c"));
            s.checkpoint_commit();
            let d = s.load();
            assert_eq!(d.checkpoint.as_ref().unwrap().upto, Instance(6));
            assert_eq!(&d.checkpoint.unwrap().app[..], b"aabbbc");
            let ck = s.checkpoint_chunks().unwrap();
            assert_eq!(ck.chunks.len(), 3, "chunks retained for catch-up");
            s.truncate_upto(Instance(6));
        } // crash
        let s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
        let d = s.load();
        assert_eq!(d.checkpoint.as_ref().unwrap().upto, Instance(6));
        assert_eq!(&d.checkpoint.unwrap().app[..], b"aabbbc");
        assert_eq!(d.accepted.len(), 2, "only instances 7, 8 retained");
        assert_eq!(d.chosen_prefix, Instance(8));
        let ck = s.checkpoint_chunks().unwrap();
        assert_eq!(ck.upto, Instance(6));
        assert_eq!(
            ck.chunks,
            vec![
                Bytes::from_static(b"aa"),
                Bytes::from_static(b"bbb"),
                Bytes::from_static(b"c")
            ]
        );
        fs::remove_dir_all(dir).ok();
    }

    /// What opening `dir` answers, when it must refuse.
    fn refusal(dir: &Path) -> io::Error {
        match FileStorage::open_with_mode(dir, SyncMode::Never) {
            Ok(_) => panic!("opened a directory holding a corrupt checkpoint"),
            Err(e) => e,
        }
    }

    /// A committed `.chunks` file missing its last byte. The log behind
    /// the image is truncated, so recovery from the log alone would find
    /// a chosen prefix with nothing under it: open fails, naming the file.
    #[test]
    fn a_truncated_chunks_file_refuses_to_open() {
        let dir = tmpdir("torn-chunks");
        {
            let mut s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
            for i in 1..=8u64 {
                s.save_accepted(Instance(i), ballot(1), &decree(i));
            }
            s.save_chosen_prefix(Instance(8));
            s.checkpoint_begin(Instance(6), &[], 2);
            s.checkpoint_chunk(0, Bytes::from_static(b"aa"));
            s.checkpoint_chunk(1, Bytes::from_static(b"bb"));
            s.checkpoint_commit();
            s.truncate_upto(Instance(6));
        }
        let path = dir.join("checkpoint.chunks");
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 1]).unwrap();
        let e = refusal(&dir);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("checkpoint.chunks"), "{e}");
        fs::remove_dir_all(dir).ok();
    }

    /// A header that claims `u32::MAX` chunks and holds none: the count
    /// is read, not trusted, so open refuses the file instead of
    /// reserving room for four billion chunks.
    #[test]
    fn a_chunk_count_past_the_file_refuses_to_open() {
        let dir = tmpdir("huge-count");
        fs::create_dir_all(&dir).unwrap();
        let mut header = BytesMut::new();
        put_instance(&mut header, &Instance(6));
        header.put_u32_le(u32::MAX);
        put_dedup_table(&mut header, &[]);
        let mut file = Vec::new();
        write_frame(&mut file, &header).unwrap();
        fs::write(dir.join("checkpoint.chunks"), file).unwrap();
        let e = refusal(&dir);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("checkpoint.chunks"), "{e}");
        fs::remove_dir_all(dir).ok();
    }

    /// A well-formed installed image in the retired `.bin` format, the
    /// log behind it truncated: this build does not read the file, so it
    /// refuses the directory rather than open it without the image. Any
    /// group's.
    #[test]
    fn a_stray_checkpoint_bin_refuses_to_open() {
        // The retired format: upto, the length-prefixed app bytes, an
        // empty dedup table.
        let mut image = BytesMut::new();
        image.put_u64_le(3);
        image.put_u32_le(9);
        image.put_slice(b"installed");
        image.put_u32_le(0);
        for (n_groups, stray) in [(1, "checkpoint.bin"), (3, "checkpoint-g2.bin")] {
            let dir = tmpdir("stray-bin");
            {
                let coord = FlushCoordinator::open(&dir, SyncMode::Never, n_groups).unwrap();
                let mut s = coord.storage(n_groups - 1);
                for i in 1..=4u64 {
                    s.save_accepted(Instance(i), ballot(1), &decree(i));
                }
                s.save_chosen_prefix(Instance(4));
                s.truncate_upto(Instance(3));
            }
            fs::write(dir.join(stray), &image).unwrap();
            let e = match FlushCoordinator::open(&dir, SyncMode::Never, n_groups) {
                Ok(_) => panic!("opened a directory holding {stray}"),
                Err(e) => e,
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains(stray), "{e}");
            fs::remove_dir_all(dir).ok();
        }
    }

    /// A temp file was never renamed into place, so it was never
    /// committed: whatever it holds, open does not read it.
    #[test]
    fn a_leftover_tmp_file_is_ignored() {
        let dir = tmpdir("leftover-tmp");
        FileStorage::open_with_mode(&dir, SyncMode::Never)
            .unwrap()
            .save_promised(ballot(2));
        for tmp in ["checkpoint.chunks.tmp", "checkpoint-g0.tmp", "wal.tmp"] {
            fs::write(dir.join(tmp), b"garbage").unwrap();
        }
        let d = FileStorage::open_with_mode(&dir, SyncMode::Never)
            .unwrap()
            .load();
        assert_eq!(d.promised, ballot(2));
        assert!(d.checkpoint.is_none());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_ignored() {
        let dir = tmpdir("torn");
        {
            let mut s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
            s.save_promised(ballot(2));
            s.save_accepted(Instance(1), ballot(2), &decree(1));
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let path = dir.join("wal.log");
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 3]).unwrap();

        let s = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
        let d = s.load();
        assert_eq!(d.promised, ballot(2), "intact records replayed");
        assert!(
            d.accepted.is_empty(),
            "the torn record is discarded, not misparsed"
        );
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn replica_recovers_from_file_storage() {
        use gridpaxos_core::config::Config;
        use gridpaxos_core::replica::Replica;
        use gridpaxos_core::service::NoopApp;
        use gridpaxos_core::types::Time;

        let dir = tmpdir("replica");
        // A singleton replica commits a few writes to disk...
        {
            let storage = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
            let mut r = Replica::new(
                ProcessId(0),
                Config::cluster(1),
                Box::new(NoopApp::new()),
                Box::new(storage),
                1,
                Time::ZERO,
            );
            let _ = r.on_start(Time::ZERO);
            for seq in 1..=3u64 {
                let req = Request::new(
                    RequestId::new(ClientId(1), Seq(seq)),
                    RequestKind::Write,
                    Bytes::new(),
                );
                let _ = r.on_message(
                    gridpaxos_core::types::Addr::Client(ClientId(1)),
                    gridpaxos_core::msg::Msg::Request(req),
                    Time(seq),
                );
            }
            assert_eq!(r.chosen_prefix(), Instance(3));
        } // crash

        // ...and a recovered incarnation replays them from disk.
        let storage = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
        let r = Replica::recover(
            ProcessId(0),
            Config::cluster(1),
            Box::new(NoopApp::new()),
            Box::new(storage),
            2,
            Time::ZERO,
        );
        assert_eq!(r.chosen_prefix(), Instance(3));
        let snap = r.service_snapshot();
        assert_eq!(u64::from_le_bytes(snap[..8].try_into().unwrap()), 3);
        fs::remove_dir_all(dir).ok();
    }

    /// A replica that installed its image by chunk transfer keeps it as
    /// its own: its directory holds the chunks and nothing else, reopened
    /// it holds that state, and once it leads it serves a fresh follower
    /// those same chunks.
    #[test]
    fn an_installed_image_is_kept_and_served_after_reopen() {
        use gridpaxos_core::action::Action;
        use gridpaxos_core::config::Config;
        use gridpaxos_core::msg::{ImageRun, Msg};
        use gridpaxos_core::replica::Replica;
        use gridpaxos_core::service::NoopApp;
        use gridpaxos_core::types::{Addr, Time};

        let dir = tmpdir("installed");
        let image = Bytes::from(7u64.to_le_bytes().to_vec());
        let pieces = [image.slice(..3), image.slice(3..6), image.slice(6..)];
        let r1 = Addr::Replica(ProcessId(1));
        let open = |id: u32, storage: Box<dyn Storage>| {
            let app = Box::new(NoopApp::new());
            Replica::open(
                ProcessId(id),
                Config::cluster(3),
                app,
                storage,
                3,
                Time::ZERO,
            )
        };
        {
            let storage = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
            let mut r0 = open(0, Box::new(storage));
            // One piece per reply, each continuing the image.
            for (first, piece) in pieces.iter().enumerate() {
                let reply = Msg::CatchUp {
                    ballot: Ballot::new(1, ProcessId(1)),
                    image: Some(ImageRun {
                        upto: Instance(5),
                        total: 3,
                        first: first as u32,
                        dedup: vec![],
                        pieces: vec![piece.clone()],
                    }),
                    entries: vec![],
                };
                let _ = r0.on_message(r1, reply, Time::ZERO);
            }
            assert_eq!(r0.chosen_prefix(), Instance(5));
        } // crash
        assert!(dir.join("checkpoint.chunks").exists());
        assert!(!dir.join("checkpoint.bin").exists());

        let storage = FileStorage::open_with_mode(&dir, SyncMode::Never).unwrap();
        let mut r0 = open(0, Box::new(storage));
        assert_eq!(r0.chosen_prefix(), Instance(5));
        assert_eq!(r0.service_snapshot(), image);
        // It campaigns, and r1's promise makes it leader.
        let prepare = r0.on_start(Time::ZERO).into_iter().find_map(|a| match a {
            Action::ToAllReplicas {
                msg: Msg::Prepare { ballot, .. },
            } => Some(ballot),
            Action::Send { .. }
            | Action::ToAllReplicas { .. }
            | Action::SetTimer { .. }
            | Action::CancelTimer { .. } => None,
        });
        let promise = Msg::Promise {
            ballot: prepare.expect("the bootstrap leader campaigns"),
            chosen_prefix: Instance(5),
            accepted: vec![],
        };
        let _ = r0.on_message(r1, promise, Time::ZERO);
        assert!(r0.is_leader());

        let r2 = Addr::Replica(ProcessId(2));
        let served = r0.on_message(
            r2,
            Msg::CatchUpReq {
                have: Instance::ZERO,
                resume: None,
            },
            Time::ZERO,
        );
        let mut fresh = open(2, Box::new(gridpaxos_core::storage::MemStorage::new()));
        let mut chunks = Vec::new();
        for a in served {
            if let Action::Send { msg, .. } = a {
                if let Msg::CatchUp {
                    image: Some(run), ..
                } = &msg
                {
                    chunks.extend(run.pieces.iter().cloned());
                }
                let _ = fresh.on_message(Addr::Replica(ProcessId(0)), msg, Time::ZERO);
            }
        }
        assert_eq!(chunks, pieces, "the chunks it installed, in one reply");
        assert_eq!(fresh.chosen_prefix(), Instance(5));
        assert_eq!(fresh.service_snapshot(), image);
        fs::remove_dir_all(dir).ok();
    }

    /// A single-group WAL must hold exactly the bytes the original
    /// always-sync implementation wrote: bare tagged records, one frame
    /// each, no group envelopes — a WAL from before group commit replays
    /// identically and vice versa.
    #[test]
    fn wal_bytes_are_unchanged() {
        let dir = tmpdir("bytes");
        {
            let mut s = FileStorage::open_with_mode(&dir, SyncMode::Batched).unwrap();
            s.save_promised(ballot(3));
            s.save_accepted(Instance(1), ballot(3), &decree(1));
            s.save_chosen_prefix(Instance(1));
            s.flush();
        }
        let got = fs::read(dir.join("wal.log")).unwrap();

        // Golden encoding, assembled by hand.
        let mut expect = Vec::new();
        let mut rec = BytesMut::new();
        rec.put_u8(TAG_PROMISED);
        put_ballot(&mut rec, &ballot(3));
        write_frame(&mut expect, &rec).unwrap();
        let mut rec = BytesMut::new();
        rec.put_u8(TAG_ACCEPTED);
        put_instance(&mut rec, &Instance(1));
        put_ballot(&mut rec, &ballot(3));
        put_decree(&mut rec, &decree(1));
        write_frame(&mut expect, &rec).unwrap();
        let mut rec = BytesMut::new();
        rec.put_u8(TAG_CHOSEN);
        put_instance(&mut rec, &Instance(1));
        write_frame(&mut expect, &rec).unwrap();
        assert_eq!(got, expect, "WAL bytes changed");
        fs::remove_dir_all(dir).ok();
    }

    /// Three `KvStore` puts of 32-byte values as a leader decrees them:
    /// the delta names the key and the value, and the reply — the value —
    /// is a slice of the delta, or (`inline`) its own copy, as every WAL
    /// written before replies were shipped by reference holds it.
    fn kv_puts(inline: bool) -> Vec<Decree> {
        (1..=3u64)
            .map(|seq| {
                let (key, value) = (format!("k{seq}"), format!("{seq}").repeat(32));
                let mut delta = BytesMut::new();
                delta.put_u8(0); // apply writes
                delta.put_u32_le(1); // one write
                delta.put_u8(0); // a put
                for s in [&key, &value] {
                    delta.put_u32_le(s.len() as u32);
                    delta.put_slice(s.as_bytes());
                }
                let delta = delta.freeze();
                let reply = delta.slice(delta.len() - value.len()..);
                let reply = if inline {
                    Bytes::copy_from_slice(&reply)
                } else {
                    reply
                };
                let id = RequestId::new(ClientId(1), Seq(seq));
                Decree::single(
                    Command::Req(Request::new(id, RequestKind::Write, Bytes::new())),
                    StateUpdate::Delta(delta),
                    ReplyBody::Ok(reply),
                )
            })
            .collect()
    }

    /// One record with a reply inside its update, assembled by hand: the
    /// reply is a tag, an offset and a length into the delta, not a copy.
    #[test]
    fn a_shared_reply_record_is_written_once() {
        let dir = tmpdir("shared-reply");
        let d = kv_puts(false).swap_remove(0);
        let StateUpdate::Delta(delta) = &d.entries[0].update else {
            panic!("a put ships a delta")
        };
        assert_eq!(
            d.entries[0].reply_in_update(),
            Some(delta.len() - 32..delta.len())
        );
        {
            let mut s = FileStorage::open_with_mode(&dir, SyncMode::Batched).unwrap();
            s.save_accepted(Instance(1), ballot(3), &d);
            s.flush();
        }
        let got = fs::read(dir.join("wal.log")).unwrap();

        let mut rec = vec![TAG_ACCEPTED];
        rec.extend(1u64.to_le_bytes()); // instance
        rec.extend(3u64.to_le_bytes()); // ballot round
        rec.extend(0u32.to_le_bytes()); // ballot proposer
        rec.extend(1u32.to_le_bytes()); // one entry
        rec.push(1); // Command::Req
        rec.extend(1u64.to_le_bytes()); // client
        rec.extend(1u64.to_le_bytes()); // seq
        rec.push(1); // RequestKind::Write
        rec.push(0); // no transaction
        rec.extend(0u32.to_le_bytes()); // no operation body
        rec.push(2); // StateUpdate::Delta
        rec.extend((delta.len() as u32).to_le_bytes());
        rec.extend_from_slice(delta);
        rec.push(6); // the reply inside the update
        rec.extend((delta.len() as u32 - 32).to_le_bytes()); // offset
        rec.extend(32u32.to_le_bytes()); // length
        let mut expect = Vec::new();
        write_frame(&mut expect, &rec).unwrap();
        assert_eq!(got, expect, "WAL bytes changed");
        fs::remove_dir_all(dir).ok();
    }

    /// A WAL whose replies are inline opens and replays to the state a WAL
    /// of the same decrees with shared replies gives, 32 bytes a record
    /// longer, less the reference's 9.
    #[test]
    fn a_wal_with_inline_replies_replays_to_the_same_state() {
        use gridpaxos_core::service::App;
        use gridpaxos_services::KvStore;
        let (inline, shared) = (tmpdir("inline-replies"), tmpdir("shared-replies"));
        for (dir, copy) in [(&inline, true), (&shared, false)] {
            let mut s = FileStorage::open_with_mode(dir, SyncMode::Batched).unwrap();
            s.save_promised(ballot(2));
            for (i, d) in (1..).zip(kv_puts(copy)) {
                assert_eq!(d.entries[0].reply_in_update().is_some(), !copy);
                s.save_accepted(Instance(i), ballot(2), &d);
            }
            s.save_chosen_prefix(Instance(3));
            s.flush();
        }
        let size = |d: &PathBuf| fs::metadata(d.join("wal.log")).unwrap().len();
        assert_eq!(size(&inline), size(&shared) + 3 * (1 + 4 + 32 - 9));
        let replay = |dir: &PathBuf| {
            let d = FileStorage::open_with_mode(dir, SyncMode::Batched)
                .unwrap()
                .load();
            let mut store = KvStore::new();
            for (_, decree) in d.accepted.values() {
                for e in decree.entries.iter() {
                    let Command::Req(req) = &e.cmd else {
                        panic!("a put")
                    };
                    store.apply(req, &e.update);
                }
            }
            (d, store)
        };
        let (from_inline, from_shared) = (replay(&inline), replay(&shared));
        assert_eq!(from_inline.0.accepted, from_shared.0.accepted);
        // Each replays as it was written: a reference decodes to a slice
        // of its update, an inline reply to its own bytes.
        for (d, shared) in [(&from_inline.0, false), (&from_shared.0, true)] {
            assert!(d
                .accepted
                .values()
                .all(|(_, d)| d.entries[0].reply_in_update().is_some() == shared));
        }
        assert_eq!(from_inline.0.chosen_prefix, Instance(3));
        assert_eq!(from_inline.1.snapshot(), from_shared.1.snapshot());
        for seq in 1..=3u64 {
            let value = format!("{seq}").repeat(32);
            assert_eq!(from_inline.1.get(&format!("k{seq}")), Some(value.as_str()));
        }
        fs::remove_dir_all(inline).ok();
        fs::remove_dir_all(shared).ok();
    }

    #[test]
    fn counters_expose_group_commit_amortization() {
        let dir = tmpdir("counters");
        let mut s = FileStorage::open_with_mode(&dir, SyncMode::Batched).unwrap();
        for i in 1..=10u64 {
            s.save_accepted(Instance(i), ballot(1), &decree(i));
        }
        assert_eq!(s.appends(), 10);
        assert_eq!(s.syncs(), 0, "no record forced its own fsync");
        assert!(s.is_dirty());
        s.flush();
        assert_eq!(s.syncs(), 1, "one barrier covered all ten records");
        assert!(!s.is_dirty());
        s.flush();
        assert_eq!(s.syncs(), 1, "clean flush is free");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shared_wal_coalesces_groups_and_survives_reopen() {
        let dir = tmpdir("shared");
        {
            let coord = FlushCoordinator::open(&dir, SyncMode::Batched, 3).unwrap();
            let mut handles = coord.storages();
            // Interleaved appends from three groups, one barrier.
            handles[0].save_promised(ballot(1));
            handles[1].save_promised(ballot(2));
            handles[2].save_promised(ballot(3));
            handles[1].save_accepted(Instance(1), ballot(2), &decree(1));
            handles[2].save_chosen_prefix(Instance(0));
            assert_eq!(coord.appends(), 5);
            assert!(coord.is_dirty());
            handles[0].flush(); // whichever group reaches its barrier first
            assert_eq!(coord.syncs(), 1, "one fsync covered all three groups");
            // The other groups observe clean storage and skip.
            assert!(!handles[1].is_dirty());
            assert!(!handles[2].is_dirty());
            handles[1].flush();
            handles[2].flush();
            assert_eq!(coord.syncs(), 1);
            // Per-group checkpoints land in distinct files.
            commit(&mut handles[1], 1, &[b"g1"]);
            assert!(dir.join("checkpoint-g1.chunks").exists());
            assert!(!dir.join("checkpoint.chunks").exists());
        } // crash
        let coord = FlushCoordinator::open(&dir, SyncMode::Batched, 3).unwrap();
        let d0 = coord.storage(0).load();
        let d1 = coord.storage(1).load();
        let d2 = coord.storage(2).load();
        assert_eq!(d0.promised, ballot(1));
        assert_eq!(d1.promised, ballot(2));
        assert_eq!(d1.accepted[&Instance(1)].1, decree(1));
        assert_eq!(d1.checkpoint.as_ref().unwrap().upto, Instance(1));
        assert_eq!(d2.promised, ballot(3));
        fs::remove_dir_all(dir).ok();
    }

    /// The groups of a node on one shared log: a cycle that delivers an
    /// `Accept` to every group pays one sync, and the next cycle, which
    /// only commits (a `Chosen` to every group, and one stale `Prepare`
    /// so that something is sent), pays none — the chosen-prefix marks
    /// ride the next decree's barrier. Every group that wrote an
    /// acknowledgeable record is flushed in the release that covers it;
    /// one that found the log already synced by another group and kept
    /// its flag would make a barrier due on the marks alone.
    #[test]
    fn a_commit_only_cycle_on_a_multi_group_node_syncs_nothing() {
        use gridpaxos_core::config::Config;
        use gridpaxos_core::msg::Msg;
        use gridpaxos_core::node::{Net, Node, TimerOps};
        use gridpaxos_core::outbox::Out;
        use gridpaxos_core::prelude::{Addr, GroupId, NoopApp, Time};

        struct Dropped;
        impl Net for Dropped {
            fn transmit(&mut self, outs: &mut Vec<Out>) {
                outs.clear();
            }
        }
        let deliver = |node: &mut Node, g: usize, msg: Msg| {
            let msg = if node.n_groups() == 1 {
                msg
            } else {
                let group = GroupId(g as u32);
                let inner = Box::new(msg);
                Msg::Grouped { group, inner }
            };
            let leader = Addr::Replica(ProcessId(0));
            node.deliver(leader, msg, Time::ZERO, &mut TimerOps::new());
        };

        const DECREES: u64 = 4;
        for groups in [1, 2, 4] {
            let dir = tmpdir(&format!("commit-only-{groups}"));
            let coord = FlushCoordinator::open(&dir, SyncMode::Batched, groups).unwrap();
            let disks = (0..groups).map(|g| Box::new(coord.storage(g)) as Box<dyn Storage>);
            let app = |_| Box::new(NoopApp::new()) as Box<dyn gridpaxos_core::service::App>;
            let cfg = Config::cluster(3);
            let mut node = Node::open(ProcessId(1), cfg, disks.collect(), &app, 7, Time::ZERO);
            let mut syncs = Vec::new();
            for i in (1..=DECREES).map(Instance) {
                for g in 0..groups {
                    let entries = vec![(i, Decree::noop())];
                    deliver(
                        &mut node,
                        g,
                        Msg::Accept {
                            ballot: ballot(1),
                            entries,
                        },
                    );
                }
                node.release(&mut Dropped);
                syncs.push(coord.syncs());
                for g in 0..groups {
                    deliver(
                        &mut node,
                        g,
                        Msg::Chosen {
                            ballot: ballot(1),
                            upto: i,
                        },
                    );
                }
                let stale = Msg::Prepare {
                    ballot: ballot(0),
                    chosen_prefix: Instance::ZERO,
                    known_above: Vec::new(),
                };
                deliver(&mut node, 0, stale);
                node.release(&mut Dropped);
                syncs.push(coord.syncs());
            }
            let one_per_decree: Vec<u64> = (1..=DECREES).flat_map(|d| [d, d]).collect();
            assert_eq!(
                syncs, one_per_decree,
                "{groups} groups: syncs after each cycle"
            );
            fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn shared_wal_compaction_retains_every_group() {
        let dir = tmpdir("shared-compact");
        {
            let coord = FlushCoordinator::open(&dir, SyncMode::Never, 2).unwrap();
            let mut handles = coord.storages();
            for i in 1..=6u64 {
                handles[0].save_accepted(Instance(i), ballot(1), &decree(i));
                handles[1].save_accepted(Instance(i), ballot(1), &decree(i + 100));
            }
            handles[0].save_chosen_prefix(Instance(6));
            // Group 0 compacts; group 1's records must survive the rewrite.
            handles[0].truncate_upto(Instance(4));
        }
        let coord = FlushCoordinator::open(&dir, SyncMode::Never, 2).unwrap();
        let d0 = coord.storage(0).load();
        let d1 = coord.storage(1).load();
        assert_eq!(
            d0.accepted.keys().copied().collect::<Vec<_>>(),
            vec![Instance(5), Instance(6)]
        );
        assert_eq!(d0.chosen_prefix, Instance(6));
        assert_eq!(d1.accepted.len(), 6, "other group untouched by compaction");
        assert_eq!(d1.accepted[&Instance(3)].1, decree(103));
        fs::remove_dir_all(dir).ok();
    }

    /// A WAL written by a node hosting more groups is another
    /// deployment's data, not a torn tail: open refuses it, naming the
    /// group, and cuts nothing away.
    #[test]
    fn a_wal_from_more_groups_refuses_to_open() {
        let dir = tmpdir("more-groups");
        {
            let coord = FlushCoordinator::open(&dir, SyncMode::Never, 3).unwrap();
            let mut s = coord.storage(2);
            s.save_promised(ballot(5));
            s.flush();
        }
        let len = fs::metadata(dir.join("wal.log")).unwrap().len();
        let e = match FlushCoordinator::open(&dir, SyncMode::Never, 2) {
            Ok(_) => panic!("a WAL with a record of group 2 opened for 2 groups"),
            Err(e) => e,
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("group 2"), "{e}");
        assert_eq!(fs::metadata(dir.join("wal.log")).unwrap().len(), len);
        let coord = FlushCoordinator::open(&dir, SyncMode::Never, 3).unwrap();
        assert_eq!(coord.storage(2).load().promised, ballot(5));
        fs::remove_dir_all(dir).ok();
    }

    /// Crash-torture: truncate the WAL at *every* byte boundary inside a
    /// multi-record group-commit batch and assert replay recovers exactly
    /// the longest intact prefix of records — never a misparse, never a
    /// lost intact record. A promise appended and flushed after that
    /// recovery survives the next reopen: open cuts the torn tail away
    /// rather than appending behind it.
    #[test]
    fn torture_truncation_replays_exact_prefix() {
        let dir = tmpdir("torture");
        // Record the WAL length after each append: the durability
        // boundaries replay must respect.
        let mut boundaries = vec![0u64];
        let mut prefix_states: Vec<DurableState> = vec![DurableState::default()];
        {
            let mut s = FileStorage::open_with_mode(&dir, SyncMode::Batched).unwrap();
            let mut model = DurableState::default();
            let save = |s: &mut FileStorage, model: &mut DurableState, step: usize| match step {
                0 => {
                    s.save_promised(ballot(7));
                    model.promised = ballot(7);
                }
                1..=3 => {
                    let i = step as u64;
                    s.save_accepted(Instance(i), ballot(7), &decree(i));
                    model.accepted.insert(Instance(i), (ballot(7), decree(i)));
                }
                _ => {
                    s.save_chosen_prefix(Instance(2));
                    model.chosen_prefix = Instance(2);
                }
            };
            for step in 0..5 {
                save(&mut s, &mut model, step);
                boundaries.push(fs::metadata(dir.join("wal.log")).unwrap().len());
                prefix_states.push(model.clone());
            }
            s.flush();
        }
        let raw = fs::read(dir.join("wal.log")).unwrap();
        assert_eq!(*boundaries.last().unwrap(), raw.len() as u64);

        for cut in 0..=raw.len() {
            let tdir = tmpdir(&format!("torture-cut{cut}"));
            fs::create_dir_all(&tdir).unwrap();
            fs::write(tdir.join("wal.log"), &raw[..cut]).unwrap();
            let s = FileStorage::open_with_mode(&tdir, SyncMode::Batched).unwrap();
            let got = s.load();
            // The longest intact prefix: every record whose frame ends at
            // or before the cut.
            let k = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            let want = &prefix_states[k];
            assert_eq!(
                (got.promised, got.chosen_prefix, got.accepted.len()),
                (want.promised, want.chosen_prefix, want.accepted.len()),
                "cut at byte {cut}: expected prefix of {k} records"
            );
            assert_eq!(got.accepted, want.accepted, "cut at byte {cut}");

            let mut s = s;
            s.save_promised(ballot(9));
            s.flush();
            drop(s);
            let got = FileStorage::open_with_mode(&tdir, SyncMode::Batched)
                .unwrap()
                .load();
            assert_eq!(
                (got.promised, got.chosen_prefix, got.accepted),
                (ballot(9), want.chosen_prefix, want.accepted.clone()),
                "cut at byte {cut}: the promise appended after recovery is lost"
            );
            fs::remove_dir_all(tdir).ok();
        }
        fs::remove_dir_all(dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Group commit on one shared log, under any schedule of appends
        /// and barriers from 1–3 groups: `is_dirty` says exactly whether
        /// an append awaits a barrier (so the log is clean after every
        /// flush), barriers sync no more often than they are called, and
        /// reopen holds every accepted record.
        #[test]
        fn flush_schedules_keep_the_group_commit_contract(
            n_groups in 1usize..4,
            ops in proptest::collection::vec((0usize..3, any::<bool>()), 12..25),
        ) {
            let dir = tmpdir("flush-schedule");
            let coord = FlushCoordinator::open(&dir, SyncMode::Batched, n_groups).unwrap();
            let mut storages = coord.storages();
            let mut appended = vec![0u64; n_groups];
            let mut flushes = 0u64;
            for (g, append) in ops {
                let g = g % n_groups;
                if append {
                    appended[g] += 1;
                    let i = appended[g];
                    storages[g].save_accepted(Instance(i), ballot(1), &decree(i));
                } else {
                    storages[g].flush();
                    flushes += 1;
                }
                prop_assert_eq!(coord.is_dirty(), append);
            }
            storages[0].flush();
            flushes += 1;
            prop_assert!(!coord.is_dirty(), "dirty after the final flush");
            prop_assert!(coord.syncs() <= flushes, "{} syncs", coord.syncs());
            drop((storages, coord));
            let reopened = FlushCoordinator::open(&dir, SyncMode::Batched, n_groups).unwrap();
            for (g, want) in appended.iter().enumerate() {
                prop_assert_eq!(reopened.storage(g).load().accepted.len() as u64, *want);
            }
            fs::remove_dir_all(dir).ok();
        }
    }

    /// One thread per group appends and flushes through its own handle on
    /// the shared log: flushers race, each syncing what it saw appended.
    /// After the joins nothing awaits a barrier, and reopen holds every
    /// record.
    #[test]
    fn concurrent_flushers_lose_no_record() {
        let dir = tmpdir("concurrent-flushers");
        let coord = FlushCoordinator::open(&dir, SyncMode::Batched, 3).unwrap();
        std::thread::scope(|s| {
            for mut storage in coord.storages() {
                s.spawn(move || {
                    for i in 1..=40u64 {
                        storage.save_accepted(Instance(i), ballot(1), &decree(i));
                        if i % 3 == 0 {
                            storage.flush();
                        }
                    }
                    storage.flush();
                });
            }
        });
        assert!(!coord.is_dirty(), "every flusher returned");
        drop(coord);
        let reopened = FlushCoordinator::open(&dir, SyncMode::Batched, 3).unwrap();
        for g in 0..3 {
            assert_eq!(reopened.storage(g).load().accepted.len(), 40, "group {g}");
        }
        fs::remove_dir_all(dir).ok();
    }
}
