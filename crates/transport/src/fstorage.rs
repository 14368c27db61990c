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
//! One [`FileStorage`] owns a data directory for all `G` groups of a
//! node: it is the node's [`NodeStorage`], every group appends into the
//! one log, and the first group flushed at a barrier syncs everything —
//! the others find the log clean and skip their own fsync. That is what
//! collapses `G` per-group fsyncs per drain cycle into one. It has one
//! owner, the node, which moves it to the group it steps and lends it to
//! the thread its barrier syncs on, so it needs no lock, and there is no
//! second handle on a log to race it:
//!
//! ```compile_fail,E0599
//! fn twice(s: &gridpaxos_transport::FileStorage) -> gridpaxos_transport::FileStorage {
//!     s.clone()
//! }
//! ```
//! ```compile_fail,E0599
//! fn handles(log: &gridpaxos_transport::FlushCoordinator) { let _ = log.storages(); }
//! ```
//! ```compile_fail,E0599
//! use gridpaxos_transport::ReactorCluster;
//! fn log(c: &ReactorCluster) { let _ = c.coordinator(gridpaxos_core::types::ProcessId(0)); }
//! ```
//!
//! A committed checkpoint file that does not parse is corruption, not a
//! torn write (it is written to a temp file and renamed into place), and
//! the log behind it may already be truncated: [`FileStorage::open`]
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
use gridpaxos_core::storage::{ChunkedCheckpoint, DiskMeter, DurableState, NodeStorage, Storage};
use gridpaxos_core::types::{GroupId, Instance};
use std::cell::Cell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

/// A chunked checkpoint mid-stream: the temp file being written plus the
/// in-memory mirror of the chunks that have passed through it.
struct PendingChunked {
    file: File,
    ck: ChunkedCheckpoint,
    total: usize,
}

/// Durable [`Storage`] backed by files in a directory: the write-ahead
/// log and checkpoints of every group of a node, which is its one owner.
/// As a [`Storage`] it is the group [`NodeStorage::group`] last pointed
/// it at — group 0 until then, the one group of a single-group directory.
pub struct FileStorage {
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
    /// The group the [`Storage`] calls address.
    at: usize,
    /// A record was appended since the last barrier.
    dirty: bool,
    /// Records appended and WAL `sync_data` calls issued (all groups):
    /// `appends / syncs` is the amortization factor group commit buys.
    pub(crate) meter: Arc<DiskMeter>,
}

impl FileStorage {
    /// Update the mirror of the group addressed and append one record for
    /// it. Durability waits for the next flush barrier.
    fn append(&mut self, record: &[u8], update: impl FnOnce(&mut DurableState)) {
        update(&mut self.states[self.at]);
        let group = self.at as u32;
        fatal_io("WAL append", write_record(&mut self.wal, group, record));
        self.meter.appends.fetch_add(1, Ordering::Relaxed);
        // Under `SyncMode::Never` a record counts as durable on append.
        self.dirty = self.mode != SyncMode::Never;
    }

    /// Rewrite the WAL from the in-memory mirrors (compaction).
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
        self.dirty = false;
    }
}

fn chunked_path(dir: &Path, group: usize) -> PathBuf {
    if group == 0 {
        dir.join("checkpoint.chunks")
    } else {
        dir.join(format!("checkpoint-g{group}.chunks"))
    }
}

fn chunked_tmp_path(dir: &Path, group: usize) -> PathBuf {
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

impl FileStorage {
    /// Open (or create) the log in `dir` for `n_groups` groups,
    /// replaying any existing WAL and per-group checkpoints. A committed
    /// checkpoint file that does not parse fails the open with
    /// [`io::ErrorKind::InvalidData`], naming the file. So does a
    /// `checkpoint.bin` or `checkpoint-g<N>.bin`: the format older builds
    /// stored an installed image in, which this one does not read, and
    /// the log behind it may already be truncated. A torn WAL tail is cut
    /// away. A well-formed WAL record for a group `>= n_groups` (a
    /// differently sized deployment's data directory) fails the open with
    /// `InvalidData` naming the group.
    pub fn open(dir: impl AsRef<Path>, mode: SyncMode, n_groups: usize) -> io::Result<FileStorage> {
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
            let path = chunked_path(&dir, g);
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
        Ok(FileStorage {
            dir,
            wal,
            states,
            pending_chunks: (0..n_groups).map(|_| None).collect(),
            chunked,
            mode,
            at: 0,
            dirty: false,
            meter: Arc::default(),
        })
    }

    /// Records appended to the WAL so far (all groups).
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.meter.appends.load(Ordering::Relaxed)
    }

    /// WAL `sync_data` calls issued so far (all groups). Group commit
    /// amortizes: `syncs` grows per flush barrier, not per record.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.meter.syncs.load(Ordering::Relaxed)
    }
}

impl Storage for FileStorage {
    fn save_promised(&mut self, b: Ballot) {
        let mut out = BytesMut::new();
        out.put_u8(TAG_PROMISED);
        put_ballot(&mut out, &b);
        self.append(&out, |state| state.promised = b);
    }

    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
        let mut out = BytesMut::new();
        out.put_u8(TAG_ACCEPTED);
        put_instance(&mut out, &i);
        put_ballot(&mut out, &b);
        put_decree(&mut out, d);
        self.append(&out, |state| {
            state.accepted.insert(i, (b, d.clone()));
        });
    }

    fn save_chosen_prefix(&mut self, upto: Instance) {
        let mut out = BytesMut::new();
        out.put_u8(TAG_CHOSEN);
        put_instance(&mut out, &upto);
        self.append(&out, |state| state.chosen_prefix = upto);
    }

    fn truncate_upto(&mut self, upto: Instance) {
        let state = &mut self.states[self.at];
        state.accepted = state.accepted.split_off(&upto.next());
        self.rewrite_wal();
    }

    fn load(&self) -> DurableState {
        DurableState {
            checkpoint: self.chunked[self.at]
                .as_ref()
                .map(ChunkedCheckpoint::assemble),
            ..self.states[self.at].clone()
        }
    }

    /// The group-commit barrier: one `sync_data` makes every record
    /// appended so far durable, every group's.
    fn flush(&mut self) {
        if std::mem::take(&mut self.dirty) {
            fatal_io("WAL fsync (flush barrier)", self.wal.sync_data());
            self.meter.syncs.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn is_dirty(&self) -> bool {
        self.dirty
    }

    fn write_count(&self) -> u64 {
        self.appends()
    }

    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        let tmp = chunked_tmp_path(&self.dir, self.at);
        let mut file = fatal_io("create chunks.tmp", File::create(&tmp));
        // Header frame: apply epoch, expected chunk count, dedup table.
        let mut out = BytesMut::new();
        put_instance(&mut out, &upto);
        out.put_u32_le(u32::try_from(total).unwrap_or(u32::MAX));
        put_dedup_table(&mut out, dedup);
        fatal_io("write chunks header", write_frame(&mut file, &out));
        self.pending_chunks[self.at] = Some(PendingChunked {
            file,
            ck: ChunkedCheckpoint {
                upto,
                dedup: dedup.to_vec(),
                chunks: Vec::with_capacity(total),
            },
            total,
        });
    }

    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        if let Some(p) = &mut self.pending_chunks[self.at] {
            debug_assert_eq!(idx, p.ck.chunks.len(), "chunks arrive in order");
            fatal_io("write chunk frame", write_frame(&mut p.file, &data));
            p.ck.chunks.push(data);
        }
    }

    fn checkpoint_commit(&mut self) {
        let Some(p) = self.pending_chunks[self.at].take() else {
            return;
        };
        debug_assert_eq!(p.ck.chunks.len(), p.total, "commit of a complete image");
        self.mode.sync("fsync chunks", || p.file.sync_data());
        let (tmp, path) = (
            chunked_tmp_path(&self.dir, self.at),
            chunked_path(&self.dir, self.at),
        );
        fatal_io("swap chunked checkpoint", fs::rename(tmp, path));
        // Without this the rename itself can be lost on power failure even
        // though the file's contents were synced: it lives in the
        // directory, not the file.
        self.mode.sync("fsync data dir", || sync_dir(&self.dir));
        self.chunked[self.at] = Some(p.ck);
    }

    fn checkpoint_abort(&mut self) {
        if self.pending_chunks[self.at].take().is_some() {
            let _ = fs::remove_file(chunked_tmp_path(&self.dir, self.at));
        }
    }

    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        self.chunked[self.at].clone()
    }
}

/// One log for all the node's groups: a group's view is the log itself,
/// pointed at the group, and the `&mut` it is lent as keeps it pointed
/// there while the view is in use.
impl NodeStorage for FileStorage {
    fn n_groups(&self) -> usize {
        self.states.len()
    }

    fn group(&mut self, g: GroupId) -> &mut dyn Storage {
        assert!(
            (g.0 as usize) < self.states.len(),
            "group {g:?} out of range"
        );
        self.at = g.0 as usize;
        self
    }

    fn dirty(&self, _: GroupId) -> bool {
        self.dirty
    }
}

/// Inert: a [`FileStorage`] owns its directory for every group now, and
/// there is no second handle to coordinate. Delete in ROADMAP item 1:
/// `benchmark/src/{live,shuttle}.rs` open a one-group log through it and
/// read its appends while the log is in a cluster's hands.
#[doc(hidden)]
pub struct FlushCoordinator {
    log: Cell<Option<FileStorage>>,
    meter: Arc<DiskMeter>,
}

impl FlushCoordinator {
    /// [`FileStorage::open`], the log kept for [`FlushCoordinator::storage`].
    pub fn open(
        dir: impl AsRef<Path>,
        mode: SyncMode,
        n_groups: usize,
    ) -> io::Result<FlushCoordinator> {
        let log = FileStorage::open(dir, mode, n_groups)?;
        let meter = Arc::clone(&log.meter);
        let log = Cell::new(Some(log));
        Ok(FlushCoordinator { log, meter })
    }

    /// The log itself, once, whatever `g`.
    ///
    /// # Panics
    /// On a second call: the log has one owner.
    #[must_use]
    pub fn storage(&self, _g: usize) -> FileStorage {
        match self.log.take() {
            Some(log) => log,
            None => panic!("the log was taken"),
        }
    }

    /// Records appended to the log so far, wherever it is.
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.meter.appends.load(Ordering::Relaxed)
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
            let mut s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
            s.save_promised(ballot(3));
            for i in 1..=5u64 {
                s.save_accepted(Instance(i), ballot(3), &decree(i));
            }
            s.save_chosen_prefix(Instance(4));
        } // "crash"
        let s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
            let mut s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
        let s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
            let mut s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
        let s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
        match FileStorage::open(dir, SyncMode::Never, 1) {
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
            let mut s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
                let mut log = FileStorage::open(&dir, SyncMode::Never, n_groups).unwrap();
                let s = log.group(GroupId(n_groups as u32 - 1));
                for i in 1..=4u64 {
                    s.save_accepted(Instance(i), ballot(1), &decree(i));
                }
                s.save_chosen_prefix(Instance(4));
                s.truncate_upto(Instance(3));
            }
            fs::write(dir.join(stray), &image).unwrap();
            let e = match FileStorage::open(&dir, SyncMode::Never, n_groups) {
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
        FileStorage::open(&dir, SyncMode::Never, 1)
            .unwrap()
            .save_promised(ballot(2));
        for tmp in ["checkpoint.chunks.tmp", "checkpoint-g0.tmp", "wal.tmp"] {
            fs::write(dir.join(tmp), b"garbage").unwrap();
        }
        let d = FileStorage::open(&dir, SyncMode::Never, 1).unwrap().load();
        assert_eq!(d.promised, ballot(2));
        assert!(d.checkpoint.is_none());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_ignored() {
        let dir = tmpdir("torn");
        {
            let mut s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
            s.save_promised(ballot(2));
            s.save_accepted(Instance(1), ballot(2), &decree(1));
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let path = dir.join("wal.log");
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 3]).unwrap();

        let s = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
            let storage = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
        let storage = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
            let storage = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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

        let storage = FileStorage::open(&dir, SyncMode::Never, 1).unwrap();
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
            let mut s = FileStorage::open(&dir, SyncMode::Batched, 1).unwrap();
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
            let mut s = FileStorage::open(&dir, SyncMode::Batched, 1).unwrap();
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
            let mut s = FileStorage::open(dir, SyncMode::Batched, 1).unwrap();
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
            let d = FileStorage::open(dir, SyncMode::Batched, 1).unwrap().load();
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
        let mut s = FileStorage::open(&dir, SyncMode::Batched, 1).unwrap();
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
            let mut log = FileStorage::open(&dir, SyncMode::Batched, 3).unwrap();
            let g = |g| GroupId(g);
            // Interleaved appends from three groups, one barrier.
            log.group(g(0)).save_promised(ballot(1));
            log.group(g(1)).save_promised(ballot(2));
            log.group(g(2)).save_promised(ballot(3));
            log.group(g(1))
                .save_accepted(Instance(1), ballot(2), &decree(1));
            log.group(g(2)).save_chosen_prefix(Instance(0));
            assert_eq!(log.appends(), 5);
            assert!(log.dirty(g(0)));
            log.group(g(0)).flush(); // the first group flushed at a barrier
            assert_eq!(log.syncs(), 1, "one fsync covered all three groups");
            // The other groups observe clean storage and skip.
            assert!(!log.dirty(g(1)));
            assert!(!log.dirty(g(2)));
            log.group(g(1)).flush();
            log.group(g(2)).flush();
            assert_eq!(log.syncs(), 1);
            // Per-group checkpoints land in distinct files.
            log.group(g(1));
            commit(&mut log, 1, &[b"g1"]);
            assert!(dir.join("checkpoint-g1.chunks").exists());
            assert!(!dir.join("checkpoint.chunks").exists());
        } // crash
        let mut log = FileStorage::open(&dir, SyncMode::Batched, 3).unwrap();
        let d0 = log.group(GroupId(0)).load();
        let d1 = log.group(GroupId(1)).load();
        let d2 = log.group(GroupId(2)).load();
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
            let log = FileStorage::open(&dir, SyncMode::Batched, groups).unwrap();
            let meter = Arc::clone(&log.meter);
            let syncs = || meter.syncs.load(Ordering::Relaxed);
            let app = |_| Box::new(NoopApp::new()) as Box<dyn gridpaxos_core::service::App>;
            let cfg = Config::cluster(3);
            let mut node = Node::open(ProcessId(1), cfg, Box::new(log), &app, 7, Time::ZERO);
            let mut synced = Vec::new();
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
                synced.push(syncs());
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
                synced.push(syncs());
            }
            let one_per_decree: Vec<u64> = (1..=DECREES).flat_map(|d| [d, d]).collect();
            assert_eq!(
                synced, one_per_decree,
                "{groups} groups: syncs after each cycle"
            );
            fs::remove_dir_all(dir).ok();
        }
    }

    /// The barrier of a node of three groups on one log, lent: a cycle
    /// in which every group writes an accept record lends one barrier,
    /// the votes wait behind it, and a flush on another thread pays one
    /// sync for the three. Back, it sends the three votes, and no group
    /// has a barrier due: a cycle that writes nothing lends none.
    #[test]
    fn a_lent_barrier_on_a_multi_group_node_syncs_once() {
        use gridpaxos_core::config::Config;
        use gridpaxos_core::msg::Msg;
        use gridpaxos_core::node::{Net, Node, TimerOps};
        use gridpaxos_core::outbox::{Lent, Out};
        use gridpaxos_core::prelude::{Addr, NoopApp, Time};

        #[derive(Default)]
        struct Lending {
            sent: Vec<Out>,
            lent: Vec<Lent>,
        }
        impl Net for Lending {
            fn transmit(&mut self, outs: &mut Vec<Out>) {
                self.sent.append(outs);
            }
            fn lend(&mut self, lent: Lent) -> Result<(), Lent> {
                self.lent.push(lent);
                Ok(())
            }
        }
        /// What `net` sent, as (group, tag), and no longer holds.
        fn sent(net: &mut Lending) -> Vec<(u32, &'static str)> {
            let msgs = net.sent.drain(..).map(|out| {
                let Msg::Grouped { group, inner } = out.msg() else {
                    panic!("a three-group node sent {:?} bare", out.msg())
                };
                (group.0, inner.tag())
            });
            msgs.collect()
        }

        let dir = tmpdir("lent-barrier");
        let log = FileStorage::open(&dir, SyncMode::Batched, 3).unwrap();
        let meter = Arc::clone(&log.meter);
        let app = |_| Box::new(NoopApp::new()) as Box<dyn gridpaxos_core::service::App>;
        let cfg = Config::cluster(3);
        let mut node = Node::open(ProcessId(1), cfg, Box::new(log), &app, 7, Time::ZERO);
        let mut net = Lending::default();
        let deliver = |node: &mut Node, msg: &dyn Fn() -> Msg| {
            for group in (0..3).map(GroupId) {
                let (leader, inner) = (Addr::Replica(ProcessId(0)), Box::new(msg()));
                let msg = Msg::Grouped { group, inner };
                node.deliver(leader, msg, Time::ZERO, &mut TimerOps::new());
            }
        };

        let entries = || vec![(Instance(1), Decree::noop())];
        deliver(&mut node, &|| Msg::Accept {
            ballot: ballot(1),
            entries: entries(),
        });
        node.release(&mut net);
        assert!(node.barrier_away(), "the barrier lent");
        assert!(sent(&mut net).is_empty(), "the votes wait behind it");
        let mut lent = net.lent.pop().expect("one barrier");
        assert!(!lent.is_empty());
        let lent = std::thread::spawn(move || {
            lent.flush();
            lent
        });
        let lent = lent.join().expect("the flush");
        assert_eq!(
            meter.syncs.load(Ordering::Relaxed),
            1,
            "one sync for three groups"
        );
        node.barrier_back(lent, &mut net);
        assert!(!node.barrier_away());
        let votes = [(0, "accepted"), (1, "accepted"), (2, "accepted")];
        assert_eq!(sent(&mut net), votes, "every group back, synced");

        deliver(&mut node, &|| Msg::Prepare {
            ballot: ballot(0),
            chosen_prefix: Instance::ZERO,
            known_above: Vec::new(),
        });
        node.release(&mut net);
        assert!(
            net.lent.is_empty() && !node.barrier_away(),
            "no barrier due"
        );
        assert_eq!(sent(&mut net).len(), 3, "the refusals leave at once");
        assert_eq!(meter.syncs.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shared_wal_compaction_retains_every_group() {
        let dir = tmpdir("shared-compact");
        {
            let mut log = FileStorage::open(&dir, SyncMode::Never, 2).unwrap();
            for i in 1..=6u64 {
                log.group(GroupId(0))
                    .save_accepted(Instance(i), ballot(1), &decree(i));
                let d = decree(i + 100);
                log.group(GroupId(1))
                    .save_accepted(Instance(i), ballot(1), &d);
            }
            log.group(GroupId(0)).save_chosen_prefix(Instance(6));
            // Group 0 compacts; group 1's records must survive the rewrite.
            log.group(GroupId(0)).truncate_upto(Instance(4));
        }
        let mut log = FileStorage::open(&dir, SyncMode::Never, 2).unwrap();
        let d0 = log.group(GroupId(0)).load();
        let d1 = log.group(GroupId(1)).load();
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
            let mut log = FileStorage::open(&dir, SyncMode::Never, 3).unwrap();
            let s = log.group(GroupId(2));
            s.save_promised(ballot(5));
            s.flush();
        }
        let len = fs::metadata(dir.join("wal.log")).unwrap().len();
        let e = match FileStorage::open(&dir, SyncMode::Never, 2) {
            Ok(_) => panic!("a WAL with a record of group 2 opened for 2 groups"),
            Err(e) => e,
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("group 2"), "{e}");
        assert_eq!(fs::metadata(dir.join("wal.log")).unwrap().len(), len);
        let mut log = FileStorage::open(&dir, SyncMode::Never, 3).unwrap();
        assert_eq!(log.group(GroupId(2)).load().promised, ballot(5));
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
            let mut s = FileStorage::open(&dir, SyncMode::Batched, 1).unwrap();
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
            let s = FileStorage::open(&tdir, SyncMode::Batched, 1).unwrap();
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
            let got = FileStorage::open(&tdir, SyncMode::Batched, 1)
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
            let mut log = FileStorage::open(&dir, SyncMode::Batched, n_groups).unwrap();
            let mut appended = vec![0u64; n_groups];
            let mut flushes = 0u64;
            for (g, append) in ops {
                let g = g % n_groups;
                if append {
                    appended[g] += 1;
                    let i = appended[g];
                    log.group(GroupId(g as u32)).save_accepted(Instance(i), ballot(1), &decree(i));
                } else {
                    log.group(GroupId(g as u32)).flush();
                    flushes += 1;
                }
                prop_assert_eq!(log.is_dirty(), append);
            }
            log.group(GroupId::ZERO).flush();
            flushes += 1;
            prop_assert!(!log.is_dirty(), "dirty after the final flush");
            prop_assert!(log.syncs() <= flushes, "{} syncs", log.syncs());
            drop(log);
            let mut reopened = FileStorage::open(&dir, SyncMode::Batched, n_groups).unwrap();
            for (g, want) in (0..).map(GroupId).zip(&appended) {
                prop_assert_eq!(reopened.group(g).load().accepted.len() as u64, *want);
            }
            fs::remove_dir_all(dir).ok();
        }
    }
}
