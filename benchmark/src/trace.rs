//! Spans recorded from outside the program.
//!
//! Tracing inside the replica and the reactor is a later change; until
//! then the benchmark wraps each call it makes into a layer (and the
//! `Storage` and `App` the replica calls out to) in a span. Spans live in
//! memory and are written out once, at the end of the run.

use bytes::Bytes;
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{Decree, DedupEntry, SnapshotBlob, StateUpdate};
use gridpaxos_core::request::{AbortReason, Request};
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState, Storage};
use gridpaxos_core::types::{Instance, TxnId};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Who ran a span: the client or replica `r<i>`.
pub const NODES: [&str; 4] = ["r0", "r1", "r2", "client"];
pub const CLIENT: usize = 3;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub node: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
    /// On the path the client's reply waits for (see `shuttle.rs`).
    pub blocking: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct TraceBuf {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    // Context the shuttle sets before each call it makes.
    pub request_id: u64,
    pub node: usize,
    pub blocking: bool,
    /// Bytes of `StateUpdate` returned by `App::execute`.
    pub update_bytes: u64,
    /// While set, spans are not recorded (preload).
    pub paused: bool,
}

/// Shared with the `Storage` and `App` wrappers inside the replicas
/// (which must be `Send`, hence the mutex; it is never contended).
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<TraceBuf>>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer(Arc::new(Mutex::new(TraceBuf {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 17),
            open: Vec::new(),
            request_id: 0,
            node: CLIENT,
            blocking: false,
            update_bytes: 0,
            paused: false,
        })))
    }

    pub fn with<T>(&self, f: impl FnOnce(&mut TraceBuf) -> T) -> T {
        f(&mut self
            .0
            .lock()
            .expect("tracer mutex is never poisoned: spans do not panic"))
    }

    /// Run `f` inside a span called `name`, a child of the span open
    /// around it. The lock is not held while `f` runs, so `f` may open
    /// spans of its own (the replica calling its storage).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.with(|t| {
            if t.paused {
                return None;
            }
            let id = t.spans.len() as u32;
            let start_ns = t.epoch.elapsed().as_nanos() as u64;
            t.spans.push(Span {
                name,
                node: t.node,
                start_ns,
                end_ns: start_ns,
                parent: t.open.last().copied(),
                request_id: t.request_id,
                blocking: t.blocking,
            });
            t.open.push(id);
            Some(id)
        });
        let out = f();
        if let Some(id) = id {
            self.with(|t| {
                t.spans[id as usize].end_ns = t.epoch.elapsed().as_nanos() as u64;
                t.open.pop();
            });
        }
        out
    }
}

/// Run `f` in a span when tracing, bare otherwise.
pub fn maybe_span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time per span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Write the spans as one JSON array (see README, "Reading a trace").
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"node\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{},\"blocking\":{}}}{comma}",
            s.name, NODES[s.node], s.start_ns, s.end_ns, s.request_id, s.blocking
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}

/// A [`Storage`] whose calls are spans of the `transport.fstorage` layer.
pub struct TracedStorage<S> {
    inner: S,
    tracer: Tracer,
}

impl<S> TracedStorage<S> {
    pub fn new(inner: S, tracer: Tracer) -> TracedStorage<S> {
        TracedStorage { inner, tracer }
    }
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn save_promised(&mut self, b: Ballot) {
        let inner = &mut self.inner;
        self.tracer
            .span("transport.fstorage.append", || inner.save_promised(b));
    }
    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
        let inner = &mut self.inner;
        self.tracer
            .span("transport.fstorage.append", || inner.save_accepted(i, b, d));
    }
    fn save_chosen_prefix(&mut self, upto: Instance) {
        let inner = &mut self.inner;
        self.tracer.span("transport.fstorage.append", || {
            inner.save_chosen_prefix(upto)
        });
    }
    fn save_checkpoint(&mut self, snap: &SnapshotBlob) {
        let inner = &mut self.inner;
        self.tracer.span("transport.fstorage.checkpoint", || {
            inner.save_checkpoint(snap)
        });
    }
    fn truncate_upto(&mut self, upto: Instance) {
        let inner = &mut self.inner;
        self.tracer.span("transport.fstorage.checkpoint", || {
            inner.truncate_upto(upto)
        });
    }
    fn load(&self) -> DurableState {
        self.inner.load()
    }
    fn flush(&mut self) {
        let inner = &mut self.inner;
        self.tracer
            .span("transport.fstorage.flush", || inner.flush());
    }
    fn is_dirty(&self) -> bool {
        self.inner.is_dirty()
    }
    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }
    fn supports_chunked_checkpoint(&self) -> bool {
        self.inner.supports_chunked_checkpoint()
    }
    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        let inner = &mut self.inner;
        self.tracer.span("transport.fstorage.checkpoint", || {
            inner.checkpoint_begin(upto, dedup, total)
        });
    }
    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        let inner = &mut self.inner;
        self.tracer.span("transport.fstorage.checkpoint", || {
            inner.checkpoint_chunk(idx, data)
        });
    }
    fn checkpoint_commit(&mut self) {
        let inner = &mut self.inner;
        self.tracer.span("transport.fstorage.checkpoint", || {
            inner.checkpoint_commit()
        });
    }
    fn checkpoint_abort(&mut self) {
        self.inner.checkpoint_abort();
    }
    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        self.inner.checkpoint_chunks()
    }
}

/// An [`App`] whose calls are spans of the `services.kvstore` layer.
/// Every method delegates: a defaulted one would silently change how the
/// replica runs the service (tentative execution, chunked snapshots).
pub struct TracedApp<A> {
    inner: A,
    tracer: Tracer,
}

impl<A> TracedApp<A> {
    pub fn new(inner: A, tracer: Tracer) -> TracedApp<A> {
        TracedApp { inner, tracer }
    }
}

impl<A: App> App for TracedApp<A> {
    fn execute(&mut self, req: &Request, ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        let inner = &mut self.inner;
        let out = self
            .tracer
            .span("services.kvstore.execute", || inner.execute(req, ctx));
        self.tracer.with(|t| {
            if !t.paused {
                t.update_bytes += out.1.payload_len() as u64;
            }
        });
        out
    }
    fn apply(&mut self, req: &Request, update: &StateUpdate) {
        let inner = &mut self.inner;
        self.tracer
            .span("services.kvstore.apply", || inner.apply(req, update));
    }
    fn snapshot(&self) -> Bytes {
        let inner = &self.inner;
        self.tracer
            .span("services.kvstore.snapshot", || inner.snapshot())
    }
    fn restore(&mut self, snap: &[u8]) {
        self.inner.restore(snap);
    }
    fn shard_key(&self, req: &Request) -> Option<u64> {
        self.inner.shard_key(req)
    }
    fn txn_begin(&mut self, txn: TxnId) {
        self.inner.txn_begin(txn);
    }
    fn txn_execute(
        &mut self,
        txn: TxnId,
        req: &Request,
        durable: bool,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Bytes, StateUpdate), AbortReason> {
        self.inner.txn_execute(txn, req, durable, ctx)
    }
    fn txn_commit(&mut self, txn: TxnId) -> StateUpdate {
        self.inner.txn_commit(txn)
    }
    fn txn_abort(&mut self, txn: TxnId) {
        self.inner.txn_abort(txn);
    }
    fn tentative_begin(&mut self) -> bool {
        self.inner.tentative_begin()
    }
    fn tentative_rollback(&mut self) {
        self.inner.tentative_rollback();
    }
    fn tentative_commit(&mut self) {
        self.inner.tentative_commit();
    }
    fn snapshot_begin(&mut self, chunk_bytes: usize) -> usize {
        let inner = &mut self.inner;
        self.tracer.span("services.kvstore.snapshot", || {
            inner.snapshot_begin(chunk_bytes)
        })
    }
    fn snapshot_chunk(&mut self, idx: usize) -> Bytes {
        let inner = &mut self.inner;
        self.tracer
            .span("services.kvstore.snapshot", || inner.snapshot_chunk(idx))
    }
    fn snapshot_end(&mut self) {
        let inner = &mut self.inner;
        self.tracer
            .span("services.kvstore.snapshot", || inner.snapshot_end());
    }
    fn txn_prepare(
        &mut self,
        txn: TxnId,
        req: &Request,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<StateUpdate, AbortReason> {
        self.inner.txn_prepare(txn, req, ctx)
    }
    fn txn_decide(&mut self, txn: TxnId, commit: bool, record: bool) -> (bool, StateUpdate) {
        self.inner.txn_decide(txn, commit, record)
    }
    fn apply_txn_decide(&mut self, txn: TxnId, commit: bool, update: &StateUpdate) {
        self.inner.apply_txn_decide(txn, commit, update);
    }
    fn apply_txn_commit(&mut self, txn: TxnId, ops: &[Request], update: &StateUpdate) {
        self.inner.apply_txn_commit(txn, ops, update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let t = Tracer::new();
        t.with(|b| b.request_id = 9);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", || ());
        });
        let spans = t.with(|b| b.spans.clone());
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(spans.iter().all(|s| s.request_id == 9));
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert!(own[1] >= 2_000_000 && own[0] < spans[0].dur_ns());
    }
}
