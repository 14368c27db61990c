//! The traced run: a single-threaded shuttle that plays the reactor's
//! drive loop by hand.
//!
//! Three real `Replica`s and one `ClientCore` exchange real frames —
//! `encode_with_scratch` → `write_frame` → `FrameDecoder` → `decode_msg` →
//! `on_message` → storage append + flush → … → `Reply` — in the order the
//! reactor would run them, one request at a time, delivering in FIFO
//! order with no timers (`batch_window = 0`). Every call is a span, so a
//! layer's self time is measured where the work happens, and because one
//! thread plays every part the message, action and byte counts repeat
//! exactly for a seed.
//!
//! A span is *blocking* when the client's reply waits for it: everything
//! before the reply is handled, except work on replica 2 and the leader's
//! handling of replica 2's answers. Replica 0 is the bootstrap leader and
//! FIFO delivery makes replica 1 the follower that completes every
//! quorum, so replica 2 is the one a commit never waits for.

use crate::config::{
    cluster_config, StorageKind, WorkloadSpec, CLIENT_RETRY, N_REPLICAS, SHUTTLE_OPS,
};
use crate::delay_storage::DelayStorage;
use crate::trace::{maybe_span, Span, TracedApp, TracedStorage, Tracer, CLIENT};
use crate::workload::{Model, Op, OpGen};
use bytes::BytesMut;
use gridpaxos_core::action::Action;
use gridpaxos_core::client::ClientCore;
use gridpaxos_core::msg::Msg;
use gridpaxos_core::replica::Replica;
use gridpaxos_core::service::App;
use gridpaxos_core::storage::{MemStorage, Storage};
use gridpaxos_core::types::{Addr, ClientId, Dur, ProcessId, Time};
use gridpaxos_services::KvStore;
use gridpaxos_transport::framing::{write_frame, FrameDecoder};
use gridpaxos_transport::wire::{decode_msg, encode_with_scratch};
use gridpaxos_transport::{FlushCoordinator, SyncMode};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Seeded-stream label of the shuttle's ops.
const PHASE_SHUTTLE: u64 = 4;

/// Counts taken at the layer boundaries over the measured requests.
/// They repeat exactly for a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub writes: u64,
    pub reads: u64,
    /// Frames sent by anyone while a write / a read was in progress.
    pub msgs_write: u64,
    pub msgs_read: u64,
    /// Actions returned by the replicas' handlers.
    pub actions: u64,
    /// Framed bytes sent by anyone.
    pub bytes: u64,
    /// Flush barriers that found dirty storage: all, and those a reply
    /// waited for.
    pub dirty_flushes: u64,
    pub blocking_flushes: u64,
    /// Growth of the three `wal.log` files, over requests during which no
    /// log was compacted.
    pub wal_bytes: u64,
    pub wal_ops: u64,
}

pub struct Outcome {
    pub counts: Counts,
    pub spans: Vec<Span>,
    /// Wall time of the measured requests.
    pub wall: Duration,
    /// `StateUpdate` bytes returned by `execute` (traced runs).
    pub update_bytes: u64,
    /// One full `App::snapshot()` of the leader's final state.
    pub snapshot: Duration,
    pub wrong_replies: u64,
    /// Whether measured request `id` (from 1) was a read, at `id - 1`.
    pub reads: Vec<bool>,
}

struct Frame {
    from: usize,
    to: usize,
    bytes: Vec<u8>,
}

struct Shuttle {
    replicas: Vec<Replica>,
    client: ClientCore,
    decoders: Vec<FrameDecoder>,
    queue: VecDeque<Frame>,
    scratch: BytesMut,
    tracer: Option<Tracer>,
    epoch: Instant,
    counts: Counts,
    counting: bool,
    /// Whether the client's reply waits for the work now being done.
    blocking: bool,
    /// Kind of the request in progress, for message attribution.
    read_in_progress: bool,
    reply: Option<gridpaxos_core::client::CompletedOp>,
    wal_files: Vec<PathBuf>,
}

fn node_of(addr: Addr) -> usize {
    match addr {
        Addr::Replica(p) => p.0 as usize,
        Addr::Client(_) => CLIENT,
    }
}

fn addr_of(node: usize, client: ClientId) -> Addr {
    if node == CLIENT {
        Addr::Client(client)
    } else {
        Addr::Replica(ProcessId(node as u32))
    }
}

impl Shuttle {
    fn new(spec: &WorkloadSpec, tracer: Option<Tracer>, dir: &Path) -> io::Result<Shuttle> {
        let mut cfg = cluster_config();
        cfg.batch_window = Dur::ZERO; // the shuttle fires no timers
        let mut replicas = Vec::new();
        let mut wal_files = Vec::new();
        for i in 0..N_REPLICAS {
            let app: Box<dyn App> = match &tracer {
                Some(t) => Box::new(TracedApp::new(KvStore::new(), t.clone())),
                None => Box::new(KvStore::new()),
            };
            let storage: Box<dyn Storage> = match spec.storage {
                // MemStorage does no I/O; its cost stays inside the
                // replica's step, as it does in the live run.
                StorageKind::Mem => Box::new(MemStorage::new()),
                StorageKind::Durable => {
                    let node_dir = dir.join(format!("node-{i}"));
                    let log = FlushCoordinator::open(&node_dir, SyncMode::Never, 1)?.storage(0);
                    wal_files.push(node_dir.join("wal.log"));
                    // The modelled delay is added arithmetically (see
                    // `metrics.rs`), so the shuttle does not sleep.
                    let log = DelayStorage::modelled(log, Duration::ZERO);
                    match &tracer {
                        Some(t) => Box::new(TracedStorage::new(log, t.clone())),
                        None => Box::new(log),
                    }
                }
            };
            replicas.push(Replica::new(
                ProcessId(i as u32),
                cfg.clone(),
                app,
                storage,
                0xace0 + i as u64,
                Time::ZERO,
            ));
        }
        let client = ClientId(1);
        let mut s = Shuttle {
            replicas,
            client: ClientCore::new(client, N_REPLICAS, CLIENT_RETRY),
            decoders: (0..=CLIENT).map(|_| FrameDecoder::new()).collect(),
            queue: VecDeque::new(),
            scratch: BytesMut::new(),
            tracer,
            epoch: Instant::now(),
            counts: Counts::default(),
            counting: false,
            blocking: false,
            read_in_progress: false,
            reply: None,
            wal_files,
        };
        // Bootstrap election, as ordinary traffic.
        for i in 0..N_REPLICAS {
            let now = s.now();
            let actions = s.replicas[i].on_start(now);
            s.after_step(i, actions);
        }
        s.pump(false);
        if !s.replicas[0].is_leader() {
            return Err(io::Error::other(
                "shuttle: replica 0 did not win the bootstrap election",
            ));
        }
        Ok(s)
    }

    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_nanos() as u64)
    }

    fn set_context(&mut self, node: usize, blocking: bool) {
        self.blocking = blocking;
        if let Some(t) = &self.tracer {
            t.with(|b| {
                b.node = node;
                b.blocking = blocking;
            });
        }
    }

    /// Encode and frame `msg` as the sender's reactor would, and put it
    /// on the wire.
    fn send(&mut self, from: usize, to: usize, msg: &Msg) {
        let tracer = self.tracer.as_ref();
        let scratch = &mut self.scratch;
        let body = maybe_span(tracer, "transport.wire.encode", || {
            encode_with_scratch(msg, scratch)
        });
        let mut bytes = Vec::with_capacity(4 + body.len());
        maybe_span(tracer, "transport.framing.write", || {
            write_frame(&mut bytes, body).expect("a Vec accepts every write")
        });
        if self.counting {
            self.counts.bytes += bytes.len() as u64;
            if self.read_in_progress {
                self.counts.msgs_read += 1;
            } else {
                self.counts.msgs_write += 1;
            }
        }
        self.queue.push_back(Frame { from, to, bytes });
    }

    /// What a reactor cycle does after the handlers ran: pump the
    /// checkpoint, flush dirty storage, then transmit.
    fn after_step(&mut self, node: usize, actions: Vec<Action>) {
        let tracer = self.tracer.clone();
        let replica = &mut self.replicas[node];
        maybe_span(tracer.as_ref(), "core.replica.pump_checkpoint", || {
            replica.pump_checkpoint(1)
        });
        if replica.storage_dirty() {
            replica.flush_storage();
            if self.counting {
                self.counts.dirty_flushes += 1;
                self.counts.blocking_flushes += u64::from(self.blocking);
            }
        }
        if self.counting {
            self.counts.actions += actions.len() as u64;
        }
        for a in actions {
            match a {
                Action::Send { to, msg } => self.send(node, node_of(to), &msg),
                Action::ToAllReplicas { msg } => {
                    for to in (0..N_REPLICAS).filter(|&to| to != node) {
                        self.send(node, to, &msg);
                    }
                }
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
            }
        }
    }

    /// Deliver one frame: decode it as the receiver's reactor would and
    /// run the handler.
    fn deliver(&mut self, frame: Frame) {
        let Frame { from, to, bytes } = frame;
        let blocking = self.reply.is_none() && from != 2 && to != 2;
        self.set_context(to, blocking);
        let tracer = self.tracer.clone();
        let tracer = tracer.as_ref();
        let decoder = &mut self.decoders[to];
        let mut body = maybe_span(tracer, "transport.framing.decode", || {
            decoder.extend(&bytes);
            decoder.next_frame()
        })
        .expect("well-formed frame")
        .expect("whole frame");
        let msg = maybe_span(tracer, "transport.wire.decode", || decode_msg(&mut body))
            .expect("decodable message");
        let now = self.now();
        if to == CLIENT {
            let client = &mut self.client;
            let (done, _timers) = maybe_span(tracer, "core.client.on_message", || {
                client.on_message(msg, now)
            });
            if done.is_some() {
                self.reply = done;
            }
        } else {
            let replica = &mut self.replicas[to];
            let from = addr_of(from, self.client.id());
            let actions = maybe_span(tracer, "core.replica.on_message", || {
                replica.on_message(from, msg, now)
            });
            self.after_step(to, actions);
        }
    }

    /// Deliver until the reply arrives (`until_reply`) or the wire is
    /// silent.
    fn pump(&mut self, until_reply: bool) {
        while !(until_reply && self.reply.is_some()) {
            let Some(frame) = self.queue.pop_front() else {
                break;
            };
            self.deliver(frame);
        }
    }

    /// One closed-loop request, start to quiescence.
    fn request(&mut self, id: u64, op: Op, model: &mut Model) -> bool {
        let (kind, payload) = model.request(op);
        self.read_in_progress = op.is_read();
        self.reply = None;
        if let Some(t) = &self.tracer {
            t.with(|b| b.request_id = id);
        }
        self.set_context(CLIENT, true);
        let tracer = self.tracer.clone();
        maybe_span(tracer.as_ref(), "request", || {
            let now = self.now();
            let client = &mut self.client;
            let actions = maybe_span(tracer.as_ref(), "core.client.submit", || {
                client.submit_op(kind, payload, now)
            });
            for a in actions {
                if let Action::Send { to, msg } = a {
                    self.send(CLIENT, node_of(to), &msg);
                }
            }
            self.pump(true);
        });
        // What the cluster still does after the client has its answer
        // (the second follower's share, `Chosen`, late confirms).
        maybe_span(tracer.as_ref(), "request.tail", || self.pump(false));
        let Some(done) = self.reply.take() else {
            return false;
        };
        done.body
            .payload()
            .is_some_and(|p| model.check_reply(op, p))
    }

    fn wal_len(&self) -> u64 {
        self.wal_files
            .iter()
            .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
            .sum()
    }
}

/// Preload every key, then push [`SHUTTLE_OPS`] generated requests
/// through the shuttle; with a `tracer`, every call is a span.
pub fn run(
    spec: &WorkloadSpec,
    seed: u64,
    tracer: Option<Tracer>,
    data_dir: &Path,
) -> io::Result<Outcome> {
    let dir = data_dir.join(format!(
        "shuttle-{}-{}",
        std::process::id(),
        if tracer.is_some() { "traced" } else { "bare" }
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(t) = &tracer {
        t.with(|b| b.paused = true);
    }
    let mut shuttle = Shuttle::new(spec, tracer.clone(), &dir)?;
    let mut model = Model::new(spec);
    let mut wrong = 0u64;
    for key in 0..spec.n_keys {
        wrong += u64::from(!shuttle.request(0, Op::Put { key }, &mut model));
    }

    if let Some(t) = &tracer {
        t.with(|b| b.paused = false);
    }
    shuttle.counting = true;
    let mut gen = OpGen::new(spec, seed, PHASE_SHUTTLE, 0, 1);
    let durable = spec.storage == StorageKind::Durable;
    let mut reads = Vec::with_capacity(SHUTTLE_OPS);
    let t0 = Instant::now();
    for id in 1..=SHUTTLE_OPS as u64 {
        let op = gen.next_op();
        reads.push(op.is_read());
        let before = if durable { shuttle.wal_len() } else { 0 };
        wrong += u64::from(!shuttle.request(id, op, &mut model));
        if op.is_read() {
            shuttle.counts.reads += 1;
        } else {
            shuttle.counts.writes += 1;
        }
        if durable {
            // A shrinking log was compacted by a checkpoint: skip it.
            if let Some(grown) = shuttle.wal_len().checked_sub(before) {
                shuttle.counts.wal_bytes += grown;
                shuttle.counts.wal_ops += 1;
            }
        }
    }
    let wall = t0.elapsed();

    let t1 = Instant::now();
    let snapshot_len = shuttle.replicas[0].service_snapshot().len();
    let snapshot = t1.elapsed();
    std::hint::black_box(snapshot_len);
    let update_bytes = tracer.as_ref().map_or(0, |t| t.with(|b| b.update_bytes));
    let spans = tracer.map_or_else(Vec::new, |t| t.with(|b| std::mem::take(&mut b.spans)));
    let counts = shuttle.counts;
    drop(shuttle);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Outcome {
        counts,
        spans,
        wall,
        update_bytes,
        snapshot,
        wrong_replies: wrong,
        reads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WORKLOADS;

    fn small(spec: &WorkloadSpec) -> WorkloadSpec {
        WorkloadSpec {
            n_keys: 64,
            ..*spec
        }
    }

    #[test]
    fn same_seed_gives_identical_counts_traced_or_not() {
        let dir = std::env::temp_dir().join(format!("gp-shuttle-test-{}", std::process::id()));
        for spec in [small(&WORKLOADS[0]), small(&WORKLOADS[2])] {
            let a = run(&spec, 7, Some(Tracer::new()), &dir).expect("traced");
            let b = run(&spec, 7, Some(Tracer::new()), &dir).expect("traced again");
            let bare = run(&spec, 7, None, &dir).expect("bare");
            assert_eq!(a.counts, b.counts, "{}", spec.name);
            assert_eq!(a.wrong_replies + bare.wrong_replies, 0);
            assert_eq!(a.counts.writes + a.counts.reads, SHUTTLE_OPS as u64);
            assert_eq!(
                a.counts, bare.counts,
                "spans change no count ({})",
                spec.name
            );
            assert_eq!(a.spans.len(), b.spans.len());
            assert!(bare.spans.is_empty());
            let other = run(&spec, 8, None, &dir).expect("other seed");
            if spec.read_pct > 0 {
                assert_ne!(other.counts, bare.counts, "another seed, another mix");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_write_is_ten_messages_and_a_read_six() {
        let dir = std::env::temp_dir().join(format!("gp-shuttle-msgs-{}", std::process::id()));
        let spec = small(&WORKLOADS[2]);
        let out = run(&spec, 1, None, &dir).expect("run");
        let c = out.counts;
        // Write: 3 requests, 2 accepts, 2 accepted, 2 chosen, 1 reply.
        assert_eq!(c.msgs_write, 10 * c.writes);
        // X-Paxos read: 3 requests, 2 confirms, 1 reply.
        assert_eq!(c.msgs_read, 6 * c.reads);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
