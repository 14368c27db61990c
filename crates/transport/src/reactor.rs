//! The epoll reactor: nonblocking multiplexed I/O for one node on one
//! loop thread, with explicit backpressure.
//!
//! This is the only code in the crate that listens on a socket. Two OS
//! threads per connection drown a node in stacks and context switches at
//! thousands of closed-loop clients, long before it runs out of protocol
//! capacity (EXPERIMENTS.md E14), so a node is **one loop thread**: a
//! level-triggered `epoll` loop ([`crate::sys`]) owning the listener,
//! every connection, the [`Node`] and the timer table.
//!
//! ## One node, two hosts
//!
//! Everything the loop does to the replicas is [`Node`]'s, the code the
//! simulator hosts too: routing, stepping, buffering sends, the release
//! ([`gridpaxos_core::outbox`]: `Accept`s to the kernel, one fsync for
//! the whole batch, then everything else) and the barrier away. The
//! reactor is the host: epoll, the connections, the admission gate, the
//! inbox and its `MAX_DRAIN` cap, the timer table, one checkpoint chunk
//! per group per cycle, the counters, and `Sockets`, the node's [`Net`].
//! `Sockets` lends the barrier to a thread of a process-wide pool
//! (`crate::barrier`), and the loop goes on delivering to the node —
//! which runs X-Paxos reads and their confirms beside the barrier and
//! holds the rest — but fires no timer and pumps no checkpoint. The
//! barrier's wake-up, a socket in the epoll set, brings it back to
//! [`Node::barrier_back`], and what the node held goes back to the front
//! of the inbox. Storage that is durable as written never lends.
//!
//! ## I/O discipline
//!
//! The connections are a `ConnTable` (`crate::conn`), the one the client
//! loop owns too: nonblocking sockets, reads drained until `EWOULDBLOCK`
//! into a per-connection [`FrameDecoder`](crate::FrameDecoder) that
//! tolerates frames torn at any byte offset, writes through a
//! byte-bounded [`SendQueue`](crate::SendQueue): one `writev` per
//! connection per cycle, up to 64 queued frames a call, resuming a
//! partial frame at its offset. A frame that does not decode, or a
//! length prefix past `MAX_FRAME`, closes its connection and nothing
//! else. The loop blocks only in
//! [`Epoll::wait_for`](crate::sys::Epoll::wait_for), until the next timer
//! is due at the clock's resolution (`Reactor::wait`): the leader's batch
//! window is 100 µs, and whole milliseconds would cost every loaded
//! decree ten times that.
//!
//! ## The way out
//!
//! `Reactor::run` waits for a barrier still away and ends with
//! [`Node::stop`]: a release with the barrier on its own thread, then
//! [`Replica::stop`] on every group, so the replicas
//! [`ReactorCluster::shutdown`] returns hold the state of their chosen
//! prefix — "equal prefix ⇒ equal `service_snapshot()`" needs no
//! exemption for a node stopped mid-decree.
//!
//! ## Backpressure and multiplexing
//!
//! Per-connection send queues are byte-capped; while one is full its
//! connection's **read interest is suspended**, so a peer that stops
//! reading our replies stops feeding us work. A node-wide `AdmissionGate`
//! (`crate::backpressure`) over the backlog — the inbox and what the node
//! holds behind a barrier — sheds client requests with an immediate
//! `ReplyBody::Busy` above its high-water mark and re-admits below its
//! low-water mark; a Busy reply never touches the protocol core. Replies
//! route by client address: every `Request` binds its client to the
//! connection it came on, so any number of clients ([`crate::client`])
//! share one socket.

#![deny(clippy::disallowed_methods)] // rule 5: no blocking call on an epoll loop

use crate::backpressure::AdmissionGate;
use crate::barrier::BarrierLine;
use crate::client::{fresh_client_id, SyncClient};
use crate::conn::{Conn, ConnTable, Sent, SEND_QUEUE_CAP, TOKEN_LISTENER};
use crate::fstorage::{FileStorage, SyncMode};
use crate::sys::{self, EPOLLIN};
use crate::timers::Timers;
use crate::wire::{decode_msg, get_addr};
use bytes::Bytes;
use gridpaxos_core::client::{ClientCore, ShardRouter};
use gridpaxos_core::config::Config;
use gridpaxos_core::msg::Msg;
use gridpaxos_core::node::{Inbox, Net, Node, TimerOp, TimerOps};
use gridpaxos_core::outbox::{Lent, Out};
use gridpaxos_core::replica::Replica;
use gridpaxos_core::request::{Reply, ReplyBody};
use gridpaxos_core::service::App;
use gridpaxos_core::storage::{MemStorage, NodeStorage, Storage};
use gridpaxos_core::types::{Addr, ClientId, Dur, GroupId, ProcessId, Time};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum epoll wait per iteration so the stop flag is honored promptly.
const MAX_WAIT: Duration = Duration::from_millis(25);

/// Cap on messages drained through the cores per flush cycle, so one
/// barrier never covers an unbounded batch.
const MAX_DRAIN: usize = 128;

/// The epoll token of the barrier's wake-up socket (connection tokens
/// count up from the listener's).
const TOKEN_BARRIER: u64 = u64::MAX;

/// Tuning knobs for one reactor node.
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Byte cap per connection send queue (exceeded by at most one frame).
    pub send_queue_cap: usize,
    /// Inbox backlog at which the admission gate starts shedding client
    /// requests with `Busy`.
    pub admit_high: usize,
    /// Backlog at which a shedding gate re-admits.
    pub admit_low: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            send_queue_cap: SEND_QUEUE_CAP,
            admit_high: 4096,
            admit_low: 1024,
        }
    }
}

#[derive(Default)]
struct MetricsInner {
    accepted: AtomicU64,
    msgs_in: AtomicU64,
    msgs_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    busy_shed: AtomicU64,
    frames_dropped: AtomicU64,
    reads_suspended: AtomicU64,
    partial_writes: AtomicU64,
    unroutable: AtomicU64,
    barriers_lent: AtomicU64,
}

/// Shared, live-readable counters of one reactor node.
#[derive(Clone, Default)]
pub struct ReactorMetrics {
    inner: Arc<MetricsInner>,
}

/// A point-in-time copy of a node's [`ReactorMetrics`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReactorStats {
    /// Connections accepted on the listener.
    pub accepted: u64,
    /// Protocol messages decoded off the wire.
    pub msgs_in: u64,
    /// Protocol messages framed onto send queues.
    pub msgs_out: u64,
    /// Payload bytes read.
    pub bytes_in: u64,
    /// Payload bytes written.
    pub bytes_out: u64,
    /// Client requests shed with `Busy` by the admission gate.
    pub busy_shed: u64,
    /// Frames refused: the connection's send queue was full, or the
    /// frame exceeded `MAX_FRAME`.
    pub frames_dropped: u64,
    /// Times a connection's read interest was suspended (full send queue).
    pub reads_suspended: u64,
    /// Write calls that ended in `EWOULDBLOCK` with bytes still queued.
    pub partial_writes: u64,
    /// Messages dropped for lack of any connection to the destination.
    pub unroutable: u64,
    /// Barriers that synced on a pool thread while the loop served on.
    pub barriers_lent: u64,
}

impl ReactorMetrics {
    /// Copy the current counter values.
    #[must_use]
    pub fn stats(&self) -> ReactorStats {
        let m = &self.inner;
        ReactorStats {
            accepted: m.accepted.load(Ordering::Relaxed),
            msgs_in: m.msgs_in.load(Ordering::Relaxed),
            msgs_out: m.msgs_out.load(Ordering::Relaxed),
            bytes_in: m.bytes_in.load(Ordering::Relaxed),
            bytes_out: m.bytes_out.load(Ordering::Relaxed),
            busy_shed: m.busy_shed.load(Ordering::Relaxed),
            frames_dropped: m.frames_dropped.load(Ordering::Relaxed),
            reads_suspended: m.reads_suspended.load(Ordering::Relaxed),
            partial_writes: m.partial_writes.load(Ordering::Relaxed),
            unroutable: m.unroutable.load(Ordering::Relaxed),
            barriers_lent: m.barriers_lent.load(Ordering::Relaxed),
        }
    }
}

fn bump(c: &AtomicU64, by: u64) {
    c.fetch_add(by, Ordering::Relaxed);
}

impl MetricsInner {
    /// Count what became of one message sent.
    fn sent(&self, sent: Sent) {
        match sent {
            Sent::Queued(len) => {
                bump(&self.msgs_out, 1);
                bump(&self.bytes_out, len as u64);
            }
            Sent::Full | Sent::TooBig => bump(&self.frames_dropped, 1),
            Sent::Unroutable => bump(&self.unroutable, 1),
        }
    }
}

/// What the reactor does between a connection's write and its interest
/// settling: count a write that left bytes queued, and propagate
/// backpressure — a full queue suspends the connection's reads, a queue
/// drained below half of `cap` resumes them.
fn after_write(metrics: &MetricsInner, cap: usize) -> impl FnMut(&mut Conn, bool) + '_ {
    move |c, blocked| {
        if blocked {
            bump(&metrics.partial_writes, 1);
        }
        if c.outq.is_full() && !c.read_suspended {
            c.read_suspended = true;
            bump(&metrics.reads_suspended, 1);
        } else if c.read_suspended && c.outq.queued_bytes() < cap / 2 {
            c.read_suspended = false;
        }
    }
}

struct Reactor {
    /// The process: its groups, what they buffered, and the barrier away.
    node: Node,
    /// Where the node's releases go.
    net: Sockets,
    epoch: Instant,
    listener: TcpListener,
    /// Decoded messages awaiting a trip through the node.
    inbox: Inbox,
    /// What the last step asked of the timers.
    timer_ops: TimerOps,
    timers: Timers,
    gate: AdmissionGate,
    stop: Arc<AtomicBool>,
}

/// The node's [`Net`]: its connections, and the way to a barrier thread.
struct Sockets {
    /// Every replica but this one: where a broadcast goes.
    followers: Vec<Addr>,
    /// Every connection, the replicas' and the clients'.
    conns: ConnTable,
    /// The way to a barrier thread, opened at the first barrier lent.
    line: Option<BarrierLine>,
    send_queue_cap: usize,
    metrics: Arc<MetricsInner>,
}

impl Reactor {
    /// `node` behind `listener`, not yet running.
    fn new(
        mut node: Node,
        listener: TcpListener,
        peer_addrs: HashMap<ProcessId, SocketAddr>,
        stop: Arc<AtomicBool>,
        rcfg: ReactorConfig,
        metrics: Arc<MetricsInner>,
    ) -> io::Result<Reactor> {
        let me = node.id();
        let n = node.group_mut(GroupId::ZERO).config().n as u32;
        let net = Sockets {
            followers: (0..n)
                .filter(|p| *p != me.0)
                .map(|p| Addr::Replica(ProcessId(p)))
                .collect(),
            conns: ConnTable::new(Addr::Replica(me), peer_addrs, rcfg.send_queue_cap)?,
            line: None,
            send_queue_cap: rcfg.send_queue_cap,
            metrics,
        };
        Ok(Reactor {
            timers: Timers::new(node.n_groups()),
            node,
            net,
            epoch: Instant::now(),
            listener,
            inbox: Inbox::new(),
            timer_ops: TimerOps::new(),
            gate: AdmissionGate::new(rcfg.admit_high, rcfg.admit_low),
            stop,
        })
    }

    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Carry out what the last step asked of the timers.
    fn arm_timers(&mut self) {
        let now = self.now().0;
        for (g, op) in self.timer_ops.drain(..) {
            match op {
                TimerOp::Set(kind, after) => self.timers.set(g.0 as usize, kind, now + after.0),
                TimerOp::Cancel(kind) => self.timers.cancel(g.0 as usize, kind),
            }
        }
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = self.now();
            let Some((g, kind)) = self.timers.pop_due(now.0) else {
                return;
            };
            self.node
                .fire(GroupId(g as u32), kind, now, &mut self.timer_ops);
            self.arm_timers();
        }
    }

    /// Release what the cycle buffered ([`Node::release`]: `Accept`s, the
    /// group-commit barrier — a flush per group with a barrier due, which
    /// the node's one WAL ([`crate::fstorage`]) collapses to one fsync —
    /// on a pool thread, then everything else). Busy replies queued
    /// outside the node reach their sockets here too.
    fn flush_and_transmit(&mut self) {
        self.node.release(&mut self.net);
        self.net.write_dirty_conns();
    }

    /// The barrier's wake-up fired, or, with `block`, the loop waits for
    /// the barrier away on its way out: if it is back, the node sends what
    /// waited behind it, and what it held goes back to the front of the
    /// inbox.
    fn barrier_back(&mut self, block: bool) {
        let line = self.net.line.as_mut().filter(|_| self.node.barrier_away());
        let Some(lent) = line.and_then(|line| line.back(block)) else {
            return;
        };
        self.node.barrier_back(lent, &mut self.net, &mut self.inbox);
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.net.conns.accept(stream).is_some() {
                        bump(&self.net.metrics.accepted, 1);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// EPOLLIN on `token`: read what came, admit or shed each request.
    fn handle_readable(&mut self, token: u64) {
        let mut door = Door {
            me: self.node.id(),
            inbox: &mut self.inbox,
            held: self.node.held_len(),
            gate: &mut self.gate,
            metrics: &self.net.metrics,
        };
        let read = self
            .net
            .conns
            .read(token, |conns, frame| door.on_frame(conns, token, frame));
        bump(&self.net.metrics.bytes_in, read as u64);
    }

    /// Hand up to [`MAX_DRAIN`] queued messages to the node, which holds
    /// those that must wait for a barrier away.
    fn process_inbox(&mut self) {
        for _ in 0..MAX_DRAIN {
            let Some((from, msg)) = self.inbox.pop_front() else {
                break;
            };
            let now = self.now();
            self.node.deliver(from, msg, now, &mut self.timer_ops);
            self.arm_timers();
        }
        // Keep the gate fed as the backlog shrinks so re-admission happens
        // even when no new request arrives to trigger an update.
        self.gate.update(self.inbox.len() + self.node.held_len());
    }

    /// How long the loop may block: until the next timer is due, capped
    /// at [`MAX_WAIT`]; not at all while backlog remains. Timers wait for
    /// a barrier away, whose wake-up ends the wait.
    fn wait(&mut self) -> Duration {
        if !self.inbox.is_empty() {
            return Duration::ZERO;
        }
        if self.node.barrier_away() {
            return MAX_WAIT;
        }
        let now = self.now().0;
        self.timers
            .next_due()
            .map(|due| Duration::from_nanos(due.saturating_sub(now)))
            .unwrap_or(MAX_WAIT)
            .min(MAX_WAIT)
    }

    fn run(mut self) -> Vec<Replica> {
        if self.listener.set_nonblocking(true).is_err()
            || self
                .net
                .conns
                .epoll()
                .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
                .is_err()
        {
            return self.node.into_groups();
        }
        let now = self.now();
        self.node.start(now, &mut self.timer_ops);
        self.arm_timers();
        self.flush_and_transmit();

        let mut events: Vec<sys::Event> = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            events.clear();
            let timeout = self.wait();
            let epoll = self.net.conns.epoll();
            if epoll.wait_for(&mut events, timeout).is_err() {
                break;
            }
            for ev in &events {
                if ev.token == TOKEN_LISTENER {
                    self.accept_ready();
                    continue;
                }
                if ev.token == TOKEN_BARRIER {
                    self.barrier_back(false);
                    continue;
                }
                if ev.writable() {
                    let net = &mut self.net;
                    let after = after_write(&net.metrics, net.send_queue_cap);
                    net.conns.writable(ev.token, after);
                }
                if ev.readable() && self.net.conns.contains(ev.token) {
                    self.handle_readable(ev.token);
                }
            }
            self.process_inbox();
            if !self.node.barrier_away() {
                self.fire_due_timers();
                // One incremental-checkpoint chunk per group per cycle:
                // state serialization rides the drive loop in O(chunk)
                // slices instead of one stop-the-world O(state) pause.
                for g in (0..self.node.n_groups() as u32).map(GroupId) {
                    self.node.group_mut(g).pump_checkpoint(1);
                }
            }
            self.flush_and_transmit();
        }
        // A clean stop leaves no chosen-prefix mark waiting for a barrier
        // that will never come, and no decree executed but not chosen in
        // the state it hands back.
        self.barrier_back(true);
        let groups = self.node.stop(&mut self.net);
        self.net.write_dirty_conns();
        groups
    }
}

impl Sockets {
    /// Write every connection with freshly queued bytes to its socket.
    fn write_dirty_conns(&mut self) {
        let after = after_write(&self.metrics, self.send_queue_cap);
        self.conns.write_dirty(after);
    }
}

impl Net for Sockets {
    /// Frame `outs` onto connection send queues — a broadcast is encoded
    /// and framed once, and every follower's queue holds the same bytes —
    /// then write every connection with queued bytes to its socket.
    fn transmit(&mut self, outs: &mut Vec<Out>) {
        for out in outs.drain(..) {
            match out {
                Out::One(to, msg) => self.metrics.sent(self.conns.send(to, &msg)),
                Out::All(msg) => {
                    let (followers, metrics) = (self.followers.iter().copied(), &self.metrics);
                    self.conns
                        .send_all(&msg, followers, |sent| metrics.sent(sent));
                }
            }
        }
        self.write_dirty_conns();
    }

    /// Send the barrier to a pool thread; it comes back to sync here if
    /// there is no thread or wake-up socket to be had.
    fn lend(&mut self, lent: Lent) -> Result<(), Lent> {
        if self.line.is_none() {
            let line = BarrierLine::new();
            let epoll = self.conns.epoll();
            let registered =
                line.and_then(|l| epoll.add(l.fd(), EPOLLIN, TOKEN_BARRIER).map(|()| l));
            self.line = registered.ok();
        }
        let Some(line) = &mut self.line else {
            return Err(lent);
        };
        line.start(lent)?;
        bump(&self.metrics.barriers_lent, 1);
        Ok(())
    }
}

/// What a frame off a connection may touch of the reactor: the hello
/// binds the connection's peer; a client request binds its client to the
/// connection and passes the admission gate into the inbox, or is shed
/// with `Busy`.
struct Door<'a> {
    me: ProcessId,
    inbox: &'a mut Inbox,
    /// Messages held behind a barrier: backlog the gate counts too.
    held: usize,
    gate: &'a mut AdmissionGate,
    metrics: &'a MetricsInner,
}

impl Door<'_> {
    /// One complete frame off connection `token`. Returns `false` if the
    /// connection must be dropped (protocol violation).
    fn on_frame(&mut self, conns: &mut ConnTable, token: u64, mut frame: Bytes) -> bool {
        let Some(peer) = conns.peer(token) else {
            // First frame on an accepted connection: the peer's address.
            let Ok(addr) = get_addr(&mut frame) else {
                return false;
            };
            conns.bind(addr, token);
            return true;
        };
        let Ok(msg) = decode_msg(&mut frame) else {
            return false;
        };
        bump(&self.metrics.msgs_in, 1);

        // A client request binds its client to this connection — any
        // number of clients share one socket — and passes the gate.
        #[allow(clippy::wildcard_enum_match_arm)] // every message but the envelope is bare
        let (group, inner) = match &msg {
            Msg::Grouped { group, inner } => (Some(*group), inner.as_ref()),
            bare => (None, bare),
        };
        let Msg::Request(req) = inner else {
            self.inbox.push_back((peer, msg));
            return true;
        };
        let client = Addr::Client(req.id.client);
        conns.bind(client, token);
        if !self.gate.update(self.inbox.len() + self.held) {
            self.inbox.push_back((client, msg));
            return true;
        }
        // Shed: an immediate Busy, over the connection the client was just
        // bound to, in the envelope the request came in. The request never
        // reaches the core, so there is nothing for a barrier to cover.
        bump(&self.metrics.busy_shed, 1);
        let busy = Msg::Reply(Reply {
            id: req.id,
            leader: self.me,
            watermark: gridpaxos_core::types::Instance::ZERO,
            body: ReplyBody::Busy,
        });
        let busy = match group {
            Some(group) => Msg::Grouped {
                group,
                inner: Box::new(busy),
            },
            None => busy,
        };
        self.metrics.sent(conns.send(client, &busy));
        true
    }
}

/// Join handle + live metrics for one reactor node.
pub struct ReactorHandle {
    thread: std::thread::JoinHandle<Vec<Replica>>,
    metrics: ReactorMetrics,
}

impl ReactorHandle {
    /// The node's live counters.
    #[must_use]
    pub fn metrics(&self) -> ReactorMetrics {
        self.metrics.clone()
    }

    /// Join the reactor thread, returning the per-group replicas.
    pub fn join(self) -> Vec<Replica> {
        match self.thread.join() {
            Ok(replicas) => replicas,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Spawn one reactor node hosting `node`'s groups behind `listener`.
/// `peers` maps every replica node (including this one) to its listen
/// address.
pub fn spawn_reactor_node(
    node: Node,
    listener: TcpListener,
    peers: HashMap<ProcessId, SocketAddr>,
    stop: Arc<AtomicBool>,
    rcfg: ReactorConfig,
) -> io::Result<ReactorHandle> {
    let me = node.id();
    let metrics = ReactorMetrics::default();
    let reactor = Reactor::new(
        node,
        listener,
        peers,
        stop,
        rcfg,
        Arc::clone(&metrics.inner),
    )?;
    let thread = std::thread::Builder::new()
        .name(format!("gp-reactor-{me}"))
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle { thread, metrics })
}

/// A whole replica cluster on loopback TCP, every node driven by a
/// reactor; [`SyncClient`]s and [`crate::client::ClientLoop`]s talk to
/// it.
pub struct ReactorCluster {
    /// Listen addresses of the replica nodes.
    pub addrs: HashMap<ProcessId, SocketAddr>,
    stop: Arc<AtomicBool>,
    nodes: Vec<ReactorHandle>,
    n: usize,
    n_groups: usize,
    router: Option<ShardRouter>,
}

impl ReactorCluster {
    /// Launch `cfg.n` single-group reactor nodes with in-memory storage.
    pub fn launch(
        cfg: Config,
        app_factory: impl Fn() -> Box<dyn App> + Send + Sync,
    ) -> io::Result<ReactorCluster> {
        Self::launch_sharded(cfg, 1, app_factory, None, ReactorConfig::default())
    }

    /// Launch a multi-group reactor cluster with in-memory storage.
    pub fn launch_sharded(
        cfg: Config,
        n_groups: usize,
        app_factory: impl Fn() -> Box<dyn App> + Send + Sync,
        router: Option<ShardRouter>,
        rcfg: ReactorConfig,
    ) -> io::Result<ReactorCluster> {
        Self::launch_with_storage(cfg, n_groups, app_factory, router, rcfg, |_| {
            (0..n_groups)
                .map(|_| Box::new(MemStorage::new()) as Box<dyn Storage>)
                .collect()
        })
    }

    /// Launch a *durable* reactor cluster: each node's groups share one
    /// write-ahead log, a [`FileStorage`] under `data_root/node-<id>`.
    /// Nodes whose directories hold prior state are recovered, not
    /// created fresh.
    pub fn launch_durable(
        cfg: Config,
        n_groups: usize,
        app_factory: impl Fn() -> Box<dyn App> + Send + Sync,
        router: Option<ShardRouter>,
        rcfg: ReactorConfig,
        data_root: impl AsRef<std::path::Path>,
        mode: SyncMode,
    ) -> io::Result<ReactorCluster> {
        let root = data_root.as_ref();
        Self::launch_on(cfg, n_groups, app_factory, router, rcfg, |id| {
            let dir = root.join(format!("node-{}", id.0));
            Ok(Box::new(FileStorage::open(dir, mode, n_groups)?))
        })
    }

    /// Launch with custom per-node storage (`storage_factory(id)` returns
    /// one [`Storage`] per group, group `g` at index `g`). Groups whose
    /// storage holds prior state are recovered rather than created fresh.
    pub fn launch_with_storage(
        cfg: Config,
        n_groups: usize,
        app_factory: impl Fn() -> Box<dyn App> + Send + Sync,
        router: Option<ShardRouter>,
        rcfg: ReactorConfig,
        storage_factory: impl Fn(ProcessId) -> Vec<Box<dyn Storage>>,
    ) -> io::Result<ReactorCluster> {
        Self::launch_on(cfg, n_groups, app_factory, router, rcfg, |id| {
            let storages = storage_factory(id);
            assert_eq!(storages.len(), n_groups, "one storage per group");
            Ok(Box::new(storages))
        })
    }

    /// Launch with each node's storage from `storage(id)`, one
    /// [`NodeStorage`] of `n_groups` groups.
    fn launch_on(
        cfg: Config,
        n_groups: usize,
        app_factory: impl Fn() -> Box<dyn App> + Send + Sync,
        router: Option<ShardRouter>,
        rcfg: ReactorConfig,
        storage: impl Fn(ProcessId) -> io::Result<Box<dyn NodeStorage>>,
    ) -> io::Result<ReactorCluster> {
        let n = cfg.n;
        let mut addrs = HashMap::new();
        let mut listeners = Vec::new();
        for i in 0..n {
            let id = ProcessId(i as u32);
            let listener = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
            addrs.insert(id, listener.local_addr()?);
            listeners.push((id, listener));
        }

        let stop = Arc::new(AtomicBool::new(false));
        let mut nodes = Vec::new();
        for (id, listener) in listeners {
            let node = Node::open(
                id,
                cfg.clone(),
                storage(id)?,
                &|_| app_factory(),
                0xace0 + u64::from(id.0),
                Time::ZERO,
            );
            nodes.push(spawn_reactor_node(
                node,
                listener,
                addrs.clone(),
                Arc::clone(&stop),
                rcfg,
            )?);
        }
        Ok(ReactorCluster {
            addrs,
            stop,
            nodes,
            n,
            n_groups,
            router,
        })
    }

    /// Number of consensus groups per node.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Live metrics of node `i`.
    #[must_use]
    pub fn metrics(&self, i: usize) -> ReactorMetrics {
        self.nodes[i].metrics()
    }

    /// Allocate a fresh client id ([`fresh_client_id`]).
    pub fn next_client_id(&self) -> ClientId {
        fresh_client_id()
    }

    /// Create a blocking client connected to the whole group.
    ///
    /// # Panics
    ///
    /// If the process cannot open one more epoll instance (out of file
    /// descriptors): the cluster's own nodes could not have started
    /// either.
    #[must_use]
    pub fn client(&self) -> SyncClient {
        let id = self.next_client_id();
        let core = ClientCore::new(id, self.n, Dur::from_millis(500))
            .with_groups(self.n_groups, self.router.clone());
        match SyncClient::new(core, self.addrs.clone()) {
            Ok(client) => client,
            Err(e) => panic!("a client's epoll instance: {e}"),
        }
    }

    /// Stop everything and join, returning each node's per-group replicas
    /// (`result[node][group]`).
    pub fn shutdown(self) -> Vec<Vec<Replica>> {
        self.stop.store(true, Ordering::Relaxed);
        self.nodes.into_iter().map(ReactorHandle::join).collect()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests drive the loop from blocking sockets
mod tests {
    use super::*;
    use crate::framing::MAX_FRAME;
    use crate::framing::{read_frame, write_frame};
    use crate::fstorage::FileStorage;
    use crate::wire::{encode_to_bytes, put_addr};
    use bytes::BytesMut;
    use gridpaxos_core::action::TimerKind;
    use gridpaxos_core::ballot::Ballot;
    use gridpaxos_core::client::ShardRouter;
    use gridpaxos_core::command::{Decree, DedupEntry};
    use gridpaxos_core::request::{Request, RequestId, RequestKind};
    use gridpaxos_core::service::NoopApp;
    use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState};
    use gridpaxos_core::types::{Instance, Seq};
    use gridpaxos_services::{KvOp, KvStore};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;

    fn noop_factory() -> Box<dyn App> {
        Box::new(NoopApp::new())
    }

    /// Shard on the first payload byte.
    fn byte_router() -> ShardRouter {
        ShardRouter::new(|req| req.op.first().map(|b| u64::from(*b)))
    }

    #[test]
    fn reactor_cluster_round_trips_writes_and_reads() {
        let cluster = ReactorCluster::launch(Config::cluster(3), noop_factory).expect("launch");
        let mut client = cluster.client();
        for seq in 0..5u8 {
            let body = client
                .call(RequestKind::Write, Bytes::copy_from_slice(&[seq]))
                .expect("write completes");
            assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        }
        let body = client
            .call(RequestKind::Read, Bytes::new())
            .expect("read completes");
        assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        let per_node = cluster.shutdown();
        assert_eq!(per_node.len(), 3);
        assert!(
            per_node.iter().any(|rs| rs[0].chosen_prefix().0 >= 5),
            "someone chose all five writes"
        );
    }

    #[test]
    fn sharded_reactor_cluster_serves_both_groups() {
        let cluster = ReactorCluster::launch_sharded(
            Config::cluster(3),
            2,
            noop_factory,
            Some(byte_router()),
            ReactorConfig::default(),
        )
        .expect("launch");
        let mut client = cluster.client();
        for key in [0u8, 1, 2, 3] {
            let body = client
                .call(RequestKind::Write, Bytes::copy_from_slice(&[key]))
                .expect("write completes");
            assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        }
        let per_node = cluster.shutdown();
        for g in 0..2 {
            assert!(
                per_node.iter().any(|rs| rs[g].chosen_prefix().0 >= 1),
                "group {g} chose nothing"
            );
        }
    }

    /// A one-replica reactor that is not running: tests call its steps.
    fn idle_reactor() -> (Reactor, ReactorMetrics, SocketAddr) {
        idle_reactor_on(Box::new(MemStorage::new()))
    }

    /// [`idle_reactor`] over `storage`.
    fn idle_reactor_on(storage: Box<dyn Storage>) -> (Reactor, ReactorMetrics, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let node = Node::open(
            ProcessId(0),
            Config::cluster(1),
            Box::new(vec![storage]),
            &|_| noop_factory(),
            1,
            Time::ZERO,
        );
        let metrics = ReactorMetrics::default();
        let r = Reactor::new(
            node,
            listener,
            HashMap::new(),
            Arc::new(AtomicBool::new(false)),
            ReactorConfig::default(),
            Arc::clone(&metrics.inner),
        )
        .expect("reactor");
        (r, metrics, addr)
    }

    /// The loop blocks for exactly the time to the next timer — a batch
    /// window 100 us out is a 100 us wait, not a millisecond — never while
    /// backlog remains, and never past the stop-flag cap.
    #[test]
    fn wait_is_the_time_to_the_next_timer_at_clock_resolution() {
        let (mut r, _, _) = idle_reactor();
        assert_eq!(r.wait(), MAX_WAIT, "no timer");
        r.timers
            .set(0, TimerKind::Heartbeat, r.now().0 + 1_000_000_000);
        assert_eq!(r.wait(), MAX_WAIT, "a timer past the cap");

        let before = r.now().0;
        let due = before + 100_000;
        r.timers.set(0, TimerKind::BatchWindow, due);
        let wait = r.wait();
        let after = r.now().0;
        assert!(wait <= Duration::from_nanos(due - before), "{wait:?}");
        assert!(
            wait >= Duration::from_nanos(due.saturating_sub(after)),
            "{wait:?}"
        );

        r.inbox.push_back((
            Addr::Replica(ProcessId(0)),
            Msg::CatchUpReq {
                have: Instance::ZERO,
                resume: None,
            },
        ));
        assert_eq!(r.wait(), Duration::ZERO, "backlog");
    }

    /// A frame the peer's decoder would reject is refused where it is
    /// made: counted, not queued, and the connection stays usable.
    #[test]
    fn oversize_frame_is_dropped_and_the_connection_kept() {
        let (mut r, metrics, addr) = idle_reactor();
        let _peer = TcpStream::connect(addr).expect("connect");
        let token = TOKEN_LISTENER + 1;
        while !r.net.conns.contains(token) {
            r.accept_ready();
        }
        let client = ClientId(9);
        r.net.conns.bind(Addr::Client(client), token);

        let reply = |len: usize| {
            Msg::Reply(Reply {
                id: RequestId::new(client, Seq(1)),
                leader: ProcessId(0),
                watermark: gridpaxos_core::types::Instance::ZERO,
                body: ReplyBody::Ok(Bytes::from(vec![0u8; len])),
            })
        };
        let to = Addr::Client(client);
        r.net
            .transmit(&mut vec![Out::One(to, reply(MAX_FRAME + 1))]);
        let stats = metrics.stats();
        assert_eq!((stats.frames_dropped, stats.msgs_out), (1, 0));
        assert!(r.net.conns.contains(token), "connection kept");

        r.net.transmit(&mut vec![Out::One(to, reply(8))]);
        let stats = metrics.stats();
        assert_eq!((stats.frames_dropped, stats.msgs_out), (1, 1));
    }

    /// Many virtual clients over ONE raw socket: requests from distinct
    /// client ids multiplex onto a single connection and every reply comes
    /// back over it.
    #[test]
    fn many_client_ids_multiplex_over_one_connection() {
        let cluster = ReactorCluster::launch(Config::cluster(3), noop_factory).expect("launch");
        // The raw burst below is sent once, and a replica without
        // leadership ignores client writes: let a retrying client see the
        // bootstrap election through first.
        cluster
            .client()
            .call(RequestKind::Write, Bytes::new())
            .expect("leader elected");
        // Dial only the bootstrap leader (replica 0) — the leader answers.
        let leader = cluster.addrs[&ProcessId(0)];
        let mut sock = TcpStream::connect(leader).expect("connect");
        sock.set_nodelay(true).ok();

        let base = cluster.next_client_id().0;
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &Addr::Client(ClientId(base)));
        let mut batch = Vec::new();
        write_frame(&mut batch, &hello).expect("hello");
        let n_virtual = 32u64;
        for v in 0..n_virtual {
            let req = Request::new(
                RequestId::new(ClientId(base + v), Seq(1)),
                RequestKind::Write,
                Bytes::copy_from_slice(&[v as u8]),
            );
            let frame = encode_to_bytes(&Msg::Request(req));
            write_frame(&mut batch, &frame).expect("frame");
        }
        sock.write_all(&batch).expect("send burst");

        let mut seen = std::collections::HashSet::new();
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        sock.set_read_timeout(Some(Duration::from_secs(10))).ok();
        while seen.len() < n_virtual as usize {
            let mut frame = read_frame(&mut reader)
                .expect("read reply")
                .expect("conn open");
            let msg = decode_msg(&mut frame).expect("decode");
            if let Msg::Reply(r) = msg {
                assert!(matches!(r.body, ReplyBody::Ok(_)), "got {:?}", r.body);
                seen.insert(r.id.client.0);
            }
        }
        assert_eq!(seen.len(), n_virtual as usize);
        cluster.shutdown();
    }

    /// A burst beyond the admission gate's high-water mark is answered
    /// with immediate `Busy` sheds, and the connection keeps working.
    #[test]
    fn overload_burst_is_shed_with_busy_replies() {
        let rcfg = ReactorConfig {
            admit_high: 4,
            admit_low: 0,
            ..ReactorConfig::default()
        };
        let cluster =
            ReactorCluster::launch_sharded(Config::cluster(3), 1, noop_factory, None, rcfg)
                .expect("launch");
        let leader = cluster.addrs[&ProcessId(0)];
        let mut sock = TcpStream::connect(leader).expect("connect");
        let base = cluster.next_client_id().0;
        let burst = 256u64;
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &Addr::Client(ClientId(base)));
        let mut batch = Vec::new();
        write_frame(&mut batch, &hello).expect("hello");
        sock.write_all(&batch).expect("send hello");
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));

        // This test talks to a single node, but a replica without
        // leadership silently ignores client writes (the protocol has
        // clients broadcast, so the leader's own copy answers). Retry a
        // probe write until node 0 answers it, so the burst below races
        // neither the bootstrap election nor a gate latched by it.
        let probe_client = ClientId(base + burst);
        sock.set_read_timeout(Some(Duration::from_millis(200))).ok();
        let mut warm = false;
        for _ in 0..100 {
            let req = Request::new(
                RequestId::new(probe_client, Seq(1)),
                RequestKind::Write,
                Bytes::new(),
            );
            let frame = encode_to_bytes(&Msg::Request(req));
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).expect("frame");
            sock.write_all(&wire).expect("send probe");
            match read_frame(&mut reader) {
                Ok(Some(mut f)) => {
                    if let Ok(Msg::Reply(r)) = decode_msg(&mut f) {
                        if r.id.client == probe_client && !r.body.is_busy() {
                            warm = true;
                            break;
                        }
                    }
                }
                Ok(None) => panic!("connection closed during warm-up"),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => panic!("warm-up read: {e}"),
            }
        }
        assert!(warm, "node 0 never answered the warm-up write");
        let shed_before = cluster.metrics(0).stats().busy_shed;

        let mut batch = Vec::new();
        for v in 0..burst {
            let req = Request::new(
                RequestId::new(ClientId(base + v), Seq(1)),
                RequestKind::Write,
                Bytes::copy_from_slice(&[v as u8]),
            );
            let frame = encode_to_bytes(&Msg::Request(req));
            write_frame(&mut batch, &frame).expect("frame");
        }
        sock.write_all(&batch).expect("send burst");

        let mut busy = 0u64;
        let mut ok = 0u64;
        sock.set_read_timeout(Some(Duration::from_secs(10))).ok();
        while busy + ok < burst {
            let mut frame = match read_frame(&mut reader) {
                Ok(f) => f.expect("conn open"),
                Err(e) => panic!("read reply after busy={busy} ok={ok}: {e}"),
            };
            if let Ok(Msg::Reply(r)) = decode_msg(&mut frame) {
                // Stray duplicate probe replies route here too; count
                // only the burst's clients.
                if r.id.client.0 < base + burst {
                    if r.body.is_busy() {
                        busy += 1;
                    } else {
                        ok += 1;
                    }
                }
            }
        }
        assert!(busy > 0, "a 256-burst past high-water=4 must shed");
        assert!(ok > 0, "admitted requests still complete");
        let shed = cluster.metrics(0).stats().busy_shed - shed_before;
        assert_eq!(shed, busy, "metric matches observed Busy replies");
        cluster.shutdown();
    }

    /// Durable reactor cluster, single-group and with four groups sharing
    /// each node's WAL: the flush barrier amortizes fsyncs (never more
    /// syncs than appended records), and a full stop/restart recovers
    /// every group's chosen prefix from disk (the reactor path preserves
    /// persist-before-send).
    #[test]
    fn durable_reactor_cluster_recovers_chosen_prefix() {
        for n_groups in [1, 4] {
            durable_cluster_recovers(n_groups);
        }
    }

    fn durable_cluster_recovers(n_groups: usize) {
        let root = std::env::temp_dir().join(format!(
            "gridpaxos-reactor-durable-{}-g{n_groups}",
            std::process::id(),
        ));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = Config::cluster(3);
        let launch = || {
            ReactorCluster::launch_durable(
                cfg.clone(),
                n_groups,
                noop_factory,
                Some(byte_router()),
                ReactorConfig::default(),
                &root,
                SyncMode::Batched,
            )
            .expect("launch durable")
        };
        let chosen_per_group = |per_node: &[Vec<Replica>]| -> Vec<_> {
            (0..n_groups)
                .map(|g| per_node.iter().map(|rs| rs[g].chosen_prefix()).max())
                .collect()
        };

        // The first launch keeps each node's WAL counters, to read while
        // the nodes own their logs.
        let meters = std::cell::RefCell::new(Vec::new());
        let rcfg = ReactorConfig::default();
        let router = Some(byte_router());
        let cluster =
            ReactorCluster::launch_on(cfg.clone(), n_groups, noop_factory, router, rcfg, |id| {
                let log = FileStorage::open(
                    root.join(format!("node-{}", id.0)),
                    SyncMode::Batched,
                    n_groups,
                )?;
                meters.borrow_mut().push(Arc::clone(&log.meter));
                Ok(Box::new(log))
            })
            .expect("launch durable");
        let mut client = cluster.client();
        for key in 0u8..8 {
            let body = client
                .call(RequestKind::Write, Bytes::copy_from_slice(&[key]))
                .expect("write completes");
            assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        }
        for (i, meter) in meters.into_inner().iter().enumerate() {
            let appends = meter.appends.load(Ordering::Relaxed);
            let syncs = meter.syncs.load(Ordering::Relaxed);
            assert!(appends > 0, "node {i} persisted nothing");
            assert!(
                syncs <= appends,
                "node {i}: more syncs ({syncs}) than appends ({appends})?"
            );
        }
        let first_chosen = chosen_per_group(&cluster.shutdown());
        // The byte router spreads keys 0..8 evenly: 8 / G writes per group.
        let per_group = 8 / n_groups as u64;
        assert!(
            first_chosen
                .iter()
                .all(|p| p.is_some_and(|p| p.0 >= per_group)),
            "every group chose its writes: {first_chosen:?}"
        );

        // Restart from the same directories: recovery must replay every
        // group's chosen prefix from the shared WAL.
        let recovered = chosen_per_group(&launch().shutdown());
        for (g, (got, want)) in recovered.iter().zip(&first_chosen).enumerate() {
            assert!(
                got >= want,
                "group {g}: recovered prefix {got:?} < pre-crash {want:?}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// A node's WAL with a hook on either side of the barrier: `stall`
    /// runs before a flush starts (a disk that takes its time), `synced`
    /// once the log is on the platter (a barrier returned, or compaction
    /// rewrote the log and synced it whole) and is shown what the log
    /// holds. Each chosen-prefix mark it writes goes to `marked` too, for
    /// a test thread to read while the node owns the log.
    struct HookedWal {
        inner: FileStorage,
        stall: Box<dyn FnMut() + Send>,
        synced: Box<dyn FnMut(&FileStorage) + Send>,
        marked: Arc<AtomicU64>,
    }

    impl Storage for HookedWal {
        fn save_promised(&mut self, b: Ballot) {
            self.inner.save_promised(b);
        }
        fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
            self.inner.save_accepted(i, b, d);
        }
        fn save_chosen_prefix(&mut self, upto: Instance) {
            self.inner.save_chosen_prefix(upto);
            self.marked.store(upto.0, Ordering::SeqCst);
        }
        fn truncate_upto(&mut self, upto: Instance) {
            self.inner.truncate_upto(upto);
            (self.synced)(&self.inner);
        }
        fn load(&self) -> DurableState {
            self.inner.load()
        }
        fn flush(&mut self) {
            (self.stall)();
            self.inner.flush();
            (self.synced)(&self.inner);
        }
        fn is_dirty(&self) -> bool {
            self.inner.is_dirty()
        }
        fn write_count(&self) -> u64 {
            self.inner.write_count()
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

    /// Power loss on a durable cluster, right after the last reply: every
    /// node keeps of its WAL what its last barrier covered — each notes
    /// how long `wal.log` was whenever it was synced, until the power is
    /// cut, and cutting the logs back to those lengths is the cluster
    /// after the loss. The leader's barrier for a decree is over before it
    /// handles the `Accepted` that commits it, and none follows the
    /// commit, so its log ends with the accept record of write 8 and the
    /// chosen-prefix mark of write 7: it recovers one instance short,
    /// relearns the decree through the election, and no acknowledged
    /// write is missing.
    ///
    /// Mutation that must fail this test: make `save_accepted` lazy like
    /// the mark (`Stable::write` → a path that raises no barrier). No
    /// barrier follows the election then, the cut logs hold promises
    /// only, and all eight acknowledged writes are gone.
    #[test]
    fn durable_reactor_cluster_survives_wal_tail_loss() {
        let root = std::env::temp_dir().join(format!(
            "gridpaxos-reactor-tail-loss-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        // No suspicion during the test: an election's promise barrier
        // would sweep the last mark onto the platter after all.
        let mut cfg = Config::cluster(3);
        cfg.suspect_timeout = Dur::from_secs(30);
        let node_dir = |i: u32| root.join(format!("node-{i}"));
        let power_cut = Arc::new(AtomicBool::new(false));
        let synced: Vec<Arc<AtomicU64>> = (0..cfg.n).map(|_| Arc::default()).collect();

        let cluster = ReactorCluster::launch_with_storage(
            cfg.clone(),
            1,
            noop_factory,
            None,
            ReactorConfig::default(),
            |id| {
                let inner =
                    FileStorage::open(node_dir(id.0), SyncMode::Batched, 1).expect("open WAL");
                let wal = node_dir(id.0).join("wal.log");
                let synced_len = Arc::clone(&synced[id.0 as usize]);
                let power_cut = Arc::clone(&power_cut);
                vec![Box::new(HookedWal {
                    inner,
                    stall: Box::new(|| {}),
                    synced: Box::new(move |_| {
                        if !power_cut.load(Ordering::SeqCst) {
                            let len = std::fs::metadata(&wal).expect("wal.log").len();
                            synced_len.store(len, Ordering::SeqCst);
                        }
                    }),
                    marked: Arc::default(),
                })]
            },
        )
        .expect("launch");
        let mut client = cluster.client();
        for key in 0u8..8 {
            let body = client
                .call(RequestKind::Write, Bytes::copy_from_slice(&[key]))
                .expect("write completes");
            assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        }
        power_cut.store(true, Ordering::SeqCst);
        let stopped = cluster.shutdown();
        assert_eq!(stopped[0][0].chosen_prefix(), Instance(8));
        for (i, len) in synced.iter().enumerate() {
            std::fs::OpenOptions::new()
                .write(true)
                .open(node_dir(i as u32).join("wal.log"))
                .and_then(|f| f.set_len(len.load(Ordering::SeqCst)))
                .expect("cut wal.log");
        }

        let on_disk = |i: u32| {
            FileStorage::open(node_dir(i), SyncMode::Never, 1)
                .expect("reopen")
                .load()
        };
        let leader = on_disk(0);
        assert_eq!(leader.chosen_prefix, Instance(7), "one instance short");
        assert!(leader.accepted.contains_key(&Instance(8)));
        let holders = (0..cfg.n as u32)
            .filter(|i| on_disk(*i).accepted.contains_key(&Instance(8)))
            .count();
        assert!(holders >= cfg.majority(), "write 8 is on {holders} disks");

        let cluster = ReactorCluster::launch_durable(
            cfg.clone(),
            1,
            noop_factory,
            None,
            ReactorConfig::default(),
            &root,
            SyncMode::Batched,
        )
        .expect("relaunch");
        let body = cluster
            .client()
            .call(RequestKind::Write, Bytes::from_static(&[8]))
            .expect("write after recovery");
        assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        let recovered = cluster.shutdown();
        let writes_applied = |r: &Replica| {
            let snap = r.service_snapshot();
            u64::from_le_bytes(snap[..8].try_into().expect("NoopApp state"))
        };
        let leader = &recovered[0][0];
        assert_eq!(leader.chosen_prefix(), Instance(9));
        assert_eq!(writes_applied(leader), 9, "8 acknowledged writes and 1 new");
        for rs in &recovered {
            assert_eq!(
                writes_applied(&rs[0]),
                rs[0].chosen_prefix().0,
                "a replica's state is its prefix of the same nine writes"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// The leader's sync runs beside the followers' round trip, and the
    /// test sees it rather than timing it: while the leader's disk stalls
    /// inside the barrier that covers write 2, a follower's log already
    /// holds that decree's accept record, synced — the `Accept` left
    /// before the barrier. Nothing else did: the leader has framed two
    /// messages (the `Accept`, once per follower) and the client's socket
    /// stays silent until the disk is let go.
    ///
    /// Mutation that must fail this test: `Node::release` running the
    /// barrier before the ahead list — no follower ever sees the `Accept`.
    #[test]
    fn accept_leaves_while_the_leaders_barrier_is_still_running() {
        let root = std::env::temp_dir().join(format!(
            "gridpaxos-reactor-accept-ahead-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        // No heartbeat and no suspicion inside the window the test counts
        // the leader's frames in.
        let mut cfg = Config::cluster(3);
        cfg.suspect_timeout = Dur::from_secs(30);
        cfg.heartbeat_interval = Dur::from_secs(30);
        let stalling = Arc::new(AtomicBool::new(false));
        let leader_stalled = Arc::new(AtomicBool::new(false));
        let followers_holding = Arc::new(AtomicU64::new(0));
        let cluster = ReactorCluster::launch_with_storage(
            cfg,
            1,
            noop_factory,
            None,
            ReactorConfig::default(),
            |id| {
                let dir = root.join(format!("node-{}", id.0));
                let inner = FileStorage::open(dir, SyncMode::Batched, 1).expect("open WAL");
                let (stalling, leader_stalled) =
                    (Arc::clone(&stalling), Arc::clone(&leader_stalled));
                let holding = Arc::clone(&followers_holding);
                let leader = id == ProcessId(0);
                let mut counted = false;
                vec![Box::new(HookedWal {
                    inner,
                    stall: Box::new(move || {
                        if leader && stalling.load(Ordering::SeqCst) {
                            leader_stalled.store(true, Ordering::SeqCst);
                            while stalling.load(Ordering::SeqCst) {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }),
                    synced: Box::new(move |wal| {
                        if !leader && !counted && wal.load().accepted.contains_key(&Instance(2)) {
                            counted = true;
                            holding.fetch_add(1, Ordering::SeqCst);
                        }
                    }),
                    marked: Arc::default(),
                })]
            },
        )
        .expect("launch");
        let body = cluster
            .client()
            .call(RequestKind::Write, Bytes::new())
            .expect("first write");
        assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        let framed_before = cluster.metrics(0).stats().msgs_out;

        stalling.store(true, Ordering::SeqCst);
        let id = RequestId::new(cluster.next_client_id(), Seq(1));
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &Addr::Client(id.client));
        let mut frames = Vec::new();
        write_frame(&mut frames, &hello).expect("hello");
        let write = Msg::Request(Request::new(id, RequestKind::Write, Bytes::new()));
        write_frame(&mut frames, &encode_to_bytes(&write)).expect("frame");
        let mut sock = TcpStream::connect(cluster.addrs[&ProcessId(0)]).expect("connect");
        sock.write_all(&frames).expect("send");

        let deadline = Instant::now() + Duration::from_secs(10);
        while followers_holding.load(Ordering::SeqCst) == 0 {
            assert!(
                Instant::now() < deadline,
                "no follower synced the Accept while the leader's barrier ran"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        wait_until("the leader inside its barrier", || {
            leader_stalled.load(Ordering::SeqCst)
        });
        assert_eq!(
            cluster.metrics(0).stats().msgs_out - framed_before,
            2,
            "the Accept, to each follower, and nothing else"
        );
        sock.set_read_timeout(Some(Duration::from_millis(50))).ok();
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        match read_frame(&mut reader) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            other => panic!("the client heard {other:?} before the leader's barrier returned"),
        }

        stalling.store(false, Ordering::SeqCst);
        sock.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut frame = read_frame(&mut reader).expect("reply").expect("conn open");
        let msg = decode_msg(&mut frame).expect("decode");
        let Msg::Reply(r) = &msg else {
            panic!("got {msg:?}");
        };
        assert!(matches!(r.body, ReplyBody::Ok(_)), "got {:?}", r.body);
        let stopped = cluster.shutdown();
        assert_eq!(stopped[0][0].chosen_prefix(), Instance(2));
        std::fs::remove_dir_all(&root).ok();
    }

    /// A cluster stopped while a decree is in flight — the followers'
    /// disks stall inside the barrier that covers its `Accept` — hands
    /// back replicas that agree: equal prefix, equal state. The leader
    /// executed the write ahead of consensus; [`Replica::stop`] takes
    /// that back, so its state is the one write everybody chose.
    ///
    /// Persist before send, on the loop that ships: a stalled follower has
    /// framed nothing since before the second write — its `Accepted` waits
    /// behind the barrier that covers the accept record.
    ///
    /// Mutation that must fail this test: `Node::release` transmitting
    /// the behind list before the barrier.
    #[test]
    fn cluster_stopped_with_a_decree_in_flight_hands_back_prefix_state() {
        let root = std::env::temp_dir().join(format!(
            "gridpaxos-reactor-stop-in-flight-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        // A stalled follower must not mistake the silence for a dead
        // leader, and no heartbeat moves a follower's frame count.
        let mut cfg = Config::cluster(3);
        cfg.suspect_timeout = Dur::from_secs(30);
        cfg.heartbeat_interval = Dur::from_secs(30);
        let stalling = Arc::new(AtomicBool::new(false));
        let stalled = Arc::new(AtomicU64::new(0));
        let synced_first = Arc::new(AtomicU64::new(0));
        let cluster = ReactorCluster::launch_with_storage(
            cfg,
            1,
            noop_factory,
            None,
            ReactorConfig::default(),
            |id| {
                let dir = root.join(format!("node-{}", id.0));
                let inner = FileStorage::open(dir, SyncMode::Batched, 1).expect("open WAL");
                let (stalling, stalled) = (Arc::clone(&stalling), Arc::clone(&stalled));
                let synced_first = Arc::clone(&synced_first);
                let follower = id != ProcessId(0);
                let mut counted = false;
                vec![Box::new(HookedWal {
                    inner,
                    stall: Box::new(move || {
                        if follower && stalling.load(Ordering::SeqCst) {
                            stalled.fetch_add(1, Ordering::SeqCst);
                            while stalling.load(Ordering::SeqCst) {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }),
                    synced: Box::new(move |wal| {
                        if follower && !counted && wal.load().accepted.contains_key(&Instance(1)) {
                            counted = true;
                            synced_first.fetch_add(1, Ordering::SeqCst);
                        }
                    }),
                    marked: Arc::default(),
                })]
            },
        )
        .expect("launch");
        let body = cluster
            .client()
            .call(RequestKind::Write, Bytes::new())
            .expect("first write");
        assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");

        // The first write is over at the followers once both have synced
        // its accept record and their frame counts hold still: the
        // `Accepted` is framed right after the barrier returns, on the
        // same thread, and with heartbeats off nothing follows it.
        let followers_out = || [1, 2].map(|i| cluster.metrics(i).stats().msgs_out);
        let deadline = Instant::now() + Duration::from_secs(10);
        while synced_first.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "followers never synced write 1");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut framed_before = followers_out();
        loop {
            std::thread::sleep(Duration::from_millis(50));
            let now = followers_out();
            if now == framed_before {
                break;
            }
            framed_before = now;
        }

        // A second write, sent to the leader and not waited for: both
        // followers stall in the barrier before their `Accepted`.
        stalling.store(true, Ordering::SeqCst);
        let id = RequestId::new(cluster.next_client_id(), Seq(1));
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &Addr::Client(id.client));
        let mut frames = Vec::new();
        write_frame(&mut frames, &hello).expect("hello");
        let write = Msg::Request(Request::new(id, RequestKind::Write, Bytes::new()));
        write_frame(&mut frames, &encode_to_bytes(&write)).expect("frame");
        let mut sock = TcpStream::connect(cluster.addrs[&ProcessId(0)]).expect("connect");
        sock.write_all(&frames).expect("send");
        let deadline = Instant::now() + Duration::from_secs(10);
        while stalled.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "followers never saw the Accept");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            followers_out(),
            framed_before,
            "a follower framed its Accepted before the barrier that covers it"
        );

        // The leader stops first: released earlier, the followers' votes
        // might still reach it.
        let ReactorCluster { stop, nodes, .. } = cluster;
        stop.store(true, Ordering::Relaxed);
        let mut nodes = nodes.into_iter();
        let leader = nodes.next().expect("node 0").join().remove(0);
        stalling.store(false, Ordering::SeqCst);
        assert!(leader.is_leader() && !leader.checker_view().quiescent);
        assert_eq!(leader.chosen_prefix(), Instance(1));
        for follower in nodes.map(|node| node.join().remove(0)) {
            assert_eq!(follower.chosen_prefix(), Instance(1));
            assert_eq!(follower.service_snapshot(), leader.service_snapshot());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// Garbage drops the connection, not the node: a frame that does not
    /// decode after a valid hello, and a length prefix past `MAX_FRAME`,
    /// each close the connection that carried it, and the node goes on
    /// serving a client's write and read.
    #[test]
    fn garbage_on_a_connection_closes_it_and_the_node_serves_on() {
        let cluster = ReactorCluster::launch(Config::cluster(3), noop_factory).expect("launch");
        let node = cluster.addrs[&ProcessId(0)];
        let closed = |mut sock: TcpStream, garbage: &[u8]| {
            sock.write_all(garbage).expect("send garbage");
            sock.set_read_timeout(Some(Duration::from_secs(10))).ok();
            let mut buf = [0u8; 64];
            match std::io::Read::read(&mut sock, &mut buf) {
                Ok(0) => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
                other => panic!("the node kept the connection: {other:?}"),
            }
        };

        let mut hello = BytesMut::new();
        put_addr(&mut hello, &Addr::Client(cluster.next_client_id()));
        let mut undecodable = Vec::new();
        write_frame(&mut undecodable, &hello).expect("hello");
        write_frame(&mut undecodable, &[0xff, 1, 2, 3]).expect("frame");
        closed(TcpStream::connect(node).expect("connect"), &undecodable);

        let oversize = (MAX_FRAME as u32 + 1).to_le_bytes();
        closed(TcpStream::connect(node).expect("connect"), &oversize);

        let mut client = cluster.client();
        let write = client.call(RequestKind::Write, Bytes::from_static(&[1]));
        assert!(matches!(write, Some(ReplyBody::Ok(_))), "write: {write:?}");
        let read = client.call(RequestKind::Read, Bytes::new());
        assert!(matches!(read, Some(ReplyBody::Ok(_))), "read: {read:?}");
        cluster.shutdown();
    }

    /// A call nobody answers gives up after 20 retry timeouts and leaves
    /// the client ready for the next one: against a stopped cluster's
    /// addresses, two calls and then a transaction each come back `None`.
    #[test]
    fn a_timed_out_call_leaves_the_client_ready_for_the_next() {
        let cluster = ReactorCluster::launch(Config::cluster(3), noop_factory).expect("launch");
        let (addrs, id) = (cluster.addrs.clone(), cluster.next_client_id());
        cluster.shutdown();
        let core = ClientCore::new(id, 3, Dur::from_millis(10));
        let mut client = SyncClient::new(core, addrs).expect("client");
        let started = Instant::now();
        assert!(client.call(RequestKind::Write, Bytes::new()).is_none());
        assert!(client.call(RequestKind::Write, Bytes::new()).is_none());
        let txn = gridpaxos_core::client::TxnScript::write_only(1);
        assert!(client.run_txn(txn).is_none());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "three 200 ms deadlines took {:?}",
            started.elapsed()
        );
    }

    fn kv_factory() -> Box<dyn App> {
        Box::new(KvStore::new())
    }

    fn put(k: &str, v: &str) -> Bytes {
        KvOp::Put(k.into(), v.into()).encode()
    }

    fn get(k: &str) -> Bytes {
        KvOp::Get(k.into()).encode()
    }

    /// A raw connection to `addr` that said hello as `client`, and a
    /// reader over it.
    fn raw_client(addr: SocketAddr, client: ClientId) -> (TcpStream, BufReader<TcpStream>) {
        let mut sock = TcpStream::connect(addr).expect("connect");
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &Addr::Client(client));
        let mut frame = Vec::new();
        write_frame(&mut frame, &hello).expect("hello");
        sock.write_all(&frame).expect("send hello");
        let reader = BufReader::new(sock.try_clone().expect("clone"));
        (sock, reader)
    }

    /// Send one request over a raw connection.
    fn send_request(sock: &mut TcpStream, req: Request) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_to_bytes(&Msg::Request(req))).expect("frame");
        sock.write_all(&frame).expect("send");
    }

    /// The next reply on a raw connection within `wait`, if one came.
    fn next_reply(
        sock: &TcpStream,
        reader: &mut BufReader<TcpStream>,
        wait: Duration,
    ) -> Option<Reply> {
        sock.set_read_timeout(Some(wait)).ok();
        match read_frame(reader) {
            Ok(Some(mut frame)) => match decode_msg(&mut frame) {
                Ok(Msg::Reply(r)) => Some(r),
                other => panic!("not a reply: {other:?}"),
            },
            Ok(None) => panic!("connection closed"),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                None
            }
            Err(e) => panic!("read: {e}"),
        }
    }

    /// Wait up to ten seconds for `done`.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A durable cluster of `cfg` serving `app`, each node's WAL under
    /// `root` behind a [`HookedWal`] whose `stall` is `stall(node)`, and
    /// the chosen prefix each node's WAL holds, in node order.
    fn stalling_cluster(
        cfg: Config,
        rcfg: ReactorConfig,
        app: fn() -> Box<dyn App>,
        root: &std::path::Path,
        stall: impl Fn(ProcessId) -> Box<dyn FnMut() + Send>,
    ) -> (ReactorCluster, Vec<Arc<AtomicU64>>) {
        let marks: Vec<Arc<AtomicU64>> = (0..cfg.n).map(|_| Arc::default()).collect();
        let cluster = ReactorCluster::launch_with_storage(cfg, 1, app, None, rcfg, |id| {
            let dir = root.join(format!("node-{}", id.0));
            let marked = Arc::clone(&marks[id.0 as usize]);
            vec![Box::new(HookedWal {
                inner: FileStorage::open(dir, SyncMode::Batched, 1).expect("open WAL"),
                stall: stall(id),
                synced: Box::new(|_| {}),
                marked,
            })]
        })
        .expect("launch");
        (cluster, marks)
    }

    /// A disk that, while `stalling`, counts itself in `stalled` and holds
    /// its barrier until let go.
    fn stall_while(
        stalling: &Arc<AtomicBool>,
        stalled: &Arc<AtomicU64>,
    ) -> Box<dyn FnMut() + Send> {
        let (stalling, stalled) = (Arc::clone(stalling), Arc::clone(stalled));
        Box::new(move || {
            if stalling.load(Ordering::SeqCst) {
                stalled.fetch_add(1, Ordering::SeqCst);
                while stalling.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })
    }

    /// Reads do not wait for the disk. With every disk stalled inside the
    /// barrier of a write to `a`, a read of `b` completes, and a read of
    /// `a` returns the old value: the leader answers from the state before
    /// the decree in flight, and every node's loop — its barrier on a pool
    /// thread — confirms. The write's reply arrives only after the
    /// barriers return.
    ///
    /// Mutations that must fail this test: the barrier run on the loop
    /// (no read completes while the disks stall), or `settle` executing a
    /// read only on a quiescent leader (the read waits for the commit).
    #[test]
    fn reads_complete_while_every_disk_is_inside_a_writes_barrier() {
        let root = std::env::temp_dir().join(format!(
            "gridpaxos-reactor-reads-beside-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = Config::cluster(3);
        cfg.suspect_timeout = Dur::from_secs(30);
        cfg.heartbeat_interval = Dur::from_secs(30);
        let stalling = Arc::new(AtomicBool::new(false));
        let stalled = Arc::new(AtomicU64::new(0));
        let (cluster, _) =
            stalling_cluster(cfg, ReactorConfig::default(), kv_factory, &root, |_| {
                stall_while(&stalling, &stalled)
            });
        let mut client = cluster.client();
        for (k, v) in [("a", "old"), ("b", "1")] {
            let body = client.call(RequestKind::Write, put(k, v));
            assert!(matches!(body, Some(ReplyBody::Ok(_))), "got {body:?}");
        }

        stalling.store(true, Ordering::SeqCst);
        let id = RequestId::new(cluster.next_client_id(), Seq(1));
        let (mut sock, mut reader) = raw_client(cluster.addrs[&ProcessId(0)], id.client);
        send_request(
            &mut sock,
            Request::new(id, RequestKind::Write, put("a", "new")),
        );
        wait_until("every disk inside the write's barrier", || {
            stalled.load(Ordering::SeqCst) == 3
        });

        let read = |client: &mut SyncClient, k: &str| client.call(RequestKind::Read, get(k));
        let ok = |v: &'static [u8]| Some(ReplyBody::Ok(Bytes::from_static(v)));
        assert_eq!(read(&mut client, "b"), ok(b"1"), "another key");
        assert_eq!(read(&mut client, "a"), ok(b"old"), "the written key");
        assert_eq!(stalled.load(Ordering::SeqCst), 3, "no barrier returned");
        let early = next_reply(&sock, &mut reader, Duration::from_millis(50));
        assert!(
            early.is_none(),
            "the write answered inside its barrier: {early:?}"
        );

        stalling.store(false, Ordering::SeqCst);
        let reply = next_reply(&sock, &mut reader, Duration::from_secs(10)).expect("write reply");
        assert_eq!(
            (reply.id, reply.body),
            (id, ReplyBody::Ok(Bytes::from_static(b"new")))
        );
        assert_eq!(read(&mut client, "a"), ok(b"new"), "after the commit");
        for i in 0..3 {
            assert!(
                cluster.metrics(i).stats().barriers_lent > 0,
                "node {i} lent none"
            );
        }
        cluster.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    /// ROADMAP item 3 (d), first half: a follower whose every sync takes
    /// 200 ms more — two orders of magnitude past a sync here — slows
    /// neither writes nor reads. The leader and the other follower form
    /// every majority: ten writes and ten reads take less time than five
    /// of the slow disk's syncs, where waiting for it would cost ten.
    #[test]
    fn a_follower_on_a_slow_disk_slows_neither_writes_nor_reads() {
        const SLOW: Duration = Duration::from_millis(200);
        let root = std::env::temp_dir().join(format!(
            "gridpaxos-reactor-slow-follower-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = Config::cluster(3);
        cfg.suspect_timeout = Dur::from_secs(2);
        let slow_syncs = Arc::new(AtomicU64::new(0));
        let (cluster, marks) =
            stalling_cluster(cfg, ReactorConfig::default(), kv_factory, &root, |id| {
                let slow_syncs = Arc::clone(&slow_syncs);
                Box::new(move || {
                    if id == ProcessId(2) {
                        slow_syncs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(SLOW);
                    }
                })
            });
        let mut client = cluster.client();
        let first = client.call(RequestKind::Write, put("k", "0"));
        assert!(matches!(first, Some(ReplyBody::Ok(_))), "got {first:?}");

        let started = Instant::now();
        for i in 1..=10 {
            let v = i.to_string();
            let wrote = client.call(RequestKind::Write, put("k", &v));
            assert!(matches!(wrote, Some(ReplyBody::Ok(_))), "got {wrote:?}");
            let read = client.call(RequestKind::Read, get("k"));
            assert_eq!(read, Some(ReplyBody::Ok(Bytes::from(v))));
        }
        let took = started.elapsed();
        assert!(took < SLOW * 5, "ten writes and reads took {took:?}");
        assert!(
            slow_syncs.load(Ordering::SeqCst) > 0,
            "the slow disk synced"
        );
        // The last read's majority may have been the leader and node 2,
        // and node 1 stop before it runs the last `Chosen`: wait for it.
        let last = marks[0].load(Ordering::SeqCst);
        wait_until("node 1 learned the last chosen decree", || {
            marks[1].load(Ordering::SeqCst) >= last
        });
        let nodes = cluster.shutdown();
        assert_eq!(nodes[0][0].chosen_prefix(), nodes[1][0].chosen_prefix());
        std::fs::remove_dir_all(&root).ok();
    }

    /// ROADMAP item 3 (d), second half: after the first write, every sync
    /// of the leader, node 0, takes 200 ms more. No timer fires while its
    /// barrier is away, so its heartbeats stop with its disk; a follower
    /// suspects it after one default 50 ms timeout and takes over. Ten
    /// writes take less time than five of the slow disk's syncs, and at
    /// the end another node leads, with every chosen decree the same on
    /// every node that knows it.
    #[test]
    fn a_leader_on_a_slow_disk_is_deposed_and_writes_go_on() {
        const SLOW: Duration = Duration::from_millis(200);
        let root = std::env::temp_dir().join(format!(
            "gridpaxos-reactor-slow-leader-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let slow = Arc::new(AtomicBool::new(false));
        let cfg = Config::cluster(3);
        let (cluster, _) =
            stalling_cluster(cfg, ReactorConfig::default(), kv_factory, &root, |id| {
                let slow = Arc::clone(&slow);
                Box::new(move || {
                    if id == ProcessId(0) && slow.load(Ordering::SeqCst) {
                        std::thread::sleep(SLOW);
                    }
                })
            });
        let mut client = cluster.client();
        let first = client.call(RequestKind::Write, put("k", "0"));
        assert!(matches!(first, Some(ReplyBody::Ok(_))), "got {first:?}");

        slow.store(true, Ordering::SeqCst);
        let started = Instant::now();
        for i in 1..=10 {
            let wrote = client.call(RequestKind::Write, put("k", &i.to_string()));
            assert!(matches!(wrote, Some(ReplyBody::Ok(_))), "got {wrote:?}");
        }
        let took = started.elapsed();
        assert!(took < SLOW * 5, "ten writes took {took:?}");
        let nodes = cluster.shutdown();
        assert!(
            nodes[1..].iter().any(|rs| rs[0].is_leader()),
            "node 0 was not deposed"
        );
        let chosen: Vec<HashMap<_, _>> = nodes
            .iter()
            .map(|rs| rs[0].chosen_digests().into_iter().collect())
            .collect();
        for (a, b) in chosen
            .iter()
            .flat_map(|a| chosen.iter().map(move |b| (a, b)))
        {
            for (i, digest) in a {
                assert!(b.get(i).is_none_or(|d| d == digest), "instance {i:?}");
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// The admission gate counts what waits behind a barrier. While the
    /// leader's disk stalls, 256 writes arrive one a millisecond: the
    /// first four are held, and with the held queue at the high-water
    /// mark the rest are shed with `Busy` at once. A gate that read the
    /// inbox alone would see it drained into the held queue every cycle
    /// and admit them all.
    #[test]
    fn a_burst_held_behind_a_stalled_barrier_is_still_shed() {
        let root = std::env::temp_dir().join(format!(
            "gridpaxos-reactor-gate-held-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = Config::cluster(3);
        cfg.suspect_timeout = Dur::from_secs(30);
        cfg.heartbeat_interval = Dur::from_secs(30);
        let rcfg = ReactorConfig {
            admit_high: 4,
            admit_low: 0,
            ..ReactorConfig::default()
        };
        let stalling = Arc::new(AtomicBool::new(false));
        let stalled = Arc::new(AtomicU64::new(0));
        let (cluster, _) = stalling_cluster(cfg, rcfg, noop_factory, &root, |id| {
            if id == ProcessId(0) {
                stall_while(&stalling, &stalled)
            } else {
                Box::new(|| {})
            }
        });
        let warm = cluster.client().call(RequestKind::Write, Bytes::new());
        assert!(matches!(warm, Some(ReplyBody::Ok(_))), "got {warm:?}");
        let shed_before = cluster.metrics(0).stats().busy_shed;

        stalling.store(true, Ordering::SeqCst);
        let base = cluster.next_client_id().0;
        let (mut sock, mut reader) = raw_client(cluster.addrs[&ProcessId(0)], ClientId(base));
        let write = |v: u64| {
            Request::new(
                RequestId::new(ClientId(base + v), Seq(1)),
                RequestKind::Write,
                Bytes::new(),
            )
        };
        send_request(&mut sock, write(0));
        wait_until("the leader inside its barrier", || {
            stalled.load(Ordering::SeqCst) == 1
        });
        let burst = 256u64;
        for v in 1..=burst {
            send_request(&mut sock, write(v));
            std::thread::sleep(Duration::from_millis(1));
        }
        let (mut busy, mut ok) = (0u64, 0u64);
        while let Some(r) = next_reply(&sock, &mut reader, Duration::from_millis(200)) {
            assert!(r.body.is_busy(), "answered inside the barrier: {r:?}");
            busy += 1;
        }
        stalling.store(false, Ordering::SeqCst);
        while busy + ok < burst + 1 {
            let r = next_reply(&sock, &mut reader, Duration::from_secs(10)).expect("a reply");
            if r.body.is_busy() {
                busy += 1;
            } else {
                ok += 1;
            }
        }
        assert!(
            busy >= burst - 8,
            "a burst held past high-water 4 must shed: {busy} shed"
        );
        assert!(ok > 0, "admitted requests still complete");
        let shed = cluster.metrics(0).stats().busy_shed - shed_before;
        assert_eq!(shed, busy, "metric matches observed Busy replies");
        cluster.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    /// A node on storage that is durable as written never has a barrier
    /// due, so it never lends its storage or opens the way to a barrier
    /// thread; a disk whose syncs cost does both, on its first write.
    #[test]
    fn an_in_memory_node_never_lends_its_storage() {
        // The election's promise, then a write: each release, and the
        // barrier it lent if it lent one.
        let write_through = |storage: Box<dyn Storage>| {
            let (mut r, metrics, _) = idle_reactor_on(storage);
            let now = r.now();
            r.node.start(now, &mut r.timer_ops);
            r.arm_timers();
            let id = RequestId::new(ClientId(7), Seq(1));
            let write = Request::new(id, RequestKind::Write, Bytes::new());
            for inbox in [None, Some((Addr::Client(id.client), Msg::Request(write)))] {
                r.inbox.extend(inbox);
                r.process_inbox();
                r.flush_and_transmit();
                r.barrier_back(true);
            }
            assert_eq!(r.node.group_mut(GroupId::ZERO).chosen_prefix(), Instance(1));
            (r.net.line.is_some(), metrics.stats().barriers_lent)
        };
        assert_eq!(write_through(Box::new(MemStorage::new())), (false, 0));
        let meter = Arc::default();
        let disk = MemStorage::modelled(meter, true);
        assert_eq!(write_through(Box::new(disk)), (true, 2));

        let cluster = ReactorCluster::launch(Config::cluster(3), noop_factory).expect("launch");
        let mut client = cluster.client();
        for _ in 0..5 {
            let body = client.call(RequestKind::Write, Bytes::new());
            assert!(matches!(body, Some(ReplyBody::Ok(_))), "got {body:?}");
        }
        let read = client.call(RequestKind::Read, Bytes::new());
        assert!(matches!(read, Some(ReplyBody::Ok(_))), "got {read:?}");
        for i in 0..3 {
            assert_eq!(cluster.metrics(i).stats().barriers_lent, 0, "node {i}");
        }
        cluster.shutdown();
    }
}
