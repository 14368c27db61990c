//! Single-threaded epoll reactor: nonblocking multiplexed I/O for one
//! node, with explicit backpressure.
//!
//! This is the only code in the crate that listens on a socket. Two OS
//! threads per connection drown a node in stacks and context switches at
//! thousands of closed-loop clients, long before it runs out of protocol
//! capacity (EXPERIMENTS.md E14), so a node is **one thread**: a
//! level-triggered `epoll` loop ([`crate::sys`]) owning the listener,
//! every connection, the [`MultiReplica`] with all `G` group replica
//! cores, and the timer table.
//!
//! ## I/O discipline
//!
//! Sockets are nonblocking in both directions. Reads drain until
//! `EWOULDBLOCK` into a per-connection [`FrameDecoder`] that tolerates
//! frames torn at any byte offset; writes go through a per-connection
//! byte-bounded [`SendQueue`] that resumes partially-written frames at
//! the exact offset. Outbound encoding reuses one node-wide scratch
//! buffer (`encode_with_scratch`), and every socket read lands in one
//! node-wide read buffer.
//!
//! ## Waiting
//!
//! The loop blocks in exactly one place, [`Epoll::wait_for`], for as long
//! as [`Reactor::wait`] says: until the next timer is due, at the clock's
//! resolution. The leader's batch window is 100 µs; counted in whole
//! milliseconds it would cost every loaded decree ten times that.
//!
//! ## Group commit: the flush barrier
//!
//! Every drain cycle buffers the cores' `Send`/`ToAllReplicas` actions in
//! an [`Outbox`], and [`Reactor::flush_and_transmit`] releases it: the
//! order of sends and barrier — `Accept`s to the kernel, one fsync
//! covering the whole batch, then everything else — is written once, in
//! [`gridpaxos_core::outbox`], for every drive loop there is. This one
//! is its [`Wire`] over sockets. The chosen-prefix mark makes no barrier
//! due; it becomes durable with the next decree's accept barrier (or the
//! flush on the way out of [`Reactor::run`]).
//!
//! ## The way out
//!
//! [`Reactor::run`] ends with [`Replica::stop`] on every group: that last
//! flush, and the leader's tentative execution of a decree still in
//! flight taken back. The replicas [`ReactorCluster::shutdown`] returns
//! hold the state of their chosen prefix, so "equal prefix ⇒ equal
//! `service_snapshot()`" needs no exemption for a node stopped
//! mid-decree. Storage keeps the accepted decree; a restart rebuilds the
//! same state from it.
//!
//! ## Backpressure
//!
//! Two mechanisms ([`crate::backpressure`]):
//!
//! * per-connection send queues are byte-capped; while a connection's
//!   queue is full its **read interest is suspended**, so a peer that
//!   stops reading our replies also stops feeding us work (quench
//!   propagates along the connection);
//! * a node-wide [`AdmissionGate`] over the inbox backlog sheds new
//!   client requests with an immediate `ReplyBody::Busy` above the
//!   high-water mark and re-admits below the low-water mark. Busy
//!   replies carry no durable state and never touch the protocol core,
//!   so they are enqueued outside the outbox; they still leave through
//!   the same flush-gated write path as everything else.
//!
//! ## Connection multiplexing
//!
//! Replies route by client address: every `Request` decoded from a
//! connection binds `Addr::Client(req.id.client)` to that connection, so
//! any number of *virtual* clients (see [`crate::mux`]) can share one
//! socket — the reactor never needs a connection per client.

use crate::backpressure::{AdmissionGate, FlushOutcome, SendQueue};
use crate::framing::{FrameDecoder, MAX_FRAME};
use crate::fstorage::{FlushCoordinator, SyncMode};
use crate::sys::{self, Epoll, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::tcp::{SyncClient, TcpNode};
use crate::timers::Timers;
use crate::wire::{decode_msg, encode_with_scratch, get_addr, put_addr};
use bytes::{Bytes, BytesMut};
use gridpaxos_core::action::Action;
use gridpaxos_core::client::{ClientCore, ShardRouter};
use gridpaxos_core::config::Config;
use gridpaxos_core::msg::Msg;
use gridpaxos_core::multi::MultiReplica;
use gridpaxos_core::outbox::{release, Out, Outbox, Wire};
use gridpaxos_core::replica::Replica;
use gridpaxos_core::request::{Reply, ReplyBody};
use gridpaxos_core::service::App;
use gridpaxos_core::storage::{MemStorage, Storage};
use gridpaxos_core::types::{Addr, ClientId, Dur, GroupId, ProcessId, Time};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum epoll wait per iteration so the stop flag is honored promptly.
const MAX_WAIT: Duration = Duration::from_millis(25);

/// Size of the node-wide socket read buffer.
const READ_BUF: usize = 64 * 1024;

/// Cap on messages drained through the cores per flush cycle, so one
/// barrier never covers an unbounded batch.
const MAX_DRAIN: usize = 128;

/// epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;

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
            send_queue_cap: 1 << 20,
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
        }
    }
}

fn bump(c: &AtomicU64, by: u64) {
    c.fetch_add(by, Ordering::Relaxed);
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    outq: SendQueue,
    /// Protocol address of the peer: known at dial time, learned from the
    /// hello frame on accepted connections (None until then).
    peer: Option<Addr>,
    /// Nonblocking connect still in flight (outcome arrives as EPOLLOUT).
    connecting: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Read interest withdrawn because the send queue filled up.
    read_suspended: bool,
    /// Already queued for a socket write in this cycle's dirty list.
    flush_pending: bool,
}

/// Length-prefix `body` into an owned frame ready for a send queue.
fn frame_bytes(body: &[u8]) -> Bytes {
    debug_assert!(body.len() <= MAX_FRAME);
    let mut v = Vec::with_capacity(4 + body.len());
    v.extend_from_slice(&(body.len() as u32).to_le_bytes());
    v.extend_from_slice(body);
    Bytes::from(v)
}

struct Reactor {
    /// The process: its groups are the cores, and it says which group a
    /// message addresses and what a group's message looks like outside.
    node: MultiReplica,
    me: ProcessId,
    n: usize,
    epoch: Instant,
    epoll: Epoll,
    listener: TcpListener,
    peer_addrs: HashMap<ProcessId, SocketAddr>,
    conns: HashMap<u64, Conn>,
    by_addr: HashMap<Addr, u64>,
    next_token: u64,
    /// Decoded messages awaiting a trip through the cores.
    inbox: VecDeque<(Addr, Msg)>,
    /// Core sends awaiting [`Reactor::flush_and_transmit`].
    outbox: Outbox,
    /// Connections with freshly queued bytes, awaiting a socket write.
    dirty: Vec<u64>,
    timers: Timers,
    gate: AdmissionGate,
    rcfg: ReactorConfig,
    scratch: BytesMut,
    /// Where every socket read lands before the connection's decoder
    /// copies it out ([`READ_BUF`] bytes, allocated once).
    read_buf: Vec<u8>,
    stop: Arc<AtomicBool>,
    metrics: Arc<MetricsInner>,
}

impl Reactor {
    /// `node` behind `listener`, not yet running.
    fn new(
        mut node: MultiReplica,
        listener: TcpListener,
        peer_addrs: HashMap<ProcessId, SocketAddr>,
        stop: Arc<AtomicBool>,
        rcfg: ReactorConfig,
        metrics: Arc<MetricsInner>,
    ) -> io::Result<Reactor> {
        Ok(Reactor {
            me: node.id(),
            n: node.groups_mut()[0].config().n,
            timers: Timers::new(node.n_groups()),
            node,
            epoch: Instant::now(),
            epoll: Epoll::new()?,
            listener,
            peer_addrs,
            conns: HashMap::new(),
            by_addr: HashMap::new(),
            next_token: TOKEN_LISTENER + 1,
            inbox: VecDeque::new(),
            outbox: Outbox::default(),
            dirty: Vec::new(),
            gate: AdmissionGate::new(rcfg.admit_high, rcfg.admit_low),
            rcfg,
            scratch: BytesMut::new(),
            read_buf: vec![0; READ_BUF],
            stop,
            metrics,
        })
    }

    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Interpret one handler invocation's actions for group `g`. Sends are
    /// buffered in the outbox; [`Reactor::flush_and_transmit`] lets them go.
    fn apply(&mut self, g: usize, actions: Vec<Action>) {
        let now = self.now();
        let group = GroupId(g as u32);
        let Some(core) = self.node.group(group) else {
            return;
        };
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    let out = Out::One(to, self.node.envelope(group, msg));
                    self.outbox.push(out, core);
                }
                Action::ToAllReplicas { msg } => {
                    let out = Out::All(self.node.envelope(group, msg));
                    self.outbox.push(out, core);
                }
                Action::SetTimer { kind, after } => self.timers.set(g, kind, now.0 + after.0),
                Action::CancelTimer { kind } => self.timers.cancel(g, kind),
            }
        }
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = self.now();
            let Some((g, kind)) = self.timers.pop_due(now.0) else {
                return;
            };
            let actions = self.node.groups_mut()[g].on_timer(kind, now);
            self.apply(g, actions);
        }
    }

    /// Release the cycle's outbox ([`release`]: `Accept`s, the
    /// group-commit barrier — one fsync per group with a barrier due,
    /// which a shared-WAL [`FlushCoordinator`] collapses to one per node —
    /// then everything else). Busy replies queued outside the outbox
    /// reach their sockets here too.
    fn flush_and_transmit(&mut self) {
        release(self);
        self.write_dirty_conns();
    }

    /// Write every connection with freshly queued bytes to its socket.
    fn write_dirty_conns(&mut self) {
        for token in std::mem::take(&mut self.dirty) {
            self.flush_conn(token);
        }
    }

    /// Encode `msg` (reusing the node-wide scratch buffer) into an owned
    /// frame. `None`, and a frame counted as dropped: the peer's decoder
    /// would reject the length prefix and drop the connection (a
    /// monolithic catch-up snapshot of a large state gets this big), so
    /// the frame is refused and the connection kept.
    fn frame(&mut self, msg: &Msg) -> Option<Bytes> {
        let body = encode_with_scratch(msg, &mut self.scratch);
        if body.len() > MAX_FRAME {
            bump(&self.metrics.frames_dropped, 1);
            return None;
        }
        Some(frame_bytes(body))
    }

    /// Queue `frame` on the connection serving `to`, dialing the peer
    /// replica first if no connection exists. Only called by
    /// [`Wire::transmit`] — on whichever side of the barrier [`release`]
    /// put the message.
    fn enqueue_to(&mut self, to: Addr, frame: Bytes) {
        let token = match self.by_addr.get(&to).copied() {
            Some(t) => t,
            None => match to {
                Addr::Replica(p) => match self.dial_peer(p) {
                    Some(t) => t,
                    None => {
                        bump(&self.metrics.unroutable, 1);
                        return;
                    }
                },
                // Clients dial us; a client with no live connection is
                // gone, and its retry logic will come back.
                Addr::Client(_) => {
                    bump(&self.metrics.unroutable, 1);
                    return;
                }
            },
        };
        self.enqueue_frame(token, frame);
    }

    /// Queue one ready-made frame on connection `token`.
    fn enqueue_frame(&mut self, token: u64, frame: Bytes) {
        let Some(c) = self.conns.get_mut(&token) else {
            bump(&self.metrics.unroutable, 1);
            return;
        };
        let len = frame.len() as u64;
        if c.outq.push(frame) {
            bump(&self.metrics.msgs_out, 1);
            bump(&self.metrics.bytes_out, len);
        } else {
            bump(&self.metrics.frames_dropped, 1);
        }
        if !c.flush_pending {
            c.flush_pending = true;
            self.dirty.push(token);
        }
    }

    /// Write a connection's queued bytes to the socket (as much as it
    /// takes), then settle its epoll interest: `EPOLLOUT` iff bytes remain
    /// queued, `EPOLLIN` unless backpressure has suspended reads.
    fn flush_conn(&mut self, token: u64) {
        let mut close = false;
        {
            let Some(c) = self.conns.get_mut(&token) else {
                return;
            };
            c.flush_pending = false;
            if c.connecting {
                // Can't write yet; EPOLLOUT is already registered and will
                // fire when the connect resolves.
                return;
            }
            match c.outq.flush_into(&mut c.stream) {
                Ok(outcome) => {
                    let blocked = outcome == FlushOutcome::Blocked;
                    if blocked {
                        bump(&self.metrics.partial_writes, 1);
                    }
                    // Backpressure propagation: a full queue suspends
                    // reads; a queue drained below half the cap resumes
                    // them.
                    if c.outq.is_full() && !c.read_suspended {
                        c.read_suspended = true;
                        bump(&self.metrics.reads_suspended, 1);
                    } else if c.read_suspended
                        && c.outq.queued_bytes() < self.rcfg.send_queue_cap / 2
                    {
                        c.read_suspended = false;
                    }
                    let mut want = EPOLLRDHUP;
                    if !c.read_suspended {
                        want |= EPOLLIN;
                    }
                    if blocked {
                        want |= EPOLLOUT;
                    }
                    if want != c.interest {
                        let fd = c.stream.as_raw_fd();
                        c.interest = want;
                        if self.epoll.modify(fd, want, token).is_err() {
                            close = true;
                        }
                    }
                }
                Err(_) => close = true,
            }
        }
        if close {
            self.close_conn(token);
        }
    }

    /// Open a nonblocking connection to replica `p`, queueing our hello
    /// frame so it is the first thing on the wire once the connect lands.
    fn dial_peer(&mut self, p: ProcessId) -> Option<u64> {
        let sock = *self.peer_addrs.get(&p)?;
        let (stream, done) = sys::connect_nonblocking(sock).ok()?;
        stream.set_nodelay(true).ok();
        let token = self.next_token;
        self.next_token += 1;
        let fd = stream.as_raw_fd();
        // EPOLLOUT from the start: it signals connect completion and then
        // drains the hello.
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP;
        self.epoll.add(fd, interest, token).ok()?;
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &Addr::Replica(self.me));
        let mut conn = Conn {
            stream,
            decoder: FrameDecoder::new(),
            outq: SendQueue::new(self.rcfg.send_queue_cap),
            peer: Some(Addr::Replica(p)),
            connecting: !done,
            interest,
            read_suspended: false,
            flush_pending: false,
        };
        conn.outq.push(frame_bytes(&hello));
        self.conns.insert(token, conn);
        self.by_addr.insert(Addr::Replica(p), token);
        Some(token)
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(c) = self.conns.remove(&token) {
            let _ = self.epoll.delete(c.stream.as_raw_fd());
        }
        self.by_addr.retain(|_, t| *t != token);
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    let fd = stream.as_raw_fd();
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self.epoll.add(fd, interest, token).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            outq: SendQueue::new(self.rcfg.send_queue_cap),
                            peer: None,
                            connecting: false,
                            interest,
                            read_suspended: false,
                            flush_pending: false,
                        },
                    );
                    bump(&self.metrics.accepted, 1);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// EPOLLOUT on `token`: resolve an in-flight connect, then drain the
    /// send queue.
    fn handle_writable(&mut self, token: u64) {
        let connecting = match self.conns.get_mut(&token) {
            Some(c) => c.connecting,
            None => return,
        };
        if connecting {
            let fd = match self.conns.get(&token) {
                Some(c) => c.stream.as_raw_fd(),
                None => return,
            };
            if sys::take_socket_error(fd).is_err() {
                self.close_conn(token);
                return;
            }
            if let Some(c) = self.conns.get_mut(&token) {
                c.connecting = false;
            }
        }
        self.flush_conn(token);
    }

    /// EPOLLIN on `token`: read until `EWOULDBLOCK`, decode every complete
    /// frame, admit or shed.
    fn handle_readable(&mut self, token: u64) {
        // The frames decoded below go through `&mut self`, so the buffer
        // steps out of `self` for the duration.
        let mut buf = std::mem::take(&mut self.read_buf);
        self.read_into(token, &mut buf);
        self.read_buf = buf;
    }

    fn read_into(&mut self, token: u64, buf: &mut [u8]) {
        /// Outcome of one nonblocking read attempt.
        enum ReadStep {
            Got(usize),
            Drained,
            Close,
        }
        loop {
            let step = {
                let Some(c) = self.conns.get_mut(&token) else {
                    return;
                };
                if c.read_suspended {
                    // Level-triggered epoll can still deliver a stale
                    // readable event from before the suspension took hold.
                    return;
                }
                loop {
                    match c.stream.read(buf) {
                        Ok(0) => break ReadStep::Close,
                        Ok(n) => {
                            c.decoder.extend(&buf[..n]);
                            bump(&self.metrics.bytes_in, n as u64);
                            break ReadStep::Got(n);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break ReadStep::Drained,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break ReadStep::Close,
                    }
                }
            };
            let read = match step {
                ReadStep::Got(n) => n,
                ReadStep::Drained => return,
                ReadStep::Close => {
                    self.close_conn(token);
                    return;
                }
            };
            // Decode everything the chunk completed before reading more,
            // so one fast sender cannot balloon the decode buffer.
            loop {
                let next = match self.conns.get_mut(&token) {
                    Some(c) => c.decoder.next_frame(),
                    None => return,
                };
                match next {
                    Ok(Some(frame)) => {
                        if !self.on_frame(token, frame) {
                            self.close_conn(token);
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Oversized/poisoned length prefix: the stream can
                        // never resynchronize.
                        self.close_conn(token);
                        return;
                    }
                }
            }
            if read < buf.len() {
                // Short read: the socket is drained (saves one syscall
                // that would return EWOULDBLOCK).
                return;
            }
        }
    }

    /// One complete frame off connection `token`. Returns `false` if the
    /// connection must be dropped (protocol violation).
    fn on_frame(&mut self, token: u64, mut frame: Bytes) -> bool {
        let hello_pending = match self.conns.get(&token) {
            Some(c) => c.peer.is_none(),
            None => return false,
        };
        if hello_pending {
            // First frame on an accepted connection: the peer's address.
            let Ok(addr) = get_addr(&mut frame) else {
                return false;
            };
            if let Some(c) = self.conns.get_mut(&token) {
                c.peer = Some(addr);
            }
            self.by_addr.insert(addr, token);
            return true;
        }
        let Ok(msg) = decode_msg(&mut frame) else {
            return false;
        };
        bump(&self.metrics.msgs_in, 1);

        // Client requests: bind the requesting client's address to this
        // connection (multiplexing — many virtual clients per socket), and
        // run the admission gate.
        // (If-let filter, not a `match`: non-request messages fall through
        // to normal inbox delivery below — nothing is dispatched here.)
        let req_meta = if let Msg::Request(r) = &msg {
            Some((None, r.id))
        } else if let Msg::Grouped { group, inner } = &msg {
            if let Msg::Request(r) = inner.as_ref() {
                Some((Some(*group), r.id))
            } else {
                None
            }
        } else {
            None
        };
        let from = if let Some((genv, rid)) = req_meta {
            let caddr = Addr::Client(rid.client);
            self.by_addr.insert(caddr, token);
            if self.gate.update(self.inbox.len()) {
                // Shed: immediate Busy, request never reaches the core, so
                // no durable state exists for the barrier to cover.
                self.gate.count_shed();
                bump(&self.metrics.busy_shed, 1);
                let reply = Msg::Reply(Reply {
                    id: rid,
                    leader: self.me,
                    watermark: gridpaxos_core::types::Instance::ZERO,
                    body: ReplyBody::Busy,
                });
                let reply = match genv {
                    Some(group) => Msg::Grouped {
                        group,
                        inner: Box::new(reply),
                    },
                    None => reply,
                };
                let frame = frame_bytes(encode_with_scratch(&reply, &mut self.scratch));
                self.enqueue_frame(token, frame);
                return true;
            }
            caddr
        } else {
            match self.conns.get(&token).and_then(|c| c.peer) {
                Some(p) => p,
                None => return false,
            }
        };
        self.inbox.push_back((from, msg));
        true
    }

    /// Route up to [`MAX_DRAIN`] queued messages through the cores.
    fn process_inbox(&mut self) {
        let mut drained = 0;
        while drained < MAX_DRAIN {
            let Some((from, msg)) = self.inbox.pop_front() else {
                break;
            };
            drained += 1;
            let Some((group, inner)) = self.node.route(msg) else {
                continue; // peer from a differently sized deployment
            };
            let g = group.0 as usize;
            let now = self.now();
            let actions = self.node.groups_mut()[g].on_message(from, inner, now);
            self.apply(g, actions);
        }
        // Keep the gate fed as the backlog shrinks so re-admission happens
        // even when no new request arrives to trigger an update.
        self.gate.update(self.inbox.len());
    }

    /// How long the loop may block: until the next timer is due, capped
    /// at [`MAX_WAIT`]; not at all while backlog remains.
    fn wait(&mut self) -> Duration {
        if !self.inbox.is_empty() {
            return Duration::ZERO;
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
                .epoll
                .add(self.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
                .is_err()
        {
            return self.node.into_groups();
        }
        for g in 0..self.node.n_groups() {
            let now = self.now();
            let actions = self.node.groups_mut()[g].on_start(now);
            self.apply(g, actions);
        }
        self.flush_and_transmit();

        let mut events: Vec<sys::Event> = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            events.clear();
            let timeout = self.wait();
            if self.epoll.wait_for(&mut events, timeout).is_err() {
                break;
            }
            for ev in &events {
                if ev.token == TOKEN_LISTENER {
                    self.accept_ready();
                    continue;
                }
                if ev.writable() {
                    self.handle_writable(ev.token);
                }
                if ev.readable() && self.conns.contains_key(&ev.token) {
                    self.handle_readable(ev.token);
                }
            }
            self.process_inbox();
            self.fire_due_timers();
            // One incremental-checkpoint chunk per group per cycle: state
            // serialization rides the drive loop in O(chunk) slices
            // instead of one stop-the-world O(state) pause.
            for core in self.node.groups_mut() {
                core.pump_checkpoint(1);
            }
            self.flush_and_transmit();
        }
        self.flush_and_transmit();
        // A clean stop leaves no chosen-prefix mark waiting for a barrier
        // that will never come, and no decree executed but not chosen in
        // the state it hands back.
        for core in self.node.groups_mut() {
            core.stop();
        }
        self.node.into_groups()
    }
}

impl Wire for Reactor {
    fn cores(&mut self) -> &mut [Replica] {
        self.node.groups_mut()
    }

    fn outbox(&mut self) -> &mut Outbox {
        &mut self.outbox
    }

    /// Frame `outs` onto connection send queues — a broadcast is encoded
    /// and framed once, and every follower's queue holds the same bytes —
    /// then write every connection with queued bytes to its socket.
    fn transmit(&mut self, outs: &mut Vec<Out>) {
        for out in outs.drain(..) {
            match out {
                Out::One(to, msg) => {
                    if let Some(frame) = self.frame(&msg) {
                        self.enqueue_to(to, frame);
                    }
                }
                Out::All(msg) => {
                    let Some(frame) = self.frame(&msg) else {
                        continue;
                    };
                    for i in 0..self.n {
                        let to = ProcessId(i as u32);
                        if to != self.me {
                            self.enqueue_to(Addr::Replica(to), frame.clone());
                        }
                    }
                }
            }
        }
        self.write_dirty_conns();
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
    node: MultiReplica,
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
/// reactor; [`SyncClient`]/[`TcpNode`] clients and
/// [`crate::mux::MuxSwarm`] talk to it.
pub struct ReactorCluster {
    /// Listen addresses of the replica nodes.
    pub addrs: HashMap<ProcessId, SocketAddr>,
    stop: Arc<AtomicBool>,
    nodes: Vec<ReactorHandle>,
    n: usize,
    n_groups: usize,
    router: Option<ShardRouter>,
    next_client: AtomicU64,
    coordinators: HashMap<ProcessId, FlushCoordinator>,
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
    /// write-ahead log under `data_root/node-<id>` via a
    /// [`FlushCoordinator`]. Nodes whose directories hold prior state are
    /// recovered, not created fresh.
    pub fn launch_durable(
        cfg: Config,
        n_groups: usize,
        app_factory: impl Fn() -> Box<dyn App> + Send + Sync,
        router: Option<ShardRouter>,
        rcfg: ReactorConfig,
        data_root: impl AsRef<std::path::Path>,
        mode: SyncMode,
    ) -> io::Result<ReactorCluster> {
        let root = data_root.as_ref().to_path_buf();
        let mut coordinators = HashMap::new();
        for i in 0..cfg.n {
            let id = ProcessId(i as u32);
            let coord =
                FlushCoordinator::open(root.join(format!("node-{}", id.0)), mode, n_groups)?;
            coordinators.insert(id, coord);
        }
        let mut cluster =
            Self::launch_with_storage(cfg, n_groups, app_factory, router, rcfg, |id| {
                coordinators[&id]
                    .storages()
                    .into_iter()
                    .map(|s| Box::new(s) as Box<dyn Storage>)
                    .collect()
            })?;
        cluster.coordinators = coordinators;
        Ok(cluster)
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
            let storages = storage_factory(id);
            assert_eq!(storages.len(), n_groups, "one storage per group");
            let node = MultiReplica::open(
                id,
                cfg.clone(),
                storages,
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
            // Unique across incarnations: replicas' dedup tables outlive
            // any single client.
            next_client: AtomicU64::new(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(1)
                    | 1,
            ),
            coordinators: HashMap::new(),
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

    /// The WAL coordinator for node `id` (durable launches only).
    #[must_use]
    pub fn coordinator(&self, id: ProcessId) -> Option<&FlushCoordinator> {
        self.coordinators.get(&id)
    }

    /// Allocate a fresh cluster-unique client id.
    pub fn next_client_id(&self) -> ClientId {
        ClientId(self.next_client.fetch_add(1, Ordering::Relaxed))
    }

    /// Create a blocking client connected to the whole group.
    #[must_use]
    pub fn client(&self) -> SyncClient {
        let id = self.next_client_id();
        let node = TcpNode::client(id, self.addrs.clone());
        let core = ClientCore::new(id, self.n, Dur::from_millis(500))
            .with_groups(self.n_groups, self.router.clone());
        SyncClient::new(core, node, self.n)
    }

    /// Stop everything and join, returning each node's per-group replicas
    /// (`result[node][group]`).
    pub fn shutdown(self) -> Vec<Vec<Replica>> {
        self.stop.store(true, Ordering::Relaxed);
        self.nodes.into_iter().map(ReactorHandle::join).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{read_frame, write_frame};
    use crate::fstorage::FileStorage;
    use bytes::Bytes;
    use gridpaxos_core::action::TimerKind;
    use gridpaxos_core::ballot::Ballot;
    use gridpaxos_core::client::ShardRouter;
    use gridpaxos_core::command::{Decree, DedupEntry, SnapshotBlob};
    use gridpaxos_core::request::{Request, RequestId, RequestKind};
    use gridpaxos_core::service::NoopApp;
    use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState};
    use gridpaxos_core::types::{Instance, Seq};
    use std::io::{BufReader, Write};

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
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let node = MultiReplica::open(
            ProcessId(0),
            Config::cluster(1),
            vec![Box::new(MemStorage::new())],
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
        while r.conns.is_empty() {
            r.accept_ready();
        }
        let token = TOKEN_LISTENER + 1;
        let client = ClientId(9);
        r.by_addr.insert(Addr::Client(client), token);

        let reply = |len: usize| {
            Msg::Reply(Reply {
                id: RequestId::new(client, Seq(1)),
                leader: ProcessId(0),
                watermark: gridpaxos_core::types::Instance::ZERO,
                body: ReplyBody::Ok(Bytes::from(vec![0u8; len])),
            })
        };
        assert!(r.frame(&reply(MAX_FRAME + 1)).is_none());
        let stats = metrics.stats();
        assert_eq!((stats.frames_dropped, stats.msgs_out), (1, 0));
        assert!(r.conns.contains_key(&token), "connection kept");

        let small = r.frame(&reply(8)).expect("fits");
        r.enqueue_to(Addr::Client(client), small);
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
        let mut scratch = BytesMut::new();
        for v in 0..n_virtual {
            let req = Request::new(
                RequestId::new(ClientId(base + v), Seq(1)),
                RequestKind::Write,
                Bytes::copy_from_slice(&[v as u8]),
            );
            let frame = encode_with_scratch(&Msg::Request(req), &mut scratch);
            write_frame(&mut batch, frame).expect("frame");
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
        let mut scratch = BytesMut::new();

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
            let frame = encode_with_scratch(&Msg::Request(req), &mut scratch);
            let mut wire = Vec::new();
            write_frame(&mut wire, frame).expect("frame");
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
            let frame = encode_with_scratch(&Msg::Request(req), &mut scratch);
            write_frame(&mut batch, frame).expect("frame");
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

        let cluster = launch();
        let mut client = cluster.client();
        for key in 0u8..8 {
            let body = client
                .call(RequestKind::Write, Bytes::copy_from_slice(&[key]))
                .expect("write completes");
            assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        }
        for i in 0..cfg.n {
            let coord = cluster.coordinator(ProcessId(i as u32)).expect("coord");
            assert!(coord.appends() > 0, "node {i} persisted nothing");
            assert!(
                coord.syncs() <= coord.appends(),
                "node {i}: more syncs ({}) than appends ({})?",
                coord.syncs(),
                coord.appends()
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

    /// A node's WAL handle with a hook on either side of the barrier:
    /// `stall` runs before a flush starts (a disk that takes its time),
    /// `synced` once the log is on the platter (a barrier returned, or
    /// compaction rewrote the log and synced it whole) and is shown what
    /// the log holds.
    struct HookedWal {
        inner: FileStorage,
        stall: Box<dyn FnMut() + Send>,
        synced: Box<dyn FnMut(&FileStorage) + Send>,
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
        }
        fn save_checkpoint(&mut self, snap: &SnapshotBlob) {
            self.inner.save_checkpoint(snap);
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
                let inner = FlushCoordinator::open(node_dir(id.0), SyncMode::Batched, 1)
                    .expect("open WAL")
                    .storage(0);
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
            FlushCoordinator::open(node_dir(i), SyncMode::Never, 1)
                .expect("reopen")
                .storage(0)
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
    /// Mutation that must fail this test: `outbox::release` running the
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
                let inner = FlushCoordinator::open(dir, SyncMode::Batched, 1)
                    .expect("open WAL")
                    .storage(0);
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
        write_frame(
            &mut frames,
            encode_with_scratch(&write, &mut BytesMut::new()),
        )
        .expect("frame");
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
        assert!(leader_stalled.load(Ordering::SeqCst), "inside its barrier");
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
        match decode_msg(&mut frame).expect("decode") {
            Msg::Reply(r) => assert!(matches!(r.body, ReplyBody::Ok(_)), "got {:?}", r.body),
            other => panic!("got {other:?}"),
        }
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
    /// Mutation that must fail this test: `outbox::release` transmitting
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
                let inner = FlushCoordinator::open(dir, SyncMode::Batched, 1)
                    .expect("open WAL")
                    .storage(0);
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
        write_frame(
            &mut frames,
            encode_with_scratch(&write, &mut BytesMut::new()),
        )
        .expect("frame");
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

    /// A call nobody answers gives up after 20 retry timeouts and leaves
    /// the client ready for the next one: against a stopped cluster's
    /// addresses, two calls and then a transaction each come back `None`.
    #[test]
    fn a_timed_out_call_leaves_the_client_ready_for_the_next() {
        let cluster = ReactorCluster::launch(Config::cluster(3), noop_factory).expect("launch");
        let (addrs, id) = (cluster.addrs.clone(), cluster.next_client_id());
        cluster.shutdown();
        let core = ClientCore::new(id, 3, Dur::from_millis(10));
        let mut client = SyncClient::new(core, TcpNode::client(id, addrs), 3);
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
}
