//! The client side of the wire ("The communication between service
//! replicas, and between clients and service replicas, uses TCP
//! sockets"): a dial-only [`TcpNode`] and the blocking [`SyncClient`]
//! that drives a [`ClientCore`] over it.
//!
//! Replicas listen in the [`crate::reactor`]; this side only dials. A
//! connection starts with a *hello* frame carrying the dialer's protocol
//! address; after that, frames are wire-encoded messages. Replies travel
//! back over the client's own connection, so clients never need to listen.
//! Each connection gets one writer and one reader thread — blocking I/O
//! is fine for a handful of sockets, and [`crate::mux`] reuses the same
//! two loops for its load-driver sockets.

use crate::framing::{read_frame, write_frame};
use crate::wire::{decode_msg, encode_with_scratch, put_addr};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gridpaxos_core::action::{Action, TimerKind};
use gridpaxos_core::client::{ClientCore, CompletedOp, TxnDriver, TxnOutcome, TxnScript};
use gridpaxos_core::msg::Msg;
use gridpaxos_core::request::{ReplyBody, RequestKind};
use gridpaxos_core::types::{Addr, ClientId, ProcessId, Time};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Longest a [`SyncClient`] sleeps in one receive, so a retry comes due
/// on time.
const MAX_WAIT: Duration = Duration::from_millis(25);

/// `m`'s guard; a holder that panicked left the map whole, so poison is
/// no reason to refuse it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A client's TCP endpoint: one lazily dialed connection per replica,
/// every reply funnelled into one inbox.
pub struct TcpNode {
    local: Addr,
    inbox_rx: Receiver<Msg>,
    inbox_tx: Sender<Msg>,
    /// Open outbound writers by replica address. The channel carries
    /// decoded messages: each connection's writer thread owns a reusable
    /// scratch buffer and serializes there, so the client thread pays no
    /// per-message encode allocation.
    conns: Arc<Mutex<HashMap<Addr, Sender<Msg>>>>,
    /// Listen addresses of the replicas.
    peers: HashMap<ProcessId, SocketAddr>,
}

impl TcpNode {
    /// Create a client endpoint that can dial the given replicas.
    #[must_use]
    pub fn client(id: ClientId, replicas: HashMap<ProcessId, SocketAddr>) -> TcpNode {
        let (inbox_tx, inbox_rx) = unbounded();
        TcpNode {
            local: Addr::Client(id),
            inbox_rx,
            inbox_tx,
            conns: Arc::new(Mutex::new(HashMap::new())),
            peers: replicas,
        }
    }

    /// Get (or lazily establish) the outbound writer for `to`.
    fn writer_for(&self, to: Addr) -> Option<Sender<Msg>> {
        if let Some(tx) = lock(&self.conns).get(&to) {
            return Some(tx.clone());
        }
        // Only replicas can be dialed (clients don't listen).
        let sock = match to {
            Addr::Replica(p) => *self.peers.get(&p)?,
            Addr::Client(_) => return None,
        };
        let stream = TcpStream::connect_timeout(&sock, Duration::from_millis(500)).ok()?;
        let tx = spawn_writer(stream.try_clone().ok()?, self.local).ok()?;
        lock(&self.conns).insert(to, tx.clone());
        let inbox = self.inbox_tx.clone();
        let conns = Arc::clone(&self.conns);
        std::thread::Builder::new()
            .name("gp-conn-r".into())
            .spawn(move || {
                read_msgs(stream, |msg| inbox.send(msg).is_ok());
                // Dropping the map's sender also ends the writer thread.
                lock(&conns).remove(&to);
            })
            .ok()?;
        Some(tx)
    }

    /// Queue `msg` for `to`. Best-effort: a replica that cannot be dialed
    /// drops it, and the client's retry takes care of recovery.
    fn send(&self, to: Addr, msg: Msg) {
        if let Some(tx) = self.writer_for(to) {
            let _ = tx.send(msg);
        }
    }

    /// The next message from any replica, waiting at most `timeout`. The
    /// node holds its own inbox sender, so the inbox never closes.
    fn recv_timeout(&self, timeout: Duration) -> Option<Msg> {
        self.inbox_rx.recv_timeout(timeout).ok()
    }
}

/// Start the writer thread of a dialed connection and return its queue:
/// the hello frame for `hello` goes first, then every queued message. All
/// messages queued at the moment the thread wakes are coalesced into one
/// batch buffer and leave in a single `write` syscall. The thread ends
/// when every sender is dropped or the socket fails.
///
/// Nagle is disabled: batching is done explicitly here, not by the kernel
/// delaying small frames.
pub(crate) fn spawn_writer(mut stream: TcpStream, hello: Addr) -> io::Result<Sender<Msg>> {
    stream.set_nodelay(true).ok();
    let (tx, rx): (Sender<Msg>, Receiver<Msg>) = unbounded();
    std::thread::Builder::new()
        .name("gp-conn-w".into())
        .spawn(move || {
            let mut scratch = BytesMut::new();
            put_addr(&mut scratch, &hello);
            let mut batch: Vec<u8> = Vec::with_capacity(4096);
            if write_frame(&mut batch, &scratch).is_err() || stream.write_all(&batch).is_err() {
                return;
            }
            batch.clear();
            while let Ok(msg) = rx.recv() {
                let frame = encode_with_scratch(&msg, &mut scratch);
                if write_frame(&mut batch, frame).is_err() {
                    return;
                }
                // Coalesce everything already queued (bounded so one slow
                // peer can't grow the batch without limit).
                let mut coalesced = 1;
                while coalesced < 256 {
                    let Ok(more) = rx.try_recv() else { break };
                    let frame = encode_with_scratch(&more, &mut scratch);
                    if write_frame(&mut batch, frame).is_err() {
                        return;
                    }
                    coalesced += 1;
                }
                if stream.write_all(&batch).is_err() {
                    return;
                }
                batch.clear();
                if batch.capacity() > 1 << 20 {
                    batch = Vec::with_capacity(4096); // don't hoard a burst's buffer
                }
            }
        })?;
    Ok(tx)
}

/// The reader loop of a dialed connection: hand every decoded message to
/// `on_msg` until the peer closes, a frame fails to decode (protocol
/// violation: drop the connection) or `on_msg` returns `false`.
pub(crate) fn read_msgs(stream: TcpStream, mut on_msg: impl FnMut(Msg) -> bool) {
    let mut r = BufReader::new(stream);
    while let Ok(Some(mut frame)) = read_frame(&mut r) {
        let Ok(msg) = decode_msg(&mut frame) else {
            return;
        };
        if !on_msg(msg) {
            return;
        }
    }
}

/// A blocking client handle: one outstanding request, automatic
/// retransmission, synchronous call interface. Real wall-clock time is
/// mapped onto the core's logical [`Time`] from a per-client epoch.
pub struct SyncClient {
    core: ClientCore,
    node: TcpNode,
    epoch: Instant,
    retry_deadline: Option<u64>,
    n: usize,
}

impl SyncClient {
    /// Wrap a client core and its endpoint. `n` is the replica count.
    pub fn new(core: ClientCore, node: TcpNode, n: usize) -> SyncClient {
        SyncClient {
            core,
            node,
            epoch: Instant::now(),
            retry_deadline: None,
            n,
        }
    }

    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_nanos() as u64)
    }

    fn apply(&mut self, actions: Vec<Action>) {
        let now = self.now();
        for a in actions {
            match a {
                Action::Send { to, msg } => self.node.send(to, msg),
                Action::ToAllReplicas { msg } => {
                    for i in 0..self.n {
                        self.node
                            .send(Addr::Replica(ProcessId(i as u32)), msg.clone());
                    }
                }
                Action::SetTimer {
                    kind: TimerKind::ClientRetry,
                    after,
                } => self.retry_deadline = Some(now.0 + after.0),
                Action::CancelTimer {
                    kind: TimerKind::ClientRetry,
                } => self.retry_deadline = None,
                _ => {}
            }
        }
    }

    /// Await the completion of the outstanding request, for at most 20 of
    /// the core's retry timeouts. A request that times out is dropped, so
    /// the next call starts clean.
    fn await_reply(&mut self) -> Option<CompletedOp> {
        let give_up = Instant::now() + Duration::from_nanos(self.core.retry_timeout().mul(20).0);
        loop {
            if Instant::now() > give_up {
                let actions = self.core.abandon();
                self.apply(actions);
                return None;
            }
            // Fire the retransmission timer if due.
            if let Some(due) = self.retry_deadline {
                if self.now().0 >= due {
                    self.retry_deadline = None;
                    let actions = self.core.on_timer(TimerKind::ClientRetry, self.now());
                    self.apply(actions);
                }
            }
            let wait = self
                .retry_deadline
                .map(|due| Duration::from_nanos(due.saturating_sub(self.now().0)))
                .unwrap_or(MAX_WAIT)
                .min(MAX_WAIT);
            if let Some(msg) = self.node.recv_timeout(wait) {
                let now = self.now();
                let (done, actions) = self.core.on_message(msg, now);
                self.apply(actions);
                if done.is_some() {
                    return done;
                }
            }
        }
    }

    /// Issue one request and block for its reply.
    pub fn call(&mut self, kind: RequestKind, payload: bytes::Bytes) -> Option<ReplyBody> {
        let now = self.now();
        let actions = self.core.submit_op(kind, payload, now);
        self.apply(actions);
        self.await_reply().map(|done| done.body)
    }

    /// Run a whole transaction and block until it commits or aborts.
    pub fn run_txn(&mut self, script: TxnScript) -> Option<TxnOutcome> {
        let txn = self.core.next_txn_id();
        let mut driver = TxnDriver::new(script, txn);
        loop {
            let now = self.now();
            let actions = driver.step(&mut self.core, now)?;
            self.apply(actions);
            let done = self.await_reply()?;
            if let Some(outcome) = driver.on_complete(&done) {
                return Some(outcome);
            }
        }
    }
}
