//! Dial-only TCP endpoint for clients ("The communication between service
//! replicas, and between clients and service replicas, uses TCP sockets").
//!
//! Replicas listen in the [`crate::reactor`]; this side only dials. A
//! connection starts with a *hello* frame carrying the dialer's protocol
//! address; after that, frames are wire-encoded messages. Replies travel
//! back over the client's own connection, so clients never need to listen.
//! Each connection gets one writer and one reader thread — blocking I/O
//! is fine for a handful of sockets, and [`crate::mux`] reuses the same
//! two loops for its load-driver sockets.

use crate::framing::{read_frame, write_frame};
use crate::node::{RecvResult, Transport};
use crate::wire::{decode_msg, encode_with_scratch, put_addr};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gridpaxos_core::msg::Msg;
use gridpaxos_core::sync::Mutex;
use gridpaxos_core::types::{Addr, ClientId, ProcessId};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

type Inbox = (Addr, Msg);

/// A TCP-backed client [`Transport`] endpoint.
pub struct TcpNode {
    local: Addr,
    inbox_rx: Receiver<Inbox>,
    inbox_tx: Sender<Inbox>,
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
        if let Some(tx) = self.conns.lock().get(&to) {
            return Some(tx.clone());
        }
        // Only replicas can be dialed (clients don't listen).
        let sock = match to {
            Addr::Replica(p) => *self.peers.get(&p)?,
            Addr::Client(_) => return None,
        };
        let stream = TcpStream::connect_timeout(&sock, Duration::from_millis(500)).ok()?;
        let tx = spawn_writer(stream.try_clone().ok()?, self.local).ok()?;
        self.conns.lock().insert(to, tx.clone());
        let inbox = self.inbox_tx.clone();
        let conns = Arc::clone(&self.conns);
        std::thread::Builder::new()
            .name("gp-conn-r".into())
            .spawn(move || {
                read_msgs(stream, |msg| inbox.send((to, msg)).is_ok());
                // Dropping the map's sender also ends the writer thread.
                conns.lock().remove(&to);
            })
            .ok()?;
        Some(tx)
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

impl Transport for TcpNode {
    fn send(&self, to: Addr, msg: Msg) {
        if let Some(tx) = self.writer_for(to) {
            let _ = tx.send(msg);
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> RecvResult {
        match self.inbox_rx.recv_timeout(timeout) {
            Ok((from, msg)) => RecvResult::Msg(from, msg),
            Err(RecvTimeoutError::Timeout) => RecvResult::Timeout,
            Err(RecvTimeoutError::Disconnected) => RecvResult::Closed,
        }
    }

    fn local_addr(&self) -> Addr {
        self.local
    }
}
