//! The connection table an epoll loop owns: every step the reactor
//! ([`crate::reactor`]) and the client loop ([`crate::client`]) take
//! above a single socket, written once.
//!
//! A [`ConnTable`] holds the loop's epoll instance, its open
//! connections by token, an address index over them, the dirty list of
//! connections with freshly queued bytes, and the one encode scratch and
//! the one read buffer every connection of the thread shares. Its steps:
//! send by address (dialing a replica that has no connection, framing a
//! message once however many queues it joins), write the dirty
//! connections, finish a connect, read and hand back frames, accept,
//! bind an address, close.
//!
//! A dialed connection starts with a *hello* frame carrying the table's
//! own protocol address; after that, frames are wire-encoded messages.
//! What a loop does with a frame, what it counts (from the [`Sent`] a
//! send returns and the hook a write runs) and when it stops reading
//! (the reactor's read suspension) stay in the loop.

#![deny(clippy::disallowed_methods)] // rule 5: no blocking call on an epoll loop

use crate::backpressure::{FlushOutcome, SendQueue};
use crate::framing::{FrameDecoder, MAX_FRAME};
use crate::sys::{self, Epoll, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{encode_with_scratch, put_addr};
use bytes::{Bytes, BytesMut};
use gridpaxos_core::msg::Msg;
use gridpaxos_core::types::{Addr, ProcessId};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;

/// Size of a loop's socket read buffer: every read on the thread lands
/// there before the connection's decoder copies it out.
const READ_BUF: usize = 64 * 1024;

/// Byte cap of a connection's send queue unless a loop sets its own
/// (exceeded by at most one frame).
pub(crate) const SEND_QUEUE_CAP: usize = 1 << 20;

/// The epoll token no connection gets: a loop's listener, if it has one.
pub(crate) const TOKEN_LISTENER: u64 = 0;

/// One nonblocking, epoll-registered TCP connection.
pub(crate) struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    pub(crate) outq: SendQueue,
    /// Protocol address of the peer: known at dial time, learned from the
    /// hello frame on accepted connections (None until then).
    peer: Option<Addr>,
    /// Nonblocking connect still in flight (outcome arrives as EPOLLOUT).
    connecting: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Read interest withdrawn because the send queue filled up.
    pub(crate) read_suspended: bool,
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

/// Outcome of one nonblocking read attempt.
enum ReadStep {
    /// This many bytes went into the decoder.
    Got(usize),
    /// `EWOULDBLOCK`: nothing more to read for now.
    Drained,
    /// The peer closed, or the socket failed.
    Close,
}

impl Conn {
    /// A connection registered with `interest` and an empty send queue
    /// holding at most `cap` bytes.
    fn new(
        stream: TcpStream,
        peer: Option<Addr>,
        connecting: bool,
        interest: u32,
        cap: usize,
    ) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            outq: SendQueue::new(cap),
            peer,
            connecting,
            interest,
            read_suspended: false,
            flush_pending: false,
        }
    }

    /// EPOLLOUT on a connect still in flight: learn its outcome.
    fn finish_connect(&mut self) -> io::Result<()> {
        if self.connecting {
            sys::take_socket_error(self.stream.as_raw_fd())?;
            self.connecting = false;
        }
        Ok(())
    }

    /// Read once into `buf` (retrying `EINTR`) and hand what came to the
    /// decoder.
    fn read_step(&mut self, buf: &mut [u8]) -> ReadStep {
        loop {
            match self.stream.read(buf) {
                Ok(0) => return ReadStep::Close,
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    return ReadStep::Got(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStep::Drained,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadStep::Close,
            }
        }
    }

    /// Settle the epoll interest after a flush: `EPOLLOUT` iff bytes
    /// remain queued, `EPOLLIN` unless reads are suspended.
    fn settle_interest(&mut self, epoll: &Epoll, token: u64, blocked: bool) -> io::Result<()> {
        let mut want = EPOLLRDHUP;
        if !self.read_suspended {
            want |= EPOLLIN;
        }
        if blocked {
            want |= EPOLLOUT;
        }
        if want != self.interest {
            self.interest = want;
            epoll.modify(self.stream.as_raw_fd(), want, token)?;
        }
        Ok(())
    }
}

/// What became of one message a [`ConnTable`] was asked to send.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sent {
    /// Its frame, this many bytes, joined the connection's send queue.
    Queued(usize),
    /// The connection's send queue was full.
    Full,
    /// Its body is past `MAX_FRAME`: the peer's decoder would reject the
    /// length prefix and drop the connection, so the frame is refused
    /// and the connection kept.
    TooBig,
    /// No connection to the address, and none could be dialed: a client
    /// with no live connection is gone (clients dial us, and their retry
    /// comes back), a replica refused or has no known address.
    Unroutable,
}

/// One epoll loop's connections and the steps it takes on them.
pub(crate) struct ConnTable {
    epoll: Epoll,
    conns: HashMap<u64, Conn>,
    /// Which connection serves an address: the replica it was dialed to,
    /// the address its hello named, the clients whose requests came over
    /// it.
    by_addr: HashMap<Addr, u64>,
    next_token: u64,
    /// Connections with freshly queued bytes, awaiting a socket write.
    dirty: Vec<u64>,
    scratch: BytesMut,
    /// Where every socket read lands before the connection's decoder
    /// copies it out ([`READ_BUF`] bytes, allocated once).
    read_buf: Vec<u8>,
    /// The address this loop's hello frames name.
    me: Addr,
    replicas: HashMap<ProcessId, SocketAddr>,
    cap: usize,
}

impl ConnTable {
    /// An empty table on a fresh epoll instance, naming `me` in its hello
    /// frames, dialing the replicas at `replicas` as it sends to them,
    /// with send queues of `cap` bytes. Fails only if no epoll instance
    /// can be had.
    pub(crate) fn new(
        me: Addr,
        replicas: HashMap<ProcessId, SocketAddr>,
        cap: usize,
    ) -> io::Result<ConnTable> {
        Ok(ConnTable {
            epoll: Epoll::new()?,
            conns: HashMap::new(),
            by_addr: HashMap::new(),
            next_token: TOKEN_LISTENER + 1,
            dirty: Vec::new(),
            scratch: BytesMut::new(),
            read_buf: vec![0; READ_BUF],
            me,
            replicas,
            cap,
        })
    }

    /// The loop's epoll instance, to wait on and to register a listener.
    pub(crate) fn epoll(&self) -> &Epoll {
        &self.epoll
    }

    /// Whether connection `token` is open.
    pub(crate) fn contains(&self, token: u64) -> bool {
        self.conns.contains_key(&token)
    }

    /// The protocol address of connection `token`'s peer: `None` on an
    /// accepted connection whose hello has not come, or no connection.
    pub(crate) fn peer(&self, token: u64) -> Option<Addr> {
        self.conns.get(&token).and_then(|c| c.peer)
    }

    /// Encode `msg` (reusing the scratch buffer) into an owned frame;
    /// `None` if its body is past `MAX_FRAME`, as an `Accept` carrying a
    /// `StateUpdate::Full` of a state past 64 MiB would be.
    fn frame(&mut self, msg: &Msg) -> Option<Bytes> {
        let body = encode_with_scratch(msg, &mut self.scratch);
        (body.len() <= MAX_FRAME).then(|| frame_bytes(body))
    }

    /// Queue `msg` on the connection serving `to`.
    pub(crate) fn send(&mut self, to: Addr, msg: &Msg) -> Sent {
        match self.frame(msg) {
            Some(frame) => self.push(to, frame),
            None => Sent::TooBig,
        }
    }

    /// Queue `msg` on the connection serving each address of `to`, encoded
    /// and framed once: every queue holds the same bytes. `sent` hears
    /// what happened at each address, or [`Sent::TooBig`] once.
    pub(crate) fn send_all(
        &mut self,
        msg: &Msg,
        to: impl IntoIterator<Item = Addr>,
        mut sent: impl FnMut(Sent),
    ) {
        let Some(frame) = self.frame(msg) else {
            sent(Sent::TooBig);
            return;
        };
        for addr in to {
            sent(self.push(addr, frame.clone()));
        }
    }

    /// Queue `frame` on the connection serving `to`, dialing the replica
    /// first if none does, and mark the connection dirty.
    fn push(&mut self, to: Addr, frame: Bytes) -> Sent {
        let token = match (self.by_addr.get(&to), to) {
            (Some(&token), _) => token,
            (None, Addr::Replica(p)) => match self.dial(p) {
                Some(token) => token,
                None => return Sent::Unroutable,
            },
            (None, Addr::Client(_)) => return Sent::Unroutable,
        };
        let Some(c) = self.conns.get_mut(&token) else {
            return Sent::Unroutable;
        };
        let len = frame.len();
        let sent = if c.outq.push(frame) {
            Sent::Queued(len)
        } else {
            Sent::Full
        };
        if !c.flush_pending {
            c.flush_pending = true;
            self.dirty.push(token);
        }
        sent
    }

    /// Open a nonblocking connection to replica `p`, queueing the hello
    /// frame so it is the first thing on the wire once the connect lands.
    fn dial(&mut self, p: ProcessId) -> Option<u64> {
        let sock = *self.replicas.get(&p)?;
        let (stream, done) = sys::connect_nonblocking(sock).ok()?;
        stream.set_nodelay(true).ok();
        let token = self.next_token;
        // EPOLLOUT from the start: it signals connect completion and then
        // drains the hello.
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP;
        self.epoll.add(stream.as_raw_fd(), interest, token).ok()?;
        self.next_token += 1;
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &self.me);
        let peer = Addr::Replica(p);
        let mut conn = Conn::new(stream, Some(peer), !done, interest, self.cap);
        conn.outq.push(frame_bytes(&hello));
        self.conns.insert(token, conn);
        self.by_addr.insert(peer, token);
        Some(token)
    }

    /// Write every dirty connection's queued bytes to its socket.
    /// `after` runs between the write and the interest settling, given
    /// the connection and whether bytes remain queued.
    pub(crate) fn write_dirty(&mut self, mut after: impl FnMut(&mut Conn, bool)) {
        for token in std::mem::take(&mut self.dirty) {
            self.write(token, &mut after);
        }
    }

    /// EPOLLOUT on `token`: resolve an in-flight connect, then write as
    /// [`ConnTable::write_dirty`] does.
    pub(crate) fn writable(&mut self, token: u64, mut after: impl FnMut(&mut Conn, bool)) {
        let Some(c) = self.conns.get_mut(&token) else {
            return;
        };
        if c.finish_connect().is_err() {
            self.close(token);
            return;
        }
        self.write(token, &mut after);
    }

    /// Write connection `token`'s queued bytes to the socket (as much as
    /// it takes), then settle its epoll interest; a socket error closes
    /// it.
    fn write(&mut self, token: u64, after: &mut impl FnMut(&mut Conn, bool)) {
        let Some(c) = self.conns.get_mut(&token) else {
            return;
        };
        c.flush_pending = false;
        if c.connecting {
            // Can't write yet; EPOLLOUT is already registered and fires
            // when the connect resolves.
            return;
        }
        let written = c.outq.flush_into(&mut c.stream).and_then(|outcome| {
            let blocked = outcome == FlushOutcome::Blocked;
            after(c, blocked);
            c.settle_interest(&self.epoll, token, blocked)
        });
        if written.is_err() {
            self.close(token);
        }
    }

    /// EPOLLIN on `token`: read until `EWOULDBLOCK`, handing each frame a
    /// chunk completed to `on_frame` before the next read, so one fast
    /// sender cannot balloon the decode buffer. EOF, a socket error, a
    /// bad length prefix or `on_frame` saying `false` closes the
    /// connection. Returns the bytes read.
    pub(crate) fn read(
        &mut self,
        token: u64,
        mut on_frame: impl FnMut(&mut ConnTable, Bytes) -> bool,
    ) -> usize {
        let mut total = 0;
        loop {
            let Some(c) = self.conns.get_mut(&token) else {
                return total;
            };
            if c.read_suspended {
                // Level-triggered epoll can still deliver a stale
                // readable event from before the suspension took hold.
                return total;
            }
            let read = match c.read_step(&mut self.read_buf) {
                ReadStep::Got(n) => n,
                ReadStep::Drained => return total,
                ReadStep::Close => {
                    self.close(token);
                    return total;
                }
            };
            total += read;
            loop {
                let Some(c) = self.conns.get_mut(&token) else {
                    return total;
                };
                match c.decoder.next_frame() {
                    Ok(Some(frame)) => {
                        if !on_frame(self, frame) {
                            self.close(token);
                            return total;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Oversized/poisoned length prefix: the stream can
                        // never resynchronize.
                        self.close(token);
                        return total;
                    }
                }
            }
            if read < self.read_buf.len() {
                // Short read: the socket is drained (saves one syscall
                // that would return EWOULDBLOCK).
                return total;
            }
        }
    }

    /// Register an accepted `stream` as a connection whose peer names
    /// itself in its hello; its token, or `None` if it cannot be made
    /// nonblocking or registered.
    pub(crate) fn accept(&mut self, stream: TcpStream) -> Option<u64> {
        stream.set_nonblocking(true).ok()?;
        stream.set_nodelay(true).ok();
        let token = self.next_token;
        self.next_token += 1;
        let interest = EPOLLIN | EPOLLRDHUP;
        self.epoll.add(stream.as_raw_fd(), interest, token).ok()?;
        let conn = Conn::new(stream, None, false, interest, self.cap);
        self.conns.insert(token, conn);
        Some(token)
    }

    /// Route `addr` over connection `token`: a hello names its sender
    /// (who becomes the connection's peer), a request its client.
    pub(crate) fn bind(&mut self, addr: Addr, token: u64) {
        if let Some(c) = self.conns.get_mut(&token) {
            c.peer.get_or_insert(addr);
        }
        self.by_addr.insert(addr, token);
    }

    /// Drop connection `token` and every address routed over it.
    pub(crate) fn close(&mut self, token: u64) {
        if let Some(c) = self.conns.remove(&token) {
            let _ = self.epoll.delete(c.stream.as_raw_fd());
        }
        self.by_addr.retain(|_, t| *t != token);
    }
}
