//! One nonblocking, epoll-registered TCP connection: the steps the
//! reactor ([`crate::reactor`]) and the client loop ([`crate::client`])
//! both take on a socket.
//!
//! A dialed connection starts with a *hello* frame carrying the dialer's
//! protocol address; after that, frames are wire-encoded messages. What a
//! side does with a decoded frame, what it counts and when it stops
//! reading stay at its call sites.

use crate::backpressure::{FlushOutcome, SendQueue};
use crate::framing::{FrameDecoder, MAX_FRAME};
use crate::sys::{self, Epoll, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::put_addr;
use bytes::{Bytes, BytesMut};
use gridpaxos_core::types::Addr;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;

/// Size of a loop's socket read buffer: every read on the thread lands
/// there before the connection's decoder copies it out.
pub(crate) const READ_BUF: usize = 64 * 1024;

pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) decoder: FrameDecoder,
    pub(crate) outq: SendQueue,
    /// Protocol address of the peer: known at dial time, learned from the
    /// hello frame on accepted connections (None until then).
    pub(crate) peer: Option<Addr>,
    /// Nonblocking connect still in flight (outcome arrives as EPOLLOUT).
    pub(crate) connecting: bool,
    /// Interest mask currently registered with epoll.
    pub(crate) interest: u32,
    /// Read interest withdrawn because the send queue filled up.
    pub(crate) read_suspended: bool,
    /// Already queued for a socket write in this cycle's dirty list.
    pub(crate) flush_pending: bool,
}

/// Length-prefix `body` into an owned frame ready for a send queue.
pub(crate) fn frame_bytes(body: &[u8]) -> Bytes {
    debug_assert!(body.len() <= MAX_FRAME);
    let mut v = Vec::with_capacity(4 + body.len());
    v.extend_from_slice(&(body.len() as u32).to_le_bytes());
    v.extend_from_slice(body);
    Bytes::from(v)
}

/// Outcome of one nonblocking read attempt.
pub(crate) enum ReadStep {
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
    pub(crate) fn new(
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

    /// Open a nonblocking connection to `peer` at `sock`, registered with
    /// `epoll` under `token`, queueing the hello frame for `me` so it is
    /// the first thing on the wire once the connect lands.
    pub(crate) fn dial(
        epoll: &Epoll,
        token: u64,
        sock: SocketAddr,
        me: Addr,
        peer: Addr,
        cap: usize,
    ) -> Option<Conn> {
        let (stream, done) = sys::connect_nonblocking(sock).ok()?;
        stream.set_nodelay(true).ok();
        let fd = stream.as_raw_fd();
        // EPOLLOUT from the start: it signals connect completion and then
        // drains the hello.
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP;
        epoll.add(fd, interest, token).ok()?;
        let mut hello = BytesMut::new();
        put_addr(&mut hello, &me);
        let mut conn = Conn::new(stream, Some(peer), !done, interest, cap);
        conn.outq.push(frame_bytes(&hello));
        Some(conn)
    }

    /// EPOLLOUT on a connect still in flight: learn its outcome.
    pub(crate) fn finish_connect(&mut self) -> io::Result<()> {
        if self.connecting {
            sys::take_socket_error(self.stream.as_raw_fd())?;
            self.connecting = false;
        }
        Ok(())
    }

    /// Read once into `buf` (retrying `EINTR`) and hand what came to the
    /// decoder.
    pub(crate) fn read_step(&mut self, buf: &mut [u8]) -> ReadStep {
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

    /// Write the queued bytes to the socket, as much as it takes; `true`
    /// when some remain (`EWOULDBLOCK`).
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        let outcome = self.outq.flush_into(&mut self.stream)?;
        Ok(outcome == FlushOutcome::Blocked)
    }

    /// Settle the epoll interest after a flush: `EPOLLOUT` iff bytes
    /// remain queued, `EPOLLIN` unless reads are suspended.
    pub(crate) fn settle_interest(
        &mut self,
        epoll: &Epoll,
        token: u64,
        blocked: bool,
    ) -> io::Result<()> {
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

    /// Take the socket out of `epoll`'s interest set.
    pub(crate) fn deregister(&self, epoll: &Epoll) {
        let _ = epoll.delete(self.stream.as_raw_fd());
    }
}
