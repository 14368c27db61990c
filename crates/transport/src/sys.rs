//! Minimal raw `epoll` / socket syscall bindings for the reactor.
//!
//! The workspace vendors no `libc` crate, so the handful of calls the
//! reactor needs are declared directly against the C library that `std`
//! already links. Everything here is Linux/x86-64 ABI; the module is
//! compiled only on `target_os = "linux"` (gated in `lib.rs`).
//!
//! Only the thin, unavoidable layer lives here: fd registration and the
//! wait calls ([`Epoll`]), nonblocking connect initiation
//! ([`connect_nonblocking`]) and its completion check
//! ([`take_socket_error`]). Everything else (accept, read, write,
//! nonblocking mode) goes through `std`'s socket types, which expose
//! those safely.
//!
//! Two wait calls: [`Epoll::wait_for`] takes a `Duration` and blocks at
//! clock resolution (`epoll_pwait2`, Linux 5.11) — the reactor's, whose
//! timers (a 100 µs batch window) are shorter than a millisecond —
//! and [`Epoll::wait`] takes `epoll_wait`'s whole milliseconds, which is
//! also what `wait_for` rounds up to on a kernel without the newer call.

#![deny(clippy::disallowed_methods)] // rule 5: no blocking call on an epoll loop

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_long, c_void};
use std::os::unix::io::{FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------
// FFI surface (x86-64 Linux).
// ---------------------------------------------------------------------

/// One readiness record, as filled in by `epoll_wait`.
///
/// `packed` matters: on x86-64 Linux the kernel lays this struct out
/// without the 4 bytes of padding a naturally-aligned `u64` would get.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` (LP64: both fields are `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16, // network byte order
    sin_addr: u32, // network byte order
    sin_zero: [u8; 8],
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const SockAddrIn, len: u32) -> c_int;
    fn getsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut u32,
    ) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_ERROR: c_int = 4;
const EINPROGRESS: i32 = 115;
const EINTR: i32 = 4;
const ENOSYS: i32 = 38;
const EPERM: i32 = 1;

/// Most events one wait call reports. Level-triggered: whatever else is
/// ready is reported by the next call, which a reactor with work in hand
/// makes without blocking — so this bounds the array a call sets up, not
/// what a node can serve.
const MAX_EVENTS: usize = 128;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------
// Epoll instance.
// ---------------------------------------------------------------------

/// A readiness event delivered by [`Epoll::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The `token` the fd was registered with.
    pub token: u64,
    events: u32,
}

impl Event {
    /// The fd has bytes to read (or a pending accept), or the peer hung up
    /// (a read will then return 0/error, which is how the closure is
    /// observed).
    #[must_use]
    pub fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0
    }

    /// The fd can accept more outbound bytes (or a nonblocking connect
    /// finished, successfully or not).
    #[must_use]
    pub fn writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }
}

/// An owned `epoll` instance (level-triggered).
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
    /// Cleared for good the first time the kernel refuses `epoll_pwait2`;
    /// [`Epoll::wait_for`] then rounds up to [`Epoll::wait`]'s
    /// milliseconds. A hint that publishes no data, hence `Relaxed`.
    has_pwait2: AtomicBool,
}

impl Epoll {
    /// Create a new epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            fd,
            has_pwait2: AtomicBool::new(true),
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest mask / token for an already-registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Remove `fd` from the interest set.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: event pointer must be non-null on pre-2.6.9 kernels;
        // harmless on current ones.
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Run one wait syscall over a fresh event array, retrying
    /// transparently on `EINTR`, and append the ready set to `out`.
    fn collect(
        out: &mut Vec<Event>,
        mut sys_wait: impl FnMut(&mut [EpollEvent]) -> io::Result<c_int>,
    ) -> io::Result<()> {
        let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            match sys_wait(&mut buf) {
                Ok(n) => break n as usize,
                Err(e) if e.raw_os_error() == Some(EINTR) => {}
                Err(e) => return Err(e),
            }
        };
        out.extend(buf[..n].iter().map(|ev| Event {
            token: ev.data,
            events: ev.events,
        }));
        Ok(())
    }

    /// Wait up to `timeout_ms` (`-1` = forever, `0` = poll) and append the
    /// ready set to `out`. Retries transparently on `EINTR`.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        Self::collect(out, |buf| {
            // SAFETY: `buf` is a valid writable array of `buf.len()` records.
            cvt(unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) })
        })
    }

    /// Wait up to `timeout`, at the resolution of the clock rather than
    /// of a millisecond count, and append the ready set to `out`. One
    /// syscall, like [`Epoll::wait`]; on a kernel older than
    /// `epoll_pwait2` the first call finds that out and this and every
    /// later one round `timeout` up to whole milliseconds instead.
    pub fn wait_for(&self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        self.wait_for_with(out, timeout, |buf, ts| {
            // SAFETY: `buf` is a valid writable array of `buf.len()`
            // records, `ts` a valid timespec; a null sigmask leaves the
            // signal mask alone.
            cvt(unsafe {
                epoll_pwait2(
                    self.fd,
                    buf.as_mut_ptr(),
                    buf.len() as c_int,
                    ts,
                    std::ptr::null(),
                )
            })
        })
    }

    /// [`Epoll::wait_for`] with the precise syscall passed in, so a test
    /// can stand in for a kernel that lacks it.
    fn wait_for_with(
        &self,
        out: &mut Vec<Event>,
        timeout: Duration,
        mut pwait2: impl FnMut(&mut [EpollEvent], &Timespec) -> io::Result<c_int>,
    ) -> io::Result<()> {
        if self.has_pwait2.load(Ordering::Relaxed) {
            let ts = Timespec {
                tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
                tv_nsec: c_long::from(timeout.subsec_nanos()),
            };
            match Self::collect(out, |buf| pwait2(buf, &ts)) {
                // `ENOSYS` from a kernel before 5.11; `EPERM` from a
                // sandbox whose syscall filter predates the call (it is
                // not an error `epoll_pwait2` itself can return).
                Err(e) if matches!(e.raw_os_error(), Some(ENOSYS | EPERM)) => {
                    self.has_pwait2.store(false, Ordering::Relaxed);
                }
                done => return done,
            }
        }
        const NANOS_PER_MILLI: u128 = 1_000_000;
        let ms = timeout.as_nanos().div_ceil(NANOS_PER_MILLI);
        self.wait(out, i32::try_from(ms).unwrap_or(i32::MAX))
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

// ---------------------------------------------------------------------
// Nonblocking connect.
// ---------------------------------------------------------------------

/// Start a nonblocking TCP connect to `addr` (IPv4 only — the repo's
/// deployments bind loopback/LAN v4 addresses).
///
/// Returns the socket (already in nonblocking mode) plus `true` if the
/// connect completed synchronously (loopback typically does), `false` if
/// it is in flight — in which case the caller must watch for `EPOLLOUT`
/// and then check [`take_socket_error`] to learn the outcome.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<(TcpStream, bool)> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "reactor dialer supports IPv4 only",
        ));
    };
    // SAFETY: plain syscall, no pointers.
    let fd = cvt(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // Wrap immediately so the fd is closed on every early-return path.
    // SAFETY: `fd` is a fresh socket we own; TcpStream takes ownership.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };

    let sin = SockAddrIn {
        sin_family: AF_INET as u16,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from_ne_bytes(v4.ip().octets()),
        sin_zero: [0; 8],
    };
    // SAFETY: `sin` is a properly initialized sockaddr_in.
    let rc = unsafe { connect(fd, &sin, std::mem::size_of::<SockAddrIn>() as u32) };
    if rc == 0 {
        return Ok((stream, true));
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        return Ok((stream, false));
    }
    Err(err)
}

/// Fetch and clear the socket's pending error (`SO_ERROR`) — the outcome
/// of an in-flight nonblocking connect once `EPOLLOUT` fires.
pub fn take_socket_error(fd: RawFd) -> io::Result<()> {
    let mut err: c_int = 0;
    let mut len = std::mem::size_of::<c_int>() as u32;
    // SAFETY: `err`/`len` are valid out-pointers of the advertised size.
    cvt(unsafe {
        getsockopt(
            fd,
            SOL_SOCKET,
            SO_ERROR,
            (&mut err as *mut c_int).cast::<c_void>(),
            &mut len,
        )
    })?;
    if err == 0 {
        Ok(())
    } else {
        Err(io::Error::from_raw_os_error(err))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests drive the loop from blocking sockets
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_listener_readable_on_pending_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no connection pending yet");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        ep.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable()));
    }

    /// Median of 20 timed-out waits on an idle epoll.
    fn median_wait(wait: impl Fn(&mut Vec<Event>) -> io::Result<()>) -> Duration {
        let mut events = Vec::new();
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = std::time::Instant::now();
                wait(&mut events).unwrap();
                t0.elapsed()
            })
            .collect();
        assert!(events.is_empty(), "nothing is registered");
        took.sort_unstable();
        took[took.len() / 2]
    }

    const SHORT: Duration = Duration::from_micros(200);

    /// The point of `wait_for`: a wait shorter than a millisecond takes
    /// less than a millisecond. Through `wait` it cannot — the shortest
    /// timeout that blocks at all is 1 ms.
    #[test]
    fn wait_for_keeps_sub_millisecond_timeouts() {
        let ep = Epoll::new().unwrap();
        let median = median_wait(|ev| ep.wait_for(ev, SHORT));
        if !ep.has_pwait2.load(Ordering::Relaxed) {
            return; // this kernel has no epoll_pwait2: the next test's path
        }
        assert!(median >= SHORT, "returned early: {median:?}");
        assert!(
            median < Duration::from_millis(1),
            "200 us wait took {median:?}"
        );
    }

    /// A kernel without `epoll_pwait2` is found out on the first call and
    /// never asked again; waits round up to whole milliseconds from then.
    #[test]
    fn enosys_downgrades_once_to_rounded_up_epoll_wait() {
        let ep = Epoll::new().unwrap();
        let mut events = Vec::new();
        let t0 = std::time::Instant::now();
        ep.wait_for_with(&mut events, SHORT, |_, _| {
            Err(io::Error::from_raw_os_error(ENOSYS))
        })
        .unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(1),
            "the refused call still waits, rounded up"
        );
        assert!(!ep.has_pwait2.load(Ordering::Relaxed));

        ep.wait_for_with(&mut events, Duration::ZERO, |_, _| {
            panic!("asked a kernel that already said no")
        })
        .unwrap();
        let median = median_wait(|ev| ep.wait_for(ev, SHORT));
        assert!(
            median >= Duration::from_millis(1),
            "200 us rounds up to 1 ms: {median:?}"
        );
        // Any other failure is the caller's to see, and changes nothing.
        let ep = Epoll::new().unwrap();
        let err = ep
            .wait_for_with(&mut events, SHORT, |_, _| {
                Err(io::Error::from_raw_os_error(9)) // EBADF
            })
            .unwrap_err();
        assert_eq!(err.raw_os_error(), Some(9));
        assert!(ep.has_pwait2.load(Ordering::Relaxed));
    }

    /// More fds ready than one call reports: the rest come on the next.
    #[test]
    fn ready_set_larger_than_one_call_arrives_over_several() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = Epoll::new().unwrap();
        let n = MAX_EVENTS + 8;
        let socks: Vec<(TcpStream, TcpStream)> = (0..n)
            .map(|i| {
                let s = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                // An idle connected socket is writable.
                ep.add(s.as_raw_fd(), EPOLLOUT, i as u64).unwrap();
                (s, listener.accept().unwrap().0)
            })
            .collect();
        let mut events = Vec::new();
        ep.wait_for(&mut events, Duration::from_secs(1)).unwrap();
        assert_eq!(events.len(), MAX_EVENTS);
        let mut seen: std::collections::HashSet<u64> = events.iter().map(|e| e.token).collect();
        // Take what was reported out of the set, as a reactor that has
        // served a connection would; the rest is still ready.
        for e in &events {
            ep.delete(socks[e.token as usize].0.as_raw_fd()).unwrap();
        }
        events.clear();
        ep.wait(&mut events, 1000).unwrap();
        seen.extend(events.iter().map(|e| e.token));
        assert_eq!(seen.len(), n);
    }

    #[test]
    fn nonblocking_connect_completes_and_carries_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stream, done) = connect_nonblocking(addr).unwrap();
        let ep = Epoll::new().unwrap();
        if !done {
            ep.add(stream.as_raw_fd(), EPOLLOUT, 1).unwrap();
            let mut events = Vec::new();
            ep.wait(&mut events, 2000).unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.writable()));
            ep.delete(stream.as_raw_fd()).unwrap();
        }
        take_socket_error(stream.as_raw_fd()).unwrap();

        let (mut srv, _) = listener.accept().unwrap();
        srv.write_all(b"ping").unwrap();
        drop(srv);
        stream.set_nonblocking(false).unwrap();
        let mut got = Vec::new();
        (&stream).read_to_end(&mut got).unwrap();
        assert_eq!(got, b"ping");
    }

    #[test]
    fn connect_to_dead_port_reports_so_error() {
        // Bind then drop to get a port that refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let (stream, done) = connect_nonblocking(addr).unwrap();
        if done {
            // Synchronous failure would have errored out of connect itself;
            // a synchronous success is impossible against a closed port.
            panic!("connect to closed port reported synchronous success");
        }
        let ep = Epoll::new().unwrap();
        ep.add(stream.as_raw_fd(), EPOLLOUT, 1).unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, 2000).unwrap();
        assert!(!events.is_empty());
        assert!(take_socket_error(stream.as_raw_fd()).is_err());
    }

    #[test]
    fn modify_switches_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        // Watch only EPOLLOUT first: an idle connected socket is writable.
        ep.add(a.as_raw_fd(), EPOLLOUT, 9).unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable()));

        // Switch to EPOLLIN: not readable until the peer writes.
        ep.modify(a.as_raw_fd(), EPOLLIN, 9).unwrap();
        events.clear();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
        b.write_all(b"x").unwrap();
        ep.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable()));
    }
}
