//! The load generator: one thread, one socket per replica, `V`
//! closed-loop virtual clients multiplexed over them.
//!
//! Each virtual client is a shipped sans-io `ClientCore`, so broadcast,
//! retransmission and reply matching are the real client's. A client's
//! next request goes out the moment its reply is decoded — not on a
//! tick, which is what capped `transport::MuxSwarm::run_closed` at
//! `V / 5 ms` — and a request unanswered after `OP_DEADLINE` is
//! abandoned and counted as failed.

use crate::config::{CLIENT_RETRY, OP_DEADLINE};
use bytes::{Bytes, BytesMut};
use gridpaxos_core::action::{Action, TimerKind};
use gridpaxos_core::client::ClientCore;
use gridpaxos_core::msg::Msg;
use gridpaxos_core::request::{ReplyBody, RequestKind};
use gridpaxos_core::types::{Addr, ClientId, Dur, ProcessId, Time};
use gridpaxos_transport::framing::{write_frame, FrameDecoder};
use gridpaxos_transport::sys::{Epoll, Event, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use gridpaxos_transport::wire::{decode_msg, encode_with_scratch, put_addr};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Most virtual clients one driver carries.
pub const MAX_CLIENTS: usize = 64;
/// Longest `epoll_wait`, so deadlines are checked even on a silent socket.
const MAX_WAIT_MS: u64 = 25;

/// Where the driver's requests come from and where replies are checked.
pub trait Source {
    /// `client`'s next request; `None` when it has nothing more to send.
    fn next(&mut self, client: usize) -> Option<(RequestKind, Bytes)>;
    /// The reply to `client`'s outstanding request; returns whether it is
    /// the correct one.
    fn reply(&mut self, client: usize, body: &ReplyBody) -> bool;
    /// `client`'s outstanding request passed its deadline.
    fn abandoned(&mut self, client: usize);
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Reply decoded, since the run began.
    pub at: Duration,
    /// First transmission to reply decoded.
    pub latency: Duration,
    pub read: bool,
}

/// Outcome of one [`Driver::run`].
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Every answered request in completion order, including those that
    /// finished in the drain after the window closed (`at > window`).
    pub completions: Vec<Completion>,
    pub attempted: u64,
    pub timed_out: u64,
    pub wrong: u64,
    /// How long requests were issued for.
    pub window: Duration,
}

/// Client-side counters, accumulated over the driver's life.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientCounters {
    /// Retransmissions (`ClientRetry` firings).
    pub retries: u64,
    /// Replies from another leader than the previous reply's — the only
    /// redirect signal a single-group client gets.
    pub redirects: u64,
}

impl std::ops::AddAssign for ClientCounters {
    fn add_assign(&mut self, other: ClientCounters) {
        self.retries += other.retries;
        self.redirects += other.redirects;
    }
}

struct Sock {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Framed bytes not yet accepted by the kernel, from `sent` on.
    out: Vec<u8>,
    sent: usize,
    wants_out: bool,
}

struct InFlight {
    started: Instant,
    read: bool,
}

struct VClient {
    core: ClientCore,
    generation: u64,
    op: Option<InFlight>,
    retry_at: Option<Instant>,
}

pub struct Driver {
    epoll: Epoll,
    socks: Vec<Sock>,
    epoch: Instant,
    id_base: u64,
    retry: Dur,
    clients: Vec<VClient>,
    scratch: BytesMut,
    pub counters: ClientCounters,
    last_leader: Option<ProcessId>,
}

impl Driver {
    /// Connect one socket to every replica. Client ids are
    /// `id_base + k`; two drivers on one cluster need disjoint bases
    /// (`MAX_CLIENTS << 20` apart is plenty).
    pub fn connect(
        addrs: &HashMap<ProcessId, SocketAddr>,
        id_base: u64,
        retry: Dur,
    ) -> io::Result<Driver> {
        let epoll = Epoll::new()?;
        let mut socks = Vec::new();
        for i in 0..addrs.len() {
            let addr = addrs
                .get(&ProcessId(i as u32))
                .ok_or_else(|| io::Error::other("replica ids must be dense"))?;
            let mut stream = TcpStream::connect_timeout(addr, Duration::from_secs(2))?;
            stream.set_nodelay(true)?;
            let mut hello = BytesMut::new();
            put_addr(&mut hello, &Addr::Client(ClientId(id_base)));
            write_frame(&mut stream, &hello)?;
            stream.set_nonblocking(true)?;
            epoll.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, i as u64)?;
            socks.push(Sock {
                stream,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                sent: 0,
                wants_out: false,
            });
        }
        let n = socks.len();
        let clients = (0..MAX_CLIENTS)
            .map(|k| VClient {
                core: ClientCore::new(ClientId(id_base + k as u64), n, retry),
                generation: 0,
                op: None,
                retry_at: None,
            })
            .collect();
        Ok(Driver {
            epoll,
            socks,
            epoch: Instant::now(),
            id_base,
            retry,
            clients,
            scratch: BytesMut::new(),
            counters: ClientCounters::default(),
            last_leader: None,
        })
    }

    /// Connect with the shipped client's retransmission timeout.
    pub fn connect_default(addrs: &HashMap<ProcessId, SocketAddr>) -> io::Result<Driver> {
        Driver::connect(addrs, 1 << 32, CLIENT_RETRY)
    }

    /// The leader named by the latest reply.
    pub fn leader(&self) -> Option<ProcessId> {
        self.last_leader
    }

    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Run `clients` closed-loop clients against `source` until `window`
    /// has passed (or, with no window, until the source runs dry), then
    /// wait for the requests still in flight.
    pub fn run(
        &mut self,
        clients: usize,
        window: Option<Duration>,
        source: &mut dyn Source,
    ) -> io::Result<RunStats> {
        self.run_while(clients, window, &mut |_| false, source)
    }

    /// [`Driver::run`] in whole seconds: at the end of each one `more` is
    /// told how many have passed and says whether to issue for another.
    /// The closed loop runs straight through the boundaries.
    pub fn run_seconds(
        &mut self,
        clients: usize,
        more: &mut dyn FnMut(u64) -> bool,
        source: &mut dyn Source,
    ) -> io::Result<RunStats> {
        self.run_while(clients, Some(Duration::from_secs(1)), more, source)
    }

    fn run_while(
        &mut self,
        clients: usize,
        mut window: Option<Duration>,
        more: &mut dyn FnMut(u64) -> bool,
        source: &mut dyn Source,
    ) -> io::Result<RunStats> {
        assert!(clients <= MAX_CLIENTS);
        let t0 = Instant::now();
        let mut closed = false;
        let mut stats = RunStats::default();
        let mut events: Vec<Event> = Vec::new();
        for k in 0..clients {
            self.issue(k, source, &mut stats);
        }
        loop {
            if let Some(w) = window.filter(|&w| !closed && t0.elapsed() >= w) {
                if more(w.as_secs()) {
                    window = Some(w + Duration::from_secs(1));
                    // A client answered between the boundary and here
                    // was not given its next request.
                    for k in 0..clients {
                        if self.clients[k].op.is_none() {
                            self.issue(k, source, &mut stats);
                        }
                    }
                } else {
                    closed = true;
                }
            }
            let issue_until = window.map(|w| t0 + w);
            for i in 0..self.socks.len() {
                self.flush(i)?;
            }
            if self.clients[..clients].iter().all(|c| c.op.is_none()) {
                break;
            }
            events.clear();
            self.epoll
                .wait(&mut events, self.wait_ms(clients, issue_until))?;
            for ev in &events {
                let i = ev.token as usize;
                if ev.readable() {
                    self.read_ready(i, clients, t0, issue_until, source, &mut stats)?;
                }
                if ev.writable() {
                    self.flush(i)?;
                }
            }
            self.fire_timers(clients, source, &mut stats);
        }
        stats.window = window.unwrap_or_else(|| t0.elapsed());
        Ok(stats)
    }

    /// Milliseconds until the next thing the loop must do unprompted.
    fn wait_ms(&self, clients: usize, issue_until: Option<Instant>) -> i32 {
        let now = Instant::now();
        let until = self.clients[..clients]
            .iter()
            .filter_map(|c| c.retry_at)
            .chain(issue_until.filter(|&t| t > now))
            .map(|at| at.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::MAX)
            .min(Duration::from_millis(MAX_WAIT_MS));
        until.as_micros().div_ceil(1_000) as i32
    }

    /// Start `k`'s next request, if its source has one.
    fn issue(&mut self, k: usize, source: &mut dyn Source, stats: &mut RunStats) {
        let Some((kind, op)) = source.next(k) else {
            return;
        };
        let now = self.now();
        let actions = self.clients[k].core.submit_op(kind, op, now);
        self.clients[k].op = Some(InFlight {
            started: Instant::now(),
            read: kind == RequestKind::Read,
        });
        stats.attempted += 1;
        self.perform(k, actions);
    }

    /// Carry out a `ClientCore`'s actions: frame sends onto the sockets'
    /// output buffers, keep the retry timer.
    fn perform(&mut self, k: usize, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send {
                    to: Addr::Replica(p),
                    msg,
                } => {
                    let Some(sock) = self.socks.get_mut(p.0 as usize) else {
                        continue;
                    };
                    let body = encode_with_scratch(&msg, &mut self.scratch);
                    // Writing into a Vec cannot fail; an oversized frame
                    // would be a bug in the generator.
                    write_frame(&mut sock.out, body).expect("request fits a frame");
                }
                Action::Send { .. } | Action::ToAllReplicas { .. } => {}
                Action::SetTimer {
                    kind: TimerKind::ClientRetry,
                    after,
                } => {
                    self.clients[k].retry_at = Some(Instant::now() + Duration::from_nanos(after.0));
                }
                Action::CancelTimer {
                    kind: TimerKind::ClientRetry,
                } => self.clients[k].retry_at = None,
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
            }
        }
    }

    /// Hand the kernel as much of socket `i`'s output as it takes.
    fn flush(&mut self, i: usize) -> io::Result<()> {
        let sock = &mut self.socks[i];
        while sock.sent < sock.out.len() {
            match sock.stream.write(&sock.out[sock.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sock.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let blocked = sock.sent < sock.out.len();
        if !blocked {
            sock.out.clear();
            sock.sent = 0;
        }
        if blocked != sock.wants_out {
            sock.wants_out = blocked;
            let interest = EPOLLIN | EPOLLRDHUP | if blocked { EPOLLOUT } else { 0 };
            self.epoll
                .modify(sock.stream.as_raw_fd(), interest, i as u64)?;
        }
        Ok(())
    }

    /// Drain socket `i`, complete the requests its replies answer and
    /// issue each answered client's next request at once.
    fn read_ready(
        &mut self,
        i: usize,
        clients: usize,
        t0: Instant,
        issue_until: Option<Instant>,
        source: &mut dyn Source,
        stats: &mut RunStats,
    ) -> io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = match self.socks[i].stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::other(format!(
                        "replica {i} closed the connection"
                    )))
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.socks[i].decoder.extend(&buf[..n]);
            while let Some(mut frame) = self.socks[i].decoder.next_frame()? {
                let msg = decode_msg(&mut frame)
                    .map_err(|e| io::Error::other(format!("undecodable reply: {e:?}")))?;
                let Some(k) = self.client_of(&msg, clients) else {
                    continue;
                };
                if self.deliver(k, msg, t0, source, stats)
                    && issue_until.is_none_or(|t| Instant::now() < t)
                {
                    self.issue(k, source, stats);
                }
            }
            if n < buf.len() {
                return Ok(());
            }
        }
    }

    /// The live virtual client a reply is addressed to.
    fn client_of(&self, msg: &Msg, clients: usize) -> Option<usize> {
        let Msg::Reply(r) = msg else {
            return None;
        };
        let offset = r.id.client.0.checked_sub(self.id_base)?;
        let k = (offset % MAX_CLIENTS as u64) as usize;
        (k < clients && offset / MAX_CLIENTS as u64 == self.clients[k].generation).then_some(k)
    }

    /// Feed a reply to client `k`; returns whether it completed `k`'s
    /// request.
    fn deliver(
        &mut self,
        k: usize,
        msg: Msg,
        t0: Instant,
        source: &mut dyn Source,
        stats: &mut RunStats,
    ) -> bool {
        if let Msg::Reply(r) = &msg {
            // A `Busy` shed comes from whichever node was overloaded,
            // not from the leader.
            if !r.body.is_busy() {
                if self.last_leader.is_some_and(|l| l != r.leader) {
                    self.counters.redirects += 1;
                }
                self.last_leader = Some(r.leader);
            }
        }
        let now = self.now();
        let (done, actions) = self.clients[k].core.on_message(msg, now);
        self.perform(k, actions);
        let Some(done) = done else {
            return false;
        };
        let Some(op) = self.clients[k].op.take() else {
            return false;
        };
        let correct = matches!(&done.body, ReplyBody::Ok(_)) && source.reply(k, &done.body);
        if correct {
            stats.completions.push(Completion {
                at: t0.elapsed(),
                latency: op.started.elapsed(),
                read: op.read,
            });
        } else {
            stats.wrong += 1;
        }
        true
    }

    /// Retransmit what is due and abandon what is past its deadline.
    fn fire_timers(&mut self, clients: usize, source: &mut dyn Source, stats: &mut RunStats) {
        let now = Instant::now();
        for k in 0..clients {
            let Some(op) = &self.clients[k].op else {
                continue;
            };
            if now.duration_since(op.started) >= OP_DEADLINE {
                // `ClientCore` has no cancel: retire this incarnation and
                // give the slot a fresh identity, so a late reply to the
                // abandoned request cannot be mistaken for a new one.
                stats.timed_out += 1;
                source.abandoned(k);
                let c = &mut self.clients[k];
                c.generation += 1;
                let id = self.id_base + c.generation * MAX_CLIENTS as u64 + k as u64;
                c.core = ClientCore::new(ClientId(id), self.socks.len(), self.retry);
                c.op = None;
                c.retry_at = None;
                continue;
            }
            if self.clients[k].retry_at.is_some_and(|at| at <= now) {
                self.counters.retries += 1;
                let core_now = self.now();
                let actions = self.clients[k]
                    .core
                    .on_timer(TimerKind::ClientRetry, core_now);
                self.perform(k, actions);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridpaxos_core::request::Reply;
    use gridpaxos_core::types::Instance;
    use gridpaxos_transport::framing::read_frame;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// Endless empty writes; every reply is correct.
    struct Endless;

    impl Source for Endless {
        fn next(&mut self, _client: usize) -> Option<(RequestKind, Bytes)> {
            Some((RequestKind::Write, Bytes::new()))
        }
        fn reply(&mut self, _client: usize, _body: &ReplyBody) -> bool {
            true
        }
        fn abandoned(&mut self, _client: usize) {}
    }

    /// A zero-work "replica": node 0 answers every request at once, the
    /// others swallow theirs (as non-leaders do).
    fn echo_node(listener: TcpListener, answers: bool) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut out = stream.try_clone().expect("clone");
            let mut r = BufReader::new(stream);
            let _hello = read_frame(&mut r).expect("hello");
            let mut scratch = BytesMut::new();
            let mut batch = Vec::new();
            while let Ok(Some(mut frame)) = read_frame(&mut r) {
                let Ok(Msg::Request(req)) = decode_msg(&mut frame) else {
                    continue;
                };
                if !answers {
                    continue;
                }
                let reply = Msg::Reply(Reply {
                    id: req.id,
                    leader: ProcessId(0),
                    watermark: Instance::ZERO,
                    body: ReplyBody::Ok(Bytes::new()),
                });
                batch.clear();
                write_frame(&mut batch, encode_with_scratch(&reply, &mut scratch)).expect("frame");
                if out.write_all(&batch).is_err() {
                    return;
                }
            }
        })
    }

    #[test]
    fn sixteen_clients_are_not_tick_limited() {
        let mut addrs = HashMap::new();
        let mut nodes = Vec::new();
        for i in 0..3u32 {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            addrs.insert(ProcessId(i), l.local_addr().expect("addr"));
            nodes.push(echo_node(l, i == 0));
        }
        let mut driver = Driver::connect_default(&addrs).expect("connect");
        let stats = driver
            .run(16, Some(Duration::from_millis(500)), &mut Endless)
            .expect("run");
        let rate = stats.completions.len() as f64 / stats.window.as_secs_f64();
        // A 5 ms tick would cap 16 clients at 3,200 ops/s.
        assert!(
            rate >= 20_000.0,
            "only {rate:.0} ops/s against a zero-work responder"
        );
        assert_eq!((stats.timed_out, stats.wrong), (0, 0));
        assert_eq!(stats.attempted, stats.completions.len() as u64);
        assert_eq!(driver.leader(), Some(ProcessId(0)));
        drop(driver);
        for n in nodes {
            n.join().expect("echo node");
        }
    }
}
