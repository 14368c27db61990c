//! The client side of the wire ("The communication between service
//! replicas, and between clients and service replicas, uses TCP
//! sockets"): one thread drives any number of sans-io [`ClientCore`]s
//! over one nonblocking socket per replica.
//!
//! [`ClientLoop`] is that thread's loop. Each core sits in a *slot*, and a
//! reply finds its slot by `reply.id.client`, inside the group envelope
//! too: the reactor routes replies by the request's client address, not
//! by the connection, so one socket carries every core. A replica's
//! connection is dialed on the first send to it, dropped on EOF or error
//! and dialed again on the next send. Dials are nonblocking, so a replica
//! that is down or refuses costs a send nothing; the core's retry covers
//! what it lost. Retry timers live in the reactor's timer table
//! (`timers::Timers`), keyed by slot.
//!
//! [`SyncClient`] is the loop with one core, behind a blocking `call`. A
//! load driver holds a loop with many cores and brings its own policy:
//! how many operations, at what rate.

use crate::conn::{frame_bytes, Conn, ReadStep, READ_BUF};
use crate::framing::MAX_FRAME;
use crate::reactor::ReactorConfig;
use crate::sys::{Epoll, Event};
use crate::timers::Timers;
use crate::wire::{decode_msg, encode_with_scratch};
use bytes::{Bytes, BytesMut};
use gridpaxos_core::action::Action;
use gridpaxos_core::client::{ClientCore, CompletedOp, TxnDriver, TxnOutcome, TxnScript};
use gridpaxos_core::msg::Msg;
use gridpaxos_core::request::{ReplyBody, Request, RequestKind};
use gridpaxos_core::types::{Addr, ClientId, ProcessId, Time};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A client id no client of this process or of an earlier one had: the
/// first is the wall clock in nanoseconds, the rest count up from it. The
/// replicas' dedup tables outlive every client; they drop a reused id's
/// request below the last sequence number seen and answer an equal one
/// with another request's cached reply.
pub fn fresh_client_id() -> ClientId {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        AtomicU64::new(nanos | 1)
    });
    ClientId(next.fetch_add(1, Ordering::Relaxed))
}

/// What [`ClientLoop::poll`] saw happen to a slot's outstanding request.
#[derive(Debug)]
pub enum Outcome {
    /// It was answered.
    Done(CompletedOp),
    /// A replica shed it with `Busy`. The core keeps it outstanding and
    /// its retry timer sends it again; a caller that wants no retry
    /// abandons the slot.
    Busy,
}

/// Any number of [`ClientCore`]s over one socket per replica, on the
/// calling thread.
pub struct ClientLoop {
    epoll: Epoll,
    epoch: Instant,
    /// The address every connection's hello frame names.
    hello: Addr,
    replicas: HashMap<ProcessId, SocketAddr>,
    /// Open connections; a replica's token is its id.
    conns: HashMap<u64, Conn>,
    cores: Vec<ClientCore>,
    slots: HashMap<ClientId, usize>,
    /// Retry timers, one "group" per slot.
    timers: Timers,
    /// Connections with freshly queued bytes, awaiting a socket write.
    dirty: Vec<u64>,
    scratch: BytesMut,
    read_buf: Vec<u8>,
}

impl ClientLoop {
    /// A loop over `cores`, slot `i` holding `cores[i]`, that dials the
    /// replicas at `replicas` as it sends to them. Fails only if no epoll
    /// instance can be had.
    pub fn new(
        cores: Vec<ClientCore>,
        replicas: HashMap<ProcessId, SocketAddr>,
    ) -> io::Result<ClientLoop> {
        Ok(ClientLoop {
            epoll: Epoll::new()?,
            epoch: Instant::now(),
            // With no core nothing is ever sent, so no hello either.
            hello: Addr::Client(cores.first().map_or(ClientId(0), ClientCore::id)),
            replicas,
            conns: HashMap::new(),
            slots: cores.iter().enumerate().map(|(s, c)| (c.id(), s)).collect(),
            timers: Timers::new(cores.len()),
            cores,
            dirty: Vec::new(),
            scratch: BytesMut::new(),
            read_buf: vec![0; READ_BUF],
        })
    }

    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Send a new `kind` request carrying `op` from `slot`'s core, which
    /// must have none outstanding.
    pub fn submit_op(&mut self, slot: usize, kind: RequestKind, op: Bytes) {
        self.drive(slot, |core, now| core.submit_op(kind, op, now));
    }

    /// Send `req` from `slot`'s core, which must have none outstanding.
    pub fn submit(&mut self, slot: usize, req: Request) {
        self.drive(slot, |core, now| core.submit(req, now));
    }

    /// Give up on `slot`'s outstanding request ([`ClientCore::abandon`]).
    pub fn abandon(&mut self, slot: usize) {
        self.drive(slot, |core, _| core.abandon());
    }

    /// Hand `slot`'s core to `step` at the loop's clock, and carry out
    /// the actions it returns.
    fn drive(&mut self, slot: usize, step: impl FnOnce(&mut ClientCore, Time) -> Vec<Action>) {
        let now = self.now();
        let actions = step(&mut self.cores[slot], now);
        self.perform(slot, actions);
        self.write_dirty_conns();
    }

    /// Wait for replies and fire retries until something happened to an
    /// outstanding request, or until `deadline`; push what happened onto
    /// `out`. A `deadline` already past polls once without waiting.
    pub fn poll(&mut self, deadline: Instant, out: &mut Vec<(usize, Outcome)>) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let mut wait = deadline.saturating_duration_since(Instant::now());
            if let Some(due) = self.timers.next_due() {
                wait = wait.min(Duration::from_nanos(due.saturating_sub(self.now().0)));
            }
            events.clear();
            self.epoll.wait_for(&mut events, wait)?;
            for ev in &events {
                if ev.writable() {
                    self.handle_writable(ev.token);
                }
                if ev.readable() && self.conns.contains_key(&ev.token) {
                    self.handle_readable(ev.token, out);
                }
            }
            self.fire_due_timers();
            self.write_dirty_conns();
            if !out.is_empty() || Instant::now() >= deadline {
                return Ok(());
            }
        }
    }

    /// Carry out `slot`'s actions: frame sends onto connection queues,
    /// keep its retry timer.
    fn perform(&mut self, slot: usize, actions: Vec<Action>) {
        let now = self.now();
        for a in actions {
            match a {
                Action::Send {
                    to: Addr::Replica(p),
                    msg,
                } => self.send(p, &msg),
                // A client core sends to each replica by id, and clients
                // do not listen.
                Action::ToAllReplicas { .. }
                | Action::Send {
                    to: Addr::Client(_),
                    ..
                } => {}
                Action::SetTimer { kind, after } => self.timers.set(slot, kind, now.0 + after.0),
                Action::CancelTimer { kind } => self.timers.cancel(slot, kind),
            }
        }
    }

    /// Queue `msg` on replica `p`'s connection, dialing it first if none
    /// is open. Best-effort: a replica that cannot be dialed, or whose
    /// queue is full, loses the message to the core's retry.
    fn send(&mut self, p: ProcessId, msg: &Msg) {
        let token = u64::from(p.0);
        if !self.conns.contains_key(&token) {
            let Some(&sock) = self.replicas.get(&p) else {
                return;
            };
            let cap = ReactorConfig::default().send_queue_cap;
            let Some(conn) =
                Conn::dial(&self.epoll, token, sock, self.hello, Addr::Replica(p), cap)
            else {
                return;
            };
            self.conns.insert(token, conn);
        }
        let body = encode_with_scratch(msg, &mut self.scratch);
        if body.len() > MAX_FRAME {
            return;
        }
        let frame = frame_bytes(body);
        let Some(c) = self.conns.get_mut(&token) else {
            return;
        };
        c.outq.push(frame);
        if !c.flush_pending {
            c.flush_pending = true;
            self.dirty.push(token);
        }
    }

    fn write_dirty_conns(&mut self) {
        for token in std::mem::take(&mut self.dirty) {
            self.flush_conn(token);
        }
    }

    /// Write a connection's queued bytes to its socket and settle its
    /// interest; drop it if the socket failed.
    fn flush_conn(&mut self, token: u64) {
        let Some(c) = self.conns.get_mut(&token) else {
            return;
        };
        c.flush_pending = false;
        if c.connecting {
            // EPOLLOUT is registered and fires when the connect resolves.
            return;
        }
        let written = c
            .flush()
            .and_then(|blocked| c.settle_interest(&self.epoll, token, blocked));
        if written.is_err() {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(c) = self.conns.remove(&token) {
            c.deregister(&self.epoll);
        }
    }

    /// EPOLLOUT on `token`: resolve an in-flight connect, then drain the
    /// send queue.
    fn handle_writable(&mut self, token: u64) {
        let Some(c) = self.conns.get_mut(&token) else {
            return;
        };
        if c.finish_connect().is_err() {
            self.close_conn(token);
            return;
        }
        self.flush_conn(token);
    }

    /// EPOLLIN on `token`: read until `EWOULDBLOCK` and deliver every
    /// reply decoded. EOF, a socket error or a frame that does not decode
    /// drops the connection.
    fn handle_readable(&mut self, token: u64, out: &mut Vec<(usize, Outcome)>) {
        let Some(c) = self.conns.get_mut(&token) else {
            return;
        };
        let mut msgs = Vec::new();
        let open = 'read: loop {
            let read = match c.read_step(&mut self.read_buf) {
                ReadStep::Got(n) => n,
                ReadStep::Drained => break true,
                ReadStep::Close => break false,
            };
            // Decode what the chunk completed before reading more.
            loop {
                match c.decoder.next_frame() {
                    Ok(Some(mut frame)) => match decode_msg(&mut frame) {
                        Ok(msg) => msgs.push(msg),
                        Err(_) => break 'read false,
                    },
                    Ok(None) => break,
                    Err(_) => break 'read false,
                }
            }
            if read < self.read_buf.len() {
                break true;
            }
        };
        for msg in msgs {
            self.deliver(msg, out);
        }
        if !open {
            self.close_conn(token);
        }
    }

    /// Hand a reply to the core it addresses; report what it did to that
    /// core's outstanding request.
    fn deliver(&mut self, msg: Msg, out: &mut Vec<(usize, Outcome)>) {
        let inner = if let Msg::Grouped { inner, .. } = &msg {
            inner.as_ref()
        } else {
            &msg
        };
        let Msg::Reply(reply) = inner else {
            return;
        };
        let Some(&slot) = self.slots.get(&reply.id.client) else {
            return;
        };
        let shed = reply.body.is_busy() && self.cores[slot].outstanding_id() == Some(reply.id);
        let now = self.now();
        let (done, actions) = self.cores[slot].on_message(msg, now);
        self.perform(slot, actions);
        match done {
            Some(op) => out.push((slot, Outcome::Done(op))),
            None if shed => out.push((slot, Outcome::Busy)),
            None => {}
        }
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = self.now();
            let Some((slot, kind)) = self.timers.pop_due(now.0) else {
                return;
            };
            let actions = self.cores[slot].on_timer(kind, now);
            self.perform(slot, actions);
        }
    }
}

/// A blocking client: a [`ClientLoop`] with one core, one request
/// outstanding, driven only while a call waits. Real wall-clock time is
/// mapped onto the core's logical [`Time`] from the loop's epoch.
pub struct SyncClient {
    lp: ClientLoop,
}

impl SyncClient {
    /// A client for `core` that dials the replicas at `replicas` as it
    /// sends to them. Fails only if no epoll instance can be had.
    pub fn new(
        core: ClientCore,
        replicas: HashMap<ProcessId, SocketAddr>,
    ) -> io::Result<SyncClient> {
        Ok(SyncClient {
            lp: ClientLoop::new(vec![core], replicas)?,
        })
    }

    /// Await the completion of the outstanding request, for at most 20 of
    /// the core's retry timeouts. A request that times out is dropped, so
    /// the next call starts clean.
    fn await_reply(&mut self) -> Option<CompletedOp> {
        let retry = self.lp.cores[0].retry_timeout();
        let give_up = Instant::now() + Duration::from_nanos(retry.mul(20).0);
        let mut seen = Vec::new();
        while Instant::now() < give_up {
            if self.lp.poll(give_up, &mut seen).is_err() {
                break;
            }
            for (_, outcome) in seen.drain(..) {
                // A `Busy` leaves the request to the core's retry.
                if let Outcome::Done(op) = outcome {
                    return Some(op);
                }
            }
        }
        self.lp.abandon(0);
        None
    }

    /// Issue one request and block for its reply.
    pub fn call(&mut self, kind: RequestKind, payload: Bytes) -> Option<ReplyBody> {
        self.lp.submit_op(0, kind, payload);
        self.await_reply().map(|done| done.body)
    }

    /// Run a whole transaction and block until it commits or aborts.
    pub fn run_txn(&mut self, script: TxnScript) -> Option<TxnOutcome> {
        let txn = self.lp.cores[0].next_txn_id();
        let mut driver = TxnDriver::new(script, txn);
        loop {
            // The driver has a step left until `on_complete` says it is
            // over, which returns below.
            self.lp
                .drive(0, |core, now| driver.step(core, now).unwrap_or_default());
            let done = self.await_reply()?;
            if let Some(outcome) = driver.on_complete(&done) {
                return Some(outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{read_frame, write_frame};
    use crate::reactor::ReactorCluster;
    use gridpaxos_core::config::Config;
    use gridpaxos_core::types::{Dur, Instance};
    use gridpaxos_services::{KvOp, KvStore};
    use std::io::{BufReader, Write};
    use std::net::TcpListener;

    /// A replica that closes the connection after reading the first
    /// request is dialed again by the retry, and the call returns the
    /// answer that comes over the new connection.
    #[test]
    fn a_closed_connection_is_dialed_again_by_the_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let replica = std::thread::spawn(move || {
            let (first, _) = listener.accept().expect("first accept");
            let mut r = BufReader::new(first);
            read_frame(&mut r).expect("hello").expect("hello frame");
            read_frame(&mut r).expect("request").expect("request frame");
            drop(r);
            let (second, _) = listener.accept().expect("second accept");
            let mut w = second.try_clone().expect("clone");
            let mut r = BufReader::new(second);
            read_frame(&mut r).expect("hello").expect("hello frame");
            let mut frame = read_frame(&mut r).expect("request").expect("request frame");
            let Ok(Msg::Request(req)) = decode_msg(&mut frame) else {
                panic!("the retry is not a request");
            };
            let reply = Msg::Reply(gridpaxos_core::request::Reply {
                id: req.id,
                leader: ProcessId(0),
                watermark: Instance::ZERO,
                body: ReplyBody::Ok(bytes::Bytes::from_static(b"pong")),
            });
            let mut out = Vec::new();
            write_frame(&mut out, encode_with_scratch(&reply, &mut BytesMut::new()))
                .expect("frame");
            w.write_all(&out).expect("reply");
        });
        let retry = Duration::from_millis(250);
        let id = ClientId(7);
        let core = ClientCore::new(id, 1, Dur::from_millis(250));
        let replicas = HashMap::from([(ProcessId(0), addr)]);
        let mut client = SyncClient::new(core, replicas).expect("client");
        let started = Instant::now();
        let body = client
            .call(RequestKind::Write, bytes::Bytes::new())
            .expect("answered after the retry");
        assert!(matches!(body, ReplyBody::Ok(b) if b[..] == b"pong"[..]));
        let took = started.elapsed();
        assert!(took >= retry && took < 2 * retry, "one retry, not {took:?}");
        replica.join().expect("fake replica");
    }

    /// Why a client id must be fresh: a second client with the first's id
    /// starts its sequence numbers over, and the leader's dedup table,
    /// which remembers the first client's third write, drops its first
    /// `put` unanswered and unapplied.
    #[test]
    fn a_reused_client_id_loses_its_first_put() {
        let cluster = ReactorCluster::launch(Config::cluster(3), || Box::new(KvStore::new()))
            .expect("launch");
        let id = cluster.next_client_id();
        let client = |retry_ms| {
            let core = ClientCore::new(id, 3, Dur::from_millis(retry_ms));
            SyncClient::new(core, cluster.addrs.clone()).expect("client")
        };
        let put = |k: &str, v: &str| KvOp::Put(k.into(), v.into()).encode();
        let mut first = client(500);
        for i in 0..3 {
            let body = first.call(RequestKind::Write, put("first", &i.to_string()));
            assert!(
                matches!(body, Some(ReplyBody::Ok(_))),
                "write {i}: {body:?}"
            );
        }
        let mut second = client(20);
        assert!(
            second
                .call(RequestKind::Write, put("second", "lost"))
                .is_none(),
            "the leader answered a sequence number it has passed"
        );
        let read = cluster
            .client()
            .call(RequestKind::Read, KvOp::Get("second".into()).encode());
        let Some(ReplyBody::Ok(value)) = read else {
            panic!("read: {read:?}");
        };
        assert_eq!(KvStore::decode_reply(&value), None, "the put was applied");
        cluster.shutdown();
    }
}
