//! The client side of the wire ("The communication between service
//! replicas, and between clients and service replicas, uses TCP
//! sockets"): one thread drives any number of sans-io [`ClientCore`]s
//! over one nonblocking socket per replica.
//!
//! [`ClientLoop`] is that thread's loop. Each core sits in a *slot*, and a
//! reply finds its slot by `reply.id.client`, inside the group envelope
//! too: the reactor routes replies by the request's client address, not
//! by the connection, so one socket carries every core. A replica's
//! connection is dialed on the first send to it, dropped on EOF, an
//! error or a frame that does not decode, and dialed again on the next
//! send. Dials are nonblocking, so a replica that is down or refuses
//! costs a send nothing; the core's retry covers what it lost. Those
//! steps are the connection table's (`crate::conn`), the one the reactor
//! owns too; this loop keeps its slots, cores, retry timers — in the
//! reactor's timer table (`timers::Timers`), keyed by slot — and
//! [`Outcome`].
//!
//! [`SyncClient`] is the loop with one core, behind a blocking `call`. A
//! load driver holds a loop with many cores and brings its own policy:
//! how many operations, at what rate.

#![deny(clippy::disallowed_methods)] // rule 5: no blocking call on an epoll loop

use crate::conn::{ConnTable, SEND_QUEUE_CAP};
use crate::sys::Event;
use crate::timers::Timers;
use crate::wire::decode_msg;
use bytes::Bytes;
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
    epoch: Instant,
    /// One connection per replica, dialed on the first send to it.
    conns: ConnTable,
    cores: Vec<ClientCore>,
    slots: HashMap<ClientId, usize>,
    /// Retry timers, one "group" per slot.
    timers: Timers,
}

impl ClientLoop {
    /// A loop over `cores`, slot `i` holding `cores[i]`, that dials the
    /// replicas at `replicas` as it sends to them. Fails only if no epoll
    /// instance can be had.
    pub fn new(
        cores: Vec<ClientCore>,
        replicas: HashMap<ProcessId, SocketAddr>,
    ) -> io::Result<ClientLoop> {
        // With no core nothing is ever sent, so no hello either.
        let hello = Addr::Client(cores.first().map_or(ClientId(0), ClientCore::id));
        Ok(ClientLoop {
            epoch: Instant::now(),
            conns: ConnTable::new(hello, replicas, SEND_QUEUE_CAP)?,
            slots: cores.iter().enumerate().map(|(s, c)| (c.id(), s)).collect(),
            timers: Timers::new(cores.len()),
            cores,
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
        self.conns.write_dirty(|_, _| {});
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
            self.conns.epoll().wait_for(&mut events, wait)?;
            for ev in &events {
                if ev.writable() {
                    self.conns.writable(ev.token, |_, _| {});
                }
                if ev.readable() && self.conns.contains(ev.token) {
                    self.handle_readable(ev.token, out);
                }
            }
            self.fire_due_timers();
            self.conns.write_dirty(|_, _| {});
            if !out.is_empty() || Instant::now() >= deadline {
                return Ok(());
            }
        }
    }

    /// Carry out `slot`'s actions: frame sends onto connection queues,
    /// keep its retry timer. A send is best-effort: a replica that cannot
    /// be dialed, or whose queue is full, loses the message to the core's
    /// retry.
    fn perform(&mut self, slot: usize, actions: Vec<Action>) {
        let now = self.now();
        for a in actions {
            match a {
                // A client core sends to each replica by id and never
                // broadcasts; clients do not listen, so a send to one is
                // unroutable.
                Action::Send { to, msg } => {
                    self.conns.send(to, &msg);
                }
                Action::ToAllReplicas { .. } => {}
                Action::SetTimer { kind, after } => self.timers.set(slot, kind, now.0 + after.0),
                Action::CancelTimer { kind } => self.timers.cancel(slot, kind),
            }
        }
    }

    /// EPOLLIN on `token`: deliver every reply read. A frame that does
    /// not decode drops the connection.
    fn handle_readable(&mut self, token: u64, out: &mut Vec<(usize, Outcome)>) {
        let mut msgs = Vec::new();
        self.conns
            .read(token, |_, mut frame| match decode_msg(&mut frame) {
                Ok(msg) => {
                    msgs.push(msg);
                    true
                }
                Err(_) => false,
            });
        for msg in msgs {
            self.deliver(msg, out);
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
#[allow(clippy::disallowed_methods)] // tests drive the loop from blocking sockets
mod tests {
    use super::*;
    use crate::framing::{read_frame, write_frame};
    use crate::reactor::ReactorCluster;
    use crate::wire::encode_to_bytes;
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
            write_frame(&mut out, &encode_to_bytes(&reply)).expect("frame");
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

    /// A replica whose answer does not decode loses its connection: the
    /// loop drops it, the retry dials again, and the call completes with
    /// the answer that comes over the new connection.
    #[test]
    fn an_undecodable_reply_drops_the_connection_and_the_retry_redials() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let replica = std::thread::spawn(move || {
            let (first, _) = listener.accept().expect("first accept");
            let mut w = first.try_clone().expect("clone");
            let mut r = BufReader::new(first);
            read_frame(&mut r).expect("hello").expect("hello frame");
            read_frame(&mut r).expect("request").expect("request frame");
            let mut garbage = Vec::new();
            write_frame(&mut garbage, &[0xff, 0, 0, 0]).expect("frame");
            w.write_all(&garbage).expect("garbage");
            // The loop closes its end: this side reads EOF.
            assert!(read_frame(&mut r).expect("eof").is_none(), "kept open");
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
            write_frame(&mut out, &encode_to_bytes(&reply)).expect("frame");
            w.write_all(&out).expect("reply");
        });
        let core = ClientCore::new(ClientId(8), 1, Dur::from_millis(100));
        let replicas = HashMap::from([(ProcessId(0), addr)]);
        let mut client = SyncClient::new(core, replicas).expect("client");
        let body = client
            .call(RequestKind::Write, bytes::Bytes::new())
            .expect("answered after the retry");
        assert!(matches!(body, ReplyBody::Ok(b) if b[..] == b"pong"[..]));
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
