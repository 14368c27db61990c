//! Multiplexed load driver: thousands of *virtual* clients over a
//! handful of real sockets.
//!
//! The reactor routes replies by `Addr::Client(request.id.client)`, bound
//! per request — not by the connection's hello address. That makes a
//! connection a *channel*, not an identity: one socket per replica can
//! carry any number of independent closed-loop clients, which is how the
//! 10k-client experiment drives a 3-node cluster from one process
//! without 10k sockets or 20k threads.
//!
//! `MuxSwarm` opens one connection per replica and runs `V` virtual
//! clients over them:
//!
//! * **closed-loop** ([`MuxSwarm::run_closed`]): every virtual client
//!   keeps exactly one request outstanding — the paper's client model —
//!   with retransmission on timeout and backoff-retry on `Busy`;
//! * **open-loop** ([`MuxSwarm::run_open`]): requests are injected at a
//!   fixed offered rate regardless of completions, which is what pushes
//!   a server past saturation and reveals whether it degrades gracefully
//!   (bounded latency + `Busy` sheds) or falls over.
//!
//! This is a *driver*, deliberately on the blocking-I/O side: the
//! client endpoint's reader and writer thread per connection
//! ([`crate::tcp`]), and the driving thread doubles as the retry ticker.

use crate::tcp::{read_msgs, spawn_writer};
use bytes::Bytes;
use crossbeam::channel::Sender;
use gridpaxos_core::msg::Msg;
use gridpaxos_core::request::{Request, RequestId, RequestKind};
use gridpaxos_core::types::{Addr, ClientId, ProcessId, Seq};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Retransmission timeout for a closed-loop virtual client.
const RETRY_AFTER: Duration = Duration::from_millis(500);
/// Backoff before retrying a request the cluster shed with `Busy`.
const BUSY_BACKOFF: Duration = Duration::from_millis(25);
/// Retry-scan / completion-poll cadence of the driving thread.
const TICK: Duration = Duration::from_millis(5);

/// One virtual client's closed-loop state.
struct VClient {
    id: ClientId,
    seq: u64,
    /// `Some(when_sent, retry_at)` while a request is outstanding.
    outstanding: Option<(Instant, Instant)>,
    done: u64,
}

/// State shared between reader threads and the driving thread.
struct Core {
    vclients: Vec<VClient>,
    /// Index into `vclients` by client id (ids are dense from `base`).
    base: u64,
    /// Learned leader (replica index) — first request broadcasts, later
    /// ones unicast here.
    leader: Option<usize>,
    /// RTT samples in nanoseconds.
    samples: Vec<u64>,
    completed: u64,
    busy: u64,
    retries: u64,
    /// Open-loop bookkeeping: send time per in-flight (client, seq).
    open_inflight: HashMap<(u64, u64), Instant>,
}

/// Results of one swarm run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MuxReport {
    /// Requests injected.
    pub sent: u64,
    /// Requests completed with a non-`Busy` reply.
    pub completed: u64,
    /// `Busy` sheds observed.
    pub busy: u64,
    /// Closed-loop retransmissions (timeouts).
    pub retries: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Mean reply latency, microseconds.
    pub rtt_avg_us: f64,
    /// Median reply latency, microseconds.
    pub rtt_p50_us: f64,
    /// 99th-percentile reply latency, microseconds.
    pub rtt_p99_us: f64,
}

impl MuxReport {
    /// Completed requests per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// `V` virtual clients multiplexed over one connection per replica.
pub struct MuxSwarm {
    core: Arc<Mutex<Core>>,
    writers: Arc<Vec<Sender<Msg>>>,
    readers: Vec<std::thread::JoinHandle<()>>,
    sockets: Vec<TcpStream>,
}

/// `m`'s guard; the swarm's counters stay readable after a reader thread
/// panicked while holding it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Send `msg` to the learned leader, or everyone when none is known.
fn route(writers: &[Sender<Msg>], leader: Option<usize>, msg: Msg) {
    match leader {
        Some(i) if i < writers.len() => {
            let _ = writers[i].send(msg);
        }
        _ => {
            for w in writers {
                let _ = w.send(msg.clone());
            }
        }
    }
}

fn request_msg(id: ClientId, seq: u64) -> Msg {
    Msg::Request(Request::new(
        RequestId::new(id, Seq(seq)),
        RequestKind::Write,
        Bytes::copy_from_slice(&[(seq & 0xff) as u8]),
    ))
}

impl MuxSwarm {
    /// Connect one socket to every replica in `addrs` and set up
    /// `n_virtual` virtual clients with ids `base..base + n_virtual`.
    pub fn connect(
        addrs: &HashMap<ProcessId, SocketAddr>,
        n_virtual: usize,
        base: u64,
    ) -> std::io::Result<MuxSwarm> {
        let core = Arc::new(Mutex::new(Core {
            vclients: (0..n_virtual)
                .map(|v| VClient {
                    id: ClientId(base + v as u64),
                    seq: 0,
                    outstanding: None,
                    done: 0,
                })
                .collect(),
            base,
            leader: None,
            samples: Vec::new(),
            completed: 0,
            busy: 0,
            retries: 0,
            open_inflight: HashMap::new(),
        }));
        let mut order: Vec<_> = addrs.iter().map(|(p, a)| (*p, *a)).collect();
        order.sort_by_key(|(p, _)| p.0);

        let mut writers = Vec::new();
        let mut readers = Vec::new();
        let mut sockets = Vec::new();
        for (i, (_, sock_addr)) in order.iter().enumerate() {
            let stream = TcpStream::connect_timeout(sock_addr, Duration::from_secs(2))?;
            let hello = Addr::Client(ClientId(base));
            let tx = spawn_writer(stream.try_clone()?, hello)?;
            let read_stream = stream.try_clone()?;
            let core = Arc::clone(&core);
            readers.push(
                std::thread::Builder::new()
                    .name(format!("mux-r{i}"))
                    .spawn(move || {
                        read_msgs(read_stream, |msg| {
                            on_reply(&core, msg);
                            true
                        });
                    })?,
            );
            writers.push(tx);
            sockets.push(stream);
        }
        let writers = Arc::new(writers);
        Ok(MuxSwarm {
            core,
            writers,
            readers,
            sockets,
        })
    }

    /// Closed loop: every virtual client keeps one request outstanding
    /// until it has completed `ops_each`, retransmitting on timeout and
    /// backing off on `Busy`. Returns when all are done or `deadline`
    /// expires.
    pub fn run_closed(&mut self, ops_each: u64, deadline: Duration) -> MuxReport {
        let started = Instant::now();
        let mut sent = 0u64;
        {
            // Stage the initial burst under the lock, send it after: a
            // channel send while holding `core` would hold the reader
            // threads' reply path hostage to the channel's backpressure.
            let mut c = lock(&self.core);
            let leader = c.leader;
            let mut to_send = Vec::with_capacity(c.vclients.len());
            for v in &mut c.vclients {
                v.seq += 1;
                v.outstanding = Some((Instant::now(), Instant::now() + RETRY_AFTER));
                to_send.push(request_msg(v.id, v.seq));
                sent += 1;
            }
            drop(c);
            for msg in to_send {
                route(&self.writers, leader, msg);
            }
        }
        loop {
            std::thread::sleep(TICK);
            let now = Instant::now();
            let mut c = lock(&self.core);
            let leader = c.leader;
            let mut all_done = true;
            let mut to_send = Vec::new();
            let mut retried = 0u64;
            for v in &mut c.vclients {
                if v.done >= ops_each {
                    continue;
                }
                all_done = false;
                match v.outstanding {
                    Some((sent_at, retry_at)) if retry_at <= now => {
                        // Timeout or Busy backoff expired: rebroadcast.
                        v.outstanding = Some((sent_at, now + RETRY_AFTER));
                        to_send.push(request_msg(v.id, v.seq));
                        retried += 1;
                    }
                    Some(_) => {}
                    None => {
                        // Next op for this client.
                        v.seq += 1;
                        v.outstanding = Some((now, now + RETRY_AFTER));
                        to_send.push(request_msg(v.id, v.seq));
                        sent += 1;
                    }
                }
            }
            c.retries += retried;
            drop(c);
            for msg in to_send {
                route(&self.writers, leader, msg);
            }
            if all_done || started.elapsed() > deadline {
                break;
            }
        }
        self.report(started.elapsed(), sent)
    }

    /// Open loop: inject `rate` requests/second for `duration` (round-
    /// robin across the virtual clients, new sequence number each time,
    /// no waiting and no retries), then drain replies for `grace`.
    pub fn run_open(&mut self, rate: u64, duration: Duration, grace: Duration) -> MuxReport {
        let started = Instant::now();
        let interval = Duration::from_secs_f64(1.0 / rate.max(1) as f64);
        let mut sent = 0u64;
        let mut next_at = started;
        let mut rr = 0usize;
        while started.elapsed() < duration {
            let now = Instant::now();
            if now < next_at {
                std::thread::sleep(next_at - now);
            }
            next_at += interval;
            let msg = {
                let mut c = lock(&self.core);
                let v = rr % c.vclients.len();
                rr += 1;
                c.vclients[v].seq += 1;
                let (id, seq) = (c.vclients[v].id, c.vclients[v].seq);
                c.open_inflight.insert((id.0, seq), Instant::now());
                // Unanswered requests accumulate past saturation; bound
                // the map so an overload sweep can't eat the heap.
                if c.open_inflight.len() > 200_000 {
                    c.open_inflight.clear();
                }
                sent += 1;
                (request_msg(id, seq), c.leader)
            };
            route(&self.writers, msg.1, msg.0);
        }
        std::thread::sleep(grace);
        self.report(started.elapsed(), sent)
    }

    fn report(&self, elapsed: Duration, sent: u64) -> MuxReport {
        let mut c = lock(&self.core);
        let mut samples = std::mem::take(&mut c.samples);
        samples.sort_unstable();
        let pct = |p: f64| -> f64 {
            if samples.is_empty() {
                return 0.0;
            }
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx] as f64 / 1_000.0
        };
        let avg = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1_000.0
        };
        let report = MuxReport {
            sent,
            completed: c.completed,
            busy: c.busy,
            retries: c.retries,
            elapsed,
            rtt_avg_us: avg,
            rtt_p50_us: pct(0.50),
            rtt_p99_us: pct(0.99),
        };
        c.completed = 0;
        c.busy = 0;
        c.retries = 0;
        c.open_inflight.clear();
        for v in &mut c.vclients {
            v.outstanding = None;
            v.done = 0;
        }
        report
    }

    /// Tear the connections down and join the reader threads.
    pub fn shutdown(self) {
        for s in &self.sockets {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        drop(self.writers);
        for r in self.readers {
            let _ = r.join();
        }
    }
}

/// Account one message read off a swarm connection.
fn on_reply(core: &Mutex<Core>, msg: Msg) {
    let Msg::Reply(reply) = msg else { return };
    let now = Instant::now();
    let mut c = lock(core);
    // Leader hint for subsequent unicasts (Busy sheds are not from the
    // leader, so they don't update it).
    if !reply.body.is_busy() {
        c.leader = Some(reply.leader.0 as usize);
    }
    // Open-loop accounting.
    if let Some(sent_at) = c.open_inflight.remove(&(reply.id.client.0, reply.id.seq.0)) {
        if reply.body.is_busy() {
            c.busy += 1;
        } else {
            c.completed += 1;
            c.samples
                .push(now.duration_since(sent_at).as_nanos() as u64);
        }
        return;
    }
    // Closed-loop accounting.
    let Some(idx) = reply.id.client.0.checked_sub(c.base) else {
        return;
    };
    let idx = idx as usize;
    if idx >= c.vclients.len() {
        return;
    }
    let v = &mut c.vclients[idx];
    if reply.id.seq.0 != v.seq {
        return; // stale duplicate
    }
    let Some((sent_at, _)) = v.outstanding else {
        return; // already completed (duplicate reply)
    };
    if reply.body.is_busy() {
        // Back off, then the ticker rebroadcasts.
        v.outstanding = Some((sent_at, now + BUSY_BACKOFF));
        c.busy += 1;
        return;
    }
    v.outstanding = None;
    v.done += 1;
    c.completed += 1;
    c.samples
        .push(now.duration_since(sent_at).as_nanos() as u64);
}
