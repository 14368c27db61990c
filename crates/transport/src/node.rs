//! Event loops that drive the sans-io cores over a real [`Transport`]:
//! [`ReplicaNode`] for service processes and [`SyncClient`] for blocking
//! client calls. Real wall-clock time is mapped onto the core's logical
//! [`Time`] from a per-process epoch.
//!
//! ## Group commit: the flush barrier
//!
//! The replica loop is *batched*: each cycle drains every already-queued
//! message (and all due timers) through the core first, buffering the
//! resulting `Send`/`ToAllReplicas` actions in an [`Outbox`] instead of
//! transmitting them one by one, and then releases it. The order of sends
//! and barrier — `Accept`s to the transport, one `sync_data` covering
//! every WAL record the whole batch appended, then everything else — is
//! written once, in [`gridpaxos_core::outbox`], for every drive loop
//! there is; this one is its [`Wire`] over a [`Transport`].
//! Chosen-prefix marks make no barrier due; they ride the next one or the
//! flush on the way out of [`ReplicaNode::run`].
//!
//! ## The way out
//!
//! [`ReplicaNode::run`] ends with [`Replica::stop`]: that last flush, and
//! the leader's tentative execution of a decree still in flight taken
//! back, so the replica it returns holds the state of its chosen prefix —
//! equal to every other replica's at that prefix (§3.3). Storage keeps
//! the accepted decree; a restart rebuilds the same state from it.

use crate::timers::Timers;
use gridpaxos_core::action::{Action, TimerKind};
use gridpaxos_core::client::{ClientCore, CompletedOp, TxnDriver, TxnOutcome, TxnScript};
use gridpaxos_core::msg::Msg;
use gridpaxos_core::outbox::{release, Out, Outbox, Wire};
use gridpaxos_core::replica::Replica;
use gridpaxos_core::request::{ReplyBody, RequestKind};
use gridpaxos_core::types::{Addr, ProcessId, Time};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one blocking receive.
pub enum RecvResult {
    /// A message arrived from `0` (the sender's address).
    Msg(Addr, Msg),
    /// The timeout elapsed.
    Timeout,
    /// The transport is closed; the node should exit.
    Closed,
}

/// A bidirectional message transport for one process.
pub trait Transport: Send {
    /// Send `msg` to `to`. Best-effort: delivery failures are dropped (the
    /// protocol's retransmissions and timeouts take care of recovery).
    fn send(&self, to: Addr, msg: Msg);
    /// Block for up to `timeout` waiting for the next message.
    fn recv_timeout(&self, timeout: Duration) -> RecvResult;
    /// This process's address.
    fn local_addr(&self) -> Addr;
}

/// Maximum sleep per loop iteration so stop flags are honored promptly.
const MAX_WAIT: Duration = Duration::from_millis(25);

/// Cap on messages drained through the core per flush cycle, so one
/// barrier never starves the outbox indefinitely under sustained load.
const MAX_DRAIN: usize = 128;

/// Fan a message out to every replica (optionally skipping `me`), moving
/// the original into the final send so an `n`-way broadcast pays `n - 1`
/// clones instead of `n`.
fn broadcast<T: Transport>(transport: &T, n: usize, me: Option<Addr>, msg: Msg) {
    let targets = (0..n)
        .map(|i| Addr::Replica(ProcessId(i as u32)))
        .filter(|to| Some(*to) != me);
    let mut pending: Option<Addr> = None;
    for to in targets {
        if let Some(prev) = pending.replace(to) {
            transport.send(prev, msg.clone());
        }
    }
    if let Some(last) = pending {
        transport.send(last, msg);
    }
}

/// Drives a [`Replica`] over a [`Transport`].
pub struct ReplicaNode<T: Transport> {
    replica: Replica,
    transport: T,
    epoch: Instant,
    timers: Timers,
    stop: Arc<AtomicBool>,
    /// Sends buffered during the current drain cycle.
    outbox: Outbox,
}

impl<T: Transport> ReplicaNode<T> {
    /// Wrap a replica and its transport. `stop` terminates the loop.
    pub fn new(replica: Replica, transport: T, stop: Arc<AtomicBool>) -> ReplicaNode<T> {
        ReplicaNode {
            replica,
            transport,
            epoch: Instant::now(),
            timers: Timers::new(1),
            stop,
            outbox: Outbox::default(),
        }
    }

    fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Interpret one handler invocation's actions. Sends are *buffered*,
    /// not transmitted: they leave when the cycle's outbox is released.
    fn apply(&mut self, actions: Vec<Action>) {
        let now = self.now();
        for a in actions {
            match a {
                Action::Send { to, msg } => self.outbox.push(Out::One(to, msg), &self.replica),
                Action::ToAllReplicas { msg } => self.outbox.push(Out::All(msg), &self.replica),
                Action::SetTimer { kind, after } => self.timers.set(0, kind, now.0 + after.0),
                Action::CancelTimer { kind } => self.timers.cancel(0, kind),
            }
        }
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = self.now();
            let Some((_, kind)) = self.timers.pop_due(now.0) else {
                return;
            };
            let actions = self.replica.on_timer(kind, now);
            self.apply(actions);
        }
    }

    fn handle(&mut self, from: Addr, msg: Msg) {
        let now = self.now();
        let actions = self.replica.on_message(from, msg, now);
        self.apply(actions);
    }

    /// Run until the stop flag is raised or the transport closes. Returns
    /// the replica (e.g. to inspect state in tests).
    ///
    /// Each cycle is one group-commit batch: block for the first message,
    /// then drain everything already queued (and all due timers) through
    /// the core, then [`release`] — `Accept`s, the group-commit barrier
    /// that makes every WAL record the batch appended durable with one
    /// `flush()`, then everything else.
    pub fn run(mut self) -> Replica {
        let start_actions = self.replica.on_start(self.now());
        self.apply(start_actions);
        release(&mut self);
        'outer: while !self.stop.load(Ordering::Relaxed) {
            self.fire_due_timers();
            // One incremental-checkpoint chunk per cycle: serialization
            // rides the drive loop in O(chunk) slices.
            self.replica.pump_checkpoint(1);
            release(&mut self);
            let wait = self
                .timers
                .next_due()
                .map(|due| Duration::from_nanos(due.saturating_sub(self.now().0)))
                .unwrap_or(MAX_WAIT)
                .min(MAX_WAIT);
            gridpaxos_core::sync::blocking("transport.recv_timeout");
            match self.transport.recv_timeout(wait) {
                RecvResult::Msg(from, msg) => {
                    self.handle(from, msg);
                    // Batched recv: everything already waiting joins this
                    // cycle's batch and shares its single flush below.
                    let mut drained = 1;
                    while drained < MAX_DRAIN {
                        match self.transport.recv_timeout(Duration::ZERO) {
                            RecvResult::Msg(from, msg) => {
                                self.handle(from, msg);
                                drained += 1;
                            }
                            RecvResult::Timeout => break,
                            RecvResult::Closed => {
                                release(&mut self);
                                break 'outer;
                            }
                        }
                    }
                    self.fire_due_timers();
                    release(&mut self);
                }
                RecvResult::Timeout => {}
                RecvResult::Closed => break,
            }
        }
        release(&mut self);
        // A clean stop leaves no chosen-prefix mark waiting for a barrier
        // that will never come, and no decree executed but not chosen in
        // the state it hands back.
        self.replica.stop();
        self.replica
    }
}

impl<T: Transport> Wire for ReplicaNode<T> {
    fn cores(&mut self) -> &mut [Replica] {
        std::slice::from_mut(&mut self.replica)
    }

    fn outbox(&mut self) -> &mut Outbox {
        &mut self.outbox
    }

    fn transmit(&mut self, outs: &mut Vec<Out>) {
        let me = self.transport.local_addr();
        let n = self.replica.config().n;
        for out in outs.drain(..) {
            match out {
                Out::One(to, msg) => self.transport.send(to, msg),
                Out::All(msg) => broadcast(&self.transport, n, Some(me), msg),
            }
        }
    }
}

/// Spawn a replica node on its own OS thread. Fails only if the OS
/// refuses to create the thread.
pub fn spawn_replica<T: Transport + 'static>(
    replica: Replica,
    transport: T,
    stop: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<Replica>> {
    std::thread::Builder::new()
        .name(format!("gridpaxos-{}", replica.id()))
        .spawn(move || ReplicaNode::new(replica, transport, stop).run())
}

/// A blocking client handle: one outstanding request, automatic
/// retransmission, synchronous call interface.
pub struct SyncClient<T: Transport> {
    core: ClientCore,
    transport: T,
    epoch: Instant,
    retry_deadline: Option<u64>,
    n: usize,
}

impl<T: Transport> SyncClient<T> {
    /// Wrap a client core and its transport. `n` is the replica count.
    pub fn new(core: ClientCore, transport: T, n: usize) -> SyncClient<T> {
        SyncClient {
            core,
            transport,
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
                Action::Send { to, msg } => self.transport.send(to, msg),
                Action::ToAllReplicas { msg } => {
                    broadcast(&self.transport, self.n, None, msg);
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

    /// Await the completion of the outstanding request.
    fn await_reply(&mut self, overall_deadline: Duration) -> Option<CompletedOp> {
        let started = Instant::now();
        loop {
            if started.elapsed() > overall_deadline {
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
            gridpaxos_core::sync::blocking("transport.recv_timeout");
            match self.transport.recv_timeout(wait) {
                RecvResult::Msg(_, msg) => {
                    let now = self.now();
                    let (done, actions) = self.core.on_message(msg, now);
                    self.apply(actions);
                    if done.is_some() {
                        return done;
                    }
                }
                RecvResult::Timeout => {}
                RecvResult::Closed => return None,
            }
        }
    }

    /// Issue one request and block for its reply (10 s overall deadline).
    pub fn call(&mut self, kind: RequestKind, payload: bytes::Bytes) -> Option<ReplyBody> {
        let now = self.now();
        let actions = self.core.submit_op(kind, payload, now);
        self.apply(actions);
        self.await_reply(Duration::from_secs(10))
            .map(|done| done.body)
    }

    /// Run a whole transaction and block until it commits or aborts.
    pub fn run_txn(&mut self, script: TxnScript) -> Option<TxnOutcome> {
        let txn = self.core.next_txn_id();
        let mut driver = TxnDriver::new(script, txn);
        loop {
            let now = self.now();
            let actions = driver.step(&mut self.core, now)?;
            self.apply(actions);
            let done = self.await_reply(Duration::from_secs(10))?;
            if let Some(outcome) = driver.on_complete(&done) {
                return Some(outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::Hub;
    use bytes::Bytes;
    use gridpaxos_core::ballot::Ballot;
    use gridpaxos_core::command::{Decree, SnapshotBlob};
    use gridpaxos_core::config::Config;
    use gridpaxos_core::request::ReplyBody;
    use gridpaxos_core::service::NoopApp;
    use gridpaxos_core::storage::{DurableState, MemStorage, Storage};
    use gridpaxos_core::types::{ClientId, Dur, Instance};
    use std::sync::atomic::AtomicU64;

    /// What one node did, in order: the tag of every message it handed to
    /// its transport, and `flush` for every barrier its disk ran.
    type NodeLog = Arc<std::sync::Mutex<Vec<&'static str>>>;

    /// [`Storage`] instrumentation: mirrors the dirty bit into a shared
    /// flag the transport wrapper below can observe, and logs its flushes.
    struct FlagStorage {
        inner: MemStorage,
        dirty: Arc<AtomicBool>,
        log: NodeLog,
    }

    impl Storage for FlagStorage {
        fn save_promised(&mut self, b: Ballot) {
            self.inner.save_promised(b);
            self.dirty.store(true, Ordering::SeqCst);
        }
        fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
            self.inner.save_accepted(i, b, d);
            self.dirty.store(true, Ordering::SeqCst);
        }
        fn save_chosen_prefix(&mut self, upto: Instance) {
            self.inner.save_chosen_prefix(upto);
            self.dirty.store(true, Ordering::SeqCst);
        }
        fn save_checkpoint(&mut self, snap: &SnapshotBlob) {
            self.inner.save_checkpoint(snap);
            self.dirty.store(true, Ordering::SeqCst);
        }
        fn truncate_upto(&mut self, upto: Instance) {
            self.inner.truncate_upto(upto);
        }
        fn load(&self) -> DurableState {
            self.inner.load()
        }
        fn flush(&mut self) {
            self.dirty.store(false, Ordering::SeqCst);
            self.log.lock().expect("log").push("flush");
        }
        fn is_dirty(&self) -> bool {
            self.dirty.load(Ordering::SeqCst)
        }
    }

    /// Transport instrumentation: every `Promise`/`Accepted` handed to the
    /// wire while the replica's storage is still dirty is a
    /// persist-before-send violation.
    struct GateTransport<T: Transport> {
        inner: T,
        dirty: Arc<AtomicBool>,
        gated_sends: Arc<AtomicU64>,
        violations: Arc<AtomicU64>,
    }

    impl<T: Transport> Transport for GateTransport<T> {
        fn send(&self, to: Addr, msg: Msg) {
            if matches!(msg, Msg::Promise { .. } | Msg::Accepted { .. }) {
                self.gated_sends.fetch_add(1, Ordering::SeqCst);
                if self.dirty.load(Ordering::SeqCst) {
                    self.violations.fetch_add(1, Ordering::SeqCst);
                }
            }
            self.inner.send(to, msg);
        }
        fn recv_timeout(&self, timeout: Duration) -> RecvResult {
            self.inner.recv_timeout(timeout)
        }
        fn local_addr(&self) -> Addr {
            self.inner.local_addr()
        }
    }

    /// Batch-granular persist-before-send: no `Promise`/`Accepted` frame
    /// may reach the transport before the `flush()` covering the record it
    /// acknowledges — the drive loop's outbox + barrier must guarantee it.
    #[test]
    fn no_promise_or_accepted_escapes_before_the_covering_flush() {
        let cfg = Config::cluster(3);
        let hub = Hub::new();
        let stop = Arc::new(AtomicBool::new(false));
        let gated = Arc::new(AtomicU64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..cfg.n {
            let id = ProcessId(i as u32);
            let dirty = Arc::new(AtomicBool::new(false));
            let storage = FlagStorage {
                inner: MemStorage::new(),
                dirty: Arc::clone(&dirty),
                log: NodeLog::default(),
            };
            let replica = Replica::new(
                id,
                cfg.clone(),
                Box::new(NoopApp::new()),
                Box::new(storage),
                41 + u64::from(id.0),
                Time::ZERO,
            );
            let transport = GateTransport {
                inner: hub.endpoint(Addr::Replica(id)),
                dirty,
                gated_sends: Arc::clone(&gated),
                violations: Arc::clone(&violations),
            };
            handles.push(spawn_replica(replica, transport, Arc::clone(&stop)).expect("spawn"));
        }

        let cid = ClientId(900);
        let core = ClientCore::new(cid, cfg.n, Dur::from_millis(200));
        let mut client = SyncClient::new(core, hub.endpoint(Addr::Client(cid)), cfg.n);
        for seq in 0..5u8 {
            let body = client
                .call(RequestKind::Write, Bytes::copy_from_slice(&[seq]))
                .expect("write completes");
            assert!(matches!(body, ReplyBody::Ok(_)), "got {body:?}");
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("replica thread");
        }
        assert!(
            gated.load(Ordering::SeqCst) > 0,
            "the workload must actually exercise Promise/Accepted sends"
        );
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "a Promise/Accepted frame reached the transport before its flush"
        );
    }

    /// Transport instrumentation: logs the tag of every message sent.
    struct LogTransport<T: Transport> {
        inner: T,
        log: NodeLog,
    }

    impl<T: Transport> Transport for LogTransport<T> {
        fn send(&self, to: Addr, msg: Msg) {
            self.log.lock().expect("log").push(msg.tag());
            self.inner.send(to, msg);
        }
        fn recv_timeout(&self, timeout: Duration) -> RecvResult {
            self.inner.recv_timeout(timeout)
        }
        fn local_addr(&self) -> Addr {
            self.inner.local_addr()
        }
    }

    /// One durable write leaves this loop as it leaves every drive loop:
    /// `outbox_conformance.txt` holds the steps. Threads show no step
    /// boundaries, so each node is held to its steps run together — what
    /// it sent and when its disk synced, in order.
    #[test]
    fn a_durable_write_leaves_the_node_as_it_leaves_every_loop() {
        // No heartbeat and no suspicion between the two writes.
        let mut cfg = Config::cluster(3);
        cfg.heartbeat_interval = Dur::from_secs(30);
        cfg.suspect_timeout = Dur::from_secs(60);
        let hub = Hub::new();
        let stop = Arc::new(AtomicBool::new(false));
        let logs: Vec<NodeLog> = (0..cfg.n).map(|_| NodeLog::default()).collect();
        let mut handles = Vec::new();
        for (i, log) in logs.iter().enumerate() {
            let id = ProcessId(i as u32);
            let storage = FlagStorage {
                inner: MemStorage::new(),
                dirty: Arc::default(),
                log: Arc::clone(log),
            };
            let replica = Replica::new(
                id,
                cfg.clone(),
                Box::new(NoopApp::new()),
                Box::new(storage),
                41 + u64::from(id.0),
                Time::ZERO,
            );
            let transport = LogTransport {
                inner: hub.endpoint(Addr::Replica(id)),
                log: Arc::clone(log),
            };
            handles.push(spawn_replica(replica, transport, Arc::clone(&stop)).expect("spawn"));
        }
        let cid = ClientId(900);
        let core = ClientCore::new(cid, cfg.n, Dur::from_secs(10));
        let mut client = SyncClient::new(core, hub.endpoint(Addr::Client(cid)), cfg.n);
        let mut write = || {
            let body = client.call(RequestKind::Write, Bytes::new());
            assert!(matches!(body, Some(ReplyBody::Ok(_))), "got {body:?}");
        };
        // The election, until every node has fallen silent; then a first
        // write, until each node has sent its last for it — the second
        // `Accepted` and the `Chosen`s still in flight cause no send.
        let settled = |log: &NodeLog| {
            let seen = log.lock().expect("log").len();
            std::thread::sleep(Duration::from_millis(50));
            seen > 0 && log.lock().expect("log").len() == seen
        };
        while !logs.iter().all(settled) {}
        write();
        let sent_its_last = |log: &NodeLog| {
            let log = log.lock().expect("log");
            log.contains(&"accepted") || log.iter().filter(|t| **t == "chosen").count() == 2
        };
        while !logs.iter().all(sent_its_last) {
            std::thread::sleep(Duration::from_millis(1));
        }
        for log in &logs {
            log.lock().expect("log").clear();
        }
        write();

        let golden = include_str!("../../core/src/outbox_conformance.txt");
        let deadline = Instant::now() + Duration::from_secs(10);
        for (i, log) in logs.iter().enumerate() {
            let node = format!("r{i}:");
            let steps = golden.lines().filter(|l| l.starts_with(&node));
            let expect: Vec<&str> = steps
                .flat_map(|l| l[node.len()..].split_whitespace())
                .filter(|token| !matches!(*token, "|" | "-"))
                .collect();
            while log.lock().expect("log").len() < expect.len() {
                assert!(Instant::now() < deadline, "r{i} sent {log:?}");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(*log.lock().expect("log"), expect, "r{i}");
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("replica thread");
        }
    }
}
