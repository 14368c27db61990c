//! Deterministic cluster harness: the model checker's transition system.
//!
//! A [`Cluster`] hosts one single-group [`Node`] per live process — the
//! node the reactor and the simulator host, real [`Replica`] inside —
//! plus everything the environment normally supplies: the network (a set
//! of pending messages, and the cluster is the nodes' [`Net`]), the clock
//! (advanced only by timer firings) and the clients (a scripted sequence
//! of requests). Every nondeterministic decision the environment could
//! make is reified as a [`Choice`]; applying a choice is a deterministic
//! transition, so a schedule (a sequence of choice indices) replays
//! exactly. The explorer enumerates schedules; the harness also records
//! the client-visible history ([`Observations`]) that the invariant
//! layer checks.
//!
//! A step is one cycle of a drive loop, and atomic: the node delivers or
//! fires, releases its sends over the cluster with the barrier synced in
//! place, and the timer operations the step returned are armed. So the
//! covering flush barrier is over before the step's messages (all but
//! its `Accept`s) are in the network and before the replica's next step
//! — the checker explores exactly the states group commit can reach. A
//! crash inside the release is its own choice ([`Choice::PowerCut`]):
//! the cluster keeps the barrier the node lends and hands it back
//! unsynced, so the ahead list is out and nothing else.
//!
//! Timer liveness uses the same generation scheme as the simulator,
//! via the shared [`gridpaxos_simnet::sched::TimerGens`] utility: stale
//! firings (superseded or cancelled) are garbage-collected eagerly so
//! they never appear as choices.

use crate::app::{decode_mask, CheckerApp};
use crate::scenario::{ClientOp, Scenario};
use gridpaxos_core::action::TimerKind;
use gridpaxos_core::config::Config;
use gridpaxos_core::msg::Msg;
use gridpaxos_core::node::{Inbox, Net, Node, TimerOp, TimerOps};
use gridpaxos_core::outbox::{Lent, Out};
use gridpaxos_core::replica::Replica;
use gridpaxos_core::request::{ReplyBody, Request, RequestId, RequestKind};
use gridpaxos_core::service::App;
use gridpaxos_core::storage::{MemStorage, NodeStorage, Storage, TailLossStorage};
use gridpaxos_core::types::{Addr, ClientId, Dur, GroupId, Instance, ProcessId, Seq, Time, TxnId};
use gridpaxos_simnet::sched::TimerGens;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Which environment nondeterminism the explorer may exercise.
#[derive(Clone, Copy, Debug, Default)]
pub struct HarnessOpts {
    /// Allow dropping pending messages (message loss).
    pub drops: bool,
    /// Allow duplicating pending messages (at most once per message).
    pub dups: bool,
    /// Leader crashes the explorer may inject.
    pub crashes: u32,
    /// Allow crashed replicas to recover.
    pub recovers: bool,
    /// Allow client retransmission of outstanding requests (drives the
    /// dedup path and forces epoch-confirm rounds).
    pub retransmits: bool,
    /// Allow a crash to fall *inside* a step's release
    /// ([`Choice::PowerCut`], [`Choice::InjectPowerCut`]): what the drive
    /// loops send ahead of the flush barrier is out, the barrier never
    /// returned, and the disk holds what the previous one covered.
    /// Spends from `crashes`; replicas run on tail-loss disks.
    pub power_cuts: bool,
}

/// A pending environment event.
#[derive(Clone, Debug)]
enum Event {
    /// An in-flight message addressed to replica `to`.
    Msg {
        from: Addr,
        to: ProcessId,
        msg: Msg,
        /// How many times this message has been duplicated already.
        dups: u32,
    },
    /// A pending timer firing (live iff its generation still is).
    Timer {
        on: ProcessId,
        kind: TimerKind,
        gen: u64,
        due: Time,
    },
}

/// One environment decision, by current position in the event list.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// Deliver pending message event `i`.
    Deliver(usize),
    /// Drop pending message event `i`.
    Drop(usize),
    /// Duplicate pending message event `i` (it stays pending).
    Duplicate(usize),
    /// Fire pending timer event `i`.
    Fire(usize),
    /// Inject the next scripted client request.
    Inject,
    /// Retransmit already-injected request `k` (client retry).
    Retransmit(usize),
    /// Crash the current leader.
    CrashLeader,
    /// Recover crashed replica `r`.
    Recover(u32),
    /// Deliver pending message event `i` and cut its receiver's power
    /// between the two halves of the release: the step's `Accept`s are
    /// out, its barrier never returned.
    PowerCut(usize),
    /// [`Choice::Inject`], with the power cut on the replica that took
    /// the request.
    InjectPowerCut,
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Deliver(i) => write!(f, "deliver#{i}"),
            Choice::Drop(i) => write!(f, "drop#{i}"),
            Choice::Duplicate(i) => write!(f, "dup#{i}"),
            Choice::Fire(i) => write!(f, "fire#{i}"),
            Choice::Inject => write!(f, "inject"),
            Choice::Retransmit(k) => write!(f, "retransmit#{k}"),
            Choice::CrashLeader => write!(f, "crash-leader"),
            Choice::Recover(r) => write!(f, "recover#{r}"),
            Choice::PowerCut(i) => write!(f, "power-cut#{i}"),
            Choice::InjectPowerCut => write!(f, "inject-power-cut"),
        }
    }
}

/// What one injected scripted request tracks for the invariant layer.
#[derive(Clone, Debug)]
pub struct Issued {
    /// The request as injected (used for retransmission).
    pub req: Request,
    /// The scripted operation it came from.
    pub op: ClientOp,
    /// Bits of writes/commits *acked* before this request was issued —
    /// and, outside follower-read mode, bits a completed read saw (the
    /// linearizability lower bound for reads).
    pub acked_at_issue: u64,
    /// First reply body observed, to cross-check duplicate replies.
    pub first_reply: Option<ReplyBody>,
}

/// Client-visible history, accumulated as replies arrive.
#[derive(Clone, Debug, Default)]
pub struct Observations {
    /// Bits of every injected write / txn operation so far.
    pub issued_bits: u64,
    /// Bits of every *acknowledged* write and committed transaction.
    pub acked_bits: u64,
    /// Bits per transaction (full scripted set).
    pub txn_bits: HashMap<TxnId, u64>,
    /// Bits of transactions observed aborted — must never surface.
    pub aborted_bits: u64,
    /// The client session's read watermark (follower-read extension):
    /// the highest reply watermark accepted so far. Read replies below it
    /// are discarded, exactly as the real client session layer does.
    pub session_watermark: Instance,
    /// Union of every mask an *accepted* read observed — the floor the
    /// session monotonic-reads guarantee holds future reads to, and a
    /// linearizable read issued after those reads completed.
    pub read_mask_floor: u64,
    /// Follower-read replies discarded as stale (observability for the
    /// self-tests; a discard is not a violation, the client just retries).
    pub stale_read_replies: u64,
    /// A violation found while recording a reply (reported by the step).
    pub violation: Option<String>,
}

/// The model-checking cluster (see module docs).
pub struct Cluster {
    /// One single-group node per process, `None` while crashed.
    nodes: Vec<Option<Node>>,
    /// The scenario's config, which every incarnation runs.
    cfg: Config,
    /// Detached storages of crashed replicas, keyed by index.
    crashed: Vec<Option<Box<dyn NodeStorage>>>,
    events: Vec<Event>,
    timers: TimerGens<(u32, TimerKind)>,
    now: Time,
    opts: HarnessOpts,
    crashes_left: u32,
    script: Vec<ClientOp>,
    next_inject: usize,
    issued: Vec<Issued>,
    /// Request-id → index into `issued`.
    by_id: HashMap<RequestId, usize>,
    /// Client-visible history.
    pub obs: Observations,
    /// Whether the scenario runs in bounded-staleness follower-read mode
    /// (routes reads to a follower, arms the session-watermark emulation).
    follower_mode: bool,
    /// Per-replica clock offset added to the global clock before it is
    /// handed to a replica: bounded clock skew, constant per incarnation.
    skew: Vec<Dur>,
    /// Seeded mutation: replicas (by index, until they crash) whose
    /// follower-read replies the wire tags with the leader's watermark.
    chaos_inflated: Vec<bool>,
    /// Seeded mutation: replicas whose clock stands at the first time
    /// until the global clock reaches the second.
    chaos_stopped: Vec<Option<(Time, Time)>>,
    /// Seeded mutation: every promise leaves naming chosen prefix 0.
    chaos_hidden_prefix: bool,
    /// The service every incarnation runs: [`CheckerApp`], or a mutation
    /// of it ([`Cluster::with_app`]).
    app: fn() -> Box<dyn App>,
    /// The replica whose step is being released: the sender of what the
    /// network is handed.
    stepping: ProcessId,
    /// The watermark [`Cluster::chaos_inflate_read_watermark`] tags the
    /// stepping replica's replies with, if it lies.
    inflated_to: Option<Instance>,
    /// Whether the power fails inside the release in progress: the
    /// barrier it lends is kept here, and comes back unsynced.
    power_cut: bool,
    lent: Option<Lent>,
}

const CLIENT: ClientId = ClientId(1);

impl Cluster {
    /// Build the scenario's initial state: replicas constructed and
    /// started, bootstrap-election traffic pending in the network.
    #[must_use]
    pub fn new(scenario: &Scenario) -> Cluster {
        Cluster::with_app(scenario, || Box::new(CheckerApp::new()))
    }

    /// [`Cluster::new`] with every incarnation running `app` — a seeded
    /// mutation of [`CheckerApp`] for the self-tests.
    #[must_use]
    pub fn with_app(scenario: &Scenario, app: fn() -> Box<dyn App>) -> Cluster {
        let disk = if scenario.opts.power_cuts {
            || Box::new(TailLossStorage::default()) as Box<dyn Storage>
        } else {
            || Box::new(MemStorage::new()) as Box<dyn Storage>
        };
        Cluster::build(scenario, app, disk)
    }

    /// [`Cluster::new`] with every replica starting on a disk `disk`
    /// makes — a seeded mutation of the disk for the self-tests. In a
    /// scenario with power cuts a recovered replica reads what it held
    /// onto an honest [`TailLossStorage`]; in any other, it recovers on
    /// the disk it crashed with.
    #[must_use]
    pub fn on_disks(scenario: &Scenario, disk: fn() -> Box<dyn Storage>) -> Cluster {
        Cluster::build(scenario, || Box::new(CheckerApp::new()), disk)
    }

    fn build(
        scenario: &Scenario,
        app: fn() -> Box<dyn App>,
        disk: fn() -> Box<dyn Storage>,
    ) -> Cluster {
        let n = scenario.cfg.n;
        let mut obs = Observations::default();
        for op in &scenario.script {
            if let ClientOp::TxnOp(txn, bit) = op {
                *obs.txn_bits.entry(*txn).or_insert(0) |= 1u64 << (bit % 64);
            }
        }
        let mut cl = Cluster {
            nodes: Vec::with_capacity(n),
            cfg: scenario.cfg.clone(),
            crashed: (0..n).map(|_| None).collect(),
            events: Vec::new(),
            timers: TimerGens::new(),
            now: Time::ZERO,
            opts: scenario.opts,
            crashes_left: scenario.opts.crashes,
            script: scenario.script.clone(),
            next_inject: 0,
            issued: Vec::new(),
            by_id: HashMap::new(),
            obs,
            follower_mode: scenario.cfg.reads.follower_reads(),
            skew: (0..n)
                .map(|i| Dur::from_millis(scenario.clock_skew_ms.get(i).copied().unwrap_or(0)))
                .collect(),
            chaos_inflated: vec![false; n],
            chaos_stopped: vec![None; n],
            chaos_hidden_prefix: false,
            app,
            stepping: ProcessId(0),
            inflated_to: None,
            power_cut: false,
            lent: None,
        };
        for i in 0..n {
            let id = ProcessId(i as u32);
            let (cfg, now) = (scenario.cfg.clone(), cl.local_now(i));
            let disk = Box::new(vec![disk()]);
            let node = Node::open(id, cfg, disk, &|_| app(), 0x5eed + i as u64, now);
            cl.nodes.push(Some(node));
        }
        for i in 0..n {
            cl.step(i, false, |node, now, timers| node.start(now, timers));
        }
        cl
    }

    /// Number of replicas.
    #[must_use]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Current logical time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Replica `i`'s view of the clock: the global clock plus its
    /// scenario-configured constant skew, or where it stands while
    /// stopped ([`Cluster::chaos_stop_clock`]). Global time only moves
    /// forward, so each replica's clock stays monotone.
    fn local_now(&self, i: usize) -> Time {
        match self.chaos_stopped[i] {
            Some((at, until)) if self.now < until => at,
            _ => self.now.after(self.skew[i]),
        }
    }

    /// Immutable access to live replica `i` (None while crashed).
    #[must_use]
    pub fn replica(&self, i: usize) -> Option<&Replica> {
        self.nodes.get(i)?.as_ref()?.group(GroupId::ZERO)
    }

    /// Index of the current leader, if exactly one live replica leads.
    #[must_use]
    pub fn leader(&self) -> Option<usize> {
        let mut leader = None;
        for i in 0..self.n() {
            if self.replica(i).is_some_and(Replica::is_leader) {
                if leader.is_some() {
                    return None; // transient dual leadership: ambiguous
                }
                leader = Some(i);
            }
        }
        leader
    }

    /// Order-independent fingerprint of the whole system state (replicas,
    /// network, clients), for visited-set pruning. Time is deliberately
    /// excluded (see [`Replica::fingerprint`]); pending timer events are
    /// reduced to their (owner, kind, relative order) shape.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for i in 0..self.n() {
            match self.replica(i) {
                Some(r) => (1u8, r.fingerprint()).hash(&mut h),
                None => (0u8, i as u64).hash(&mut h),
            }
        }
        // The pending-event multiset. Message order in the vec matters to
        // choice numbering but not to reachable states (any pending message
        // can be picked at any step), so hash a sorted view.
        let mut evs: Vec<u64> = self
            .events
            .iter()
            .map(|e| {
                let mut eh = std::collections::hash_map::DefaultHasher::new();
                match e {
                    Event::Msg {
                        from,
                        to,
                        msg,
                        dups,
                    } => {
                        (0u8, from, to, msg, dups).hash(&mut eh);
                    }
                    Event::Timer { on, kind, .. } => (1u8, on, kind).hash(&mut eh),
                }
                eh.finish()
            })
            .collect();
        evs.sort_unstable();
        evs.hash(&mut h);
        self.next_inject.hash(&mut h);
        self.crashes_left.hash(&mut h);
        (
            self.obs.issued_bits,
            self.obs.acked_bits,
            self.obs.aborted_bits,
            self.obs.session_watermark,
            self.obs.read_mask_floor,
        )
            .hash(&mut h);
        h.finish()
    }

    /// Enumerate every choice available in the current state, in a
    /// deterministic order.
    #[must_use]
    pub fn choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            match e {
                Event::Msg { dups, .. } => {
                    out.push(Choice::Deliver(i));
                    if self.opts.drops {
                        out.push(Choice::Drop(i));
                    }
                    if self.opts.dups && *dups == 0 {
                        out.push(Choice::Duplicate(i));
                    }
                }
                Event::Timer { .. } => out.push(Choice::Fire(i)),
            }
        }
        if self.next_inject < self.script.len() {
            out.push(Choice::Inject);
        }
        if self.opts.retransmits {
            for (k, iss) in self.issued.iter().enumerate() {
                if iss.first_reply.is_none() {
                    out.push(Choice::Retransmit(k));
                }
            }
        }
        if self.crashes_left > 0 && self.leader().is_some() {
            out.push(Choice::CrashLeader);
        }
        if self.opts.power_cuts && self.crashes_left > 0 {
            for (i, e) in self.events.iter().enumerate() {
                if matches!(e, Event::Msg { .. }) {
                    out.push(Choice::PowerCut(i));
                }
            }
            if self.next_inject < self.script.len() {
                out.push(Choice::InjectPowerCut);
            }
        }
        if self.opts.recovers {
            for (i, s) in self.crashed.iter().enumerate() {
                if s.is_some() {
                    out.push(Choice::Recover(i as u32));
                }
            }
        }
        out
    }

    /// Apply one choice. Returns an invariant violation detected *during*
    /// the transition (reply-history checks), if any; structural
    /// invariants are checked separately by [`crate::invariants`].
    pub fn apply(&mut self, choice: Choice) -> Option<String> {
        self.obs.violation = None;
        match choice {
            Choice::Deliver(i) | Choice::PowerCut(i) => {
                let Event::Msg { from, to, msg, .. } = self.events.remove(i) else {
                    return Some(format!("schedule error: {choice:?} on a timer event"));
                };
                self.deliver(from, to, msg, matches!(choice, Choice::PowerCut(_)));
            }
            Choice::Drop(i) => {
                self.events.remove(i);
            }
            Choice::Duplicate(i) => {
                let Event::Msg {
                    from,
                    to,
                    msg,
                    dups,
                } = &mut self.events[i]
                else {
                    return Some("schedule error: Duplicate on a timer event".into());
                };
                *dups += 1;
                let (from, to, msg) = (*from, *to, msg.clone());
                self.events.push(Event::Msg {
                    from,
                    to,
                    msg,
                    dups: 1,
                });
            }
            Choice::Fire(i) => {
                let Event::Timer { on, kind, gen, due } = self.events.remove(i) else {
                    return Some("schedule error: Fire on a message event".into());
                };
                // Firing never moves the clock backwards.
                self.now = self.now.max(due);
                if self.timers.is_live(&(on.0, kind), gen) {
                    self.timers.cancel((on.0, kind)); // fired = consumed
                    self.step(on.0 as usize, false, |node, now, timers| {
                        node.fire(GroupId::ZERO, kind, now, timers);
                    });
                }
            }
            Choice::Inject => self.inject_next(None, false),
            Choice::InjectPowerCut => self.inject_next(None, true),
            Choice::Retransmit(k) => {
                let req = self.issued.get(k)?.req.clone();
                if let Some(target) = self.inject_target() {
                    self.deliver(
                        Addr::Client(CLIENT),
                        ProcessId(target as u32),
                        Msg::Request(req),
                        false,
                    );
                }
            }
            Choice::CrashLeader => {
                if let Some(i) = self.leader() {
                    self.crash(i);
                    self.crashes_left -= 1;
                }
            }
            Choice::Recover(r) => self.recover(r as usize),
        }
        self.obs.violation.take()
    }

    /// The replica a client would currently send to: the leader if one is
    /// known, else the lowest-id live replica.
    fn inject_target(&self) -> Option<usize> {
        self.leader()
            .or_else(|| self.nodes.iter().position(Option::is_some))
    }

    /// Where a specific request goes: plain reads in follower-read mode
    /// route to the highest-id live replica (the scripted client's
    /// "nearest" follower under bootstrap leader 0); everything else — and
    /// every retransmission, modelling the client's broadcast retry
    /// reaching the leader — goes to [`Self::inject_target`].
    fn inject_target_for(&self, req: &Request) -> Option<usize> {
        if self.follower_mode && req.kind == RequestKind::Read && req.txn.is_none() {
            return self.nodes.iter().rposition(Option::is_some);
        }
        self.inject_target()
    }

    fn inject_next(&mut self, target: Option<usize>, power_cut: bool) {
        let Some(op) = self.script.get(self.next_inject).cloned() else {
            return;
        };
        self.next_inject += 1;
        let seq = Seq(self.next_inject as u64);
        let id = RequestId::new(CLIENT, seq);
        let req = match op {
            ClientOp::Write(bit) => Request::new(
                id,
                RequestKind::Write,
                bytes::Bytes::copy_from_slice(&[bit]),
            ),
            ClientOp::Read => Request::new(id, RequestKind::Read, bytes::Bytes::new()),
            ClientOp::TxnOp(txn, bit) => Request::txn_op(
                id,
                RequestKind::Write,
                txn,
                bytes::Bytes::copy_from_slice(&[bit]),
            ),
            ClientOp::TxnCommit(txn, n_ops) => Request::txn_commit(id, txn, n_ops),
            ClientOp::TxnAbort(txn) => Request::txn_abort(id, txn),
        };
        match op {
            ClientOp::Write(bit) | ClientOp::TxnOp(_, bit) => {
                self.obs.issued_bits |= 1u64 << (bit % 64);
            }
            _ => {}
        }
        self.by_id.insert(id, self.issued.len());
        self.issued.push(Issued {
            req: req.clone(),
            op,
            // A linearizable read sees what was acknowledged before it
            // was issued, and what a read that completed before then saw.
            acked_at_issue: if self.follower_mode {
                self.obs.acked_bits
            } else {
                self.obs.acked_bits | self.obs.read_mask_floor
            },
            first_reply: None,
        });
        if let Some(target) = target.or_else(|| self.inject_target_for(&req)) {
            self.deliver(
                Addr::Client(CLIENT),
                ProcessId(target as u32),
                Msg::Request(req),
                power_cut,
            );
        }
    }

    /// Inject the next scripted operation at an explicit replica — models
    /// a client whose leader hint names `target` (the real client unicasts
    /// to its per-group hint). For the orchestrated self-tests; the
    /// explorer's [`Choice::Inject`] routes automatically. Returns a
    /// violation detected while observing replies, if any.
    pub fn inject_to(&mut self, target: usize) -> Option<String> {
        self.obs.violation = None;
        self.inject_next(Some(target), false);
        self.obs.violation.take()
    }

    /// One step of replica `to`: the message delivered, and the release.
    /// With `power_cut` the replica dies inside the release (see
    /// [`Cluster::step`]).
    fn deliver(&mut self, from: Addr, to: ProcessId, msg: Msg, power_cut: bool) {
        self.step(to.0 as usize, power_cut, |node, now, timers| {
            node.deliver(from, msg, now, timers);
        });
    }

    /// One atomic step of live replica `idx` — `run` on its node, then
    /// the release, then its timers armed — or nothing if it is crashed
    /// (a delivery to it is consumed: the wire dropped it). With
    /// `power_cut` the replica dies inside the release: of a step that
    /// made a barrier due only what leaves ahead of the barrier got out,
    /// and the disk keeps what the previous barrier covered.
    fn step(
        &mut self,
        idx: usize,
        power_cut: bool,
        run: impl FnOnce(&mut Node, Time, &mut TimerOps),
    ) {
        let Some(mut node) = self.nodes[idx].take() else {
            return;
        };
        let leads = |node: &Node| node.group(GroupId::ZERO).is_some_and(Replica::is_leader);
        let was_leader = leads(&node);
        let mut timers = TimerOps::new();
        run(&mut node, self.local_now(idx), &mut timers);
        if !was_leader && leads(&node) {
            // §3.6 single-message gap-closing: the new leader recovers
            // every non-contiguous instance with at most one Accept
            // broadcast.
            let accepts = node
                .sends()
                .filter(|out| matches!(out.msg(), Msg::Accept { .. }))
                .count();
            if accepts > 1 {
                self.obs.violation = Some(format!(
                    "gap-closing: new leader r{idx} issued {accepts} Accept \
                     messages on takeover (expected at most one batch)"
                ));
            }
        }
        let lies = self.chaos_inflated[idx];
        let liar = node.group(GroupId::ZERO).filter(|r| lies && !r.is_leader());
        self.inflated_to = liar.map(Replica::leader_commit);
        self.stepping = ProcessId(idx as u32);
        self.power_cut = power_cut;
        node.release(self);
        if let Some(lent) = self.lent.take() {
            node.barrier_back(lent, self, &mut Inbox::new());
        }
        self.nodes[idx] = Some(node);
        if power_cut {
            self.crash(idx);
            self.crashes_left -= 1;
        } else {
            self.arm_timers(idx, timers);
        }
    }

    fn crash(&mut self, idx: usize) {
        let Some(node) = self.nodes[idx].take() else {
            return;
        };
        self.chaos_inflated[idx] = false;
        let mut disk = node.into_storage();
        self.crashed[idx] = Some(if self.opts.power_cuts {
            // What a recovering process reads: the last barrier's state.
            let state = disk.group(GroupId::ZERO).load();
            Box::new(vec![
                Box::new(TailLossStorage::holding(state)) as Box<dyn Storage>
            ])
        } else {
            disk
        });
        // The crash destroys the replica's volatile timers and any
        // messages still addressed to it.
        self.events.retain(|e| match e {
            Event::Msg { to, .. } => to.0 as usize != idx,
            Event::Timer { on, .. } => on.0 as usize != idx,
        });
        self.timers.retain(|(owner, _), _| *owner as usize != idx);
    }

    fn recover(&mut self, idx: usize) {
        let Some(storage) = self.crashed[idx].take() else {
            return;
        };
        // Recovered incarnations must not re-bootstrap an election.
        let mut cfg = self.cfg.clone();
        cfg.bootstrap_leader = None;
        let (id, now, app) = (ProcessId(idx as u32), self.local_now(idx), self.app);
        let node = Node::recover(id, cfg, storage, &|_| app(), 0xdead + idx as u64, now);
        self.nodes[idx] = Some(node);
        self.step(idx, false, |node, now, timers| node.start(now, timers));
    }

    /// Apply the timer operations replica `idx`'s step made, in order.
    fn arm_timers(&mut self, idx: usize, timers: TimerOps) {
        let on = ProcessId(idx as u32);
        for (_, op) in timers {
            match op {
                TimerOp::Set(kind, after) => {
                    let gen = self.timers.arm((on.0, kind));
                    // GC the superseded firing so stale timers never
                    // inflate the choice set.
                    self.gc_timers();
                    self.events.push(Event::Timer {
                        on,
                        kind,
                        gen,
                        due: self.now.after(after),
                    });
                }
                TimerOp::Cancel(kind) => {
                    self.timers.cancel((on.0, kind));
                    self.gc_timers();
                }
            }
        }
    }

    fn gc_timers(&mut self) {
        let timers = &self.timers;
        self.events.retain(|e| match e {
            Event::Msg { .. } => true,
            Event::Timer { on, kind, gen, .. } => timers.is_live(&(on.0, *kind), *gen),
        });
    }

    fn push_msg(&mut self, from: Addr, to: ProcessId, msg: Msg) {
        // Messages to crashed replicas are dropped at send time; the
        // crash already severed the wire.
        if self.nodes[to.0 as usize].is_some() {
            self.events.push(Event::Msg {
                from,
                to,
                msg,
                dups: 0,
            });
        }
    }

    /// Record a client-visible reply and check the history invariants
    /// that are best verified at observation time.
    fn observe_reply(&mut self, msg: &Msg) {
        let Msg::Reply(reply) = msg else { return };
        let Some(&k) = self.by_id.get(&reply.id) else {
            return;
        };
        let iss = &self.issued[k];
        match &reply.body {
            ReplyBody::Ok(payload) => {
                match iss.op {
                    // Follower-read mode: emulate the client session layer.
                    // A reply tagged below the session watermark is
                    // discarded — the request stays outstanding and the
                    // retry (broadcast, reaching the leader) answers it.
                    // Accepted replies must honor the session guarantees.
                    ClientOp::Read if self.follower_mode => {
                        if reply.watermark < self.obs.session_watermark {
                            self.obs.stale_read_replies += 1;
                            return;
                        }
                        if let Some(mask) = decode_mask(payload) {
                            if let Some(v) = crate::invariants::check_session_read(
                                mask,
                                iss.acked_at_issue,
                                self.obs.read_mask_floor,
                                &self.obs,
                            ) {
                                self.obs.violation = Some(format!("read {}: {v}", reply.id));
                            }
                            self.obs.read_mask_floor |= mask;
                        }
                        self.obs.session_watermark =
                            self.obs.session_watermark.max(reply.watermark);
                    }
                    ClientOp::Read => {
                        if let Some(mask) = decode_mask(payload) {
                            if let Some(v) = crate::invariants::check_read_mask(
                                mask,
                                iss.acked_at_issue,
                                &self.obs,
                            ) {
                                self.obs.violation = Some(format!("read {}: {v}", reply.id));
                            }
                            self.obs.read_mask_floor |= mask;
                        }
                    }
                    ClientOp::Write(bit) => {
                        self.obs.acked_bits |= 1u64 << (bit % 64);
                        // The ack's watermark covers the write: the session
                        // read watermark advances so later follower reads
                        // cannot travel back past it (read-your-writes).
                        self.obs.session_watermark =
                            self.obs.session_watermark.max(reply.watermark);
                    }
                    // A txn op's Ok only acknowledges staging, not commit.
                    _ => {}
                }
                // Duplicate replies to the same mutation must agree (the
                // dedup table's contract). Reads may legitimately observe
                // newer state on re-execution.
                if !matches!(iss.op, ClientOp::Read) {
                    if let Some(first) = &iss.first_reply {
                        if first != &reply.body {
                            self.obs.violation = Some(format!(
                                "dedup: request {} answered twice with different \
                                 replies ({first:?} vs {:?})",
                                reply.id, reply.body
                            ));
                        }
                    }
                }
            }
            ReplyBody::TxnCommitted { txn } => {
                let bits = self.obs.txn_bits.get(txn).copied().unwrap_or(0);
                if self.obs.aborted_bits & bits != 0 {
                    self.obs.violation = Some(format!(
                        "txn {txn:?} committed after it was observed aborted"
                    ));
                }
                self.obs.acked_bits |= bits;
            }
            ReplyBody::TxnAborted { txn, .. } => {
                let bits = self.obs.txn_bits.get(txn).copied().unwrap_or(0);
                if self.obs.acked_bits & bits == bits && bits != 0 {
                    self.obs.violation = Some(format!(
                        "txn {txn:?} aborted after it was observed committed"
                    ));
                } else {
                    self.obs.aborted_bits |= bits;
                }
            }
            ReplyBody::Empty => {}
            // Transport-level shed: the request never reached the
            // protocol, so there is nothing to check (the model checker
            // has no admission gate anyway).
            ReplyBody::Busy => {}
            // 2PC prepare votes: the single-group model checker issues no
            // cross-shard transactions, and the dedicated txn2pc harness
            // checks the 2PC invariants.
            ReplyBody::TxnPrepared { .. } => {}
        }
        let first = &mut self.issued[k].first_reply;
        if first.is_none() {
            *first = Some(reply.body.clone());
        }
    }

    /// Seeded mutation of the wire: from now on replica `i`'s follower-read
    /// replies leave tagged with the leader's commit watermark instead of
    /// its own applied prefix — freshness it does not have, so the session
    /// logic accepts replies that may miss the client's own writes (the
    /// session invariant must fire). Returns whether the replica is live.
    pub fn chaos_inflate_read_watermark(&mut self, i: usize) -> bool {
        self.chaos_inflated[i] = self.nodes[i].is_some();
        self.chaos_inflated[i]
    }

    /// Seeded mutation of the clock: replica `i`'s clock stands still
    /// until the global clock has moved `extra` on — drift past any bound,
    /// which the lease-duration argument for linearizable lease reads
    /// assumes away. Returns whether the replica is live.
    pub fn chaos_stop_clock(&mut self, i: usize, extra: Dur) -> bool {
        self.chaos_stopped[i] = Some((self.local_now(i), self.now.after(extra)));
        self.nodes[i].is_some()
    }

    /// Seeded mutation of the wire: from now on every promise leaves
    /// naming chosen prefix 0, so a candidate behind its majority leads at
    /// once instead of pulling up to the promisers' prefix first, and
    /// proposes over chosen decrees (the agreement invariant must fire).
    pub fn chaos_hide_promised_prefix(&mut self) {
        self.chaos_hidden_prefix = true;
    }

    /// Index of the pending timer event for (`on`, `kind`), if one exists
    /// (orchestrated self-tests; feed the index to [`Choice::Fire`]).
    #[must_use]
    pub fn pending_timer(&self, on: u32, kind: TimerKind) -> Option<usize> {
        self.events.iter().position(
            |e| matches!(e, Event::Timer { on: o, kind: k, .. } if o.0 == on && *k == kind),
        )
    }

    /// Index of the first pending message to replica `to` matching `pred`
    /// (orchestrated self-tests; feed the index to [`Choice::Deliver`]).
    #[must_use]
    pub fn pending_msg(&self, to: u32, pred: impl Fn(&Msg) -> bool) -> Option<usize> {
        self.events
            .iter()
            .position(|e| matches!(e, Event::Msg { to: t, msg, .. } if t.0 == to && pred(msg)))
    }
}

impl Net for Cluster {
    /// Into the network: pending events for replicas, the observed
    /// history for the client.
    fn transmit(&mut self, outs: &mut Vec<Out>) {
        let from = self.stepping;
        for out in outs.drain(..) {
            match out {
                Out::One(Addr::Replica(p), mut msg) => {
                    let hide = self.chaos_hidden_prefix;
                    if let (true, Msg::Promise { chosen_prefix, .. }) = (hide, &mut msg) {
                        *chosen_prefix = Instance::ZERO;
                    }
                    self.push_msg(Addr::Replica(from), p, msg);
                }
                Out::One(Addr::Client(_), mut msg) => {
                    if let (Some(to), Msg::Reply(reply)) = (self.inflated_to, &mut msg) {
                        reply.watermark = reply.watermark.max(to);
                    }
                    self.observe_reply(&msg);
                }
                Out::All(msg) => {
                    for i in 0..self.n() {
                        let p = ProcessId(i as u32);
                        if p != from {
                            self.push_msg(Addr::Replica(from), p, msg.clone());
                        }
                    }
                }
            }
        }
    }

    /// A barrier the power fails at is kept, never synced.
    fn lend(&mut self, lent: Lent) -> Result<(), Lent> {
        if !self.power_cut {
            return Err(lent);
        }
        self.lent = Some(lent);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::smoke_scenarios;

    /// The power-cut scenario, a leader elected, with room for the cut
    /// and a crash to compare it with.
    fn cluster() -> Cluster {
        let base = smoke_scenarios()
            .into_iter()
            .find(|s| s.name == "accept-ahead-power-cut")
            .expect("scenario");
        let opts = HarnessOpts {
            crashes: 2,
            ..base.opts
        };
        let mut cl = Cluster::new(&Scenario { opts, ..base });
        while cl.leader().is_none() {
            let mut choices = cl.choices().into_iter();
            let next = choices.find(|c| matches!(c, Choice::Deliver(_)));
            assert_eq!(cl.apply(next.expect("election traffic")), None);
        }
        cl
    }

    /// The choice that runs script step `k` of one durable write: the
    /// request at the leader, its `Accept` at each follower, the first
    /// `Accepted` back at the leader.
    fn choice(cl: &Cluster, k: usize, power_cut: bool) -> (usize, Choice) {
        let pending = |to: u32, accept: bool| {
            let tag = if accept { "accept" } else { "accepted" };
            cl.pending_msg(to, |m| m.tag() == tag).expect("pending")
        };
        let (on, at) = match k {
            0 => (0, None),
            1 => (1, Some(pending(1, true))),
            2 => (2, Some(pending(2, true))),
            _ => (0, Some(pending(0, false))),
        };
        let choice = match (at, power_cut) {
            (None, false) => Choice::Inject,
            (None, true) => Choice::InjectPowerCut,
            (Some(i), false) => Choice::Deliver(i),
            (Some(i), true) => Choice::PowerCut(i),
        };
        (on, choice)
    }

    /// What one step put into the network: tags of the new pending
    /// events, and the reply if the client got its first.
    fn step(cl: &mut Cluster, choice: Choice) -> Vec<&'static str> {
        let tags = |cl: &Cluster| -> Vec<&'static str> {
            let msgs = cl.events.iter().filter_map(|e| match e {
                Event::Msg { msg, .. } => Some(msg.tag()),
                Event::Timer { .. } => None,
            });
            msgs.collect()
        };
        let replied = |cl: &Cluster| cl.issued.first().is_some_and(|i| i.first_reply.is_some());
        let (before, answered) = (tags(cl), replied(cl));
        assert_eq!(cl.apply(choice), None);
        let mut after = tags(cl);
        // Every message but the one the step consumed is still pending.
        for tag in before {
            if let Some(at) = after.iter().position(|t| *t == tag) {
                after.remove(at);
            }
        }
        if replied(cl) && !answered {
            after.insert(0, "reply");
        }
        after
    }

    /// One durable write leaves the checker's cluster as it leaves every
    /// drive loop: the steps of `outbox_conformance.txt`. A step here is
    /// atomic, so what left ahead of its barrier is what a power cut
    /// inside its release lets out, and a barrier ran in it if that cut
    /// costs the replica a promise or an accept record.
    #[test]
    fn a_durable_write_leaves_the_cluster_as_it_leaves_every_loop() {
        let mut trace = Vec::new();
        for k in 0..4 {
            let (mut whole, mut cut) = (cluster(), cluster());
            for earlier in 0..k {
                for cl in [&mut whole, &mut cut] {
                    let (_, c) = choice(cl, earlier, false);
                    step(cl, c);
                }
            }
            let (on, c) = choice(&whole, k, false);
            let all = step(&mut whole, c);
            let (_, c) = choice(&cut, k, true);
            let ahead = step(&mut cut, c);
            assert_eq!(cut.apply(Choice::Recover(on as u32)), None);
            let durable = |cl: &Cluster| {
                let r = cl.replica(on).expect("live");
                (r.promised(), r.log_len())
            };
            let line = if durable(&whole) == durable(&cut) {
                assert_eq!(ahead, all, "no barrier: one pass, over before the cut");
                format!("r{on}: | - | {}", all.join(" "))
            } else {
                assert_eq!(all[..ahead.len()], ahead[..], "the ahead list leaves first");
                let behind = all[ahead.len()..].join(" ");
                format!("r{on}: {} | flush | {behind}", ahead.join(" "))
            };
            trace.push(line.split_whitespace().collect::<Vec<_>>().join(" "));
        }
        let golden = include_str!("../../core/src/outbox_conformance.txt");
        assert_eq!(trace, golden.lines().collect::<Vec<_>>());
    }
}
