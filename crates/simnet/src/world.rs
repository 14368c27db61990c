//! The discrete-event simulation kernel.
//!
//! A [`World`] owns the replicas and clients (all sans-io state machines
//! from `gridpaxos-core`), a virtual clock, and an event queue. Messages
//! take link latencies drawn from the [`crate::topology::Topology`];
//! replicas pay CPU costs from the [`crate::cpu::CpuModel`], which models
//! each replica as a single-server queue (events wait while the process is
//! busy). Everything is seeded, so runs are bit-for-bit reproducible.
//!
//! A replica event is one cycle of a drive loop: the node's sends go into
//! an [`Outbox`] and leave through the release every loop shares
//! (`gridpaxos_core::outbox`), with `NodeWire` as its [`Wire`] on the
//! virtual clock and a modelled disk ([`MemStorage::modelled`]) per
//! group as the storage whose barrier it runs.

use crate::cpu::CpuModel;
use crate::metrics::Metrics;
use crate::topology::{SiteId, Topology};
use crate::trace::{Trace, TraceEvent};
use crate::workload::Driver;
use gridpaxos_core::action::{Action, TimerKind};
use gridpaxos_core::client::{ClientCore, ShardRouter};
use gridpaxos_core::config::Config;
use gridpaxos_core::msg::Msg;
use gridpaxos_core::multi::MultiReplica;
use gridpaxos_core::outbox::{release, Out, Outbox, Wire};
use gridpaxos_core::replica::Replica;
use gridpaxos_core::service::App;
use gridpaxos_core::storage::{DiskMeter, MemStorage, Storage};
use gridpaxos_core::types::{Addr, ClientId, Dur, GroupId, ProcessId, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How the simulation charges for stable storage (the WAL fsyncs a real
/// durable deployment pays).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Storage is free — pure protocol/latency simulation (the default;
    /// matches the behavior before the durability model existed).
    #[default]
    None,
    /// Group commit: the loops' `release` on a disk whose sync costs
    /// [`CpuModel::fsync`].
    Batched,
}

/// Options for building a [`World`].
pub struct SimOpts {
    /// Network topology (placement + latency models).
    pub topology: Topology,
    /// Per-replica CPU cost model.
    pub cpu: CpuModel,
    /// Master seed; every source of randomness derives from it.
    pub seed: u64,
    /// Client retransmission timeout.
    pub client_retry: Dur,
    /// Stable-storage cost model.
    pub durability: DurabilityMode,
}

impl SimOpts {
    /// Sensible defaults for a topology: Sysnet CPU costs and a retry
    /// timeout of 40× the nominal client→replica latency (clamped to at
    /// least 50 ms).
    #[must_use]
    pub fn for_topology(topology: Topology, seed: u64) -> SimOpts {
        let m = topology.nominal_ms(Addr::Client(ClientId(0)), Addr::Replica(ProcessId(0)));
        let retry = Dur::from_millis_f64((m * 40.0).max(50.0));
        SimOpts {
            topology,
            cpu: CpuModel::sysnet(),
            seed,
            client_retry: retry,
            durability: DurabilityMode::None,
        }
    }
}

enum Payload {
    Deliver {
        from: Addr,
        to: Addr,
        msg: Msg,
    },
    Timer {
        who: Addr,
        group: GroupId,
        kind: TimerKind,
        gen: u64,
    },
    ClientStart(ClientId),
    Crash(ProcessId),
    Recover(ProcessId),
}

struct Scheduled {
    at: Time,
    seq: u64,
    payload: Payload,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[allow(clippy::large_enum_variant)] // n slots per world; boxing would cost a hop per event
enum Slot {
    Up(MultiReplica),
    /// Crashed node: each group's stable storage, in group order.
    Down(Vec<Box<dyn Storage>>),
}

struct SimClient {
    core: ClientCore,
    driver: Box<dyn Driver>,
}

/// A network partition: while active, messages between replicas in
/// different groups are dropped (both directions). Replicas not listed in
/// any group are unreachable from everyone. Client links are unaffected —
/// a client reaches every replica it sends to, as in the paper's model.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Groups of replica ids that can talk among themselves.
    pub groups: Vec<Vec<u32>>,
    /// Activation time.
    pub from: Time,
    /// Healing time.
    pub until: Time,
}

impl Partition {
    fn severs(&self, a: ProcessId, b: ProcessId, now: Time) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        let group_of = |p: ProcessId| self.groups.iter().position(|g| g.contains(&p.0));
        match (group_of(a), group_of(b)) {
            (Some(x), Some(y)) => x != y,
            _ => true, // unlisted replicas are cut off entirely
        }
    }
}

/// The simulated universe.
pub struct World {
    /// Virtual clock.
    pub now: Time,
    /// Collected measurements.
    pub metrics: Metrics,
    cfg: Config,
    opts: SimOpts,
    n_groups: usize,
    router: Option<ShardRouter>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    replicas: Vec<Slot>,
    busy_until: Vec<Time>,
    clients: HashMap<ClientId, SimClient>,
    next_client_id: u64,
    timer_gen: crate::sched::TimerGens<(Addr, GroupId, TimerKind)>,
    rng: SmallRng,
    app_factory: Box<dyn Fn(GroupId) -> Box<dyn App> + Send>,
    partitions: Vec<Partition>,
    trace: Option<Trace>,
    /// The sends of the replica event in progress (empty between events).
    outbox: Outbox,
    /// What the nodes' disks did during it.
    disks: Arc<DiskMeter>,
}

impl World {
    /// Build a world with `opts.topology.n_replicas()` replicas of the
    /// service produced by `app_factory`, and start them (the bootstrap
    /// election runs as simulated traffic).
    pub fn new(
        cfg: Config,
        opts: SimOpts,
        app_factory: Box<dyn Fn() -> Box<dyn App> + Send>,
    ) -> World {
        World::new_sharded(cfg, opts, Box::new(move |_g| app_factory()), 1, None)
    }

    /// Build a multi-group world: every node hosts `n_groups` independent
    /// consensus groups, and clients added via [`World::add_client`] route
    /// requests with `router`. The factory receives the group it is
    /// building for, so shard-aware services (e.g. a sharded `KvStore`)
    /// know their own placement. With `n_groups == 1` this is exactly
    /// [`World::new`] — the same protocol, byte for byte.
    pub fn new_sharded(
        cfg: Config,
        opts: SimOpts,
        app_factory: Box<dyn Fn(GroupId) -> Box<dyn App> + Send>,
        n_groups: usize,
        router: Option<ShardRouter>,
    ) -> World {
        let n = opts.topology.n_replicas();
        assert_eq!(cfg.n, n, "config and topology disagree on group size");
        assert!(n_groups >= 1, "need at least one group");
        let mut w = World {
            now: Time::ZERO,
            metrics: Metrics::default(),
            queue: BinaryHeap::new(),
            seq: 0,
            replicas: Vec::with_capacity(n),
            busy_until: vec![Time::ZERO; n],
            clients: HashMap::new(),
            next_client_id: 1,
            timer_gen: crate::sched::TimerGens::new(),
            rng: SmallRng::seed_from_u64(opts.seed),
            cfg,
            opts,
            n_groups,
            router,
            app_factory,
            partitions: Vec::new(),
            trace: None,
            outbox: Outbox::default(),
            disks: Arc::default(),
        };
        for i in 0..n {
            let syncs_cost = w.opts.durability == DurabilityMode::Batched;
            let disk = |_| {
                Box::new(MemStorage::modelled(Arc::clone(&w.disks), syncs_cost)) as Box<dyn Storage>
            };
            let r = MultiReplica::open(
                ProcessId(i as u32),
                w.cfg.clone(),
                (0..n_groups).map(disk).collect(),
                w.app_factory.as_ref(),
                w.opts.seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64),
                Time::ZERO,
            );
            w.replicas.push(Slot::Up(r));
        }
        for i in 0..n {
            let actions = match &mut w.replicas[i] {
                Slot::Up(r) => r.on_start(Time::ZERO),
                Slot::Down(_) => unreachable!("fresh replicas are up"),
            };
            w.cycle(i, actions, Time::ZERO);
        }
        w
    }

    // ------------------------------------------------------------------
    // Setup
    // ------------------------------------------------------------------

    /// Add a client running `driver`, optionally pinned to a site, first
    /// kicked at `start_at`.
    pub fn add_client(
        &mut self,
        driver: Box<dyn Driver>,
        site: Option<SiteId>,
        start_at: Time,
    ) -> ClientId {
        let id = ClientId(self.next_client_id);
        self.next_client_id += 1;
        if let Some(s) = site {
            self.opts.topology.client_sites.insert(id, s);
        }
        let mut core = ClientCore::new(id, self.cfg.n, self.opts.client_retry)
            .with_groups(self.n_groups, self.router.clone());
        if self.cfg.reads.follower_reads() {
            // Geo-aware read routing: bounded-staleness reads go to the
            // replica closest to where this client was just placed.
            let nearest = self.opts.topology.nearest_replica(id);
            core = core.with_follower_reads(Some(nearest));
        }
        self.clients.insert(id, SimClient { core, driver });
        self.schedule(start_at, Payload::ClientStart(id));
        id
    }

    /// Crash replica `p` at time `t` (its stable storage survives).
    pub fn crash_at(&mut self, p: ProcessId, t: Time) {
        self.schedule(t, Payload::Crash(p));
    }

    /// Recover replica `p` at time `t` from its retained storage.
    pub fn recover_at(&mut self, p: ProcessId, t: Time) {
        self.schedule(t, Payload::Recover(p));
    }

    /// Partition the replica group between `from` and `until`.
    pub fn partition(&mut self, groups: Vec<Vec<u32>>, from: Time, until: Time) {
        self.partitions.push(Partition {
            groups,
            from,
            until,
        });
    }

    /// Start recording a bounded event trace (see [`Trace::render`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The current group-0 leader, if exactly one replica believes it
    /// leads that group. (Single-group worlds: *the* leader.)
    #[must_use]
    pub fn leader(&self) -> Option<ProcessId> {
        self.leader_of(GroupId::ZERO)
    }

    /// The current leader of group `g`, if exactly one replica believes it
    /// leads that group.
    #[must_use]
    pub fn leader_of(&self, g: GroupId) -> Option<ProcessId> {
        let mut found = None;
        for (i, s) in self.replicas.iter().enumerate() {
            if let Slot::Up(m) = s {
                if m.group(g).is_some_and(Replica::is_leader) {
                    if found.is_some() {
                        return None; // transiently two self-believed leaders
                    }
                    found = Some(ProcessId(i as u32));
                }
            }
        }
        found
    }

    /// Access a live replica's group-0 state machine.
    #[must_use]
    pub fn replica(&self, p: ProcessId) -> Option<&Replica> {
        self.group_replica(p, GroupId::ZERO)
    }

    /// Access one group of a live replica.
    #[must_use]
    pub fn group_replica(&self, p: ProcessId, g: GroupId) -> Option<&Replica> {
        match &self.replicas[p.0 as usize] {
            Slot::Up(m) => m.group(g),
            Slot::Down(_) => None,
        }
    }

    /// `(chosen_prefix, service_snapshot)` of every live replica's group 0
    /// — equal across replicas when the system is quiescent and caught up.
    #[must_use]
    pub fn replica_states(&self) -> Vec<(gridpaxos_core::types::Instance, bytes::Bytes)> {
        self.replica_states_of(GroupId::ZERO)
    }

    /// `(chosen_prefix, service_snapshot)` of group `g` on every live
    /// replica.
    #[must_use]
    pub fn replica_states_of(
        &self,
        g: GroupId,
    ) -> Vec<(gridpaxos_core::types::Instance, bytes::Bytes)> {
        self.replicas
            .iter()
            .filter_map(|s| match s {
                Slot::Up(m) => m
                    .group(g)
                    .map(|r| (r.chosen_prefix(), r.service_snapshot())),
                Slot::Down(_) => None,
            })
            .collect()
    }

    /// Number of consensus groups per node.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Follower-read counters summed across live replicas and groups:
    /// `(served, staleness_sum, staleness_max, rejects)`. Staleness is in
    /// decrees behind the leader's commit watermark at serve time; the
    /// mean is `staleness_sum / served`.
    #[must_use]
    pub fn follower_read_stats(&self) -> (u64, u64, u64, u64) {
        let (mut served, mut sum, mut max, mut rejects) = (0, 0, 0, 0);
        for slot in &self.replicas {
            let Slot::Up(m) = slot else { continue };
            for g in 0..self.n_groups {
                let Some(r) = m.group(GroupId(g as u32)) else {
                    continue;
                };
                served += r.stats.follower_reads;
                sum += r.stats.follower_read_staleness;
                max = max.max(r.stats.follower_read_staleness_max);
                rejects += r.stats.follower_read_rejects;
            }
        }
        (served, sum, max, rejects)
    }

    /// Whether every client workload has finished.
    #[must_use]
    pub fn all_clients_done(&self) -> bool {
        self.clients.values().all(|c| c.driver.done())
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Run until the virtual clock reaches `deadline` (or the event queue
    /// drains).
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Run until every client workload finishes; give up at `deadline`.
    /// Returns true when all clients completed.
    pub fn run_to_completion(&mut self, deadline: Time) -> bool {
        while !self.all_clients_done() {
            let Some(Reverse(ev)) = self.queue.peek() else {
                return false; // starved: clients waiting but no events
            };
            if ev.at > deadline {
                return false;
            }
            self.step();
        }
        true
    }

    /// Process exactly one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time ran backwards");
        self.now = ev.at;
        match ev.payload {
            Payload::Deliver { from, to, msg } => {
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        self.now,
                        TraceEvent::Deliver {
                            from,
                            to,
                            tag: msg.tag(),
                        },
                    );
                }
                self.deliver(from, to, msg)
            }
            Payload::Timer {
                who,
                group,
                kind,
                gen,
            } => self.fire_timer(who, group, kind, gen),
            Payload::ClientStart(c) => {
                let start = self.now;
                self.metrics.measure_start =
                    Some(self.metrics.measure_start.map_or(start, |t| t.min(start)));
                self.kick_client(c);
            }
            Payload::Crash(p) => {
                if let Some(tr) = &mut self.trace {
                    tr.record(self.now, TraceEvent::Crash(Addr::Replica(p)));
                }
                let slot = &mut self.replicas[p.0 as usize];
                if let Slot::Up(_) = slot {
                    let Slot::Up(m) = std::mem::replace(slot, Slot::Down(Vec::new())) else {
                        unreachable!()
                    };
                    *slot = Slot::Down(m.into_storages());
                }
            }
            Payload::Recover(p) => {
                if let Some(tr) = &mut self.trace {
                    tr.record(self.now, TraceEvent::Recover(Addr::Replica(p)));
                }
                let slot = &mut self.replicas[p.0 as usize];
                if let Slot::Down(storages) = slot {
                    if storages.is_empty() {
                        return true; // double-recover of a node that never crashed
                    }
                    let storages = std::mem::take(storages);
                    let mut m = MultiReplica::open(
                        p,
                        self.cfg.clone(),
                        storages,
                        self.app_factory.as_ref(),
                        self.opts
                            .seed
                            .wrapping_add(0xec0e4)
                            .wrapping_add(u64::from(p.0)),
                        self.now,
                    );
                    let actions = m.on_start(self.now);
                    self.replicas[p.0 as usize] = Slot::Up(m);
                    let now = self.now;
                    self.cycle(p.0 as usize, actions, now);
                }
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, at: Time, payload: Payload) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at: at.max(self.now),
            seq: self.seq,
            payload,
        }));
    }

    fn deliver(&mut self, from: Addr, to: Addr, msg: Msg) {
        match to {
            Addr::Replica(p) => {
                let idx = p.0 as usize;
                // Single-server queueing: wait until the process is free.
                // One node's groups share the node's CPU — the multicore
                // speedup of a real sharded node is modeled by the bench's
                // per-group topology scaling, not here.
                let busy = self.busy_until[idx];
                if busy > self.now {
                    self.schedule(busy, Payload::Deliver { from, to, msg });
                    return;
                }
                let Slot::Up(m) = &mut self.replicas[idx] else {
                    return; // crashed: message lost
                };
                *self.metrics.msgs_by_tag.entry(msg.tag()).or_default() += 1;
                let recv_cost = self.opts.cpu.recv_cost(&msg);
                let actions = m.on_message(from, msg, self.now);
                let cpu_done = self.now.after(recv_cost).after(actions_send_cost(
                    &self.opts.cpu,
                    &actions,
                    self.cfg.n,
                ));
                self.cycle(idx, actions, cpu_done);
            }
            Addr::Client(c) => {
                *self.metrics.msgs_by_tag.entry(msg.tag()).or_default() += 1;
                let now = self.now;
                let Some(cl) = self.clients.get_mut(&c) else {
                    return;
                };
                let (done, actions) = cl.core.on_message(msg, now);
                self.dispatch_client(to, actions);
                if let Some(done) = done {
                    let Some(cl) = self.clients.get_mut(&c) else {
                        return;
                    };
                    self.metrics
                        .record_op(&done.req, done.rtt, now, done.retries);
                    cl.driver.on_complete(&done, now, &mut self.metrics);
                    self.kick_client(c);
                }
            }
        }
    }

    fn fire_timer(&mut self, who: Addr, group: GroupId, kind: TimerKind, gen: u64) {
        if !self.timer_gen.is_live(&(who, group, kind), gen) {
            return; // cancelled or replaced
        }
        match who {
            Addr::Replica(p) => {
                let idx = p.0 as usize;
                let busy = self.busy_until[idx];
                if busy > self.now {
                    self.schedule(
                        busy,
                        Payload::Timer {
                            who,
                            group,
                            kind,
                            gen,
                        },
                    );
                    return;
                }
                let Slot::Up(m) = &mut self.replicas[idx] else {
                    return;
                };
                let actions = m.on_timer(group, kind, self.now);
                let cpu_done =
                    self.now
                        .after(actions_send_cost(&self.opts.cpu, &actions, self.cfg.n));
                self.cycle(idx, actions, cpu_done);
            }
            Addr::Client(c) => {
                let now = self.now;
                let Some(cl) = self.clients.get_mut(&c) else {
                    return;
                };
                let actions = cl.core.on_timer(kind, now);
                self.dispatch_client(who, actions);
            }
        }
    }

    fn kick_client(&mut self, c: ClientId) {
        let now = self.now;
        let Some(cl) = self.clients.get_mut(&c) else {
            return;
        };
        if cl.driver.done() {
            return;
        }
        if let Some(actions) = cl.driver.kick(&mut cl.core, now) {
            self.dispatch_client(Addr::Client(c), actions);
        }
    }

    /// One cycle of replica `idx`'s drive loop, its CPU work over at
    /// `cpu_done`: timers are armed from then (a barrier delays sends, not
    /// the process's clock), and the sends leave through the release
    /// every loop shares, with [`NodeWire`] keeping the time.
    fn cycle(&mut self, idx: usize, actions: Vec<(GroupId, Action)>, cpu_done: Time) {
        self.busy_until[idx] = cpu_done;
        self.dispatch(Addr::Replica(ProcessId(idx as u32)), actions, cpu_done);
        release(&mut NodeWire {
            world: self,
            idx,
            clock: cpu_done,
        });
        self.metrics.wal_appends += self.disks.appends.swap(0, Ordering::Relaxed);
    }

    /// Clients run no per-group state: their timers key under group 0.
    fn dispatch_client(&mut self, from: Addr, actions: Vec<Action>) {
        let tagged = actions.into_iter().map(|a| (GroupId::ZERO, a)).collect();
        self.dispatch(from, tagged, self.now);
    }

    /// Arm and cancel timers as of `at`. A replica's sends wait in the
    /// outbox for its cycle's release; a client keeps no stable storage,
    /// and its sends leave as they are made.
    fn dispatch(&mut self, from: Addr, actions: Vec<(GroupId, Action)>, at: Time) {
        for (g, a) in actions {
            let out = match a {
                Action::Send { to, msg } => Out::One(to, msg),
                Action::ToAllReplicas { msg } => Out::All(msg),
                Action::SetTimer { kind, after } => {
                    let gen = self.timer_gen.arm((from, g, kind));
                    self.schedule(
                        at.after(after),
                        Payload::Timer {
                            who: from,
                            group: g,
                            kind,
                            gen,
                        },
                    );
                    continue;
                }
                Action::CancelTimer { kind } => {
                    self.timer_gen.cancel((from, g, kind));
                    continue;
                }
            };
            let core = from
                .as_replica()
                .and_then(|p| match &self.replicas[p.0 as usize] {
                    Slot::Up(m) => m.group(g),
                    Slot::Down(_) => None,
                });
            match core {
                Some(core) => self.outbox.push(out, core),
                None => self.send(from, out, at),
            }
        }
    }

    fn send(&mut self, from: Addr, out: Out, depart: Time) {
        match out {
            Out::One(to, msg) => self.send_one(from, to, msg, depart),
            Out::All(msg) => {
                for to in (0..self.cfg.n).map(|i| Addr::Replica(ProcessId(i as u32))) {
                    if to != from {
                        self.send_one(from, to, msg.clone(), depart);
                    }
                }
            }
        }
    }

    fn send_one(&mut self, from: Addr, to: Addr, msg: Msg, depart: Time) {
        if let (Addr::Replica(a), Addr::Replica(b)) = (from, to) {
            if self.partitions.iter().any(|p| p.severs(a, b, depart)) {
                self.metrics.dropped_msgs += 1;
                return;
            }
        }
        if self.opts.topology.loss > 0.0 && self.rng.gen::<f64>() < self.opts.topology.loss {
            self.metrics.dropped_msgs += 1;
            return;
        }
        let latency = self.opts.topology.sample(from, to, &mut self.rng);
        // Transmission delay: big payloads (e.g. full-state updates) take
        // real time on the wire.
        let tx = Dur((msg.approx_wire_len() as f64 * self.opts.topology.ns_per_byte) as u64);
        self.schedule(
            depart.after(latency).after(tx),
            Payload::Deliver { from, to, msg },
        );
    }
}

/// The release's [`Wire`] for one replica event: what it transmits departs
/// at `clock`, which starts where the event's CPU work ends and which a
/// sync that ran since the last transmit moves by [`CpuModel::fsync`]. The
/// node's thread was inside that sync, so it takes no other event before
/// (`busy_until`) — which is what keeps a leader from counting its own
/// unflushed vote with a follower's `Accepted`. One sync per node and
/// cycle, however many of its groups had a barrier due: they share a log.
struct NodeWire<'w> {
    world: &'w mut World,
    idx: usize,
    clock: Time,
}

impl Wire for NodeWire<'_> {
    fn cores(&mut self) -> &mut [Replica] {
        match &mut self.world.replicas[self.idx] {
            Slot::Up(m) => m.groups_mut(),
            Slot::Down(_) => &mut [],
        }
    }

    fn outbox(&mut self) -> &mut Outbox {
        &mut self.world.outbox
    }

    fn transmit(&mut self, outs: &mut Vec<Out>) {
        let w = &mut *self.world;
        if w.disks.syncs.swap(0, Ordering::Relaxed) > 0 {
            w.metrics.fsyncs += 1;
            self.clock = self.clock.after(w.opts.cpu.fsync);
            w.busy_until[self.idx] = self.clock;
        }
        let from = Addr::Replica(ProcessId(self.idx as u32));
        for out in outs.drain(..) {
            w.send(from, out, self.clock);
        }
    }
}

/// Total CPU cost of emitting every message in `actions`.
fn actions_send_cost(
    cpu: &CpuModel,
    actions: &[(GroupId, Action)],
    n: usize,
) -> gridpaxos_core::types::Dur {
    let mut total = gridpaxos_core::types::Dur::ZERO;
    for (_, a) in actions {
        match a {
            Action::Send { msg, .. } => {
                total = total.saturating_add(cpu.send_cost_one(msg));
            }
            Action::ToAllReplicas { msg } => {
                total =
                    total.saturating_add(cpu.send_cost_one(msg).mul(n.saturating_sub(1) as u64));
            }
            _ => {}
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::workload::OpLoop;
    use bytes::Bytes;
    use gridpaxos_core::client::CompletedOp;
    use gridpaxos_core::request::RequestKind;
    use gridpaxos_core::service::NoopApp;

    const START: Time = Time(200_000_000);
    const DEADLINE: Time = Time(3_600_000_000_000);

    fn build(seed: u64) -> World {
        let cfg = Config::cluster(3);
        let opts = SimOpts::for_topology(Topology::sysnet(3), seed);
        World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())))
    }

    #[test]
    fn same_seed_same_universe() {
        let run = |seed: u64| {
            let mut w = build(seed);
            w.add_client(Box::new(OpLoop::new(RequestKind::Write, 100)), None, START);
            assert!(w.run_to_completion(DEADLINE));
            (
                w.now,
                w.metrics.completed_ops,
                w.metrics.rtt_summary("write").mean,
                w.replica_states(),
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.0, b.0, "identical virtual end time");
        assert_eq!(a.2, b.2, "bit-identical latencies");
        assert_eq!(a.3, b.3, "identical states");
        let c = run(8);
        assert_ne!(a.2, c.2, "different seed, different jitter");
    }

    #[test]
    fn election_runs_during_startup() {
        let mut w = build(1);
        w.run_until(Time(Dur::from_millis(100).0));
        assert_eq!(w.leader(), Some(ProcessId(0)), "bootstrap leader elected");
        let states = w.replica_states();
        assert_eq!(states.len(), 3);
    }

    #[test]
    fn crash_takes_replica_down_and_recover_brings_it_back() {
        let mut w = build(2);
        w.crash_at(ProcessId(2), Time(Dur::from_millis(50).0));
        w.recover_at(ProcessId(2), Time(Dur::from_millis(150).0));
        w.run_until(Time(Dur::from_millis(100).0));
        assert!(w.replica(ProcessId(2)).is_none(), "down after crash");
        assert_eq!(w.replica_states().len(), 2);
        w.run_until(Time(Dur::from_millis(200).0));
        assert!(w.replica(ProcessId(2)).is_some(), "up after recover");
    }

    #[test]
    fn run_to_completion_times_out_when_starved() {
        let mut w = build(3);
        // A client that can never finish: the majority is dead from the start.
        w.crash_at(ProcessId(1), Time(1));
        w.crash_at(ProcessId(2), Time(1));
        w.add_client(Box::new(OpLoop::new(RequestKind::Write, 10)), None, START);
        assert!(
            !w.run_to_completion(Time(Dur::from_secs(5).0)),
            "must report failure at the deadline"
        );
        assert_eq!(w.metrics.completed_ops, 0);
    }

    #[test]
    fn message_accounting_by_tag() {
        let mut w = build(4);
        w.add_client(Box::new(OpLoop::new(RequestKind::Write, 20)), None, START);
        assert!(w.run_to_completion(DEADLINE));
        // The first write goes to all three replicas; each later one to
        // the leader that answered.
        assert_eq!(w.metrics.msgs_by_tag.get("request"), Some(&(3 + 19)));
        assert!(*w.metrics.msgs_by_tag.get("accept").unwrap_or(&0) >= 20);
        assert!(*w.metrics.msgs_by_tag.get("reply").unwrap_or(&0) >= 20);
    }

    #[test]
    fn trace_records_deliveries_and_faults() {
        let mut w = build(6);
        w.enable_trace(10_000);
        w.add_client(Box::new(OpLoop::new(RequestKind::Write, 5)), None, START);
        w.crash_at(ProcessId(2), Time(Dur::from_millis(50).0));
        w.recover_at(ProcessId(2), Time(Dur::from_millis(400).0));
        assert!(w.run_to_completion(DEADLINE));
        let settle = w.now.after(Dur::from_millis(500));
        w.run_until(settle);
        let trace = w.trace().expect("tracing enabled");
        assert!(trace.total > 0);
        let rendered = trace.render();
        assert!(rendered.contains("CRASH"));
        assert!(rendered.contains("RECOVER"));
        assert!(rendered.contains("request"));
        assert!(rendered.contains("accept"));
    }

    #[test]
    fn sharded_world_partitions_writes_across_groups() {
        // Two groups, routed on the first payload byte. Each group must
        // choose its own writes, converge independently, and elect its
        // rotated bootstrap leader.
        let cfg = Config::cluster(3);
        let opts = SimOpts::for_topology(Topology::sysnet(3), 21);
        let router = ShardRouter::new(|req| req.op.first().map(|b| u64::from(*b)));
        let mut w = World::new_sharded(
            cfg,
            opts,
            Box::new(|_g| Box::new(NoopApp::new())),
            2,
            Some(router),
        );
        w.add_client(
            Box::new(OpLoop::with_payload(
                RequestKind::Write,
                20,
                bytes::Bytes::from_static(&[0]),
            )),
            None,
            START,
        );
        w.add_client(
            Box::new(OpLoop::with_payload(
                RequestKind::Write,
                20,
                bytes::Bytes::from_static(&[1]),
            )),
            None,
            START,
        );
        assert!(w.run_to_completion(DEADLINE));
        assert_eq!(w.metrics.completed_ops, 40);

        // Rotated bootstrap leadership: group 0 led by r0, group 1 by r1.
        assert_eq!(w.leader_of(GroupId(0)), Some(ProcessId(0)));
        assert_eq!(w.leader_of(GroupId(1)), Some(ProcessId(1)));

        // Let in-flight chosen notifications settle, then check per-group
        // convergence and that both groups did real work.
        let settle = w.now.after(Dur::from_millis(500));
        w.run_until(settle);
        for g in [GroupId(0), GroupId(1)] {
            let states = w.replica_states_of(g);
            assert_eq!(states.len(), 3);
            assert!(
                states.windows(2).all(|s| s[0] == s[1]),
                "group {g} replicas diverged: {states:?}"
            );
            assert!(states[0].0 .0 >= 1, "group {g} chose nothing");
        }
    }

    #[test]
    fn sharded_world_crash_recover_preserves_all_groups() {
        let cfg = Config::cluster(3);
        let opts = SimOpts::for_topology(Topology::sysnet(3), 22);
        let router = ShardRouter::new(|req| req.op.first().map(|b| u64::from(*b)));
        let mut w = World::new_sharded(
            cfg,
            opts,
            Box::new(|_g| Box::new(NoopApp::new())),
            2,
            Some(router),
        );
        w.crash_at(ProcessId(2), Time(Dur::from_millis(50).0));
        w.recover_at(ProcessId(2), Time(Dur::from_millis(150).0));
        w.run_until(Time(Dur::from_millis(100).0));
        assert!(w.group_replica(ProcessId(2), GroupId(1)).is_none());
        w.run_until(Time(Dur::from_millis(200).0));
        for g in [GroupId(0), GroupId(1)] {
            assert!(
                w.group_replica(ProcessId(2), g).is_some(),
                "group {g} must come back"
            );
        }
    }

    /// The durability cost model: chosen-prefix marks ride the accept
    /// barriers, so group commit syncs less often than it appends, and an
    /// unloaded write costs exactly the three barriers the reactor pays —
    /// the leader's accept and one per follower accept.
    #[test]
    fn group_commit_amortizes_fsyncs() {
        let run = |cfg: Config, clients: usize, writes: u64, mode: DurabilityMode| {
            let opts = SimOpts {
                durability: mode,
                ..SimOpts::for_topology(Topology::sysnet(3), 31)
            };
            let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
            for _ in 0..clients {
                w.add_client(
                    Box::new(OpLoop::new(RequestKind::Write, writes)),
                    None,
                    START,
                );
            }
            w.run_until(Time(START.0 - 1)); // bootstrap election settled
            let (appends, fsyncs) = (w.metrics.wal_appends, w.metrics.fsyncs);
            assert!(w.run_to_completion(DEADLINE), "workload under {mode:?}");
            (
                w.metrics.wal_appends - appends,
                w.metrics.fsyncs - fsyncs,
                w.now,
            )
        };

        // Loaded: cap decree batching so the leader's own queueing does
        // not do the amortizing.
        let mut loaded = Config::cluster(3).with_max_batch(4);
        loaded.batch_window = Dur::ZERO;
        let (appends_b, fsyncs_b, end_b) = run(loaded.clone(), 8, 25, DurabilityMode::Batched);
        assert!(fsyncs_b > 0, "batched mode still syncs");
        assert!(
            fsyncs_b < appends_b,
            "group commit must amortize: {fsyncs_b} syncs for {appends_b} appends"
        );
        let (_, fsyncs_none, end_none) = run(loaded, 8, 25, DurabilityMode::None);
        assert_eq!(fsyncs_none, 0, "free storage charges nothing");
        assert!(end_none < end_b, "free storage is the lower bound");

        // Unloaded, the shipped configuration: one client, 2,000 writes.
        let (_, fsyncs, _) = run(Config::cluster(3), 1, 2_000, DurabilityMode::Batched);
        assert_eq!(
            fsyncs,
            3 * 2_000,
            "one barrier per accept record: the leader's and each follower's"
        );
    }

    /// The latency of an unloaded durable write, on constant links with a
    /// free CPU: `2M + E + max(S, 2m + S)`. The leader's `Accept` leaves
    /// beside its sync, so the client waits for the follower's sync only,
    /// not for both in a row (`2M + E + S + 2m + S`, the cost before the
    /// `Accept` was let ahead of the barrier).
    #[test]
    fn unloaded_durable_write_overlaps_the_leaders_sync() {
        use crate::latency::LatencyModel;
        let (big_m, m, s) = (0.1, 0.05, 2.0); // ms: client link, replica link, sync
        let rtt = |mode: DurabilityMode| {
            let mut topology = Topology::sysnet(3);
            topology.ns_per_byte = 0.0;
            for (a, row) in topology.links.iter_mut().enumerate() {
                for (b, link) in row.iter_mut().enumerate() {
                    *link = LatencyModel::Constant(if a == b { m } else { big_m });
                }
            }
            let opts = SimOpts {
                cpu: CpuModel {
                    fsync: Dur::from_millis_f64(s),
                    ..CpuModel::free()
                },
                durability: mode,
                ..SimOpts::for_topology(topology, 3)
            };
            let mut cfg = Config::cluster(3);
            cfg.batch_window = Dur::ZERO;
            let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
            w.add_client(Box::new(OpLoop::new(RequestKind::Write, 50)), None, START);
            assert!(w.run_to_completion(DEADLINE));
            let rtts = w.metrics.rtt_summary("write");
            assert!(rtts.max - rtts.min < 1e-6, "constant links: {rtts:?}");
            rtts.mean
        };
        let free = rtt(DurabilityMode::None);
        assert!((free - (2.0 * big_m + 2.0 * m)).abs() < 1e-6, "{free} ms");
        let durable = rtt(DurabilityMode::Batched);
        assert!(
            (durable - (2.0 * big_m + f64::max(s, 2.0 * m + s))).abs() < 1e-6,
            "{durable} ms"
        );
    }

    /// One durable write leaves the simulator's node as it leaves every
    /// drive loop: the steps of `outbox_conformance.txt`, read off the
    /// virtual clock. On constant links with a free CPU a message that
    /// departs at its event's time left ahead of the barrier, and one
    /// that departs a sync later left behind it.
    #[test]
    fn a_durable_write_leaves_the_node_as_it_leaves_every_loop() {
        use crate::latency::LatencyModel;
        let (link, sync) = (Dur::from_millis(1), Dur::from_millis(3));
        let mut topology = Topology::sysnet(3);
        topology.ns_per_byte = 0.0;
        for link_model in topology.links.iter_mut().flatten() {
            *link_model = LatencyModel::Constant(1.0);
        }
        let opts = SimOpts {
            cpu: CpuModel {
                fsync: sync,
                ..CpuModel::free()
            },
            durability: DurabilityMode::Batched,
            ..SimOpts::for_topology(topology, 3)
        };
        // No heartbeat between the election and the end of the write.
        let mut cfg = Config::cluster(3);
        cfg.batch_window = Dur::ZERO;
        cfg.heartbeat_interval = Dur::from_secs(30);
        cfg.suspect_timeout = Dur::from_secs(60);
        let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
        w.add_client(Box::new(OpLoop::new(RequestKind::Write, 1)), None, START);
        w.run_until(Time(START.0 - 1));

        let mut trace = Vec::new();
        while !w.all_clients_done() {
            let (seq, syncs) = (w.seq, w.metrics.fsyncs);
            assert!(w.step());
            // What the step scheduled, in the order it did: who sent it,
            // its tag and how long after the step it departed.
            let mut sent: Vec<_> = w
                .queue
                .iter()
                .filter(|Reverse(ev)| ev.seq > seq)
                .filter_map(|Reverse(ev)| match &ev.payload {
                    Payload::Deliver {
                        from: Addr::Replica(p),
                        msg,
                        ..
                    } => Some((ev.seq, *p, msg.tag(), Dur(ev.at.0 - w.now.0 - link.0))),
                    _ => None,
                })
                .collect();
            sent.sort_unstable_by_key(|(seq, ..)| *seq);
            let Some((_, from, ..)) = sent.first().copied() else {
                continue;
            };
            let flushed = w.metrics.fsyncs > syncs;
            let side = |after: Dur| {
                let tags = sent.iter().filter(|(.., left)| *left == after);
                tags.map(|(_, _, tag, _)| *tag)
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let line = if flushed {
                format!("r{}: {} | flush | {}", from.0, side(Dur::ZERO), side(sync))
            } else {
                format!("r{}: | - | {}", from.0, side(Dur::ZERO))
            };
            trace.push(line.split_whitespace().collect::<Vec<_>>().join(" "));
        }
        let golden = include_str!("../../core/src/outbox_conformance.txt");
        assert_eq!(trace, golden.lines().collect::<Vec<_>>());
    }

    #[test]
    fn follower_reads_serve_from_the_nearest_replica() {
        // Config 3 shape: replicas spread over the WAN, clients at
        // Berkeley. In follower-read mode the client unicasts reads to
        // Utah (r1, 21.5 ms one-way) and gets answers without any
        // leader round — far below the 35.4 ms UIUC leader path.
        let run = |mode: gridpaxos_core::config::ReadMode| {
            let cfg = Config::wan(3).with_read_mode(mode);
            let opts = SimOpts::for_topology(Topology::wan_spread(), 11);
            let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
            w.add_client(Box::new(OpLoop::new(RequestKind::Read, 50)), None, START);
            assert!(w.run_to_completion(DEADLINE));
            (w.metrics.rtt_summary("read").mean, w.follower_read_stats())
        };
        let (follower_ms, (served, _sum, _max, rejects)) =
            run(gridpaxos_core::config::ReadMode::Follower { max_staleness: 8 });
        assert!(served >= 40, "most reads served by a follower: {served}");
        assert_eq!(rejects, 0, "quiescent followers are never over-stale");
        assert!(
            follower_ms < 50.0,
            "nearest-replica read must undercut the leader WAN path: {follower_ms} ms"
        );
        let (leader_ms, (served_x, ..)) = run(gridpaxos_core::config::ReadMode::XPaxos);
        assert_eq!(served_x, 0, "X-Paxos never serves from followers");
        assert!(
            follower_ms * 1.5 < leader_ms,
            "follower reads must be much faster: {follower_ms} vs {leader_ms} ms"
        );
    }

    #[test]
    fn client_sites_affect_latency() {
        // A client pinned to the replica site sees lower RTT than the
        // default remote client site.
        let run_at = |site: Option<usize>| {
            let mut w = build(5);
            w.add_client(
                Box::new(OpLoop::new(RequestKind::Original, 50)),
                site,
                START,
            );
            assert!(w.run_to_completion(DEADLINE));
            w.metrics.rtt_summary("original").mean
        };
        let near = run_at(Some(0));
        let far = run_at(None);
        assert!(near < far, "near {near} vs far {far}");
    }

    // ----- an idle client whose leader hint went stale ------------------

    /// Writes once at each of `due` and sits idle in between: an
    /// interactive client, not a closed loop. The world kicks it after
    /// every reply; the test schedules the kicks that end an idle spell.
    struct WritesAt {
        due: Vec<Time>,
        sent: usize,
        outstanding: bool,
    }

    impl Driver for WritesAt {
        fn kick(&mut self, core: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
            if self.outstanding || self.due.get(self.sent).is_none_or(|&t| now < t) {
                return None;
            }
            self.sent += 1;
            self.outstanding = true;
            Some(core.submit_op(RequestKind::Write, Bytes::new(), now))
        }

        fn on_complete(&mut self, _done: &CompletedOp, _now: Time, _metrics: &mut Metrics) {
            self.outstanding = false;
        }

        fn done(&self) -> bool {
            self.sent == self.due.len() && !self.outstanding
        }
    }

    /// A client writes once (the bootstrap leader, replica 0, answers),
    /// `fault` strikes while it is idle, and one second later it writes
    /// twice more. `check` sees the world just before the second write.
    /// Returns each write's latency (ms) and the retries they took.
    fn idle_client_across(
        fault: impl FnOnce(&mut World),
        check: impl FnOnce(&World),
    ) -> (Vec<f64>, u64) {
        let mut w = build(9);
        let later = START.after(Dur::from_secs(1));
        let writes = WritesAt {
            due: vec![START, later, later],
            sent: 0,
            outstanding: false,
        };
        let id = w.add_client(Box::new(writes), None, START);
        w.schedule(later, Payload::ClientStart(id));
        fault(&mut w);
        w.run_until(Time(later.0 - 1));
        check(&w);
        assert!(w.run_to_completion(DEADLINE));
        (w.metrics.rtt_ms["write"].clone(), w.metrics.retries)
    }

    /// What a stale hint costs: the first write after the failover goes
    /// to replica 0 alone, nobody answers it, and the client's retry
    /// timeout passes before its broadcast reaches the new leader. The
    /// reply re-points the hint, so the next write is back to one round
    /// trip.
    fn assert_first_write_after_failover_pays_one_retry(rtts: &[f64], retries: u64) {
        let retry_ms = SimOpts::for_topology(Topology::sysnet(3), 9)
            .client_retry
            .as_millis_f64();
        assert_eq!(rtts.len(), 3);
        assert!(rtts[0] < 5.0, "before the fault: {rtts:?}");
        assert_eq!(retries, 1);
        assert!(
            rtts[1] >= retry_ms && rtts[1] < retry_ms + 5.0,
            "one retry timeout plus a round trip: {rtts:?}"
        );
        assert!(rtts[2] < 5.0, "the hint was re-pointed: {rtts:?}");
    }

    #[test]
    fn an_idle_client_whose_leader_crashed_pays_one_retry() {
        let (rtts, retries) = idle_client_across(
            |w| w.crash_at(ProcessId(0), START.after(Dur::from_millis(100))),
            |w| {
                let leader = w.leader().expect("a new leader before the write");
                assert_ne!(leader, ProcessId(0));
            },
        );
        assert_first_write_after_failover_pays_one_retry(&rtts, retries);
    }

    #[test]
    fn an_idle_client_whose_leader_was_deposed_pays_one_retry() {
        let (rtts, retries) = idle_client_across(
            |w| {
                let cut = START.after(Dur::from_millis(100));
                w.partition(
                    vec![vec![0], vec![1, 2]],
                    cut,
                    cut.after(Dur::from_millis(400)),
                );
            },
            |w| {
                let old = w.replica(ProcessId(0)).expect("the deposed leader is up");
                assert!(!old.is_leader(), "replica 0 stepped down");
                let leader = w.leader().expect("a new leader before the write");
                assert_ne!(leader, ProcessId(0));
            },
        );
        assert_first_write_after_failover_pays_one_retry(&rtts, retries);
    }
}
