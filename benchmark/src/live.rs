//! The live run: a 3-replica `ReactorCluster` on loopback in this
//! process, set up, driven through phase A (one client: the paper's RRT)
//! and phase B (16 clients: the paper's throughput), shut down and
//! checked. Every end-to-end metric comes from here.

use crate::config::{
    cluster_config, reactor_config, StorageKind, WorkloadSpec, CLEAN_STEAL_TICKS, LOADED_CLIENTS,
    MAX_EXTRA_SECONDS, N_REPLICAS, SETUPS_PER_RUN, SYNC_DELAY, WARMUP,
};
use crate::delay_storage::{DelayStorage, StorageCounters};
use crate::driver::{ClientCounters, Driver, RunStats, Source};
use crate::workload::{Model, Op, OpGen};
use bytes::Bytes;
use gridpaxos_core::replica::{Replica, ReplicaStats};
use gridpaxos_core::request::{ReplyBody, RequestKind};
use gridpaxos_core::service::App;
use gridpaxos_core::storage::{MemStorage, Storage};
use gridpaxos_core::types::{Dur, ProcessId};
use gridpaxos_services::KvStore;
use gridpaxos_transport::{FlushCoordinator, ReactorCluster, ReactorStats, SyncMode};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Phase labels that keep the seeded streams apart.
const PHASE_WARMUP: u64 = 1;
const PHASE_A: u64 = 2;
const PHASE_B: u64 = 3;

pub struct LiveOpts<'a> {
    pub spec: &'a WorkloadSpec,
    pub seed: u64,
    pub phase_a: Duration,
    /// Clean seconds phase B is to collect.
    pub phase_b_secs: u64,
    /// Scratch directory for the write-ahead logs, inside the checkout.
    pub data_dir: PathBuf,
}

/// Counters read while the cluster runs, at the edges of phase B.
#[derive(Clone, Debug, Default)]
pub struct LiveCounters {
    pub reactor: Vec<ReactorStats>,
    pub wal_appends: Vec<u64>,
    /// `save_accepted` calls per node (on the leader: decrees proposed).
    pub accepts: Vec<u64>,
    pub syncs: Vec<u64>,
    pub process_cpu_ns: u64,
    pub driver_cpu_ns: u64,
}

pub struct LiveResult {
    /// One entry per set-up, in seconds.
    pub setups_s: Vec<f64>,
    pub phase_a: RunStats,
    pub phase_b: RunStats,
    /// Steal ticks of each second of phase B.
    pub steal_b: Vec<u64>,
    /// Seconds phase B was to last (it lasts longer to make up for stolen
    /// ones).
    pub planned_b_secs: u64,
    pub before_b: LiveCounters,
    pub after_b: LiveCounters,
    /// Client counters of every driver of the run (set-ups included, the
    /// leader probes not), to go with `attempted`.
    pub client: ClientCounters,
    pub leader: usize,
    pub replica_stats: Vec<ReplicaStats>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable output-check failures; empty = correct.
    pub check_failures: Vec<String>,
    /// Instances the replicas were behind the most advanced one when the
    /// measured cluster stopped (after the quiesce wait), summed.
    pub lag_at_shutdown: u64,
    pub peak_rss_mb: f64,
}

/// A launched cluster plus the handles the benchmark reads counters from.
struct Cluster {
    cluster: ReactorCluster,
    coordinators: Vec<FlushCoordinator>,
    storage: Vec<StorageCounters>,
    dir: Option<PathBuf>,
}

fn launch(spec: &WorkloadSpec, data_dir: &Path, tag: usize) -> io::Result<Cluster> {
    let dir = (spec.storage == StorageKind::Durable)
        .then(|| data_dir.join(format!("wal-{}-{tag}", std::process::id())));
    let mut coordinators = Vec::new();
    let mut counters = Vec::new();
    // `launch_with_storage` takes a `Fn`; each node's storage is built
    // here and handed over once.
    let mut storages = Vec::new();
    for i in 0..N_REPLICAS {
        let storage: Box<dyn Storage> = match &dir {
            None => {
                let s = DelayStorage::counting(MemStorage::new());
                counters.push(s.counters());
                Box::new(s)
            }
            Some(dir) => {
                if i == 0 {
                    let _ = std::fs::remove_dir_all(dir);
                }
                let log =
                    FlushCoordinator::open(dir.join(format!("node-{i}")), SyncMode::Never, 1)?;
                let s = DelayStorage::modelled(log.storage(0), SYNC_DELAY);
                coordinators.push(log);
                counters.push(s.counters());
                Box::new(s)
            }
        };
        storages.push(std::sync::Mutex::new(Some(storage)));
    }
    let cluster = ReactorCluster::launch_with_storage(
        cluster_config(),
        1,
        || Box::new(KvStore::new()) as Box<dyn App>,
        None,
        reactor_config(),
        |id| {
            let storage = storages[id.0 as usize]
                .lock()
                .expect("nothing panics holding a storage slot")
                .take()
                .expect("each node is launched once");
            vec![storage]
        },
    )?;
    Ok(Cluster {
        cluster,
        coordinators,
        storage: counters,
        dir,
    })
}

impl Cluster {
    fn counters(&self) -> LiveCounters {
        let (process_cpu_ns, driver_cpu_ns) = cpu_ns();
        LiveCounters {
            reactor: (0..N_REPLICAS)
                .map(|i| self.cluster.metrics(i).stats())
                .collect(),
            wal_appends: self
                .coordinators
                .iter()
                .map(FlushCoordinator::appends)
                .collect(),
            accepts: self.storage.iter().map(StorageCounters::accepts).collect(),
            syncs: self.storage.iter().map(StorageCounters::syncs).collect(),
            process_cpu_ns,
            driver_cpu_ns,
        }
    }

    fn shutdown(self) -> Vec<Replica> {
        // Let the followers learn the last chosen index (it rides on the
        // 10 ms heartbeats) before the nodes stop.
        std::thread::sleep(Duration::from_millis(300));
        let replicas = self
            .cluster
            .shutdown()
            .into_iter()
            .map(|mut groups| groups.remove(0))
            .collect();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        replicas
    }
}

/// On-CPU nanoseconds of (the whole process, the calling thread), from
/// the scheduler's per-task accounting.
fn cpu_ns() -> (u64, u64) {
    let on_cpu = |path: &Path| -> u64 {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    let process = std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .flatten()
                .map(|t| on_cpu(&t.path().join("schedstat")))
                .sum()
        })
        .unwrap_or(0);
    (process, on_cpu(Path::new("/proc/thread-self/schedstat")))
}

/// Ticks (1/100 s) the vCPUs together were runnable but not run by the
/// host since boot; 0 where the kernel does not say.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What each client sends next.
enum Stream {
    /// Write every owned key once, in order.
    Preload {
        next: usize,
    },
    Mix(OpGen),
}

/// The driver's source: generated ops, checked against the model.
struct KvSource<'a> {
    model: &'a mut Model,
    n_keys: usize,
    streams: Vec<Stream>,
    current: Vec<Option<Op>>,
}

impl<'a> KvSource<'a> {
    fn preload(model: &'a mut Model, spec: &WorkloadSpec) -> KvSource<'a> {
        KvSource {
            model,
            n_keys: spec.n_keys,
            streams: (0..LOADED_CLIENTS)
                .map(|k| Stream::Preload { next: k })
                .collect(),
            current: vec![None; LOADED_CLIENTS],
        }
    }

    fn mix(
        model: &'a mut Model,
        spec: &WorkloadSpec,
        seed: u64,
        phase: u64,
        clients: usize,
    ) -> KvSource<'a> {
        KvSource {
            model,
            n_keys: spec.n_keys,
            streams: (0..clients)
                .map(|k| Stream::Mix(OpGen::new(spec, seed, phase, k, clients)))
                .collect(),
            current: vec![None; clients],
        }
    }
}

impl Source for KvSource<'_> {
    fn next(&mut self, client: usize) -> Option<(RequestKind, Bytes)> {
        let op = match &mut self.streams[client] {
            Stream::Preload { next } => {
                let key = *next;
                if key >= self.n_keys {
                    return None;
                }
                *next += LOADED_CLIENTS;
                Op::Put { key }
            }
            Stream::Mix(gen) => gen.next_op(),
        };
        self.current[client] = Some(op);
        Some(self.model.request(op))
    }

    fn reply(&mut self, client: usize, body: &ReplyBody) -> bool {
        let (Some(op), Some(payload)) = (self.current[client].take(), body.payload()) else {
            return false;
        };
        self.model.check_reply(op, payload)
    }

    fn abandoned(&mut self, client: usize) {
        if let Some(op) = self.current[client].take() {
            self.model.abandon(op);
        }
    }
}

/// Launch, wait for a leader, preload every key and warm up. Returns the
/// ready cluster, its driver and the time all of that took.
fn set_up(
    opts: &LiveOpts<'_>,
    tag: usize,
    model: &mut Model,
    tally: &mut Tally,
) -> io::Result<(Cluster, Driver, f64)> {
    let t0 = Instant::now();
    let cluster = launch(opts.spec, &opts.data_dir, tag)?;

    // A non-leader ignores client writes, so a request sent before the
    // bootstrap election ends would sit out a full client retry (500 ms).
    // Probe with a fast-retrying throwaway client until a leader answers.
    let mut probe = Driver::connect(&cluster.cluster.addrs, 1 << 40, Dur::from_millis(2))?;
    let mut one_read = OneRead { model, sent: false };
    tally.add(&probe.run(1, None, &mut one_read)?);
    drop(probe);

    let mut driver = Driver::connect_default(&cluster.cluster.addrs)?;
    let mut source = KvSource::preload(model, opts.spec);
    let stats = driver.run(LOADED_CLIENTS, None, &mut source)?;
    tally.add(&stats);
    let mut source = KvSource::mix(model, opts.spec, opts.seed, PHASE_WARMUP, LOADED_CLIENTS);
    let stats = driver.run(LOADED_CLIENTS, Some(WARMUP), &mut source)?;
    tally.add(&stats);
    Ok((cluster, driver, t0.elapsed().as_secs_f64()))
}

/// A single `Get` of key 0 (correct whether or not it was ever written).
struct OneRead<'a> {
    model: &'a mut Model,
    sent: bool,
}

impl Source for OneRead<'_> {
    fn next(&mut self, _client: usize) -> Option<(RequestKind, Bytes)> {
        (!std::mem::replace(&mut self.sent, true)).then(|| self.model.request(Op::Get { key: 0 }))
    }
    fn reply(&mut self, _client: usize, body: &ReplyBody) -> bool {
        body.payload()
            .is_some_and(|p| self.model.check_reply(Op::Get { key: 0 }, p))
    }
    fn abandoned(&mut self, _client: usize) {}
}

/// Attempted / failed over everything a run sends.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    client: ClientCounters,
}

impl Tally {
    fn add(&mut self, stats: &RunStats) {
        self.attempted += stats.attempted;
        self.failed += stats.timed_out + stats.wrong;
        self.wrong += stats.wrong;
    }
}

pub fn run(opts: &LiveOpts<'_>) -> io::Result<LiveResult> {
    // Start this workload's peak-RSS reading from the current RSS, so a
    // workload run earlier in the same process does not set it (a kernel
    // that refuses only makes `peak_rss_mb` cumulative; nothing to handle).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut tally = Tally::default();
    let mut setups_s = Vec::new();
    let mut check_failures = Vec::new();

    // The extra set-ups come first, so the measured cluster is the last
    // thing launched and nothing runs beside it.
    for tag in 1..SETUPS_PER_RUN {
        let mut model = Model::new(opts.spec);
        let (cluster, driver, secs) = set_up(opts, tag, &mut model, &mut tally)?;
        setups_s.push(secs);
        tally.client += driver.counters;
        drop(driver);
        let _lag = check_replicas(&cluster.shutdown(), &model, opts.spec, &mut check_failures);
    }

    let mut model = Model::new(opts.spec);
    let (cluster, mut driver, secs) = set_up(opts, 0, &mut model, &mut tally)?;
    setups_s.push(secs);

    let mut source = KvSource::mix(&mut model, opts.spec, opts.seed, PHASE_A, 1);
    let phase_a = driver.run(1, Some(opts.phase_a), &mut source)?;
    tally.add(&phase_a);

    let before_b = cluster.counters();
    let mut source = KvSource::mix(&mut model, opts.spec, opts.seed, PHASE_B, LOADED_CLIENTS);
    // Seconds in which the host took vCPU time away measure the host:
    // phase B notes each second's steal and makes up for the stolen ones.
    // Peak memory is read when the planned seconds are over, so that it
    // does not depend on how long the run went on.
    let mut steal_b = Vec::new();
    let mut last = steal_ticks();
    let mut peak_rss = 0.0;
    let mut more = |passed: u64| {
        let now = steal_ticks();
        steal_b.push(now.saturating_sub(last));
        last = now;
        if passed == opts.phase_b_secs {
            peak_rss = peak_rss_mb();
        }
        let clean = steal_b.iter().filter(|&&t| t <= CLEAN_STEAL_TICKS).count() as u64;
        clean < opts.phase_b_secs && passed < opts.phase_b_secs + MAX_EXTRA_SECONDS
    };
    let phase_b = driver.run_seconds(LOADED_CLIENTS, &mut more, &mut source)?;
    tally.add(&phase_b);
    let after_b = cluster.counters();

    let leader = driver.leader().map_or(0, |p: ProcessId| p.0 as usize);
    tally.client += driver.counters;
    drop(driver);
    let replicas = cluster.shutdown();
    let lag_at_shutdown = check_replicas(&replicas, &model, opts.spec, &mut check_failures);
    if tally.wrong > 0 {
        check_failures.push(format!("{} replies carried a wrong value", tally.wrong));
    }
    if opts.spec.storage == StorageKind::Mem && after_b.syncs.iter().any(|&s| s > 0) {
        check_failures.push("a _mem workload performed syncs".to_string());
    }

    Ok(LiveResult {
        setups_s,
        phase_a,
        phase_b,
        steal_b,
        planned_b_secs: opts.phase_b_secs,
        before_b,
        after_b,
        client: tally.client,
        leader,
        replica_stats: replicas.iter().map(|r| r.stats.clone()).collect(),
        attempted: tally.attempted,
        failed: tally.failed,
        check_failures,
        lag_at_shutdown,
        peak_rss_mb: peak_rss,
    })
}

/// The output checks on a stopped cluster. No two replicas may disagree
/// on committed state: replicas at the same chosen prefix hold the same
/// service state, a majority is at the highest prefix once the cluster
/// has quiesced, and that state holds every acknowledged write. A
/// minority still catching up is legal Paxos; it is counted (returned, in
/// instances behind) rather than failed.
fn check_replicas(
    replicas: &[Replica],
    model: &Model,
    spec: &WorkloadSpec,
    failures: &mut Vec<String>,
) -> u64 {
    let prefixes: Vec<u64> = replicas.iter().map(|r| r.chosen_prefix().0).collect();
    let snapshots: Vec<Bytes> = replicas.iter().map(Replica::service_snapshot).collect();
    let newest = (0..replicas.len())
        .max_by_key(|&i| prefixes[i])
        .unwrap_or(0);
    for i in 0..replicas.len() {
        if prefixes[i] == prefixes[newest] && snapshots[i] != snapshots[newest] {
            failures.push(format!(
                "replicas {i} and {newest} hold different state at the same chosen prefix \
                 (prefixes {prefixes:?})"
            ));
        }
    }
    let caught_up = prefixes.iter().filter(|&&p| p == prefixes[newest]).count();
    if caught_up < replicas.len() / 2 + 1 {
        failures.push(format!(
            "no majority at the highest chosen prefix: {prefixes:?}"
        ));
    }
    let mut store = KvStore::new();
    store.restore(&snapshots[newest]);
    let missing = model.mismatches(&store);
    if missing > 0 {
        failures.push(format!(
            "{missing} of {} keys do not hold their last acknowledged write",
            spec.n_keys
        ));
    }
    prefixes.iter().map(|p| prefixes[newest] - p).sum()
}
