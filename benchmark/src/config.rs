//! The pinned system under test and the four workloads. Everything a
//! later PR must hold fixed to compare against this benchmark lives here
//! (and is echoed in README.md).

use gridpaxos_core::config::{Config, ReadMode, ValueMode};
use gridpaxos_core::types::Dur;
use gridpaxos_transport::ReactorConfig;
use std::time::Duration;

/// Replicas in the loopback cluster.
pub const N_REPLICAS: usize = 3;
/// Virtual clients in the loaded phase (phase B), in preload and warm-up.
pub const LOADED_CLIENTS: usize = 16;
/// `ClientCore` retransmission timeout — what `ReactorCluster::client()`
/// ships.
pub const CLIENT_RETRY: Dur = Dur::from_millis(500);
/// A request unanswered for this long counts as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(2);
/// Warm-up at [`LOADED_CLIENTS`] after the preload, part of set-up.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Set-ups per run; `setup_s` is their median and the last one is measured.
pub const SETUPS_PER_RUN: usize = 3;
/// Follower suspicion timeout. `Config::cluster`'s 50 ms is shorter than
/// the gaps in which a shared host takes a vCPU away: every such gap
/// started an election (up to 34 in one 15 s run), and the benchmark
/// measures the paper's steady state, "no suspicions and no failures".
/// As long as [`OP_DEADLINE`]: a longer stall fails requests anyway.
pub const SUSPECT_TIMEOUT: Dur = Dur::from_millis(2_000);
/// Byte cap of a connection's send queue. At the default 1 MiB a follower
/// that loses its vCPU for 25 ms of `write_large_mem` traffic overflows
/// the leader's queue to it, frames are dropped, and the catch-up that
/// follows overloads the cluster until requests time out.
pub const SEND_QUEUE_CAP: usize = 64 << 20;
/// A second of phase B counts as stolen when the host withheld more than
/// this many ticks (1/100 s) of vCPU time during it (`/proc/stat`,
/// `steal`). Quiet runs show 0 to 3 ticks in 18 s; the episodes that
/// halve throughput, 25 to 90 a second.
pub const CLEAN_STEAL_TICKS: u64 = 2;
/// Phase B goes on until it has its planned number of clean seconds, for
/// at most this many seconds more.
pub const MAX_EXTRA_SECONDS: u64 = 10;
/// Modelled disk: added to every dirty `flush()` of a durable workload.
pub const SYNC_DELAY: Duration = Duration::from_micros(500);
/// Requests pushed through the traced shuttle.
pub const SHUTTLE_OPS: usize = 2_000;
/// Requests per seeded simulator run.
pub const SIM_OPS: u64 = 2_000;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 42;
/// Default `--seconds` (phase A = a third, phase B = two thirds).
pub const DEFAULT_SECONDS: u64 = 15;

/// The replica configuration of every workload: `Config::cluster(3)` with
/// the server binary's defaults for the two knobs it overrides, and
/// [`SUSPECT_TIMEOUT`].
pub fn cluster_config() -> Config {
    let mut cfg = Config::cluster(N_REPLICAS)
        .with_read_mode(ReadMode::XPaxos)
        .with_value_mode(ValueMode::ReqState)
        .with_checkpoint_chunk_bytes(64 * 1024)
        .with_apply_workers(0);
    cfg.bootstrap_leader = Some(gridpaxos_core::types::ProcessId(0));
    cfg.suspect_timeout = SUSPECT_TIMEOUT;
    cfg
}

/// The reactor configuration of every workload: the defaults, except
/// [`SEND_QUEUE_CAP`].
pub fn reactor_config() -> ReactorConfig {
    ReactorConfig {
        send_queue_cap: SEND_QUEUE_CAP,
        ..ReactorConfig::default()
    }
}

/// Where a workload's replicas keep their log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    /// `core::storage::MemStorage`: no appends, no syncs.
    Mem,
    /// `FlushCoordinator` WAL inside the checkout plus the modelled
    /// [`SYNC_DELAY`] per dirty flush (see `delay_storage.rs`).
    Durable,
}

/// One traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Share of `Get` among the operations, in percent.
    pub read_pct: u32,
    pub value_bytes: usize,
    pub n_keys: usize,
    /// Zipfian skew over a client's keys; `None` = uniform.
    pub zipf_theta: Option<f64>,
    pub storage: StorageKind,
}

/// The workloads, by their fixed names; why each exists is in README.md
/// and `BENCHMARK.json`.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "write_mem",
        read_pct: 0,
        value_bytes: 64,
        n_keys: 10_000,
        zipf_theta: None,
        storage: StorageKind::Mem,
    },
    WorkloadSpec {
        name: "write_durable",
        read_pct: 0,
        value_bytes: 64,
        n_keys: 10_000,
        zipf_theta: None,
        storage: StorageKind::Durable,
    },
    WorkloadSpec {
        name: "mixed_durable",
        read_pct: 90,
        value_bytes: 64,
        n_keys: 10_000,
        zipf_theta: Some(0.99),
        storage: StorageKind::Durable,
    },
    WorkloadSpec {
        name: "write_large_mem",
        read_pct: 0,
        value_bytes: 2 * 1024,
        n_keys: 2_048,
        zipf_theta: None,
        storage: StorageKind::Mem,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
