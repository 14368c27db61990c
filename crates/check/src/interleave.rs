//! Interleaving checker: seeded schedule-permuting harnesses over the
//! *real* concurrency-bearing subsystems — the third layer of the
//! concurrency audit plane (static pass: [`crate::concurrency`]; dynamic
//! shim: `gridpaxos_core::sync`).
//!
//! Where `gridcheck`'s model checker explores the sans-io protocol core
//! exhaustively, this module stresses the two places real threads and
//! real locks meet:
//!
//! * **Apply pipeline** ([`kv_schedule`]): drives a live
//!   [`ApplyPool`]-wrapped [`KvStore`] — asynchronous applies racing
//!   worker threads — through a seeded sequence of enqueued writes,
//!   read fences, checkpoint freezes and chunk pulls. The oracle is a
//!   shadow `KvStore` applied synchronously at enqueue time (the
//!   sequential spec): every fence must observe exactly the shadow's
//!   state (applied-index fencing), and chunks pulled while later
//!   applies mutate the store must assemble to the freeze-time image
//!   (COW-undo correctness).
//! * **Flush coordinator** ([`flush_schedule`]): drives a live
//!   [`FlushCoordinator`] (group-commit WAL) through seeded
//!   append/flush interleavings — including multi-threaded schedules
//!   where concurrent flushers each sync one shared log — asserting the
//!   flush-before-transmit contract: after `flush()` returns with no
//!   appends outstanding, `is_dirty()` is false; syncs never exceed
//!   flush calls (group commit actually merges); every appended record
//!   survives reopen.
//!
//! Every schedule is derived from a single `u64` seed; a failure report
//! carries the seed, and `gridcheck --interleave --seed S` replays that
//! one schedule deterministically. Distinct schedules are counted by
//! hashing the full choice sequence, so the CI smoke budget can assert
//! real coverage rather than iteration count.

use gridpaxos_core::apply::ApplyPool;
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{Command, Decree, StateUpdate};
use gridpaxos_core::request::{ReplyBody, Request, RequestId, RequestKind};
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::storage::Storage;
use gridpaxos_core::types::{ClientId, Instance, ProcessId, Seq, Time};
use gridpaxos_services::{KvOp, KvStore};
use gridpaxos_transport::fstorage::{FlushCoordinator, SyncMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Options for an interleaving run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Number of apply-pipeline schedules to run.
    pub kv_seeds: u64,
    /// Number of flush-coordinator schedules to run.
    pub flush_seeds: u64,
    /// Base seed; schedule `i` uses `base + i`.
    pub base_seed: u64,
    /// Replay exactly one schedule with this seed (overrides the sweeps;
    /// runs the seed through both harnesses).
    pub replay: Option<u64>,
    /// Minimum distinct schedules the run must have explored to count as
    /// a pass (guards against silent coverage collapse).
    pub target_distinct: u64,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            kv_seeds: 11_000,
            flush_seeds: 1_200,
            base_seed: 0x5eed_0000,
            replay: None,
            target_distinct: 10_000,
        }
    }
}

/// One schedule that violated its oracle.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which harness (`"apply"` or `"flush"`).
    pub harness: &'static str,
    /// The seed that reproduces it: `gridcheck --interleave --seed S`.
    pub seed: u64,
    /// What the oracle saw.
    pub detail: String,
}

/// Aggregate result of an interleaving run.
#[derive(Debug, Default)]
pub struct Report {
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct choice sequences among them.
    pub distinct: u64,
    /// Oracle violations, each with its replay seed.
    pub failures: Vec<Failure>,
}

impl Report {
    /// Did the run pass: no failures and coverage met the target?
    #[must_use]
    pub fn passed(&self, opts: &Opts) -> bool {
        self.failures.is_empty() && (opts.replay.is_some() || self.distinct >= opts.target_distinct)
    }
}

/// Run the configured sweeps (or a single replay).
#[must_use]
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut seen = HashSet::new();
    let mut record = |report: &mut Report, harness, seed, res: Result<u64, String>| {
        report.schedules += 1;
        match res {
            Ok(hash) => {
                if seen.insert((harness, hash)) {
                    report.distinct += 1;
                }
            }
            Err(detail) => report.failures.push(Failure {
                harness,
                seed,
                detail,
            }),
        }
    };
    if let Some(seed) = opts.replay {
        record(&mut report, "apply", seed, kv_schedule(seed));
        record(&mut report, "flush", seed, flush_schedule(seed));
        return report;
    }
    for i in 0..opts.kv_seeds {
        let seed = opts.base_seed.wrapping_add(i);
        record(&mut report, "apply", seed, kv_schedule(seed));
    }
    for i in 0..opts.flush_seeds {
        let seed = opts.base_seed.wrapping_add(0x0f15_0000u64.wrapping_add(i));
        record(&mut report, "flush", seed, flush_schedule(seed));
    }
    report
}

// ---- seeded choices ----------------------------------------------------

/// SplitMix64: tiny, deterministic, seed-replayable choice source. The
/// choice *sequence* (not the raw RNG stream) is hashed to identify a
/// schedule, so two seeds making identical decisions count once.
struct Choices {
    state: u64,
    /// FNV-1a over every decision taken.
    hash: u64,
}

impl Choices {
    fn new(seed: u64) -> Choices {
        Choices {
            state: seed,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn next_raw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A choice in `0..n`, recorded into the schedule hash.
    fn pick(&mut self, n: u64) -> u64 {
        let c = self.next_raw() % n.max(1);
        self.hash ^= c.wrapping_add(1);
        self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        c
    }
}

// ---- harness A: apply pipeline ----------------------------------------

const KEYS: &[&str] = &["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"];

fn wreq(seq: u64, op: &KvOp) -> Request {
    Request::new(
        RequestId::new(ClientId(7), Seq(seq)),
        RequestKind::Write,
        op.encode(),
    )
}

/// Freeze-in-progress bookkeeping for one group.
struct FreezeState {
    total: usize,
    chunks: Vec<bytes::Bytes>,
    /// Keyspace values at freeze time (the image chunks must decode to).
    expected: Vec<Option<String>>,
}

/// Restore `bytes` into a scratch store and compare the keyspace against
/// `expected`.
fn check_image(bytes: &[u8], expected: &[Option<String>], what: &str) -> Result<(), String> {
    let mut scratch = KvStore::new();
    scratch.restore(bytes);
    for (k, want) in KEYS.iter().zip(expected) {
        let got = scratch.get(k).map(str::to_owned);
        if got != *want {
            return Err(format!("{what}: key {k} = {got:?}, oracle says {want:?}"));
        }
    }
    Ok(())
}

fn keyspace(shadow: &KvStore) -> Vec<Option<String>> {
    KEYS.iter()
        .map(|k| shadow.get(k).map(str::to_owned))
        .collect()
}

/// One apply-pipeline schedule. Returns the schedule hash, or the oracle
/// violation.
pub fn kv_schedule(seed: u64) -> Result<u64, String> {
    let mut ch = Choices::new(seed);
    let workers = 1 + ch.pick(3) as usize;
    let n_groups = 1 + ch.pick(3) as usize;
    let pool = ApplyPool::new(workers);
    let mut apps: Vec<Box<dyn App>> = (0..n_groups)
        .map(|_| pool.wrap(Box::new(KvStore::new())))
        .collect();
    let mut shadows: Vec<KvStore> = (0..n_groups).map(|_| KvStore::new()).collect();
    let mut freezes: Vec<Option<FreezeState>> = (0..n_groups).map(|_| None).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seq = 0u64;

    let n_ops = 24 + ch.pick(17);
    for _ in 0..n_ops {
        let g = ch.pick(n_groups as u64) as usize;
        match ch.pick(100) {
            // Enqueue a write: execute on the shadow (the sequential
            // spec, and the producer of the replicated StateUpdate),
            // then hand the same decree to the pipelined app.
            0..=54 => {
                let key = KEYS[ch.pick(KEYS.len() as u64) as usize].to_owned();
                let op = match ch.pick(10) {
                    0..=5 => KvOp::Put(key, format!("v{}", ch.pick(1000))),
                    6..=7 => KvOp::Add(key, ch.pick(9) as i64 - 4),
                    _ => KvOp::Del(key),
                };
                seq += 1;
                let req = wreq(seq, &op);
                let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                let (_reply, update) = shadows[g].execute(&req, &mut ctx);
                apps[g].apply(&req, &update);
            }
            // Read fence: the snapshot must observe every apply handed
            // off so far — the shadow's exact state.
            55..=69 => {
                let snap = apps[g].snapshot();
                check_image(&snap, &keyspace(&shadows[g]), "fence read")
                    .map_err(|e| format!("seed {seed}: {e}"))?;
            }
            // Checkpoint freeze: start a chunked snapshot; its image is
            // pinned at freeze time no matter what applies land after.
            70..=79 => {
                if freezes[g].is_none() {
                    let chunk_bytes = 8usize << ch.pick(5);
                    let total = apps[g].snapshot_begin(chunk_bytes);
                    freezes[g] = Some(FreezeState {
                        total,
                        chunks: Vec::new(),
                        expected: keyspace(&shadows[g]),
                    });
                }
            }
            // Pull the next chunk; on the last, the assembled image must
            // equal the freeze-time oracle despite interleaved applies.
            80..=94 => {
                if let Some(mut fz) = freezes[g].take() {
                    let idx = fz.chunks.len();
                    fz.chunks.push(apps[g].snapshot_chunk(idx));
                    if fz.chunks.len() >= fz.total {
                        finish_freeze(&mut apps[g], &fz)
                            .map_err(|e| format!("seed {seed}: {e}"))?;
                    } else {
                        freezes[g] = Some(fz);
                    }
                }
            }
            // Give the worker threads a preemption point.
            _ => std::thread::yield_now(),
        }
    }

    // Drain: finish any open freeze, then a final fence per group.
    for g in 0..n_groups {
        if let Some(mut fz) = freezes[g].take() {
            while fz.chunks.len() < fz.total {
                let idx = fz.chunks.len();
                fz.chunks.push(apps[g].snapshot_chunk(idx));
            }
            finish_freeze(&mut apps[g], &fz).map_err(|e| format!("seed {seed}: {e}"))?;
        }
        let snap = apps[g].snapshot();
        check_image(&snap, &keyspace(&shadows[g]), "final fence")
            .map_err(|e| format!("seed {seed}: {e}"))?;
    }
    Ok(ch.hash)
}

fn finish_freeze(app: &mut Box<dyn App>, fz: &FreezeState) -> Result<(), String> {
    let image: Vec<u8> = fz.chunks.iter().flat_map(|c| c.iter().copied()).collect();
    let res = check_image(&image, &fz.expected, "assembled checkpoint");
    app.snapshot_end();
    res
}

// ---- harness B: flush coordinator -------------------------------------

fn ballot() -> Ballot {
    Ballot::new(1, ProcessId(0))
}

fn decree(seq: u64) -> Decree {
    Decree::single(
        Command::Req(Request::new(
            RequestId::new(ClientId(2), Seq(seq)),
            RequestKind::Write,
            bytes::Bytes::from(vec![0xabu8; 24]),
        )),
        StateUpdate::Full(bytes::Bytes::from(vec![0xcdu8; 16])),
        ReplyBody::Ok(bytes::Bytes::new()),
    )
}

/// One flush-coordinator schedule. Single-threaded seeds interleave
/// append/flush/dirty-check ops deterministically; every eighth seed
/// instead races one appender+flusher thread per group: concurrent
/// flushers on one log, each syncing what it saw appended.
pub fn flush_schedule(seed: u64) -> Result<u64, String> {
    let mut ch = Choices::new(seed ^ 0xf1a5);
    let dir = std::env::temp_dir().join(format!(
        "gridpaxos-interleave-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let res = flush_schedule_in(&mut ch, &dir, seed);
    let _ = std::fs::remove_dir_all(&dir);
    res.map(|()| ch.hash)
}

fn flush_schedule_in(ch: &mut Choices, dir: &std::path::Path, seed: u64) -> Result<(), String> {
    let n_groups = 1 + ch.pick(3) as usize;
    let coord = FlushCoordinator::open(dir, SyncMode::Batched, n_groups)
        .map_err(|e| format!("seed {seed}: open: {e}"))?;
    let mut storages = coord.storages();
    let mut next_instance = vec![0u64; n_groups];
    let mut flushes = 0u64;
    let threaded = ch.pick(8) == 0;

    if threaded {
        // Race concurrent flushers: one thread per group, each
        // appending and flushing on its own storage handle against the
        // shared WAL. Decisions inside the threads come from derived
        // seeds (recorded into the schedule hash up front so replays
        // stay deterministic).
        let per_thread_ops: Vec<u64> = (0..n_groups).map(|_| 6 + ch.pick(10)).collect();
        let mut saved = vec![0u64; n_groups];
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (g, storage) in storages.drain(..).enumerate() {
                let ops = per_thread_ops[g];
                let tseed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(g as u64);
                handles.push(s.spawn(move || {
                    let mut storage = storage;
                    let mut tch = Choices::new(tseed);
                    let mut n = 0u64;
                    for i in 0..ops {
                        if tch.pick(3) == 0 {
                            storage.flush();
                        } else {
                            n += 1;
                            storage.save_accepted(Instance(i + 1), ballot(), &decree(i + 1));
                        }
                    }
                    storage.flush();
                    n
                }));
            }
            for (g, h) in handles.into_iter().enumerate() {
                saved[g] = h.join().expect("flush thread");
            }
        });
        if coord.is_dirty() {
            return Err(format!(
                "seed {seed}: coordinator dirty after every thread flushed"
            ));
        }
        // Reopen: every accepted record must have survived.
        drop(coord);
        let reopened = FlushCoordinator::open(dir, SyncMode::Batched, n_groups)
            .map_err(|e| format!("seed {seed}: reopen: {e}"))?;
        for (g, want) in saved.iter().enumerate() {
            let got = reopened.storage(g).load().accepted.len() as u64;
            if got != *want {
                return Err(format!(
                    "seed {seed}: group {g} reopened with {got} accepted records, \
                     appended {want}"
                ));
            }
        }
        return Ok(());
    }

    let n_ops = 12 + ch.pick(13);
    let mut dirty = false;
    for _ in 0..n_ops {
        let g = ch.pick(n_groups as u64) as usize;
        match ch.pick(10) {
            0..=5 => {
                next_instance[g] += 1;
                let i = next_instance[g];
                storages[g].save_accepted(Instance(i), ballot(), &decree(i));
                dirty = true;
                if !coord.is_dirty() {
                    return Err(format!(
                        "seed {seed}: batched append reported clean before any flush"
                    ));
                }
            }
            6..=8 => {
                storages[g].flush();
                flushes += 1;
                dirty = false;
                if coord.is_dirty() {
                    return Err(format!(
                        "seed {seed}: coordinator dirty right after flush returned"
                    ));
                }
            }
            _ => {
                if coord.is_dirty() != dirty {
                    return Err(format!(
                        "seed {seed}: is_dirty() = {}, schedule says {dirty}",
                        !dirty
                    ));
                }
            }
        }
    }
    storages[0].flush();
    flushes += 1;
    if coord.is_dirty() {
        return Err(format!("seed {seed}: dirty after final flush"));
    }
    if coord.syncs() > flushes {
        return Err(format!(
            "seed {seed}: {} fsyncs for {flushes} flush calls — group commit \
             must never sync more than it is asked",
            coord.syncs()
        ));
    }
    // Reopen and verify nothing was lost.
    drop(coord);
    let reopened = FlushCoordinator::open(dir, SyncMode::Batched, n_groups)
        .map_err(|e| format!("seed {seed}: reopen: {e}"))?;
    for (g, want) in next_instance.iter().enumerate() {
        let got = reopened.storage(g).load().accepted.len() as u64;
        if got != *want {
            return Err(format!(
                "seed {seed}: group {g} reopened with {got} accepted records, \
                 appended {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_schedules_pass_and_replay_deterministically() {
        for seed in 0..40 {
            let a = kv_schedule(seed).unwrap_or_else(|e| panic!("{e}"));
            let b = kv_schedule(seed).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a, b, "schedule hash must be seed-deterministic");
        }
    }

    #[test]
    fn flush_schedules_pass_and_replay_deterministically() {
        for seed in 0..24 {
            let a = flush_schedule(seed).unwrap_or_else(|e| panic!("{e}"));
            let b = flush_schedule(seed).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a, b, "schedule hash must be seed-deterministic");
        }
    }

    #[test]
    fn distinct_schedules_accumulate() {
        let report = run(&Opts {
            kv_seeds: 50,
            flush_seeds: 10,
            base_seed: 1,
            replay: None,
            target_distinct: 40,
        });
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.distinct >= 40, "only {} distinct", report.distinct);
    }

    /// Seeded-mutation self-test: a harness whose oracle cannot catch a
    /// broken fence is worthless. Simulate the bug by *skipping* an
    /// apply on the shadow only — the pipeline and the spec diverge, and
    /// the fence comparison must notice.
    #[test]
    fn oracle_catches_divergence() {
        let pool = ApplyPool::new(2);
        let mut app = pool.wrap(Box::new(KvStore::new()));
        let mut shadow = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(9);
        let op = KvOp::Put("k0".into(), "real".into());
        let req = wreq(1, &op);
        let mut ctx = ExecCtx::new(Time(1), &mut rng);
        let (_r, update) = shadow.execute(&req, &mut ctx);
        app.apply(&req, &update);
        // Mutation: shadow takes a second write the pipeline never sees.
        let op2 = KvOp::Put("k0".into(), "lost".into());
        let req2 = wreq(2, &op2);
        let mut ctx2 = ExecCtx::new(Time(2), &mut rng);
        let _ = shadow.execute(&req2, &mut ctx2);
        let snap = app.snapshot();
        assert!(
            check_image(&snap, &keyspace(&shadow), "fence").is_err(),
            "oracle must flag a dropped apply"
        );
    }

    /// Seeded-mutation self-test for the checkpoint oracle: freeze, then
    /// mutate, then compare the live image against the freeze-time
    /// expectation — the comparison must fail (proving it would catch a
    /// COW-undo bug that leaked post-freeze writes into chunks).
    #[test]
    fn oracle_catches_freeze_leak() {
        let mut store = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(10);
        let mut ctx = ExecCtx::new(Time(1), &mut rng);
        let _ = store.execute(&wreq(1, &KvOp::Put("k1".into(), "before".into())), &mut ctx);
        let frozen_expect = keyspace(&store);
        let mut ctx2 = ExecCtx::new(Time(2), &mut rng);
        let _ = store.execute(&wreq(2, &KvOp::Put("k1".into(), "after".into())), &mut ctx2);
        // A buggy freeze would serve the *live* image:
        let live = store.snapshot();
        assert!(
            check_image(&live, &frozen_expect, "checkpoint").is_err(),
            "oracle must distinguish freeze-time image from live state"
        );
    }
}
