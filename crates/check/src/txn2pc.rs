//! Cross-group atomicity checker for the 2PC coordination plane
//! (`gridpaxos_core::txn` over sharded `KvStore` groups), two harnesses:
//!
//! * **World walks** ([`world_walk`]): seeded random walks over a full
//!   simulated deployment — several consensus groups on a 3-node
//!   cluster, concurrent transfer clients driving real 2PC
//!   coordinators, and a seeded crash/recover schedule that takes down
//!   participant and home-group leaders mid-transaction. The invariant
//!   (the services' [`audit_transfers`]) is checked on the quiescent
//!   final state: no group may still hold a prepared intent, and the
//!   books must balance — a half-committed transfer (debit applied,
//!   credit dropped) shows up as created or destroyed money.
//! * **Lock/intent-table schedules** ([`kv2pc_schedule`]): seeded op
//!   sequences (prepare / decide / plain write / per-op transaction
//!   step / T-Paxos transaction step / scan / snapshot round-trip /
//!   tentative rollback) on one key pool against a live sharded
//!   [`KvStore`] pair — a "leader" running the transaction hooks and a
//!   "backup" applying only the shipped deltas — with a shadow model
//!   of the one lock table, the intent table and the decision table as
//!   the sequential spec. Every vote, decide outcome, lock refusal and
//!   scan fence is compared against the model; at the end the backup
//!   must equal the leader byte for byte (delta completeness).
//!
//! Every case derives from one `u64` seed; failures print the seed and
//! `gridcheck --txn2pc --seed S` replays it.

use gridpaxos_core::config::Config;
use gridpaxos_core::request::{AbortReason, Request, RequestId, RequestKind};
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::types::{shard_of, ClientId, Dur, GroupId, ProcessId, Seq, Time, TxnId};
use gridpaxos_services::{
    agreed_stores, audit_transfers, encode_txn_ops, shard_router, transfer_legs, KvOp, KvStore,
};
use gridpaxos_simnet::workload::TransferLoop;
use gridpaxos_simnet::world::{SimOpts, World};
use gridpaxos_simnet::Topology;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};

/// Options for a txn2pc run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Number of simulated-world random walks.
    pub world_seeds: u64,
    /// Number of lock/intent-table schedules.
    pub kv_seeds: u64,
    /// Base seed; case `i` uses `base + i`.
    pub base_seed: u64,
    /// Replay exactly one seed through both harnesses.
    pub replay: Option<u64>,
    /// Minimum distinct schedules for the run to count as a pass.
    pub target_distinct: u64,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            world_seeds: 48,
            kv_seeds: 6_000,
            base_seed: 0x2bc0_0000,
            replay: None,
            target_distinct: 4_000,
        }
    }
}

/// One seed that violated its oracle.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which harness (`"world"` or `"kv2pc"`).
    pub harness: &'static str,
    /// The seed that reproduces it: `gridcheck --txn2pc --seed S`.
    pub seed: u64,
    /// What the oracle saw.
    pub detail: String,
}

/// Aggregate result of a txn2pc run.
#[derive(Debug, Default)]
pub struct Report {
    /// Cases executed.
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
        record(&mut report, "world", seed, world_walk(seed));
        record(&mut report, "kv2pc", seed, kv2pc_schedule(seed));
        return report;
    }
    for i in 0..opts.world_seeds {
        let seed = opts.base_seed.wrapping_add(i);
        record(&mut report, "world", seed, world_walk(seed));
    }
    for i in 0..opts.kv_seeds {
        let seed = opts.base_seed.wrapping_add(0x2bc1_0000u64.wrapping_add(i));
        record(&mut report, "kv2pc", seed, kv2pc_schedule(seed));
    }
    report
}

// ---- seeded choices ----------------------------------------------------

/// SplitMix64 choice source; the decision sequence is FNV-hashed so two
/// seeds that make identical choices count as one schedule.
struct Choices {
    state: u64,
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

    fn pick(&mut self, n: u64) -> u64 {
        let c = self.next_raw() % n.max(1);
        self.hash ^= c.wrapping_add(1);
        self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        c
    }
}

// ---- harness A: simulated-world random walks ---------------------------

const START: Time = Time(200_000_000);
const DEADLINE: Time = Time(3_600_000_000_000);

/// One seeded random walk: build a sharded world, run concurrent
/// transfer clients under a seeded crash/recover schedule, then check
/// [`audit_transfers`] on the settled state. Returns the schedule hash.
pub fn world_walk(seed: u64) -> Result<u64, String> {
    let mut ch = Choices::new(seed ^ 0x2bc0);
    let n_groups = 2 + ch.pick(3) as usize; // 2..=4
    let clients = 2 + ch.pick(2) as usize;
    let accounts = 6 + ch.pick(6) as usize;
    let per_client = 6 + ch.pick(6);

    let opts = SimOpts::for_topology(Topology::sysnet(3), seed);
    let mut w = World::new_sharded(
        Config::cluster(3),
        opts,
        Box::new(move |g| Box::new(KvStore::sharded_in(g.0, n_groups))),
        n_groups,
        Some(shard_router()),
    );
    for c in 0..clients {
        let legs = move |s: usize, d: usize| {
            transfer_legs(&format!("acct{s}"), &format!("acct{d}"), 1, n_groups)
        };
        w.add_client(
            Box::new(TransferLoop::new(
                accounts,
                n_groups,
                per_client,
                seed.wrapping_mul(0x100_0000_01b3).wrapping_add(c as u64),
                Box::new(legs),
            )),
            None,
            START,
        );
    }

    // Crash/recover cycles, strictly sequential so a majority stays up:
    // group g's bootstrap leader is node g mod 3, so any node crash
    // decapitates at least one group — home groups included — mid-2PC.
    let cycles = ch.pick(3);
    let mut t = Dur::from_millis(400).0;
    for _ in 0..cycles {
        let node = ProcessId(ch.pick(3) as u32);
        let crash = t + Dur::from_millis(ch.pick(300)).0;
        let down = Dur::from_millis(400 + ch.pick(1200)).0;
        w.crash_at(node, Time(crash));
        w.recover_at(node, Time(crash + down));
        t = crash + down + Dur::from_millis(300 + ch.pick(300)).0;
    }

    if !w.run_to_completion(DEADLINE) {
        return Err(format!(
            "seed {seed}: transfers did not complete (liveness)"
        ));
    }
    let commits = w.metrics.txn_commits;
    if commits < clients as u64 * per_client {
        return Err(format!(
            "seed {seed}: only {commits} commits for {} requested transfers",
            clients as u64 * per_client
        ));
    }
    let settle = w.now.after(Dur::from_secs(2));
    w.run_until(settle);

    agreed_stores(n_groups, |g| w.replica_states_of(g))
        .and_then(|stores| audit_transfers(&stores))
        .map_err(|v| format!("seed {seed}: {v}"))?;
    Ok(ch.hash)
}

// ---- harness B: lock/intent-table schedules ----------------------------

/// Shadow model of the store's 2PC surface: the sequential spec the
/// live leader/backup pair is compared against.
#[derive(Default)]
struct Model {
    committed: BTreeMap<String, String>,
    locks: BTreeMap<String, u64>,
    intents: BTreeMap<u64, Vec<(String, Option<String>)>>,
    decisions: BTreeMap<u64, bool>,
    version: u64,
    /// Writes staged by open per-op and T-Paxos transactions; their
    /// keys sit in `locks` beside the prepared ones.
    staged: BTreeMap<u64, Vec<(String, Option<String>)>>,
}

impl Model {
    fn balance(&self, k: &str) -> i64 {
        self.committed
            .get(k)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    fn apply_writes(&mut self, ws: &[(String, Option<String>)]) {
        for (k, v) in ws {
            match v {
                Some(v) => {
                    self.committed.insert(k.clone(), v.clone());
                }
                None => {
                    self.committed.remove(k);
                }
            }
        }
    }

    /// Spec of a transactional write (`txn_execute`, either mode): a
    /// key another transaction holds is a conflict; otherwise the write
    /// is staged, an `Add` reading through the transaction's own writes.
    fn stage(&mut self, txn: u64, op: &KvOp) -> Result<(), AbortReason> {
        let key = op_key(op).to_owned();
        if self.locks.get(&key).is_some_and(|owner| *owner != txn) {
            return Err(AbortReason::Conflict);
        }
        let staged = self.staged.get(&txn);
        let own = staged.and_then(|ws| ws.iter().rev().find(|(k, _)| *k == key));
        let value = match op {
            KvOp::Put(_, v) => Some(v.clone()),
            KvOp::Add(_, d) => {
                let cur = match own {
                    Some((_, v)) => v.as_deref().and_then(|v| v.parse().ok()).unwrap_or(0),
                    None => self.balance(&key),
                };
                Some((cur + d).to_string())
            }
            _ => None,
        };
        self.staged
            .entry(txn)
            .or_default()
            .push((key.clone(), value));
        self.locks.insert(key, txn);
        Ok(())
    }

    /// Spec of `txn_commit` / `txn_abort`: the locks go, the staged
    /// writes apply on a commit (an empty transaction commits to nothing).
    fn finish(&mut self, txn: u64, commit: bool) {
        self.locks.retain(|_, owner| *owner != txn);
        if let Some(ws) = self.staged.remove(&txn).filter(|_| commit) {
            self.apply_writes(&ws);
            self.version += 1;
        }
    }

    /// Spec of `txn_prepare`: the expected vote, mutating the model on
    /// a yes.
    fn prepare(
        &mut self,
        txn: u64,
        ops: &[KvOp],
        foreign: impl Fn(&KvOp) -> bool,
    ) -> Result<(), AbortReason> {
        if self.decisions.contains_key(&txn) {
            return Err(AbortReason::InDoubt);
        }
        if ops.iter().any(&foreign) {
            return Err(AbortReason::CrossShard);
        }
        if ops.iter().any(|op| {
            self.locks
                .get(op_key(op))
                .is_some_and(|owner| *owner != txn)
        }) {
            return Err(AbortReason::Conflict);
        }
        let mut writes: Vec<(String, Option<String>)> = Vec::new();
        for op in ops {
            let w = match op {
                KvOp::Put(k, v) => (k.clone(), Some(v.clone())),
                KvOp::Del(k) => (k.clone(), None),
                KvOp::Add(k, d) => {
                    let through = writes.iter().rev().find(|(wk, _)| wk == k);
                    let cur = match through {
                        Some((_, v)) => v.as_deref().and_then(|v| v.parse().ok()).unwrap_or(0),
                        None => self.balance(k),
                    };
                    (k.clone(), Some((cur + d).to_string()))
                }
                _ => unreachable!("writes only"),
            };
            writes.push(w);
        }
        for (k, _) in &writes {
            self.locks.insert(k.clone(), txn);
        }
        self.intents.insert(txn, writes);
        self.version += 1;
        Ok(())
    }

    /// Spec of `txn_decide` / `decide_2pc`: the expected actual outcome.
    fn decide(&mut self, txn: u64, commit: bool, record: bool) -> bool {
        let actual = if record {
            *self.decisions.entry(txn).or_insert(commit)
        } else {
            self.decisions.get(&txn).copied().unwrap_or(commit)
        };
        self.locks.retain(|_, owner| *owner != txn);
        if let Some(ws) = self.intents.remove(&txn) {
            if actual {
                self.apply_writes(&ws);
            }
        }
        self.version += 1;
        actual
    }
}

fn op_key(op: &KvOp) -> &str {
    match op {
        KvOp::Get(k) | KvOp::Put(k, _) | KvOp::Del(k) | KvOp::Add(k, _) | KvOp::Scan(k) => k,
        KvOp::Fence => "",
    }
}

/// Compare a live store against the model (committed keys, lock/intent
/// tables via `prepared_txns`, decision table, state version).
fn compare_store(who: &str, store: &KvStore, model: &Model, txn_pool: u64) -> Result<(), String> {
    let live: BTreeMap<String, String> = store
        .iter()
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    if live != model.committed {
        return Err(format!(
            "{who}: committed state diverged from model\n live: {live:?}\n spec: {:?}",
            model.committed
        ));
    }
    let mut open = store.prepared_txns();
    open.sort_unstable();
    let want: Vec<u64> = model.intents.keys().copied().collect();
    if open != want {
        return Err(format!(
            "{who}: prepared intents {open:?}, model says {want:?}"
        ));
    }
    for t in 1..=txn_pool {
        if store.decision(t) != model.decisions.get(&t).copied() {
            return Err(format!(
                "{who}: decision for txn {t} = {:?}, model says {:?}",
                store.decision(t),
                model.decisions.get(&t)
            ));
        }
    }
    if store.version() != model.version {
        return Err(format!(
            "{who}: version {} != model version {}",
            store.version(),
            model.version
        ));
    }
    Ok(())
}

/// One lock/intent-table schedule: a leader store running the
/// transaction hooks of all three modes, a backup store applying only
/// shipped deltas, and the shadow model as the oracle. Returns the
/// schedule hash.
pub fn kv2pc_schedule(seed: u64) -> Result<u64, String> {
    // A `TxnId` names one transaction in one mode: 2PC draws from
    // `1..=TXN_POOL`, per-op and T-Paxos transactions from their own ids.
    const TXN_POOL: u64 = 6;
    const PER_OP: [u64; 2] = [11, 12];
    const T_PAXOS: [u64; 2] = [21, 22];
    let mut ch = Choices::new(seed ^ 0xfee1);
    let n_groups = 2usize;
    let mut leader = KvStore::sharded_in(0, n_groups);
    let mut backup = KvStore::sharded_in(0, n_groups);
    let mut model = Model::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seq = 0u64;

    // Partition a key pool by ownership: `owned` hash to group 0,
    // `foreign` to group 1 (misrouted-leg refusals).
    let mut owned = Vec::new();
    let mut foreign_keys = Vec::new();
    for i in 0..16 {
        let k = format!("acct{i}");
        let g = shard_of(KvOp::Get(k.clone()).shard_key().expect("keyed"), n_groups);
        if g == GroupId(0) {
            owned.push(k);
        } else {
            foreign_keys.push(k);
        }
    }
    assert!(!owned.is_empty() && !foreign_keys.is_empty());

    let is_foreign = {
        let foreign_keys = foreign_keys.clone();
        move |op: &KvOp| foreign_keys.iter().any(|k| k == op_key(op))
    };

    let n_ops = 20 + ch.pick(21);
    for _ in 0..n_ops {
        match ch.pick(100) {
            // Prepare a leg: 1-2 writes, occasionally including a
            // foreign key (the vote must be a CrossShard refusal).
            0..=29 => {
                let txn = 1 + ch.pick(TXN_POOL);
                let n_writes = 1 + ch.pick(2);
                let mut ops = Vec::new();
                for _ in 0..n_writes {
                    let key = if ch.pick(8) == 0 {
                        foreign_keys[ch.pick(foreign_keys.len() as u64) as usize].clone()
                    } else {
                        owned[ch.pick(owned.len() as u64) as usize].clone()
                    };
                    ops.push(match ch.pick(10) {
                        0..=4 => KvOp::Add(key, ch.pick(9) as i64 - 4),
                        5..=7 => KvOp::Put(key, format!("{}", ch.pick(50))),
                        _ => KvOp::Del(key),
                    });
                }
                seq += 1;
                let req = Request::txn_prepare(
                    RequestId::new(ClientId(9), Seq(seq)),
                    TxnId(txn),
                    encode_txn_ops(&ops),
                );
                let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                let got = leader.txn_prepare(TxnId(txn), &req, &mut ctx);
                let want = model.prepare(txn, &ops, &is_foreign);
                match (got, want) {
                    (Ok(update), Ok(())) => backup.apply(&req, &update),
                    (Err(g), Err(w)) if g == w => {}
                    (g, w) => {
                        return Err(format!(
                            "seed {seed}: prepare txn {txn} voted {:?}, model says {:?}",
                            g.map(|_| ()),
                            w
                        ))
                    }
                }
            }
            // Decide: commit or abort, recorded (home-group role) or
            // participant-directed; the actual outcome must match the
            // record-if-absent spec.
            30..=54 => {
                let txn = 1 + ch.pick(TXN_POOL);
                let commit = ch.pick(2) == 1;
                let rec = ch.pick(2) == 1;
                let (actual, update) = leader.txn_decide(TxnId(txn), commit, rec);
                let want = model.decide(txn, commit, rec);
                if actual != want {
                    return Err(format!(
                        "seed {seed}: decide txn {txn} commit={commit} record={rec} \
                         resolved to {actual}, model says {want}"
                    ));
                }
                backup.apply_txn_decide(TxnId(txn), commit, &update);
            }
            // Plain write: must bounce off a key any transaction holds.
            55..=64 => {
                let key = owned[ch.pick(owned.len() as u64) as usize].clone();
                let op = match ch.pick(4) {
                    0..=2 => KvOp::Add(key.clone(), ch.pick(9) as i64 - 4),
                    _ => KvOp::Put(key.clone(), format!("{}", ch.pick(50))),
                };
                seq += 1;
                let req = Request::new(
                    RequestId::new(ClientId(9), Seq(seq)),
                    RequestKind::Write,
                    op.encode(),
                );
                let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                let (reply, update) = leader.execute(&req, &mut ctx);
                let locked = model.locks.contains_key(&key);
                if (reply.as_ref() == b"\0LOCKED") != locked {
                    return Err(format!(
                        "seed {seed}: write to {key} locked={}, model says {locked}",
                        reply.as_ref() == b"\0LOCKED"
                    ));
                }
                if !locked {
                    match &op {
                        KvOp::Add(k, d) => {
                            let v = (model.balance(k) + d).to_string();
                            model.apply_writes(&[(k.clone(), Some(v))]);
                        }
                        KvOp::Put(k, v) => {
                            model.apply_writes(&[(k.clone(), Some(v.clone()))]);
                        }
                        _ => unreachable!(),
                    }
                    model.version += 1;
                    backup.apply(&req, &update);
                }
            }
            // A step of a per-op (replicated staging) or T-Paxos
            // (leader-local staging) transaction on the same keys: a
            // write, a commit or an abort.
            pick @ 65..=84 => {
                let durable = pick < 75;
                let pool = if durable { PER_OP } else { T_PAXOS };
                let txn = pool[ch.pick(2) as usize];
                seq += 1;
                let id = RequestId::new(ClientId(9), Seq(seq));
                match ch.pick(5) {
                    0..=2 => {
                        let key = owned[ch.pick(owned.len() as u64) as usize].clone();
                        let op = match ch.pick(4) {
                            0..=1 => KvOp::Add(key, ch.pick(9) as i64 - 4),
                            2 => KvOp::Put(key, format!("{}", ch.pick(50))),
                            _ => KvOp::Del(key),
                        };
                        let req = Request::txn_op(id, RequestKind::Write, TxnId(txn), op.encode());
                        let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                        let got = leader.txn_execute(TxnId(txn), &req, durable, &mut ctx);
                        let want = model.stage(txn, &op);
                        match (got, want) {
                            (Ok((_, update)), Ok(())) if update.is_none() != durable => {
                                backup.apply(&req, &update);
                            }
                            (Err(g), Err(w)) if g == w => {}
                            (g, w) => {
                                let g = g.map(|(_, update)| update.is_none());
                                return Err(format!(
                                    "seed {seed}: txn {txn} {op:?} got {g:?}, model says {w:?}"
                                ));
                            }
                        }
                    }
                    3 => {
                        let n_ops = model.staged.get(&txn).map_or(0, Vec::len) as u32;
                        let update = leader.txn_commit(TxnId(txn));
                        model.finish(txn, true);
                        if durable {
                            backup.apply(&Request::txn_commit(id, TxnId(txn), n_ops), &update);
                        } else {
                            backup.apply_txn_commit(TxnId(txn), &[], &update);
                        }
                    }
                    _ => {
                        leader.txn_abort(TxnId(txn));
                        model.finish(txn, false);
                        if durable {
                            let abort = Request::txn_abort(id, TxnId(txn));
                            backup.apply(&abort, &gridpaxos_core::command::StateUpdate::None);
                        }
                    }
                }
            }
            // Scan: blocked exactly while a prepared intent's lock
            // overlaps the prefix; otherwise the fenced body must equal
            // the model.
            85..=91 => {
                seq += 1;
                let req = Request::new(
                    RequestId::new(ClientId(9), Seq(seq)),
                    RequestKind::Read,
                    KvOp::Scan("acct".into()).encode(),
                );
                let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                let (reply, _) = leader.execute(&req, &mut ctx);
                let blocked = model
                    .locks
                    .iter()
                    .any(|(k, owner)| *owner <= TXN_POOL && k.starts_with("acct"));
                if (reply.as_ref() == gridpaxos_services::SCAN_BLOCKED) != blocked {
                    return Err(format!(
                        "seed {seed}: scan blocked={}, model says {blocked}",
                        reply.as_ref() == gridpaxos_services::SCAN_BLOCKED
                    ));
                }
                if !blocked {
                    let (v, body) = KvStore::decode_versioned_scan(&reply)
                        .ok_or_else(|| format!("seed {seed}: unversioned sharded scan"))?;
                    if v != model.version {
                        return Err(format!(
                            "seed {seed}: scan fenced at version {v}, model at {}",
                            model.version
                        ));
                    }
                    let want = model
                        .committed
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join("\n");
                    if body != want {
                        return Err(format!("seed {seed}: scan body {body:?}, model {want:?}"));
                    }
                }
            }
            // Snapshot round-trip: replicated state (staging, intents,
            // locks, decisions, version) must survive a restore — the
            // recovery path a crashed home group depends on — and
            // leader-local staging must not.
            92..=95 => {
                let snap = leader.snapshot();
                let mut fresh = KvStore::sharded_in(0, n_groups);
                fresh.restore(&snap);
                leader = fresh;
                T_PAXOS.iter().for_each(|t| model.finish(*t, false));
                compare_store("leader after restore", &leader, &model, TXN_POOL)
                    .map_err(|e| format!("seed {seed}: {e}"))?;
            }
            // Tentative rollback: a leader that executed a prepare, a
            // decide and a per-op write tentatively and rolled back
            // (superseded proposal) must restore the exact tables, and
            // drops its leader-local staging as a restore would.
            _ => {
                if leader.tentative_begin() {
                    let txn = 1 + ch.pick(TXN_POOL);
                    seq += 1;
                    let ops = [KvOp::Put(
                        owned[ch.pick(owned.len() as u64) as usize].clone(),
                        "tentative".into(),
                    )];
                    let req = Request::txn_prepare(
                        RequestId::new(ClientId(9), Seq(seq)),
                        TxnId(txn),
                        encode_txn_ops(&ops),
                    );
                    let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                    let _ = leader.txn_prepare(TxnId(txn), &req, &mut ctx);
                    let _ = leader.txn_decide(TxnId(txn), ch.pick(2) == 1, true);
                    let staged = Request::txn_op(
                        RequestId::new(ClientId(9), Seq(seq)),
                        RequestKind::Write,
                        TxnId(PER_OP[0]),
                        ops[0].encode(),
                    );
                    let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                    let _ = leader.txn_execute(TxnId(PER_OP[0]), &staged, true, &mut ctx);
                    leader.tentative_rollback();
                    T_PAXOS.iter().for_each(|t| model.finish(*t, false));
                    compare_store("leader after rollback", &leader, &model, TXN_POOL)
                        .map_err(|e| format!("seed {seed}: {e}"))?;
                }
            }
        }
    }

    compare_store("leader", &leader, &model, TXN_POOL).map_err(|e| format!("seed {seed}: {e}"))?;
    compare_store("backup", &backup, &model, TXN_POOL).map_err(|e| format!("seed {seed}: {e}"))?;
    if backup.snapshot() != leader.snapshot() {
        return Err(format!("seed {seed}: backup's image is not the leader's"));
    }
    Ok(ch.hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gridpaxos_core::action::Action;
    use gridpaxos_core::client::{ClientCore, CompletedOp};
    use gridpaxos_core::txn::{Outcome, TxnCoordinator};
    use gridpaxos_simnet::workload::Driver;
    use gridpaxos_simnet::Metrics;
    use std::sync::{Arc, OnceLock};

    #[test]
    fn kv2pc_schedules_pass_and_replay_deterministically() {
        for seed in 0..60 {
            let a = kv2pc_schedule(seed).unwrap_or_else(|e| panic!("{e}"));
            let b = kv2pc_schedule(seed).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a, b, "schedule hash must be seed-deterministic");
        }
    }

    #[test]
    fn world_walks_pass_and_replay_deterministically() {
        for seed in 0..4 {
            let a = world_walk(seed).unwrap_or_else(|e| panic!("{e}"));
            let b = world_walk(seed).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a, b, "walk hash must be seed-deterministic");
        }
    }

    /// Drive one leg of a transfer through prepare+decide directly on a
    /// pair of stores (the two participant groups of txn `t`).
    fn prepare_leg(store: &mut KvStore, t: u64, seq: u64, op: KvOp) {
        let req = Request::txn_prepare(
            RequestId::new(ClientId(3), Seq(seq)),
            TxnId(t),
            encode_txn_ops(&[op]),
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time(seq), &mut rng);
        store
            .txn_prepare(TxnId(t), &req, &mut ctx)
            .unwrap_or_else(|e| panic!("prepare leg: {e:?}"));
    }

    /// Both legs decided commit: clean state, the invariant passes.
    #[test]
    fn committed_transfer_passes_atomicity() {
        let mut a = KvStore::sharded_in(0, 2);
        let mut b = KvStore::sharded_in(1, 2);
        let (src, dst) = cross_shard_pair();
        prepare_leg(&mut a, 7, 1, KvOp::Add(src, -1));
        prepare_leg(&mut b, 7, 2, KvOp::Add(dst, 1));
        let _ = a.txn_decide(TxnId(7), true, true);
        let _ = b.txn_decide(TxnId(7), true, false);
        assert_eq!(audit_transfers(&[a, b]), Ok(()));
    }

    /// Chaos mutation FlipParticipantDecide: one participant applies
    /// the commit, the other is told to abort — the invariant must
    /// fire on the unbalanced books.
    #[test]
    fn flipped_participant_decide_trips_atomicity() {
        let mut a = KvStore::sharded_in(0, 2);
        let mut b = KvStore::sharded_in(1, 2);
        let (src, dst) = cross_shard_pair();
        prepare_leg(&mut a, 9, 1, KvOp::Add(src, -1));
        prepare_leg(&mut b, 9, 2, KvOp::Add(dst, 1));
        let _ = a.txn_decide(TxnId(9), true, true);
        let _ = b.txn_decide(TxnId(9), false, false); // the flip
        let v = audit_transfers(&[a, b]).expect_err("half-commit must be detected");
        assert!(v.contains("sum"), "unexpected violation: {v}");
    }

    /// A prepared intent nobody resolved is a leak the invariant flags.
    #[test]
    fn leaked_intent_trips_atomicity() {
        let mut a = KvStore::sharded_in(0, 2);
        let (src, _) = cross_shard_pair();
        prepare_leg(&mut a, 4, 1, KvOp::Add(src, -1));
        let v = audit_transfers(&[a]).expect_err("leaked intent must be detected");
        assert!(v.contains("prepared"), "unexpected violation: {v}");
    }

    /// A pair of account keys on different shards at G=2.
    fn cross_shard_pair() -> (String, String) {
        let mut g0 = None;
        let mut g1 = None;
        for i in 0..32 {
            let k = format!("acct{i}");
            match shard_of(KvOp::Get(k.clone()).shard_key().unwrap(), 2) {
                GroupId(0) if g0.is_none() => g0 = Some(k),
                GroupId(1) if g1.is_none() => g1 = Some(k),
                _ => {}
            }
            if g0.is_some() && g1.is_some() {
                break;
            }
        }
        (g0.expect("a group-0 key"), g1.expect("a group-1 key"))
    }

    // ---- in-doubt recovery, end to end ---------------------------------

    /// Runs a coordinator but stops at a scripted phase, simulating a
    /// coordinator crash; reports how far it got.
    struct Abandoner {
        coord: TxnCoordinator,
        /// Stop once this many prepares are in (`usize::MAX` = run the
        /// decide too, abandon before notifying participants).
        stop_after_prepares: usize,
        halted: bool,
    }

    impl Driver for Abandoner {
        fn kick(&mut self, core: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
            if self.halted {
                return None;
            }
            self.coord.step(core, now)
        }

        fn on_complete(&mut self, done: &CompletedOp, _now: Time, _m: &mut Metrics) {
            let _ = self.coord.on_complete(done);
            if self.stop_after_prepares == usize::MAX {
                // Abandon as soon as the home-group decision landed,
                // before any participant hears of it.
                if self.coord.outcome().is_some() {
                    self.halted = true;
                }
            } else if self.coord.prepared().len() >= self.stop_after_prepares {
                self.halted = true;
            }
        }

        fn done(&self) -> bool {
            self.halted
        }
    }

    /// Drives `TxnCoordinator::resolve` for an in-doubt transaction and
    /// records the adopted outcome.
    struct Resolver {
        coord: TxnCoordinator,
        out: Arc<OnceLock<Outcome>>,
    }

    impl Driver for Resolver {
        fn kick(&mut self, core: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
            self.coord.step(core, now)
        }

        fn on_complete(&mut self, done: &CompletedOp, _now: Time, _m: &mut Metrics) {
            if let Some(o) = self.coord.on_complete(done) {
                let _ = self.out.set(o);
            }
        }

        fn done(&self) -> bool {
            self.out.get().is_some()
        }
    }

    fn recovery_world(n_groups: usize) -> World {
        let opts = SimOpts::for_topology(Topology::sysnet(3), 77);
        World::new_sharded(
            Config::cluster(3),
            opts,
            Box::new(move |g| Box::new(KvStore::sharded_in(g.0, n_groups))),
            n_groups,
            Some(shard_router()),
        )
    }

    fn run_recovery(stop_after_prepares: usize) -> (Outcome, Vec<KvStore>) {
        let n_groups = 2usize;
        let (src, dst) = cross_shard_pair();
        let txn = TxnId(0xabc);
        let legs: Vec<(GroupId, Bytes)> = transfer_legs(&src, &dst, 1, n_groups);
        let participants: Vec<GroupId> = legs.iter().map(|(g, _)| *g).collect();

        let mut w = recovery_world(n_groups);
        w.add_client(
            Box::new(Abandoner {
                coord: TxnCoordinator::new(txn, n_groups, legs),
                stop_after_prepares,
                halted: false,
            }),
            None,
            START,
        );
        assert!(w.run_to_completion(DEADLINE), "abandoner stalled");

        // Both participants now hold prepared intents (in-doubt window);
        // a recovery-side resolver probes the home group with presumed
        // abort and drives the recorded outcome to every participant.
        let out = Arc::new(OnceLock::new());
        let start = w.now.after(Dur::from_millis(100));
        w.add_client(
            Box::new(Resolver {
                coord: TxnCoordinator::resolve(txn, n_groups, participants),
                out: Arc::clone(&out),
            }),
            None,
            start,
        );
        assert!(w.run_to_completion(DEADLINE), "resolver stalled");
        let outcome = out.get().cloned().expect("resolved");

        let settle = w.now.after(Dur::from_secs(2));
        w.run_until(settle);
        let stores: Vec<KvStore> = (0..n_groups)
            .map(|g| {
                let states = w.replica_states_of(GroupId(g as u32));
                assert!(
                    states.windows(2).all(|p| p[0] == p[1]),
                    "group {g} diverged"
                );
                let mut s = KvStore::sharded_in(g as u32, n_groups);
                s.restore(&states[0].1);
                s
            })
            .collect();
        (outcome, stores)
    }

    /// Coordinator dies after the prepares, before any decide: the
    /// resolver's presumed-abort probe must win, releasing both intents
    /// without applying either.
    #[test]
    fn abandoned_after_prepares_resolves_to_abort() {
        let (outcome, stores) = run_recovery(2);
        assert!(
            matches!(outcome, Outcome::Aborted(_)),
            "presumed abort expected, got {outcome:?}"
        );
        assert_eq!(audit_transfers(&stores), Ok(()));
        assert!(
            stores.iter().all(|s| s.iter().count() == 0),
            "aborted transfer must leave no balances"
        );
    }

    /// Coordinator dies after the home-group decision records commit
    /// but before notifying participants: the resolver must ADOPT the
    /// recorded commit (its presumed-abort probe loses the
    /// record-if-absent race) and apply both legs.
    #[test]
    fn abandoned_after_home_decision_resolves_to_commit() {
        let (outcome, stores) = run_recovery(usize::MAX);
        assert!(
            matches!(outcome, Outcome::Committed),
            "recorded commit must be adopted, got {outcome:?}"
        );
        assert_eq!(audit_transfers(&stores), Ok(()));
        let moved: i64 = stores
            .iter()
            .flat_map(|s| s.iter())
            .map(|(_, v)| v.parse::<i64>().unwrap().abs())
            .sum();
        assert_eq!(moved, 2, "both legs of the transfer must have applied");
    }
}
