//! Property-based tests on core data structures and invariants:
//! the replica log, time arithmetic, statistics, and the
//! execute-on-leader / apply-on-backup convergence contract of every
//! bundled service.

use bytes::Bytes;
use gridpaxos::core::ballot::Ballot;
use gridpaxos::core::command::Decree;
use gridpaxos::core::log::ReplicaLog;
use gridpaxos::core::prelude::*;
use gridpaxos::core::request::RequestId;
use gridpaxos::core::service::{App, ExecCtx};
use gridpaxos::services::{Broker, BrokerOp, KvOp, KvStore, SchedOp, Scheduler};
use gridpaxos::simnet::{summarize, LatencyModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// ReplicaLog invariants
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum LogOp {
    /// Accept at an instance under a ballot: a decree of so many one-op
    /// entries of so many payload bytes each (none: the no-op decree).
    Accept(u64, u64, usize, usize),
    MarkChosen(u64),
    DrainApply,
    Truncate(u64),
    /// A snapshot up to here was installed.
    ForcePrefix(u64),
    /// Crash and rebuild from what storage holds.
    Reload,
}

fn arb_log_op() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        (1u64..30, 1u64..4, 0usize..4, 0usize..200)
            .prop_map(|(i, b, n, len)| LogOp::Accept(i, b, n, len)),
        (1u64..30).prop_map(LogOp::MarkChosen),
        Just(LogOp::DrainApply),
        (1u64..30).prop_map(LogOp::Truncate),
        (1u64..30).prop_map(LogOp::ForcePrefix),
        Just(LogOp::Reload),
    ]
}

/// `entries` writes whose operation, update and reply hold `len` bytes each.
fn decree_of(entries: usize, len: usize) -> Decree {
    let payload = Bytes::from(vec![7u8; len]);
    let id = RequestId::new(ClientId(1), Seq(1));
    let entry = gridpaxos::core::command::DecreeEntry {
        cmd: Command::Req(Request::new(id, RequestKind::Write, payload.clone())),
        update: StateUpdate::Delta(payload.clone()),
        reply: ReplyBody::Ok(payload),
    };
    Decree {
        entries: vec![entry; entries].into(),
    }
}

proptest! {
    #[test]
    fn log_invariants_hold_under_arbitrary_operations(
        ops in proptest::collection::vec(arb_log_op(), 1..80)
    ) {
        let mut log = ReplicaLog::new();
        let mut last_prefix = Instance::ZERO;
        let mut truncated_below = Instance::ZERO;
        for op in ops {
            match op {
                LogOp::Accept(i, b, entries, len) => {
                    let i = Instance(i);
                    if i > log.chosen_prefix() {
                        let decree = decree_of(entries, len);
                        prop_assert_eq!(decree.payload_bytes(), (3 * entries * len) as u64);
                        log.record_accept(i, Ballot::new(b, ProcessId(0)), decree);
                    }
                }
                LogOp::MarkChosen(i) => {
                    let i = Instance(i);
                    // mark_chosen requires an entry (handlers guarantee it).
                    if i > log.chosen_prefix() && log.get(i).is_some() && i > truncated_below {
                        log.mark_chosen(i);
                    }
                }
                LogOp::DrainApply => {
                    while let Some((i, _)) = log.next_applicable().map(|(i, d)| (i, d.clone())) {
                        log.advance_applied(i);
                    }
                }
                LogOp::Truncate(i) => {
                    let i = Instance(i);
                    if i <= log.chosen_prefix() {
                        log.truncate_upto(i);
                        truncated_below = truncated_below.max(i);
                    }
                }
                // As `Replica::install_snapshot` does it.
                LogOp::ForcePrefix(i) => {
                    let i = Instance(i);
                    if i >= log.chosen_prefix() {
                        log.truncate_upto(i);
                        log.force_prefix(i);
                        truncated_below = truncated_below.max(i);
                    }
                }
                LogOp::Reload => {
                    let durable = gridpaxos::core::storage::DurableState {
                        accepted: log.iter_accepted().map(|(i, e)| (i, e.clone())).collect(),
                        chosen_prefix: log.chosen_prefix(),
                        ..Default::default()
                    };
                    log = ReplicaLog::from_durable(&durable);
                }
            }
            // Invariant: the byte count is the retained decrees' payload,
            // whatever was overwritten, dropped or reloaded on the way.
            let retained: u64 = log.iter_accepted().map(|(_, (_, d))| d.payload_bytes()).sum();
            prop_assert_eq!(log.bytes(), retained);
            // Invariant: the prefix never regresses.
            prop_assert!(log.chosen_prefix() >= last_prefix);
            last_prefix = log.chosen_prefix();
            // Invariant: everything at or below the prefix reads as chosen.
            prop_assert!(log.is_known_chosen(log.chosen_prefix()));
            // Invariant: known_above never reports the contiguous prefix.
            for k in log.known_above() {
                prop_assert!(k > log.chosen_prefix());
                prop_assert!(log.get(k).is_some(), "chosen-known implies logged");
            }
            // Invariant: next_applicable is exactly prefix+1 when present.
            if let Some((i, _)) = log.next_applicable() {
                prop_assert_eq!(i, log.chosen_prefix().next());
            }
        }
    }

    #[test]
    fn log_chosen_range_is_contiguous_and_complete(
        upto in 1u64..40,
        have in 0u64..40,
    ) {
        let mut log = ReplicaLog::new();
        for i in 1..=upto {
            log.record_accept(Instance(i), Ballot::new(1, ProcessId(0)), Decree::noop());
            log.mark_chosen(Instance(i));
        }
        while let Some((i, _)) = log.next_applicable().map(|(i, d)| (i, d.clone())) {
            log.advance_applied(i);
        }
        let have = Instance(have);
        match log.chosen_range(have, Instance(upto), u64::MAX) {
            Some(entries) => {
                // An empty range (have >= upto) is legitimately Some(vec![]).
                prop_assert_eq!(entries.len() as u64, upto.saturating_sub(have.0));
                for (k, (i, _)) in entries.iter().enumerate() {
                    prop_assert_eq!(i.0, have.0 + 1 + k as u64);
                }
            }
            None => prop_assert!(
                false,
                "a fully-chosen log must serve any catch-up range"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Time arithmetic and ballot ordering
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn time_arithmetic_never_underflows(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (Time(a), Time(b));
        let d = ta.since(tb);
        prop_assert!(d == Dur::ZERO || a > b);
        // after() is monotone.
        prop_assert!(tb.after(d) >= tb);
    }

    #[test]
    fn ballot_successor_dominates_everything_seen(
        rounds in proptest::collection::vec((0u64..1000, 0u32..8), 1..20),
        me in 0u32..8,
    ) {
        let seen: Vec<Ballot> = rounds
            .into_iter()
            .map(|(r, p)| Ballot::new(r, ProcessId(p)))
            .collect();
        let max = seen.iter().copied().max().unwrap();
        let succ = max.successor(ProcessId(me));
        for b in &seen {
            prop_assert!(succ > *b, "{succ:?} must outbid {b:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Statistics invariants
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn summary_orderings_hold(values in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let s = summarize(&values);
        prop_assert!(s.min <= s.p50 && s.p50 <= s.p99 && s.p99 <= s.max);
        prop_assert!(s.mean >= s.min && s.mean <= s.max);
        prop_assert!(s.ci99 >= 0.0 && s.std >= 0.0);
        prop_assert_eq!(s.n, values.len());
    }

    #[test]
    fn latency_samples_respect_model_bounds(
        lo in 0.1f64..10.0,
        spread in 0.0f64..10.0,
        seed in any::<u64>(),
    ) {
        let hi = lo + spread;
        let m = LatencyModel::Uniform { lo, hi };
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..100 {
            let d = m.sample(&mut rng).as_millis_f64();
            prop_assert!(d >= lo - 1e-9 && d <= hi + 1e-9, "{d} outside [{lo},{hi}]");
        }
    }
}

// ---------------------------------------------------------------------
// Service execute/apply convergence (the heart of the paper's protocol)
// ---------------------------------------------------------------------

/// Run an op stream through a leader and a backup with *different* RNG
/// seeds; the backup applies the leader's updates and must converge.
fn converges<A: App + Clone + PartialEq + std::fmt::Debug>(
    mut leader: A,
    mut backup: A,
    ops: Vec<(RequestKind, Bytes)>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut leader_rng = SmallRng::seed_from_u64(seed);
    for (k, (kind, op)) in ops.into_iter().enumerate() {
        let req = gridpaxos::core::request::Request::new(
            RequestId::new(ClientId(1), Seq(k as u64 + 1)),
            kind,
            op,
        );
        let mut ctx = ExecCtx::new(Time(k as u64 * 1_000_000), &mut leader_rng);
        let (_, update) = leader.execute(&req, &mut ctx);
        if kind == RequestKind::Read {
            prop_assert!(update.is_none(), "reads must not produce updates");
        }
        backup.apply(&req, &update);
    }
    prop_assert_eq!(&backup, &leader, "backup must converge on the leader");
    // And the snapshot/restore path agrees with direct application.
    let mut restored = backup.clone();
    restored.restore(&leader.snapshot());
    prop_assert_eq!(&restored, &leader);
    Ok(())
}

fn arb_kv_ops() -> impl Strategy<Value = Vec<(RequestKind, Bytes)>> {
    proptest::collection::vec(
        prop_oneof![
            ("[a-d]", "[x-z]{0,3}")
                .prop_map(|(k, v)| (RequestKind::Write, KvOp::Put(k, v).encode())),
            "[a-d]".prop_map(|k| (RequestKind::Write, KvOp::Del(k).encode())),
            ("[a-d]", -5i64..5).prop_map(|(k, d)| (RequestKind::Write, KvOp::Add(k, d).encode())),
            "[a-d]".prop_map(|k| (RequestKind::Read, KvOp::Get(k).encode())),
        ],
        1..40,
    )
}

fn arb_broker_ops() -> impl Strategy<Value = Vec<(RequestKind, Bytes)>> {
    proptest::collection::vec(
        prop_oneof![
            ("[a-c]", 1u32..5).prop_map(|(n, c)| {
                (
                    RequestKind::Write,
                    BrokerOp::AddResource {
                        name: n,
                        capacity: c,
                    }
                    .encode(),
                )
            }),
            (0u64..10, 1u32..3).prop_map(|(t, u)| {
                (
                    RequestKind::Write,
                    BrokerOp::Request { task: t, units: u }.encode(),
                )
            }),
            (0u64..10).prop_map(|t| (RequestKind::Write, BrokerOp::Release { task: t }.encode())),
            Just((RequestKind::Read, BrokerOp::FreeUnits.encode())),
        ],
        1..40,
    )
}

fn arb_sched_ops() -> impl Strategy<Value = Vec<(RequestKind, Bytes)>> {
    proptest::collection::vec(
        prop_oneof![
            ("[a-b]", 1u32..4).prop_map(|(n, sl)| {
                (
                    RequestKind::Write,
                    SchedOp::AddMachine { name: n, slots: sl }.encode(),
                )
            }),
            (0u64..12, 0u32..5).prop_map(|(j, p)| {
                (
                    RequestKind::Write,
                    SchedOp::Submit {
                        job: j,
                        priority: p,
                    }
                    .encode(),
                )
            }),
            Just((RequestKind::Write, SchedOp::Dispatch.encode())),
            (0u64..12).prop_map(|j| (RequestKind::Write, SchedOp::Complete { job: j }.encode())),
            Just((RequestKind::Read, SchedOp::QueueLen.encode())),
        ],
        1..40,
    )
}

proptest! {
    #[test]
    fn kvstore_backup_converges(ops in arb_kv_ops(), seed in any::<u64>()) {
        converges(KvStore::new(), KvStore::new(), ops, seed)?;
    }

    #[test]
    fn broker_backup_converges(ops in arb_broker_ops(), seed in any::<u64>()) {
        // The broker's whole point: its randomized decisions would diverge
        // without the Reproduce updates.
        converges(Broker::new(), Broker::new(), ops, seed)?;
    }

    #[test]
    fn scheduler_backup_converges(ops in arb_sched_ops(), seed in any::<u64>()) {
        // Timing-dependent decisions ship as deltas; a backup with a
        // different clock still converges.
        converges(Scheduler::new(), Scheduler::new(), ops, seed)?;
    }
}

// ---------------------------------------------------------------------
// KvStore transactional staging and locking invariants
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum TxnStep {
    Write(u8, String, String), // txn slot, key, value
    Read(u8, String),
    Commit(u8),
    Abort(u8),
}

fn arb_txn_steps() -> impl Strategy<Value = Vec<TxnStep>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..3, "[a-c]", "[x-z]{1,2}").prop_map(|(t, k, v)| TxnStep::Write(t, k, v)),
            (0u8..3, "[a-c]").prop_map(|(t, k)| TxnStep::Read(t, k)),
            (0u8..3).prop_map(TxnStep::Commit),
            (0u8..3).prop_map(TxnStep::Abort),
        ],
        1..60,
    )
}

proptest! {
    /// Random interleavings of up to three transactions, in both staging
    /// modes: locks must serialize conflicting writers, committed state
    /// must reflect exactly the committed transactions, and a leader and a
    /// backup (mirroring the replicated updates) must converge.
    #[test]
    fn kv_txn_interleavings_preserve_isolation(
        steps in arb_txn_steps(),
        durable in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut leader = KvStore::new();
        let mut backup = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Per-slot session state: live txn id and staged ops count.
        let mut live: [Option<(TxnId, u32)>; 3] = [None, None, None];
        let mut next_txn = 1u64;
        let mut seq = 0u64;

        for step in steps {
            seq += 1;
            let id = RequestId::new(ClientId(1), Seq(seq));
            match step {
                TxnStep::Write(slot, key, value) => {
                    let (txn, count) = match &mut live[slot as usize] {
                        Some(s) => (s.0, &mut s.1),
                        None => {
                            let t = TxnId(next_txn);
                            next_txn += 1;
                            leader.txn_begin(t);
                            live[slot as usize] = Some((t, 0));
                            let s = live[slot as usize].as_mut().unwrap();
                            (s.0, &mut s.1)
                        }
                    };
                    let req = gridpaxos::core::request::Request::txn_op(
                        id,
                        RequestKind::Write,
                        txn,
                        KvOp::Put(key.clone(), value).encode(),
                    );
                    let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                    match leader.txn_execute(txn, &req, durable, &mut ctx) {
                        Ok((_, update)) => {
                            *count += 1;
                            if durable {
                                prop_assert!(
                                    !update.is_none(),
                                    "durable staging must replicate"
                                );
                                backup.apply(&req, &update);
                            } else {
                                prop_assert!(
                                    update.is_none(),
                                    "volatile staging must not replicate"
                                );
                            }
                        }
                        Err(reason) => {
                            // Only lock conflicts are legal refusals, and a
                            // conflict implies another live txn exists.
                            prop_assert_eq!(reason, AbortReason::Conflict);
                            let others = live
                                .iter()
                                .enumerate()
                                .filter(|(i, s)| *i != slot as usize && s.is_some())
                                .count();
                            prop_assert!(others > 0, "conflict without a rival");
                        }
                    }
                }
                TxnStep::Read(slot, key) => {
                    if let Some((txn, _)) = live[slot as usize] {
                        let req = gridpaxos::core::request::Request::txn_op(
                            id,
                            RequestKind::Read,
                            txn,
                            KvOp::Get(key).encode(),
                        );
                        let mut ctx = ExecCtx::new(Time(seq), &mut rng);
                        let got = leader.txn_execute(txn, &req, durable, &mut ctx);
                        prop_assert!(got.is_ok(), "reads never conflict");
                        prop_assert!(got.unwrap().1.is_none(), "reads never stage");
                    }
                }
                TxnStep::Commit(slot) => {
                    if let Some((txn, n)) = live[slot as usize].take() {
                        let update = leader.txn_commit(txn);
                        if n == 0 {
                            prop_assert!(update.is_none(), "empty txn commits to nothing");
                        }
                        let commit_req = gridpaxos::core::request::Request::txn_commit(id, txn, n);
                        if durable {
                            backup.apply(&commit_req, &update);
                        } else {
                            backup.apply_txn_commit(txn, &[], &update);
                        }
                    }
                }
                TxnStep::Abort(slot) => {
                    if let Some((txn, _)) = live[slot as usize].take() {
                        leader.txn_abort(txn);
                        if durable {
                            // Replicated staging is discarded through a
                            // coordinated abort request.
                            let abort_req =
                                gridpaxos::core::request::Request::txn_abort(id, txn);
                            backup.apply(
                                &abort_req,
                                &gridpaxos::core::command::StateUpdate::None,
                            );
                        }
                    }
                }
            }
        }
        // Close every open transaction by aborting; nothing staged leaks.
        for slot in live.iter_mut() {
            if let Some((txn, _)) = slot.take() {
                seq += 1;
                leader.txn_abort(txn);
                if durable {
                    let abort_req = gridpaxos::core::request::Request::txn_abort(
                        RequestId::new(ClientId(1), Seq(seq)),
                        txn,
                    );
                    backup.apply(&abort_req, &gridpaxos::core::command::StateUpdate::None);
                }
            }
        }
        prop_assert_eq!(leader.snapshot(), backup.snapshot(), "replicas diverged");
    }
}

// ---------------------------------------------------------------------
// KvStore: a tentative window and a frozen image under every kind of step
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum KvStep {
    Plain(KvOp),
    /// A write by the per-op (`true`) or T-Paxos transaction in this slot.
    Txn(bool, u8, KvOp),
    /// Commit (`true`) or abort that transaction.
    Finish(bool, u8, bool),
    Prepare(u64, Vec<KvOp>),
    /// Decide: txn, commit, record.
    Decide(u64, bool, bool),
    OpenWindow,
    Rollback,
    CommitWindow,
    Freeze(usize),
    Chunk,
}

fn arb_kv_write() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        ("[a-d]", "[x-z]{0,3}").prop_map(|(k, v)| KvOp::Put(k, v)),
        "[a-d]".prop_map(KvOp::Del),
        ("[a-d]", -5i64..5).prop_map(|(k, d)| KvOp::Add(k, d)),
    ]
}

fn arb_kv_steps() -> impl Strategy<Value = Vec<KvStep>> {
    proptest::collection::vec(
        prop_oneof![
            arb_kv_write().prop_map(KvStep::Plain),
            (any::<bool>(), 0u8..2, arb_kv_write()).prop_map(|(d, s, op)| KvStep::Txn(d, s, op)),
            (any::<bool>(), 0u8..2, any::<bool>()).prop_map(|(d, s, c)| KvStep::Finish(d, s, c)),
            (1u64..4, proptest::collection::vec(arb_kv_write(), 1..3))
                .prop_map(|(t, ops)| KvStep::Prepare(t, ops)),
            (1u64..6, any::<bool>(), any::<bool>()).prop_map(|(t, c, r)| KvStep::Decide(t, c, r)),
            Just(KvStep::OpenWindow),
            Just(KvStep::Rollback),
            Just(KvStep::CommitWindow),
            (1usize..90).prop_map(KvStep::Freeze),
            Just(KvStep::Chunk),
            Just(KvStep::Chunk),
        ],
        1..70,
    )
}

/// The chunks of an open freeze emitted so far, and what they must add up to.
struct Freeze {
    at_freeze: Bytes,
    total: usize,
    next: usize,
    got: Vec<u8>,
}

proptest! {
    /// Random schedules of plain / per-op / T-Paxos / prepare / decide
    /// steps, inside and outside a tentative window and a frozen image:
    /// a rollback leaves the store `restore(pre-window snapshot)` would,
    /// and the chunks of a freeze add up to the snapshot taken when it
    /// began, whatever ran in between.
    #[test]
    fn tentative_rollback_is_equivalent_to_pre_exec_restore(
        steps in arb_kv_steps(),
        seed in any::<u64>(),
    ) {
        let mut s = KvStore::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut window: Option<Bytes> = None;
        let mut freeze: Option<Freeze> = None;
        // One client counter names every transaction, in one mode each.
        let mut next_txn = 100u64;
        let mut live: [[Option<TxnId>; 2]; 2] = [[None; 2]; 2];
        let mut seq = 0u64;

        let close_freeze = |s: &mut KvStore, mut fz: Freeze| -> Result<(), TestCaseError> {
            while fz.next < fz.total {
                fz.got.extend_from_slice(&s.snapshot_chunk(fz.next));
                fz.next += 1;
            }
            s.snapshot_end();
            prop_assert_eq!(Bytes::from(fz.got), fz.at_freeze, "chunks ≠ freeze-time snapshot");
            Ok(())
        };
        let rolled_back = |s: &mut KvStore,
                           pre: Bytes,
                           freeze: &mut Option<Freeze>|
         -> Result<(), TestCaseError> {
            s.tentative_rollback();
            prop_assert_eq!(s.snapshot(), pre.clone(), "rollback ≠ pre-window image");
            // `==` sees the leader-local staging and the overlays too,
            // so close an open freeze before comparing whole stores.
            if let Some(fz) = freeze.take() {
                close_freeze(s, fz)?;
            }
            let mut restored = KvStore::new();
            restored.restore(&pre);
            prop_assert_eq!(&*s, &restored, "rollback ≠ restore(pre-window snapshot)");
            Ok(())
        };

        for step in steps {
            seq += 1;
            let id = RequestId::new(ClientId(1), Seq(seq));
            let mut ctx = ExecCtx::new(Time(seq), &mut rng);
            match step {
                KvStep::Plain(op) => {
                    s.execute(&Request::new(id, RequestKind::Write, op.encode()), &mut ctx);
                }
                KvStep::Txn(durable, slot, op) => {
                    let txn = *live[usize::from(durable)][slot as usize].get_or_insert_with(|| {
                        next_txn += 1;
                        TxnId(next_txn)
                    });
                    let req = Request::txn_op(id, RequestKind::Write, txn, op.encode());
                    let _ = s.txn_execute(txn, &req, durable, &mut ctx);
                }
                KvStep::Finish(durable, slot, commit) => {
                    if let Some(txn) = live[usize::from(durable)][slot as usize].take() {
                        if commit {
                            let _ = s.txn_commit(txn);
                        } else {
                            s.txn_abort(txn);
                        }
                    }
                }
                KvStep::Prepare(txn, ops) => {
                    let req = Request::txn_prepare(
                        id,
                        TxnId(txn),
                        gridpaxos::services::encode_txn_ops(&ops),
                    );
                    let _ = s.txn_prepare(TxnId(txn), &req, &mut ctx);
                }
                KvStep::Decide(txn, commit, record) => {
                    let _ = s.txn_decide(TxnId(txn), commit, record);
                }
                KvStep::OpenWindow => {
                    if window.is_none() {
                        window = Some(s.snapshot());
                        prop_assert!(s.tentative_begin());
                    }
                }
                KvStep::Rollback => {
                    if let Some(pre) = window.take() {
                        rolled_back(&mut s, pre, &mut freeze)?;
                        // Ids staged in the window are gone with it.
                        live = [[None; 2]; 2];
                    }
                }
                KvStep::CommitWindow => {
                    if window.take().is_some() {
                        s.tentative_commit();
                    }
                }
                // A checkpoint freezes between decrees, never inside a
                // leader's open window.
                KvStep::Freeze(chunk_bytes) => {
                    if window.is_none() && freeze.is_none() {
                        let at_freeze = s.snapshot();
                        let total = s.snapshot_begin(chunk_bytes);
                        freeze = Some(Freeze { at_freeze, total, next: 0, got: Vec::new() });
                    }
                }
                KvStep::Chunk => {
                    if let Some(fz) = freeze.as_mut().filter(|fz| fz.next < fz.total) {
                        fz.got.extend_from_slice(&s.snapshot_chunk(fz.next));
                        fz.next += 1;
                    }
                }
            }
        }
        if let Some(pre) = window.take() {
            rolled_back(&mut s, pre, &mut freeze)?;
        }
        if let Some(fz) = freeze.take() {
            close_freeze(&mut s, fz)?;
        }
    }
}
