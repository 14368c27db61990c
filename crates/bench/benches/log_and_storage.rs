//! Micro-benchmarks of the replica log and the stable-storage layer: the
//! bookkeeping every accepted decree pays.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::Decree;
use gridpaxos_core::log::ReplicaLog;
use gridpaxos_core::storage::{MemStorage, Storage};
use gridpaxos_core::types::{Instance, ProcessId};

fn bench_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("replica_log");
    let b1 = Ballot::new(1, ProcessId(0));

    g.throughput(Throughput::Elements(1));
    g.bench_function("accept_mark_apply_cycle", |b| {
        b.iter_batched(
            ReplicaLog::new,
            |mut log| {
                for i in 1..=64u64 {
                    log.record_accept(Instance(i), b1, Decree::noop());
                    log.mark_chosen(Instance(i));
                    while let Some((inst, _)) = log.next_applicable().map(|(i, d)| (i, d.clone())) {
                        log.advance_applied(inst);
                    }
                }
                log
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("entries_above_from_1k_log", |b| {
        let mut log = ReplicaLog::new();
        for i in 1..=1000u64 {
            log.record_accept(Instance(i), b1, Decree::noop());
        }
        b.iter(|| log.entries_above(Instance(500), &[]))
    });

    g.bench_function("truncate_1k_log", |b| {
        b.iter_batched(
            || {
                let mut log = ReplicaLog::new();
                for i in 1..=1000u64 {
                    log.record_accept(Instance(i), b1, Decree::noop());
                }
                log
            },
            |mut log| {
                log.truncate_upto(Instance(900));
                log
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("stable_storage");
    let b1 = Ballot::new(1, ProcessId(0));

    g.bench_function("persist_accept", |b| {
        b.iter_batched(
            MemStorage::new,
            |mut s| {
                for i in 1..=64u64 {
                    s.save_accepted(Instance(i), b1, &Decree::noop());
                }
                s
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("checkpoint_and_truncate", |b| {
        b.iter_batched(
            || {
                let mut s = MemStorage::new();
                for i in 1..=256u64 {
                    s.save_accepted(Instance(i), b1, &Decree::noop());
                }
                s
            },
            |mut s| {
                s.checkpoint_begin(Instance(256), &[], 1);
                s.checkpoint_chunk(0, bytes::Bytes::from_static(&[0u8; 64]));
                s.checkpoint_commit();
                s.truncate_upto(Instance(256));
                s
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("reload_after_crash", |b| {
        let mut s = MemStorage::new();
        for i in 1..=256u64 {
            s.save_accepted(Instance(i), b1, &Decree::noop());
        }
        s.save_chosen_prefix(Instance(256));
        b.iter(|| s.load())
    });
    g.finish();
}

criterion_group!(benches, bench_log, bench_storage);
criterion_main!(benches);
