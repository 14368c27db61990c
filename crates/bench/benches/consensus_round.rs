//! End-to-end protocol-stack cost per operation, measured by running the
//! full replica group inside the simulator with free CPU and (near-)zero
//! latency. This is the real Rust-side cost of a committed write, an
//! X-Paxos read and an uncoordinated original request — the per-request
//! work the paper's prototype spent besides the network.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gridpaxos_core::config::Config;
use gridpaxos_core::request::RequestKind;
use gridpaxos_core::service::NoopApp;
use gridpaxos_core::types::{Dur, Time};
use gridpaxos_simnet::cpu::CpuModel;
use gridpaxos_simnet::topology::Topology;
use gridpaxos_simnet::workload::OpLoop;
use gridpaxos_simnet::world::{SimOpts, World};

fn run_ops(kind: RequestKind, ops: u64) {
    let cfg = Config::cluster(3);
    let opts = SimOpts {
        cpu: CpuModel::free(),
        ..SimOpts::for_topology(Topology::fast(3), 1)
    };
    let mut w = World::new(cfg, opts, Box::new(|| Box::new(NoopApp::new())));
    w.add_client(
        Box::new(OpLoop::new(kind, ops)),
        None,
        Time(Dur::from_millis(50).0),
    );
    assert!(w.run_to_completion(Time(Dur::from_secs(3600).0)));
    assert_eq!(w.metrics.completed_ops, ops);
}

fn bench_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus_round");
    const OPS: u64 = 200;
    g.throughput(Throughput::Elements(OPS));
    g.bench_function("write_basic_protocol", |b| {
        b.iter(|| run_ops(RequestKind::Write, OPS))
    });
    g.bench_function("read_xpaxos", |b| {
        b.iter(|| run_ops(RequestKind::Read, OPS))
    });
    g.bench_function("original_uncoordinated", |b| {
        b.iter(|| run_ops(RequestKind::Original, OPS))
    });
    g.finish();
}

criterion_group!(benches, bench_rounds);
criterion_main!(benches);
