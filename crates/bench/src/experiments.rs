//! The experiment suite: one function per table/figure of the paper
//! (see DESIGN.md §5 for the index), and [`REGISTRY`], the one list the
//! `experiments` binary runs from. Every simulated table is rows over
//! [`Experiment::run`], or, for E15, which times each decree, over a
//! world from [`Experiment::build`]; each function returns the
//! rows/series the paper reports as a [`TableOut`], which the binary
//! prints and writes as CSV and JSON.

use crate::table::TableOut;
use gridpaxos_core::action::Action;
use gridpaxos_core::client::{ClientCore, CompletedOp, TxnScript};
use gridpaxos_core::config::{ReadMode, TxnMode, ValueMode};
use gridpaxos_core::request::RequestKind;
use gridpaxos_core::types::{Dur, ProcessId, Time};
use gridpaxos_simnet::cpu::CpuModel;
use gridpaxos_simnet::metrics::{kind_key, Metrics};
use gridpaxos_simnet::runner::Experiment;
use gridpaxos_simnet::stats::{percentile_sorted, Summary};
use gridpaxos_simnet::topology::Topology;
use gridpaxos_simnet::workload::{Driver, OpLoop, TransferLoop, TxnLoop};
use gridpaxos_simnet::world::World;

fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

fn fmt_ci(v: f64) -> String {
    format!("±{v:.3}")
}

fn fmt_tput(v: f64) -> String {
    format!("{v:.0}")
}

/// The request kinds, in the order the throughput tables print them.
const KINDS: [RequestKind; 3] = [RequestKind::Read, RequestKind::Write, RequestKind::Original];

/// The 3-replica Sysnet cluster.
fn sysnet(seed: u64) -> Experiment {
    Experiment::on(Topology::sysnet(3), seed)
}

/// Run `exp` to completion: every simulated table but leader-switch
/// reports the whole workload.
fn run(exp: Experiment) -> World {
    let (w, done) = exp.run();
    assert!(done, "run did not complete within the deadline");
    w
}

/// `clients` closed-loop clients, each sending `per_client` requests of
/// `kind`.
fn ops(exp: Experiment, kind: RequestKind, clients: usize, per_client: u64) -> Metrics {
    run(exp.clients(clients, |_| OpLoop::new(kind, per_client))).metrics
}

/// `clients` closed-loop clients, each committing `per_client`
/// transactions of `script`.
fn txns(exp: Experiment, script: &TxnScript, clients: usize, per_client: u64) -> Metrics {
    run(exp.clients(clients, |_| TxnLoop::new(script.clone(), per_client))).metrics
}

/// Request response time: one client, `total` sequential requests of
/// `kind` (the paper used 20 per sample and hundreds of samples; pass
/// the product).
fn rrt(exp: Experiment, kind: RequestKind, total: u64) -> Summary {
    ops(exp, kind, 1, total).rtt_summary(kind_key(kind))
}

/// Read, write and original throughput with `c` closed-loop clients
/// sharing `total_ops` requests (at least 10 each).
fn tputs(exp: impl Fn() -> Experiment, c: usize, total_ops: u64) -> Vec<String> {
    let per_client = (total_ops / c as u64).max(10);
    let tput = |kind| fmt_tput(ops(exp(), kind, c, per_client).ops_per_sec());
    KINDS.map(tput).to_vec()
}

/// E1's requests per kind.
const RRT_SAMPLES: u64 = 2000;

/// E1 — §4.1 response times on the Sysnet cluster. Paper: original
/// 0.181 ms, read 0.263 ms (X-Paxos, −22% vs basic), write 0.338 ms.
#[must_use]
pub fn rrt_sysnet(seed: u64) -> TableOut {
    let mut t = TableOut::new(
        "rrt-sysnet",
        "Request response time on the cluster (ms)",
        &["kind", "mean_ms", "ci99_ms", "p99_ms", "paper_ms"],
    );
    let [_, read, write] = [
        (RequestKind::Original, 0.181),
        (RequestKind::Read, 0.263),
        (RequestKind::Write, 0.338),
    ]
    .map(|(kind, paper)| {
        let s = rrt(sysnet(seed), kind, RRT_SAMPLES);
        let cells = [fmt_ms(s.mean), fmt_ci(s.ci99), fmt_ms(s.p99), fmt_ms(paper)];
        t.row([vec![kind_key(kind).into()], cells.to_vec()].concat());
        s.mean
    });
    t.note(format!(
        "X-Paxos read vs basic write: {:.0}% lower RRT (paper: 22%)",
        (1.0 - read / write) * 100.0
    ));
    t
}

/// Figures 5 and 6: throughput of each kind on the cluster per client
/// count `c`, the clients sharing `total_ops` requests.
fn sysnet_throughput(
    seed: u64,
    id: &str,
    title: &str,
    counts: [usize; 5],
    total_ops: u64,
) -> TableOut {
    let mut t = TableOut::new(
        id,
        title,
        &["clients", "read_tput", "write_tput", "original_tput"],
    );
    for c in counts {
        t.row([vec![c.to_string()], tputs(|| sysnet(seed), c, total_ops)].concat());
    }
    t
}

/// E2 — Figure 5: service throughput on Sysnet, 1–16 clients, each
/// sending `1000/c` requests.
#[must_use]
pub fn fig5(seed: u64) -> TableOut {
    let title = "Service throughput on Sysnet (req/s)";
    let mut t = sysnet_throughput(seed, "fig5", title, [1, 2, 4, 8, 16], 1000);
    t.note("paper: reads ≥13% above writes, both below original");
    t
}

/// E3 — Figure 6: throughput with 8–128 clients; the basic protocol and
/// X-Paxos peak between 32 and 64 clients.
#[must_use]
pub fn fig6(seed: u64) -> TableOut {
    let title = "Service throughput on Sysnet, more clients (req/s)";
    let mut t = sysnet_throughput(seed, "fig6", title, [8, 16, 32, 64, 128], 2560);
    t.note("paper: read/write curves peak between 32 and 64 clients");
    t
}

/// Figures 7 and 8, §4.1 configurations 2 and 3: the RRT of each kind,
/// then throughput at 1–16 clients, beside the paper's RRTs and
/// throughput shape.
fn wan_figure(
    seed: u64,
    topology: fn() -> Topology,
    id: &str,
    title: &str,
    [paper_rrt, paper_tput]: [&str; 2],
) -> TableOut {
    let mut t = TableOut::new(id, title, &["metric", "read", "write", "original", "paper"]);
    let exp = || Experiment::on(topology(), seed);
    let rrts = KINDS.map(|kind| fmt_ms(rrt(exp(), kind, 300).mean));
    t.row([vec!["rrt_ms".into()], rrts.to_vec(), vec![paper_rrt.into()]].concat());
    for c in [1usize, 2, 4, 8, 16] {
        let tputs = tputs(exp, c, 1000);
        t.row([vec![format!("tput@{c}")], tputs, vec![paper_tput.into()]].concat());
    }
    t
}

/// E4 — §4.1 config 2 + Figure 7: clients at Berkeley, replicas together
/// at Princeton. Replication is nearly free: original 91.85 ms, read
/// 92.79 ms, write 93.13 ms; throughputs nearly identical.
#[must_use]
pub fn fig7(seed: u64) -> TableOut {
    let mut t = wan_figure(
        seed,
        || Topology::berkeley_princeton(3),
        "fig7",
        "Berkeley → Princeton: RRT (ms) and throughput (req/s)",
        ["92.79 / 93.13 / 91.85", "≈equal"],
    );
    t.note("paper: co-located replicas make coordination cheap — X-Paxos gains little");
    t
}

/// E5 — §4.1 config 3 + Figure 8: replicas spread across the WAN.
/// Paper RRT: original 70.82 ms, read 75.49 ms, write 106.73 ms —
/// X-Paxos clearly beats the basic protocol.
#[must_use]
pub fn fig8(seed: u64) -> TableOut {
    let mut t = wan_figure(
        seed,
        Topology::wan_spread,
        "fig8",
        "WAN-replicated service: RRT (ms) and throughput (req/s)",
        ["75.49 / 106.73 / 70.82", "read ≫ write"],
    );
    t.note(
        "paper: with WAN-separated replicas X-Paxos substantially outperforms the basic protocol",
    );
    t
}

fn txn_case(mode: &str) -> (TxnMode, fn(usize) -> TxnScript) {
    match mode {
        "read/write" => (TxnMode::PerOp, |n| {
            // The paper's mixes: 3 ⇒ 2 reads + 1 write, 5 ⇒ 3 reads + 2 writes.
            TxnScript::read_write(
                n - n / 2 - (n % 2 == 0) as usize,
                n / 2 + (n % 2 == 0) as usize,
            )
        }),
        "write-only" => (TxnMode::PerOp, TxnScript::write_only),
        _ => (TxnMode::TPaxos, TxnScript::write_only),
    }
}

/// Table 1's transactions per row.
const TABLE1_TXNS: u64 = 500;

/// E6 — Table 1: transaction response time on Sysnet, 3 and 5 requests
/// per transaction.
#[must_use]
pub fn table1(seed: u64) -> TableOut {
    let mut t = TableOut::new(
        "table1",
        "Transaction response time (ms)",
        &[
            "operation",
            "req_per_txn",
            "avg_trt_ms",
            "ci99_ms",
            "paper_ms",
        ],
    );
    for (mode, n_ops, paper_ms) in [
        ("read/write", 3, 1.17),
        ("read/write", 5, 1.79),
        ("write-only", 3, 1.29),
        ("write-only", 5, 2.01),
        ("optimized", 3, 0.85),
        ("optimized", 5, 1.23),
    ] {
        let (txn_mode, script_of) = txn_case(mode);
        let exp = sysnet(seed).txn_mode(txn_mode);
        let s = txns(exp, &script_of(n_ops), 1, TABLE1_TXNS).txn_summary();
        t.row(vec![
            mode.into(),
            n_ops.to_string(),
            fmt_ms(s.mean),
            fmt_ci(s.ci99),
            fmt_ms(paper_ms),
        ]);
    }
    t.note("paper: T-Paxos cuts TRT 28–34% (3 req) and 31–39% (5 req)");
    t
}

/// E7 — Figure 9 (a) and (b): transaction throughput on Sysnet,
/// 1–16 clients, 3 and 5 requests per transaction; one table each.
#[must_use]
pub fn fig9(seed: u64) -> Vec<TableOut> {
    let figure = |req_per_txn: usize| {
        let mut t = TableOut::new(
            &format!("fig9-{req_per_txn}req"),
            &format!("Transaction throughput, {req_per_txn} requests per txn (txn/s)"),
            &["clients", "read/write", "write-only", "optimized"],
        );
        for c in [1usize, 2, 4, 8, 16] {
            let per_client = (400 / c as u64).max(5);
            let mut row = vec![c.to_string()];
            for mode in ["read/write", "write-only", "optimized"] {
                let (txn_mode, script_of) = txn_case(mode);
                let exp = sysnet(seed).txn_mode(txn_mode);
                let m = txns(exp, &script_of(req_per_txn), c, per_client);
                assert_eq!(m.txn_aborts, 0, "no aborts expected in steady state");
                row.push(fmt_tput(m.txns_per_sec()));
            }
            t.row(row);
        }
        t.note("paper: optimized +42–57% vs 3-req read/write, +52–97% vs 3-req write-only; larger for 5-req");
        t
    };
    vec![figure(3), figure(5)]
}

/// E8a — §3.6: sensitivity to leader switches. The leader is crashed
/// mid-run (twice) and later recovered; the workloads observe the
/// disruption differently: writes/reads retry transparently, T-Paxos
/// transactions abort.
#[must_use]
pub fn leader_switch(seed: u64) -> TableOut {
    let mut t = TableOut::new(
        "leader-switch",
        "Workload disruption across two forced leader switches",
        &[
            "workload",
            "target",
            "completed",
            "client_retries",
            "txn_aborts",
        ],
    );
    // Common fault schedule: crash the bootstrap leader at 1 s (recover at
    // 2.5 s), then crash its likely successor at 4 s (recover at 5.5 s).
    let schedule = |w: &mut World| {
        w.crash_at(ProcessId(0), Time(Dur::from_secs(1).0));
        w.recover_at(ProcessId(0), Time(Dur::from_millis(2500).0));
        w.crash_at(ProcessId(1), Time(Dur::from_secs(4).0));
        w.recover_at(ProcessId(1), Time(Dur::from_millis(5500).0));
    };
    // Four clients each, long enough to span both crashes; `completed`
    // counts what the workload is made of.
    let (total_ops, total_txns) = (160_000u64, 24_000u64);
    let op_loops = |kind| {
        let exp = sysnet(seed).clients(4, move |_| OpLoop::new(kind, total_ops / 4));
        let completed: fn(&Metrics) -> u64 = |m| m.completed_ops;
        (total_ops.to_string(), exp, completed)
    };
    // T-Paxos transactions: aborted on switch, retried by the client.
    let txn_loops = sysnet(seed).txn_mode(TxnMode::TPaxos).clients(4, |_| {
        TxnLoop::new(TxnScript::write_only(3), total_txns / 4)
    });
    let txn_target = format!("{total_txns} txns");
    let txns_done: fn(&Metrics) -> u64 = |m| m.txn_commits;
    for (name, (target, mut exp, completed)) in [
        ("write(basic)", op_loops(RequestKind::Write)),
        ("read(X-Paxos)", op_loops(RequestKind::Read)),
        ("txn(T-Paxos)", (txn_target, txn_loops, txns_done)),
    ] {
        exp.deadline = Dur::from_secs(600);
        exp.before_run = Box::new(schedule);
        let (w, done) = exp.run();
        let stalled = if done { "" } else { " (stalled)" };
        t.row(vec![
            name.into(),
            target,
            format!("{}{stalled}", completed(&w.metrics)),
            w.metrics.retries.to_string(),
            w.metrics.txn_aborts.to_string(),
        ]);
    }
    t.note("§3.6: 'long enough' grows Paxos < X-Paxos < T-Paxos; only T-Paxos loses work (aborts) on a switch");
    t
}

/// E8b — §4.3: tolerating multiple failures. Replicas on a LAN, clients
/// across a high-variance WAN; as `t` (and so the group size `n = 2t+1`)
/// grows, writes barely move while X-Paxos reads wait on higher-order
/// statistics of the WAN latency and degrade.
#[must_use]
pub fn scale_t(seed: u64) -> TableOut {
    let mut t = TableOut::new(
        "scale-t",
        "RRT vs replication degree (LAN replicas, heterogeneous WAN client paths; ms)",
        &[
            "n (t)",
            "read_mean",
            "read_ci99",
            "write_mean",
            "write_ci99",
            "xpaxos_gap",
        ],
    );
    for n in [3usize, 5, 7] {
        // Replicas on one LAN; the leader and one backup have a good
        // client path (median 40 ms), the other backups a poor one
        // (median 70 ms) — PlanetLab-style heterogeneity.
        let [read, write] = [RequestKind::Read, RequestKind::Write].map(|kind| {
            let topo = Topology::heterogeneous_wan(n, 40.0, 70.0, 0.15);
            rrt(Experiment::on(topo, seed), kind, 5_000)
        });
        t.row(vec![
            format!("{n} ({})", (n - 1) / 2),
            fmt_ms(read.mean),
            fmt_ci(read.ci99),
            fmt_ms(write.mean),
            fmt_ci(write.ci99),
            fmt_ms(read.mean - write.mean),
        ]);
    }
    t.note("paper §4.3: t barely affects the basic protocol; X-Paxos waits on more (possibly slow) confirm paths and degrades");
    t
}

/// Ablation — quantify each optimization in isolation on the cluster:
/// X-Paxos vs consensus reads, and state shipping (`ReqState`) vs classic
/// re-execution (`ReqOnly`) for deterministic services.
#[must_use]
pub fn ablation(seed: u64) -> TableOut {
    let mut t = TableOut::new(
        "ablation",
        "Design ablations on Sysnet (ms)",
        &["variant", "mean_ms", "ci99_ms"],
    );
    let mut row = |label: &str, exp: Experiment, kind| {
        let s = rrt(exp, kind, 1000);
        t.row(vec![label.into(), fmt_ms(s.mean), fmt_ci(s.ci99)]);
        s.mean
    };
    let [x, c, l] = [
        (ReadMode::XPaxos, "read, X-Paxos"),
        (ReadMode::Consensus, "read, consensus"),
        (ReadMode::Lease, "read, leader lease (ext.)"),
    ]
    .map(|(mode, label)| row(label, sysnet(seed).read_mode(mode), RequestKind::Read));
    for (vm, label) in [
        (ValueMode::ReqState, "write, ship ⟨req,state⟩"),
        (ValueMode::ReqOnly, "write, classic re-execution"),
    ] {
        let mut exp = sysnet(seed);
        exp.cfg.value_mode = vm;
        row(label, exp, RequestKind::Write);
    }
    t.note(format!(
        "X-Paxos saves {:.0}% on reads (paper: 22%); leases save {:.0}% more but need timing assumptions",
        (1.0 - x / c) * 100.0,
        (1.0 - l / x) * 100.0
    ));
    t.note("state shipping costs ≈ nothing extra for small states (§3.3's discussion)");
    t
}

/// E9 — §3.3's state-size discussion (and the companion study \[30\]):
/// write RRT as a function of service-state size and shipping strategy.
/// Full-state shipping pays the wire for the whole blob on every write;
/// deltas and reproduction records stay flat.
#[must_use]
pub fn state_size(seed: u64) -> TableOut {
    use gridpaxos_services::{ShipMode, SizedApp};
    let mut t = TableOut::new(
        "state-size",
        "Write RRT vs state size and shipping mode (ms)",
        &[
            "state_bytes",
            "full_lan",
            "delta_lan",
            "full_wan",
            "delta_wan",
            "reproduce_wan",
        ],
    );
    for size in [256usize, 4 << 10, 64 << 10, 512 << 10] {
        let mut row = vec![size.to_string()];
        // The LAN runs the first two modes, the WAN all three.
        let modes = [ShipMode::Full, ShipMode::Delta, ShipMode::Reproduce];
        for (topo, k, samples) in [
            (Topology::sysnet(3), 2, 400),
            (Topology::wan_spread(), 3, 60),
        ] {
            for &mode in &modes[..k] {
                let mut exp = Experiment::on(topo.clone(), seed);
                exp.app = Box::new(move |_| Box::new(SizedApp::new(size, mode)));
                row.push(fmt_ms(rrt(exp, RequestKind::Write, samples).mean));
            }
        }
        t.row(row);
    }
    t.note("§3.3: 'the overhead of transferring service state can usually be made small' — deltas/reproduce stay flat while full-state shipping grows with the blob");
    t
}

/// Ablation — decree batching: the write-throughput effect of packing
/// concurrent requests into one consensus instance.
#[must_use]
pub fn batch_ablation(seed: u64) -> TableOut {
    let mut t = TableOut::new(
        "batch-ablation",
        "Write throughput vs max decree batch size (req/s, 16 clients)",
        &["max_batch", "write_tput", "write_rrt_ms"],
    );
    for max_batch in [1usize, 4, 16, 64] {
        let exp = || {
            let mut e = sysnet(seed);
            e.cfg.max_batch = max_batch;
            e
        };
        let mut loaded = exp();
        if max_batch == 1 {
            loaded.cfg.batch_window = Dur::ZERO;
        }
        let tput = ops(loaded, RequestKind::Write, 16, 250).ops_per_sec();
        let single = rrt(exp(), RequestKind::Write, 300);
        t.row(vec![
            max_batch.to_string(),
            fmt_tput(tput),
            fmt_ms(single.mean),
        ]);
    }
    t.note("single-request decrees cap closed-loop writes at ~1/(2m); batching lifts the cap without touching single-client latency");
    t
}

/// The world E11 and E16 share: the cluster with its KV keyspace
/// hash-partitioned over `groups` consensus groups.
fn sharded_kv(seed: u64, groups: usize) -> Experiment {
    use gridpaxos_services::{shard_router, KvStore};
    let mut exp = sysnet(seed);
    // Small decree batches keep each group pipeline-bound — the regime
    // sharding parallelizes (G=1 serves at most `max_batch` requests
    // per decree RTT); giant batches would hide the pipeline cap. No
    // batch window: under-full groups propose immediately.
    exp.cfg.max_batch = 4;
    exp.cfg.batch_window = Dur::ZERO;
    exp.groups = groups;
    exp.router = Some(shard_router());
    exp.app = Box::new(move |g| Box::new(KvStore::sharded_in(g.0, groups)));
    exp
}

/// Extension — multi-group sharding: closed-loop write throughput on the
/// cluster as the KV keyspace is hash-partitioned over `G` independent
/// consensus groups. Strict pipelining (§3.3) caps each group at one
/// decree in flight, so extra groups multiply the number of concurrent
/// decrees (and spread leader work across nodes, since group `g`'s
/// bootstrap leader is replica `g mod n`). Committed trajectory:
/// `BENCH_sharding.json`.
#[must_use]
pub fn sharding(seed: u64) -> TableOut {
    sharding_with(seed, 64, 200)
}

fn sharding_with(seed: u64, clients: usize, per_client: u64) -> TableOut {
    use gridpaxos_services::KvOp;

    let mut t = TableOut::new(
        "sharding",
        &format!("Write throughput vs consensus groups (req/s, {clients} clients, KV store)"),
        &["groups", "write_tput", "p50_ms", "p99_ms", "speedup"],
    );
    let mut base = None;
    for g in [1usize, 2, 4, 8] {
        // One key per client: single-key ops shard cleanly, and the
        // key hashes spread the clients across the groups.
        let put = |i: usize| KvOp::Put(format!("c{i}"), "v".into()).encode();
        let exp = sharded_kv(seed, g).clients(clients, |i| {
            OpLoop::with_payload(RequestKind::Write, per_client, put(i))
        });
        let m = run(exp).metrics;
        let (tput, s) = (m.ops_per_sec(), m.rtt_summary("write"));
        let base = *base.get_or_insert(tput);
        t.row(vec![
            g.to_string(),
            fmt_tput(tput),
            fmt_ms(s.p50),
            fmt_ms(s.p99),
            format!("{:.2}x", tput / base),
        ]);
    }
    t.note("extension: G groups lift §3.3's one-decree-in-flight cap; near-linear until node CPU saturates");
    t
}

/// Extension (E16) — cross-shard bank transactions: closed-loop clients
/// move money between hash-sharded accounts, each transfer a 2PC
/// transaction over its two participant groups (one leg when both
/// accounts share a shard). Sweeps the account pool at `G = 4` — fewer
/// accounts means hotter keys, more prepare-lock conflicts and a higher
/// abort rate — against a `G = 1` baseline where every transfer is a
/// single-group transaction. After each run the group states are decoded
/// and the books audited: balances started at zero, so any nonzero total
/// is a half-committed transfer. Committed trajectory: `BENCH_txn.json`.
#[must_use]
pub fn bank_transactions(seed: u64) -> TableOut {
    bank_transactions_with(seed, 16, 50)
}

fn bank_transactions_with(seed: u64, clients: usize, per_client: u64) -> TableOut {
    use gridpaxos_services::{agreed_stores, audit_transfers, transfer_legs};

    let mut t = TableOut::new(
        "bank_transactions",
        &format!(
            "Cross-shard 2PC transfers vs contention ({clients} clients, \
             {per_client} transfers each)"
        ),
        &[
            "cfg",
            "commit_tput",
            "abort_rate",
            "p50_ms",
            "p99_ms",
            "speedup",
        ],
    );
    let mut base = None;
    // (groups, accounts): the G=1 row is the single-shard baseline at the
    // coldest pool; the G=4 rows sweep contention hot → cold.
    for (g, accounts) in [(1usize, 256usize), (4, 8), (4, 16), (4, 64), (4, 256)] {
        let transfers = |c: usize| {
            let legs = move |s: usize, d: usize| {
                transfer_legs(&format!("acct{s}"), &format!("acct{d}"), 1, g)
            };
            let client_seed = seed.wrapping_mul(0x100_0000_01b3).wrapping_add(c as u64);
            TransferLoop::new(accounts, g, per_client, client_seed, Box::new(legs))
        };
        let mut w = run(sharded_kv(seed, g).clients(clients, transfers));
        assert!(
            w.metrics.txn_commits >= clients as u64 * per_client,
            "only {} of {} transfers committed",
            w.metrics.txn_commits,
            clients as u64 * per_client
        );

        // Audit the books: decode every group's agreed state and check no
        // intent survived and no money was minted or burned.
        let settle = w.now.after(Dur::from_secs(2));
        w.run_until(settle);
        if let Err(v) = agreed_stores(g, |grp| w.replica_states_of(grp))
            .and_then(|stores| audit_transfers(&stores))
        {
            panic!("{v}");
        }

        let m = &w.metrics;
        let s = m.txn_summary();
        let abort_rate = m.txn_aborts as f64 / (m.txn_commits + m.txn_aborts).max(1) as f64;
        let tput = m.txns_per_sec();
        let base = *base.get_or_insert(tput);
        t.row(vec![
            format!("{g}g/{accounts}a"),
            fmt_tput(tput),
            format!("{abort_rate:.3}"),
            fmt_ms(s.p50),
            fmt_ms(s.p99),
            format!("{:.2}x", tput / base),
        ]);
    }
    t.note("extension: 2PC over T-Paxos groups; aborts are prepare-lock conflicts, retried by the client");
    t
}

/// Extension — epoch-batched confirm rounds: closed-loop X-Paxos read
/// throughput with the paper's per-read confirms vs confirm batching.
/// Runs on a message-bound CPU model ([`CpuModel::msg_bound`]) where
/// per-message overhead, not request execution, saturates the replicas —
/// the regime the batching targets (per-read confirms cost every replica
/// `O(reads)` messages; one round costs `O(n)` regardless of backlog).
/// Committed trajectory: `BENCH_read_batching.json`.
#[must_use]
pub fn read_batching(seed: u64) -> TableOut {
    read_batching_with(seed, &[8, 16, 32, 64, 128], 200)
}

fn read_batching_with(seed: u64, client_counts: &[usize], per_client: u64) -> TableOut {
    let mut t = TableOut::new(
        "read-batching",
        "X-Paxos read throughput: per-read confirms vs epoch batching (req/s, msg-bound CPU)",
        &[
            "clients",
            "per_read_tput",
            "batched_tput",
            "speedup",
            "confirms_per_read",
        ],
    );
    let reads = |clients: usize, batching: bool| {
        let mut exp = sysnet(seed);
        exp.cpu = CpuModel::msg_bound();
        exp.cfg.confirm_batching = batching;
        ops(exp, RequestKind::Read, clients, per_client)
    };
    for &c in client_counts {
        let base = reads(c, false).ops_per_sec();
        let m = reads(c, true);
        let batched = m.ops_per_sec();
        t.row(vec![
            c.to_string(),
            fmt_tput(base),
            fmt_tput(batched),
            format!("{:.2}x", batched / base),
            format!("{:.2}", m.confirm_msgs_per_read()),
        ]);
    }
    t.note("extension: one ConfirmReq/ConfirmBatch round validates every open read, collapsing O(reads x n) confirm traffic to O(n) per round");
    t
}

/// Extension (E17) — zero-round WAN reads: bounded-staleness follower
/// reads plus geo-aware leader placement, across the three §4.1
/// configurations. Clients form per-site populations (config 2 splits
/// them across Berkeley and Princeton; config 3 co-locates one with each
/// replica site plus one at Berkeley), run a 90%-read zipfian mix
/// (`theta = 0.99`, 64 keys), and each config is swept over three read
/// paths from one run matrix:
///
/// * `confirm` — X-Paxos per-read confirm rounds (the paper's fast path);
/// * `lease` — leader-local lease reads (no confirm round, but every
///   read still crosses the WAN to the leader);
/// * `follower` — bounded-staleness reads served by the *nearest*
///   replica with zero coordination messages, session guarantees
///   enforced client-side.
///
/// Leaders are placed by client-weighted RTT ([`Topology::place_leaders`])
/// in every mode, so the comparison isolates the read path from the
/// placement win. Committed trajectory: `BENCH_follower_reads.json`.
#[must_use]
pub fn follower_reads(seed: u64) -> TableOut {
    follower_reads_with(seed, 150)
}

fn follower_reads_with(seed: u64, per_client: u64) -> TableOut {
    use crate::zipf::SkewedMixLoop;
    use gridpaxos_core::types::ClientId;

    let mut t = TableOut::new(
        "follower-reads",
        "Bounded-staleness follower reads + geo placement: read RRT by §4.1 config (ms)",
        &[
            "config/mode",
            "read_p50_ms",
            "read_mean_ms",
            "write_p50_ms",
            "zero_round_share",
            "stale_mean",
            "stale_max",
            "confirms_per_read",
        ],
    );
    let follower = ReadMode::Follower { max_staleness: 8 };
    // Per-site client populations: `None` = the topology's default client
    // site, `Some(s)` pins the client to site `s`.
    let populations: [(&str, Topology, [Option<usize>; 4]); 3] = [
        ("config1", Topology::sysnet(3), [None; 4]),
        // Config 2: half the clients stay at Berkeley, half sit with
        // the replicas at Princeton (site 0).
        (
            "config2",
            Topology::berkeley_princeton(3),
            [None, None, Some(0), Some(0)],
        ),
        // Config 3: one client co-located with each replica site
        // (UIUC/Utah/Texas) plus one at Berkeley (the default).
        (
            "config3",
            Topology::wan_spread(),
            [Some(0), Some(1), Some(2), None],
        ),
    ];
    for (config, mut topo, sites) in populations {
        // Pre-place the population so geo scoring and nearest-replica
        // routing both see it (the world assigns ids 1.. in add order).
        let ids: Vec<ClientId> = (1..=sites.len() as u64).map(ClientId).collect();
        for (id, site) in ids.iter().zip(sites) {
            if let Some(s) = site {
                topo.client_sites.insert(*id, s);
            }
        }
        let placement = topo.place_leaders(&ids, 1);
        for (mode, name) in [
            (ReadMode::XPaxos, "confirm"),
            (ReadMode::Lease, "lease"),
            (follower, "follower"),
        ] {
            let mut exp = Experiment::on(topo.clone(), seed).read_mode(mode);
            exp.cfg.placement = Some(placement.clone());
            // 90% reads over a 64-key zipfian (theta = 0.99) keyspace,
            // seed-decorrelated per client.
            for (i, site) in sites.into_iter().enumerate() {
                let client_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mix = SkewedMixLoop::new(per_client, 900, 64, 0.99, client_seed);
                exp.clients.push((Box::new(mix) as Box<dyn Driver>, site));
            }
            let w = run(exp);
            let reads = w.metrics.rtt_summary("read");
            let (served, stale_sum, stale_max, _rejects) = w.follower_read_stats();
            // Reads answered with zero coordination rounds, as a share of
            // completed reads (a retried read can be served twice, so the
            // share is capped at 1).
            let hit = if reads.n == 0 {
                0.0
            } else {
                (served as f64 / reads.n as f64).min(1.0)
            };
            let stale_mean = stale_sum as f64 / served.max(1) as f64;
            t.row(vec![
                format!("{config}/{name}"),
                fmt_ms(reads.p50),
                fmt_ms(reads.mean),
                fmt_ms(w.metrics.rtt_summary("write").p50),
                format!("{hit:.2}"),
                format!("{stale_mean:.2}"),
                stale_max.to_string(),
                format!("{:.2}", w.metrics.confirm_msgs_per_read()),
            ]);
        }
    }
    t.note(
        "extension: follower reads answer from the nearest replica's applied state with zero \
         coordination messages; staleness is bounded in decrees and session guarantees \
         (monotonic reads, read-your-writes) are enforced by the client watermark",
    );
    t
}

/// E14 — reactor transport: the nonblocking epoll reactor on a real
/// 3-node loopback cluster (not the simulator). Two phases:
///
/// * **closed-loop**: real `SyncClient`s, one per thread, then the
///   headline run — 10,000 shipped client cores on one
///   [`ClientLoop`] thread over three sockets;
/// * **open-loop**: a fixed offered-rate sweep past saturation. The
///   reactor's admission gate sheds the excess with `Busy` (throughput
///   plateaus, tail latency stays bounded).
///
/// The thread-per-connection transport and the hand-made virtual-client
/// driver the earlier rows ran on are gone; their rows are frozen in
/// EXPERIMENTS.md E14. Linux only (epoll); elsewhere the table carries a note and no
/// rows.
///
/// [`ClientLoop`]: gridpaxos_transport::ClientLoop
#[must_use]
#[cfg(target_os = "linux")]
pub fn reactor(_seed: u64) -> TableOut {
    reactor_live::reactor_with(&reactor_live::Scale::full())
}

/// Non-Linux stub: the reactor needs epoll.
#[must_use]
#[cfg(not(target_os = "linux"))]
pub fn reactor(_seed: u64) -> TableOut {
    let mut t = TableOut::new(
        "reactor",
        "Reactor transport (live TCP)",
        &[
            "case",
            "clients",
            "offered_rps",
            "tput_rps",
            "p50_ms",
            "p99_ms",
            "busy",
        ],
    );
    t.note("skipped: the reactor transport requires Linux (epoll)");
    t
}

#[cfg(target_os = "linux")]
mod reactor_live {
    use super::{percentile_sorted, TableOut};
    use bytes::Bytes;
    use gridpaxos_core::client::ClientCore;
    use gridpaxos_core::config::Config;
    use gridpaxos_core::request::RequestKind;
    use gridpaxos_core::service::NoopApp;
    use gridpaxos_core::types::Dur;
    use gridpaxos_transport::{ClientLoop, Outcome, ReactorCluster, SyncClient};
    use std::time::{Duration, Instant};

    /// Workload sizes; the CI smoke test shrinks these, the full run
    /// (and `BENCH_reactor.json`) uses `full()`.
    pub(crate) struct Scale {
        /// `SyncClient` count (one thread each).
        pub parity_clients: usize,
        /// Client cores on one client loop (headline).
        pub loop_clients: usize,
        /// Closed-loop ops per client.
        pub ops_each: u64,
        /// Open-loop offered rates (req/s) to sweep.
        pub open_rates: Vec<u64>,
        /// Client cores the open loop draws its requests from.
        pub open_pool: usize,
        /// Injection window per open-loop rate.
        pub open_dur: Duration,
    }

    impl Scale {
        pub(crate) fn full() -> Scale {
            Scale {
                parity_clients: 512,
                loop_clients: 10_000,
                ops_each: 10,
                open_rates: vec![4_000, 16_000, 64_000],
                open_pool: 4_096,
                open_dur: Duration::from_secs(2),
            }
        }

        #[cfg(test)]
        pub(crate) fn smoke() -> Scale {
            Scale {
                parity_clients: 32,
                loop_clients: 300,
                ops_each: 10,
                open_rates: vec![2_000],
                open_pool: 64,
                open_dur: Duration::from_millis(500),
            }
        }
    }

    /// The p50 and p99 cells of a sample of latencies in ms, nearest rank.
    fn p50_p99(mut samples: Vec<f64>) -> [String; 2] {
        samples.sort_by(f64::total_cmp);
        [0.50, 0.99].map(|q| format!("{:.3}", percentile_sorted(&samples, q)))
    }

    /// A one-byte write.
    fn write_op(i: u64) -> Bytes {
        Bytes::copy_from_slice(&[(i & 0xff) as u8])
    }

    /// A client loop over `n` shipped client cores with fresh ids and the
    /// shipped 500 ms retry, as `ReactorCluster::client` makes them.
    fn client_loop(cluster: &ReactorCluster, n: usize) -> ClientLoop {
        let replicas = cluster.addrs.len();
        let cores = (0..n)
            .map(|_| ClientCore::new(cluster.next_client_id(), replicas, Dur::from_millis(500)))
            .collect();
        ClientLoop::new(cores, cluster.addrs.clone()).expect("client loop")
    }

    /// Closed loop with `clients` real connections: each thread owns one
    /// `SyncClient` and keeps exactly one request outstanding. Returns the
    /// table row, as `closed_loop` and `open_point` do.
    fn closed_real(
        mk: &(dyn Fn() -> SyncClient + Sync),
        clients: usize,
        ops_each: u64,
    ) -> Vec<String> {
        let started = Instant::now();
        let per_thread: Vec<(u64, Vec<f64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    s.spawn(move || {
                        let mut cl = mk();
                        let mut ok = 0u64;
                        let mut samples = Vec::with_capacity(ops_each as usize);
                        for i in 0..ops_each {
                            let t0 = Instant::now();
                            if cl.call(RequestKind::Write, write_op(i)).is_some() {
                                ok += 1;
                                samples.push(t0.elapsed().as_secs_f64() * 1e3);
                            }
                        }
                        (ok, samples)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = started.elapsed();
        let completed: u64 = per_thread.iter().map(|(ok, _)| ok).sum();
        let samples: Vec<f64> = per_thread.into_iter().flat_map(|(_, s)| s).collect();
        let [p50, p99] = p50_p99(samples);
        vec![
            "closed/reactor".into(),
            clients.to_string(),
            (clients * 3).to_string(),
            "-".into(),
            completed.to_string(),
            format!("{:.0}", completed as f64 / elapsed.as_secs_f64().max(1e-9)),
            p50,
            p99,
            "0".into(),
            "-".into(),
        ]
    }

    /// Closed loop with `clients` cores on one client loop: each keeps one
    /// write outstanding until it has completed `ops_each`, the next
    /// leaving as its reply is decoded. Retries, leader hint and `Busy`
    /// are the shipped client's; `busy` counts the `Busy` replies seen.
    fn closed_loop(cluster: &ReactorCluster, clients: usize, ops_each: u64) -> Vec<String> {
        let mut lp = client_loop(cluster, clients);
        let started = Instant::now();
        let deadline = started + Duration::from_secs(120);
        let mut left = vec![ops_each; clients];
        for slot in 0..clients {
            lp.submit_op(slot, RequestKind::Write, write_op(0));
        }
        let (mut samples, mut busy, mut seen) = (Vec::new(), 0u64, Vec::new());
        while (samples.len() as u64) < clients as u64 * ops_each && Instant::now() < deadline {
            lp.poll(deadline, &mut seen).expect("poll");
            for (slot, outcome) in seen.drain(..) {
                match outcome {
                    Outcome::Busy => busy += 1,
                    Outcome::Done(op) => {
                        samples.push(op.rtt.as_millis_f64());
                        left[slot] -= 1;
                        if left[slot] > 0 {
                            lp.submit_op(slot, RequestKind::Write, write_op(left[slot]));
                        }
                    }
                }
            }
        }
        let elapsed = started.elapsed();
        let done = samples.len();
        let [p50, p99] = p50_p99(samples);
        vec![
            "closed/reactor+loop".into(),
            clients.to_string(),
            cluster.addrs.len().to_string(),
            "-".into(),
            done.to_string(),
            format!("{:.0}", done as f64 / elapsed.as_secs_f64().max(1e-9)),
            p50,
            p99,
            busy.to_string(),
            "-".into(),
        ]
    }

    /// Open loop at `offered` req/s for `dur`, then a grace period to
    /// drain. A write leaves every `1 / offered` s whatever has come back,
    /// each the only request of an idle core drawn from a `pool`-core
    /// client loop, so the replicas hold `pool` client ids. A `Busy` is
    /// counted and its core freed, not retried; an injection that finds
    /// no idle core is counted in `no_idle`.
    fn open_point(
        cluster: &ReactorCluster,
        pool: usize,
        offered: u64,
        dur: Duration,
    ) -> Vec<String> {
        let grace = Duration::from_millis(500);
        let mut lp = client_loop(cluster, pool);
        let mut idle: Vec<usize> = (0..pool).collect();
        let mut outstanding = vec![false; pool];
        let interval = Duration::from_secs_f64(1.0 / offered.max(1) as f64);
        let started = Instant::now();
        let (stop, end) = (started + dur, started + dur + grace);
        let mut next_at = started;
        let (mut injected, mut no_idle, mut busy) = (0u64, 0u64, 0u64);
        let (mut samples, mut seen) = (Vec::new(), Vec::new());
        loop {
            let now = Instant::now();
            while next_at <= now && next_at < stop {
                next_at += interval;
                injected += 1;
                match idle.pop() {
                    Some(slot) => {
                        outstanding[slot] = true;
                        lp.submit_op(slot, RequestKind::Write, write_op(injected));
                    }
                    None => no_idle += 1,
                }
            }
            if now >= end {
                break;
            }
            let wake = if next_at < stop { next_at } else { end };
            lp.poll(wake, &mut seen).expect("poll");
            for (slot, outcome) in seen.drain(..) {
                // A `Busy` from one replica and the answer from another
                // can land in one poll; the first settles the request.
                if !std::mem::take(&mut outstanding[slot]) {
                    continue;
                }
                match outcome {
                    Outcome::Done(op) => samples.push(op.rtt.as_millis_f64()),
                    Outcome::Busy => {
                        busy += 1;
                        lp.abandon(slot);
                    }
                }
                idle.push(slot);
            }
        }
        let done = samples.len();
        let [p50, p99] = p50_p99(samples);
        vec![
            format!("open/reactor@{offered}"),
            pool.to_string(),
            cluster.addrs.len().to_string(),
            offered.to_string(),
            done.to_string(),
            format!("{:.0}", done as f64 / (dur + grace).as_secs_f64()),
            p50,
            p99,
            busy.to_string(),
            no_idle.to_string(),
        ]
    }

    pub(crate) fn reactor_with(scale: &Scale) -> TableOut {
        let mut t = TableOut::new(
            "reactor",
            "Reactor transport (live 3-node TCP cluster, req/s)",
            &[
                "case",
                "clients",
                "conns",
                "offered_rps",
                "completed",
                "tput_rps",
                "p50_ms",
                "p99_ms",
                "busy",
                "no_idle",
            ],
        );
        let app = || Box::new(NoopApp::new()) as Box<dyn gridpaxos_core::service::App>;

        let cluster = ReactorCluster::launch(Config::cluster(3), app).expect("reactor cluster");
        t.row(closed_real(
            &|| cluster.client(),
            scale.parity_clients,
            scale.ops_each,
        ));
        t.row(closed_loop(&cluster, scale.loop_clients, scale.ops_each));
        for &rate in &scale.open_rates {
            t.row(open_point(&cluster, scale.open_pool, rate, scale.open_dur));
        }
        let shed_total = (0..3)
            .map(|i| cluster.metrics(i).stats().busy_shed)
            .sum::<u64>();
        cluster.shutdown();

        t.note(format!(
            "reactor admission gate shed {shed_total} requests with Busy across all runs"
        ));
        t.note(
            "closed loop: one reactor thread per node serves 10k clients, and one client-loop \
             thread drives them over 3 sockets; open loop: the offered rate ignores \
             completions, a Busy is counted and not retried, and an injection that finds \
             every core of the pool busy counts as no_idle",
        );
        t
    }
}

// ---------------------------------------------------------------------------
// E15 — large state: flat decree cost under chunked checkpoints
// ---------------------------------------------------------------------------

/// Measured output of one `large_state` sweep point.
struct LsRun {
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    /// p99 over decrees during which a replica committed a checkpoint or
    /// after which one was still streaming. 0 when no decree was.
    ckpt_p99_ms: f64,
    checkpoints: u64,
    chunks_per_ckpt: f64,
    state_mb: f64,
    /// Per-replica checkpoint counters, human-readable.
    per_replica: String,
}

/// Pin glibc's trim/mmap thresholds for the duration of the process.
/// Every checkpoint cycle turns over a full state image; with default
/// thresholds glibc returns those pages to the OS on free and faults
/// them back in on the next cycle, charging steady-state decrees an
/// allocator tax proportional to state size — exactly the artifact this
/// experiment must not measure. Standard practice for allocation-heavy
/// benchmarks; no-op off glibc.
fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            extern "C" {
                fn mallopt(param: core::ffi::c_int, value: core::ffi::c_int) -> core::ffi::c_int;
            }
            const M_TRIM_THRESHOLD: core::ffi::c_int = -1;
            const M_MMAP_THRESHOLD: core::ffi::c_int = -3;
            unsafe {
                mallopt(M_TRIM_THRESHOLD, core::ffi::c_int::MAX);
                mallopt(M_MMAP_THRESHOLD, core::ffi::c_int::MAX);
            }
        });
    }
}

/// Closed-loop overwrites of uniformly drawn keys `k0000000..keys`, each
/// with the same value; never done (the caller steps the world).
struct Overwrite {
    keys: usize,
    value: String,
    rng: rand::rngs::SmallRng,
}

impl Driver for Overwrite {
    fn kick(&mut self, core: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
        use gridpaxos_services::KvOp;
        use rand::Rng;
        let key = format!("k{:07}", self.rng.gen_range(0..self.keys));
        let op = KvOp::Put(key, self.value.clone()).encode();
        Some(core.submit_op(RequestKind::Write, op, now))
    }

    fn on_complete(&mut self, _: &CompletedOp, _: Time, _: &mut Metrics) {}

    fn done(&self) -> bool {
        false
    }
}

/// One replica's checkpoint counters, and whether a checkpoint is
/// streaming.
#[derive(Clone)]
struct Ckpts {
    done: u64,
    bytes: u64,
    chunks: u64,
    streaming: bool,
}

fn ckpts(w: &World) -> Vec<Ckpts> {
    (0..3)
        .filter_map(|i| w.replica(ProcessId(i)))
        .map(|r| Ckpts {
            done: r.stats.checkpoints,
            bytes: r.stats.checkpoint_bytes,
            chunks: r.stats.checkpoint_chunks,
            streaming: r.checkpointing(),
        })
        .collect()
}

/// One closed-loop write: step `w` until it completes, then sleep out
/// `floor`, a stand-in for the per-decree cost of the paper's target
/// environment (LAN/grid RTT plus group-commit fsync). It is identical
/// across state sizes, so it cannot manufacture a trend. Returns the
/// decree's wall time in ms.
fn one_write(w: &mut World, floor: std::time::Duration) -> f64 {
    let t = std::time::Instant::now();
    let done = w.metrics.completed_ops;
    while w.metrics.completed_ops == done {
        assert!(w.step(), "a failure-free world ran dry");
    }
    if let Some(rest) = floor.checked_sub(t.elapsed()) {
        std::thread::sleep(rest);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Drive a failure-free 3-replica simulated cluster — free CPU,
/// near-zero links, so wall time is the protocol stack's own cost —
/// through `decrees` closed-loop overwrites of a KV store preloaded with
/// `keys` values of `value_bytes` each, and measure the wall time of
/// every decree. Checkpoints stream in chunks of `chunk_bytes`, each
/// replica pumping its own: one chunk per apply drain and one per timer.
/// Measurement starts only after every replica has completed two
/// warm-up checkpoints, so the one-time heap-growth transient of the
/// first snapshots is not charged to whichever sweep point runs first.
fn large_state_run(
    seed: u64,
    keys: usize,
    value_bytes: usize,
    decrees: usize,
    checkpoint_every: u64,
    chunk_bytes: usize,
    floor: std::time::Duration,
) -> LsRun {
    pin_allocator();
    use gridpaxos_core::request::{Request, RequestId};
    use gridpaxos_core::service::{App, ExecCtx};
    use gridpaxos_core::types::{ClientId, Seq};
    use gridpaxos_services::{KvOp, KvStore};
    use rand::SeedableRng;

    // Preload one KvStore and clone it per replica: identical resident
    // state on every replica without paying `keys` consensus rounds. The
    // preloaded prefix sits below the protocol's horizon (chosen prefix
    // 0), which is fine — the experiment measures decree cost against
    // resident state size, not recovery.
    let value: String = "v".repeat(value_bytes);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut base = KvStore::new();
    for i in 0..keys {
        let req = Request::new(
            RequestId::new(ClientId(7), Seq(i as u64 + 1)),
            RequestKind::Write,
            KvOp::Put(format!("k{i:07}"), value.clone()).encode(),
        );
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let _ = base.execute(&req, &mut ctx);
    }
    let state_mb = base.snapshot().len() as f64 / (1024.0 * 1024.0);

    let mut exp = Experiment::on(Topology::fast(3), seed);
    exp.cpu = CpuModel::free();
    exp.cfg.batch_window = Dur::ZERO;
    exp.cfg.checkpoint_every = checkpoint_every;
    exp.cfg.checkpoint_chunk_bytes = chunk_bytes;
    exp.app = Box::new(move |_| Box::new(base.clone()));
    let rng = rand::rngs::SmallRng::seed_from_u64(seed);
    exp.clients
        .push((Box::new(Overwrite { keys, value, rng }), None));
    let mut w = exp.build();

    // Warm-up: unmeasured decrees until every replica has completed two
    // checkpoints, capped at four times two cycles of `checkpoint_every`
    // decrees plus one chunk per decree. The first checkpoint grows the
    // heap to a full image; at the peak of the second, the committed
    // image and the staging chunks coexist — only after that does the
    // allocator reuse pages instead of faulting in fresh ones.
    let est_chunks = (state_mb * 1024.0 * 1024.0 / chunk_bytes as f64).ceil() as usize + 1;
    let cap = 8 * (checkpoint_every as usize + est_chunks) + 512;
    for _ in 0..cap {
        if ckpts(&w).iter().all(|c| c.done >= 2) {
            break;
        }
        one_write(&mut w, std::time::Duration::ZERO);
    }
    let base_stats = ckpts(&w);

    let mut lat: Vec<f64> = Vec::with_capacity(decrees);
    let mut ckpt_lat: Vec<f64> = Vec::new();
    let mut prev = base_stats.clone();
    for _ in 0..decrees {
        let dt_ms = one_write(&mut w, floor);
        lat.push(dt_ms);
        let now = ckpts(&w);
        let committed = now.iter().zip(&prev).any(|(a, b)| a.done > b.done);
        if committed || now.iter().any(|c| c.streaming) {
            ckpt_lat.push(dt_ms);
        }
        prev = now;
    }

    lat.sort_by(f64::total_cmp);
    ckpt_lat.sort_by(f64::total_cmp);
    let per_replica = prev
        .iter()
        .zip(&base_stats)
        .enumerate()
        .map(|(i, (r, b))| {
            format!(
                "r{i}: {} ckpts, {:.1} MB, {} chunks",
                r.done - b.done,
                (r.bytes - b.bytes) as f64 / (1024.0 * 1024.0),
                r.chunks - b.chunks,
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    let cks = prev[0].done - base_stats[0].done;
    let chunks = prev[0].chunks - base_stats[0].chunks;
    LsRun {
        p50_ms: percentile_sorted(&lat, 0.50),
        p99_ms: percentile_sorted(&lat, 0.99),
        max_ms: lat.last().copied().unwrap_or(f64::NAN),
        ckpt_p99_ms: percentile_sorted(&ckpt_lat, 0.99),
        checkpoints: cks,
        chunks_per_ckpt: if cks == 0 {
            0.0
        } else {
            chunks as f64 / cks as f64
        },
        state_mb,
        per_replica,
    }
}

/// E15 — extension: decree cost vs service-state size. Sweeps resident
/// KV state over ~100x while measuring per-decree wall time on a
/// failure-free simulated 3-replica cluster whose checkpoints stream in
/// chunks.
/// Decree p99 must stay flat in state size. The committed
/// `BENCH_large_state.json` is the earlier run that also measured the
/// stop-the-world checkpoint and the apply pool (EXPERIMENTS.md E15);
/// this row writes to `target/experiments/`.
#[must_use]
pub fn large_state(seed: u64) -> TableOut {
    large_state_with(
        seed,
        &[4_000, 40_000, 400_000],
        1024,
        4_000,
        64,
        16 * 1024,
        std::time::Duration::from_micros(500),
    )
}

fn large_state_with(
    seed: u64,
    sizes: &[usize],
    value_bytes: usize,
    decrees: usize,
    checkpoint_every: u64,
    chunk_bytes: usize,
    floor: std::time::Duration,
) -> TableOut {
    let mut t = TableOut::new(
        "large-state",
        "Decree cost vs state size: chunked checkpoints (ms)",
        &[
            "keys/mode",
            "p50_ms",
            "p99_ms",
            "max_ms",
            "ckpt_p99_ms",
            "ckpts",
            "chunks/ckpt",
            "state_MB",
        ],
    );
    let mut rows: Vec<(usize, LsRun)> = Vec::new();
    for &keys in sizes {
        // Rows must span at least two full checkpoint cycles. A replica
        // pumps one chunk per decree, so a cycle is `checkpoint_every`
        // decrees plus one per chunk; two and a half cycles leave the
        // measured window two completed checkpoints at any state size.
        let est_chunks = keys * (value_bytes + 32) / chunk_bytes + 1;
        let n = decrees.max(5 * (est_chunks + checkpoint_every as usize) / 2);
        // Median-of-3 repetitions by decree p99: a single-vCPU host has
        // transient multi-ms scheduling phases that would otherwise
        // decide the tail of whichever row they land on.
        let mut runs: Vec<LsRun> = (0..3)
            .map(|rep| {
                let (every, cb) = (checkpoint_every, chunk_bytes);
                large_state_run(seed + rep, keys, value_bytes, n, every, cb, floor)
            })
            .collect();
        runs.sort_by(|a, b| a.p99_ms.total_cmp(&b.p99_ms));
        rows.push((keys, runs.swap_remove(1)));
    }
    for (keys, r) in &rows {
        t.row(vec![
            format!("{keys}/chunked"),
            fmt_ms(r.p50_ms),
            fmt_ms(r.p99_ms),
            fmt_ms(r.max_ms),
            fmt_ms(r.ckpt_p99_ms),
            r.checkpoints.to_string(),
            format!("{:.1}", r.chunks_per_ckpt),
            format!("{:.1}", r.state_mb),
        ]);
    }
    // Flatness: max/min of the rows' p99s, decree-wide and during active
    // checkpointing. The acceptance bar is < 1.3x across a >= 100x state
    // sweep.
    let spread = |f: &dyn Fn(&LsRun) -> f64| -> f64 {
        let vals = rows.iter().map(|(_, r)| f(r)).filter(|v| v.is_finite());
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for v in vals {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo.is_finite() && lo > 0.0 {
            hi / lo
        } else {
            f64::NAN
        }
    };
    let decree_spread = spread(&|r: &LsRun| r.p99_ms);
    let ckpt_spread = spread(&|r: &LsRun| r.ckpt_p99_ms);
    let span = sizes.iter().max().copied().unwrap_or(1) as f64
        / sizes.iter().min().copied().unwrap_or(1).max(1) as f64;
    t.note(format!(
        "chunked p99 spread across the {span:.0}x state sweep: decrees {decree_spread:.3}x, \
         decrees-during-checkpoint {ckpt_spread:.3}x (bar: < 1.3x)"
    ));
    t.note(format!(
        "simulated 3-replica cluster with free CPU and near-zero links, so a decree's wall \
         time is the protocol stack's own cost; every decree carries a {} us floor (sleep) \
         modelling LAN/grid RTT plus group-commit fsync, identical across sizes. Each \
         replica pumps its own checkpoint, one chunk per apply drain and one per timer — \
         the simulator's and the model checker's policy — so only streaming work that \
         exceeds the floor can surface as added latency. Rows are the median of 3 \
         repetitions by decree p99; decree counts scale to cover >= 2 full checkpoint \
         cycles per row",
        floor.as_micros()
    ));
    for (keys, r) in &rows {
        t.note(format!("{keys}/chunked checkpoints — {}", r.per_replica));
    }
    t.note("tentpole: chunked checkpoints make decree cost flat in state size");
    t
}

/// One row of [`REGISTRY`]: the CLI name, the ids of the tables the
/// experiment emits (in order), the experiment, and the committed
/// trajectory its JSON is written to (`None`: `target/experiments/`).
pub type Entry = (
    &'static str,
    &'static [&'static str],
    fn(u64) -> Vec<TableOut>,
    Option<&'static str>,
);

/// Every experiment, in paper order: the one list `all`, the
/// `experiments` binary's dispatch, its unknown-name message and its
/// JSON writer read.
#[rustfmt::skip]
pub static REGISTRY: [Entry; 18] = [
    ("rrt-sysnet",     &["rrt-sysnet"],             |s| vec![rrt_sysnet(s)],        None),
    ("fig5",           &["fig5"],                   |s| vec![fig5(s)],              None),
    ("fig6",           &["fig6"],                   |s| vec![fig6(s)],              None),
    ("fig7",           &["fig7"],                   |s| vec![fig7(s)],              None),
    ("fig8",           &["fig8"],                   |s| vec![fig8(s)],              None),
    ("table1",         &["table1"],                 |s| vec![table1(s)],            None),
    ("fig9",           &["fig9-3req", "fig9-5req"], fig9,                           None),
    ("leader-switch",  &["leader-switch"],          |s| vec![leader_switch(s)],     None),
    ("scale-t",        &["scale-t"],                |s| vec![scale_t(s)],           None),
    ("ablation",       &["ablation"],               |s| vec![ablation(s)],          None),
    ("state-size",     &["state-size"],             |s| vec![state_size(s)],        None),
    ("batch-ablation", &["batch-ablation"],         |s| vec![batch_ablation(s)],    None),
    ("sharding",       &["sharding"],               |s| vec![sharding(s)],          Some("BENCH_sharding.json")),
    ("txn",            &["bank_transactions"],      |s| vec![bank_transactions(s)], Some("BENCH_txn.json")),
    ("read-batching",  &["read-batching"],          |s| vec![read_batching(s)],     Some("BENCH_read_batching.json")),
    ("follower-reads", &["follower-reads"],         |s| vec![follower_reads(s)],    Some("BENCH_follower_reads.json")),
    ("reactor",        &["reactor"],                |s| vec![reactor(s)],           Some("BENCH_reactor.json")),
    ("large-state",    &["large-state"],            |s| vec![large_state(s)],       None),
];

/// The registry rows a CLI name selects: every row for `all`, else the
/// row of that name.
#[must_use]
pub fn select(name: &str) -> Option<&'static [Entry]> {
    if name == "all" {
        return Some(&REGISTRY);
    }
    let i = REGISTRY.iter().position(|e| e.0 == name)?;
    Some(&REGISTRY[i..=i])
}

/// Run a registry row at `seed`, holding it to the table ids it declares.
#[must_use]
pub fn tables(&(name, ids, experiment, _): &Entry, seed: u64) -> Vec<TableOut> {
    let out = experiment(seed);
    let emitted: Vec<&str> = out.iter().map(|t| t.id.as_str()).collect();
    assert_eq!(
        emitted, ids,
        "{name} emitted tables the registry does not list"
    );
    out
}

/// Every experiment, in paper order.
#[must_use]
pub fn all(seed: u64) -> Vec<TableOut> {
    REGISTRY.iter().flat_map(|e| tables(e, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is the one list: its names are unique, every name
    /// the CI step "Experiment outputs are current" runs resolves, and
    /// `all` emits the parent's 19 tables in the parent's order. Runs no
    /// experiment.
    #[test]
    fn registry_is_the_one_list() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate names");
        for name in [
            "rrt-sysnet",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table1",
            "fig9",
            "leader-switch",
            "scale-t",
            "ablation",
            "state-size",
            "batch-ablation",
            "sharding",
            "txn",
            "read-batching",
            "follower-reads",
        ] {
            let rows = select(name).unwrap_or_else(|| panic!("{name} does not resolve"));
            assert_eq!(rows.len(), 1, "{name}");
            assert_eq!(rows[0].0, name);
        }
        let ids: Vec<&str> = select("all")
            .expect("all resolves")
            .iter()
            .flat_map(|e| e.1.iter().copied())
            .collect();
        assert_eq!(
            ids,
            [
                "rrt-sysnet",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "table1",
                "fig9-3req",
                "fig9-5req",
                "leader-switch",
                "scale-t",
                "ablation",
                "state-size",
                "batch-ablation",
                "sharding",
                "bank_transactions",
                "read-batching",
                "follower-reads",
                "reactor",
                "large-state",
            ]
        );
        assert!(select("group-commit").is_none());
    }

    #[test]
    fn sharding_scales_write_throughput() {
        // Short version of the headline run (the full one generates
        // BENCH_sharding.json): with enough clients to keep every group's
        // pipeline full, more groups must yield materially more
        // closed-loop write throughput.
        let t = sharding_with(11, 64, 25);
        let tput = |g: &str| -> f64 { t.cell(g, "write_tput").unwrap().parse().unwrap() };
        let (g1, g4) = (tput("1"), tput("4"));
        assert!(g4 > g1 * 2.0, "G=4 {g4:.0}/s vs G=1 {g1:.0}/s");
    }

    #[test]
    fn bank_transactions_commit_and_conserve() {
        // Short version of the headline run (the full one generates
        // BENCH_txn.json): every requested cross-shard transfer must
        // eventually commit, books must balance (asserted inside the
        // experiment), and the hot 8-account pool at G=4 must show real
        // 2PC contention — some aborted-and-retried attempts.
        let t = bank_transactions_with(23, 6, 10);
        let cell = |row: &str, col: &str| -> f64 {
            t.cell(row, col)
                .unwrap_or_else(|| panic!("row {row} col {col} missing"))
                .parse()
                .unwrap()
        };
        let hot = cell("4g/8a", "abort_rate");
        assert!((0.0..1.0).contains(&hot), "abort rate {hot} out of range");
        assert!(cell("1g/256a", "commit_tput") > 0.0);
        assert!(cell("4g/256a", "commit_tput") > 0.0);
    }

    /// CI smoke of E17 (the full run generates BENCH_follower_reads.json
    /// across all three §4.1 configs): on the config-3 WAN-spread world
    /// with per-site client populations, bounded-staleness follower reads
    /// must (a) run zero leader read rounds — no confirm traffic at all —
    /// while serving essentially every read locally, (b) keep measured
    /// staleness within the configured bound, and (c) put median read
    /// latency at least 5x below the per-read confirm path.
    #[test]
    fn follower_reads_smoke_config3_zero_round_and_bounded() {
        let t = follower_reads_with(13, 60);
        let cell = |row: &str, col: &str| -> f64 {
            t.cell(row, col)
                .unwrap_or_else(|| panic!("row {row} col {col} missing"))
                .parse()
                .unwrap()
        };
        // (a) Zero leader read rounds in Follower mode; the confirm
        // baseline pays real confirm traffic per read.
        assert_eq!(
            cell("config3/follower", "confirms_per_read"),
            0.0,
            "follower reads must not launch confirm rounds"
        );
        assert!(cell("config3/confirm", "confirms_per_read") > 1.0);
        assert!(
            cell("config3/follower", "zero_round_share") > 0.9,
            "nearly every read must be served without coordination"
        );
        // (b) Measured staleness within the configured bound (8).
        assert!(cell("config3/follower", "stale_max") <= 8.0);
        // (c) The headline: median read RRT >= 5x below the confirm path.
        let (confirm, follower) = (
            cell("config3/confirm", "read_p50_ms"),
            cell("config3/follower", "read_p50_ms"),
        );
        assert!(
            follower * 5.0 <= confirm,
            "config 3 follower p50 {follower:.3} ms vs confirm p50 {confirm:.3} ms"
        );
        // Lease reads skip the confirm round but still cross the WAN to
        // the leader; follower reads undercut them too.
        let lease = cell("config3/lease", "read_p50_ms");
        assert!(
            follower < lease,
            "follower p50 {follower:.3} ms vs lease p50 {lease:.3} ms"
        );
    }

    #[test]
    fn read_batching_doubles_saturated_read_throughput() {
        // Short version of the headline run (the full one generates
        // BENCH_read_batching.json): at 64 closed-loop readers the
        // message-bound replicas drown in per-read confirms, and epoch
        // batching must at least double throughput while spending less
        // than one confirm-path message per read.
        let t = read_batching_with(7, &[64], 40);
        let cell = |col: &str| -> f64 { t.cell("64", col).unwrap().parse().unwrap() };
        let (base, batched) = (cell("per_read_tput"), cell("batched_tput"));
        assert!(
            batched >= base * 2.0,
            "batched {batched:.0}/s vs per-read {base:.0}/s"
        );
        let cpr: f64 = t.cell("64", "confirms_per_read").unwrap().parse().unwrap();
        assert!(cpr < 1.0, "confirm msgs per read {cpr:.2}");
    }

    /// CI smoke of E15 (the full run sweeps 100x of state): checkpoints
    /// complete inside the measured window, and each streams in more
    /// than one chunk.
    #[test]
    fn large_state_checkpoints_stream_in_chunks() {
        let t = large_state_with(
            17,
            &[200, 2_000],
            1024,
            400,
            16,
            8 * 1024,
            std::time::Duration::ZERO,
        );
        let cell = |row: &str, col: &str| -> f64 {
            t.cell(row, col)
                .unwrap_or_else(|| panic!("row {row} col {col} missing"))
                .parse()
                .unwrap()
        };
        assert!(
            cell("2000/chunked", "ckpts") >= 1.0,
            "no checkpoint completed"
        );
        assert!(
            cell("2000/chunked", "chunks/ckpt") > 1.0,
            "checkpoints did not stream in chunks"
        );
    }

    /// CI smoke for the live-TCP reactor experiment (the full run
    /// generates BENCH_reactor.json with 10k client cores): a few hundred
    /// cores on one client loop over three sockets must all complete, and
    /// so must the same closed-loop workload over `SyncClient`s.
    #[test]
    #[cfg(target_os = "linux")]
    fn reactor_smoke_serves_the_client_loop() {
        let scale = reactor_live::Scale::smoke();
        let expect_loop = scale.loop_clients as u64 * scale.ops_each;
        let t = reactor_live::reactor_with(&scale);
        let cell = |row: &str, col: &str| -> u64 {
            t.cell(row, col)
                .unwrap_or_else(|| panic!("row {row} col {col} missing"))
                .parse()
                .unwrap()
        };
        // Headline: every op of every core completed over 3 sockets.
        assert_eq!(cell("closed/reactor+loop", "completed"), expect_loop);
        // The real-connection workload completes too.
        assert_eq!(
            cell("closed/reactor", "completed"),
            scale.parity_clients as u64 * scale.ops_each
        );
    }
}
