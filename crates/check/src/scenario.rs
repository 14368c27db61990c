//! Checker scenarios: an initial configuration plus a client script.
//!
//! Each scenario pins down the protocol features under test (read mode,
//! transaction mode, confirm batching) and the workload; the explorer
//! then covers every environment schedule up to a depth bound. The smoke
//! suite ([`smoke_scenarios`]) is sized to finish comfortably inside CI;
//! the `gridcheck` binary exposes depth knobs for deeper offline sweeps.

use crate::harness::HarnessOpts;
use gridpaxos_core::config::{Config, ReadMode, TxnMode};
use gridpaxos_core::types::{Dur, ProcessId, TxnId};

/// One scripted client operation. Bits identify operations in observed
/// state masks (see [`crate::app::CheckerApp`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientOp {
    /// A write setting the given bit.
    Write(u8),
    /// A read of the whole bit-set.
    Read,
    /// A T-Paxos transaction operation setting the given bit.
    TxnOp(TxnId, u8),
    /// Commit the transaction (`n_ops` = operations the client issued).
    TxnCommit(TxnId, u32),
    /// Abort the transaction.
    TxnAbort(TxnId),
}

/// A checker scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name (appears in counterexamples and progress output).
    pub name: &'static str,
    /// Replica configuration.
    pub cfg: Config,
    /// Scripted client operations, injected in order.
    pub script: Vec<ClientOp>,
    /// Environment nondeterminism the explorer may exercise.
    pub opts: HarnessOpts,
    /// Per-replica clock skew in milliseconds (missing entries are zero):
    /// each replica sees the global clock plus its constant offset. Lease
    /// reads must stay linearizable for any skew below the slack between
    /// the lease and `suspect_timeout`.
    pub clock_skew_ms: &'static [u64],
    /// Exploration depth bound for the smoke suite.
    pub smoke_depth: usize,
}

/// Base configuration for checking: 3 replicas, pre-elected leader 0,
/// batching windows off (they only add timer noise at depth 1).
#[must_use]
pub fn base_config() -> Config {
    let mut cfg = Config::cluster(3);
    cfg.batch_window = Dur::ZERO;
    cfg.bootstrap_leader = Some(ProcessId(0));
    cfg
}

/// The bounded suite run by `gridcheck --smoke` and CI.
#[must_use]
pub fn smoke_scenarios() -> Vec<Scenario> {
    vec![
        // Plain writes + read, lossy reordered network: agreement,
        // gap-freedom and the X-Paxos per-read confirm path.
        Scenario {
            name: "write-read-lossy",
            cfg: base_config(),
            script: vec![ClientOp::Write(0), ClientOp::Write(1), ClientOp::Read],
            opts: HarnessOpts {
                drops: true,
                dups: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 6,
        },
        // Epoch-batched confirm rounds (PR 2): retransmissions force the
        // round-launch path; reads must stay linearizable.
        Scenario {
            name: "confirm-batching",
            cfg: base_config()
                .with_read_mode(ReadMode::XPaxos)
                .with_confirm_batching(true),
            script: vec![ClientOp::Write(0), ClientOp::Read, ClientOp::Read],
            opts: HarnessOpts {
                dups: true,
                retransmits: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 7,
        },
        // Leader crash + recovery mid-write: durability of acked writes,
        // single-message gap-closing on takeover.
        Scenario {
            name: "leader-crash",
            cfg: base_config(),
            script: vec![ClientOp::Write(0), ClientOp::Write(1), ClientOp::Read],
            opts: HarnessOpts {
                crashes: 1,
                recovers: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 7,
        },
        // T-Paxos commit: staged effects surface atomically, exactly once.
        Scenario {
            name: "tpaxos-commit",
            cfg: base_config().with_txn_mode(TxnMode::TPaxos),
            script: vec![
                ClientOp::TxnOp(TxnId(1), 0),
                ClientOp::TxnOp(TxnId(1), 1),
                ClientOp::TxnCommit(TxnId(1), 2),
                ClientOp::Read,
            ],
            opts: HarnessOpts {
                dups: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 7,
        },
        // Apply lag: with drops and duplication the Chosen notifications
        // that advance a backup's apply loop can arrive late, reordered
        // or twice, so replicas run with visibly lagging applied state.
        // Reads must stay linearizable against acked writes regardless
        // (§3.4), and the order-sensitive apply chain in the agreement
        // invariant proves no replica ever applies the same-register
        // writes out of decree order while catching up.
        Scenario {
            name: "read-under-apply-lag",
            cfg: base_config().with_read_mode(ReadMode::XPaxos),
            script: vec![
                ClientOp::Write(0),
                ClientOp::Write(1),
                ClientOp::Read,
                ClientOp::Write(2),
                ClientOp::Read,
            ],
            opts: HarnessOpts {
                drops: true,
                dups: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 6,
        },
        // T-Paxos abort + leader crash: staged effects must vanish; an
        // aborted transaction's bits may never surface anywhere.
        Scenario {
            name: "tpaxos-abort-crash",
            cfg: base_config().with_txn_mode(TxnMode::TPaxos),
            script: vec![
                ClientOp::TxnOp(TxnId(1), 0),
                ClientOp::TxnAbort(TxnId(1)),
                ClientOp::Write(1),
                ClientOp::Read,
            ],
            opts: HarnessOpts {
                crashes: 1,
                recovers: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 6,
        },
        // Bounded-staleness follower reads under apply lag (extension):
        // reads route to the highest-id follower while drops and
        // duplication hold its apply loop back, so it serves visibly
        // stale prefixes. The harness's session layer must discard
        // replies below the session watermark; every *accepted* read must
        // honor read-your-writes and monotonic-reads.
        Scenario {
            name: "follower-read-lag",
            cfg: base_config().with_read_mode(ReadMode::Follower { max_staleness: 2 }),
            script: vec![
                ClientOp::Write(0),
                ClientOp::Read,
                ClientOp::Write(1),
                ClientOp::Read,
            ],
            opts: HarnessOpts {
                drops: true,
                dups: true,
                retransmits: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 6,
        },
        // Follower reads across a leader change: the serving follower may
        // trust a deposed leader's commit watermark, and retransmitted
        // reads land on whichever replica leads next. Session guarantees
        // must survive the takeover.
        Scenario {
            name: "follower-read-leader-crash",
            cfg: base_config().with_read_mode(ReadMode::Follower { max_staleness: 4 }),
            script: vec![ClientOp::Write(0), ClientOp::Read, ClientOp::Read],
            opts: HarnessOpts {
                crashes: 1,
                recovers: true,
                retransmits: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 6,
        },
        // Lease reads with bounded clock skew: replica clocks disagree by
        // up to 20 ms — inside the slack between the lease (25 ms) and
        // `suspect_timeout` (50 ms). Because the lease is anchored at the
        // leader's *own* heartbeat-send timestamp, a constant skew cancels
        // out of the validity check, so reads stay linearizable across a
        // crash-driven leader change.
        Scenario {
            name: "lease-read-skew",
            cfg: base_config().with_read_mode(ReadMode::Lease),
            script: vec![
                ClientOp::Write(0),
                ClientOp::Read,
                ClientOp::Write(1),
                ClientOp::Read,
            ],
            opts: HarnessOpts {
                crashes: 1,
                recovers: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[20, 0, 10],
            smoke_depth: 6,
        },
        // A crash inside a step's release: the drive loops let `Accept`
        // leave before the barrier that makes the leader's own vote
        // durable, so a leader can die with its proposal in the network
        // and not on its disk. Whoever leads next must relearn the decree
        // from a follower or never hear of it — never re-execute beside
        // it — and the read must hold every acknowledged write.
        Scenario {
            name: "accept-ahead-power-cut",
            // Confirm rounds, so that a read injected at the leader alone
            // can complete (a retransmission launches the round).
            cfg: base_config()
                .with_read_mode(ReadMode::XPaxos)
                .with_confirm_batching(true),
            script: vec![ClientOp::Write(0), ClientOp::Write(1), ClientOp::Read],
            opts: HarnessOpts {
                crashes: 1,
                recovers: true,
                retransmits: true,
                power_cuts: true,
                ..HarnessOpts::default()
            },
            clock_skew_ms: &[],
            smoke_depth: 7,
        },
    ]
}
