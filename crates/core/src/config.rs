//! Replica group configuration and protocol mode switches.

use crate::types::{Dur, ProcessId};

/// How read requests are coordinated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadMode {
    /// X-Paxos (§3.4): the leader executes the read while collecting
    /// majority confirms in parallel; latency `2M + max(E, m)`.
    XPaxos,
    /// Reads run through a full consensus instance like writes (with a
    /// `StateUpdate::None`); latency `2M + E + 2m`. Used as the ablation
    /// baseline when quantifying X-Paxos's gain.
    Consensus,
    /// Leader leases (an extension beyond the paper): followers ack
    /// heartbeats, and a majority of acks grants the leader the right to
    /// answer reads locally for [`Config::lease_dur`] — latency `2M + E`,
    /// the same as an unreplicated service. Sound only under the timing
    /// assumption that elections start no earlier than `suspect_timeout`
    /// after the last leader sign and clock drift is bounded (exact in
    /// the simulator); reads fall back to consensus when no lease is
    /// held.
    Lease,
    /// Bounded-staleness follower reads (extension): *any* replica answers
    /// reads from its locally applied state with **zero** coordination
    /// messages, provided its applied prefix is within `max_staleness`
    /// decrees of the leader's commit watermark (learned passively from
    /// `Chosen`/heartbeat traffic). Replies are tagged with the decree
    /// index they reflect; the client session enforces monotonic reads and
    /// read-your-writes by rejecting replies older than its per-group read
    /// watermark. Latency for a client near any replica is `2m_local + E`
    /// regardless of where the leader sits — the zero-round WAN read path.
    Follower {
        /// Maximum decrees a serving replica may lag behind the leader's
        /// commit watermark. `0` = serve only when fully caught up.
        max_staleness: u64,
    },
}

impl ReadMode {
    /// Whether this is the bounded-staleness follower-read mode.
    #[must_use]
    pub fn is_follower(self) -> bool {
        matches!(self, ReadMode::Follower { .. })
    }
}

/// How transactional requests are coordinated (the three operation modes
/// measured in §4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnMode {
    /// Every transaction operation is coordinated as it arrives (reads per
    /// [`ReadMode`], writes and commits through consensus). The paper's
    /// "read/write" and "write-only" rows use this mode.
    PerOp,
    /// T-Paxos (§3.5): operations execute on the leader with immediate
    /// replies; replicas coordinate only at commit.
    TPaxos,
}

/// Which value consensus is run on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValueMode {
    /// The paper's protocol for nondeterministic services: decrees carry
    /// `⟨request, resulting state⟩` and backups apply shipped state.
    ReqState,
    /// Classic state-machine replication: decrees carry only the request
    /// and every replica executes it. **Correct only for deterministic
    /// services**; provided as the classic-Paxos baseline.
    ReqOnly,
}

/// Full configuration of one replica.
#[derive(Clone, Debug)]
pub struct Config {
    /// Total number of replicas (`n`). Majority is `n/2 + 1`.
    pub n: usize,
    /// Leader heartbeat period.
    pub heartbeat_interval: Dur,
    /// Follower suspicion timeout: with no sign of the leader for this
    /// long, a follower starts an election. Must be comfortably larger
    /// than `heartbeat_interval` for leader stability (§3.6).
    pub suspect_timeout: Dur,
    /// Leader retransmission timeout for an unacknowledged accept.
    pub retransmit_timeout: Dur,
    /// Base backoff between election attempts; each replica adds
    /// rank-and-jitter so candidates rarely duel.
    pub election_backoff: Dur,
    /// Duration of a read lease ([`ReadMode::Lease`]), measured from the
    /// moment the granting heartbeat was sent. Must not exceed
    /// `suspect_timeout` or the lease could outlive the guarantee that no
    /// new leader is elected.
    pub lease_dur: Dur,
    /// Read coordination mode.
    pub read_mode: ReadMode,
    /// Transaction coordination mode.
    pub txn_mode: TxnMode,
    /// Consensus value contents.
    pub value_mode: ValueMode,
    /// Take a checkpoint (and truncate the log) every this many chosen
    /// instances. `0` disables checkpointing.
    pub checkpoint_every: u64,
    /// Maximum requests the leader packs into one decree (one consensus
    /// instance). `1` disables batching.
    pub max_batch: usize,
    /// How long a loaded leader waits for a batch that does not fill on its
    /// own. A loaded batch closes as soon as every client the last decree
    /// answered has queued again; the window (re-armed while the queue is
    /// below the last batch size) is the fallback for a wave that does not
    /// come back whole. Applied only when the previous decree carried more
    /// than one request, so single-client latency is unaffected.
    /// `Dur::ZERO` disables the window and the wait with it.
    pub batch_window: Dur,
    /// Epoch-batched confirm rounds for [`ReadMode::XPaxos`] (extension):
    /// under read load the leader seals open reads into confirm epochs and
    /// validates each epoch with one `ConfirmReq`/`ConfirmBatch` exchange
    /// per follower instead of one `Confirm` per read, collapsing
    /// O(reads × n) confirm traffic to O(n) per round. A lone read still
    /// completes off the followers' per-read confirms (the round carries a
    /// `backlog` hint and suppression only engages under load), so the
    /// paper's `2M + max(E, m)` single-read latency is preserved. `false`
    /// reproduces the paper's per-read confirm protocol exactly.
    pub confirm_batching: bool,
    /// If set, this replica bootstraps an election immediately at startup
    /// instead of waiting out the suspicion timeout. Used to pre-elect a
    /// stable leader, which is the paper's steady-state assumption
    /// ("the common case is the one of no suspicions and no failures").
    pub bootstrap_leader: Option<ProcessId>,
    /// Target chunk size (bytes) for incremental checkpoints. When
    /// nonzero (and the [`crate::storage::Storage`] supports chunked
    /// checkpoints), a checkpoint freezes the service state and streams it
    /// out in chunks of roughly this size across drive cycles instead of
    /// serializing everything inline — decree choice and transport I/O
    /// never stall for O(state size). Both presets ship 64 KiB; `0`
    /// selects the stop-the-world monolithic checkpoint.
    pub checkpoint_chunk_bytes: usize,
    /// Apply-pipeline worker threads per node (see `crate::apply`). `0`
    /// applies chosen decrees inline on the drive thread (the legacy,
    /// fully deterministic path — required by the model checker). With
    /// `W > 0`, a `MultiReplica` hands each group's state application to a
    /// pool of `W` workers: groups apply in parallel and the drive thread
    /// only blocks when it genuinely needs applied state (reads,
    /// snapshots, tentative execution).
    pub apply_workers: usize,
    /// Geo-aware per-group leader placement (extension): `placement[g]`
    /// is the bootstrap leader for group `g`, overriding the default
    /// round-robin rotation. Computed by the bench harness from
    /// client-weighted RTTs so each shard's leader sits near the clients
    /// that use it. `None` keeps the rotation.
    pub placement: Option<Vec<ProcessId>>,
}

impl Config {
    /// A configuration with timeouts suited to local-cluster latencies
    /// (sub-millisecond RTTs): heartbeat every 10 ms, suspect after 50 ms.
    #[must_use]
    pub fn cluster(n: usize) -> Config {
        Config {
            n,
            heartbeat_interval: Dur::from_millis(10),
            suspect_timeout: Dur::from_millis(50),
            retransmit_timeout: Dur::from_millis(20),
            election_backoff: Dur::from_millis(30),
            lease_dur: Dur::from_millis(25),
            read_mode: ReadMode::XPaxos,
            txn_mode: TxnMode::PerOp,
            value_mode: ValueMode::ReqState,
            checkpoint_every: 512,
            max_batch: 64,
            batch_window: Dur::from_micros(100),
            confirm_batching: true,
            bootstrap_leader: Some(ProcessId(0)),
            checkpoint_chunk_bytes: 64 * 1024,
            apply_workers: 0,
            placement: None,
        }
    }

    /// A configuration with timeouts suited to wide-area latencies
    /// (tens-of-milliseconds RTTs between replicas).
    #[must_use]
    pub fn wan(n: usize) -> Config {
        Config {
            n,
            heartbeat_interval: Dur::from_millis(200),
            suspect_timeout: Dur::from_millis(1000),
            retransmit_timeout: Dur::from_millis(400),
            election_backoff: Dur::from_millis(500),
            lease_dur: Dur::from_millis(500),
            read_mode: ReadMode::XPaxos,
            txn_mode: TxnMode::PerOp,
            value_mode: ValueMode::ReqState,
            checkpoint_every: 1024,
            max_batch: 64,
            batch_window: Dur::from_micros(500),
            confirm_batching: true,
            bootstrap_leader: Some(ProcessId(0)),
            checkpoint_chunk_bytes: 64 * 1024,
            apply_workers: 0,
            placement: None,
        }
    }

    /// Majority size for this group.
    #[must_use]
    pub fn majority(&self) -> usize {
        crate::types::majority(self.n)
    }

    /// Builder-style: set the read mode.
    #[must_use]
    pub fn with_read_mode(mut self, m: ReadMode) -> Config {
        self.read_mode = m;
        self
    }

    /// Builder-style: set the transaction mode.
    #[must_use]
    pub fn with_txn_mode(mut self, m: TxnMode) -> Config {
        self.txn_mode = m;
        self
    }

    /// Builder-style: set the value mode.
    #[must_use]
    pub fn with_value_mode(mut self, m: ValueMode) -> Config {
        self.value_mode = m;
        self
    }

    /// Builder-style: set or clear the bootstrap leader.
    #[must_use]
    pub fn with_bootstrap_leader(mut self, p: Option<ProcessId>) -> Config {
        self.bootstrap_leader = p;
        self
    }

    /// Builder-style: set the checkpoint interval.
    #[must_use]
    pub fn with_checkpoint_every(mut self, k: u64) -> Config {
        self.checkpoint_every = k;
        self
    }

    /// Builder-style: set the maximum decree batch size.
    #[must_use]
    pub fn with_max_batch(mut self, k: usize) -> Config {
        self.max_batch = k.max(1);
        self
    }

    /// Builder-style: enable or disable epoch-batched confirm rounds.
    #[must_use]
    pub fn with_confirm_batching(mut self, on: bool) -> Config {
        self.confirm_batching = on;
        self
    }

    /// Builder-style: set the incremental-checkpoint chunk size (`0` =
    /// legacy monolithic checkpoints).
    #[must_use]
    pub fn with_checkpoint_chunk_bytes(mut self, bytes: usize) -> Config {
        self.checkpoint_chunk_bytes = bytes;
        self
    }

    /// Builder-style: set the apply-pipeline worker count (`0` = inline
    /// apply).
    #[must_use]
    pub fn with_apply_workers(mut self, w: usize) -> Config {
        self.apply_workers = w;
        self
    }

    /// Builder-style: set per-group leader placement (`placement[g]` is
    /// group `g`'s bootstrap leader; groups beyond the vector's length
    /// fall back to the default rotation).
    #[must_use]
    pub fn with_placement(mut self, p: Option<Vec<ProcessId>>) -> Config {
        self.placement = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let c = Config::cluster(3);
        assert_eq!(c.majority(), 2);
        assert!(c.suspect_timeout > c.heartbeat_interval);
        assert_eq!(c.bootstrap_leader, Some(ProcessId(0)));

        let w = Config::wan(5);
        assert_eq!(w.majority(), 3);
        assert!(w.suspect_timeout > w.heartbeat_interval);
    }

    /// The presets are what `gridpaxos-server` runs: it overrides neither
    /// knob.
    #[test]
    fn presets_ship_chunked_checkpoints_and_inline_apply() {
        for c in [Config::cluster(3), Config::wan(3)] {
            assert_eq!(c.checkpoint_chunk_bytes, 64 * 1024);
            assert_eq!(c.apply_workers, 0);
        }
    }

    #[test]
    fn builders_override() {
        let c = Config::cluster(3)
            .with_read_mode(ReadMode::Consensus)
            .with_txn_mode(TxnMode::TPaxos)
            .with_value_mode(ValueMode::ReqOnly)
            .with_bootstrap_leader(None)
            .with_checkpoint_every(16)
            .with_confirm_batching(false)
            .with_checkpoint_chunk_bytes(1 << 16)
            .with_apply_workers(4);
        assert!(!c.confirm_batching);
        assert_eq!(c.checkpoint_chunk_bytes, 1 << 16);
        assert_eq!(c.apply_workers, 4);
        assert_eq!(c.read_mode, ReadMode::Consensus);
        assert_eq!(c.txn_mode, TxnMode::TPaxos);
        assert_eq!(c.value_mode, ValueMode::ReqOnly);
        assert_eq!(c.bootstrap_leader, None);
        assert_eq!(c.checkpoint_every, 16);
    }

    #[test]
    fn follower_mode_and_placement() {
        let c = Config::cluster(3)
            .with_read_mode(ReadMode::Follower { max_staleness: 8 })
            .with_placement(Some(vec![ProcessId(2), ProcessId(0)]));
        assert!(c.read_mode.is_follower());
        assert!(!ReadMode::Lease.is_follower());
        assert_eq!(
            c.placement,
            Some(vec![ProcessId(2), ProcessId(0)]),
            "placement override survives the builder"
        );
        assert_eq!(Config::cluster(3).placement, None);
    }
}
