//! The replica: one sans-io state machine combining every role.
//!
//! A replica is simultaneously an *acceptor* (promise/accept bookkeeping on
//! stable storage), a *learner* (applying chosen decrees to the service in
//! instance order) and — at most one at a time — a *leader* or *candidate*.
//! All I/O is expressed as returned [`Action`]s; all time is passed in.
//!
//! The module is split by role: this file holds the shared state, message
//! dispatch, acceptor duties, the apply pipeline and step-down;
//! `leader`-role logic (proposals, T-Paxos transactions) lives in
//! `leader.rs`; election and takeover live in `candidate.rs`. Those three
//! files *order*: they decide which decree is chosen where. `stable.rs`
//! owns the storage and says when a durability barrier is due; `exec.rs`
//! owns the service — app, dedup table, the leader's tentative window, the
//! checkpoint freeze — and is handed chosen decrees, batches to execute
//! ahead of consensus, and their abandonment; `reads.rs` owns the reads
//! that skip consensus — confirms, confirm rounds, leases, follower reads
//! — and the one rule for when such a read may be answered. A [`Replica`]
//! is `Stable` + `Executor` + `Reads` + [`ReplicaLog`] + [`Role`].

mod candidate;
mod exec;
mod leader;
pub(crate) mod reads;
mod stable;

pub use candidate::CandidateState;
use exec::{Due, Executor};
pub use leader::{LeaderState, TxnSession};
use reads::Reads;
use stable::Stable;

use crate::action::{Action, TimerKind};
use crate::ballot::Ballot;
use crate::command::{Decree, DedupEntry, SnapshotBlob};
use crate::config::Config;
use crate::election::{ElectionPacer, FailureDetector};
use crate::log::{ReplicaLog, LOG_BYTES_FLOOR};
use crate::msg::Msg;
use crate::request::Reply;
use crate::service::App;
use crate::storage::{ChunkedCheckpoint, DurableState, Storage};
use crate::types::{Addr, ClientId, Dur, Instance, ProcessId, Time, TxnId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};

/// The role a replica currently plays.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one Role per replica; size is irrelevant
pub enum Role {
    /// Passive: accepts, learns, confirms reads, watches the leader.
    Follower,
    /// Running the prepare phase of an election.
    Candidate(CandidateState),
    /// Sequencing client requests.
    Leader(LeaderState),
}

impl Role {
    /// Short name for traces.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Role::Follower => "follower",
            Role::Candidate(_) => "candidate",
            Role::Leader(_) => "leader",
        }
    }
}

/// Protocol-relevant snapshot of a replica's control state, produced by
/// [`Replica::checker_view`] for the model checker (`crates/check`).
#[derive(Clone, Debug)]
pub struct CheckerView {
    /// Role name: `"follower"`, `"candidate"` or `"leader"`.
    pub role: &'static str,
    /// Highest ballot this replica has promised.
    pub promised: crate::ballot::Ballot,
    /// Instances `< chosen_prefix` are contiguously chosen.
    pub chosen_prefix: Instance,
    /// Leader only: the next instance it would assign.
    pub next_instance: Option<Instance>,
    /// Leader only: no Accept batch in flight and no recovery outstanding.
    pub quiescent: bool,
    /// Leader only: open (uncommitted) T-Paxos sessions.
    pub open_txns: usize,
    /// Whether a leader-side tentative execution is pending (§3.3: the
    /// leader executes before the decree is chosen).
    pub tentative_exec: bool,
}

/// Sorted copy of a hash-set's contents, so fingerprints don't depend on
/// iteration order.
fn sorted<T: Ord + Copy>(set: &std::collections::HashSet<T>) -> Vec<T> {
    let mut v: Vec<T> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// Observable counters, used by tests and the benchmark harness.
#[derive(Clone, Debug, Default)]
pub struct ReplicaStats {
    /// Consensus instances this replica committed as leader.
    pub commits_led: u64,
    /// Reads answered via the X-Paxos fast path.
    pub xpaxos_reads: u64,
    /// Of those, reads validated by an epoch-confirm round rather than
    /// per-read confirm votes (extension).
    pub batched_reads: u64,
    /// Epoch-confirm rounds launched as leader (extension).
    pub confirm_rounds: u64,
    /// Reads answered locally under a leader lease (extension).
    pub lease_reads: u64,
    /// Reads answered through full consensus.
    pub consensus_reads: u64,
    /// "Original" (uncoordinated) requests answered.
    pub originals: u64,
    /// Elections started by this replica.
    pub elections_started: u64,
    /// Times this replica won an election.
    pub elections_won: u64,
    /// Times this replica stepped down from leader/candidate.
    pub step_downs: u64,
    /// Decrees applied to the local service.
    pub applied: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Checkpoints begun because the retained log bytes outweighed the
    /// image, before `checkpoint_every` instances had passed.
    pub checkpoints_by_bytes: u64,
    /// Payload bytes the log retains now ([`ReplicaLog::bytes`]).
    pub log_bytes: u64,
    /// Total bytes written across all checkpoints.
    pub checkpoint_bytes: u64,
    /// Total chunks emitted across all checkpoints.
    pub checkpoint_chunks: u64,
    /// Size of the most recent checkpoint, in bytes.
    pub last_checkpoint_bytes: u64,
    /// Chunk count of the most recent checkpoint.
    pub last_checkpoint_chunks: u64,
    /// Wall time from freeze to commit of the most recent checkpoint (as
    /// observed via the drive clock; zero when taken inline).
    pub last_checkpoint_dur: Dur,
    /// Catch-up requests served.
    pub catchups_served: u64,
    /// T-Paxos transactions committed by this replica as leader.
    pub txns_committed: u64,
    /// Transactions aborted (any reason) by this replica as leader.
    pub txns_aborted: u64,
    /// Reads served locally from applied state in follower-read mode
    /// (extension), leader included.
    pub follower_reads: u64,
    /// Sum over served follower reads of the staleness at serve time
    /// (decrees behind the leader's commit watermark); the mean is
    /// `follower_read_staleness / follower_reads`.
    pub follower_read_staleness: u64,
    /// Highest single-read staleness served (decrees); must stay within
    /// the configured bound.
    pub follower_read_staleness_max: u64,
    /// Follower-read attempts refused — over the staleness bound or no
    /// leader view yet. The client's broadcast/retry reaches the leader,
    /// which always serves.
    pub follower_read_rejects: u64,
}

/// Reassembly buffer for a chunked snapshot transfer
/// ([`Msg::CatchUpChunk`]). Keyed by `upto`: chunks for a different
/// snapshot reset the buffer (the newer transfer supersedes).
struct CatchUpBuf {
    upto: Instance,
    dedup: Vec<DedupEntry>,
    chunks: Vec<Option<bytes::Bytes>>,
}

/// `app` in pieces of at most `size` bytes, sliced, not copied. At least
/// one piece, so an empty image still streams.
fn cut(app: &bytes::Bytes, size: usize) -> Vec<bytes::Bytes> {
    let n = app.len().div_ceil(size).max(1);
    let end = |i: usize| app.len().min((i + 1) * size);
    (0..n).map(|i| app.slice(i * size..end(i))).collect()
}

/// A recovered incarnation draws from a random stream of its own.
const RECOVERED: u64 = 0x5eed;

/// A replicated-service process.
pub struct Replica {
    pub(crate) id: ProcessId,
    pub(crate) cfg: Config,
    pub(crate) exec: Executor,
    pub(crate) stable: Stable,
    pub(crate) rng: SmallRng,
    /// Highest ballot promised; never accept or promise below it.
    pub(crate) promised: Ballot,
    /// Highest ballot observed anywhere (for outbidding).
    pub(crate) max_ballot_seen: Ballot,
    pub(crate) log: ReplicaLog,
    pub(crate) fd: FailureDetector,
    pub(crate) pacer: ElectionPacer,
    pub(crate) role: Role,
    /// Chunked catch-up reassembly buffer.
    catchup_buf: Option<CatchUpBuf>,
    /// Drive-loop clock: the `now` of the most recent entry point. Only
    /// used for observability (checkpoint durations) — never for protocol
    /// decisions — and excluded from [`Replica::fingerprint`].
    clock: Time,
    /// Last catch-up request we sent: `(our prefix then, when)`. Suppresses
    /// duplicates while one is outstanding, but ages out after a
    /// retransmission timeout so a lost request or response is retried.
    pub(crate) catchup_requested_at: Option<(Instance, Time)>,
    /// Reads that skip consensus: what validates one, on both sides.
    pub(crate) reads: Reads,
    /// Observability counters.
    pub stats: ReplicaStats,
}

impl Replica {
    /// Create a fresh replica (empty log and service).
    ///
    /// # Panics
    /// If `cfg.checkpoint_chunk_bytes` is zero: every checkpoint streams
    /// in chunks.
    #[must_use]
    pub fn new(
        id: ProcessId,
        cfg: Config,
        app: Box<dyn App>,
        storage: Box<dyn Storage>,
        seed: u64,
        now: Time,
    ) -> Replica {
        assert!(
            cfg.checkpoint_chunk_bytes > 0,
            "checkpoint_chunk_bytes must be nonzero"
        );
        Replica {
            id,
            exec: Executor::new(app, cfg.value_mode),
            stable: Stable::new(storage),
            rng: SmallRng::seed_from_u64(seed ^ (u64::from(id.0) << 32)),
            promised: Ballot::ZERO,
            max_ballot_seen: Ballot::ZERO,
            log: ReplicaLog::new(),
            fd: FailureDetector::new(cfg.suspect_timeout, now),
            pacer: ElectionPacer::new(cfg.election_backoff, id.0),
            role: Role::Follower,
            catchup_buf: None,
            clock: now,
            catchup_requested_at: None,
            reads: Reads::default(),
            stats: ReplicaStats::default(),
            cfg,
        }
    }

    /// Open a replica over `storage`, whatever it holds: fresh storage
    /// gives [`Replica::new`], storage with prior state is recovered as by
    /// [`Replica::recover`]. Loads the durable state once.
    #[must_use]
    pub fn open(
        id: ProcessId,
        cfg: Config,
        app: Box<dyn App>,
        storage: Box<dyn Storage>,
        seed: u64,
        now: Time,
    ) -> Replica {
        let durable = storage.load();
        if durable.is_empty() {
            Replica::new(id, cfg, app, storage, seed, now)
        } else {
            Replica::new(id, cfg, app, storage, seed ^ RECOVERED, now).replay(&durable)
        }
    }

    /// Recover a replica after a crash: reload durable state, restore the
    /// service from the last checkpoint and re-apply logged chosen decrees.
    #[must_use]
    pub fn recover(
        id: ProcessId,
        cfg: Config,
        app: Box<dyn App>,
        storage: Box<dyn Storage>,
        seed: u64,
        now: Time,
    ) -> Replica {
        let durable = storage.load();
        Replica::new(id, cfg, app, storage, seed ^ RECOVERED, now).replay(&durable)
    }

    /// Bring a fresh replica to what its storage held.
    fn replay(mut self, durable: &DurableState) -> Replica {
        self.stable.seed(durable);
        self.promised = durable.promised;
        self.max_ballot_seen = durable.promised;
        self.log = ReplicaLog::from_durable(durable);
        let mut replayed = Instance::ZERO;
        if let Some(ckpt) = &durable.checkpoint {
            self.exec.install(ckpt);
            replayed = ckpt.upto;
        }

        // Re-apply chosen decrees between the checkpoint and the durable
        // chosen prefix. They are in the log (truncation only happens at
        // checkpoints) and are guaranteed to be the chosen values (the
        // prefix is persisted only after applying).
        while replayed < self.log.chosen_prefix() {
            replayed = replayed.next();
            let Some((_, decree)) = self.log.get(replayed) else {
                // Storage invariant: the WAL retains every entry above the
                // last checkpoint (truncation only happens at checkpoints,
                // and the chosen prefix is persisted only after the entry
                // is). A hole here means the durable state is corrupt, and
                // resuming from it would silently fork the replica's state
                // — halt instead (crash-stop model).
                panic!("recover: durable log is missing instance {replayed:?} inside (checkpoint, chosen_prefix]");
            };
            self.stats.applied += 1;
            self.exec.chosen(decree, &mut self.rng);
        }
        self.stats.log_bytes = self.log.bytes();
        self
    }

    // ------------------------------------------------------------------
    // Accessors (tests, harness)
    // ------------------------------------------------------------------

    /// This replica's id.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The replica's configuration.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Current role.
    #[must_use]
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// Whether this replica currently leads.
    #[must_use]
    pub fn is_leader(&self) -> bool {
        matches!(self.role, Role::Leader(_))
    }

    /// Whether a checkpoint is streaming: the executor's image is frozen
    /// and [`pump_checkpoint`](Replica::pump_checkpoint) has chunks left.
    #[must_use]
    pub fn checkpointing(&self) -> bool {
        self.exec.frozen()
    }

    /// Highest promised ballot.
    #[must_use]
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// Contiguous chosen-and-applied prefix.
    #[must_use]
    pub fn chosen_prefix(&self) -> Instance {
        self.log.chosen_prefix()
    }

    /// Snapshot of the service state (for consistency assertions).
    #[must_use]
    pub fn service_snapshot(&self) -> bytes::Bytes {
        self.exec.state()
    }

    /// The replica's view of who leads (the proposer of the ballot it
    /// follows), if any leadership was ever observed.
    #[must_use]
    pub fn leader_hint(&self) -> Option<ProcessId> {
        let b = self.fd.leader_ballot().max(self.promised);
        if b.is_zero() {
            None
        } else {
            Some(b.proposer)
        }
    }

    /// Number of log entries currently retained.
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The command log, for tests that look at the decrees themselves.
    #[must_use]
    pub fn log(&self) -> &ReplicaLog {
        &self.log
    }

    /// Consume the replica (a crash) and keep only what survives: the
    /// stable storage. A later [`Replica::recover`] resumes from it.
    #[must_use]
    pub fn into_storage(self) -> Box<dyn Storage> {
        self.stable.into_inner()
    }

    /// Durability barrier ([`Storage::flush`]), if a handler wrote a
    /// record a message may acknowledge since the last one: everything
    /// the handlers persisted so far is on stable storage when this
    /// returns. When [`Replica::barrier_due`] says so, it must complete
    /// before any message those handlers produced is transmitted, except
    /// the ones [`Msg::precedes_barrier`] lets go first (`Accept`: the
    /// sync then runs beside the followers' round trip), and before this
    /// replica's next handler runs — persist-before-send at batch
    /// granularity (§3.1/§3.3). [`crate::outbox::release`] is its one
    /// caller; a drive loop outside this crate cannot call it.
    pub(crate) fn barrier(&mut self) {
        if self.stable.raised() {
            self.stable.flush();
        }
    }

    /// Whether a [`Replica::barrier`] is due: storage holds an unflushed
    /// record that an outgoing message may acknowledge (a promise, an
    /// accepted decree, an installed snapshot). Chosen-prefix marks and
    /// periodic checkpoints alone do not count — no message acknowledges
    /// one, and they ride the next barrier.
    pub(crate) fn barrier_due(&self) -> bool {
        self.stable.barrier_due()
    }

    /// [`Replica::barrier`] under its old name, which
    /// `benchmark/src/shuttle.rs` still calls.
    #[doc(hidden)]
    #[deprecated(note = "the barrier is `outbox::release`'s; delete in ROADMAP item 1")]
    pub fn flush_storage(&mut self) {
        self.barrier();
    }

    /// [`Replica::barrier_due`] under its old name, which
    /// `benchmark/src/shuttle.rs` still calls.
    #[doc(hidden)]
    #[deprecated(note = "the barrier is `outbox::release`'s; delete in ROADMAP item 1")]
    #[must_use]
    pub fn storage_dirty(&self) -> bool {
        self.barrier_due()
    }

    /// The last call of a drive loop that stops cleanly. Runs the barrier,
    /// so no chosen-prefix mark waits for one that will never come, and
    /// abandons a decree still in flight: the replica handed back holds
    /// the state of its chosen prefix — what a restart would rebuild from
    /// storage, and what every replica at that prefix holds (§3.3).
    pub fn stop(&mut self) {
        self.stable.flush();
        self.exec.abandon();
    }

    // ------------------------------------------------------------------
    // Checker hooks (`crates/check`): inspection and state fingerprinting
    // ------------------------------------------------------------------

    /// Protocol-relevant summary of this replica's control state, consumed
    /// by the model checker's invariant assertions.
    #[must_use]
    pub fn checker_view(&self) -> CheckerView {
        let (next_instance, quiescent, open_txns) = match &self.role {
            Role::Leader(l) => (Some(l.next_instance), self.quiescent(), l.txns.len()),
            Role::Follower | Role::Candidate(_) => (None, false, 0),
        };
        CheckerView {
            role: self.role.name(),
            promised: self.promised,
            chosen_prefix: self.log.chosen_prefix(),
            next_instance,
            quiescent,
            open_txns,
            tentative_exec: self.exec.window_open(),
        }
    }

    /// Digest of every retained log entry this replica knows *chosen*, as
    /// `(instance, decree digest)` pairs in instance order. Two replicas
    /// that decided different decrees for the same instance produce
    /// different digests — the checker's agreement assertion (§3.3).
    #[must_use]
    pub fn chosen_digests(&self) -> Vec<(Instance, u64)> {
        self.log
            .iter_accepted()
            .filter(|(i, _)| self.log.is_known_chosen(*i))
            .map(|(i, (_, d))| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                d.hash(&mut h);
                (i, h.finish())
            })
            .collect()
    }

    /// Order-independent fingerprint of the replica's complete protocol
    /// state, for the model checker's visited-set pruning.
    ///
    /// Deliberate abstractions: raw timestamps (`fd` deadlines, read
    /// arrival times, lease expiries) and the RNG position are excluded —
    /// the checker explores timer firings as nondeterministic events, so
    /// two states differing only in clock or jitter values are equivalent
    /// under its transition relation. Everything that determines message
    /// handling is included.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.id.hash(&mut h);
        self.promised.hash(&mut h);
        self.max_ballot_seen.hash(&mut h);
        // Confirms, rounds, lease, the leader's watermark.
        self.reads.fingerprint(&mut h);
        // Service state, dedup table, tentative window, checkpoint freeze.
        self.exec.fingerprint(&mut h);
        // Chunked catch-up progress.
        if let Some(buf) = &self.catchup_buf {
            buf.upto.hash(&mut h);
            buf.dedup.hash(&mut h);
            buf.chunks.hash(&mut h);
        }
        self.fd.leader_ballot().hash(&mut h);
        // Log: prefix, retained entries, out-of-order chosen marks.
        self.log.chosen_prefix().hash(&mut h);
        for (i, (b, d)) in self.log.iter_accepted() {
            (i, b, d).hash(&mut h);
        }
        self.log.known_above().hash(&mut h);
        // Role internals.
        match &self.role {
            Role::Follower => 0u8.hash(&mut h),
            Role::Candidate(c) => {
                1u8.hash(&mut h);
                c.ballot.hash(&mut h);
                let mut promises: Vec<_> = c.promises.iter().collect();
                promises.sort_unstable_by_key(|(p, _)| **p);
                for (p, info) in promises {
                    p.hash(&mut h);
                    info.accepted.hash(&mut h);
                    info.snapshot.hash(&mut h);
                }
            }
            Role::Leader(l) => {
                2u8.hash(&mut h);
                l.ballot.hash(&mut h);
                l.next_instance.hash(&mut h);
                l.queue.hash(&mut h);
                if let Some(inf) = &l.inflight {
                    inf.instance.hash(&mut h);
                    sorted(&inf.acks).hash(&mut h);
                } else {
                    u64::MAX.hash(&mut h);
                }
                if let Some(rec) = &l.recovery {
                    rec.pending.hash(&mut h);
                    let mut acks: Vec<_> = rec.acks.iter().collect();
                    acks.sort_unstable_by_key(|(i, _)| **i);
                    for (i, set) in acks {
                        (i, sorted(set)).hash(&mut h);
                    }
                }
                let mut txns: Vec<_> = l.txns.iter().collect();
                txns.sort_unstable_by_key(|(k, _)| **k);
                for (k, sess) in txns {
                    (k, &sess.ops).hash(&mut h);
                }
                let mut committing: Vec<_> = l.committing.iter().collect();
                committing.sort_unstable_by_key(|(id, _)| **id);
                for (id, (k, sess)) in committing {
                    (id, k, &sess.ops).hash(&mut h);
                }
                (l.last_batch, l.window_armed, l.window_rearms, &l.wave).hash(&mut h);
            }
        }
        h.finish()
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Called once when the process starts (fresh or recovered).
    pub fn on_start(&mut self, now: Time) -> Vec<Action> {
        let mut out = Vec::new();
        // Everyone watches for a leader. Jitter the first check so
        // leaderless bootstraps don't produce simultaneous candidacies.
        let jitter = Dur(self.rng.gen_range(0..=self.cfg.election_backoff.0));
        out.push(Action::timer(
            TimerKind::LeaderCheck,
            self.cfg.suspect_timeout + jitter,
        ));
        if self.cfg.bootstrap_leader == Some(self.id) {
            self.start_election(now, &mut out);
        }
        out
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, from: Addr, msg: Msg, now: Time) -> Vec<Action> {
        self.clock = self.clock.max(now);
        let mut out = Vec::new();
        match msg {
            Msg::Request(req) if self.is_leader() => self.leader_handle_request(req, now, &mut out),
            // Off the lead a read may be served or confirmed; everything
            // else is dropped unanswered. A broadcast copy also reached the
            // leader; a copy unicast here on a stale hint waits for the
            // client's retry.
            Msg::Request(req) => self.follower_sees_request(&req, now, &mut out),
            Msg::Prepare {
                ballot,
                chosen_prefix,
                known_above,
            } => self.handle_prepare(from, ballot, chosen_prefix, &known_above, now, &mut out),
            Msg::Promise {
                ballot,
                chosen_prefix,
                accepted,
                snapshot,
            } => self.handle_promise(
                from,
                ballot,
                chosen_prefix,
                accepted,
                snapshot,
                now,
                &mut out,
            ),
            Msg::PrepareNack { ballot, promised } => {
                self.handle_prepare_nack(ballot, promised, now, &mut out)
            }
            Msg::Accept { ballot, entries } => {
                self.handle_accept(from, ballot, entries, now, &mut out)
            }
            Msg::Accepted { ballot, instances } => {
                self.handle_accepted(from, ballot, &instances, now, &mut out)
            }
            Msg::AcceptNack { promised, .. } => {
                self.note_ballot(promised);
                if self.leading_ballot().is_some_and(|b| b < promised) {
                    self.step_down(promised, now, &mut out);
                }
            }
            Msg::Chosen { ballot, upto } => self.handle_chosen(ballot, upto, now, &mut out),
            Msg::Confirm { ballot, read } => self.handle_confirm(from, ballot, read, now, &mut out),
            Msg::ConfirmReq {
                ballot,
                epoch,
                backlog,
            } => self.handle_confirm_req(ballot, epoch, backlog, now, &mut out),
            Msg::ConfirmBatch { ballot, epoch } => {
                self.handle_confirm_batch(from, ballot, epoch, now, &mut out)
            }
            Msg::Heartbeat {
                ballot,
                chosen,
                hb_seq,
            } => {
                self.handle_chosen(ballot, chosen, now, &mut out);
                self.grant_lease_vote(ballot, hb_seq, &mut out);
            }
            Msg::HeartbeatAck { ballot, hb_seq } => self.handle_heartbeat_ack(from, ballot, hb_seq),
            Msg::CatchUpReq { have } => self.handle_catchup_req(from, have, &mut out),
            Msg::CatchUp { ballot, entries } => self.handle_catchup(ballot, entries, now, &mut out),
            Msg::CatchUpChunk {
                ballot,
                upto,
                seq,
                total,
                dedup,
                data,
            } => self.handle_catchup_chunk(ballot, upto, seq, total, dedup, data, now, &mut out),
            Msg::Reply(_) => {} // replicas never receive replies
            // A bare replica is a single-group deployment; the envelope can
            // only mean group 0, so unwrap it. Multi-group routing happens
            // one layer up, in [`crate::multi::MultiReplica`].
            Msg::Grouped { inner, .. } => return self.on_message(from, *inner, now),
        }
        self.stats.log_bytes = self.log.bytes();
        out
    }

    /// Handle a timer firing.
    pub fn on_timer(&mut self, kind: TimerKind, now: Time) -> Vec<Action> {
        self.clock = self.clock.max(now);
        // Timers double as a progress guarantee for incremental
        // checkpoints on otherwise-idle replicas.
        self.pump_checkpoint(1);
        let mut out = Vec::new();
        match kind {
            TimerKind::LeaderCheck => {
                if matches!(self.role, Role::Follower) && self.fd.suspects(now) {
                    self.start_election(now, &mut out);
                    out.push(Action::timer(
                        TimerKind::LeaderCheck,
                        self.cfg.suspect_timeout,
                    ));
                } else {
                    let next = match self.role {
                        Role::Follower => self.fd.next_check(now).max(Dur(1)),
                        Role::Candidate(_) | Role::Leader(_) => self.cfg.suspect_timeout,
                    };
                    out.push(Action::timer(TimerKind::LeaderCheck, next));
                }
            }
            TimerKind::Heartbeat => self.on_heartbeat_timer(now, &mut out),
            TimerKind::Retransmit => self.on_retransmit_timer(now, &mut out),
            TimerKind::Election => self.on_election_timer(now, &mut out),
            TimerKind::BatchWindow => self.on_batch_window_timer(now, &mut out),
            TimerKind::ClientRetry => {} // client-only timer
        }
        self.stats.log_bytes = self.log.bytes();
        out
    }

    // ------------------------------------------------------------------
    // Acceptor duties
    // ------------------------------------------------------------------

    pub(crate) fn note_ballot(&mut self, b: Ballot) {
        if b > self.max_ballot_seen {
            self.max_ballot_seen = b;
        }
    }

    /// The ballot under which this replica is leading or campaigning.
    pub(crate) fn leading_ballot(&self) -> Option<Ballot> {
        match &self.role {
            Role::Leader(l) => Some(l.ballot),
            Role::Candidate(c) => Some(c.ballot),
            Role::Follower => None,
        }
    }

    /// The one rule for a message a leader (or candidate) sent under
    /// `ballot`: `Prepare`, `Accept`, `Chosen`/`Heartbeat`, `ConfirmReq`,
    /// `CatchUp`, `CatchUpChunk`. Below our promise it is stale (`false`).
    /// Otherwise we yield before the handler records, installs or applies
    /// anything: step down if we lead or campaign under a lower ballot,
    /// adopt a higher one as our promise — a leadership whose prepare we
    /// missed was promised by a majority, so following it is safe — and
    /// tell the failure detector its sender is alive.
    fn defer_to(&mut self, ballot: Ballot, now: Time, out: &mut Vec<Action>) -> bool {
        self.note_ballot(ballot);
        if ballot < self.promised {
            return false;
        }
        if self.leading_ballot().is_some_and(|b| b < ballot) {
            self.step_down(ballot, now, out);
        }
        if ballot > self.promised {
            self.promised = ballot;
            self.stable.promise(ballot);
            self.reads.promised_anew();
        }
        self.fd.observe(ballot, now);
        true
    }

    fn handle_prepare(
        &mut self,
        from: Addr,
        ballot: Ballot,
        cand_prefix: Instance,
        known_above: &[Instance],
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if !self.defer_to(ballot, now, out) {
            out.push(Action::send(
                from,
                Msg::PrepareNack {
                    ballot,
                    promised: self.promised,
                },
            ));
            return;
        }
        let my_prefix = self.log.chosen_prefix();
        // (No window is open here: a replica that promises does not lead.)
        let snapshot = (my_prefix > cand_prefix).then(|| self.exec.snapshot(my_prefix));
        let floor = my_prefix.max(cand_prefix);
        let accepted = self.log.entries_above(floor, known_above);
        out.push(Action::send(
            from,
            Msg::Promise {
                ballot,
                chosen_prefix: my_prefix,
                accepted,
                snapshot,
            },
        ));
    }

    fn handle_accept(
        &mut self,
        from: Addr,
        ballot: Ballot,
        entries: Vec<(Instance, Decree)>,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if !self.defer_to(ballot, now, out) {
            out.push(Action::send(
                from,
                Msg::AcceptNack {
                    ballot,
                    promised: self.promised,
                },
            ));
            return;
        }

        let mut acked = Vec::with_capacity(entries.len());
        for (i, d) in entries {
            if i > self.log.chosen_prefix() {
                self.stable.accept(i, ballot, &d);
                self.log.record_accept(i, ballot, d);
            }
            // Instances at or below the prefix were already applied; the
            // acceptance is vacuously satisfied, so still acknowledge.
            acked.push(i);
        }
        out.push(Action::send(
            from,
            Msg::Accepted {
                ballot,
                instances: acked,
            },
        ));
    }

    /// Shared handler for `Chosen` and `Heartbeat`: both certify that every
    /// instance `<= upto` proposed under `ballot` is chosen.
    fn handle_chosen(&mut self, ballot: Ballot, upto: Instance, now: Time, out: &mut Vec<Action>) {
        if !self.defer_to(ballot, now, out) {
            return;
        }
        // Learn the leader's commit watermark (follower-read extension):
        // `upto` is the certifying leader's chosen prefix at send time.
        self.reads.learn_commit(upto);
        if self.leading_ballot() == Some(ballot) {
            return; // our own leadership; we track commits directly
        }

        // Mark chosen every instance we hold the matching-ballot entry for.
        // An entry accepted under a *different* ballot is not necessarily
        // the chosen value, so it requires catch-up instead.
        let mut need_catchup = false;
        let mut i = self.log.chosen_prefix().next();
        while i <= upto {
            if !self.log.is_known_chosen(i) {
                match self.log.get(i) {
                    Some((b, _)) if *b == ballot => self.log.mark_chosen(i),
                    _ => need_catchup = true,
                }
            }
            i = i.next();
        }
        self.drain_apply(now, out);

        if need_catchup || self.log.chosen_prefix() < upto {
            let have = self.log.chosen_prefix();
            // Suppress duplicates while a request for this prefix is out,
            // but retry once the previous one has plausibly been lost.
            let fresh = matches!(
                self.catchup_requested_at,
                Some((h, t)) if h == have
                    && now.since(t) < self.cfg.retransmit_timeout
            );
            if !fresh {
                self.catchup_requested_at = Some((have, now));
                out.push(Action::send(
                    Addr::Replica(ballot.proposer),
                    Msg::CatchUpReq { have },
                ));
            }
        }
    }

    fn handle_catchup_req(&mut self, from: Addr, have: Instance, out: &mut Vec<Action>) {
        let Role::Leader(l) = &self.role else {
            return; // only the leader serves catch-up
        };
        let ballot = l.ballot;
        let upto = self.log.chosen_prefix();
        if upto <= have {
            return;
        }
        // Decrees from the log go out [`LOG_BYTES_FLOOR`] at a time — a
        // frame the transports carry whatever the values weigh; the
        // requester asks for the rest when the next heartbeat shows it
        // still behind.
        let entries = match self.log.chosen_range(have, upto, LOG_BYTES_FLOOR) {
            Some(entries) => entries,
            None => {
                // The log no longer reaches back to `have`: the image that
                // replaced it goes first, as the refcounted chunks it is
                // stored in, then the log above it. A log is truncated only
                // behind a committed image, so one covers `have`.
                let image = self.stable.get().checkpoint_chunks();
                let Some(ck) = image.filter(|ck| ck.upto > have) else {
                    return;
                };
                let total = u32::try_from(ck.chunks.len()).unwrap_or(u32::MAX);
                for (i, data) in ck.chunks.iter().enumerate() {
                    out.push(Action::send(
                        from,
                        Msg::CatchUpChunk {
                            ballot,
                            upto: ck.upto,
                            seq: i as u32,
                            total,
                            dedup: if i == 0 { ck.dedup.clone() } else { Vec::new() },
                            data: data.clone(),
                        },
                    ));
                }
                let entries = self.log.chosen_range(ck.upto, upto, LOG_BYTES_FLOOR);
                entries.unwrap_or_default()
            }
        };
        self.stats.catchups_served += 1;
        out.push(Action::send(from, Msg::CatchUp { ballot, entries }));
    }

    /// Receive one chunk of a chunked snapshot transfer. Chunks are
    /// buffered per `upto`; once all `total` arrive, the image installs,
    /// and the chunks as received are what the disk stores.
    #[allow(clippy::too_many_arguments)]
    fn handle_catchup_chunk(
        &mut self,
        ballot: Ballot,
        upto: Instance,
        seq: u32,
        total: u32,
        dedup: Vec<DedupEntry>,
        data: bytes::Bytes,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        /// Defensive bound on the reassembly buffer (chunk slots); a
        /// hostile or corrupt `total` must not drive a huge allocation.
        const MAX_CHUNKS: u32 = 1 << 16;
        if !self.defer_to(ballot, now, out) {
            return;
        }
        if total == 0 || total > MAX_CHUNKS || seq >= total {
            return;
        }
        if upto <= self.log.chosen_prefix() {
            // Already caught up past this snapshot; drop the transfer.
            self.catchup_buf = None;
            return;
        }
        let stale = !matches!(
            &self.catchup_buf,
            Some(b) if b.upto == upto && b.chunks.len() == total as usize
        );
        if stale {
            self.catchup_buf = Some(CatchUpBuf {
                upto,
                dedup: Vec::new(),
                chunks: vec![None; total as usize],
            });
        }
        let Some(buf) = self.catchup_buf.as_mut() else {
            return;
        };
        if seq == 0 {
            buf.dedup = dedup;
        }
        buf.chunks[seq as usize] = Some(data);
        if !buf.chunks.iter().all(Option::is_some) {
            return;
        }
        let Some(buf) = self.catchup_buf.take() else {
            return;
        };
        let image = ChunkedCheckpoint {
            upto: buf.upto,
            dedup: buf.dedup,
            chunks: buf.chunks.into_iter().flatten().collect(),
        };
        self.catchup_requested_at = None;
        if image.upto > self.log.chosen_prefix() {
            self.install_snapshot(&image.assemble(), image.chunks);
        }
        self.drain_apply(now, out);
    }

    fn handle_catchup(
        &mut self,
        ballot: Ballot,
        entries: Vec<(Instance, Decree)>,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        if !self.defer_to(ballot, now, out) {
            return;
        }
        self.catchup_requested_at = None;
        for (i, d) in entries {
            if i > self.log.chosen_prefix() && !self.log.is_known_chosen(i) {
                self.stable.accept(i, ballot, &d);
                self.log.record_accept(i, ballot, d);
                self.log.mark_chosen(i);
            }
        }
        self.drain_apply(now, out);
    }

    // ------------------------------------------------------------------
    // Learner: the apply pipeline
    // ------------------------------------------------------------------

    /// Apply every contiguously-chosen decree to the service, advancing the
    /// prefix, persisting it, replying to clients (leader only) and taking
    /// checkpoints.
    pub(crate) fn drain_apply(&mut self, now: Time, out: &mut Vec<Action>) {
        while let Some((i, d)) = self.log.next_applicable() {
            let decree = d.clone();
            self.stats.applied += 1;
            self.exec.chosen(&decree, &mut self.rng);
            self.log.advance_applied(i);
            self.stable.mark_chosen(i);

            // Only the leader replies (and a re-elected leader re-replies
            // for recovered decrees whose clients may still be waiting).
            if matches!(self.role, Role::Leader(_)) {
                for entry in decree.entries.iter() {
                    if let Some(rid) = entry.cmd.request_id() {
                        out.push(Action::send(
                            Addr::Client(rid.client),
                            Msg::Reply(Reply {
                                id: rid,
                                leader: self.id,
                                // The write is applied at instance `i`:
                                // clients gate later follower reads on it
                                // (read-your-writes).
                                watermark: i,
                                body: entry.reply.clone(),
                            }),
                        ));
                    }
                }
            }
            self.maybe_checkpoint(i);
        }
        // Make incremental-checkpoint progress on the apply path too: one
        // chunk per drain keeps the per-cycle cost O(chunk), not O(state).
        self.pump_checkpoint(1);
        // Leader: an advance may unblock deferred reads and queued writes.
        if matches!(self.role, Role::Leader(_)) {
            self.leader_after_advance(now, out);
        }
    }

    fn maybe_checkpoint(&mut self, prefix: Instance) {
        let every = self.cfg.checkpoint_every;
        let Some(due) = self.exec.checkpoint_due(prefix, every, self.log.bytes()) else {
            return;
        };
        self.stats.checkpoints_by_bytes += u64::from(due == Due::Bytes);
        let chunk_bytes = self.cfg.checkpoint_chunk_bytes;
        let (dedup, total) = self.exec.freeze_at(prefix, chunk_bytes, self.clock);
        self.stable.checkpoint_begin(prefix, &dedup, total);
        // An app that did not override chunking reports one chunk and
        // does not freeze — its single chunk must be emitted before any
        // further decree applies, so drain it right here. Real chunked
        // apps stream across drive cycles instead.
        if total <= 1 {
            self.pump_checkpoint(usize::MAX);
        }
    }

    /// Emit up to `budget` chunks of the in-flight incremental checkpoint,
    /// completing it (commit + WAL compaction) when the last chunk lands.
    /// Returns whether a checkpoint is still in flight. Drive loops call
    /// this once per cycle; it is a no-op when nothing is in progress.
    pub fn pump_checkpoint(&mut self, budget: usize) -> bool {
        let stable = &mut self.stable;
        if let Some(ck) = self
            .exec
            .pump(budget, |idx, data| stable.checkpoint_chunk(idx, data))
        {
            stable.checkpoint_commit();
            // Bounded disk: the log shrinks only once the image that
            // replaces it is completely written.
            stable.truncate(ck.upto);
            self.log.truncate_upto(ck.upto);
            self.exec.checkpointed(ck.upto, ck.bytes);
            let chunks = ck.total as u64;
            self.stats.log_bytes = self.log.bytes();
            self.stats.checkpoints += 1;
            self.stats.checkpoint_bytes += ck.bytes;
            self.stats.checkpoint_chunks += chunks;
            self.stats.last_checkpoint_bytes = ck.bytes;
            self.stats.last_checkpoint_chunks = chunks;
            self.stats.last_checkpoint_dur = self.clock.since(ck.started);
        }
        self.exec.frozen()
    }

    /// Replace service, log and stored image with `snap`, whose app bytes
    /// are `chunks` concatenated: the disk keeps the image as those
    /// chunks, the one format every image is stored and served in.
    pub(crate) fn install_snapshot(&mut self, snap: &SnapshotBlob, chunks: Vec<bytes::Bytes>) {
        debug_assert!(snap.upto >= self.log.chosen_prefix());
        if self.exec.install(snap) {
            self.stable.checkpoint_abort();
        }
        self.log.truncate_upto(snap.upto);
        self.log.force_prefix(snap.upto);
        // From here on the snapshot stands in for this replica's accept
        // records up to `snap.upto`: whatever it sends next rests on it.
        self.stable.install(snap, chunks);
    }

    // ------------------------------------------------------------------
    // Step-down
    // ------------------------------------------------------------------

    /// Yield to a higher ballot: abort leader/candidate state, roll back
    /// any tentative execution, and return to following.
    pub(crate) fn step_down(&mut self, higher: Ballot, now: Time, out: &mut Vec<Action>) {
        self.note_ballot(higher);
        match std::mem::replace(&mut self.role, Role::Follower) {
            Role::Leader(l) => {
                self.stats.step_downs += 1;
                self.reads.leadership_ended();
                // T-Paxos sessions die with the leadership (§3.6): staged
                // effects are discarded; clients learn via LeaderSwitch
                // aborts when they try to commit at the new leader.
                // Abort in key order — `txns` is a HashMap and the service
                // may observe the abort sequence.
                let mut dying: Vec<(ClientId, TxnId)> = l.txns.into_keys().collect();
                dying.sort_unstable();
                for (_, txn) in dying {
                    self.exec.txn_abort(txn);
                    self.stats.txns_aborted += 1;
                }
                // Roll back a tentative execution that never committed.
                self.exec.abandon();
                out.push(Action::CancelTimer {
                    kind: TimerKind::Heartbeat,
                });
                out.push(Action::CancelTimer {
                    kind: TimerKind::Retransmit,
                });
            }
            Role::Candidate(_) => {
                self.stats.step_downs += 1;
                out.push(Action::CancelTimer {
                    kind: TimerKind::Election,
                });
            }
            Role::Follower => {}
        }
        self.fd.reset(now);
        self.pacer.settle();
    }
}

#[cfg(test)]
mod tests;
