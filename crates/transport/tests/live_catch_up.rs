//! Catch-up on sockets, where a message the decoder refuses costs the
//! connection and a send queue refuses what passes its cap. A durable
//! three-node `KvStore` cluster runs, stops, loses one node's directory
//! and is launched again: the wiped node must reach the others' state.
//! State moves only by catch-up, one bounded `CatchUp` per request, so
//! neither 16 MiB of state nor a 1 MiB send queue stands in the way.
//!
//! Release mode only (CI step "Live catch-up"): the clusters hold several
//! MiB of state.

use bytes::Bytes;
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{Decree, DedupEntry};
use gridpaxos_core::config::Config;
use gridpaxos_core::replica::Replica;
use gridpaxos_core::request::{ReplyBody, RequestKind};
use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState, Storage};
use gridpaxos_core::types::{Dur, Instance};
use gridpaxos_services::{KvOp, KvStore};
use gridpaxos_transport::{FileStorage, ReactorCluster, ReactorConfig, SyncMode};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `checkpoint_every` 64, so the log a wiped node would need is gone, and
/// a deployment's timeouts rather than the simulator's 50 ms suspicion
/// and 30 ms election backoff: a loaded host must not depose a leader in
/// the middle of a test, and a candidate's election timer, re-armed with
/// each catch-up request, must outlast one 8 MiB reply. (A pull that
/// outlasts it still completes — the next election resumes the image at
/// the piece it lacks — but it is not the first election.)
fn config() -> Config {
    let mut cfg = Config::cluster(3).with_checkpoint_every(64);
    cfg.suspect_timeout = Dur::from_millis(1000);
    cfg.election_backoff = Dur::from_millis(200);
    cfg
}

fn root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("gridpaxos-live-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A node's log that publishes the chosen prefix it marks, for the test
/// thread to read while the node owns the log.
struct Marked {
    log: FileStorage,
    marked: Arc<AtomicU64>,
}

impl Storage for Marked {
    fn save_promised(&mut self, b: Ballot) {
        self.log.save_promised(b);
    }
    fn save_accepted(&mut self, i: Instance, b: Ballot, d: &Decree) {
        self.log.save_accepted(i, b, d);
    }
    fn save_chosen_prefix(&mut self, upto: Instance) {
        self.log.save_chosen_prefix(upto);
        self.marked.store(upto.0, Ordering::SeqCst);
    }
    fn truncate_upto(&mut self, upto: Instance) {
        self.log.truncate_upto(upto);
    }
    fn load(&self) -> DurableState {
        self.log.load()
    }
    fn flush(&mut self) {
        self.log.flush();
    }
    fn is_dirty(&self) -> bool {
        self.log.is_dirty()
    }
    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        self.log.checkpoint_begin(upto, dedup, total);
    }
    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        self.log.checkpoint_chunk(idx, data);
    }
    fn checkpoint_commit(&mut self) {
        self.log.checkpoint_commit();
    }
    fn checkpoint_abort(&mut self) {
        self.log.checkpoint_abort();
    }
    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        self.log.checkpoint_chunks()
    }
}

/// A durable cluster on `root`, and each node's chosen prefix as its log
/// holds it.
fn launch(root: &Path, rcfg: ReactorConfig) -> (ReactorCluster, Vec<Arc<AtomicU64>>) {
    let kv = || Box::new(KvStore::new()) as Box<_>;
    let marks: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::default()).collect();
    let cluster = ReactorCluster::launch_with_storage(config(), 1, kv, None, rcfg, |id| {
        let dir = root.join(format!("node-{}", id.0));
        let log = FileStorage::open(dir, SyncMode::Never, 1).expect("open the log");
        let marked = Arc::clone(&marks[id.0 as usize]);
        marked.store(log.load().chosen_prefix.0, Ordering::SeqCst);
        vec![Box::new(Marked { log, marked }) as Box<dyn Storage>]
    })
    .expect("launch");
    (cluster, marks)
}

/// `n` puts of `value` bytes each, keys `k{from}..`.
fn puts(cluster: &ReactorCluster, from: usize, n: usize, value: usize) {
    let mut client = cluster.client();
    for k in from..from + n {
        let fill = char::from(b'a' + (k % 26) as u8).to_string().repeat(value);
        let op = KvOp::Put(format!("k{k:05}"), fill).encode();
        let body = client
            .call(RequestKind::Write, op)
            .expect("the put completes");
        assert!(matches!(body, ReplyBody::Ok(_)), "{body:?}");
    }
}

/// Wait until the three nodes' logs hold one chosen prefix, then stop
/// the cluster: every replica is at that prefix and holds the same state.
fn converged(
    (cluster, marks): (ReactorCluster, Vec<Arc<AtomicU64>>),
    within: Duration,
) -> Vec<Replica> {
    let deadline = Instant::now() + within;
    loop {
        let prefixes: Vec<_> = marks.iter().map(|m| m.load(Ordering::SeqCst)).collect();
        if prefixes.windows(2).all(|w| w[0] == w[1]) {
            break;
        }
        assert!(Instant::now() < deadline, "no catch-up: {prefixes:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let replicas: Vec<Replica> = cluster.shutdown().into_iter().flatten().collect();
    let first = (replicas[0].chosen_prefix(), replicas[0].service_snapshot());
    for r in &replicas[1..] {
        assert_eq!(r.chosen_prefix(), first.0, "equal prefixes");
        assert!(r.service_snapshot() == first.1, "equal state at the prefix");
    }
    replicas
}

/// A follower whose directory is wiped pulls an image of about 4.7 MiB
/// under `ReactorConfig::default()`'s 1 MiB send queue: one bounded
/// reply per request, so the queue never has to hold the whole image.
#[test]
#[cfg_attr(debug_assertions, ignore = "release mode")]
fn a_wiped_follower_catches_up_under_the_default_send_queue() {
    let root = root("wiped-follower");
    let cluster = launch(&root, ReactorConfig::default());
    puts(&cluster.0, 0, 75, 64 << 10);
    drop(converged(cluster, Duration::from_secs(10)));

    std::fs::remove_dir_all(root.join("node-2")).expect("wipe node 2");
    let cluster = launch(&root, ReactorConfig::default());
    puts(&cluster.0, 75, 70, 64 << 10);
    let replicas = converged(cluster, Duration::from_secs(10));
    assert!(replicas[2].chosen_prefix() >= Instance(145));
    std::fs::remove_dir_all(&root).ok();
}

/// A bootstrap replica whose directory is wiped campaigns first, while
/// the others hold over 16 MiB of state — past the decoder's limit for
/// one byte string. Their promises name their prefix and carry no state,
/// so it wins its first election, pulls the state and serves a write.
#[test]
#[cfg_attr(debug_assertions, ignore = "release mode")]
fn a_wiped_bootstrap_replica_wins_its_first_election_over_16_mib() {
    let root = root("wiped-bootstrap");
    // A queue that holds a promise whole, so only the promise's size can
    // stand in the way.
    let rcfg = ReactorConfig {
        send_queue_cap: 64 << 20,
    };
    let cluster = launch(&root, rcfg);
    puts(&cluster.0, 0, 300, 64 << 10);
    drop(converged(cluster, Duration::from_secs(10)));

    std::fs::remove_dir_all(root.join("node-0")).expect("wipe node 0");
    let relaunched = Instant::now();
    let cluster = launch(&root, rcfg);
    let mut client = cluster.0.client();
    let op = KvOp::Put("after".into(), "wipe".into()).encode();
    let body = client
        .call(RequestKind::Write, op)
        .expect("a write after the wipe");
    assert!(matches!(body, ReplyBody::Ok(_)), "{body:?}");
    println!("first write {:?} after relaunch", relaunched.elapsed());
    let get = KvOp::Get("k00299".into()).encode();
    let body = client.call(RequestKind::Read, get).expect("a read");
    assert!(
        matches!(&body, ReplyBody::Ok(v) if v.len() == 64 << 10),
        "{body:?}"
    );
    drop(client);

    let replicas = converged(cluster, Duration::from_secs(10));
    let r0 = &replicas[0];
    assert!(r0.is_leader(), "replica 0 leads");
    assert_eq!((r0.stats.elections_started, r0.stats.elections_won), (1, 1));
    assert!(
        r0.service_snapshot().len() > 16 << 20,
        "over 16 MiB of state"
    );
    std::fs::remove_dir_all(&root).ok();
}
