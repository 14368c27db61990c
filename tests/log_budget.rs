//! The log is bounded in bytes: with 2 KiB values a checkpoint falls due
//! by the retained decrees' weight long before `checkpoint_every`
//! instances pass, and a catch-up served from the log goes out a bounded
//! piece at a time (DESIGN.md §6, "retained log payload").

use gridpaxos::core::client::{ClientCore, CompletedOp};
use gridpaxos::core::log::LOG_BYTES_FLOOR;
use gridpaxos::core::prelude::*;
use gridpaxos::services::{KvOp, KvStore};
use gridpaxos::simnet::workload::Driver;
use gridpaxos::simnet::{Metrics, SimOpts, Topology, World};

const START: Time = Time(200_000_000);
const DEADLINE: Time = Time(3_600_000_000_000);
const CLIENTS: usize = 16;
const KEYS_PER_CLIENT: usize = 16;
const VALUE: usize = 2048;
/// Payload of the heaviest decree: one `Put` per client, each a delta and
/// an echoed reply of the value (the request body is not retained).
const DECREE_MAX: u64 = (CLIENTS * (2 * VALUE + 64)) as u64;

/// `total` closed-loop 2 KiB `Put`s over this client's own keys.
struct Puts {
    client: usize,
    total: usize,
    sent: usize,
    outstanding: bool,
}

impl Driver for Puts {
    fn kick(&mut self, core: &mut ClientCore, now: Time) -> Option<Vec<Action>> {
        if self.outstanding || self.sent == self.total {
            return None;
        }
        let key = self.client * KEYS_PER_CLIENT + self.sent % KEYS_PER_CLIENT;
        let fill = char::from(b'a' + (self.sent % 26) as u8);
        let op = KvOp::Put(format!("k{key:04}"), fill.to_string().repeat(VALUE));
        self.sent += 1;
        self.outstanding = true;
        Some(core.submit_op(RequestKind::Write, op.encode(), now))
    }

    fn on_complete(&mut self, _done: &CompletedOp, _now: Time, _m: &mut Metrics) {
        self.outstanding = false;
    }

    fn done(&self) -> bool {
        !self.outstanding && self.sent == self.total
    }
}

fn world(cfg: Config, seed: u64, puts_per_client: usize) -> World {
    let opts = SimOpts::for_topology(Topology::sysnet(cfg.n), seed);
    let mut w = World::new(cfg, opts, Box::new(|| Box::new(KvStore::new())));
    for client in 0..CLIENTS {
        let puts = Puts {
            client,
            total: puts_per_client,
            sent: 0,
            outstanding: false,
        };
        w.add_client(Box::new(puts), None, START);
    }
    w
}

fn assert_converged(w: &World) {
    let states = w.replica_states();
    assert_eq!(states.len(), 3);
    assert!(
        states.windows(2).all(|p| p[0] == p[1]),
        "replica states diverged"
    );
}

/// Retained log payload ≤ budget + what was accepted while one checkpoint
/// was being emitted, at every step of every replica, under 16-op decrees
/// of 2 KiB values; every checkpoint is due by bytes (≈ 130 decrees), none
/// by the 512-instance cap.
#[test]
fn large_values_checkpoint_by_bytes_and_the_log_stays_within_its_budget() {
    let mut w = world(Config::cluster(3), 23, 520);
    // The image (256 keys × 2 KiB) is under half the floor, so the floor
    // is the budget; it leaves in 64 KiB chunks, one per drain, and each
    // drain may apply a decree and hold the next one accepted.
    let chunks = (CLIENTS * KEYS_PER_CLIENT * (VALUE + 16)).div_ceil(64 * 1024) as u64;
    let bound = LOG_BYTES_FLOOR + (chunks + 2) * DECREE_MAX;
    let mut peak = 0;
    while !w.all_clients_done() {
        assert!(w.step() && w.now < DEADLINE, "clients starved");
        for p in 0..3 {
            let retained = w.replica(ProcessId(p)).expect("up").stats.log_bytes;
            assert!(retained <= bound, "r{p} retains {retained} > {bound}");
            peak = peak.max(retained);
        }
    }
    assert!(peak >= LOG_BYTES_FLOOR, "the budget was reached: {peak}");
    println!("peak retained payload {peak} B of {bound} B allowed");
    w.run_until(w.now.after(Dur::from_secs(1)));
    for p in 0..3 {
        let r = w.replica(ProcessId(p)).expect("up");
        assert_eq!(r.stats.log_bytes, r.log().bytes());
        assert!(r.stats.checkpoints >= 3, "r{p}: {}", r.stats.checkpoints);
        assert_eq!(r.stats.checkpoints_by_bytes, r.stats.checkpoints, "r{p}");
        assert!(
            r.stats.last_checkpoint_chunks >= chunks,
            "a multi-chunk image"
        );
    }
    assert_converged(&w);
}

/// A follower far behind a leader whose log holds three times the floor
/// is brought up from the log in pieces of at most the floor, one
/// `CatchUp` each: at least three rounds, one per
/// heartbeat, and no single delivery applies more than a piece. (Sent
/// whole, the range is past the transports' 64 MiB frame limit at ~640
/// such instances, and was refused and re-requested until a checkpoint
/// happened to cut it.)
#[test]
fn a_catch_up_from_the_log_is_cut_at_the_byte_floor() {
    // `checkpoint_every = 0`: never compact, so the whole range is log.
    let mut w = world(Config::cluster(3).with_checkpoint_every(0), 29, 400);
    let lagging = ProcessId(2);
    w.crash_at(lagging, START.after(Dur::from_millis(5)));
    assert!(w.run_to_completion(DEADLINE));
    let leader = w.leader().expect("leader");
    let log_bytes = w.replica(leader).expect("up").log().bytes();
    assert!(log_bytes >= 3 * LOG_BYTES_FLOOR, "leader log: {log_bytes}");

    w.recover_at(lagging, w.now.after(Dur::from_millis(1)));
    let target = w.replica(leader).expect("up").chosen_prefix();
    let (mut at, mut pieces) = (None, 0);
    while at != Some(target) {
        assert!(w.step() && w.now < DEADLINE, "catch-up stalled at {at:?}");
        let now = w.replica(lagging).map(Replica::chosen_prefix);
        if let (Some(from), Some(to)) = (at, now) {
            // What this one delivery applied, weighed on the leader's log.
            let log = w.replica(leader).expect("up").log();
            let applied: u64 = (from.0 + 1..=to.0)
                .map(|i| log.get(Instance(i)).expect("retained").1.payload_bytes())
                .sum();
            assert!(applied <= LOG_BYTES_FLOOR, "one CatchUp applied {applied}");
            pieces += u64::from(applied > DECREE_MAX);
        }
        at = now.or(at);
    }
    println!("{log_bytes} B of log caught up in {pieces} pieces");
    assert!(pieces >= 3, "caught up in {pieces} pieces");
    assert!(w.replica(leader).expect("up").stats.catchups_served >= 3);
    assert_converged(&w);
}
