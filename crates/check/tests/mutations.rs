//! Seeded-mutation self-tests: prove each checker invariant actually
//! fires by feeding it a known-bad state, and that clean states pass.
//!
//! Every mutation lives on this side of the replica: a fabricated view
//! or history handed to an invariant, or a `Cluster` double that lies on
//! the wire, the clock or the disk. Protocol code carries no hooks.

use bytes::Bytes;
use check::harness::{Choice, Cluster, Observations};
use check::invariants::{
    check_chosen_digests, check_gap_freedom, check_mask_invariants, check_read_mask,
    check_session_read, check_state,
};
use check::{replay, smoke_scenarios, CheckerApp, ClientOp, Scenario};
use gridpaxos_core::action::TimerKind;
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{Decree, DedupEntry, StateUpdate};
use gridpaxos_core::msg::Msg;
use gridpaxos_core::request::Request;
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::storage::{ChunkedCheckpoint, DurableState, Storage, TailLossStorage};
use gridpaxos_core::types::{Dur, Instance, TxnId};

fn scenario(name: &str) -> Scenario {
    smoke_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"))
}

/// A freshly booted cluster satisfies every invariant.
#[test]
fn clean_initial_state_passes() {
    let cl = Cluster::new(&scenario("write-read-lossy"));
    assert_eq!(check_state(&cl), None);
}

/// Deliver pending messages (in queue order) until a leader emerges —
/// drives the bootstrap Prepare/Promise election to completion.
fn establish_leader(cl: &mut Cluster) -> usize {
    for _ in 0..64 {
        if let Some(i) = cl.leader() {
            return i;
        }
        let choices = cl.choices();
        let c = choices
            .iter()
            .find(|c| matches!(c, Choice::Deliver(_)))
            .copied()
            .expect("bootstrap election ran out of messages without a leader");
        assert_eq!(cl.apply(c), None);
    }
    panic!("no leader after 64 deliveries");
}

/// Deliver the first pending message to replica `to` matching `pred`.
fn deliver_to(cl: &mut Cluster, to: u32, pred: impl Fn(&Msg) -> bool) -> Option<String> {
    let i = cl
        .pending_msg(to, pred)
        .unwrap_or_else(|| panic!("no matching pending message to replica {to}"));
    cl.apply(Choice::Deliver(i))
}

/// Fire the pending timer of the given kind on replica `on`.
fn fire(cl: &mut Cluster, on: u32, kind: TimerKind) -> Option<String> {
    let i = cl
        .pending_timer(on, kind)
        .unwrap_or_else(|| panic!("no pending {kind:?} timer on replica {on}"));
    cl.apply(Choice::Fire(i))
}

/// Inject the next scripted operation via the explorer's own choice.
fn inject(cl: &mut Cluster) -> Option<String> {
    let c = cl
        .choices()
        .into_iter()
        .find(|c| matches!(c, Choice::Inject))
        .expect("a scripted operation must be available");
    cl.apply(c)
}

/// §3.3 strict pipelining: a quiescent leader whose next instance number
/// skips one (a pipeline gap) is caught by the gap-freedom invariant.
/// The views are the cluster's own, with the leader's edited.
#[test]
fn skipped_instance_trips_gap_freedom() {
    let mut cl = Cluster::new(&scenario("write-read-lossy"));
    let leader = establish_leader(&mut cl);
    assert_eq!(check_state(&cl), None, "pre-mutation state must be clean");
    let mut views: Vec<_> = (0..cl.n())
        .filter_map(|i| cl.replica(i).map(|r| (i, r.checker_view())))
        .collect();
    assert_eq!(check_gap_freedom(&views), None);
    let (_, v) = &mut views[leader];
    assert!(v.quiescent, "the new leader must be quiescent");
    let next = v.next_instance.expect("replica must lead");
    v.next_instance = Some(next.next());
    let v = check_gap_freedom(&views).expect("gap must be detected");
    assert!(v.contains("gap-freedom"), "unexpected violation: {v}");
}

/// §3.3 agreement: two replicas deciding different decrees for the same
/// instance is a violation; identical decrees are not.
#[test]
fn conflicting_decrees_trip_agreement() {
    let inst = Instance(3);
    let agree = vec![(0, vec![(inst, 7)]), (1, vec![(inst, 7)])];
    assert_eq!(check_chosen_digests(&agree), None);

    let conflict = vec![(0, vec![(inst, 7)]), (2, vec![(inst, 8)])];
    let v = check_chosen_digests(&conflict).expect("conflict must be detected");
    assert!(v.contains("agreement"), "unexpected violation: {v}");
}

/// §3.4 read linearizability: a read missing a write that was already
/// acknowledged when the read was issued is a violation.
#[test]
fn stale_read_trips_linearizability() {
    let obs = Observations {
        issued_bits: 0b11,
        acked_bits: 0b10,
        ..Observations::default()
    };
    // Read issued after bit 1 was acked, but its result lacks bit 1.
    let v = check_read_mask(0b01, 0b10, &obs).expect("stale read must be detected");
    assert!(v.contains("linearizability"), "unexpected violation: {v}");
    // The same result is fine for a read issued before the ack.
    assert_eq!(check_read_mask(0b01, 0b00, &obs), None);
}

/// A state mask containing a bit no client ever issued is a violation
/// (state must come from decided requests only).
#[test]
fn unissued_bits_trip_state_check() {
    let obs = Observations {
        issued_bits: 0b01,
        ..Observations::default()
    };
    let v = check_mask_invariants(0b10, &obs).expect("phantom write must be detected");
    assert!(v.contains("never issued"), "unexpected violation: {v}");
}

/// §3.5 atomicity: a transaction's effects surfacing partially is a
/// violation; all-or-nothing is not.
#[test]
fn partial_transaction_trips_atomicity() {
    let mut obs = Observations {
        issued_bits: 0b111,
        ..Observations::default()
    };
    obs.txn_bits.insert(TxnId(1), 0b110);
    let v = check_mask_invariants(0b010, &obs).expect("partial txn must be detected");
    assert!(v.contains("atomicity"), "unexpected violation: {v}");
    assert_eq!(check_mask_invariants(0b000, &obs), None);
    assert_eq!(check_mask_invariants(0b110, &obs), None);
}

/// §3.6: effects of an aborted transaction may never resurface in any
/// state, even after leader switches.
#[test]
fn aborted_bits_trip_resurrection_check() {
    let obs = Observations {
        issued_bits: 0b11,
        aborted_bits: 0b01,
        ..Observations::default()
    };
    let v = check_mask_invariants(0b01, &obs).expect("resurrection must be detected");
    assert!(v.contains("aborted"), "unexpected violation: {v}");
    assert_eq!(check_mask_invariants(0b10, &obs), None);
}

/// Session-guarantee invariant unit coverage: read-your-writes and
/// monotonic-reads regressions each fire; a conforming read passes.
#[test]
fn session_read_checks_fire_on_ryw_and_monotonic_regressions() {
    let obs = Observations {
        issued_bits: 0b111,
        acked_bits: 0b011,
        ..Observations::default()
    };
    let v = check_session_read(0b001, 0b010, 0, &obs).expect("RYW gap must be detected");
    assert!(v.contains("read-your-writes"), "got: {v}");
    let v = check_session_read(0b010, 0, 0b001, &obs).expect("monotonic gap must be detected");
    assert!(v.contains("monotonic-reads"), "got: {v}");
    assert_eq!(check_session_read(0b011, 0b010, 0b001, &obs), None);
}

/// Drive the follower-read scenario to the point where the highest-id
/// follower serves reads while lagging the leader by `behind` decrees:
/// writes are chosen with replica 1's vote only, and heartbeats teach
/// replica 2 the leader's commit watermark without the decrees.
fn lagging_follower_cluster() -> Cluster {
    let mut cl = Cluster::new(&scenario("follower-read-lag"));
    let leader = establish_leader(&mut cl);
    assert_eq!(leader, 0, "bootstrap leader");
    assert_eq!(inject(&mut cl), None); // Write(0) — to the leader
    assert_eq!(
        deliver_to(&mut cl, 1, |m| matches!(m, Msg::Accept { .. })),
        None
    );
    assert_eq!(
        deliver_to(&mut cl, 0, |m| matches!(m, Msg::Accepted { .. })),
        None
    );
    assert_eq!(cl.obs.acked_bits, 0b1, "write must be acked");
    assert_eq!(fire(&mut cl, 0, TimerKind::Heartbeat), None);
    assert_eq!(
        deliver_to(
            &mut cl,
            2,
            |m| matches!(m, Msg::Heartbeat { chosen, .. } if chosen.0 == 1)
        ),
        None
    );
    let r2 = cl.replica(2).expect("replica 2 is live");
    assert_eq!(r2.leader_commit(), Instance(1), "watermark learned");
    assert_eq!(r2.chosen_prefix(), Instance(0), "decrees withheld");
    cl
}

/// Honest follower reads under apply lag: the lagging follower's reply is
/// tagged with its true prefix, so the session layer discards it — no
/// invariant fires and the request stays outstanding for the retry.
#[test]
fn stale_follower_reply_is_discarded_not_accepted() {
    let mut cl = lagging_follower_cluster();
    assert_eq!(inject(&mut cl), None); // Read, routed to follower 2
    assert_eq!(cl.obs.stale_read_replies, 1, "reply must be discarded");
    assert_eq!(check_state(&cl), None);
}

/// Seeded mutation: a follower that inflates its reply watermark to the
/// leader's commit watermark claims freshness it does not have. The
/// session layer then accepts a reply missing this client's own acked
/// write — the read-your-writes invariant must fire.
#[test]
fn inflated_follower_watermark_trips_session_guarantee() {
    let mut cl = lagging_follower_cluster();
    assert!(cl.chaos_inflate_read_watermark(2), "replica 2 must be live");
    let v = inject(&mut cl).expect("inflated watermark must be caught"); // Read
    assert!(v.contains("read-your-writes"), "unexpected violation: {v}");
}

/// Drive the lease scenario through a takeover the old leader never
/// hears about: grant leader 0 a lease, elect replica 1 with 2's promise
/// while the Prepare to 0 stays in flight, commit a write through the new
/// leader without 0's participation, then land a read on the deposed
/// leader (a client with a stale hint). Returns the violation the final
/// read produced, if any.
fn lease_takeover_read(stretch: bool) -> (Cluster, Option<String>) {
    let mut cl = Cluster::new(&scenario("lease-read-skew"));
    let leader = establish_leader(&mut cl);
    assert_eq!(leader, 0, "bootstrap leader");
    // Lease grant: one heartbeat round; one follower vote plus the leader
    // itself is a majority of three. The vote must answer the heartbeat
    // just sent, not the takeover's (`hb_seq` 0), which it superseded.
    assert_eq!(fire(&mut cl, 0, TimerKind::Heartbeat), None);
    assert_eq!(
        deliver_to(&mut cl, 1, |m| matches!(
            m,
            Msg::Heartbeat { hb_seq: 1, .. }
        )),
        None
    );
    assert_eq!(
        deliver_to(&mut cl, 0, |m| matches!(m, Msg::HeartbeatAck { .. })),
        None
    );
    if stretch {
        assert!(cl.chaos_stop_clock(0, Dur::from_millis(500)), "0 is live");
    }
    // Replica 1 suspects and wins the election behind 0's back.
    assert_eq!(fire(&mut cl, 1, TimerKind::LeaderCheck), None);
    assert_eq!(
        deliver_to(&mut cl, 2, |m| matches!(m, Msg::Prepare { .. })),
        None
    );
    assert_eq!(
        deliver_to(&mut cl, 1, |m| matches!(m, Msg::Promise { .. })),
        None
    );
    assert!(
        cl.replica(1).is_some_and(|r| r.is_leader()),
        "replica 1 must have taken over"
    );
    assert!(
        cl.replica(0).is_some_and(|r| r.is_leader()),
        "replica 0 must still believe it leads"
    );
    // The client writes through the new leader; 0 never sees the decree.
    assert_eq!(cl.inject_to(1), None); // Write(0)
    assert_eq!(
        deliver_to(&mut cl, 2, |m| matches!(m, Msg::Accept { .. })),
        None
    );
    assert_eq!(
        deliver_to(&mut cl, 1, |m| matches!(m, Msg::Accepted { .. })),
        None
    );
    assert_eq!(cl.obs.acked_bits, 0b1, "write acked via the new leader");
    // A read lands on the deposed leader (stale client hint).
    let v = cl.inject_to(0); // Read
    (cl, v)
}

/// Bounded clock skew alone cannot break lease reads: the lease is
/// anchored at the deposed leader's own heartbeat-send timestamp, so its
/// constant skew cancels and the lease has lapsed by the time any new
/// leader can exist — the deposed leader refuses to serve locally.
#[test]
fn bounded_skew_lease_reads_stay_linearizable() {
    let (cl, v) = lease_takeover_read(false);
    assert_eq!(v, None, "lapsed lease must not serve a stale read");
    assert_eq!(check_state(&cl), None);
}

/// Seeded mutation: stopping the lease holder's clock past the suspicion
/// slack stretches its lease, so the deposed leader serves a local read
/// that misses a write the new leader already acknowledged — the
/// linearizability invariant must fire.
#[test]
fn stretched_lease_trips_linearizability() {
    let (_cl, v) = lease_takeover_read(true);
    let v = v.expect("stretched lease must be caught");
    assert!(v.contains("linearizability"), "unexpected violation: {v}");
}

/// The late-catch-up scenario: write-read-lossy with three writes.
fn late_catchup_cluster() -> Cluster {
    Cluster::new(&Scenario {
        name: "late-catchup",
        script: vec![ClientOp::Write(0), ClientOp::Write(1), ClientOp::Write(2)],
        ..scenario("write-read-lossy")
    })
}

/// Leader 0 chooses `Write(0)` with 1's vote; 2 learns `Chosen` without
/// the decree and asks 0 for it, and that request stays in the network.
/// Then 2 campaigns and 1 promises: 2 holds a majority at prefix 0, and
/// 1's promise names prefix 1.
fn behind_candidate_with_a_majority(cl: &mut Cluster) {
    let step = |v: Option<String>| assert_eq!(v, None);
    assert_eq!(establish_leader(cl), 0);
    step(inject(cl));
    step(deliver_to(cl, 1, |m| matches!(m, Msg::Accept { .. })));
    step(deliver_to(cl, 0, |m| matches!(m, Msg::Accepted { .. })));
    step(deliver_to(cl, 1, |m| matches!(m, Msg::Chosen { .. })));
    step(deliver_to(cl, 2, |m| matches!(m, Msg::Chosen { .. })));
    assert!(cl
        .pending_msg(0, |m| matches!(m, Msg::CatchUpReq { .. }))
        .is_some());
    step(fire(cl, 2, TimerKind::LeaderCheck));
    step(deliver_to(cl, 1, |m| matches!(m, Msg::Prepare { .. })));
    step(deliver_to(cl, 2, |m| matches!(m, Msg::Promise { .. })));
}

/// Directed walk to the schedule behind ROADMAP P0: a `CatchUp` from a
/// newer leadership reaches a replica that still leads under an older
/// ballot with a write executed ahead of consensus. Replica 2 asks
/// leader 0 for instance 1 and the request lingers; 2 then campaigns
/// for ballot (2,2), pulls instance 1 from its promiser 1 before it
/// leads, and executes `Write(1)` at instance 2, its `Accept` lost; 0
/// leads again under (3,0) — its `Prepare` to 2 lost — and chooses
/// `Write(2)` for instance 2; only now does 0 answer the old request.
/// Replica 2 must be deposed before it records or applies anything: at
/// prefix 2 its state is the chosen history's (bits 0 and 2), not its
/// own abandoned execution's (bits 0 and 1).
#[test]
fn late_catchup_from_a_newer_leadership_keeps_agreement() {
    let mut cl = late_catchup_cluster();
    let step = |v: Option<String>| assert_eq!(v, None);
    let lingering = |m: &Msg| matches!(m, Msg::CatchUpReq { .. });
    behind_candidate_with_a_majority(&mut cl);
    // 2 is behind 1's prefix: it pulls instance 1 from 1, then leads and
    // executes Write(1) at instance 2; nobody receives that Accept.
    assert!(!cl.replica(2).expect("live").is_leader(), "not below P");
    step(deliver_to(&mut cl, 1, lingering));
    step(deliver_to(&mut cl, 2, |m| matches!(m, Msg::CatchUp { .. })));
    assert_eq!(cl.replica(2).expect("live").chosen_prefix(), Instance(1));
    step(cl.inject_to(2));
    let r2 = cl.replica(2).expect("live");
    assert!(r2.is_leader() && r2.checker_view().tentative_exec);
    // 0 hears of ballot (2,2), outbids it with 1's promise — 2 never
    // sees that Prepare — and chooses Write(2) for instance 2.
    step(deliver_to(&mut cl, 0, |m| matches!(m, Msg::Prepare { .. })));
    while cl
        .replica(0)
        .is_some_and(|r| r.checker_view().role == "follower")
    {
        step(fire(&mut cl, 0, TimerKind::LeaderCheck)); // until it suspects
    }
    step(deliver_to(&mut cl, 1, |m| matches!(m, Msg::Prepare { .. })));
    step(deliver_to(
        &mut cl,
        0,
        |m| matches!(m, Msg::Promise { ballot, .. } if ballot.round == 3),
    ));
    step(cl.inject_to(0));
    step(deliver_to(
        &mut cl,
        1,
        |m| matches!(m, Msg::Accept { ballot, .. } if ballot.proposer.0 == 0),
    ));
    step(deliver_to(&mut cl, 0, |m| {
        matches!(m, Msg::Accepted { .. })
    }));
    assert_eq!(cl.obs.acked_bits, 0b101, "Write(0) and Write(2) are acked");
    assert_eq!(check_state(&cl), None, "2 is one tentative step ahead");
    // The old request is answered by the new leadership.
    step(deliver_to(&mut cl, 0, lingering));
    step(deliver_to(&mut cl, 2, |m| matches!(m, Msg::CatchUp { .. })));
    let (r0, r2) = (cl.replica(0).expect("live"), cl.replica(2).expect("live"));
    assert_eq!(r2.chosen_prefix(), Instance(2));
    assert_eq!(check_state(&cl), None);
    assert!(!r2.is_leader(), "deposed by the catch-up's ballot");
    assert_eq!(r2.promised(), r0.promised());
    assert_eq!(r2.service_snapshot(), r0.service_snapshot());
}

/// Seeded mutation: the walk above with promises that hide their
/// prefix. Replica 2, at prefix 0, leads at its majority below P = 1
/// instead of pulling: its takeover leaves instance 1 open, `Write(1)`
/// goes there, and 1 acknowledges the `Accept` vacuously — 1 chose
/// `Write(0)` there. The agreement invariant must fire.
#[test]
fn leading_below_the_promisers_prefix_trips_agreement() {
    let mut cl = late_catchup_cluster();
    cl.chaos_hide_promised_prefix();
    behind_candidate_with_a_majority(&mut cl);
    let r2 = cl.replica(2).expect("live");
    assert!(r2.is_leader(), "led at its majority");
    assert_eq!(r2.chosen_prefix(), Instance(0), "below P");
    assert_eq!(cl.inject_to(2), None); // Write(1)
    assert_eq!(
        deliver_to(&mut cl, 1, |m| matches!(m, Msg::Accept { .. })),
        None
    );
    let v = deliver_to(&mut cl, 2, |m| matches!(m, Msg::Accepted { .. }))
        .or_else(|| check_state(&cl))
        .expect("leading below P must be caught");
    assert!(v.contains("agreement"), "unexpected violation: {v}");
}

/// Apply the first available choice matching `pick`.
fn choose(cl: &mut Cluster, pick: impl Fn(&Choice) -> bool) -> Option<String> {
    let c = cl
        .choices()
        .into_iter()
        .find(|c| pick(c))
        .expect("the choice must be available");
    cl.apply(c)
}

/// The power-cut scenario with room for two crashes.
fn power_cut_cluster() -> Cluster {
    let base = scenario("accept-ahead-power-cut");
    Cluster::new(&Scenario {
        opts: check::HarnessOpts {
            crashes: 2,
            ..base.opts
        },
        ..base
    })
}

/// Fire `LeaderCheck` on `on` until it suspects the silent leader and
/// campaigns, then let `voter` promise: `on` leads.
fn take_over(cl: &mut Cluster, on: u32, voter: u32) {
    while cl
        .replica(on as usize)
        .is_some_and(|r| r.checker_view().role == "follower")
    {
        assert_eq!(fire(cl, on, TimerKind::LeaderCheck), None);
    }
    assert_eq!(
        deliver_to(cl, voter, |m| matches!(m, Msg::Prepare { .. })),
        None
    );
    assert_eq!(
        deliver_to(cl, on, |m| matches!(m, Msg::Promise { .. })),
        None
    );
    assert!(cl.replica(on as usize).is_some_and(|r| r.is_leader()));
}

/// Inject the scripted read at `leader` and see it through a confirm
/// round with `voter` (the retransmission launches the round). Returns
/// the first violation on the way.
fn read_through(cl: &mut Cluster, leader: u32, voter: u32) -> Option<String> {
    inject(cl)
        .or_else(|| choose(cl, |c| matches!(c, Choice::Retransmit(_))))
        .or_else(|| deliver_to(cl, voter, |m| matches!(m, Msg::ConfirmReq { .. })))
        .or_else(|| deliver_to(cl, leader, |m| matches!(m, Msg::ConfirmBatch { .. })))
}

/// Directed walk to the crash point the early `Accept` opens: leader 0
/// executes `Write(0)`, its `Accept` leaves, and power fails before the
/// barrier that would have made its own vote durable returned. Replica 1
/// accepts and syncs. Replica 0 restarts without the instance, campaigns
/// with a ballot above its durable promise and relearns the decree from
/// 1's promise: the write is chosen as the lost leader executed it, the
/// client is answered from it, and the read sees it. Agreement and read
/// linearizability hold at every step.
#[test]
fn leader_power_cut_after_its_accept_left_keeps_agreement() {
    let mut cl = power_cut_cluster();
    let step = |v: Option<String>| assert_eq!(v, None);
    assert_eq!(establish_leader(&mut cl), 0);
    let promised = cl.replica(0).expect("live").promised();
    step(choose(&mut cl, |c| matches!(c, Choice::InjectPowerCut)));
    assert!(cl.replica(0).is_none(), "0 died inside its release");
    step(deliver_to(&mut cl, 1, |m| matches!(m, Msg::Accept { .. })));
    assert_eq!(check_state(&cl), None);

    step(choose(&mut cl, |c| matches!(c, Choice::Recover(0))));
    let r0 = cl.replica(0).expect("recovered");
    assert_eq!(r0.promised(), promised, "the promise was durable");
    assert_eq!(r0.log_len(), 0, "its own vote was not");
    take_over(&mut cl, 0, 1);
    assert!(cl.replica(0).expect("live").promised() > promised);
    step(deliver_to(&mut cl, 1, |m| matches!(m, Msg::Accept { .. })));
    step(deliver_to(&mut cl, 0, |m| {
        matches!(m, Msg::Accepted { .. })
    }));
    assert_eq!(cl.replica(0).expect("live").chosen_prefix(), Instance(1));
    assert_eq!(cl.obs.acked_bits, 0b1, "answered from the relearned decree");
    assert_eq!(check_state(&cl), None);

    step(inject(&mut cl)); // Write(1)
    step(deliver_to(&mut cl, 1, |m| matches!(m, Msg::Accept { .. })));
    step(deliver_to(&mut cl, 0, |m| {
        matches!(m, Msg::Accepted { .. })
    }));
    assert_eq!(cl.obs.acked_bits, 0b11);
    step(read_through(&mut cl, 0, 1));
    assert!(
        cl.choices()
            .iter()
            .all(|c| !matches!(c, Choice::Retransmit(_))),
        "the read was answered"
    );
    assert_eq!(check_state(&cl), None);
}

/// Seeded mutation of the disk: a [`TailLossStorage`] whose barrier
/// returns but syncs no accept record, so a power cut loses every one it
/// was handed, however many barriers were said to cover it.
#[derive(Default)]
struct ForgetfulDisk {
    disk: TailLossStorage,
    /// An accept record came in since the last barrier.
    dirty: bool,
}

impl Storage for ForgetfulDisk {
    fn save_promised(&mut self, b: Ballot) {
        self.disk.save_promised(b);
    }
    fn save_accepted(&mut self, _: Instance, _: Ballot, _: &Decree) {
        self.dirty = true; // the lie: the record never reaches the disk
    }
    fn save_chosen_prefix(&mut self, upto: Instance) {
        self.disk.save_chosen_prefix(upto);
    }
    fn truncate_upto(&mut self, upto: Instance) {
        self.disk.truncate_upto(upto);
    }
    fn load(&self) -> DurableState {
        self.disk.load()
    }
    fn flush(&mut self) {
        self.disk.flush();
        self.dirty = false;
    }
    fn is_dirty(&self) -> bool {
        self.dirty || self.disk.is_dirty()
    }
    fn checkpoint_begin(&mut self, upto: Instance, dedup: &[DedupEntry], total: usize) {
        self.disk.checkpoint_begin(upto, dedup, total);
    }
    fn checkpoint_chunk(&mut self, idx: usize, data: Bytes) {
        self.disk.checkpoint_chunk(idx, data);
    }
    fn checkpoint_commit(&mut self) {
        self.disk.checkpoint_commit();
    }
    fn checkpoint_abort(&mut self) {
        self.disk.checkpoint_abort();
    }
    fn checkpoint_chunks(&self) -> Option<ChunkedCheckpoint> {
        self.disk.checkpoint_chunks()
    }
}

/// Seeded mutation of the disk ([`ForgetfulDisk`]): every barrier
/// returns, but no accept record survives a power cut. Replica 1 accepts
/// `Write(0)` and answers once its barrier is back; leader 0 counts the
/// vote, commits and tells the client. Then power fails on 1 and takes
/// the record with it; 0 dies, 1 comes back empty-handed and leads with
/// 2's promise, and the read misses the acknowledged write: the
/// linearizability invariant must fire. On an honest disk the same walk
/// is clean: 1 comes back holding the decree and proposes it again.
#[test]
fn a_barrier_that_keeps_no_accept_record_loses_an_acked_write() {
    let walk = |disk: fn() -> Box<dyn Storage>| {
        let base = scenario("accept-ahead-power-cut");
        let opts = check::HarnessOpts {
            crashes: 2,
            ..base.opts
        };
        let mut cl = Cluster::on_disks(&Scenario { opts, ..base }, disk);
        let step = |v: Option<String>| assert_eq!(v, None);
        assert_eq!(establish_leader(&mut cl), 0);
        step(inject(&mut cl)); // Write(0)
        step(deliver_to(&mut cl, 1, |m| matches!(m, Msg::Accept { .. })));
        step(deliver_to(&mut cl, 0, |m| {
            matches!(m, Msg::Accepted { .. })
        }));
        assert_eq!(cl.obs.acked_bits, 0b1, "acknowledged");
        let chosen = cl
            .pending_msg(1, |m| matches!(m, Msg::Chosen { .. }))
            .expect("Chosen to 1");
        step(cl.apply(Choice::PowerCut(chosen)));
        assert!(cl.replica(1).is_none());
        step(choose(&mut cl, |c| matches!(c, Choice::CrashLeader)));
        step(choose(&mut cl, |c| matches!(c, Choice::Recover(1))));
        let held = cl.replica(1).expect("recovered").log_len();
        take_over(&mut cl, 1, 2);
        step(inject(&mut cl)); // Write(1)
        let from_1 = |m: &Msg| matches!(m, Msg::Accept { ballot, .. } if ballot.proposer.0 == 1);
        while let Some(accept) = cl.pending_msg(2, from_1) {
            step(cl.apply(Choice::Deliver(accept)));
            step(deliver_to(&mut cl, 1, |m| {
                matches!(m, Msg::Accepted { .. })
            }));
        }
        (held, read_through(&mut cl, 1, 2))
    };
    assert_eq!(walk(|| Box::new(TailLossStorage::default())), (1, None));
    let (held, v) = walk(|| Box::new(ForgetfulDisk::default()));
    let v = v.expect("the lost acknowledged write must be caught");
    assert!(v.contains("linearizability"), "unexpected violation: {v}");
    assert_eq!(held, 0, "the accept record was lost");
}

/// Seeded mutation of a service's word: it says it answered a read from
/// chosen state ([`ExecCtx::answered_from_chosen_state`]) but read the
/// state the open window left, the decree in flight included.
struct ReadsTheWindow(CheckerApp);

impl App for ReadsTheWindow {
    fn execute(&mut self, req: &Request, ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        let asked = ctx.wants_chosen_state();
        let done = self
            .0
            .execute(req, &mut ExecCtx::new(ctx.now, &mut *ctx.rng));
        if asked {
            ctx.answered_from_chosen_state();
        }
        done
    }
    fn apply(&mut self, req: &Request, update: &StateUpdate) {
        self.0.apply(req, update);
    }
    fn snapshot(&self) -> Bytes {
        self.0.snapshot()
    }
    fn restore(&mut self, snap: &[u8]) {
        self.0.restore(snap);
    }
    fn tentative_begin(&mut self) -> bool {
        self.0.tentative_begin()
    }
    fn tentative_rollback(&mut self) {
        self.0.tentative_rollback();
    }
    fn tentative_commit(&mut self) {
        self.0.tentative_commit();
    }
}

/// A read under a decree in flight is answered from the state before it.
/// Leader 0 executes `Write(0)`, whose `Accept` waits in the network; the
/// first read arrives, is answered, and a confirm round with 1 validates
/// it. Then 1 takes over with 2's promise — neither holds the write — 0
/// steps down, and the second read, issued after the first completed, is
/// answered at 1. Honestly served, both reads miss the write and the walk
/// is clean. Mutated ([`ReadsTheWindow`]), the first read saw a write that
/// was never chosen, the second misses it, and read linearizability
/// fires.
#[test]
fn a_read_that_sees_the_window_trips_linearizability() {
    let walk = |app: fn() -> Box<dyn App>, first_saw: u64| {
        let mut cl = Cluster::with_app(&scenario("confirm-batching"), app);
        let step = |v: Option<String>| assert_eq!(v, None);
        assert_eq!(establish_leader(&mut cl), 0);
        step(inject(&mut cl)); // Write(0)
        let leader = cl.replica(0).expect("live").checker_view();
        assert!(leader.tentative_exec, "the write's window is open");
        // Issued request 1 is the first read; its retransmission (not the
        // write's) launches the round.
        let read = |cl: &mut Cluster, k: usize, leader: u32, voter: u32| {
            inject(cl)
                .or_else(|| cl.apply(Choice::Retransmit(k)))
                .or_else(|| {
                    deliver_to(cl, voter, |m| {
                        matches!(m, Msg::ConfirmReq { ballot, .. } if ballot.proposer.0 == leader)
                    })
                })
                .or_else(|| deliver_to(cl, leader, |m| matches!(m, Msg::ConfirmBatch { .. })))
        };
        step(read(&mut cl, 1, 0, 1));
        assert_eq!(cl.obs.read_mask_floor, first_saw, "the first read's answer");
        take_over(&mut cl, 1, 2);
        step(deliver_to(&mut cl, 0, |m| matches!(m, Msg::Prepare { .. })));
        assert_eq!(cl.leader(), Some(1));
        read(&mut cl, 2, 1, 2)
    };
    assert_eq!(walk(|| Box::new(CheckerApp::new()), 0), None);
    let v = walk(|| Box::new(ReadsTheWindow(CheckerApp::new())), 0b1)
        .expect("a read that saw an unchosen write must be caught");
    assert!(v.contains("linearizability"), "unexpected violation: {v}");
}

/// Replay is deterministic: the same schedule reproduces the same state,
/// so a printed counterexample schedule is sufficient to reproduce it.
#[test]
fn replay_is_deterministic() {
    let s = scenario("leader-crash");
    let schedule = [0, 0, 1, 0, 0];
    let (a, va) = replay(&s, &schedule);
    let (b, vb) = replay(&s, &schedule);
    assert_eq!(va, None);
    assert_eq!(vb, None);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// Replay rejects schedules that index past the available choices.
#[test]
fn replay_reports_bad_schedule() {
    let s = scenario("write-read-lossy");
    let (_, v) = replay(&s, &[usize::MAX]);
    let v = v.expect("out-of-range index must be reported");
    assert!(v.contains("schedule error"), "unexpected violation: {v}");
}
