//! The real nondeterministic services (§2) running replicated on the
//! simulator: the randomized resource broker and the timing-dependent
//! scheduler, plus the transactional KV store — with crashes thrown in.

use bytes::Bytes;
use gridpaxos::core::prelude::*;
use gridpaxos::services::{Broker, BrokerOp, KvOp, KvStore, SchedOp, Scheduler};
use gridpaxos::simnet::workload::Driver;
use gridpaxos::simnet::{SimOpts, Topology, World};

const START: Time = Time(200_000_000);
const DEADLINE: Time = Time(3_600_000_000_000);

/// Drives a fixed list of (kind, payload) ops, closed loop.
struct Script {
    steps: Vec<(RequestKind, Bytes)>,
    next: usize,
    outstanding: bool,
    replies: Vec<ReplyBody>,
}

impl Script {
    fn new(steps: Vec<(RequestKind, Bytes)>) -> Script {
        Script {
            steps,
            next: 0,
            outstanding: false,
            replies: Vec::new(),
        }
    }
}

impl Driver for Script {
    fn kick(
        &mut self,
        core: &mut gridpaxos::core::client::ClientCore,
        now: Time,
    ) -> Option<Vec<Action>> {
        if self.outstanding || self.next >= self.steps.len() {
            return None;
        }
        let (kind, payload) = self.steps[self.next].clone();
        self.next += 1;
        self.outstanding = true;
        Some(core.submit_op(kind, payload, now))
    }

    fn on_complete(
        &mut self,
        done: &gridpaxos::core::client::CompletedOp,
        _now: Time,
        _m: &mut gridpaxos::simnet::Metrics,
    ) {
        self.outstanding = false;
        self.replies.push(done.body.clone());
    }

    fn done(&self) -> bool {
        !self.outstanding && self.next >= self.steps.len()
    }
}

fn settle_states(w: &mut World) -> Vec<(Instance, Bytes)> {
    let settle = w.now.after(Dur::from_secs(2));
    w.run_until(settle);
    w.replica_states()
}

#[test]
fn broker_randomized_placements_replicate_consistently_across_crash() {
    let cfg = Config::cluster(3);
    let opts = SimOpts::for_topology(Topology::sysnet(3), 17);
    let mut w = World::new(cfg, opts, Box::new(|| Box::new(Broker::new())));

    let mut steps: Vec<(RequestKind, Bytes)> = ["m1", "m2", "m3"]
        .iter()
        .map(|m| {
            (
                RequestKind::Write,
                BrokerOp::AddResource {
                    name: (*m).into(),
                    capacity: 20,
                }
                .encode(),
            )
        })
        .collect();
    for task in 0..40u64 {
        steps.push((
            RequestKind::Write,
            BrokerOp::Request { task, units: 1 }.encode(),
        ));
    }
    w.add_client(Box::new(Script::new(steps)), None, START);
    w.crash_at(ProcessId(0), Time(Dur::from_millis(500).0));
    w.recover_at(ProcessId(0), Time(Dur::from_secs(2).0));
    assert!(w.run_to_completion(DEADLINE));

    let states = settle_states(&mut w);
    assert!(states.windows(2).all(|p| p[0] == p[1]), "brokers diverged");

    // Capacity accounting is intact: 40 units allocated out of 60.
    let mut broker = Broker::new();
    use gridpaxos::core::service::App as _;
    broker.restore(&states[0].1);
    assert_eq!(broker.free_units(), 20);
    for task in 0..40u64 {
        assert!(broker.placement(task).is_some(), "task {task} placed");
    }
}

#[test]
fn scheduler_decisions_replicate_across_crash() {
    let cfg = Config::cluster(3);
    let opts = SimOpts::for_topology(Topology::sysnet(3), 23);
    let mut w = World::new(cfg, opts, Box::new(|| Box::new(Scheduler::new())));

    let mut steps: Vec<(RequestKind, Bytes)> = vec![(
        RequestKind::Write,
        SchedOp::AddMachine {
            name: "m".into(),
            slots: 8,
        }
        .encode(),
    )];
    for job in 0..8u64 {
        steps.push((
            RequestKind::Write,
            SchedOp::Submit {
                job,
                priority: (job % 4) as u32,
            }
            .encode(),
        ));
    }
    for _ in 0..8 {
        steps.push((RequestKind::Write, SchedOp::Dispatch.encode()));
    }
    steps.push((RequestKind::Read, SchedOp::QueueLen.encode()));
    w.add_client(Box::new(Script::new(steps)), None, START);
    w.crash_at(ProcessId(0), Time(Dur::from_millis(400).0));
    assert!(w.run_to_completion(DEADLINE));

    let states = settle_states(&mut w);
    assert!(
        states.windows(2).all(|p| p[0] == p[1]),
        "schedulers diverged"
    );

    use gridpaxos::core::service::App as _;
    let mut sched = Scheduler::new();
    sched.restore(&states[0].1);
    assert_eq!(sched.queue_len(), 0, "everything dispatched");
    for job in 0..8u64 {
        assert!(sched.running_on(job).is_some(), "job {job} running");
    }
}

#[test]
fn kv_store_concurrent_clients_and_crash() {
    let cfg = Config::cluster(3);
    let opts = SimOpts::for_topology(Topology::sysnet(3), 31);
    let mut w = World::new(cfg, opts, Box::new(|| Box::new(KvStore::new())));

    for c in 0..4u64 {
        let steps: Vec<(RequestKind, Bytes)> = (0..25)
            .map(|_| {
                (
                    RequestKind::Write,
                    KvOp::Add(format!("acct-{c}"), 1).encode(),
                )
            })
            .collect();
        w.add_client(Box::new(Script::new(steps)), None, START);
    }
    w.crash_at(ProcessId(0), Time(Dur::from_millis(400).0));
    w.recover_at(ProcessId(0), Time(Dur::from_secs(2).0));
    assert!(w.run_to_completion(DEADLINE));

    let states = settle_states(&mut w);
    assert!(states.windows(2).all(|p| p[0] == p[1]), "stores diverged");

    use gridpaxos::core::service::App as _;
    let mut kv = KvStore::new();
    kv.restore(&states[0].1);
    for c in 0..4u64 {
        assert_eq!(
            kv.get(&format!("acct-{c}")),
            Some("25"),
            "at-most-once Add for client {c}"
        );
    }
}

#[test]
fn kv_reads_see_latest_committed_value() {
    let cfg = Config::cluster(3);
    let opts = SimOpts::for_topology(Topology::sysnet(3), 37);
    let mut w = World::new(cfg, opts, Box::new(|| Box::new(KvStore::new())));

    let mut steps = Vec::new();
    for i in 0..10 {
        steps.push((
            RequestKind::Write,
            KvOp::Put("x".into(), i.to_string()).encode(),
        ));
        steps.push((RequestKind::Read, KvOp::Get("x".into()).encode()));
    }
    w.add_client(Box::new(Script::new(steps)), None, START);
    assert!(w.run_to_completion(DEADLINE));
    // We cannot reach into the driver after the run, but the service-level
    // invariant is covered by the alternating driver in
    // simnet_end_to_end.rs; here we assert convergence + final value.
    let states = settle_states(&mut w);
    assert!(states.windows(2).all(|p| p[0] == p[1]));
    use gridpaxos::core::service::App as _;
    let mut kv = KvStore::new();
    kv.restore(&states[0].1);
    assert_eq!(kv.get("x"), Some("9"));
}

// ---------------------------------------------------------------------
// A plain write's decree keeps the request body only where `apply` reads it
// ---------------------------------------------------------------------

/// `(request body bytes, update bytes)` of every plain-request entry in
/// the leader's log.
fn leader_entries(w: &World) -> Vec<(usize, usize)> {
    let leader = w.replica(w.leader().expect("leader")).expect("up");
    let entries = leader
        .log()
        .iter_accepted()
        .flat_map(|(_, (_, decree))| decree.entries.iter());
    entries
        .filter_map(|e| match &e.cmd {
            Command::Req(req) => Some((req.op.len(), e.update.payload_len())),
            _ => None,
        })
        .collect()
}

/// A `KvStore` delta names its own keys and values, so the log, the WAL
/// record and the `Accept` carry identity + update + reply and no second
/// copy of the value — and a follower that applied such decrees holds
/// what a store that executed the requests holds.
#[test]
fn kv_decrees_carry_no_request_body_and_followers_hold_the_leaders_state() {
    let ops = [
        KvOp::Put("a".into(), "x".repeat(300)),
        KvOp::Add("n".into(), 5),
        KvOp::Put("b".into(), "y".repeat(300)),
        KvOp::Del("a".into()),
        KvOp::Add("n".into(), -2),
    ];
    let opts = SimOpts::for_topology(Topology::sysnet(3), 41);
    let mut w = World::new(
        Config::cluster(3),
        opts,
        Box::new(|| Box::new(KvStore::new())),
    );
    let steps = ops.iter().map(|op| (RequestKind::Write, op.encode()));
    w.add_client(Box::new(Script::new(steps.collect())), None, START);
    assert!(w.run_to_completion(DEADLINE));
    let states = settle_states(&mut w);

    let entries = leader_entries(&w);
    assert_eq!(entries.len(), ops.len());
    assert!(
        entries.iter().all(|(op, update)| *op == 0 && *update > 0),
        "{entries:?}"
    );

    use gridpaxos::core::service::App as _;
    let mut executed = KvStore::new();
    let mut rng = rand::SeedableRng::seed_from_u64(1);
    for (seq, op) in ops.iter().enumerate() {
        let id = RequestId::new(ClientId(9), Seq(seq as u64 + 1));
        let req = Request::new(id, RequestKind::Write, op.encode());
        executed.execute(&req, &mut ExecCtx::new(Time::ZERO, &mut rng));
    }
    assert_eq!(states.len(), 3);
    for (_, state) in &states {
        assert_eq!(*state, executed.snapshot());
    }
}

/// The classic baseline ships the request alone and every replica
/// executes it: there the body stays, `KvStore` or not.
#[test]
fn kv_decrees_keep_the_request_body_under_req_only() {
    let opts = SimOpts::for_topology(Topology::sysnet(3), 43);
    let cfg = Config::cluster(3).with_value_mode(ValueMode::ReqOnly);
    let mut w = World::new(cfg, opts, Box::new(|| Box::new(KvStore::new())));
    let put = KvOp::Put("a".into(), "x".repeat(300)).encode();
    let steps = vec![(RequestKind::Write, put.clone()); 3];
    w.add_client(Box::new(Script::new(steps)), None, START);
    assert!(w.run_to_completion(DEADLINE));
    let states = settle_states(&mut w);
    assert_eq!(leader_entries(&w), vec![(put.len(), 0); 3]);
    assert!(states.windows(2).all(|p| p[0] == p[1]), "stores diverged");
}

/// `Scheduler::apply` and `Broker::apply` decode `req.op` beside the
/// update (a dispatch decision, a placement: not the operation), so they
/// do not say the update subsumes it. The seeded mutation — claim it for
/// them — strips the scheduler's body and leaves its followers unable to
/// apply: the replicas diverge. The broker's `Reproduce` record is by
/// definition replayed from the request, so no claim strips that.
#[test]
fn scheduler_and_broker_decrees_keep_the_request_body_their_apply_reads() {
    /// The mutation: claims subsumption on `A`'s behalf.
    struct Stripped<A>(A);
    impl<A: App> App for Stripped<A> {
        fn execute(&mut self, req: &Request, ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
            ctx.update_subsumes_op();
            self.0.execute(req, ctx)
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
    }

    let sched_steps = || {
        let add = SchedOp::AddMachine {
            name: "m".into(),
            slots: 4,
        };
        let submit = |job| SchedOp::Submit { job, priority: 1 };
        let ops = [add, submit(1), submit(2), SchedOp::Dispatch];
        ops.map(|op| (RequestKind::Write, op.encode())).to_vec()
    };
    let broker_steps = || {
        let add = BrokerOp::AddResource {
            name: "m".into(),
            capacity: 4,
        };
        let ops = [add, BrokerOp::Request { task: 1, units: 1 }];
        ops.map(|op| (RequestKind::Write, op.encode())).to_vec()
    };
    type Build = Box<dyn Fn() -> Box<dyn App> + Send>;
    let run = |steps: Vec<(RequestKind, Bytes)>, app: Build| {
        let opts = SimOpts::for_topology(Topology::sysnet(3), 47);
        let mut w = World::new(Config::cluster(3), opts, app);
        w.add_client(Box::new(Script::new(steps)), None, START);
        assert!(w.run_to_completion(DEADLINE));
        let states = settle_states(&mut w);
        let kept = leader_entries(&w).iter().all(|(op, _)| *op > 0);
        (kept, states.windows(2).all(|p| p[0] == p[1]))
    };

    let honest: [(_, Build); 2] = [
        (sched_steps(), Box::new(|| Box::new(Scheduler::new()))),
        (broker_steps(), Box::new(|| Box::new(Broker::new()))),
    ];
    for (steps, app) in honest {
        assert_eq!(run(steps, app), (true, true), "body kept, replicas equal");
    }
    let stripped: Build = Box::new(|| Box::new(Stripped(Scheduler::new())));
    assert_eq!(
        run(sched_steps(), stripped),
        (false, false),
        "replicas apart"
    );
    let reproduced: Build = Box::new(|| Box::new(Stripped(Broker::new())));
    assert_eq!(run(broker_steps(), reproduced), (true, true));
}
