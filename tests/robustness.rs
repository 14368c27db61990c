//! Adversarial robustness: a replica fed arbitrary (even nonsensical)
//! protocol messages must never panic, and must keep serving honest
//! traffic afterwards. Byzantine behavior is out of the model (§3.1), but
//! crashing on garbage would make even crash-fault tolerance moot.

use bytes::Bytes;
use gridpaxos::core::ballot::Ballot;
use gridpaxos::core::command::{AcceptedEntry, Command, Decree, StateUpdate};
use gridpaxos::core::msg::ImageRun;
use gridpaxos::core::msg::Msg;
use gridpaxos::core::prelude::*;
use gridpaxos::core::request::RequestId;
use proptest::prelude::*;

fn arb_ballot() -> impl Strategy<Value = Ballot> {
    (0u64..5, 0u32..4).prop_map(|(r, p)| Ballot::new(r, ProcessId(p)))
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (0u64..20).prop_map(Instance)
}

fn arb_request() -> impl Strategy<Value = gridpaxos::core::request::Request> {
    (
        0u64..4,
        0u64..6,
        prop_oneof![
            Just(RequestKind::Read),
            Just(RequestKind::Write),
            Just(RequestKind::Original)
        ],
        proptest::option::of(prop_oneof![
            (0u64..3).prop_map(|t| TxnCtl::Op { txn: TxnId(t) }),
            (0u64..3, 0u32..4).prop_map(|(t, n)| TxnCtl::Commit {
                txn: TxnId(t),
                n_ops: n
            }),
            (0u64..3).prop_map(|t| TxnCtl::Abort { txn: TxnId(t) }),
        ]),
    )
        .prop_map(|(c, s, kind, txn)| gridpaxos::core::request::Request {
            id: RequestId::new(ClientId(c), Seq(s)),
            kind,
            txn,
            op: Bytes::new(),
        })
}

fn arb_decree() -> impl Strategy<Value = Decree> {
    proptest::collection::vec((arb_request(), proptest::option::of(0u64..3)), 0..3).prop_map(
        |entries| Decree {
            entries: entries
                .into_iter()
                .map(|(r, txn)| gridpaxos::core::command::DecreeEntry {
                    cmd: match txn {
                        None => Command::Req(r),
                        Some(t) => Command::TxnCommit {
                            id: r.id,
                            txn: TxnId(t),
                            ops: vec![r],
                        },
                    },
                    update: StateUpdate::Full(Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8])),
                    reply: ReplyBody::Empty,
                })
                .collect(),
        },
    )
}

/// Runs of a small image, hostile counts included: a `total` of zero or
/// `u32::MAX`, a `first` past it.
fn arb_image() -> impl Strategy<Value = Option<ImageRun>> {
    let total = prop_oneof![0u32..4, Just(u32::MAX)];
    proptest::option::of(
        (0u64..20, total, 0u32..4).prop_map(|(u, total, first)| ImageRun {
            upto: Instance(u),
            total,
            first,
            dedup: vec![],
            pieces: vec![Bytes::from_static(&[9u8; 8])],
        }),
    )
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        arb_request().prop_map(Msg::Request),
        (arb_ballot(), arb_instance()).prop_map(|(b, i)| Msg::Prepare {
            ballot: b,
            chosen_prefix: i,
            known_above: vec![],
        }),
        (arb_ballot(), arb_instance(), arb_decree()).prop_map(|(b, i, d)| {
            Msg::Promise {
                ballot: b,
                chosen_prefix: i,
                accepted: vec![AcceptedEntry {
                    instance: i.next(),
                    ballot: b,
                    decree: d,
                }],
            }
        }),
        (arb_ballot(), arb_instance(), arb_decree()).prop_map(|(b, i, d)| Msg::Accept {
            ballot: b,
            entries: vec![(i, d)]
        }),
        (arb_ballot(), arb_instance()).prop_map(|(b, i)| Msg::Accepted {
            ballot: b,
            instances: vec![i]
        }),
        (arb_ballot(), arb_ballot()).prop_map(|(b, p)| Msg::AcceptNack {
            ballot: b,
            promised: p
        }),
        (arb_ballot(), arb_ballot()).prop_map(|(b, p)| Msg::PrepareNack {
            ballot: b,
            promised: p
        }),
        (arb_ballot(), arb_instance()).prop_map(|(b, i)| Msg::Chosen { ballot: b, upto: i }),
        (arb_ballot(), 0u64..4, 0u64..6).prop_map(|(b, c, s)| Msg::Confirm {
            ballot: b,
            read: RequestId::new(ClientId(c), Seq(s)),
        }),
        (arb_ballot(), arb_instance(), 0u64..9).prop_map(|(b, c, h)| Msg::Heartbeat {
            ballot: b,
            chosen: c,
            hb_seq: h
        }),
        (arb_ballot(), 0u64..9).prop_map(|(b, h)| Msg::HeartbeatAck {
            ballot: b,
            hb_seq: h
        }),
        (
            arb_instance(),
            proptest::option::of((arb_instance(), 0u32..4))
        )
            .prop_map(|(i, resume)| Msg::CatchUpReq { have: i, resume }),
        (arb_ballot(), arb_image(), arb_instance(), arb_decree()).prop_map(|(b, image, i, d)| {
            Msg::CatchUp {
                ballot: b,
                image,
                entries: vec![(i, d)],
            }
        }),
    ]
}

fn arb_sender() -> impl Strategy<Value = Addr> {
    prop_oneof![
        (0u32..4).prop_map(|p| Addr::Replica(ProcessId(p))),
        (0u64..4).prop_map(|c| Addr::Client(ClientId(c))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn replica_survives_arbitrary_message_storms(
        msgs in proptest::collection::vec((arb_sender(), arb_msg()), 1..60),
        timers in proptest::collection::vec(0u8..5, 0..10),
        seed in 0u64..1000,
    ) {
        // A leader, a follower, and a candidate each absorb the storm.
        for bootstrap in [Some(ProcessId(0)), None] {
            let cfg = Config::cluster(3).with_bootstrap_leader(bootstrap);
            let mut r = Replica::new(
                ProcessId(0),
                cfg,
                Box::new(NoopApp::new()),
                Box::new(MemStorage::new()),
                seed,
                Time::ZERO,
            );
            let _ = r.on_start(Time::ZERO);
            let mut now = Time(1);
            for (from, msg) in &msgs {
                let _ = r.on_message(*from, msg.clone(), now);
                now = Time(now.0 + 1_000_000);
            }
            for t in &timers {
                let kind = match t {
                    0 => TimerKind::Heartbeat,
                    1 => TimerKind::LeaderCheck,
                    2 => TimerKind::Retransmit,
                    3 => TimerKind::Election,
                    _ => TimerKind::BatchWindow,
                };
                let _ = r.on_timer(kind, now);
                now = Time(now.0 + 1_000_000);
            }
            // Still alive and introspectable.
            let _ = r.service_snapshot();
            let _ = r.chosen_prefix();
        }
    }
}
