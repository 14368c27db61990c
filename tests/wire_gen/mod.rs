//! Generators shared by the wire tests: any protocol message, and the
//! ways a frame of one can be garbage.

use bytes::Bytes;
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{
    AcceptedEntry, Command, Decree, DecreeEntry, DedupEntry, StateUpdate,
};
use gridpaxos_core::msg::{ImageRun, Msg};
use gridpaxos_core::request::{
    AbortReason, Reply, ReplyBody, Request, RequestId, RequestKind, TxnCtl,
};
use gridpaxos_core::types::{ClientId, GroupId, Instance, ProcessId, Seq, TxnId};
use proptest::prelude::*;

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(Bytes::from)
}

fn arb_ballot() -> impl Strategy<Value = Ballot> {
    (any::<u64>(), any::<u32>()).prop_map(|(r, p)| Ballot::new(r, ProcessId(p)))
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    any::<u64>().prop_map(Instance)
}

fn arb_request_id() -> impl Strategy<Value = RequestId> {
    (any::<u64>(), any::<u64>()).prop_map(|(c, s)| RequestId::new(ClientId(c), Seq(s)))
}

fn arb_txn_ctl() -> impl Strategy<Value = TxnCtl> {
    prop_oneof![
        any::<u64>().prop_map(|t| TxnCtl::Op { txn: TxnId(t) }),
        (any::<u64>(), any::<u32>()).prop_map(|(t, n)| TxnCtl::Commit {
            txn: TxnId(t),
            n_ops: n
        }),
        any::<u64>().prop_map(|t| TxnCtl::Abort { txn: TxnId(t) }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        arb_request_id(),
        prop_oneof![
            Just(RequestKind::Read),
            Just(RequestKind::Write),
            Just(RequestKind::Original)
        ],
        proptest::option::of(arb_txn_ctl()),
        arb_bytes(),
    )
        .prop_map(|(id, kind, txn, op)| Request { id, kind, txn, op })
}

fn arb_reply_body() -> impl Strategy<Value = ReplyBody> {
    prop_oneof![
        arb_bytes().prop_map(ReplyBody::Ok),
        any::<u64>().prop_map(|t| ReplyBody::TxnCommitted { txn: TxnId(t) }),
        (any::<u64>(), 0..4u8).prop_map(|(t, r)| ReplyBody::TxnAborted {
            txn: TxnId(t),
            reason: match r {
                0 => AbortReason::ClientAbort,
                1 => AbortReason::LeaderSwitch,
                2 => AbortReason::Conflict,
                _ => AbortReason::Unsupported,
            },
        }),
        Just(ReplyBody::Empty),
        Just(ReplyBody::Busy),
    ]
}

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Noop),
        arb_request().prop_map(Command::Req),
        (
            arb_request_id(),
            any::<u64>(),
            proptest::collection::vec(arb_request(), 0..3)
        )
            .prop_map(|(id, t, ops)| Command::TxnCommit {
                id,
                txn: TxnId(t),
                ops
            }),
    ]
}

fn arb_update() -> impl Strategy<Value = StateUpdate> {
    prop_oneof![
        Just(StateUpdate::None),
        arb_bytes().prop_map(StateUpdate::Full),
        arb_bytes().prop_map(StateUpdate::Delta),
        arb_bytes().prop_map(StateUpdate::Reproduce),
    ]
}

/// A decree entry whose reply is a slice of its update's payload at an
/// arbitrary offset and length — what the codec ships as a reference.
fn arb_shared_reply_entry() -> impl Strategy<Value = DecreeEntry> {
    (
        arb_command(),
        0..3u8,
        proptest::collection::vec(any::<u8>(), 1..48),
        any::<usize>(),
        any::<usize>(),
    )
        .prop_map(|(cmd, kind, payload, a, b)| {
            let payload = Bytes::from(payload);
            let start = a % payload.len();
            let end = start + 1 + b % (payload.len() - start);
            let reply = ReplyBody::Ok(payload.slice(start..end));
            let update = match kind {
                0 => StateUpdate::Full(payload),
                1 => StateUpdate::Delta(payload),
                _ => StateUpdate::Reproduce(payload),
            };
            DecreeEntry { cmd, update, reply }
        })
}

fn arb_decree() -> impl Strategy<Value = Decree> {
    let entry = prop_oneof![
        (arb_command(), arb_update(), arb_reply_body())
            .prop_map(|(cmd, update, reply)| DecreeEntry { cmd, update, reply }),
        arb_shared_reply_entry(),
    ];
    proptest::collection::vec(entry, 0..3).prop_map(|entries| Decree {
        entries: entries.into(),
    })
}

fn arb_image_run() -> impl Strategy<Value = ImageRun> {
    (
        arb_instance(),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec((any::<u64>(), any::<u64>(), arb_reply_body()), 0..3),
        proptest::collection::vec(arb_bytes(), 0..3),
    )
        .prop_map(|(upto, total, first, dedup, pieces)| ImageRun {
            upto,
            total,
            first,
            pieces,
            dedup: dedup
                .into_iter()
                .map(|(c, s, reply)| DedupEntry {
                    client: ClientId(c),
                    seq: Seq(s),
                    reply,
                })
                .collect(),
        })
}

/// Every `Msg` variant except the `Grouped` envelope (which must not
/// nest, so it gets its own wrapper strategy below).
fn arb_plain_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        arb_request().prop_map(Msg::Request),
        (
            arb_request_id(),
            any::<u32>(),
            arb_instance(),
            arb_reply_body()
        )
            .prop_map(|(id, l, wm, body)| {
                Msg::Reply(Reply {
                    id,
                    leader: ProcessId(l),
                    watermark: wm,
                    body,
                })
            }),
        (
            arb_ballot(),
            arb_instance(),
            proptest::collection::vec(arb_instance(), 0..4)
        )
            .prop_map(|(ballot, chosen_prefix, known_above)| Msg::Prepare {
                ballot,
                chosen_prefix,
                known_above,
            }),
        (
            arb_ballot(),
            arb_instance(),
            proptest::collection::vec((arb_instance(), arb_ballot(), arb_decree()), 0..3),
        )
            .prop_map(|(ballot, chosen_prefix, accepted)| Msg::Promise {
                ballot,
                chosen_prefix,
                accepted: accepted
                    .into_iter()
                    .map(|(instance, ballot, decree)| AcceptedEntry {
                        instance,
                        ballot,
                        decree,
                    })
                    .collect(),
            }),
        (arb_ballot(), arb_ballot())
            .prop_map(|(ballot, promised)| Msg::PrepareNack { ballot, promised }),
        (
            arb_ballot(),
            proptest::collection::vec((arb_instance(), arb_decree()), 0..3)
        )
            .prop_map(|(ballot, entries)| Msg::Accept { ballot, entries }),
        (
            arb_ballot(),
            proptest::collection::vec(arb_instance(), 0..5)
        )
            .prop_map(|(ballot, instances)| Msg::Accepted { ballot, instances }),
        (arb_ballot(), arb_ballot())
            .prop_map(|(ballot, promised)| Msg::AcceptNack { ballot, promised }),
        (arb_ballot(), arb_instance()).prop_map(|(ballot, upto)| Msg::Chosen { ballot, upto }),
        (arb_ballot(), arb_request_id()).prop_map(|(ballot, read)| Msg::Confirm { ballot, read }),
        (arb_ballot(), any::<u64>(), any::<bool>()).prop_map(|(ballot, epoch, backlog)| {
            Msg::ConfirmReq {
                ballot,
                epoch,
                backlog,
            }
        }),
        (arb_ballot(), any::<u64>())
            .prop_map(|(ballot, epoch)| Msg::ConfirmBatch { ballot, epoch }),
        (arb_ballot(), arb_instance(), any::<u64>()).prop_map(|(ballot, chosen, hb_seq)| {
            Msg::Heartbeat {
                ballot,
                chosen,
                hb_seq,
            }
        }),
        (arb_ballot(), any::<u64>())
            .prop_map(|(ballot, hb_seq)| Msg::HeartbeatAck { ballot, hb_seq }),
        (
            arb_instance(),
            proptest::option::of((arb_instance(), any::<u32>()))
        )
            .prop_map(|(have, resume)| Msg::CatchUpReq { have, resume }),
        (
            arb_ballot(),
            proptest::option::of(arb_image_run()),
            proptest::collection::vec((arb_instance(), arb_decree()), 0..3),
        )
            .prop_map(|(ballot, image, entries)| Msg::CatchUp {
                ballot,
                image,
                entries
            }),
    ]
}

/// Any message, sometimes wrapped in a (never-nested) group envelope.
pub fn arb_msg() -> impl Strategy<Value = Msg> {
    (any::<bool>(), any::<u32>(), arb_plain_msg()).prop_map(|(wrap, group, inner)| {
        if wrap {
            Msg::Grouped {
                group: GroupId(group),
                inner: Box::new(inner),
            }
        } else {
            inner
        }
    })
}

/// One way a frame on the wire can be garbage.
#[derive(Clone, Copy, Debug)]
pub enum Mutation {
    /// XOR the byte at the offset with a nonzero mask.
    Flip(u8),
    /// Cut the encoding at the offset.
    Truncate,
    /// Overwrite four bytes from the offset (clamped to the end) with
    /// `0xff`: a length or a count as large as its field holds.
    Saturate,
}

pub fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (1u8..=255).prop_map(Mutation::Flip),
        Just(Mutation::Truncate),
        Just(Mutation::Saturate),
    ]
}

pub fn mutate(encoded: &[u8], how: Mutation, at: usize) -> Vec<u8> {
    let mut bytes = encoded.to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    let at = at % bytes.len();
    match how {
        Mutation::Flip(mask) => bytes[at] ^= mask,
        Mutation::Truncate => bytes.truncate(at),
        Mutation::Saturate => {
            let end = (at + 4).min(bytes.len());
            bytes[end.saturating_sub(4)..end].fill(0xff);
        }
    }
    bytes
}
