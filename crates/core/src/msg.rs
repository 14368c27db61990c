//! Protocol messages exchanged between clients and replicas.
//!
//! One flat enum keeps the transports simple: both the simulator and the
//! real TCP transport ship `Msg` values end to end.

use crate::ballot::Ballot;
use crate::command::{AcceptedEntry, Decree, DedupEntry};
use crate::request::{Reply, Request, RequestId};
use crate::types::{GroupId, Instance};

/// A protocol message.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Msg {
    // ----- client <-> replicas ------------------------------------------
    /// Client request; clients send it to **all** replicas (§3.3: "Clients
    /// send requests to all service replicas so that they do not need to
    /// know which replica is the current leader").
    Request(Request),
    /// Reply from the leader (only the leader replies).
    Reply(Reply),

    // ----- Paxos: prepare phase -----------------------------------------
    /// A candidate declares ballot `ballot` and asks for promises. One
    /// message covers *all* open instances (§3.3): the candidate states the
    /// prefix it already knows chosen (`chosen_prefix`) and any instances
    /// above it that it also knows (`known_above`, e.g. the "90" in the
    /// paper's 88/89/90 example); promisers fill in the rest.
    Prepare {
        /// Candidate's ballot.
        ballot: Ballot,
        /// All instances `<= chosen_prefix` are known chosen by the candidate.
        chosen_prefix: Instance,
        /// Additional instances above the prefix known chosen by the candidate.
        known_above: Vec<Instance>,
    },
    /// Positive answer to a [`Msg::Prepare`].
    Promise {
        /// The ballot being promised.
        ballot: Ballot,
        /// The promiser's own contiguous chosen prefix: a candidate behind
        /// the highest of its majority pulls up to it by catch-up before it
        /// leads. A promise carries no state.
        chosen_prefix: Instance,
        /// Accepted entries above both prefixes that the candidate does not
        /// already know chosen.
        accepted: Vec<AcceptedEntry>,
    },
    /// Negative answer: the receiver already promised a higher ballot.
    /// Tells the candidate to back off (and who outbid it).
    PrepareNack {
        /// Ballot that was rejected.
        ballot: Ballot,
        /// The higher ballot the receiver is bound to.
        promised: Ballot,
    },

    // ----- Paxos: accept phase ------------------------------------------
    /// Accept request. Normally a single `(instance, decree)`; during
    /// recovery one message carries the whole batch of re-proposed and
    /// gap-filling decrees (§3.3: "executes the accept phases of instances
    /// 88, 89, and 91 by sending one single message").
    Accept {
        /// Leader's ballot.
        ballot: Ballot,
        /// Proposals, ordered by instance.
        entries: Vec<(Instance, Decree)>,
    },
    /// Acknowledgement of an [`Msg::Accept`].
    Accepted {
        /// Ballot the acceptor accepted under.
        ballot: Ballot,
        /// Instances acknowledged.
        instances: Vec<Instance>,
    },
    /// Rejection: the acceptor has promised a higher ballot.
    AcceptNack {
        /// Ballot that was rejected.
        ballot: Ballot,
        /// The higher ballot the acceptor is bound to.
        promised: Ballot,
    },
    /// Commit notification: every instance `<= upto` proposed under
    /// `ballot` is chosen. Receivers holding the matching accepted entries
    /// apply them in order; anyone missing entries requests catch-up.
    Chosen {
        /// Leader's ballot.
        ballot: Ballot,
        /// Chosen prefix under this leadership.
        upto: Instance,
    },

    // ----- X-Paxos (§3.4) -------------------------------------------------
    /// Confirmation vote for a read: sent by every replica, upon receiving
    /// a read request from a client, to the process with the highest ballot
    /// it has accepted. The leader replies to the client only after a
    /// majority confirms — guaranteeing only the *latest* leader answers.
    Confirm {
        /// The ballot the sender believes is the current leadership.
        ballot: Ballot,
        /// The read being confirmed.
        read: RequestId,
    },
    /// Batched-confirm round request (extension, §3.4 amortized): the
    /// leader seals every open read into confirm epoch `epoch` and asks
    /// followers to validate the whole epoch with one answer instead of one
    /// [`Msg::Confirm`] per read. The round launches the moment a read
    /// arrives with no round in flight, so a lone read never waits on a
    /// batching window.
    ConfirmReq {
        /// Leader's ballot.
        ballot: Ballot,
        /// The confirm epoch being sealed; monotonically increasing per
        /// leadership.
        epoch: u64,
        /// True when the round covers more than one read — tells followers
        /// the leader is under read load, so they should stop sending
        /// per-read [`Msg::Confirm`]s (the traffic this extension removes)
        /// until a single-read round lifts the suppression.
        backlog: bool,
    },
    /// A follower's answer to a [`Msg::ConfirmReq`]: one message validates
    /// *every* read the leader opened in epoch `epoch` or earlier —
    /// "I have accepted no ballot higher than `ballot`" holds at a point
    /// after all those reads arrived, which is exactly what a per-read
    /// confirm certifies.
    ConfirmBatch {
        /// The ballot being confirmed (must match the sender's promise).
        ballot: Ballot,
        /// The epoch being confirmed.
        epoch: u64,
    },

    // ----- liveness / leader election -------------------------------------
    /// Leader heartbeat; doubles as a `Chosen` retransmission, and its
    /// absence is what followers' failure detectors time out on.
    Heartbeat {
        /// Leader's ballot.
        ballot: Ballot,
        /// Leader's chosen prefix.
        chosen: Instance,
        /// Monotonic heartbeat number, echoed by lease acks so the leader
        /// can anchor a lease to the heartbeat's *send* time.
        hb_seq: u64,
    },
    /// A follower's acknowledgement of a heartbeat — only sent in
    /// [`crate::config::ReadMode::Lease`] mode; a majority of acks for one
    /// heartbeat grants the leader a read lease.
    HeartbeatAck {
        /// The leadership being acknowledged.
        ballot: Ballot,
        /// Which heartbeat.
        hb_seq: u64,
    },

    // ----- catch-up / state transfer ---------------------------------------
    /// A replica that is behind — a follower, or a candidate behind its
    /// promisers — asks one that is ahead for what follows `have`.
    CatchUpReq {
        /// The requester's contiguous chosen prefix.
        have: Instance,
        /// The image being assembled and the first piece it lacks, as
        /// `(upto, piece)`: a server holding that image resumes there.
        resume: Option<(Instance, u32)>,
    },
    /// The one reply to a [`Msg::CatchUpReq`]: image pieces where the
    /// server's log no longer reaches back to the requester, then chosen
    /// decrees. They share one budget of [`crate::log::LOG_BYTES_FLOOR`]
    /// payload bytes, which the last piece or decree may pass.
    CatchUp {
        /// The server's promised ballot.
        ballot: Ballot,
        /// Consecutive pieces of the server's stored image.
        image: Option<ImageRun>,
        /// Missing chosen decrees, ordered by instance.
        entries: Vec<(Instance, Decree)>,
    },

    // ----- multi-group sharding (extension) --------------------------------
    /// Envelope tagging `inner` with the consensus group it belongs to.
    /// Only emitted by multi-group deployments (`n_groups > 1`); a
    /// single-group deployment never wraps, so its byte stream is
    /// identical to the unsharded protocol. Never nested.
    Grouped {
        /// Destination consensus group.
        group: GroupId,
        /// The protocol message, unchanged.
        inner: Box<Msg>,
    },
}

/// Consecutive pieces of a stored image, each a slice of at most
/// `checkpoint_chunk_bytes` of one stored chunk, whatever the service's
/// chunking. The requester stores the pieces as the image's chunks.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct ImageRun {
    /// The image reflects every instance `<= upto`.
    pub upto: Instance,
    /// Pieces in the whole image.
    pub total: u32,
    /// Index of `pieces[0]` within the image.
    pub first: u32,
    /// The image's dedup table when `first` is 0; empty otherwise.
    pub dedup: Vec<DedupEntry>,
    /// The pieces, in order.
    pub pieces: Vec<bytes::Bytes>,
}

impl ImageRun {
    /// Payload bytes: the pieces, and the replies the dedup table holds.
    #[must_use]
    pub fn bytes(&self) -> usize {
        let replies = self.dedup.iter().filter_map(|e| e.reply.payload());
        let pieces = self.pieces.iter();
        replies.chain(pieces).map(|b| b.len()).sum()
    }
}

impl Msg {
    /// Short tag for tracing and metrics.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Msg::Request(_) => "request",
            Msg::Reply(_) => "reply",
            Msg::Prepare { .. } => "prepare",
            Msg::Promise { .. } => "promise",
            Msg::PrepareNack { .. } => "prepare_nack",
            Msg::Accept { .. } => "accept",
            Msg::Accepted { .. } => "accepted",
            Msg::AcceptNack { .. } => "accept_nack",
            Msg::Chosen { .. } => "chosen",
            Msg::Confirm { .. } => "confirm",
            Msg::ConfirmReq { .. } => "confirm_req",
            Msg::ConfirmBatch { .. } => "confirm_batch",
            Msg::Heartbeat { .. } => "heartbeat",
            Msg::HeartbeatAck { .. } => "heartbeat_ack",
            Msg::CatchUpReq { .. } => "catchup_req",
            Msg::CatchUp { .. } => "catchup",
            // The envelope is transparent for tracing: what matters is the
            // protocol message it carries.
            Msg::Grouped { inner, .. } => inner.tag(),
        }
    }

    /// Whether this message belongs to the replica-to-replica coordination
    /// traffic (as opposed to client traffic). Used by the metrics layer to
    /// report replication overhead separately.
    #[must_use]
    pub fn is_coordination(&self) -> bool {
        match self {
            Msg::Request(_) | Msg::Reply(_) => false,
            Msg::Grouped { inner, .. } => inner.is_coordination(),
            Msg::Prepare { .. }
            | Msg::Promise { .. }
            | Msg::PrepareNack { .. }
            | Msg::Accept { .. }
            | Msg::Accepted { .. }
            | Msg::AcceptNack { .. }
            | Msg::Chosen { .. }
            | Msg::Confirm { .. }
            | Msg::ConfirmReq { .. }
            | Msg::ConfirmBatch { .. }
            | Msg::Heartbeat { .. }
            | Msg::HeartbeatAck { .. }
            | Msg::CatchUpReq { .. }
            | Msg::CatchUp { .. } => true,
        }
    }

    /// Whether a drive loop may hand this message to the network *before*
    /// the flush barrier its step made due, instead of after it.
    ///
    /// Only `Accept` may: it asks the receivers to record a decree and
    /// acknowledges nothing on its sender's disk, so the leader's sync can
    /// run beside the followers' round trip instead of before it (§3.4's
    /// trick, applied to §3.1's stable storage). The sender's own vote for
    /// the decree is the unflushed record; the loop must finish the
    /// barrier before that replica's next step, which is the earliest a
    /// follower's `Accepted` could join the vote into a quorum.
    ///
    /// Everything else waits, each for a reason (DESIGN.md §5 has the
    /// table): `Prepare` announces a ballot its sender must never reuse,
    /// so the promise to itself has to survive a crash; `Promise` and
    /// `Accepted` acknowledge records; `Reply` and `Chosen` announce a
    /// commit that, in a singleton group, rests on the unflushed record
    /// alone; the rest may follow an installed snapshot, or gain nothing
    /// from leaving early.
    /// Crate-private, so that [`crate::outbox`] is its one caller.
    pub(crate) fn precedes_barrier(&self) -> bool {
        match self {
            Msg::Accept { .. } => true,
            Msg::Grouped { inner, .. } => inner.precedes_barrier(),
            Msg::Request(_)
            | Msg::Reply(_)
            | Msg::Prepare { .. }
            | Msg::Promise { .. }
            | Msg::PrepareNack { .. }
            | Msg::Accepted { .. }
            | Msg::AcceptNack { .. }
            | Msg::Chosen { .. }
            | Msg::Confirm { .. }
            | Msg::ConfirmReq { .. }
            | Msg::ConfirmBatch { .. }
            | Msg::Heartbeat { .. }
            | Msg::HeartbeatAck { .. }
            | Msg::CatchUpReq { .. }
            | Msg::CatchUp { .. } => false,
        }
    }

    /// Approximate on-the-wire size in bytes (headers + payloads). Used by
    /// the simulator's bandwidth model; tracks the transport codec closely
    /// enough for transmission-delay purposes without depending on it.
    #[must_use]
    pub fn approx_wire_len(&self) -> usize {
        const HDR: usize = 8; // frame length + tag + slack
        fn req_len(r: &Request) -> usize {
            16 + 1 + 13 + 4 + r.op.len()
        }
        fn reply_body_len(b: &crate::request::ReplyBody) -> usize {
            match b {
                crate::request::ReplyBody::Ok(p) => 5 + p.len(),
                crate::request::ReplyBody::TxnCommitted { .. }
                | crate::request::ReplyBody::TxnAborted { .. }
                | crate::request::ReplyBody::TxnPrepared { .. }
                | crate::request::ReplyBody::Empty
                | crate::request::ReplyBody::Busy => 16,
            }
        }
        fn update_len(u: &crate::command::StateUpdate) -> usize {
            1 + u.payload_len() + 4
        }
        fn decree_len(d: &Decree) -> usize {
            4 + d
                .entries
                .iter()
                .map(|e| {
                    let cmd = match &e.cmd {
                        crate::command::Command::Noop => 1,
                        crate::command::Command::Req(r) => 1 + req_len(r),
                        crate::command::Command::TxnCommit { ops, .. } => {
                            29 + ops.iter().map(req_len).sum::<usize>()
                        }
                        // tag + txn (8) + the embedded prepare request.
                        crate::command::Command::TxnPrepare { req, .. } => 9 + req_len(req),
                        // tag + id (16) + txn (8) + commit + record flags.
                        crate::command::Command::TxnDecide { .. } => 27,
                    };
                    cmd + update_len(&e.update) + reply_body_len(&e.reply)
                })
                .sum::<usize>()
        }
        HDR + match self {
            Msg::Request(r) => req_len(r),
            // id (13) + leader (4) + watermark (8) + body.
            Msg::Reply(r) => 28 + reply_body_len(&r.body),
            Msg::Prepare { known_above, .. } => 20 + 4 + known_above.len() * 8,
            Msg::Promise { accepted, .. } => {
                24 + accepted
                    .iter()
                    .map(|e| 20 + decree_len(&e.decree))
                    .sum::<usize>()
            }
            Msg::PrepareNack { .. } | Msg::AcceptNack { .. } => 24,
            Msg::Accept { entries, .. } => {
                16 + entries
                    .iter()
                    .map(|(_, d)| 8 + decree_len(d))
                    .sum::<usize>()
            }
            Msg::Accepted { instances, .. } => 16 + instances.len() * 8,
            Msg::Chosen { .. } => 20,
            Msg::Heartbeat { .. } => 28,
            Msg::HeartbeatAck { .. } => 28,
            Msg::Confirm { .. } => 28,
            // ballot (12) + epoch (8) + backlog flag.
            Msg::ConfirmReq { .. } => 21,
            Msg::ConfirmBatch { .. } => 20,
            Msg::CatchUpReq { .. } => 8,
            // ballot (12) + entry count (4) + entries, and an image run's
            // upto (8), total/first (8), dedup and length-prefixed pieces.
            Msg::CatchUp { image, entries, .. } => {
                let run = image.as_ref().map_or(0, |r| {
                    28 + r.dedup.len() * 34 + 4 * r.pieces.len() + r.bytes()
                });
                16 + run
                    + entries
                        .iter()
                        .map(|(_, d)| 8 + decree_len(d))
                        .sum::<usize>()
            }
            // The envelope adds its group id on top of the inner message's
            // own length (whose HDR already covers the frame).
            Msg::Grouped { inner, .. } => 4 + inner.approx_wire_len() - HDR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReplyBody, Request, RequestKind};
    use crate::types::{ClientId, ProcessId, Seq};
    use bytes::Bytes;

    #[test]
    fn tags_are_distinct_for_client_and_coordination() {
        let req = Msg::Request(Request::new(
            RequestId::new(ClientId(1), Seq(1)),
            RequestKind::Read,
            Bytes::new(),
        ));
        assert_eq!(req.tag(), "request");
        assert!(!req.is_coordination());

        let rep = Msg::Reply(Reply {
            id: RequestId::new(ClientId(1), Seq(1)),
            leader: ProcessId(0),
            watermark: Instance::ZERO,
            body: ReplyBody::Empty,
        });
        assert!(!rep.is_coordination());

        let hb = Msg::Heartbeat {
            ballot: Ballot::ZERO,
            chosen: Instance::ZERO,
            hb_seq: 0,
        };
        assert!(hb.is_coordination());
        assert_eq!(hb.tag(), "heartbeat");
    }

    #[test]
    fn wire_len_scales_with_payload() {
        let small = Msg::Request(Request::new(
            RequestId::new(ClientId(1), Seq(1)),
            RequestKind::Write,
            Bytes::from(vec![0u8; 16]),
        ));
        let big = Msg::Request(Request::new(
            RequestId::new(ClientId(1), Seq(1)),
            RequestKind::Write,
            Bytes::from(vec![0u8; 64 * 1024]),
        ));
        assert!(big.approx_wire_len() > small.approx_wire_len() + 64 * 1024 - 64);
        // Control messages are small.
        let hb = Msg::Heartbeat {
            ballot: Ballot::ZERO,
            chosen: Instance::ZERO,
            hb_seq: 0,
        };
        assert!(hb.approx_wire_len() < 64);
    }

    #[test]
    fn wire_len_counts_accept_state_payloads() {
        use crate::command::{Command, Decree, StateUpdate};
        use crate::request::ReplyBody;
        let accept = |state: usize| Msg::Accept {
            ballot: Ballot::ZERO,
            entries: vec![(
                Instance(1),
                Decree::single(
                    Command::Noop,
                    StateUpdate::Full(Bytes::from(vec![0u8; state])),
                    ReplyBody::Empty,
                ),
            )],
        };
        let small = accept(8).approx_wire_len();
        let big = accept(32 * 1024).approx_wire_len();
        assert!(big - small >= 32 * 1024 - 8);
    }

    /// One message of every variant, each also inside the group envelope:
    /// `precedes_barrier` is `true` for `Accept` alone. The `match` names
    /// every variant, so a new one fails to compile here until it is
    /// sampled and classified.
    #[test]
    fn only_accept_precedes_the_barrier() {
        use crate::types::GroupId;
        let (b, i) = (Ballot::ZERO, Instance::ZERO);
        let id = RequestId::new(ClientId(1), Seq(1));
        let samples = [
            Msg::Request(Request::new(id, RequestKind::Write, Bytes::new())),
            Msg::Reply(Reply {
                id,
                leader: ProcessId(0),
                watermark: i,
                body: ReplyBody::Empty,
            }),
            Msg::Prepare {
                ballot: b,
                chosen_prefix: i,
                known_above: Vec::new(),
            },
            Msg::Promise {
                ballot: b,
                chosen_prefix: i,
                accepted: Vec::new(),
            },
            Msg::PrepareNack {
                ballot: b,
                promised: b,
            },
            Msg::Accept {
                ballot: b,
                entries: Vec::new(),
            },
            Msg::Accepted {
                ballot: b,
                instances: Vec::new(),
            },
            Msg::AcceptNack {
                ballot: b,
                promised: b,
            },
            Msg::Chosen { ballot: b, upto: i },
            Msg::Confirm {
                ballot: b,
                read: id,
            },
            Msg::ConfirmReq {
                ballot: b,
                epoch: 0,
                backlog: false,
            },
            Msg::ConfirmBatch {
                ballot: b,
                epoch: 0,
            },
            Msg::Heartbeat {
                ballot: b,
                chosen: i,
                hb_seq: 0,
            },
            Msg::HeartbeatAck {
                ballot: b,
                hb_seq: 0,
            },
            Msg::CatchUpReq {
                have: i,
                resume: None,
            },
            Msg::CatchUp {
                ballot: b,
                image: None,
                entries: Vec::new(),
            },
            Msg::Grouped {
                group: GroupId(1),
                inner: Box::new(Msg::CatchUpReq {
                    have: i,
                    resume: None,
                }),
            },
        ];
        let variant = |m: &Msg| match m {
            Msg::Request(_) => 0,
            Msg::Reply(_) => 1,
            Msg::Prepare { .. } => 2,
            Msg::Promise { .. } => 3,
            Msg::PrepareNack { .. } => 4,
            Msg::Accept { .. } => 5,
            Msg::Accepted { .. } => 6,
            Msg::AcceptNack { .. } => 7,
            Msg::Chosen { .. } => 8,
            Msg::Confirm { .. } => 9,
            Msg::ConfirmReq { .. } => 10,
            Msg::ConfirmBatch { .. } => 11,
            Msg::Heartbeat { .. } => 12,
            Msg::HeartbeatAck { .. } => 13,
            Msg::CatchUpReq { .. } => 14,
            Msg::CatchUp { .. } => 15,
            Msg::Grouped { .. } => 16,
        };
        let sampled: Vec<usize> = samples.iter().map(variant).collect();
        assert_eq!(sampled, (0..=16).collect::<Vec<_>>(), "one of each");
        for msg in samples {
            let accept = matches!(msg, Msg::Accept { .. });
            assert_eq!(msg.precedes_barrier(), accept, "{msg:?}");
            let grouped = Msg::Grouped {
                group: GroupId(1),
                inner: Box::new(msg),
            };
            assert_eq!(grouped.precedes_barrier(), accept, "{grouped:?}");
        }
    }

    #[test]
    fn grouped_envelope_is_transparent() {
        use crate::types::GroupId;
        let inner = Msg::Heartbeat {
            ballot: Ballot::ZERO,
            chosen: Instance::ZERO,
            hb_seq: 0,
        };
        let wrapped = Msg::Grouped {
            group: GroupId(3),
            inner: Box::new(inner.clone()),
        };
        assert_eq!(wrapped.tag(), "heartbeat");
        assert!(wrapped.is_coordination());
        // Only the 4-byte group id on top of the inner frame.
        assert_eq!(wrapped.approx_wire_len(), inner.approx_wire_len() + 4);

        let req = Msg::Request(Request::new(
            RequestId::new(ClientId(1), Seq(1)),
            RequestKind::Write,
            Bytes::new(),
        ));
        let wrapped_req = Msg::Grouped {
            group: GroupId::ZERO,
            inner: Box::new(req),
        };
        assert!(!wrapped_req.is_coordination());
        assert_eq!(wrapped_req.tag(), "request");
    }
}
