//! Hand-rolled binary wire format for protocol messages.
//!
//! Little-endian fixed-width integers, `u32`-length-prefixed byte strings,
//! one tag byte per enum variant. No external serialization crate: the
//! format is small, explicit and fuzzable (see the proptest round-trips in
//! the test module).
//!
//! **What one frame can make the decoder allocate.** A frame's bytes are
//! the peer's to choose, so [`decode_msg`] on a frame of `L` bytes
//! allocates at most [`max_decode_alloc`]`(L)` = 400 · `L` + 128 bytes at
//! its peak, whatever the bytes are. Byte strings are slices of the frame,
//! not copies; what the decoder allocates is vectors, one `Arc` per decree
//! and one `Box` per group envelope (112 bytes; envelopes never nest).
//! Every vector element encodes to at least one byte, so a count the rest
//! of the frame cannot hold is refused before anything is reserved, and a
//! vector reserves at most `min(count, 1024)` elements before it reads
//! them. At most three vectors are open at once — a promise's accepted
//! entries, one decree's entries, one commit's ops — and, reserved or
//! grown (a move holding both buffers included), they hold at most 40,
//! 160 and 72 bytes per frame byte: 272. Everything decoded so far holds
//! at most 68 bytes per byte of it, the largest share being a decree's
//! entries (160 bytes each, from as few as 3). 272 + 68 rounds up to 400.
//! `tests/wire_decode_bounds.rs` measures the peak under mutation.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gridpaxos_core::ballot::Ballot;
use gridpaxos_core::command::{
    AcceptedEntry, Command, Decree, DecreeEntry, DedupEntry, StateUpdate,
};
use gridpaxos_core::msg::{ImageRun, Msg};
use gridpaxos_core::request::{
    AbortReason, Reply, ReplyBody, Request, RequestId, RequestKind, TxnCtl,
};
use gridpaxos_core::types::{Addr, ClientId, GroupId, Instance, ProcessId, Seq, TxnId};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// Unknown tag byte for the named type.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeded the sanity limit.
    TooLong(usize),
    /// A reply reference names bytes its decree entry's update does not
    /// hold (past its end, empty, or an entry with no update payload).
    BadReference,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag:#x} for {what}"),
            WireError::TooLong(n) => write!(f, "length {n} exceeds limit"),
            WireError::BadReference => write!(f, "reply reference outside its update"),
        }
    }
}

impl std::error::Error for WireError {}

/// Largest single byte-string we accept (16 MiB) — guards against
/// corrupted length prefixes allocating unbounded memory.
const MAX_BYTES: usize = 16 << 20;

type Result<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------
// Primitive helpers
// ---------------------------------------------------------------------

fn need(buf: &impl Buf, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut impl Buf) -> Result<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut impl Buf) -> Result<u32> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut impl Buf) -> Result<u64> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn put_bytes(out: &mut BytesMut, b: &[u8]) {
    out.put_u32_le(b.len() as u32);
    out.put_slice(b);
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes> {
    let len = get_u32(buf)? as usize;
    if len > MAX_BYTES {
        return Err(WireError::TooLong(len));
    }
    need(buf, len)?;
    Ok(buf.split_to(len))
}

fn put_opt<T>(out: &mut BytesMut, v: &Option<T>, enc: impl FnOnce(&mut BytesMut, &T)) {
    match v {
        None => out.put_u8(0),
        Some(x) => {
            out.put_u8(1);
            enc(out, x);
        }
    }
}

fn get_opt<T>(buf: &mut Bytes, dec: impl FnOnce(&mut Bytes) -> Result<T>) -> Result<Option<T>> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(dec(buf)?)),
        tag => Err(WireError::BadTag {
            what: "option",
            tag,
        }),
    }
}

fn put_vec<T>(out: &mut BytesMut, v: &[T], mut enc: impl FnMut(&mut BytesMut, &T)) {
    out.put_u32_le(v.len() as u32);
    for x in v {
        enc(out, x);
    }
}

fn get_vec<T>(buf: &mut Bytes, mut dec: impl FnMut(&mut Bytes) -> Result<T>) -> Result<Vec<T>> {
    let len = get_u32(buf)? as usize;
    if len > MAX_BYTES {
        return Err(WireError::TooLong(len));
    }
    // Every element takes at least one byte: a count the rest of the frame
    // cannot hold is refused before anything is reserved for it.
    need(buf, len)?;
    let mut v = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        v.push(dec(buf)?);
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Identifier and leaf types
// ---------------------------------------------------------------------

pub(crate) fn put_ballot(out: &mut BytesMut, b: &Ballot) {
    out.put_u64_le(b.round);
    out.put_u32_le(b.proposer.0);
}

pub(crate) fn get_ballot(buf: &mut Bytes) -> Result<Ballot> {
    let round = get_u64(buf)?;
    let proposer = ProcessId(get_u32(buf)?);
    Ok(Ballot { round, proposer })
}

pub(crate) fn put_instance(out: &mut BytesMut, i: &Instance) {
    out.put_u64_le(i.0);
}

pub(crate) fn get_instance(buf: &mut Bytes) -> Result<Instance> {
    Ok(Instance(get_u64(buf)?))
}

fn put_request_id(out: &mut BytesMut, id: &RequestId) {
    out.put_u64_le(id.client.0);
    out.put_u64_le(id.seq.0);
}

fn get_request_id(buf: &mut Bytes) -> Result<RequestId> {
    let client = ClientId(get_u64(buf)?);
    let seq = Seq(get_u64(buf)?);
    Ok(RequestId { client, seq })
}

/// Encode a process address (used in transport hello frames).
pub fn put_addr(out: &mut BytesMut, a: &Addr) {
    match a {
        Addr::Replica(p) => {
            out.put_u8(0);
            out.put_u32_le(p.0);
        }
        Addr::Client(c) => {
            out.put_u8(1);
            out.put_u64_le(c.0);
        }
    }
}

/// Decode a process address.
pub fn get_addr(buf: &mut Bytes) -> Result<Addr> {
    match get_u8(buf)? {
        0 => Ok(Addr::Replica(ProcessId(get_u32(buf)?))),
        1 => Ok(Addr::Client(ClientId(get_u64(buf)?))),
        tag => Err(WireError::BadTag { what: "addr", tag }),
    }
}

fn put_kind(out: &mut BytesMut, k: &RequestKind) {
    out.put_u8(match k {
        RequestKind::Read => 0,
        RequestKind::Write => 1,
        RequestKind::Original => 2,
    });
}

fn get_kind(buf: &mut Bytes) -> Result<RequestKind> {
    match get_u8(buf)? {
        0 => Ok(RequestKind::Read),
        1 => Ok(RequestKind::Write),
        2 => Ok(RequestKind::Original),
        tag => Err(WireError::BadTag {
            what: "request_kind",
            tag,
        }),
    }
}

fn put_txn_ctl(out: &mut BytesMut, t: &TxnCtl) {
    match t {
        TxnCtl::Op { txn } => {
            out.put_u8(0);
            out.put_u64_le(txn.0);
        }
        TxnCtl::Commit { txn, n_ops } => {
            out.put_u8(1);
            out.put_u64_le(txn.0);
            out.put_u32_le(*n_ops);
        }
        TxnCtl::Abort { txn } => {
            out.put_u8(2);
            out.put_u64_le(txn.0);
        }
        TxnCtl::Prepare { txn } => {
            out.put_u8(3);
            out.put_u64_le(txn.0);
        }
        TxnCtl::Decide {
            txn,
            commit,
            record,
        } => {
            out.put_u8(4);
            out.put_u64_le(txn.0);
            out.put_u8(u8::from(*commit));
            out.put_u8(u8::from(*record));
        }
    }
}

fn get_txn_ctl(buf: &mut Bytes) -> Result<TxnCtl> {
    match get_u8(buf)? {
        0 => Ok(TxnCtl::Op {
            txn: TxnId(get_u64(buf)?),
        }),
        1 => Ok(TxnCtl::Commit {
            txn: TxnId(get_u64(buf)?),
            n_ops: get_u32(buf)?,
        }),
        2 => Ok(TxnCtl::Abort {
            txn: TxnId(get_u64(buf)?),
        }),
        3 => Ok(TxnCtl::Prepare {
            txn: TxnId(get_u64(buf)?),
        }),
        4 => Ok(TxnCtl::Decide {
            txn: TxnId(get_u64(buf)?),
            commit: get_u8(buf)? != 0,
            record: get_u8(buf)? != 0,
        }),
        tag => Err(WireError::BadTag {
            what: "txn_ctl",
            tag,
        }),
    }
}

fn put_request(out: &mut BytesMut, r: &Request) {
    put_request_id(out, &r.id);
    put_kind(out, &r.kind);
    put_opt(out, &r.txn, put_txn_ctl);
    put_bytes(out, &r.op);
}

fn get_request(buf: &mut Bytes) -> Result<Request> {
    let id = get_request_id(buf)?;
    let kind = get_kind(buf)?;
    let txn = get_opt(buf, get_txn_ctl)?;
    let op = get_bytes(buf)?;
    Ok(Request { id, kind, txn, op })
}

fn put_abort_reason(out: &mut BytesMut, r: &AbortReason) {
    out.put_u8(match r {
        AbortReason::ClientAbort => 0,
        AbortReason::LeaderSwitch => 1,
        AbortReason::Conflict => 2,
        AbortReason::Unsupported => 3,
        AbortReason::CrossShard => 4,
        AbortReason::InDoubt => 5,
    });
}

fn get_abort_reason(buf: &mut Bytes) -> Result<AbortReason> {
    match get_u8(buf)? {
        0 => Ok(AbortReason::ClientAbort),
        1 => Ok(AbortReason::LeaderSwitch),
        2 => Ok(AbortReason::Conflict),
        3 => Ok(AbortReason::Unsupported),
        4 => Ok(AbortReason::CrossShard),
        5 => Ok(AbortReason::InDoubt),
        tag => Err(WireError::BadTag {
            what: "abort_reason",
            tag,
        }),
    }
}

fn put_reply_body(out: &mut BytesMut, b: &ReplyBody) {
    match b {
        ReplyBody::Ok(bytes) => {
            out.put_u8(0);
            put_bytes(out, bytes);
        }
        ReplyBody::TxnCommitted { txn } => {
            out.put_u8(1);
            out.put_u64_le(txn.0);
        }
        ReplyBody::TxnAborted { txn, reason } => {
            out.put_u8(2);
            out.put_u64_le(txn.0);
            put_abort_reason(out, reason);
        }
        ReplyBody::Empty => out.put_u8(3),
        ReplyBody::Busy => out.put_u8(4),
        ReplyBody::TxnPrepared { txn } => {
            out.put_u8(5);
            out.put_u64_le(txn.0);
        }
    }
}

fn get_reply_body(buf: &mut Bytes) -> Result<ReplyBody> {
    match get_u8(buf)? {
        0 => Ok(ReplyBody::Ok(get_bytes(buf)?)),
        1 => Ok(ReplyBody::TxnCommitted {
            txn: TxnId(get_u64(buf)?),
        }),
        2 => Ok(ReplyBody::TxnAborted {
            txn: TxnId(get_u64(buf)?),
            reason: get_abort_reason(buf)?,
        }),
        3 => Ok(ReplyBody::Empty),
        4 => Ok(ReplyBody::Busy),
        5 => Ok(ReplyBody::TxnPrepared {
            txn: TxnId(get_u64(buf)?),
        }),
        tag => Err(WireError::BadTag {
            what: "reply_body",
            tag,
        }),
    }
}

fn put_state_update(out: &mut BytesMut, u: &StateUpdate) {
    match u {
        StateUpdate::None => out.put_u8(0),
        StateUpdate::Full(b) => {
            out.put_u8(1);
            put_bytes(out, b);
        }
        StateUpdate::Delta(b) => {
            out.put_u8(2);
            put_bytes(out, b);
        }
        StateUpdate::Reproduce(b) => {
            out.put_u8(3);
            put_bytes(out, b);
        }
    }
}

fn get_state_update(buf: &mut Bytes) -> Result<StateUpdate> {
    match get_u8(buf)? {
        0 => Ok(StateUpdate::None),
        1 => Ok(StateUpdate::Full(get_bytes(buf)?)),
        2 => Ok(StateUpdate::Delta(get_bytes(buf)?)),
        3 => Ok(StateUpdate::Reproduce(get_bytes(buf)?)),
        tag => Err(WireError::BadTag {
            what: "state_update",
            tag,
        }),
    }
}

fn put_command(out: &mut BytesMut, c: &Command) {
    match c {
        Command::Noop => out.put_u8(0),
        Command::Req(r) => {
            out.put_u8(1);
            put_request(out, r);
        }
        Command::TxnCommit { id, txn, ops } => {
            out.put_u8(2);
            put_request_id(out, id);
            out.put_u64_le(txn.0);
            put_vec(out, ops, put_request);
        }
        Command::TxnPrepare { txn, req } => {
            out.put_u8(3);
            out.put_u64_le(txn.0);
            put_request(out, req);
        }
        Command::TxnDecide {
            id,
            txn,
            commit,
            record,
        } => {
            out.put_u8(4);
            put_request_id(out, id);
            out.put_u64_le(txn.0);
            out.put_u8(u8::from(*commit));
            out.put_u8(u8::from(*record));
        }
    }
}

fn get_command(buf: &mut Bytes) -> Result<Command> {
    match get_u8(buf)? {
        0 => Ok(Command::Noop),
        1 => Ok(Command::Req(get_request(buf)?)),
        2 => Ok(Command::TxnCommit {
            id: get_request_id(buf)?,
            txn: TxnId(get_u64(buf)?),
            ops: get_vec(buf, get_request)?,
        }),
        3 => Ok(Command::TxnPrepare {
            txn: TxnId(get_u64(buf)?),
            req: get_request(buf)?,
        }),
        4 => Ok(Command::TxnDecide {
            id: get_request_id(buf)?,
            txn: TxnId(get_u64(buf)?),
            commit: get_u8(buf)? != 0,
            record: get_u8(buf)? != 0,
        }),
        tag => Err(WireError::BadTag {
            what: "command",
            tag,
        }),
    }
}

/// Reply tag, valid only inside a decree entry: an `Ok` reply whose
/// payload is a slice of the entry's update
/// ([`DecreeEntry::reply_in_update`]), written as the slice's offset and
/// length (`u32` each) into the update payload instead of its bytes. A
/// reply that repeats its update is shipped and logged once.
const REPLY_IN_UPDATE: u8 = 6;

pub(crate) fn put_decree(out: &mut BytesMut, d: &Decree) {
    put_vec(out, &d.entries, |o, e: &DecreeEntry| {
        put_command(o, &e.cmd);
        put_state_update(o, &e.update);
        match e.reply_in_update() {
            Some(r) => {
                o.put_u8(REPLY_IN_UPDATE);
                o.put_u32_le(r.start as u32);
                o.put_u32_le(r.len() as u32);
            }
            None => put_reply_body(o, &e.reply),
        }
    });
}

pub(crate) fn get_decree(buf: &mut Bytes) -> Result<Decree> {
    Ok(Decree {
        entries: get_vec(buf, |b| {
            let cmd = get_command(b)?;
            let update = get_state_update(b)?;
            let reply = if b.first() == Some(&REPLY_IN_UPDATE) {
                b.advance(1);
                ReplyBody::Ok(get_reply_in(&update, b)?)
            } else {
                get_reply_body(b)?
            };
            Ok(DecreeEntry { cmd, update, reply })
        })?
        .into(),
    })
}

/// The reply a [`REPLY_IN_UPDATE`] reference names: a zero-copy slice of
/// `update`'s payload, refused unless it is non-empty and inside it.
fn get_reply_in(update: &StateUpdate, buf: &mut Bytes) -> Result<Bytes> {
    let start = get_u32(buf)? as usize;
    let len = get_u32(buf)? as usize;
    let payload = match update {
        StateUpdate::None => return Err(WireError::BadReference),
        StateUpdate::Full(p) | StateUpdate::Delta(p) | StateUpdate::Reproduce(p) => p,
    };
    match start.checked_add(len) {
        Some(end) if len > 0 && end <= payload.len() => Ok(payload.slice(start..end)),
        Some(_) | None => Err(WireError::BadReference),
    }
}

fn put_accepted_entry(out: &mut BytesMut, e: &AcceptedEntry) {
    put_instance(out, &e.instance);
    put_ballot(out, &e.ballot);
    put_decree(out, &e.decree);
}

fn get_accepted_entry(buf: &mut Bytes) -> Result<AcceptedEntry> {
    Ok(AcceptedEntry {
        instance: get_instance(buf)?,
        ballot: get_ballot(buf)?,
        decree: get_decree(buf)?,
    })
}

pub(crate) fn put_dedup_table(out: &mut BytesMut, dedup: &[DedupEntry]) {
    put_vec(out, dedup, |o, e: &DedupEntry| {
        o.put_u64_le(e.client.0);
        o.put_u64_le(e.seq.0);
        put_reply_body(o, &e.reply);
    });
}

pub(crate) fn get_dedup_table(buf: &mut Bytes) -> Result<Vec<DedupEntry>> {
    get_vec(buf, |b| {
        Ok(DedupEntry {
            client: ClientId(get_u64(b)?),
            seq: Seq(get_u64(b)?),
            reply: get_reply_body(b)?,
        })
    })
}

fn put_image_run(out: &mut BytesMut, r: &ImageRun) {
    put_instance(out, &r.upto);
    out.put_u32_le(r.total);
    out.put_u32_le(r.first);
    put_dedup_table(out, &r.dedup);
    put_vec(out, &r.pieces, |o, p| put_bytes(o, p));
}

fn get_image_run(buf: &mut Bytes) -> Result<ImageRun> {
    Ok(ImageRun {
        upto: get_instance(buf)?,
        total: get_u32(buf)?,
        first: get_u32(buf)?,
        dedup: get_dedup_table(buf)?,
        pieces: get_vec(buf, get_bytes)?,
    })
}

fn put_inst_decree(out: &mut BytesMut, e: &(Instance, Decree)) {
    put_instance(out, &e.0);
    put_decree(out, &e.1);
}

fn get_inst_decree(buf: &mut Bytes) -> Result<(Instance, Decree)> {
    Ok((get_instance(buf)?, get_decree(buf)?))
}

// ---------------------------------------------------------------------
// Top-level message codec
// ---------------------------------------------------------------------

/// Encode a message into `out`.
pub fn encode_msg(msg: &Msg, out: &mut BytesMut) {
    match msg {
        Msg::Request(r) => {
            out.put_u8(0);
            put_request(out, r);
        }
        Msg::Reply(Reply {
            id,
            leader,
            watermark,
            body,
        }) => {
            out.put_u8(1);
            put_request_id(out, id);
            out.put_u32_le(leader.0);
            put_instance(out, watermark);
            put_reply_body(out, body);
        }
        Msg::Prepare {
            ballot,
            chosen_prefix,
            known_above,
        } => {
            out.put_u8(2);
            put_ballot(out, ballot);
            put_instance(out, chosen_prefix);
            put_vec(out, known_above, put_instance);
        }
        Msg::Promise {
            ballot,
            chosen_prefix,
            accepted,
        } => {
            out.put_u8(3);
            put_ballot(out, ballot);
            put_instance(out, chosen_prefix);
            put_vec(out, accepted, put_accepted_entry);
        }
        Msg::PrepareNack { ballot, promised } => {
            out.put_u8(4);
            put_ballot(out, ballot);
            put_ballot(out, promised);
        }
        Msg::Accept { ballot, entries } => {
            out.put_u8(5);
            put_ballot(out, ballot);
            put_vec(out, entries, put_inst_decree);
        }
        Msg::Accepted { ballot, instances } => {
            out.put_u8(6);
            put_ballot(out, ballot);
            put_vec(out, instances, put_instance);
        }
        Msg::AcceptNack { ballot, promised } => {
            out.put_u8(7);
            put_ballot(out, ballot);
            put_ballot(out, promised);
        }
        Msg::Chosen { ballot, upto } => {
            out.put_u8(8);
            put_ballot(out, ballot);
            put_instance(out, upto);
        }
        Msg::Confirm { ballot, read } => {
            out.put_u8(9);
            put_ballot(out, ballot);
            put_request_id(out, read);
        }
        Msg::ConfirmReq {
            ballot,
            epoch,
            backlog,
        } => {
            out.put_u8(15);
            put_ballot(out, ballot);
            out.put_u64_le(*epoch);
            out.put_u8(u8::from(*backlog));
        }
        Msg::ConfirmBatch { ballot, epoch } => {
            out.put_u8(16);
            put_ballot(out, ballot);
            out.put_u64_le(*epoch);
        }
        Msg::Heartbeat {
            ballot,
            chosen,
            hb_seq,
        } => {
            out.put_u8(10);
            put_ballot(out, ballot);
            put_instance(out, chosen);
            out.put_u64_le(*hb_seq);
        }
        Msg::HeartbeatAck { ballot, hb_seq } => {
            out.put_u8(13);
            put_ballot(out, ballot);
            out.put_u64_le(*hb_seq);
        }
        Msg::CatchUpReq { have, resume } => {
            out.put_u8(11);
            put_instance(out, have);
            put_opt(out, resume, |o, (upto, piece)| {
                put_instance(o, upto);
                o.put_u32_le(*piece);
            });
        }
        Msg::CatchUp {
            ballot,
            image,
            entries,
        } => {
            out.put_u8(12);
            put_ballot(out, ballot);
            put_opt(out, image, put_image_run);
            put_vec(out, entries, put_inst_decree);
        }
        Msg::Grouped { group, inner } => {
            debug_assert!(
                !matches!(**inner, Msg::Grouped { .. }),
                "group envelopes must not nest"
            );
            out.put_u8(14);
            out.put_u32_le(group.0);
            encode_msg(inner, out);
        }
    }
}

/// The most [`decode_msg`] allocates at its peak decoding a frame of
/// `len` bytes; the module doc derives it.
#[must_use]
pub const fn max_decode_alloc(len: usize) -> usize {
    400 * len + 128
}

/// Decode a message from `buf`, consuming exactly one message.
pub fn decode_msg(buf: &mut Bytes) -> Result<Msg> {
    match get_u8(buf)? {
        0 => Ok(Msg::Request(get_request(buf)?)),
        1 => Ok(Msg::Reply(Reply {
            id: get_request_id(buf)?,
            leader: ProcessId(get_u32(buf)?),
            watermark: get_instance(buf)?,
            body: get_reply_body(buf)?,
        })),
        2 => Ok(Msg::Prepare {
            ballot: get_ballot(buf)?,
            chosen_prefix: get_instance(buf)?,
            known_above: get_vec(buf, get_instance)?,
        }),
        3 => Ok(Msg::Promise {
            ballot: get_ballot(buf)?,
            chosen_prefix: get_instance(buf)?,
            accepted: get_vec(buf, get_accepted_entry)?,
        }),
        4 => Ok(Msg::PrepareNack {
            ballot: get_ballot(buf)?,
            promised: get_ballot(buf)?,
        }),
        5 => Ok(Msg::Accept {
            ballot: get_ballot(buf)?,
            entries: get_vec(buf, get_inst_decree)?,
        }),
        6 => Ok(Msg::Accepted {
            ballot: get_ballot(buf)?,
            instances: get_vec(buf, get_instance)?,
        }),
        7 => Ok(Msg::AcceptNack {
            ballot: get_ballot(buf)?,
            promised: get_ballot(buf)?,
        }),
        8 => Ok(Msg::Chosen {
            ballot: get_ballot(buf)?,
            upto: get_instance(buf)?,
        }),
        9 => Ok(Msg::Confirm {
            ballot: get_ballot(buf)?,
            read: get_request_id(buf)?,
        }),
        15 => Ok(Msg::ConfirmReq {
            ballot: get_ballot(buf)?,
            epoch: get_u64(buf)?,
            backlog: get_u8(buf)? != 0,
        }),
        16 => Ok(Msg::ConfirmBatch {
            ballot: get_ballot(buf)?,
            epoch: get_u64(buf)?,
        }),
        10 => Ok(Msg::Heartbeat {
            ballot: get_ballot(buf)?,
            chosen: get_instance(buf)?,
            hb_seq: get_u64(buf)?,
        }),
        13 => Ok(Msg::HeartbeatAck {
            ballot: get_ballot(buf)?,
            hb_seq: get_u64(buf)?,
        }),
        11 => Ok(Msg::CatchUpReq {
            have: get_instance(buf)?,
            resume: get_opt(buf, |b| Ok((get_instance(b)?, get_u32(b)?)))?,
        }),
        12 => Ok(Msg::CatchUp {
            ballot: get_ballot(buf)?,
            image: get_opt(buf, get_image_run)?,
            entries: get_vec(buf, get_inst_decree)?,
        }),
        14 => {
            let group = GroupId(get_u32(buf)?);
            // Envelopes never nest; a nested tag is corruption, refused
            // before it is decoded, so a chain of them cannot recurse.
            if buf.first() == Some(&14) {
                return Err(WireError::BadTag {
                    what: "nested grouped",
                    tag: 14,
                });
            }
            let inner = decode_msg(buf)?;
            Ok(Msg::Grouped {
                group,
                inner: Box::new(inner),
            })
        }
        tag => Err(WireError::BadTag { what: "msg", tag }),
    }
}

/// Encode a message to a standalone buffer.
#[must_use]
pub fn encode_to_bytes(msg: &Msg) -> Bytes {
    let mut out = BytesMut::with_capacity(64);
    encode_msg(msg, &mut out);
    out.freeze()
}

/// Encode a message into a reusable scratch buffer, returning the frame.
///
/// The scratch is cleared and refilled in place, so once it has grown to
/// the connection's steady-state frame size the encode allocates nothing —
/// unlike [`encode_to_bytes`], which pays a fresh buffer per message.
/// Intended for per-connection use: each sender (e.g. a TCP writer thread)
/// owns its scratch, and the returned slice is only valid until the next
/// encode into the same scratch.
pub fn encode_with_scratch<'a>(msg: &Msg, scratch: &'a mut BytesMut) -> &'a [u8] {
    scratch.clear();
    encode_msg(msg, scratch);
    scratch
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: &Msg) -> Msg {
        let mut b = encode_to_bytes(msg);
        let decoded = decode_msg(&mut b).expect("decodes");
        assert!(b.is_empty(), "trailing bytes after decode");
        decoded
    }

    #[test]
    fn simple_messages_roundtrip() {
        let msgs = vec![
            Msg::Heartbeat {
                ballot: Ballot::new(3, ProcessId(1)),
                chosen: Instance(42),
                hb_seq: 7,
            },
            Msg::HeartbeatAck {
                ballot: Ballot::new(3, ProcessId(1)),
                hb_seq: 7,
            },
            Msg::CatchUpReq {
                have: Instance(7),
                resume: Some((Instance(9), 3)),
            },
            Msg::PrepareNack {
                ballot: Ballot::new(1, ProcessId(0)),
                promised: Ballot::new(2, ProcessId(2)),
            },
            Msg::Confirm {
                ballot: Ballot::new(9, ProcessId(2)),
                read: RequestId::new(ClientId(5), Seq(77)),
            },
            Msg::ConfirmReq {
                ballot: Ballot::new(9, ProcessId(2)),
                epoch: 41,
                backlog: true,
            },
            Msg::ConfirmReq {
                ballot: Ballot::new(9, ProcessId(2)),
                epoch: 42,
                backlog: false,
            },
            Msg::ConfirmBatch {
                ballot: Ballot::new(9, ProcessId(2)),
                epoch: u64::MAX,
            },
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m), m);
        }
    }

    #[test]
    fn confirm_round_messages_survive_truncation() {
        for msg in [
            Msg::ConfirmReq {
                ballot: Ballot::new(3, ProcessId(1)),
                epoch: 9,
                backlog: true,
            },
            Msg::ConfirmBatch {
                ballot: Ballot::new(3, ProcessId(1)),
                epoch: 9,
            },
        ] {
            let full = encode_to_bytes(&msg);
            for cut in 0..full.len() {
                let mut b = full.slice(0..cut);
                assert!(decode_msg(&mut b).is_err(), "prefix of {cut} bytes decoded");
            }
            let mut b = full.clone();
            assert_eq!(decode_msg(&mut b).unwrap(), msg);
        }
    }

    #[test]
    fn scratch_encoding_matches_fresh_encoding_and_reuses_capacity() {
        let mut scratch = BytesMut::new();
        let msgs = [
            Msg::Heartbeat {
                ballot: Ballot::new(3, ProcessId(1)),
                chosen: Instance(42),
                hb_seq: 7,
            },
            Msg::ConfirmReq {
                ballot: Ballot::new(3, ProcessId(1)),
                epoch: 1,
                backlog: false,
            },
            Msg::Confirm {
                ballot: Ballot::new(9, ProcessId(2)),
                read: RequestId::new(ClientId(5), Seq(77)),
            },
        ];
        for m in &msgs {
            let frame = encode_with_scratch(m, &mut scratch).to_vec();
            assert_eq!(frame, encode_to_bytes(m).to_vec());
            let mut b = Bytes::from(frame);
            assert_eq!(&decode_msg(&mut b).unwrap(), m);
        }
        // Once warm, re-encoding reuses the scratch's backing storage: the
        // data pointer must not move across subsequent (smaller) frames.
        let ptr = encode_with_scratch(&msgs[0], &mut scratch).as_ptr();
        for m in &msgs {
            assert_eq!(encode_with_scratch(m, &mut scratch).as_ptr(), ptr);
        }
    }

    #[test]
    fn decode_rejects_bad_tags() {
        let mut b = Bytes::from_static(&[200]);
        assert!(matches!(
            decode_msg(&mut b),
            Err(WireError::BadTag { what: "msg", .. })
        ));
    }

    /// A realistic incremental state update: the kind of tagged,
    /// length-prefixed key/value records a service delta actually carries
    /// (cf. the kvstore's delta codec), so truncation sweeps cross several
    /// nested length prefixes of varying sizes.
    fn realistic_delta() -> Bytes {
        let mut d = BytesMut::new();
        for (i, (key, val)) in [
            (&b"user:1042"[..], &b"{\"balance\":3141,\"v\":17}"[..]),
            (&b"session:9f"[..], &b""[..]),
            (
                &b"k"[..],
                &b"a-longer-value-with-some-entropy-0123456789"[..],
            ),
        ]
        .iter()
        .enumerate()
        {
            d.put_u8(i as u8); // record tag
            d.put_u32_le(key.len() as u32);
            d.put_slice(key);
            d.put_u32_le(val.len() as u32);
            d.put_slice(val);
        }
        d.freeze()
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let promise = Msg::Promise {
            ballot: Ballot::new(4, ProcessId(1)),
            chosen_prefix: Instance(9),
            accepted: vec![AcceptedEntry {
                instance: Instance(10),
                ballot: Ballot::new(4, ProcessId(1)),
                decree: Decree::single(
                    Command::Req(Request::new(
                        RequestId::new(ClientId(3), Seq(8)),
                        RequestKind::Write,
                        Bytes::from_static(b"payload"),
                    )),
                    StateUpdate::Delta(realistic_delta()),
                    ReplyBody::Ok(Bytes::from_static(b"ok")),
                ),
            }],
        };
        let Msg::Promise { accepted, .. } = &promise else {
            unreachable!()
        };
        let catchup = Msg::CatchUp {
            ballot: Ballot::new(4, ProcessId(1)),
            image: Some(ImageRun {
                upto: Instance(9),
                total: 3,
                first: 0,
                dedup: vec![DedupEntry {
                    client: ClientId(3),
                    seq: Seq(8),
                    reply: ReplyBody::Empty,
                }],
                pieces: vec![Bytes::from_static(b"app-"), Bytes::from_static(b"state")],
            }),
            entries: vec![(Instance(10), accepted[0].decree.clone())],
        };
        for msg in [promise, catchup] {
            let full = encode_to_bytes(&msg);
            // Every strict prefix must fail cleanly, never panic.
            for cut in 0..full.len() {
                let mut b = full.slice(0..cut);
                assert!(decode_msg(&mut b).is_err(), "prefix of {cut} bytes decoded");
            }
            let mut b = full.clone();
            assert_eq!(decode_msg(&mut b).unwrap(), msg);
        }
    }

    #[test]
    fn addr_roundtrip() {
        for a in [
            Addr::Replica(ProcessId(7)),
            Addr::Client(ClientId(u64::MAX)),
        ] {
            let mut out = BytesMut::new();
            put_addr(&mut out, &a);
            let mut b = out.freeze();
            assert_eq!(get_addr(&mut b).unwrap(), a);
        }
    }

    #[test]
    fn grouped_envelope_roundtrips() {
        let inner = Msg::Request(Request::new(
            RequestId::new(ClientId(11), Seq(3)),
            RequestKind::Write,
            Bytes::from_static(b"sharded-op"),
        ));
        let msg = Msg::Grouped {
            group: GroupId(7),
            inner: Box::new(inner),
        };
        assert_eq!(roundtrip(&msg), msg);

        // Truncation sweep across the envelope too.
        let full = encode_to_bytes(&msg);
        for cut in 0..full.len() {
            let mut b = full.slice(0..cut);
            assert!(decode_msg(&mut b).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn nested_grouped_envelope_is_rejected() {
        // Hand-encode tag 14 wrapping tag 14: the decoder must refuse.
        let mut out = BytesMut::new();
        out.put_u8(14);
        out.put_u32_le(1);
        out.put_u8(14);
        out.put_u32_le(2);
        let req = Msg::CatchUpReq {
            have: Instance(0),
            resume: None,
        };
        encode_msg(&req, &mut out);
        let mut b = out.freeze();
        assert!(matches!(
            decode_msg(&mut b),
            Err(WireError::BadTag {
                what: "nested grouped",
                tag: 14
            })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut out = BytesMut::new();
        out.put_u8(0); // Msg::Request
        out.put_u64_le(1); // client
        out.put_u64_le(1); // seq
        out.put_u8(0); // kind
        out.put_u8(0); // no txn
        out.put_u32_le(u32::MAX); // absurd op length
        let mut b = out.freeze();
        assert!(matches!(decode_msg(&mut b), Err(WireError::TooLong(_))));
    }

    // ------------------------------------------------------------------
    // A reply inside its update: one copy on the wire, hostile references
    // refused
    // ------------------------------------------------------------------

    /// `msg`'s encoding with its last byte — the tag of a trailing
    /// `ReplyBody::Empty` — replaced by a reply reference `(start, len)`.
    fn with_reference(msg: &Msg, start: u32, len: u32) -> Bytes {
        let mut v = encode_to_bytes(msg).to_vec();
        assert_eq!(
            v.pop(),
            Some(3),
            "the encoding ends in an empty reply's tag"
        );
        v.push(REPLY_IN_UPDATE);
        v.extend_from_slice(&start.to_le_bytes());
        v.extend_from_slice(&len.to_le_bytes());
        Bytes::from(v)
    }

    /// An `Accept` of one decree whose one entry is `update` and an empty
    /// reply.
    fn accept_of(update: StateUpdate) -> Msg {
        Msg::Accept {
            ballot: Ballot::new(2, ProcessId(0)),
            entries: vec![(
                Instance(1),
                Decree::single(Command::Noop, update, ReplyBody::Empty),
            )],
        }
    }

    #[test]
    fn a_reply_inside_its_update_is_shipped_once_and_decoded_as_a_slice() {
        let delta = realistic_delta();
        let copied = Decree::single(
            Command::Noop,
            StateUpdate::Delta(delta.clone()),
            ReplyBody::Ok(Bytes::copy_from_slice(&delta[5..14])),
        );
        let shared = Decree::single(
            Command::Noop,
            StateUpdate::Delta(delta.clone()),
            ReplyBody::Ok(delta.slice(5..14)),
        );
        assert_eq!(copied, shared, "equal values");
        assert_eq!(copied.entries[0].reply_in_update(), None);
        assert_eq!(shared.entries[0].reply_in_update(), Some(5..14));
        let accept = |d: &Decree| Msg::Accept {
            ballot: Ballot::new(2, ProcessId(0)),
            entries: vec![(Instance(1), d.clone())],
        };
        let (inline, by_ref) = (
            encode_to_bytes(&accept(&copied)),
            encode_to_bytes(&accept(&shared)),
        );
        // Tag, length and 9 bytes inline; tag, offset and length by
        // reference.
        assert_eq!(inline.len(), by_ref.len() + 5);
        assert_eq!(
            accept(&shared).approx_wire_len() + 5,
            accept(&copied).approx_wire_len()
        );
        assert_eq!(shared.payload_bytes() + 9, copied.payload_bytes());
        // Either encoding decodes to the same value; the reference decodes
        // to a slice of the decoded update, and so re-encodes as one.
        for frame in [inline, by_ref.clone()] {
            let Msg::Accept { entries, .. } = decode_msg(&mut frame.clone()).unwrap() else {
                panic!("not an accept")
            };
            assert_eq!(entries[0].1, shared);
        }
        let again = decode_msg(&mut by_ref.clone()).unwrap();
        assert_eq!(encode_to_bytes(&again), by_ref, "the reference survives");
        assert_eq!(
            with_reference(&accept_of(StateUpdate::Delta(delta.clone())), 5, 9),
            by_ref
        );
    }

    #[test]
    fn a_hostile_reply_reference_is_refused() {
        let delta = Bytes::from_static(b"hello world");
        let accept = accept_of(StateUpdate::Delta(delta.clone()));
        let decode = |b: Bytes| decode_msg(&mut b.clone());
        // In range: a slice of the update.
        let Msg::Accept { entries, .. } = decode(with_reference(&accept, 6, 5)).unwrap() else {
            panic!("not an accept")
        };
        assert_eq!(
            entries[0].1.entries[0].reply,
            ReplyBody::Ok(Bytes::from_static(b"world"))
        );
        // Past the end, empty, overflowing, or on no update at all.
        for (start, len) in [
            (6, 6),
            (11, 1),
            (0, 12),
            (3, 0),
            (u32::MAX, u32::MAX),
            (1, u32::MAX),
        ] {
            assert_eq!(
                decode(with_reference(&accept, start, len)),
                Err(WireError::BadReference),
                "({start}, {len})"
            );
        }
        let none = accept_of(StateUpdate::None);
        assert_eq!(
            decode(with_reference(&none, 0, 1)),
            Err(WireError::BadReference)
        );
        // Outside a decree entry the tag is no reply at all.
        let reply = Msg::Reply(Reply {
            id: RequestId::new(ClientId(1), Seq(1)),
            leader: ProcessId(0),
            watermark: Instance(0),
            body: ReplyBody::Empty,
        });
        assert_eq!(
            decode(with_reference(&reply, 0, 1)),
            Err(WireError::BadTag {
                what: "reply_body",
                tag: REPLY_IN_UPDATE
            })
        );
        let mut table = BytesMut::new();
        put_dedup_table(
            &mut table,
            &[DedupEntry {
                client: ClientId(1),
                seq: Seq(1),
                reply: ReplyBody::Empty,
            }],
        );
        let mut table = table.to_vec();
        assert_eq!(table.pop(), Some(3));
        table.push(REPLY_IN_UPDATE);
        table.extend_from_slice(&[0; 8]);
        assert_eq!(
            get_dedup_table(&mut Bytes::from(table)),
            Err(WireError::BadTag {
                what: "reply_body",
                tag: REPLY_IN_UPDATE
            })
        );
    }

    // ------------------------------------------------------------------
    // Property tests: arbitrary message round-trips
    // ------------------------------------------------------------------

    fn arb_bytes() -> impl Strategy<Value = Bytes> {
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from)
    }

    fn arb_ballot() -> impl Strategy<Value = Ballot> {
        (any::<u64>(), any::<u32>()).prop_map(|(r, p)| Ballot::new(r, ProcessId(p)))
    }

    fn arb_request_id() -> impl Strategy<Value = RequestId> {
        (any::<u64>(), any::<u64>()).prop_map(|(c, s)| RequestId::new(ClientId(c), Seq(s)))
    }

    fn arb_kind() -> impl Strategy<Value = RequestKind> {
        prop_oneof![
            Just(RequestKind::Read),
            Just(RequestKind::Write),
            Just(RequestKind::Original)
        ]
    }

    fn arb_txn_ctl() -> impl Strategy<Value = TxnCtl> {
        prop_oneof![
            any::<u64>().prop_map(|t| TxnCtl::Op { txn: TxnId(t) }),
            (any::<u64>(), any::<u32>()).prop_map(|(t, n)| TxnCtl::Commit {
                txn: TxnId(t),
                n_ops: n
            }),
            any::<u64>().prop_map(|t| TxnCtl::Abort { txn: TxnId(t) }),
            any::<u64>().prop_map(|t| TxnCtl::Prepare { txn: TxnId(t) }),
            (any::<u64>(), any::<bool>(), any::<bool>()).prop_map(|(t, c, r)| TxnCtl::Decide {
                txn: TxnId(t),
                commit: c,
                record: r
            }),
        ]
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        (
            arb_request_id(),
            arb_kind(),
            proptest::option::of(arb_txn_ctl()),
            arb_bytes(),
        )
            .prop_map(|(id, kind, txn, op)| Request { id, kind, txn, op })
    }

    fn arb_reply_body() -> impl Strategy<Value = ReplyBody> {
        prop_oneof![
            arb_bytes().prop_map(ReplyBody::Ok),
            any::<u64>().prop_map(|t| ReplyBody::TxnCommitted { txn: TxnId(t) }),
            (any::<u64>(), 0..6u8).prop_map(|(t, r)| ReplyBody::TxnAborted {
                txn: TxnId(t),
                reason: match r {
                    0 => AbortReason::ClientAbort,
                    1 => AbortReason::LeaderSwitch,
                    2 => AbortReason::Conflict,
                    3 => AbortReason::Unsupported,
                    4 => AbortReason::CrossShard,
                    _ => AbortReason::InDoubt,
                },
            }),
            Just(ReplyBody::Empty),
            Just(ReplyBody::Busy),
            any::<u64>().prop_map(|t| ReplyBody::TxnPrepared { txn: TxnId(t) }),
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

    fn arb_command() -> impl Strategy<Value = Command> {
        prop_oneof![
            Just(Command::Noop),
            arb_request().prop_map(Command::Req),
            (
                arb_request_id(),
                any::<u64>(),
                proptest::collection::vec(arb_request(), 0..4)
            )
                .prop_map(|(id, t, ops)| Command::TxnCommit {
                    id,
                    txn: TxnId(t),
                    ops
                }),
            (any::<u64>(), arb_request())
                .prop_map(|(t, req)| Command::TxnPrepare { txn: TxnId(t), req }),
            (arb_request_id(), any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
                |(id, t, c, r)| Command::TxnDecide {
                    id,
                    txn: TxnId(t),
                    commit: c,
                    record: r
                }
            ),
        ]
    }

    fn arb_decree() -> impl Strategy<Value = Decree> {
        proptest::collection::vec((arb_command(), arb_update(), arb_reply_body()), 0..3).prop_map(
            |entries| Decree {
                entries: entries
                    .into_iter()
                    .map(|(cmd, update, reply)| DecreeEntry { cmd, update, reply })
                    .collect(),
            },
        )
    }

    fn arb_image_run() -> impl Strategy<Value = ImageRun> {
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec((any::<u64>(), any::<u64>(), arb_reply_body()), 0..4),
            proptest::collection::vec(arb_bytes(), 0..3),
        )
            .prop_map(|(u, total, first, d, pieces)| ImageRun {
                upto: Instance(u),
                total,
                first,
                pieces,
                dedup: d
                    .into_iter()
                    .map(|(c, s, r)| DedupEntry {
                        client: ClientId(c),
                        seq: Seq(s),
                        reply: r,
                    })
                    .collect(),
            })
    }

    fn arb_msg() -> impl Strategy<Value = Msg> {
        prop_oneof![
            arb_request().prop_map(Msg::Request),
            (
                arb_request_id(),
                any::<u32>(),
                any::<u64>(),
                arb_reply_body()
            )
                .prop_map(|(id, l, wm, body)| {
                    Msg::Reply(Reply {
                        id,
                        leader: ProcessId(l),
                        watermark: Instance(wm),
                        body,
                    })
                }),
            (
                arb_ballot(),
                any::<u64>(),
                proptest::collection::vec(any::<u64>(), 0..4)
            )
                .prop_map(|(b, p, ka)| Msg::Prepare {
                    ballot: b,
                    chosen_prefix: Instance(p),
                    known_above: ka.into_iter().map(Instance).collect(),
                }),
            (
                arb_ballot(),
                any::<u64>(),
                proptest::collection::vec((any::<u64>(), arb_ballot(), arb_decree()), 0..3),
            )
                .prop_map(|(b, p, acc)| Msg::Promise {
                    ballot: b,
                    chosen_prefix: Instance(p),
                    accepted: acc
                        .into_iter()
                        .map(|(i, ab, d)| AcceptedEntry {
                            instance: Instance(i),
                            ballot: ab,
                            decree: d,
                        })
                        .collect(),
                }),
            (
                arb_ballot(),
                proptest::collection::vec((any::<u64>(), arb_decree()), 0..3)
            )
                .prop_map(|(b, es)| Msg::Accept {
                    ballot: b,
                    entries: es.into_iter().map(|(i, d)| (Instance(i), d)).collect(),
                }),
            (arb_ballot(), proptest::collection::vec(any::<u64>(), 0..5)).prop_map(|(b, is)| {
                Msg::Accepted {
                    ballot: b,
                    instances: is.into_iter().map(Instance).collect(),
                }
            }),
            (arb_ballot(), arb_ballot()).prop_map(|(b, p)| Msg::AcceptNack {
                ballot: b,
                promised: p
            }),
            (arb_ballot(), any::<u64>()).prop_map(|(b, u)| Msg::Chosen {
                ballot: b,
                upto: Instance(u)
            }),
            (arb_ballot(), arb_request_id()).prop_map(|(b, r)| Msg::Confirm { ballot: b, read: r }),
            (arb_ballot(), any::<u64>(), any::<bool>()).prop_map(|(b, e, bk)| Msg::ConfirmReq {
                ballot: b,
                epoch: e,
                backlog: bk,
            }),
            (arb_ballot(), any::<u64>()).prop_map(|(b, e)| Msg::ConfirmBatch {
                ballot: b,
                epoch: e
            }),
            (arb_ballot(), any::<u64>(), any::<u64>()).prop_map(|(b, c, h)| Msg::Heartbeat {
                ballot: b,
                chosen: Instance(c),
                hb_seq: h,
            }),
            (arb_ballot(), any::<u64>()).prop_map(|(b, h)| Msg::HeartbeatAck {
                ballot: b,
                hb_seq: h
            }),
            (
                any::<u64>(),
                proptest::option::of((any::<u64>(), any::<u32>()))
            )
                .prop_map(|(h, r)| Msg::CatchUpReq {
                    have: Instance(h),
                    resume: r.map(|(u, p)| (Instance(u), p)),
                }),
            (
                arb_ballot(),
                proptest::option::of(arb_image_run()),
                proptest::collection::vec((any::<u64>(), arb_decree()), 0..3),
            )
                .prop_map(|(b, image, es)| Msg::CatchUp {
                    ballot: b,
                    image,
                    entries: es.into_iter().map(|(i, d)| (Instance(i), d)).collect(),
                }),
            // Group envelope around the message shapes that actually cross
            // the wire enveloped in multi-group deployments.
            (
                any::<u32>(),
                prop_oneof![
                    arb_request().prop_map(Msg::Request),
                    (
                        arb_request_id(),
                        any::<u32>(),
                        any::<u64>(),
                        arb_reply_body()
                    )
                        .prop_map(|(id, l, wm, body)| {
                            Msg::Reply(Reply {
                                id,
                                leader: ProcessId(l),
                                watermark: Instance(wm),
                                body,
                            })
                        }),
                    (arb_ballot(), any::<u64>(), any::<u64>()).prop_map(|(b, c, h)| {
                        Msg::Heartbeat {
                            ballot: b,
                            chosen: Instance(c),
                            hb_seq: h,
                        }
                    }),
                ]
            )
                .prop_map(|(g, inner)| Msg::Grouped {
                    group: GroupId(g),
                    inner: Box::new(inner),
                }),
        ]
    }

    proptest! {
        #[test]
        fn any_message_roundtrips(msg in arb_msg()) {
            let mut b = encode_to_bytes(&msg);
            let decoded = decode_msg(&mut b).expect("decode");
            prop_assert!(b.is_empty(), "trailing bytes");
            prop_assert_eq!(decoded, msg);
        }

        #[test]
        fn arbitrary_junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut b = Bytes::from(junk);
            let _ = decode_msg(&mut b); // must not panic
        }
    }
}
