//! The service the model checker replicates: a bit-set register.
//!
//! Every write (and every transaction operation) in a checker scenario is
//! assigned a distinct bit. Committed service state is the OR of all
//! committed bits, so any observation of the state — a read reply, a
//! replica snapshot — reveals exactly *which* operations it reflects.
//! That is what lets the invariant layer state linearizability and
//! transaction atomicity as set inclusions over `u64` masks.
//!
//! T-Paxos staging (`durable = false`) is held in a volatile side table
//! that is excluded from [`App::snapshot`] and cleared by [`App::restore`],
//! exactly as the [`App`] contract demands (§3.5–3.6): staged effects live
//! only on the leader and die with its leadership.

use bytes::Bytes;
use gridpaxos_core::command::StateUpdate;
use gridpaxos_core::request::{AbortReason, Request, RequestKind};
use gridpaxos_core::service::{App, ExecCtx};
use gridpaxos_core::types::TxnId;
use std::collections::HashMap;

/// Decode a bit-set mask from the first 8 (little-endian) bytes of a
/// payload. State encodings carry `mask ++ chain`; the mask prefix alone
/// answers the set-inclusion invariants.
#[must_use]
pub fn decode_mask(buf: &[u8]) -> Option<u64> {
    buf.get(..8)?.try_into().ok().map(u64::from_le_bytes)
}

/// Decode the order-sensitive apply chain from bytes 8..16 of a state
/// encoding (0 for legacy 8-byte mask-only payloads).
#[must_use]
pub fn decode_chain(buf: &[u8]) -> u64 {
    buf.get(8..16)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// One FNV-style step of the apply chain. Non-commutative on purpose:
/// folding bits in a different order yields a different chain, which is
/// what lets the agreement invariant catch an apply pipeline that
/// reorders writes even when the final OR-mask coincides.
#[must_use]
pub fn chain_fold(chain: u64, bits: u64) -> u64 {
    (chain ^ bits).wrapping_mul(0x0100_0000_01b3)
}

/// Bit-set register service (see module docs).
#[derive(Debug, Default, Clone)]
pub struct CheckerApp {
    /// Committed state: OR of every committed operation bit.
    committed: u64,
    /// Order-sensitive digest of the committed-write sequence (see
    /// [`chain_fold`]). Part of replicated state: it ships inside every
    /// `StateUpdate::Full`, so replicas agree on it exactly when they
    /// applied the same writes in the same order.
    chain: u64,
    /// T-Paxos staging: per-transaction bits, volatile by contract.
    staged: HashMap<TxnId, u64>,
}

impl CheckerApp {
    /// Fresh service with no bits set.
    #[must_use]
    pub fn new() -> CheckerApp {
        CheckerApp::default()
    }

    fn encode(&self) -> Bytes {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.committed.to_le_bytes());
        out[8..].copy_from_slice(&self.chain.to_le_bytes());
        Bytes::copy_from_slice(&out)
    }

    fn op_bit(req: &Request) -> u64 {
        req.op.first().map_or(0, |b| 1u64 << (b % 64))
    }
}

impl App for CheckerApp {
    fn execute(&mut self, req: &Request, _ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        match req.kind {
            RequestKind::Read => (self.encode(), StateUpdate::None),
            _ => {
                let bit = Self::op_bit(req);
                self.committed |= bit;
                self.chain = chain_fold(self.chain, bit);
                (self.encode(), StateUpdate::Full(self.encode()))
            }
        }
    }

    fn apply(&mut self, _req: &Request, update: &StateUpdate) {
        match update {
            StateUpdate::None => {}
            StateUpdate::Full(b) | StateUpdate::Delta(b) | StateUpdate::Reproduce(b) => {
                if let Some(m) = decode_mask(b) {
                    self.committed = m;
                    self.chain = decode_chain(b);
                }
            }
        }
    }

    fn snapshot(&self) -> Bytes {
        // Staged bits deliberately absent: T-Paxos staging is not
        // replicated state.
        self.encode()
    }

    fn restore(&mut self, snap: &[u8]) {
        self.committed = decode_mask(snap).unwrap_or(0);
        self.chain = decode_chain(snap);
        // The contract: restore clears all volatile staging.
        self.staged.clear();
    }

    fn txn_begin(&mut self, txn: TxnId) {
        self.staged.entry(txn).or_insert(0);
    }

    fn txn_execute(
        &mut self,
        txn: TxnId,
        req: &Request,
        durable: bool,
        _ctx: &mut ExecCtx<'_>,
    ) -> Result<(Bytes, StateUpdate), AbortReason> {
        let bit = Self::op_bit(req);
        *self.staged.entry(txn).or_insert(0) |= bit;
        if durable {
            // Per-op coordination would need the staging replicated; the
            // checker only exercises the T-Paxos path.
            return Err(AbortReason::Unsupported);
        }
        Ok((
            Bytes::copy_from_slice(&bit.to_le_bytes()),
            StateUpdate::None,
        ))
    }

    fn txn_commit(&mut self, txn: TxnId) -> StateUpdate {
        let bits = self.staged.remove(&txn).unwrap_or(0);
        self.committed |= bits;
        self.chain = chain_fold(self.chain, bits);
        StateUpdate::Full(self.encode())
    }

    fn txn_abort(&mut self, txn: TxnId) {
        self.staged.remove(&txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridpaxos_core::request::RequestId;
    use gridpaxos_core::types::{ClientId, Seq, Time};
    fn rng() -> rand::rngs::SmallRng {
        use rand::SeedableRng;
        rand::rngs::SmallRng::seed_from_u64(1)
    }

    fn wreq(seq: u64, bit: u8) -> Request {
        Request::new(
            RequestId::new(ClientId(1), Seq(seq)),
            RequestKind::Write,
            Bytes::copy_from_slice(&[bit]),
        )
    }

    #[test]
    fn staged_bits_stay_out_of_snapshots_until_commit() {
        let mut app = CheckerApp::new();
        let mut r = rng();
        let mut ctx = ExecCtx::new(Time::ZERO, &mut r);
        app.txn_begin(TxnId(7));
        app.txn_execute(TxnId(7), &wreq(1, 3), false, &mut ctx)
            .expect("staged");
        assert_eq!(decode_mask(&app.snapshot()), Some(0));
        app.txn_commit(TxnId(7));
        assert_eq!(decode_mask(&app.snapshot()), Some(1 << 3));
    }

    #[test]
    fn restore_clears_staging() {
        let mut app = CheckerApp::new();
        let mut r = rng();
        let mut ctx = ExecCtx::new(Time::ZERO, &mut r);
        app.txn_begin(TxnId(7));
        app.txn_execute(TxnId(7), &wreq(1, 5), false, &mut ctx)
            .expect("staged");
        app.restore(&0u64.to_le_bytes());
        // A commit after restore folds nothing in.
        app.txn_commit(TxnId(7));
        assert_eq!(decode_mask(&app.snapshot()), Some(0));
    }
}
