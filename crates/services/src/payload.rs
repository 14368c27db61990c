//! A synthetic service with *configurable state size* and selectable
//! state-shipping strategy — the instrument behind the state-size
//! experiment. §3.3 argues the overhead of transferring service state
//! "can usually be made small" by shipping deltas or nondeterminism
//! records instead of full state (the paper cites its companion study
//! \[30\] for the full analysis); this service lets the benchmark measure
//! exactly that trade-off.
//!
//! Semantics: the state is a byte blob. A write picks a random offset and
//! a random seed (the nondeterminism), then deterministically overwrites
//! [`PATCH_LEN`] bytes derived from the seed. The three shipping modes
//! replicate the identical effect at very different wire costs:
//!
//! * [`ShipMode::Full`] — the whole post-write blob;
//! * [`ShipMode::Delta`] — offset + the patched bytes;
//! * [`ShipMode::Reproduce`] — offset + the 8-byte seed (backups
//!   regenerate the patch).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use gridpaxos_core::command::StateUpdate;
use gridpaxos_core::request::{Request, RequestKind};
use gridpaxos_core::service::{App, ExecCtx};
use rand::Rng;

/// Bytes overwritten per write.
pub const PATCH_LEN: usize = 64;

/// How a write's effect is shipped to the backups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShipMode {
    /// Ship the complete state blob.
    Full,
    /// Ship offset + patched bytes.
    Delta,
    /// Ship offset + seed; backups regenerate the patch.
    Reproduce,
}

/// The synthetic service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizedApp {
    state: Vec<u8>,
    mode: ShipMode,
    writes: u64,
}

fn patch_from_seed(seed: u64) -> [u8; PATCH_LEN] {
    // A tiny deterministic generator (splitmix-style) — identical on every
    // replica given the same seed.
    let mut out = [0u8; PATCH_LEN];
    let mut x = seed;
    for chunk in out.chunks_mut(8) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let bytes = z.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    out
}

impl SizedApp {
    /// A service whose state is `state_size` bytes, shipping via `mode`.
    #[must_use]
    pub fn new(state_size: usize, mode: ShipMode) -> SizedApp {
        SizedApp {
            state: vec![0; state_size.max(PATCH_LEN)],
            mode,
            writes: 0,
        }
    }

    /// Simple state checksum (read replies and test assertions).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in &self.state {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^ self.writes
    }

    fn apply_patch(&mut self, offset: usize, seed: u64) {
        let patch = patch_from_seed(seed);
        let off = offset.min(self.state.len() - PATCH_LEN);
        self.state[off..off + PATCH_LEN].copy_from_slice(&patch);
        self.writes += 1;
    }
}

impl App for SizedApp {
    fn execute(&mut self, req: &Request, ctx: &mut ExecCtx<'_>) -> (Bytes, StateUpdate) {
        if req.kind == RequestKind::Read {
            return (
                Bytes::copy_from_slice(&self.checksum().to_le_bytes()),
                StateUpdate::None,
            );
        }
        // The nondeterministic step: where and what to write.
        let offset = ctx.rng.gen_range(0..=(self.state.len() - PATCH_LEN));
        let seed: u64 = ctx.rng.gen();
        self.apply_patch(offset, seed);

        let reply = Bytes::copy_from_slice(&self.checksum().to_le_bytes());
        let update = match self.mode {
            ShipMode::Full => StateUpdate::Full(Bytes::from(self.state.clone())),
            ShipMode::Delta => {
                let mut out = BytesMut::with_capacity(8 + PATCH_LEN);
                out.put_u64_le(offset as u64);
                out.put_slice(&self.state[offset..offset + PATCH_LEN]);
                StateUpdate::Delta(out.freeze())
            }
            ShipMode::Reproduce => {
                let mut out = BytesMut::with_capacity(16);
                out.put_u64_le(offset as u64);
                out.put_u64_le(seed);
                StateUpdate::Reproduce(out.freeze())
            }
        };
        (reply, update)
    }

    fn apply(&mut self, _req: &Request, update: &StateUpdate) {
        match update {
            StateUpdate::None => {}
            StateUpdate::Full(b) => {
                self.state.clear();
                self.state.extend_from_slice(b);
                self.writes += 1;
            }
            StateUpdate::Delta(b) => {
                let mut buf = b.clone();
                if buf.remaining() >= 8 {
                    let offset = buf.get_u64_le() as usize;
                    let off = offset.min(self.state.len().saturating_sub(PATCH_LEN));
                    let n = PATCH_LEN.min(buf.remaining());
                    self.state[off..off + n].copy_from_slice(&buf[..n]);
                    self.writes += 1;
                }
            }
            StateUpdate::Reproduce(b) => {
                let mut buf = b.clone();
                if buf.remaining() >= 16 {
                    let offset = buf.get_u64_le() as usize;
                    let seed = buf.get_u64_le();
                    self.apply_patch(offset, seed);
                }
            }
        }
    }

    fn snapshot(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(8 + self.state.len());
        out.put_u64_le(self.writes);
        out.put_slice(&self.state);
        out.freeze()
    }

    fn restore(&mut self, snap: &[u8]) {
        if let Some((writes, state)) = snap.split_first_chunk::<8>() {
            self.writes = u64::from_le_bytes(*writes);
            self.state.clear();
            self.state.extend_from_slice(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridpaxos_core::request::RequestId;
    use gridpaxos_core::types::{ClientId, Seq, Time};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn write_req(seq: u64) -> Request {
        Request::new(
            RequestId::new(ClientId(1), Seq(seq)),
            RequestKind::Write,
            Bytes::new(),
        )
    }

    #[test]
    fn every_ship_mode_converges_backups() {
        for mode in [ShipMode::Full, ShipMode::Delta, ShipMode::Reproduce] {
            let mut leader = SizedApp::new(4096, mode);
            let mut backup = SizedApp::new(4096, mode);
            let mut rng = SmallRng::seed_from_u64(7);
            for seq in 1..=20 {
                let r = write_req(seq);
                let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
                let (_, update) = leader.execute(&r, &mut ctx);
                backup.apply(&r, &update);
            }
            assert_eq!(
                backup.checksum(),
                leader.checksum(),
                "mode {mode:?} diverged"
            );
        }
    }

    #[test]
    fn update_sizes_differ_by_orders_of_magnitude() {
        let sizes: Vec<usize> = [ShipMode::Full, ShipMode::Delta, ShipMode::Reproduce]
            .iter()
            .map(|mode| {
                let mut app = SizedApp::new(64 * 1024, *mode);
                let mut rng = SmallRng::seed_from_u64(1);
                let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
                let (_, update) = app.execute(&write_req(1), &mut ctx);
                update.payload_len()
            })
            .collect();
        assert_eq!(sizes[0], 64 * 1024, "full = whole state");
        assert_eq!(sizes[1], 8 + PATCH_LEN, "delta = offset + patch");
        assert_eq!(sizes[2], 16, "reproduce = offset + seed");
    }

    #[test]
    fn independent_replicas_diverge_without_shipping() {
        // Two replicas executing the same writes with different RNGs end
        // up different — the raison d'être of the protocol.
        let mut a = SizedApp::new(1024, ShipMode::Full);
        let mut b = SizedApp::new(1024, ShipMode::Full);
        let mut rng_a = SmallRng::seed_from_u64(1);
        let mut rng_b = SmallRng::seed_from_u64(2);
        let r = write_req(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng_a);
        a.execute(&r, &mut ctx);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng_b);
        b.execute(&r, &mut ctx);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut app = SizedApp::new(2048, ShipMode::Delta);
        let mut rng = SmallRng::seed_from_u64(3);
        for seq in 1..=5 {
            let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
            app.execute(&write_req(seq), &mut ctx);
        }
        let snap = app.snapshot();
        let mut restored = SizedApp::new(2048, ShipMode::Delta);
        restored.restore(&snap);
        assert_eq!(restored.checksum(), app.checksum());
    }

    #[test]
    fn reads_do_not_mutate() {
        let mut app = SizedApp::new(512, ShipMode::Full);
        let before = app.checksum();
        let r = Request::new(
            RequestId::new(ClientId(1), Seq(1)),
            RequestKind::Read,
            Bytes::new(),
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = ExecCtx::new(Time::ZERO, &mut rng);
        let (reply, update) = app.execute(&r, &mut ctx);
        assert!(update.is_none());
        assert_eq!(app.checksum(), before);
        assert_eq!(reply.as_ref(), before.to_le_bytes());
    }
}
