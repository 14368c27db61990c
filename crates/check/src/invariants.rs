//! The paper's safety invariants, as assertions over a [`Cluster`] state
//! and its observed history. DESIGN.md §"Checked invariants" maps each
//! check to its paper section.

use crate::app::decode_mask;
use crate::harness::{Cluster, Observations};
use gridpaxos_core::replica::CheckerView;
use gridpaxos_core::types::Instance;
use std::collections::HashMap;

/// Check every structural invariant of the current cluster state.
/// Returns a description of the first violation found.
#[must_use]
pub fn check_state(cl: &Cluster) -> Option<String> {
    agreement(cl)
        .or_else(|| gap_freedom(cl))
        .or_else(|| snapshot_history(cl))
}

/// §3.3 agreement: no two replicas decide different `⟨req, state⟩`
/// decrees for the same instance, and replicas at the same chosen prefix
/// hold identical service state.
fn agreement(cl: &Cluster) -> Option<String> {
    let per_replica: Vec<(usize, Vec<(Instance, u64)>)> = (0..cl.n())
        .filter_map(|i| cl.replica(i).map(|r| (i, r.chosen_digests())))
        .collect();
    if let Some(v) = check_chosen_digests(&per_replica) {
        return Some(v);
    }
    // Equal chosen prefix ⟹ byte-identical applied service state, except
    // on a leader mid-tentative-execution (§3.3: the leader executes
    // before the decree is chosen, so its service state may run one step
    // ahead). Comparing full snapshots (not just the OR-mask) makes this
    // order-sensitive: the CheckerApp state embeds an apply chain, so a
    // pipeline that applied the same writes in a different order is
    // caught even though the final masks coincide.
    let states: Vec<(usize, Instance, bytes::Bytes)> = (0..cl.n())
        .filter_map(|i| {
            let r = cl.replica(i)?;
            (!r.checker_view().tentative_exec).then(|| (i, r.chosen_prefix(), r.service_snapshot()))
        })
        .collect();
    check_state_agreement(&states)
}

/// State-level core of the agreement check: replicas at the same chosen
/// prefix must hold byte-identical service snapshots. Exposed for the
/// seeded-mutation self-tests.
#[must_use]
pub fn check_state_agreement(states: &[(usize, Instance, bytes::Bytes)]) -> Option<String> {
    let mut state_at: HashMap<Instance, (usize, &bytes::Bytes)> = HashMap::new();
    for (i, prefix, snap) in states {
        match state_at.get(prefix) {
            None => {
                state_at.insert(*prefix, (*i, snap));
            }
            Some(&(j, other)) if other != snap => {
                return Some(format!(
                    "agreement: replicas {j} and {i} applied the same prefix \
                     {prefix:?} but hold different state (mask {:#x} chain \
                     {:#x} vs mask {:#x} chain {:#x})",
                    decode_mask(other).unwrap_or(0),
                    crate::app::decode_chain(other),
                    decode_mask(snap).unwrap_or(0),
                    crate::app::decode_chain(snap),
                ));
            }
            Some(_) => {}
        }
    }
    None
}

fn gap_freedom(cl: &Cluster) -> Option<String> {
    let views: Vec<(usize, CheckerView)> = (0..cl.n())
        .filter_map(|i| cl.replica(i).map(|r| (i, r.checker_view())))
        .collect();
    check_gap_freedom(&views)
}

/// §3.3 strict pipelining: a quiescent leader (nothing in flight, no
/// recovery outstanding) has assigned exactly the chosen instances — its
/// next instance number immediately follows the chosen prefix, i.e. the
/// log it is building has no gap. Takes each live replica's view;
/// exposed for the seeded-mutation self-tests.
#[must_use]
pub fn check_gap_freedom(views: &[(usize, CheckerView)]) -> Option<String> {
    for (i, v) in views {
        if v.role == "leader" && v.quiescent {
            let (Some(next), prefix) = (v.next_instance, v.chosen_prefix) else {
                continue;
            };
            if next != prefix.next() {
                return Some(format!(
                    "gap-freedom: quiescent leader {i} would assign {next:?} \
                     but the chosen prefix is {prefix:?}"
                ));
            }
        }
    }
    None
}

/// History-facing checks on replica snapshots: transaction atomicity
/// (§3.5) and no resurrection of aborted transactions (§3.6), applied to
/// every replica's service state.
fn snapshot_history(cl: &Cluster) -> Option<String> {
    for i in 0..cl.n() {
        let Some(r) = cl.replica(i) else { continue };
        let Some(mask) = decode_mask(&r.service_snapshot()) else {
            continue;
        };
        if let Some(v) = check_mask_invariants(mask, &cl.obs) {
            return Some(format!("replica {i} state: {v}"));
        }
    }
    None
}

/// Digest-level core of the agreement check (§3.3): given each replica's
/// chosen `(instance, decree digest)` pairs, any two replicas holding
/// different digests for the same instance is a violation.
#[must_use]
pub fn check_chosen_digests(per_replica: &[(usize, Vec<(Instance, u64)>)]) -> Option<String> {
    let mut chosen: HashMap<Instance, (usize, u64)> = HashMap::new();
    for (i, digests) in per_replica {
        for &(inst, digest) in digests {
            match chosen.get(&inst) {
                None => {
                    chosen.insert(inst, (*i, digest));
                }
                Some(&(j, other)) if other != digest => {
                    return Some(format!(
                        "agreement: replicas {j} and {i} decided different \
                         decrees for instance {inst:?}"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    None
}

/// Invariants every observed state mask must satisfy, whether it came
/// from a read reply or a replica snapshot.
#[must_use]
pub fn check_mask_invariants(mask: u64, obs: &Observations) -> Option<String> {
    if mask & !obs.issued_bits != 0 {
        return Some(format!(
            "contains bits {:#x} that were never issued",
            mask & !obs.issued_bits
        ));
    }
    if mask & obs.aborted_bits != 0 {
        return Some(format!(
            "contains bits {:#x} of an aborted transaction (§3.6: staged \
             effects die with the leadership / abort)",
            mask & obs.aborted_bits
        ));
    }
    for (txn, bits) in &obs.txn_bits {
        let seen = mask & bits;
        if seen != 0 && seen != *bits {
            return Some(format!(
                "atomicity (§3.5): transaction {txn:?} is partially visible \
                 ({seen:#x} of {bits:#x})"
            ));
        }
    }
    None
}

/// §3.4 read linearizability bounds: a read's result must include every
/// write acknowledged before the read was issued, and every write a read
/// that completed before then saw (reads never travel back in time past
/// an ack or an earlier read), and may include only issued writes, with
/// the mask-level invariants on top. `seen_at_issue` is the union of the
/// two. The epoch-batched confirm path (extension) answers through the same
/// reply route, and a read answered from chosen state under a decree in
/// flight too, so both are covered by the same bound.
#[must_use]
pub fn check_read_mask(mask: u64, seen_at_issue: u64, obs: &Observations) -> Option<String> {
    if seen_at_issue & !mask != 0 {
        return Some(format!(
            "linearizability (§3.4): missing bits {:#x} that were \
             acknowledged, or seen by a completed read, before the read \
             was issued",
            seen_at_issue & !mask
        ));
    }
    check_mask_invariants(mask, obs)
}

/// Session guarantees for bounded-staleness follower reads (extension;
/// DESIGN.md §"Zero-round follower reads"). The harness emulates the
/// client's session layer: a read reply whose watermark is below the
/// session watermark is discarded (the client retries), so this check
/// runs only on *accepted* replies. An accepted read must contain every
/// write this client had acknowledged when the read was issued
/// (read-your-writes) and every bit an earlier accepted read observed
/// (monotonic reads), on top of the mask-level invariants.
#[must_use]
pub fn check_session_read(
    mask: u64,
    acked_at_issue: u64,
    read_floor: u64,
    obs: &Observations,
) -> Option<String> {
    if acked_at_issue & !mask != 0 {
        return Some(format!(
            "session read-your-writes: missing bits {:#x} that were \
             acknowledged to this client before the read was issued",
            acked_at_issue & !mask
        ));
    }
    if read_floor & !mask != 0 {
        return Some(format!(
            "session monotonic-reads: missing bits {:#x} that an earlier \
             accepted read already observed",
            read_floor & !mask
        ));
    }
    check_mask_invariants(mask, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{chain_fold, decode_chain, CheckerApp};
    use bytes::Bytes;
    use gridpaxos_core::command::StateUpdate;
    use gridpaxos_core::request::{Request, RequestId, RequestKind};
    use gridpaxos_core::service::App;
    use gridpaxos_core::types::{ClientId, Seq};

    fn full_update(mask: u64, chain: u64) -> StateUpdate {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&mask.to_le_bytes());
        b[8..].copy_from_slice(&chain.to_le_bytes());
        StateUpdate::Full(Bytes::copy_from_slice(&b))
    }

    fn wreq(seq: u64, bit: u8) -> Request {
        Request::new(
            RequestId::new(ClientId(1), Seq(seq)),
            RequestKind::Write,
            Bytes::copy_from_slice(&[bit]),
        )
    }

    /// Seeded mutation: two backups apply the same two same-register
    /// writes in opposite orders (both decrees set bit 0, so either
    /// order ends at mask 0b1). A mask-only agreement check would pass —
    /// the apply chain must catch it.
    #[test]
    fn state_agreement_fires_on_reordered_applies() {
        let updates = [
            full_update(0b01, chain_fold(0, 0b01)),
            full_update(0b01, chain_fold(chain_fold(0, 0b01), 0b01)),
        ];
        let mut in_order = CheckerApp::new();
        let mut reordered = CheckerApp::new();
        for u in &updates {
            in_order.apply(&wreq(1, 0), u);
        }
        for u in updates.iter().rev() {
            reordered.apply(&wreq(1, 0), u);
        }
        assert_eq!(
            decode_mask(&in_order.snapshot()),
            decode_mask(&reordered.snapshot()),
            "the mutation is invisible to the OR-mask"
        );
        assert_ne!(
            decode_chain(&in_order.snapshot()),
            decode_chain(&reordered.snapshot()),
            "the apply chain distinguishes the orders"
        );
        let prefix = Instance(2);
        let states = vec![
            (0usize, prefix, in_order.snapshot()),
            (1usize, prefix, reordered.snapshot()),
        ];
        let v = check_state_agreement(&states).expect("must flag the reorder");
        assert!(v.contains("agreement"), "got: {v}");
    }

    #[test]
    fn state_agreement_accepts_identical_histories() {
        let mut a = CheckerApp::new();
        let mut b = CheckerApp::new();
        for (seq, bit) in [(1, 3), (2, 5), (3, 3)] {
            let u = {
                let mut leader_ctx_rng = {
                    use rand::SeedableRng;
                    rand::rngs::SmallRng::seed_from_u64(1)
                };
                let mut ctx = gridpaxos_core::service::ExecCtx::new(
                    gridpaxos_core::types::Time::ZERO,
                    &mut leader_ctx_rng,
                );
                let mut leader = a.clone();
                let (_, u) = leader.execute(&wreq(seq, bit), &mut ctx);
                u
            };
            a.apply(&wreq(seq, bit), &u);
            b.apply(&wreq(seq, bit), &u);
        }
        let states = vec![
            (0usize, Instance(3), a.snapshot()),
            (1usize, Instance(3), b.snapshot()),
            // A replica at a different prefix is allowed to differ.
            (2usize, Instance(1), CheckerApp::new().snapshot()),
        ];
        assert!(check_state_agreement(&states).is_none());
    }
}
