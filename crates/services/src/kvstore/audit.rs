//! The transfer audit: what a quiescent deployment of sharded stores
//! that ran balance transfers ([`super::transfer_legs`]) must satisfy,
//! written once for the atomicity checker, the bank experiment and the
//! conservation tests.

use super::KvStore;
use bytes::Bytes;
use gridpaxos_core::service::App;
use gridpaxos_core::types::{GroupId, Instance};

/// Decode each group's agreed store: `states_of(g)` is group `g`'s
/// `(chosen prefix, service snapshot)` on every live replica, and the
/// replicas of a group must all hold the same pair.
pub fn agreed_stores(
    n_groups: usize,
    mut states_of: impl FnMut(GroupId) -> Vec<(Instance, Bytes)>,
) -> Result<Vec<KvStore>, String> {
    (0..n_groups)
        .map(|g| {
            let states = states_of(GroupId(g as u32));
            let Some((_, snapshot)) = states.first() else {
                return Err(format!("group {g} has no live replicas"));
            };
            if !states.windows(2).all(|p| p[0] == p[1]) {
                return Err(format!("group {g} replicas diverged"));
            }
            let mut store = KvStore::sharded_in(g as u32, n_groups);
            store.restore(snapshot);
            Ok(store)
        })
        .collect()
}

/// Cross-group atomicity on a quiescent deployment, one agreed store per
/// group: no prepared intent may survive quiescence (every 2PC
/// transaction was resolved), every `acct*` balance is an integer, and
/// the balances sum to zero (every transfer started from zero balances
/// and moved money, never minted it). A violated sum is exactly a
/// half-committed transfer — one group applied its leg, another dropped
/// it.
pub fn audit_transfers(stores: &[KvStore]) -> Result<(), String> {
    for (g, s) in stores.iter().enumerate() {
        let open = s.prepared_txns();
        if !open.is_empty() {
            return Err(format!(
                "atomicity: group {g} still holds prepared intents {open:?} at quiescence"
            ));
        }
    }
    let mut total = 0i64;
    for (g, s) in stores.iter().enumerate() {
        for (k, v) in s.iter().filter(|(k, _)| k.starts_with("acct")) {
            let Ok(n) = v.parse::<i64>() else {
                return Err(format!(
                    "atomicity: group {g} key {k} holds non-integer balance {v:?}"
                ));
            };
            total += n;
        }
    }
    if total != 0 {
        return Err(format!(
            "atomicity: balances sum to {total}, not 0 — a transfer half-committed"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::tests::{exec, req};
    use super::*;
    use crate::KvOp;
    use gridpaxos_core::request::RequestKind;

    /// A balance that is not an integer fails the audit, whatever the
    /// other balances sum to: counted as 0, a corrupted account would
    /// pass.
    #[test]
    fn a_non_integer_balance_fails_the_audit() {
        let mut store = KvStore::new();
        let put = KvOp::Put("acct0".into(), "ten".into());
        exec(&mut store, &req(1, RequestKind::Write, &put));
        let v = audit_transfers(&[store]).expect_err("a corrupted balance passed");
        assert!(v.contains("non-integer"), "{v}");
    }
}
