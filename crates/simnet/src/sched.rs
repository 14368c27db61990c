//! Deterministic timer bookkeeping shared by event-driven harnesses.
//!
//! The sans-io replica asks its environment to arm and cancel named timers
//! ([`gridpaxos_core::action::Action::SetTimer`] /
//! [`gridpaxos_core::action::Action::CancelTimer`]). An event-driven
//! harness (the simulator's [`crate::world::World`], the model checker in
//! `crates/check`) cannot delete an already-scheduled firing from its
//! queue cheaply, so both use the same *generation* scheme: every arm or
//! cancel bumps a per-key counter, each scheduled firing carries the
//! generation it was armed with, and a firing whose generation is stale is
//! discarded on delivery. This module is that scheme, factored out so the
//! two harnesses cannot drift.

use std::collections::HashMap;
use std::hash::Hash;

/// Generation counters for a set of logical timers, keyed by `K`
/// (typically `(owner, timer kind)` or `(owner, group, kind)`).
#[derive(Debug, Default, Clone)]
pub struct TimerGens<K: Eq + Hash> {
    gens: HashMap<K, u64>,
}

impl<K: Eq + Hash> TimerGens<K> {
    /// Empty table: every timer is unarmed.
    #[must_use]
    pub fn new() -> TimerGens<K> {
        TimerGens {
            gens: HashMap::new(),
        }
    }

    /// Arm (or re-arm) the timer at `key`, invalidating any firing already
    /// in flight. Returns the generation to stamp on the new firing.
    pub fn arm(&mut self, key: K) -> u64 {
        let gen = self.gens.entry(key).or_insert(0);
        *gen += 1;
        *gen
    }

    /// Cancel the timer at `key`: any firing in flight becomes stale.
    pub fn cancel(&mut self, key: K) {
        *self.gens.entry(key).or_insert(0) += 1;
    }

    /// Whether a firing stamped `gen` for `key` is still the live one.
    #[must_use]
    pub fn is_live(&self, key: &K, gen: u64) -> bool {
        self.gens.get(key).copied() == Some(gen)
    }

    /// Drop all state for timers whose key matches `pred` (e.g. every
    /// timer owned by a crashed replica).
    pub fn retain(&mut self, pred: impl FnMut(&K, &mut u64) -> bool) {
        self.gens.retain(pred);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_cancel_liveness() {
        let mut t: TimerGens<(u8, u8)> = TimerGens::new();
        let g1 = t.arm((1, 0));
        assert!(t.is_live(&(1, 0), g1));
        // Re-arming invalidates the old firing.
        let g2 = t.arm((1, 0));
        assert!(!t.is_live(&(1, 0), g1));
        assert!(t.is_live(&(1, 0), g2));
        // Cancel invalidates without producing a new live generation.
        t.cancel((1, 0));
        assert!(!t.is_live(&(1, 0), g2));
        // Unrelated keys are independent; unknown keys are never live.
        let g3 = t.arm((2, 1));
        assert!(t.is_live(&(2, 1), g3));
        assert!(!t.is_live(&(9, 9), 0));
    }
}
