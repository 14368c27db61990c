//! The reactor's timer table: at most one pending timer per
//! `(group, kind)`, on a min-heap by due time. Setting a kind replaces its
//! pending timer and cancelling removes it — both by bumping the kind's
//! generation, so the superseded heap entry is skipped when it surfaces.

use gridpaxos_core::action::TimerKind;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

pub(crate) struct Timers {
    /// (due ns, group, kind, generation).
    heap: BinaryHeap<Reverse<(u64, u32, TimerKind, u64)>>,
    /// Live generation per group and kind.
    gens: Vec<HashMap<TimerKind, u64>>,
}

impl Timers {
    pub(crate) fn new(n_groups: usize) -> Timers {
        Timers {
            heap: BinaryHeap::new(),
            gens: vec![HashMap::new(); n_groups],
        }
    }

    /// Arm `kind` for `group` at `due` (ns), replacing any pending one.
    pub(crate) fn set(&mut self, group: usize, kind: TimerKind, due: u64) {
        let gen = self.gens[group].entry(kind).or_insert(0);
        *gen += 1;
        self.heap.push(Reverse((due, group as u32, kind, *gen)));
    }

    pub(crate) fn cancel(&mut self, group: usize, kind: TimerKind) {
        *self.gens[group].entry(kind).or_insert(0) += 1;
    }

    /// Remove and return the earliest live timer due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(usize, TimerKind)> {
        while let Some(&Reverse((due, group, kind, gen))) = self.heap.peek() {
            if due > now {
                return None;
            }
            self.heap.pop();
            let group = group as usize;
            if self.gens[group].get(&kind) == Some(&gen) {
                return Some((group, kind));
            }
        }
        None
    }

    /// Due time of the earliest live timer. Superseded entries at the
    /// head are dropped on the way: a leader arms and cancels a
    /// retransmit timer for every decree, and a drive loop that waits at
    /// clock resolution would otherwise wake once for each of them.
    pub(crate) fn next_due(&mut self) -> Option<u64> {
        while let Some(&Reverse((due, group, kind, gen))) = self.heap.peek() {
            if self.gens[group as usize].get(&kind) == Some(&gen) {
                return Some(due);
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_replaces_cancel_removes_and_groups_are_independent() {
        let mut t = Timers::new(2);
        t.set(0, TimerKind::Heartbeat, 10);
        t.set(0, TimerKind::Heartbeat, 30); // replaces the one at 10
        t.set(1, TimerKind::Heartbeat, 20);
        t.set(0, TimerKind::Election, 20);
        t.cancel(0, TimerKind::Election);
        assert_eq!(t.next_due(), Some(20), "superseded head wakes nobody");
        assert_eq!(t.pop_due(15), None);
        assert_eq!(t.pop_due(25), Some((1, TimerKind::Heartbeat)));
        assert_eq!(t.pop_due(25), None);
        assert_eq!(t.pop_due(30), Some((0, TimerKind::Heartbeat)));
        assert_eq!(t.next_due(), None);
    }

    #[test]
    fn same_instant_fires_in_group_then_kind_order() {
        let mut t = Timers::new(2);
        t.set(1, TimerKind::Heartbeat, 5);
        t.set(0, TimerKind::Election, 5);
        t.set(0, TimerKind::LeaderCheck, 5);
        let order: Vec<_> = std::iter::from_fn(|| t.pop_due(5)).collect();
        assert_eq!(
            order,
            [
                (0, TimerKind::LeaderCheck),
                (0, TimerKind::Election),
                (1, TimerKind::Heartbeat)
            ]
        );
    }
}
