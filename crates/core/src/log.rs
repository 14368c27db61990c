//! The per-replica command log (§3.3).
//!
//! "Every service process has ... a log of commands that it uses throughout
//! an execution to remember executed commands. This log is important to
//! guarantee that once a new leader emerges, this leader learns about all
//! previously accepted requests."
//!
//! The log tracks, per instance, the highest-ballot decree *accepted*, and
//! separately which instances are known *chosen*. Chosen decrees are
//! applied to the service strictly in instance order; `chosen_prefix` is
//! the contiguous applied prefix, and `known_chosen_above` holds instances
//! known chosen but blocked behind a hole (the paper's "knows requests 1–87
//! and 90" situation).

use crate::ballot::Ballot;
use crate::command::{AcceptedEntry, Decree};
use crate::storage::DurableState;
use crate::types::Instance;
use std::collections::{BTreeMap, BTreeSet};

/// Floor of the log's byte budget. A checkpoint falls due once the retained
/// decrees hold `max(2 × the last image, this)` payload bytes (compact when
/// the log outweighs what replaces it; `Executor::checkpoint_due`), and a
/// log-served `CatchUp` carries at most this much, an eighth of the
/// transports' frame limit. Derived from what the log holds, so
/// deliberately a constant and not a `Config` field: below it a service
/// with small values checkpoints by instance count as before.
pub const LOG_BYTES_FLOOR: u64 = 8 << 20;

/// In-memory mirror of the durable log plus chosen-tracking.
#[derive(Clone, Debug, Default)]
pub struct ReplicaLog {
    accepted: BTreeMap<Instance, (Ballot, Decree)>,
    /// [`Decree::payload_bytes`] summed over `accepted`, kept exact by
    /// every method that adds or drops an entry.
    bytes: u64,
    chosen_prefix: Instance,
    known_chosen_above: BTreeSet<Instance>,
}

impl ReplicaLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> ReplicaLog {
        ReplicaLog::default()
    }

    /// Rebuild from reloaded durable state. Entries at or below the durable
    /// chosen prefix are known chosen (we only persist the prefix after
    /// applying), so the prefix is restored directly.
    #[must_use]
    pub fn from_durable(d: &DurableState) -> ReplicaLog {
        ReplicaLog {
            accepted: d.accepted.clone(),
            bytes: payload_bytes(d.accepted.values()),
            chosen_prefix: d.chosen_prefix,
            known_chosen_above: BTreeSet::new(),
        }
    }

    /// Contiguous chosen-and-applied prefix.
    #[must_use]
    pub fn chosen_prefix(&self) -> Instance {
        self.chosen_prefix
    }

    /// Record an accepted decree (highest ballot wins; the caller has
    /// already checked the promise invariant).
    pub fn record_accept(&mut self, i: Instance, b: Ballot, d: Decree) {
        self.bytes += d.payload_bytes();
        if let Some((_, replaced)) = self.accepted.insert(i, (b, d)) {
            self.bytes -= replaced.payload_bytes();
        }
    }

    /// Payload bytes of the retained entries — what a checkpoint would
    /// let the log drop, weighed against [`LOG_BYTES_FLOOR`].
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The accepted entry for an instance, if any.
    #[must_use]
    pub fn get(&self, i: Instance) -> Option<&(Ballot, Decree)> {
        self.accepted.get(&i)
    }

    /// Mark instance `i` as known chosen (our accepted entry for `i` *is*
    /// the chosen decree). No-op if already applied.
    pub fn mark_chosen(&mut self, i: Instance) {
        if i > self.chosen_prefix {
            debug_assert!(self.accepted.contains_key(&i), "mark_chosen without entry");
            self.known_chosen_above.insert(i);
        }
    }

    /// Whether `i` is known chosen (applied or pending application).
    #[must_use]
    pub fn is_known_chosen(&self, i: Instance) -> bool {
        i <= self.chosen_prefix || self.known_chosen_above.contains(&i)
    }

    /// The next instance whose decree can be applied: the instance right
    /// above the prefix, if it is known chosen. Applying in this order is
    /// what makes state shipping sound — "the state after executing the
    /// i-th request depends on all the requests executed previously".
    #[must_use]
    pub fn next_applicable(&self) -> Option<(Instance, &Decree)> {
        let next = self.chosen_prefix.next();
        if self.known_chosen_above.contains(&next) {
            self.accepted.get(&next).map(|(_, d)| (next, d))
        } else {
            None
        }
    }

    /// Advance the prefix past `i` after the caller applied its decree.
    pub fn advance_applied(&mut self, i: Instance) {
        debug_assert_eq!(i, self.chosen_prefix.next(), "apply out of order");
        self.known_chosen_above.remove(&i);
        self.chosen_prefix = i;
    }

    /// Instances above the prefix known chosen — the `known_above` field of
    /// an outgoing `Prepare`.
    #[must_use]
    pub fn known_above(&self) -> Vec<Instance> {
        self.known_chosen_above.iter().copied().collect()
    }

    /// Every retained accepted entry, in instance order. Used by the model
    /// checker (`crates/check`) to fingerprint and compare log state.
    pub fn iter_accepted(&self) -> impl Iterator<Item = (Instance, &(Ballot, Decree))> + '_ {
        self.accepted.iter().map(|(i, e)| (*i, e))
    }

    /// Highest instance with any accepted entry (or the prefix if none).
    #[must_use]
    pub fn max_instance(&self) -> Instance {
        self.accepted
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.chosen_prefix)
            .max(self.chosen_prefix)
    }

    /// Accepted entries for instances strictly above `floor`, excluding the
    /// instances in `skip` — what a promiser sends a candidate.
    #[must_use]
    pub fn entries_above(&self, floor: Instance, skip: &[Instance]) -> Vec<AcceptedEntry> {
        self.accepted
            .range(floor.next()..)
            .filter(|(i, _)| !skip.contains(i))
            .map(|(i, (b, d))| AcceptedEntry {
                instance: *i,
                ballot: *b,
                decree: d.clone(),
            })
            .collect()
    }

    /// Chosen decrees in `(have, upto]`, if the log still holds *all* of
    /// them — used to serve catch-up from the log instead of a snapshot.
    /// The range ends before the decree that would take it past
    /// `max_bytes` of payload (never before the first: every answer makes
    /// progress); its last instance says how far it reaches.
    #[must_use]
    pub fn chosen_range(
        &self,
        have: Instance,
        upto: Instance,
        max_bytes: u64,
    ) -> Option<Vec<(Instance, Decree)>> {
        let mut out = Vec::new();
        let mut bytes = 0;
        let mut i = have.next();
        while i <= upto {
            if !self.is_known_chosen(i) {
                return None;
            }
            let (_, d) = self.accepted.get(&i)?;
            bytes += d.payload_bytes();
            if bytes > max_bytes && !out.is_empty() {
                break;
            }
            out.push((i, d.clone()));
            i = i.next();
        }
        Some(out)
    }

    /// Jump the chosen prefix forward to `upto` after installing a
    /// snapshot that covers every instance `<= upto`. No-op if the log is
    /// already at or past `upto`.
    pub fn force_prefix(&mut self, upto: Instance) {
        if upto > self.chosen_prefix {
            self.chosen_prefix = upto;
            self.known_chosen_above = self.known_chosen_above.split_off(&upto.next());
        }
    }

    /// Drop entries for instances `<= upto` (covered by a checkpoint).
    pub fn truncate_upto(&mut self, upto: Instance) {
        let kept = self.accepted.split_off(&upto.next());
        let dropped = std::mem::replace(&mut self.accepted, kept);
        self.bytes -= payload_bytes(dropped.values());
        self.known_chosen_above = self.known_chosen_above.split_off(&upto.next());
    }

    /// Number of retained accepted entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accepted.len()
    }

    /// Whether the log holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accepted.is_empty()
    }
}

fn payload_bytes<'a>(entries: impl Iterator<Item = &'a (Ballot, Decree)>) -> u64 {
    entries.map(|(_, d)| d.payload_bytes()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProcessId;

    fn b(r: u64) -> Ballot {
        Ballot::new(r, ProcessId(0))
    }

    fn filled(upto: u64) -> ReplicaLog {
        let mut log = ReplicaLog::new();
        for i in 1..=upto {
            log.record_accept(Instance(i), b(1), Decree::noop());
            log.mark_chosen(Instance(i));
        }
        while let Some((i, _)) = log.next_applicable().map(|(i, d)| (i, d.clone())) {
            log.advance_applied(i);
        }
        log
    }

    #[test]
    fn applies_strictly_in_order() {
        let mut log = ReplicaLog::new();
        log.record_accept(Instance(1), b(1), Decree::noop());
        log.record_accept(Instance(2), b(1), Decree::noop());
        log.mark_chosen(Instance(2));
        // Instance 2 is chosen but 1 is not yet: nothing applicable.
        assert!(log.next_applicable().is_none());
        log.mark_chosen(Instance(1));
        let (i, _) = log.next_applicable().unwrap();
        assert_eq!(i, Instance(1));
        log.advance_applied(Instance(1));
        let (i, _) = log.next_applicable().unwrap();
        assert_eq!(i, Instance(2));
        log.advance_applied(Instance(2));
        assert_eq!(log.chosen_prefix(), Instance(2));
        assert!(log.next_applicable().is_none());
    }

    #[test]
    fn known_above_reports_holes() {
        // The paper's scenario: knows 1..=87 and 90.
        let mut log = filled(87);
        log.record_accept(Instance(90), b(1), Decree::noop());
        log.mark_chosen(Instance(90));
        assert_eq!(log.chosen_prefix(), Instance(87));
        assert_eq!(log.known_above(), vec![Instance(90)]);
        assert!(log.is_known_chosen(Instance(90)));
        assert!(!log.is_known_chosen(Instance(88)));
    }

    #[test]
    fn entries_above_skips_requested() {
        let mut log = ReplicaLog::new();
        for i in 5..=9 {
            log.record_accept(Instance(i), b(2), Decree::noop());
        }
        let got = log.entries_above(Instance(5), &[Instance(7)]);
        let idx: Vec<_> = got.iter().map(|e| e.instance).collect();
        assert_eq!(idx, vec![Instance(6), Instance(8), Instance(9)]);
    }

    #[test]
    fn chosen_range_requires_full_coverage() {
        let log = filled(10);
        let r = log
            .chosen_range(Instance(3), Instance(6), u64::MAX)
            .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].0, Instance(4));
        // Beyond what is chosen: unavailable.
        assert!(log
            .chosen_range(Instance(3), Instance(11), u64::MAX)
            .is_none());
    }

    #[test]
    fn chosen_range_ends_before_the_decree_past_max_bytes() {
        use crate::command::{Command, StateUpdate};
        use crate::request::{ReplyBody, Request, RequestId, RequestKind};
        let id = RequestId::new(crate::types::ClientId(1), crate::types::Seq(1));
        let ten = Request::new(id, RequestKind::Write, bytes::Bytes::from_static(&[0; 10]));
        let decree = Decree::single(Command::Req(ten), StateUpdate::None, ReplyBody::Empty);
        let mut log = ReplicaLog::new();
        for i in 1..=6 {
            log.record_accept(Instance(i), b(1), decree.clone());
            log.mark_chosen(Instance(i));
            log.advance_applied(Instance(i));
        }
        assert_eq!(log.bytes(), 60);
        let reach = |have, max| {
            let range = log.chosen_range(Instance(have), Instance(6), max).unwrap();
            range.last().map(|(i, _)| i.0)
        };
        assert_eq!(reach(0, 60), Some(6));
        assert_eq!(reach(0, 35), Some(3));
        assert_eq!(reach(3, 35), Some(6));
        assert_eq!(reach(0, 5), Some(1), "never short of the first");
        assert_eq!(reach(6, 5), None);
        // An overwrite and a truncation keep the count exact.
        log.record_accept(Instance(7), b(1), decree.clone());
        log.record_accept(Instance(7), b(2), Decree::noop());
        assert_eq!(log.bytes(), 60);
        log.truncate_upto(Instance(4));
        assert_eq!(log.bytes(), 20);
    }

    #[test]
    fn truncate_drops_prefix_entries() {
        let mut log = filled(10);
        assert_eq!(log.len(), 10);
        log.truncate_upto(Instance(8));
        assert_eq!(log.len(), 2);
        assert!(log.get(Instance(8)).is_none());
        assert!(log.get(Instance(9)).is_some());
        // Catch-up from below the truncation point must now fail over to a
        // snapshot.
        assert!(log
            .chosen_range(Instance(5), Instance(10), u64::MAX)
            .is_none());
        assert!(log
            .chosen_range(Instance(8), Instance(10), u64::MAX)
            .is_some());
    }

    #[test]
    fn max_instance_tracks_log_and_prefix() {
        let mut log = filled(4);
        assert_eq!(log.max_instance(), Instance(4));
        log.record_accept(Instance(9), b(2), Decree::noop());
        assert_eq!(log.max_instance(), Instance(9));
        log.truncate_upto(Instance(9));
        assert_eq!(log.max_instance(), Instance(4).max(log.chosen_prefix()));
    }

    #[test]
    fn from_durable_restores_prefix() {
        let mut d = DurableState {
            chosen_prefix: Instance(3),
            ..DurableState::default()
        };
        d.accepted.insert(Instance(4), (b(2), Decree::noop()));
        let log = ReplicaLog::from_durable(&d);
        assert_eq!(log.chosen_prefix(), Instance(3));
        assert!(log.get(Instance(4)).is_some());
        assert!(!log.is_known_chosen(Instance(4)));
        assert!(log.is_known_chosen(Instance(3)));
    }
}
