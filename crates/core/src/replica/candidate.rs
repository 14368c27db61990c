//! Candidate-role logic: the prepare phase as leader election, and the
//! takeover computation a fresh leader runs (§3.3's recovery narrative).
//! A candidate whose majority knows more chosen than it does pulls that
//! state by catch-up, as a lagging follower does, before it leads.

use super::leader::LeaderState;
use super::{Replica, Role};
use crate::action::{Action, TimerKind};
use crate::ballot::Ballot;
use crate::command::{AcceptedEntry, Decree};
use crate::msg::Msg;
use crate::types::{Addr, Instance, ProcessId, Time};
use std::collections::{BTreeMap, HashMap};

/// One received promise, retained until the election resolves.
#[derive(Debug)]
pub(crate) struct PromiseInfo {
    pub chosen_prefix: Instance,
    pub accepted: Vec<AcceptedEntry>,
}

/// State of an election in progress.
#[derive(Debug)]
pub struct CandidateState {
    /// Our ballot for this attempt.
    pub ballot: Ballot,
    /// When this attempt started (reported in traces).
    pub started: Time,
    pub(crate) promises: HashMap<ProcessId, PromiseInfo>,
    /// A catch-up request toward the highest promiser prefix is out.
    pub(crate) pulling: bool,
}

impl Replica {
    /// Begin (or restart) an election with a ballot outbidding everything
    /// we have seen.
    pub(crate) fn start_election(&mut self, now: Time, out: &mut Vec<Action>) {
        // A sitting leader never campaigns against itself.
        if self.is_leader() {
            return;
        }
        self.stats.elections_started += 1;
        self.pacer.note_attempt();
        let ballot = self.max_ballot_seen.max(self.promised).successor(self.id);
        self.note_ballot(ballot);
        self.promised = ballot;
        self.stable.promise(ballot);
        self.fd.reset(now);

        self.role = Role::Candidate(CandidateState {
            ballot,
            started: now,
            promises: HashMap::new(),
            pulling: false,
        });

        // One prepare covers every open instance (§3.3): we state what we
        // already know chosen and the promisers fill in the rest.
        out.push(Action::broadcast(Msg::Prepare {
            ballot,
            chosen_prefix: self.log.chosen_prefix(),
            known_above: self.log.known_above(),
        }));
        let retry_after = self.pacer.backoff(&mut self.rng);
        out.push(Action::timer(TimerKind::Election, retry_after));

        // A singleton group: our own (implicit) promise is a majority.
        self.lead_or_pull(now, out);
    }

    pub(crate) fn handle_promise(
        &mut self,
        from: Addr,
        ballot: Ballot,
        chosen_prefix: Instance,
        accepted: Vec<AcceptedEntry>,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        let Some(pid) = from.as_replica() else { return };
        let Role::Candidate(c) = &mut self.role else {
            return; // stale promise (election already resolved)
        };
        if c.ballot != ballot {
            return;
        }
        let info = PromiseInfo {
            chosen_prefix,
            accepted,
        };
        c.promises.insert(pid, info);
        self.lead_or_pull(now, out);
    }

    /// With a majority of promises, lead once our chosen prefix reaches P,
    /// the highest promiser's; below P, ask that promiser for catch-up,
    /// one request at a time — a leader below P would fill (prefix, P]
    /// with no-ops over chosen decrees. Each request re-arms the election
    /// timer, so a pull that moves does not restart the election.
    pub(crate) fn lead_or_pull(&mut self, now: Time, out: &mut Vec<Action>) {
        let prefix = self.log.chosen_prefix();
        let Role::Candidate(c) = &mut self.role else {
            return;
        };
        // +1 for our own implicit promise.
        if c.promises.len() + 1 < self.cfg.majority() {
            return;
        }
        let ahead = c.promises.iter().map(|(p, i)| (i.chosen_prefix, *p)).max();
        match ahead {
            Some((p, from)) if p > prefix => {
                if !std::mem::replace(&mut c.pulling, true) {
                    self.request_catchup(Addr::Replica(from), now, out);
                    let retry_after = self.pacer.backoff(&mut self.rng);
                    out.push(Action::timer(TimerKind::Election, retry_after));
                }
            }
            Some(_) | None => self.become_leader(now, out),
        }
    }

    pub(crate) fn handle_prepare_nack(
        &mut self,
        ballot: Ballot,
        promised: Ballot,
        now: Time,
        out: &mut Vec<Action>,
    ) {
        self.note_ballot(promised);
        let ours = matches!(&self.role, Role::Candidate(c) if c.ballot == ballot);
        if ours {
            // Someone is bound to a higher ballot: concede this attempt and
            // wait for that leadership (or a later suspicion) instead of
            // dueling — the stability bias of §3.6.
            self.step_down(promised, now, out);
            if promised > self.promised {
                self.promised = promised;
                self.stable.promise(promised);
            }
        }
    }

    pub(crate) fn on_election_timer(&mut self, now: Time, out: &mut Vec<Action>) {
        if matches!(self.role, Role::Candidate(_)) {
            // The attempt timed out (lost prepares or a split vote): retry
            // with a fresh, higher ballot and a longer backoff.
            self.role = Role::Follower;
            self.start_election(now, out);
        }
    }

    /// We hold promises from a majority and are at the highest promiser's
    /// prefix: compute the takeover and switch to leading.
    fn become_leader(&mut self, now: Time, out: &mut Vec<Action>) {
        let (ballot, promises) = {
            let Role::Candidate(c) = std::mem::replace(&mut self.role, Role::Follower) else {
                return;
            };
            (c.ballot, c.promises)
        };
        self.stats.elections_won += 1;
        self.pacer.settle();
        out.push(Action::CancelTimer {
            kind: TimerKind::Election,
        });

        // Our prefix is at least every promiser's ([`Replica::lead_or_pull`]):
        // "the replicas are only interested in the latest state" (§3.3).
        let prefix = self.log.chosen_prefix();

        // 1. Merge accepted entries: ours plus every promiser's, keeping
        //    the highest-ballot decree per instance (the Paxos rule: a new
        //    proposal must be consistent with the existing ones of the
        //    highest ballot).
        let mut merged: BTreeMap<Instance, (Ballot, Decree)> = BTreeMap::new();
        let own = self.log.entries_above(prefix, &[]);
        for e in own
            .into_iter()
            .chain(promises.into_values().flat_map(|p| p.accepted.into_iter()))
        {
            if e.instance <= prefix {
                continue;
            }
            match merged.get(&e.instance) {
                Some((b, _)) if *b >= e.ballot => {}
                _ => {
                    merged.insert(e.instance, (e.ballot, e.decree));
                }
            }
        }

        // 2. Close the gaps: instances in (prefix, max] with no surviving
        //    proposal anywhere in our majority cannot have been chosen —
        //    fill them with no-ops.
        let max = merged.keys().next_back().copied().unwrap_or(prefix);
        let mut batch: BTreeMap<Instance, Decree> = BTreeMap::new();
        let mut i = prefix.next();
        while i <= max {
            let decree = merged
                .remove(&i)
                .map(|(_, d)| d)
                .unwrap_or_else(Decree::noop);
            batch.insert(i, decree);
            i = i.next();
        }

        self.role = Role::Leader(LeaderState {
            ballot,
            next_instance: max.next(),
            ..LeaderState::default()
        });
        self.reads.leadership_began(ballot, now);

        // 3. Re-propose the batch under our ballot with a single accept
        //    message, then start heartbeating.
        self.install_recovery_batch(batch, now, out);
        out.push(Action::broadcast(Msg::Heartbeat {
            ballot,
            chosen: self.log.chosen_prefix(),
            hb_seq: 0,
        }));
        out.push(Action::timer(
            TimerKind::Heartbeat,
            self.cfg.heartbeat_interval,
        ));
    }
}
