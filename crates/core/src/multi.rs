//! Multi-group sharded consensus (extension beyond the paper).
//!
//! A [`MultiReplica`] hosts `G` fully independent replica state machines
//! ("groups") inside one process. Each group is an unmodified instance of
//! the whole protocol — its own log, ballot space, leader election,
//! failure detector and strict §3.3 pipeline — so every per-group safety
//! argument of the reproduction carries over verbatim. What sharding adds
//! is *throughput*: with the service keyspace hash-partitioned across
//! groups, `G` leaders run `G` strict pipelines concurrently, and a
//! deployment whose write throughput is bound by the one-decree-at-a-time
//! pipeline scales with `G`.
//!
//! The groups are also where a node's parallelism comes from: they
//! partition the order, so no worker pool sits behind any one group's
//! log ("Rethinking State-Machine Replication for Parallelism").
//!
//! Routing is by message envelope: multi-group deployments wrap every
//! protocol message in [`Msg::Grouped`]; a [`MultiReplica`] with one group
//! never wraps, making the single-group configuration byte-identical to
//! the plain [`Replica`] protocol. No ordering whatsoever is established
//! *across* groups — cross-shard operations are the service's problem
//! (see the kvstore's cross-shard rejection) or the client's (pin the
//! keys of one transaction to one group).
//!
//! Bootstrap leaders rotate across processes (`(p + g) mod n`) so the `G`
//! leaders — and therefore the leader-side CPU work — spread over the
//! cluster instead of piling onto process 0.

use crate::action::{Action, TimerKind};
use crate::config::Config;
use crate::msg::Msg;
use crate::replica::Replica;
use crate::service::App;
use crate::storage::Storage;
use crate::types::{Addr, GroupId, ProcessId, Time};

/// Derive group `g`'s config from the deployment config: identical except
/// for the bootstrap leader. A geo-aware [`Config::placement`] entry for
/// the group wins (the bench harness computes one by client-weighted RTT);
/// otherwise the bootstrap leader rotates across processes so leadership
/// load spreads over the cluster.
#[must_use]
pub fn group_config(cfg: &Config, g: GroupId) -> Config {
    let mut c = cfg.clone();
    if let Some(placed) = cfg
        .placement
        .as_ref()
        .and_then(|p| p.get(g.0 as usize))
        .copied()
    {
        debug_assert!((placed.0 as usize) < cfg.n, "placement names a replica");
        c.bootstrap_leader = Some(placed);
    } else if let Some(p) = c.bootstrap_leader {
        c.bootstrap_leader = Some(ProcessId((p.0 + g.0) % cfg.n as u32));
    }
    c
}

/// Derive group `g`'s RNG seed from the process seed. Group 0 keeps the
/// seed unchanged, so a single-group [`MultiReplica`] is bit-identical to
/// a bare [`Replica`] built with the same seed.
#[must_use]
pub fn group_seed(seed: u64, g: GroupId) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(g.0))
}

/// `G` independent replica state machines sharing one process identity.
pub struct MultiReplica {
    id: ProcessId,
    groups: Vec<Replica>,
}

impl MultiReplica {
    /// Open a multi-group replica over one stable storage per group, in
    /// group order (as returned by [`MultiReplica::into_storages`]): each
    /// group is [`Replica::open`]ed, so fresh storage gives a fresh group
    /// and storage with prior state a recovered one. The app factory
    /// receives the group it is building for, so a sharded service can
    /// know which slice of the keyspace it owns (and refuse, with a typed
    /// abort, operations that belong elsewhere).
    #[must_use]
    pub fn open(
        id: ProcessId,
        cfg: Config,
        storages: Vec<Box<dyn Storage>>,
        app_factory: &dyn Fn(GroupId) -> Box<dyn App>,
        seed: u64,
        now: Time,
    ) -> MultiReplica {
        assert!(!storages.is_empty(), "at least one group");
        let groups = storages
            .into_iter()
            .enumerate()
            .map(|(g, storage)| {
                let g = GroupId(g as u32);
                Replica::open(
                    id,
                    group_config(&cfg, g),
                    app_factory(g),
                    storage,
                    group_seed(seed, g),
                    now,
                )
            })
            .collect();
        MultiReplica { id, groups }
    }

    /// This process's id.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Number of groups hosted.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Access one group's replica.
    #[must_use]
    pub fn group(&self, g: GroupId) -> Option<&Replica> {
        self.groups.get(g.0 as usize)
    }

    /// Consume the process (a crash), keeping each group's stable storage
    /// in group order.
    #[must_use]
    pub fn into_storages(self) -> Vec<Box<dyn Storage>> {
        self.groups.into_iter().map(Replica::into_storage).collect()
    }

    /// Every group's replica, in group order: the cores of the drive loop
    /// that hosts this process ([`crate::outbox::Wire::cores`]).
    pub fn groups_mut(&mut self) -> &mut [Replica] {
        &mut self.groups
    }

    /// A clean stop's hand-back: every group's replica, in group order.
    #[must_use]
    pub fn into_groups(self) -> Vec<Replica> {
        self.groups
    }

    /// Which group an incoming message addresses, and what it says to it:
    /// a [`Msg::Grouped`] envelope names its group; a bare message can only
    /// come from a single-group sender and addresses group 0. `None` for a
    /// group this process does not host — a mis-configured peer, not a
    /// protocol condition; the message is dropped.
    #[must_use]
    pub fn route(&self, msg: Msg) -> Option<(GroupId, Msg)> {
        let (g, inner) = match msg {
            Msg::Grouped { group, inner } => (group, *inner),
            bare => (GroupId::ZERO, bare),
        };
        ((g.0 as usize) < self.groups.len()).then_some((g, inner))
    }

    /// What group `g`'s `msg` looks like on the wire: in the group envelope
    /// in a multi-group deployment, as it is with one group — which stays
    /// byte-identical to the plain protocol.
    #[must_use]
    pub fn envelope(&self, g: GroupId, msg: Msg) -> Msg {
        if self.groups.len() == 1 {
            return msg;
        }
        debug_assert!(
            !matches!(msg, Msg::Grouped { .. }),
            "group envelopes never nest"
        );
        Msg::Grouped {
            group: g,
            inner: Box::new(msg),
        }
    }

    /// Start every group. Actions are tagged with the group they belong
    /// to; timer actions must be keyed per group by the runtime.
    pub fn on_start(&mut self, now: Time) -> Vec<(GroupId, Action)> {
        let mut out = Vec::new();
        for g in 0..self.groups.len() {
            let actions = self.groups[g].on_start(now);
            self.collect(GroupId(g as u32), actions, &mut out);
        }
        out
    }

    /// Hand an incoming message to the group [`MultiReplica::route`] names.
    pub fn on_message(&mut self, from: Addr, msg: Msg, now: Time) -> Vec<(GroupId, Action)> {
        let mut out = Vec::new();
        if let Some((g, inner)) = self.route(msg) {
            let actions = self.groups[g.0 as usize].on_message(from, inner, now);
            self.collect(g, actions, &mut out);
        }
        out
    }

    /// Fire a timer belonging to group `g`.
    pub fn on_timer(&mut self, g: GroupId, kind: TimerKind, now: Time) -> Vec<(GroupId, Action)> {
        let mut out = Vec::new();
        if let Some(r) = self.groups.get_mut(g.0 as usize) {
            let actions = r.on_timer(kind, now);
            self.collect(g, actions, &mut out);
        }
        out
    }

    /// Tag `actions` with their group and put outgoing messages in its
    /// [`MultiReplica::envelope`].
    fn collect(&self, g: GroupId, actions: Vec<Action>, out: &mut Vec<(GroupId, Action)>) {
        out.extend(actions.into_iter().map(|a| {
            let a = match a {
                Action::Send { to, msg } => Action::send(to, self.envelope(g, msg)),
                Action::ToAllReplicas { msg } => Action::broadcast(self.envelope(g, msg)),
                timer @ (Action::SetTimer { .. } | Action::CancelTimer { .. }) => timer,
            };
            (g, a)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, RequestId, RequestKind};
    use crate::service::NoopApp;
    use crate::storage::MemStorage;
    use crate::types::{ClientId, Seq};
    use bytes::Bytes;

    fn noop(_g: GroupId) -> Box<dyn App> {
        Box::new(NoopApp::new())
    }

    fn fresh(n_groups: usize) -> Vec<Box<dyn Storage>> {
        let disk = |_| Box::new(MemStorage::new()) as Box<dyn Storage>;
        (0..n_groups).map(disk).collect()
    }

    fn multi(n_groups: usize, seed: u64) -> MultiReplica {
        let cfg = Config::cluster(3);
        MultiReplica::open(ProcessId(0), cfg, fresh(n_groups), &noop, seed, Time::ZERO)
    }

    fn write_req(seq: u64) -> Msg {
        Msg::Request(Request::new(
            RequestId::new(ClientId(1), Seq(seq)),
            RequestKind::Write,
            Bytes::new(),
        ))
    }

    #[test]
    fn single_group_is_action_identical_to_bare_replica() {
        let seed = 42;
        let mut bare = Replica::new(
            ProcessId(0),
            Config::cluster(3),
            Box::new(NoopApp::new()),
            Box::new(MemStorage::new()),
            seed,
            Time::ZERO,
        );
        let mut m = multi(1, seed);

        let a = bare.on_start(Time::ZERO);
        let b = m.on_start(Time::ZERO);
        assert_eq!(a.len(), b.len());
        for (x, (g, y)) in a.iter().zip(&b) {
            assert_eq!(*g, GroupId::ZERO);
            assert_eq!(format!("{x:?}"), format!("{y:?}"), "G=1 must not wrap");
        }

        let from = Addr::Client(ClientId(1));
        let a = bare.on_message(from, write_req(1), Time(1));
        let b = m.on_message(from, write_req(1), Time(1));
        assert_eq!(a.len(), b.len());
        for (x, (_, y)) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn bootstrap_leaders_rotate_across_groups() {
        let m = multi(4, 7);
        for g in 0..4u32 {
            let cfg = m.group(GroupId(g)).unwrap().config();
            assert_eq!(cfg.bootstrap_leader, Some(ProcessId(g % 3)));
        }
        // The rotation only renames the bootstrap leader; n is untouched.
        assert_eq!(m.group(GroupId(3)).unwrap().config().n, 3);
    }

    #[test]
    fn placement_overrides_rotation_per_group() {
        // Groups 0 and 1 pinned (geo placement); group 2 past the vector
        // falls back to the rotation.
        let cfg = Config::cluster(3).with_placement(Some(vec![ProcessId(2), ProcessId(2)]));
        let m = MultiReplica::open(ProcessId(0), cfg, fresh(3), &noop, 21, Time::ZERO);
        let leader = |g: u32| m.group(GroupId(g)).unwrap().config().bootstrap_leader;
        assert_eq!(leader(0), Some(ProcessId(2)));
        assert_eq!(leader(1), Some(ProcessId(2)));
        assert_eq!(leader(2), Some(ProcessId(2)), "rotation fallback");
    }

    #[test]
    fn grouped_messages_route_to_their_group_only() {
        let mut m = multi(2, 9);
        let _ = m.on_start(Time::ZERO);
        // Group 1's bootstrap leader is r1, not us; group 0's is r0 = us,
        // so starting up put group 0 into an election.
        assert!(m.group(GroupId::ZERO).unwrap().leading_ballot().is_some());
        // A request enveloped for group 1 must not touch group 0's state.
        let before = m.group(GroupId::ZERO).unwrap().log_len();
        let msg = Msg::Grouped {
            group: GroupId(1),
            inner: Box::new(write_req(1)),
        };
        let out = m.on_message(Addr::Client(ClientId(1)), msg, Time(1));
        for (g, _) in &out {
            assert_eq!(*g, GroupId(1));
        }
        assert_eq!(m.group(GroupId::ZERO).unwrap().log_len(), before);
    }

    #[test]
    fn multi_group_outputs_are_enveloped() {
        let mut m = multi(2, 11);
        let out = m.on_start(Time::ZERO);
        for (g, a) in &out {
            if let Action::Send { msg, .. } | Action::ToAllReplicas { msg } = a {
                match msg {
                    Msg::Grouped { group, inner } => {
                        assert_eq!(group, g);
                        assert!(!matches!(**inner, Msg::Grouped { .. }), "no nesting");
                    }
                    other => panic!("unwrapped outbound message: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_group_is_dropped() {
        let mut m = multi(2, 13);
        let msg = Msg::Grouped {
            group: GroupId(7),
            inner: Box::new(write_req(1)),
        };
        assert!(m
            .on_message(Addr::Client(ClientId(1)), msg, Time(1))
            .is_empty());
    }

    #[test]
    fn crash_and_recover_preserves_every_group() {
        let mut m = multi(2, 15);
        let _ = m.on_start(Time::ZERO);
        let storages = m.into_storages();
        assert_eq!(storages.len(), 2);
        let m2 = MultiReplica::open(
            ProcessId(0),
            Config::cluster(3),
            storages,
            &noop,
            15,
            Time(1),
        );
        assert_eq!(m2.n_groups(), 2);
        assert_eq!(
            m2.group(GroupId(1)).unwrap().config().bootstrap_leader,
            Some(ProcessId(1))
        );
    }

    #[test]
    fn group_seed_is_identity_for_group_zero() {
        assert_eq!(group_seed(0xabcd, GroupId::ZERO), 0xabcd);
        assert_ne!(group_seed(0xabcd, GroupId(1)), 0xabcd);
        assert_ne!(
            group_seed(0xabcd, GroupId(1)),
            group_seed(0xabcd, GroupId(2))
        );
    }
}
