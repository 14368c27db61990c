//! Output actions of the sans-io protocol state machines.
//!
//! Replica and client cores never perform I/O; every handler returns a
//! list of [`Action`]s that the embedding runtime (the discrete-event
//! simulator or the real TCP runner) carries out. This is what lets the
//! exact same protocol code run deterministically under simulation and
//! natively over sockets.

use crate::msg::Msg;
use crate::types::{Addr, Dur};

/// Timers a protocol core may request. At most one timer per kind is
/// pending at a time: setting a kind replaces any pending timer of the
/// same kind; firing removes it (handlers re-arm as needed).
///
/// The derived order (declaration order) breaks ties between timers due
/// at the same instant in the drive loops' timer heap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TimerKind {
    /// Leader: emit the next heartbeat.
    Heartbeat,
    /// Follower: leader suspicion timeout (failure detector).
    LeaderCheck,
    /// Leader: retransmit the outstanding accept if unacknowledged
    /// (§3.3: "If the leader fails to receive the expected response ... it
    /// retransmits those messages").
    Retransmit,
    /// Candidate: prepare-phase timeout / election backoff.
    Election,
    /// Client: retransmit the outstanding request.
    ClientRetry,
    /// Leader: the batch-accumulation window expired; propose what queued.
    BatchWindow,
}

/// One output action from a protocol handler.
#[derive(Clone, Debug)]
pub enum Action {
    /// Send `msg` to one participant.
    Send {
        /// Destination.
        to: Addr,
        /// Payload.
        msg: Msg,
    },
    /// Send `msg` to every replica *other than the emitter*. (Protocol
    /// cores deliver to themselves internally, without a network hop.)
    ToAllReplicas {
        /// Payload.
        msg: Msg,
    },
    /// Arm (or re-arm) the timer of the given kind to fire after `after`.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Delay from now.
        after: Dur,
    },
    /// Cancel a pending timer of the given kind, if any.
    CancelTimer {
        /// Which timer.
        kind: TimerKind,
    },
}

impl Action {
    /// Convenience constructor for a unicast send.
    #[must_use]
    pub fn send(to: Addr, msg: Msg) -> Action {
        Action::Send { to, msg }
    }

    /// Convenience constructor for a replica broadcast.
    #[must_use]
    pub fn broadcast(msg: Msg) -> Action {
        Action::ToAllReplicas { msg }
    }

    /// Convenience constructor for arming a timer.
    #[must_use]
    pub fn timer(kind: TimerKind, after: Dur) -> Action {
        Action::SetTimer { kind, after }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ballot::Ballot;
    use crate::types::{Instance, ProcessId};

    #[test]
    fn constructors_build_expected_variants() {
        let msg = Msg::Heartbeat {
            ballot: Ballot::ZERO,
            chosen: Instance::ZERO,
            hb_seq: 0,
        };
        match Action::send(Addr::Replica(ProcessId(1)), msg.clone()) {
            Action::Send { to, .. } => assert_eq!(to, Addr::Replica(ProcessId(1))),
            other @ (Action::ToAllReplicas { .. }
            | Action::SetTimer { .. }
            | Action::CancelTimer { .. }) => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            Action::broadcast(msg),
            Action::ToAllReplicas { .. }
        ));
        assert!(matches!(
            Action::timer(TimerKind::Heartbeat, Dur::from_millis(5)),
            Action::SetTimer {
                kind: TimerKind::Heartbeat,
                ..
            }
        ));
    }
}
