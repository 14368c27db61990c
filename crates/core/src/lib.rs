//! # gridpaxos-core
//!
//! Sans-io protocol core reproducing *"Replicating Nondeterministic
//! Services on Grid Environments"* (Zhang, Junqueira, Marzullo, Hiltunen,
//! Schlichting — HPDC 2006).
//!
//! The crate implements:
//!
//! * **The basic protocol** (§3.3): multi-instance Paxos in which the value
//!   chosen by instance *i* is the tuple `⟨request, resulting state⟩`, so
//!   replicas of a *nondeterministic* service stay consistent without
//!   re-executing nondeterministic code.
//! * **X-Paxos** (§3.4): a majority-confirmation fast path for read
//!   requests — latency `2M + max(E, m)` instead of `2M + E + 2m`.
//! * **T-Paxos** (§3.5): transactions whose operations are answered
//!   immediately by the leader, with coordination deferred to commit.
//! * Leader election with stability (§3.6), crash-recovery from stable
//!   storage, checkpointing, state transfer and client logic.
//!
//! Everything is *sans-io*: protocol participants are deterministic state
//! machines consuming `(message, time)` and producing [`action::Action`]s.
//! The `gridpaxos-simnet` crate drives them under a virtual clock; the
//! `gridpaxos-transport` crate drives the identical code over TCP.
//!
//! ## Quick tour
//!
//! ```
//! use gridpaxos_core::prelude::*;
//!
//! // Three replicas of the evaluation's no-op service.
//! let cfg = Config::cluster(3);
//! let r0 = Replica::new(
//!     ProcessId(0),
//!     cfg.clone(),
//!     Box::new(NoopApp::new()),
//!     Box::new(MemStorage::new()),
//!     42,
//!     Time::ZERO,
//! );
//! assert!(!r0.is_leader()); // leadership requires running the election
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod action;
pub mod ballot;
pub mod client;
pub mod command;
pub mod config;
pub mod election;
pub mod log;
pub mod msg;
pub mod node;
pub mod outbox;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod replica;
pub mod request;
pub mod service;
pub mod storage;
pub mod txn;
pub mod types;

/// Convenient re-exports of the types most embeddings need.
pub mod prelude {
    pub use crate::action::{Action, TimerKind};
    pub use crate::ballot::{Ballot, ProposalNum};
    pub use crate::client::{
        ClientCore, CompletedOp, ShardRouter, TxnDriver, TxnOutcome, TxnScript,
    };
    pub use crate::command::{Command, Decree, SnapshotBlob, StateUpdate};
    pub use crate::config::{Config, ReadMode, TxnMode, ValueMode};
    pub use crate::msg::Msg;
    pub use crate::node::Node;
    pub use crate::replica::{Replica, ReplicaStats, Role};
    pub use crate::request::{
        AbortReason, Reply, ReplyBody, Request, RequestId, RequestKind, TxnCtl,
    };
    pub use crate::service::{App, ExecCtx, NoopApp};
    pub use crate::storage::{MemStorage, NodeStorage, Storage};
    pub use crate::txn::{home_group, MergedRead, MergedReadResult, Outcome, TxnCoordinator};
    pub use crate::types::{
        majority, shard_of, Addr, ClientId, Dur, GroupId, Instance, ProcessId, Seq, Time, TxnId,
    };
}
