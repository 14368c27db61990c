//! # gridpaxos-services
//!
//! The nondeterministic grid services the paper motivates (§2), built on
//! the `gridpaxos-core` [`gridpaxos_core::service::App`] interface:
//!
//! * [`broker::Broker`] — a grid resource broker using a randomized
//!   (power-of-two-choices) selection algorithm; replication ships the
//!   random choice as a [`gridpaxos_core::command::StateUpdate::Reproduce`]
//!   record.
//! * [`scheduler::Scheduler`] — a grid scheduling service (the NILE Global
//!   Planner example) whose FCFS-with-priorities decisions depend on when
//!   the executing machine examines the queue; replication ships the
//!   decision as a delta.
//! * [`kvstore::KvStore`] — a transactional key-value store exercising
//!   both transaction modes (per-operation coordination and T-Paxos) and
//!   cross-shard 2PC, with write locks and staged effects.
//!
//! The no-op service used by the paper's measurements lives in the core
//! crate ([`gridpaxos_core::service::NoopApp`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod broker;
pub mod codec;
pub mod kvstore;
pub mod payload;
pub mod scheduler;

pub use broker::{Broker, BrokerOp};
pub use kvstore::{
    agreed_stores, audit_transfers, decode_txn_ops, encode_txn_ops, shard_router, transfer_legs,
    KvOp, KvStore, SCAN_BLOCKED,
};
pub use payload::{ShipMode, SizedApp};
pub use scheduler::{SchedOp, Scheduler};
