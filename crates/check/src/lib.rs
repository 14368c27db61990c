//! # check
//!
//! Correctness tooling for the gridpaxos protocol core, two engines:
//!
//! * **Model checker** ([`harness`], [`explore`](mod@explore),
//!   [`invariants`]): hosts real [`gridpaxos_core::node::Node`]s through
//!   bounded, exhaustive state-space exploration — every interleaving of message
//!   delivery, drop, duplication, timer firing and leader crash up to a
//!   depth bound — asserting the paper's safety invariants (§3.3–§3.6)
//!   after every transition. Run it with `cargo run -p check --release`.
//! * **Cross-group atomicity checker** ([`txn2pc`]): seeded random
//!   walks over sharded deployments running concurrent 2PC transfers
//!   under crash/recover schedules, plus a lock/intent-table schedule
//!   harness with a shadow-model oracle. Run it with
//!   `cargo run -p check --release -- --txn2pc`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod explore;
pub mod harness;
pub mod invariants;
pub mod scenario;
pub mod txn2pc;

pub use app::CheckerApp;
pub use explore::{explore, replay, Counterexample, ExploreStats};
pub use harness::{Choice, Cluster, HarnessOpts};
pub use scenario::{smoke_scenarios, ClientOp, Scenario};
