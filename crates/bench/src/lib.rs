//! # gridpaxos-bench
//!
//! The benchmark harness: library functions that regenerate every table
//! and figure of the paper's evaluation (§4) on the simulator, plus
//! Criterion micro-benchmarks (see `benches/`). The `experiments` binary
//! is the command-line entry point.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod table;
pub mod zipf;

pub use experiments::{
    ablation, all, bank_transactions, batch_ablation, fig5, fig6, fig7, fig8, fig9, follower_reads,
    large_state, leader_switch, reactor, read_batching, rrt_sysnet, scale_t, sharding, state_size,
    table1,
};
pub use table::TableOut;
pub use zipf::{SkewedMixLoop, ZipfGen};
