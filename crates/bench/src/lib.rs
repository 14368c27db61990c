//! # gridpaxos-bench
//!
//! The benchmark harness: library functions that regenerate every table
//! and figure of the paper's evaluation (§4) on the simulator, plus
//! Criterion micro-benchmarks (see `benches/`). The `experiments` binary
//! is the command-line entry point; it runs what
//! [`experiments::REGISTRY`] lists.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod table;
pub mod zipf;

pub use table::TableOut;
pub use zipf::{SkewedMixLoop, ZipfGen};
