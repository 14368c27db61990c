//! # gridpaxos-simnet
//!
//! Deterministic discrete-event network simulator for the `gridpaxos`
//! protocol core. This is the substitute for the paper's physical
//! testbeds: the UCSD *Sysnet* cluster and the two PlanetLab deployments
//! (§4) become [`topology::Topology`] presets with calibrated latency
//! models, and machine saturation becomes a per-replica single-server
//! queue with CPU costs ([`cpu::CpuModel`]).
//!
//! Because the protocol core is sans-io, the simulator runs the *identical*
//! code a real deployment runs — only the clock and the wires are virtual.
//! Every run is seeded and reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cpu;
pub mod latency;
pub mod metrics;
pub mod runner;
pub mod sched;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod workload;
pub mod world;

pub use cpu::CpuModel;
pub use latency::LatencyModel;
pub use metrics::Metrics;
pub use runner::Experiment;
pub use sched::TimerGens;
pub use stats::{summarize, Summary};
pub use topology::Topology;
pub use trace::{Trace, TraceEvent};
pub use workload::{Driver, OpLoop, TransferLoop, TxnLoop};
pub use world::{DurabilityMode, SimOpts, World};
