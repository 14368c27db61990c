//! # gridpaxos-transport
//!
//! Real deployment substrates for the sans-io `gridpaxos` protocol core:
//!
//! * a hand-rolled binary [`wire`] codec and length-prefixed [`framing`],
//! * file-backed stable storage with a write-ahead log and atomic
//!   checkpoints ([`fstorage`]), making deployments crash-recoverable,
//! * the socket server: a single-threaded nonblocking `epoll` reactor
//!   ([`reactor`], Linux only) hosting every consensus group of a node and
//!   multiplexing thousands of client connections over one thread, with
//!   explicit backpressure ([`backpressure`]) and a
//!   many-virtual-clients-per-socket load driver ([`mux`]),
//! * a dial-only TCP client endpoint ([`tcp`]),
//! * the portable event loop over any [`node::Transport`] ([`node`]): a
//!   threaded [`node::ReplicaNode`] and a blocking [`node::SyncClient`],
//!   mapping wall-clock time onto the core's logical clock,
//! * an in-process crossbeam-channel transport ([`inproc`]) for examples,
//!   tests and platforms without the reactor.
//!
//! The protocol code running here is byte-for-byte the same as under the
//! `gridpaxos-simnet` simulator — that is the point of the sans-io design.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backpressure;
pub mod framing;
pub mod fstorage;
pub mod inproc;
#[cfg(target_os = "linux")]
pub mod mux;
pub mod node;
#[cfg(target_os = "linux")]
pub mod reactor;
#[cfg(target_os = "linux")]
pub mod sys;
pub mod tcp;
mod timers;
pub mod wire;

pub use backpressure::{AdmissionGate, FlushOutcome, SendQueue};
pub use framing::FrameDecoder;
pub use fstorage::{FileStorage, FlushCoordinator, SyncMode};
pub use inproc::{Hub, HubEndpoint};
#[cfg(target_os = "linux")]
pub use mux::{MuxReport, MuxSwarm};
pub use node::{spawn_replica, RecvResult, ReplicaNode, SyncClient, Transport};
#[cfg(target_os = "linux")]
pub use reactor::{
    spawn_reactor_node, ReactorCluster, ReactorConfig, ReactorHandle, ReactorMetrics, ReactorStats,
};
pub use tcp::TcpNode;
pub use wire::{decode_msg, encode_msg, encode_to_bytes, encode_with_scratch, WireError};
