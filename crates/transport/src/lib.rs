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
//! * the client side ([`tcp`]): a dial-only TCP endpoint and the blocking
//!   [`SyncClient`] over it, mapping wall-clock time onto the core's
//!   logical clock.
//!
//! A live node is one reactor thread, so live hosting is Linux-only; other
//! platforms get the codec, the storage and the client.
//!
//! The protocol code running here is byte-for-byte the same as under the
//! `gridpaxos-simnet` simulator — that is the point of the sans-io design.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backpressure;
pub mod framing;
pub mod fstorage;
#[cfg(target_os = "linux")]
pub mod mux;
#[cfg(target_os = "linux")]
pub mod reactor;
#[cfg(target_os = "linux")]
pub mod sys;
pub mod tcp;
#[cfg(target_os = "linux")]
mod timers;
pub mod wire;

pub use backpressure::{AdmissionGate, FlushOutcome, SendQueue};
pub use framing::FrameDecoder;
pub use fstorage::{FileStorage, FlushCoordinator, SyncMode};
#[cfg(target_os = "linux")]
pub use mux::{MuxReport, MuxSwarm};
#[cfg(target_os = "linux")]
pub use reactor::{
    spawn_reactor_node, ReactorCluster, ReactorConfig, ReactorHandle, ReactorMetrics, ReactorStats,
};
pub use tcp::{SyncClient, TcpNode};
pub use wire::{decode_msg, encode_msg, encode_to_bytes, encode_with_scratch, WireError};
