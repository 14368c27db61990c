//! # gridpaxos-transport
//!
//! Real deployment substrates for the sans-io `gridpaxos` protocol core:
//!
//! * a hand-rolled binary [`wire`] codec and length-prefixed [`framing`],
//! * file-backed stable storage with a write-ahead log and atomic
//!   checkpoints ([`fstorage`]), making deployments crash-recoverable,
//! * the socket server: a nonblocking `epoll` reactor ([`reactor`])
//!   hosting every consensus group of a node and multiplexing thousands
//!   of client connections over one loop thread, its fsync on a thread
//!   of a process-wide pool while the loop serves reads, with explicit
//!   backpressure (bounded send queues; the node's gate sheds overload),
//! * the client side ([`client`]): one thread driving any number of
//!   sans-io client cores over one socket per replica, and the blocking
//!   [`SyncClient`] that is that loop with one core, mapping wall-clock
//!   time onto the core's logical clock.
//!
//! A live node is one reactor thread (and a pool thread while its
//! barrier syncs) and a live client one client-loop thread, both on
//! `epoll`, so both are Linux-only; other platforms get
//! the codec and the storage. Each loop owns one connection table
//! (`conn`), which takes every step above a single socket — dial, frame,
//! write, read, close — so the loops keep only their own policy.
//!
//! The protocol code running here is byte-for-byte the same as under the
//! `gridpaxos-simnet` simulator — that is the point of the sans-io design.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

mod backpressure;
#[cfg(target_os = "linux")]
mod barrier;
#[cfg(target_os = "linux")]
pub mod client;
#[cfg(target_os = "linux")]
mod conn;
pub mod framing;
pub mod fstorage;
#[cfg(target_os = "linux")]
pub mod reactor;
#[cfg(target_os = "linux")]
pub mod sys;
#[cfg(target_os = "linux")]
mod timers;
pub mod wire;

pub use backpressure::{FlushOutcome, SendQueue};
#[cfg(target_os = "linux")]
pub use client::{fresh_client_id, ClientLoop, Outcome, SyncClient};
pub use framing::FrameDecoder;
pub use fstorage::{FileStorage, FlushCoordinator, SyncMode};
#[cfg(target_os = "linux")]
pub use reactor::{
    spawn_reactor_node, ReactorCluster, ReactorConfig, ReactorHandle, ReactorMetrics, ReactorStats,
};
pub use wire::{decode_msg, encode_msg, encode_to_bytes, encode_with_scratch, WireError};
