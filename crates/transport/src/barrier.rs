//! Barrier threads: where a node's durability barrier syncs while its
//! epoll loop serves on.
//!
//! A node's release lends its storage, with the groups whose barrier is
//! due, to its host (`Net::lend`). The reactor hands that `Lent` to its
//! [`BarrierLine`] and goes on delivering to the node, which runs only
//! what may run beside the barrier and holds the rest. A barrier thread
//! syncs, sends the storage back over the line's channel and writes one
//! byte to the line's wake-up socket, which sits in the loop's epoll set;
//! the loop takes them back ([`BarrierLine::back`]) and hands them to
//! `Node::barrier_back`.
//!
//! The threads are one process-wide pool, not one per node: a line takes
//! an idle thread or spawns one, and the thread goes back to the idle list
//! after each barrier. A thread per node cost peak RSS — glibc gives every
//! thread a malloc arena, and in a process that sets up cluster after
//! cluster the arenas the earlier nodes' threads left behind pass to new
//! threads (DESIGN.md §6.3).
//!
//! Every blocking wait of a barrier lives here, not on the loop (lint rule
//! 5): the sync, a pool thread's wait for its next barrier, and
//! [`BarrierLine::back`] on the loop's way out. A sync that panics is caught
//! on the pool thread and resumed on the loop, which dies of it as it
//! would have had the sync run there.

use gridpaxos_core::outbox::Lent;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, MutexGuard, PoisonError};

/// A barrier's outcome: the storage, synced, or the sync's panic.
type Synced = std::thread::Result<Lent>;

/// One barrier for a pool thread: what to sync, and the way back.
struct Job {
    lent: Lent,
    back: Back,
}

/// The way back to one line: the outcome over a channel, then the byte
/// that wakes the loop.
#[derive(Clone)]
struct Back {
    done: Sender<Synced>,
    ring: Arc<UnixStream>,
}

/// Idle pool threads, each the sender of its own job queue.
// The one lock in the workspace: each holder takes its guard for one
// `pop` or `push` inside a single statement and drops it there, so it
// neither blocks nor nests.
#[allow(clippy::disallowed_types)]
static IDLE: std::sync::Mutex<Vec<Sender<Job>>> = std::sync::Mutex::new(Vec::new());

/// The idle list; a poisoned lock still holds a usable list.
fn idle() -> MutexGuard<'static, Vec<Sender<Job>>> {
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A new pool thread, and the sender of its job queue. The thread keeps
/// a sender of its own, to put back on the idle list: it lives as long
/// as the process.
fn spawn() -> io::Result<Sender<Job>> {
    let (jobs, queue) = channel::<Job>();
    let me = jobs.clone();
    std::thread::Builder::new()
        .name("gp-barrier".into())
        .spawn(move || {
            while let Ok(Job { mut lent, back }) = queue.recv() {
                let synced = catch_unwind(AssertUnwindSafe(|| lent.flush()));
                idle().push(me.clone());
                // A line whose loop is gone drops the outcome: nothing
                // waits for it.
                if back.done.send(synced.map(|()| lent)).is_ok() {
                    // At most one byte is unread per line: it cannot block.
                    let _ = (&*back.ring).write(&[1]);
                }
            }
        })?;
    Ok(jobs)
}

/// One node's way to the pool. Whether a barrier is away, and what waits
/// for it, is the node's (`Node::barrier_away`); the line carries the
/// barrier there and back.
pub(crate) struct BarrierLine {
    /// The read end of the wake-up socket, nonblocking, in the epoll set.
    wake: UnixStream,
    back: Back,
    done: Receiver<Synced>,
}

impl BarrierLine {
    pub(crate) fn new() -> io::Result<BarrierLine> {
        let (wake, ring) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        let (done, outcome) = channel();
        Ok(BarrierLine {
            wake,
            back: Back {
                done,
                ring: Arc::new(ring),
            },
            done: outcome,
        })
    }

    /// The wake-up socket, for the loop's epoll set.
    pub(crate) fn fd(&self) -> RawFd {
        self.wake.as_raw_fd()
    }

    /// Send `lent` to a pool thread; it comes back at once if no thread
    /// can be had.
    pub(crate) fn start(&mut self, lent: Lent) -> Result<(), Lent> {
        let idle_thread = idle().pop();
        let Some(thread) = idle_thread.map_or_else(|| spawn().ok(), Some) else {
            return Err(lent);
        };
        let back = self.back.clone();
        thread
            .send(Job { lent, back })
            .map_err(|refused| refused.0.lent)
    }

    /// The barrier away, if it is back: the wake-up fired, or, with
    /// `block`, the loop waits for it on its way out. A sync that
    /// panicked resumes its panic here.
    pub(crate) fn back(&mut self, block: bool) -> Option<Lent> {
        let mut bytes = [0u8; 8];
        while matches!((&self.wake).read(&mut bytes), Ok(n) if n > 0) {}
        let synced = if block {
            self.done.recv().ok()?
        } else {
            self.done.try_recv().ok()?
        };
        Some(synced.unwrap_or_else(|panic| resume_unwind(panic)))
    }
}
