//! Barrier threads: where a node's durability barrier syncs while its
//! epoll loop serves on.
//!
//! `outbox::release_begin` lends the storage of every group whose barrier
//! is due. The reactor hands that `Lent`, with the sends held behind it,
//! to its [`BarrierLine`] and goes on serving what
//! `Replica::serves_beside_barrier` admits. A barrier thread syncs, sends
//! the storages back over the line's channel and writes one byte to the
//! line's wake-up socket, which sits in the loop's epoll set; the loop
//! takes both back ([`BarrierLine::finished`]) and calls
//! `outbox::release_end`.
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
//! [`BarrierLine::wait`], the loop's way out. A sync that panics is caught
//! on the pool thread and resumed on the loop, which dies of it as it
//! would have had the sync run there.

use gridpaxos_core::outbox::{Held, Lent};
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A barrier's outcome: the storages, synced, or the sync's panic.
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
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

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

/// One node's way to the pool: at most one barrier away at a time.
pub(crate) struct BarrierLine {
    /// The read end of the wake-up socket, nonblocking, in the epoll set.
    wake: UnixStream,
    back: Back,
    done: Receiver<Synced>,
    /// The sends behind the barrier away, if one is.
    behind: Option<Held>,
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
            behind: None,
        })
    }

    /// The wake-up socket, for the loop's epoll set.
    pub(crate) fn fd(&self) -> RawFd {
        self.wake.as_raw_fd()
    }

    /// Whether a barrier is away.
    pub(crate) fn away(&self) -> bool {
        self.behind.is_some()
    }

    /// Send `lent` to a pool thread and keep `behind` until it is back.
    /// Both come back at once if no thread can be had.
    pub(crate) fn start(&mut self, lent: Lent, behind: Held) -> Result<(), (Lent, Held)> {
        debug_assert!(!self.away(), "one barrier away at a time");
        let idle_thread = idle().pop();
        let Some(thread) = idle_thread.map_or_else(|| spawn().ok(), Some) else {
            return Err((lent, behind));
        };
        let back = self.back.clone();
        match thread.send(Job { lent, back }) {
            Ok(()) => {
                self.behind = Some(behind);
                Ok(())
            }
            Err(refused) => Err((refused.0.lent, behind)),
        }
    }

    /// The wake-up fired: the barrier away, if it is back.
    pub(crate) fn finished(&mut self) -> Option<(Lent, Held)> {
        let mut bytes = [0u8; 8];
        while matches!((&self.wake).read(&mut bytes), Ok(n) if n > 0) {}
        let synced = self.done.try_recv().ok()?;
        self.back_from(synced)
    }

    /// Block until the barrier away, if any, is back: a loop's way out.
    pub(crate) fn wait(&mut self) -> Option<(Lent, Held)> {
        if !self.away() {
            return None;
        }
        let synced = self.done.recv().ok()?;
        self.back_from(synced)
    }

    fn back_from(&mut self, synced: Synced) -> Option<(Lent, Held)> {
        match synced {
            Ok(lent) => self.behind.take().map(|held| (lent, held)),
            Err(panic) => resume_unwind(panic),
        }
    }
}
