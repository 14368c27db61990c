//! The reactor's byte-bounded per-connection outbound queue,
//! [`SendQueue`]. A peer that stops reading cannot make the node buffer
//! unboundedly: once the cap is reached, further frames are refused (the
//! caller counts the drop — Paxos retransmission recovers coordination
//! traffic, client retry timers recover replies), and the reactor
//! suspends the connection's reads. A flush hands the kernel many frames
//! in one vectored write, and tolerates partial writes: a frame cut by a
//! short write or `EWOULDBLOCK` resumes at the exact byte offset.
//!
//! Inbound load is the node's to refuse: its admission gate
//! (`gridpaxos_core::node::Node::admit`) sheds client requests with
//! `Busy` once its backlog reaches the high mark.

#![deny(clippy::disallowed_methods)] // rule 5: no blocking call on an epoll loop

use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

/// Most queued frames [`SendQueue::flush_into`] hands the kernel in one
/// vectored write: a decree's replies to one client connection leave in
/// one syscall, not one per frame.
const MAX_IOVECS: usize = 64;

/// Outcome of [`SendQueue::flush_into`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushOutcome {
    /// Everything queued has reached the kernel.
    Drained,
    /// The socket refused more bytes (`EWOULDBLOCK`); frames remain
    /// queued and the connection needs `EPOLLOUT` to continue.
    Blocked,
}

/// A byte-bounded outbound frame queue with partial-write resumption.
#[derive(Debug)]
pub struct SendQueue {
    frames: VecDeque<Bytes>,
    /// Bytes of `frames[0]` already written to the socket.
    head_off: usize,
    /// Total unwritten bytes across all queued frames.
    queued: usize,
    cap: usize,
}

impl SendQueue {
    /// An empty queue refusing frames once `cap` unwritten bytes are held.
    #[must_use]
    pub fn new(cap: usize) -> SendQueue {
        SendQueue {
            frames: VecDeque::new(),
            head_off: 0,
            queued: 0,
            cap,
        }
    }

    /// Unwritten bytes currently held.
    #[must_use]
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Whether nothing is waiting to be written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether the queue is at or above its byte cap.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.queued >= self.cap
    }

    /// Enqueue one encoded frame. Returns `false` if the queue already
    /// holds `cap` or more unwritten bytes (the caller counts the drop). A frame is
    /// never truncated: admission is all-or-nothing, so the cap can be
    /// exceeded by at most one frame.
    pub fn push(&mut self, frame: Bytes) -> bool {
        if self.is_full() {
            return false;
        }
        self.queued += frame.len();
        self.frames.push_back(frame);
        true
    }

    /// Write as much queued data as the socket accepts, up to 64 frames
    /// per `write_vectored` call (one `writev(2)` on a socket), resuming
    /// any partially-written head frame. Never `write_all`, so a slow
    /// peer blocks the *connection*, not the reactor thread.
    pub fn flush_into(&mut self, w: &mut impl Write) -> io::Result<FlushOutcome> {
        while !self.frames.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
            let n = self.frames.len().min(MAX_IOVECS);
            for (slot, frame) in iov.iter_mut().zip(&self.frames) {
                *slot = IoSlice::new(frame);
            }
            iov[0] = IoSlice::new(&self.frames[0][self.head_off..]);
            match w.write_vectored(&iov[..n]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(written) => self.consume(written),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FlushOutcome::Blocked);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(FlushOutcome::Drained)
    }

    /// Drop `n` written bytes off the front: whole frames, then an
    /// offset into the one the write stopped in.
    fn consume(&mut self, mut n: usize) {
        self.queued -= n;
        while let Some(head) = self.frames.front() {
            let rest = head.len() - self.head_off;
            if n < rest {
                self.head_off += n;
                return;
            }
            n -= rest;
            self.head_off = 0;
            self.frames.pop_front();
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests drive the loop from blocking sockets
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A writer accepting at most `budget` bytes per call, then
    /// `WouldBlock` — a socket whose peer stalls.
    struct Throttled {
        accepted: Vec<u8>,
        budget: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn queue_never_exceeds_cap_under_stalled_reader() {
        let mut q = SendQueue::new(100);
        let frame = Bytes::from(vec![1u8; 40]);
        let mut stalled = Throttled {
            accepted: Vec::new(),
            budget: 0,
        };
        let (mut accepted, mut refused) = (0u32, 0u32);
        for _ in 0..1000 {
            if q.push(frame.clone()) {
                accepted += 1;
            } else {
                refused += 1;
            }
            assert_eq!(q.flush_into(&mut stalled).unwrap(), FlushOutcome::Blocked);
            // Cap (100) may be exceeded by at most one whole frame (40).
            assert!(q.queued_bytes() <= 100 + 40);
        }
        assert_eq!(accepted, 3, "3 * 40 = 120 >= cap, fourth refused");
        assert_eq!(refused, 997);
        assert!(q.is_full());
    }

    #[test]
    fn partial_writes_resume_at_exact_offset() {
        let mut q = SendQueue::new(1 << 20);
        let a: Vec<u8> = (0..=255).collect();
        let b: Vec<u8> = (0..100).map(|i| i ^ 0xAA).collect();
        q.push(Bytes::from(a.clone()));
        q.push(Bytes::from(b.clone()));

        // Drain through a writer that takes 7 bytes per writable event.
        let mut out = Vec::new();
        loop {
            let mut w = Throttled {
                accepted: Vec::new(),
                budget: 7,
            };
            let outcome = q.flush_into(&mut w).unwrap();
            out.extend_from_slice(&w.accepted);
            if outcome == FlushOutcome::Drained {
                break;
            }
        }
        let mut want = a;
        want.extend_from_slice(&b);
        assert_eq!(out, want, "byte stream identical despite partial writes");
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
    }

    #[test]
    fn drained_queue_accepts_again() {
        let mut q = SendQueue::new(10);
        assert!(q.push(Bytes::from(vec![0u8; 10])));
        assert!(!q.push(Bytes::from(vec![0u8; 1])), "at cap");
        let mut w = Throttled {
            accepted: Vec::new(),
            budget: usize::MAX,
        };
        assert_eq!(q.flush_into(&mut w).unwrap(), FlushOutcome::Drained);
        assert!(q.push(Bytes::from(vec![0u8; 1])), "space again after drain");
    }

    /// One answer of a scripted socket to one `write_vectored` call.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Accept at most this many bytes (a short write, cut anywhere).
        Take(usize),
        WouldBlock,
        Interrupted,
        /// Accept nothing and say so: `Ok(0)`.
        Zero,
    }

    /// A socket answering each `write_vectored` call with the next step of
    /// its script, then accepting everything; it keeps what it took and
    /// counts its calls.
    struct Scripted {
        script: VecDeque<Step>,
        accepted: Vec<u8>,
        calls: usize,
    }

    impl Scripted {
        fn new(script: impl IntoIterator<Item = Step>) -> Scripted {
            Scripted {
                script: script.into_iter().collect(),
                accepted: Vec::new(),
                calls: 0,
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let budget = match self.script.pop_front() {
                Some(Step::Take(n)) => n,
                None => usize::MAX,
                Some(Step::WouldBlock) => return Err(io::ErrorKind::WouldBlock.into()),
                Some(Step::Interrupted) => return Err(io::ErrorKind::Interrupted.into()),
                Some(Step::Zero) => return Ok(0),
            };
            let mut took = 0;
            for b in bufs {
                let n = b.len().min(budget - took);
                self.accepted.extend_from_slice(&b[..n]);
                took += n;
            }
            Ok(took)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (1usize..300).prop_map(Step::Take),
            Just(Step::WouldBlock),
            Just(Step::Interrupted),
            Just(Step::Zero),
        ]
    }

    proptest! {
        /// Whatever the socket takes per call — a cut mid-frame, nothing,
        /// an interruption, a zero-byte write — the bytes reaching it are
        /// the frames concatenated, and `queued_bytes` is exactly what has
        /// not reached it after every flush.
        #[test]
        fn a_flush_delivers_the_frames_concatenated_and_counts_exactly(
            frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..40), 0..150),
            script in proptest::collection::vec(step(), 0..40),
        ) {
            let mut q = SendQueue::new(usize::MAX);
            for f in &frames {
                prop_assert!(q.push(Bytes::from(f.clone())));
            }
            let want = frames.concat();
            let mut w = Scripted::new(script);
            loop {
                let outcome = q.flush_into(&mut w);
                prop_assert_eq!(q.queued_bytes(), want.len() - w.accepted.len());
                match outcome {
                    Ok(FlushOutcome::Drained) => break,
                    Ok(FlushOutcome::Blocked) => {}
                    Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::WriteZero),
                }
            }
            prop_assert_eq!(w.accepted, want);
            prop_assert!(q.is_empty());
        }
    }

    /// A socket that takes everything is handed 64 frames per call.
    #[test]
    fn an_unlimited_writer_takes_sixty_four_frames_a_call() {
        for frames in [1usize, 2, 63, 64, 65, 128, 129, 300] {
            let mut q = SendQueue::new(usize::MAX);
            for i in 0..frames {
                q.push(Bytes::from(vec![i as u8; 1 + i % 7]));
            }
            let mut w = Scripted::new([]);
            assert_eq!(q.flush_into(&mut w).unwrap(), FlushOutcome::Drained);
            assert_eq!(w.calls, frames.div_ceil(64), "{frames} frames");
        }
    }
}
