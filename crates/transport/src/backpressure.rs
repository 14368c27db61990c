//! Backpressure primitives for the reactor transport.
//!
//! Two independent mechanisms, composed by [`crate::reactor`]:
//!
//! * [`SendQueue`] — a **byte-bounded** per-connection outbound queue.
//!   A peer that stops reading cannot make the node buffer unboundedly;
//!   once the cap is reached, further frames are refused (the caller
//!   counts the drop — Paxos retransmission recovers coordination
//!   traffic, client retry timers recover replies). The queue tolerates
//!   partial writes: a frame interrupted by `EWOULDBLOCK` resumes at the
//!   exact byte offset on the next writable event.
//!
//! * [`AdmissionGate`] — a node-wide hysteresis switch over inbound
//!   load. Above the high-water mark the gate **sheds**: new client
//!   requests are answered immediately with `ReplyBody::Busy` instead of
//!   entering the protocol. Shedding persists until load falls to the
//!   low-water mark, so a node hovering at the threshold does not
//!   flap between admitting and refusing on every message.

#![deny(clippy::disallowed_methods)] // rule 5: no blocking call on an epoll loop

use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, Write};

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

    /// Write as much queued data as the socket accepts, resuming any
    /// partially-written head frame. Uses plain `write` (never
    /// `write_all`) so a slow peer blocks the *connection*, not the
    /// reactor thread.
    pub fn flush_into(&mut self, w: &mut impl Write) -> io::Result<FlushOutcome> {
        while let Some(head) = self.frames.front() {
            let rest = &head[self.head_off..];
            match w.write(rest) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.queued -= n;
                    if n == rest.len() {
                        self.head_off = 0;
                        self.frames.pop_front();
                    } else {
                        self.head_off += n;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FlushOutcome::Blocked);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(FlushOutcome::Drained)
    }
}

/// Node-wide admission control with high/low-water hysteresis.
///
/// `update(load)` feeds the current backlog (the reactor uses its inbox
/// length); the gate latches into shedding at `load >= high` and out of
/// it at `load <= low`.
#[derive(Debug)]
pub struct AdmissionGate {
    high: usize,
    low: usize,
    shedding: bool,
}

impl AdmissionGate {
    /// A gate engaging at `high` and releasing at `low`. If the caller
    /// passes `low >= high` the low mark is clamped below the high mark
    /// so the hysteresis band is never empty.
    #[must_use]
    pub fn new(high: usize, low: usize) -> AdmissionGate {
        let high = high.max(1);
        AdmissionGate {
            high,
            low: low.min(high - 1),
            shedding: false,
        }
    }

    /// Feed the current load; returns whether the gate is now shedding.
    pub fn update(&mut self, load: usize) -> bool {
        if self.shedding {
            if load <= self.low {
                self.shedding = false;
            }
        } else if load >= self.high {
            self.shedding = true;
        }
        self.shedding
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests drive the loop from blocking sockets
mod tests {
    use super::*;

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

    #[test]
    fn gate_sheds_above_high_water_and_readmits_below_low() {
        let mut g = AdmissionGate::new(100, 50);
        assert!(!g.update(99), "below high: admitting");
        assert!(g.update(100), "at high: shedding");
        assert!(g.update(75), "hysteresis: still shedding between marks");
        assert!(g.update(51), "still above low");
        assert!(!g.update(50), "at low: re-admitting");
        assert!(!g.update(99), "stays open until high again");
        assert!(g.update(150));
    }

    #[test]
    fn gate_clamps_inverted_watermarks() {
        let mut g = AdmissionGate::new(10, 10);
        assert!(g.update(10));
        assert!(g.update(10), "low clamped below high: still shedding at 10");
        assert!(!g.update(9));
    }

    #[test]
    fn a_shedding_gate_sheds_every_request_until_the_low_mark() {
        let mut g = AdmissionGate::new(2, 0);
        let shed: Vec<bool> = [5, 3, 1, 0, 1].into_iter().map(|l| g.update(l)).collect();
        assert_eq!(shed, [true, true, true, false, false]);
    }
}
