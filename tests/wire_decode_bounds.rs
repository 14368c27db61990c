//! Hostile bytes stay bounded: decoding one frame allocates no more than
//! the bound `gridpaxos_transport::wire` states for a frame of its
//! length, and the frame decoder fed framed, mutated and torn streams
//! never panics, never yields a frame over `MAX_FRAME` and never buffers
//! past one frame and the chunk just read.
//!
//! The allocation is measured by a counting global allocator that keeps
//! a per-thread tally, so the test harness's other threads do not count.

mod wire_gen;

use bytes::Bytes;
use gridpaxos_core::msg::Msg;
use gridpaxos_transport::framing::MAX_FRAME;
use gridpaxos_transport::wire::{decode_msg, encode_to_bytes, max_decode_alloc};
use gridpaxos_transport::FrameDecoder;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wire_gen::{arb_msg, arb_mutation, mutate, Mutation};

/// The system allocator, keeping this thread's live bytes and their peak.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(n: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + n);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(n: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(n)));
}

// SAFETY: every call forwards to `System` unchanged; the tally only reads
// the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A move holds both blocks for a moment.
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes `f` allocated at its peak on this thread, above what was live
/// when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    drop(out);
    peak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every mutated encoding of any message decodes within the stated
    /// bound for its length.
    #[test]
    fn decoding_a_frame_allocates_within_the_stated_bound(
        msg in arb_msg(),
        how in arb_mutation(),
        at in any::<usize>(),
    ) {
        let garbage = Bytes::from(mutate(&encode_to_bytes(&msg), how, at));
        let len = garbage.len();
        let peak = peak_of(|| decode_msg(&mut garbage.clone()));
        prop_assert!(
            peak <= max_decode_alloc(len),
            "a {len}-byte frame allocated {peak} bytes, bound {}",
            max_decode_alloc(len)
        );
    }
}

/// The envelopes of a chain never nest, and a chain is refused before it
/// is decoded: a frame of a million of them neither recurses a million
/// deep nor allocates past the bound.
#[test]
fn a_chain_of_group_envelopes_is_refused_flat() {
    let mut frame = Vec::with_capacity(5_000_000);
    for _ in 0..1_000_000 {
        frame.extend_from_slice(&[14, 0, 0, 0, 0]);
    }
    let len = frame.len();
    let frame = Bytes::from(frame);
    let peak = peak_of(|| decode_msg(&mut frame.clone()));
    assert!(decode_msg(&mut frame.clone()).is_err());
    assert!(peak <= max_decode_alloc(len), "{peak} bytes for {len}");
}

/// `msgs` encoded and framed, as a connection carries them.
fn framed(msgs: &[Msg]) -> Vec<u8> {
    let mut out = Vec::new();
    for m in msgs {
        let payload = encode_to_bytes(m);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

proptest! {
    /// A stream of framed messages, mutated anywhere (length prefixes
    /// included) and torn at arbitrary points: the frame decoder never
    /// panics, never yields a frame over `MAX_FRAME`, and after each
    /// chunk holds at most one frame's worth plus that chunk. Each frame
    /// it yields decodes or is refused.
    #[test]
    fn a_mutated_torn_stream_never_overruns_the_frame_decoder(
        msgs in proptest::collection::vec(arb_msg(), 1..4),
        mutations in proptest::collection::vec((arb_mutation(), any::<usize>()), 0..3),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut stream = framed(&msgs);
        for (how, at) in mutations {
            // A cut mutation would only shorten the stream; the tear
            // below covers where it ends.
            if !matches!(how, Mutation::Truncate) {
                stream = mutate(&stream, how, at);
            }
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut dec = FrameDecoder::new();
        let mut from = 0;
        'feed: for to in cuts {
            let chunk = &stream[from..to];
            from = to;
            dec.extend(chunk);
            prop_assert!(dec.pending() <= MAX_FRAME + 4 + chunk.len());
            loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => {
                        prop_assert!(frame.len() <= MAX_FRAME);
                        let _ = decode_msg(&mut frame.clone());
                    }
                    Ok(None) => break,
                    // The stream can never resynchronize: the connection
                    // is dropped, and nothing more is fed.
                    Err(_) => break 'feed,
                }
            }
            prop_assert!(dec.pending() <= MAX_FRAME + 4);
        }
    }
}
