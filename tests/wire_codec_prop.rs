//! Property tests: any protocol message round-trips through the wire
//! codec byte-for-byte, consuming its whole encoding, and re-encodes to
//! the same bytes (a reply shipped by reference stays one); and a mutated
//! encoding (a flipped byte, a truncation, four bytes of `0xff`) is
//! decoded or refused, never a panic — what a connection carries is the
//! peer's to choose, and garbage must cost the connection, not the node.
//!
//! This lives at the workspace top level (rather than inside the
//! transport crate's unit tests) so the generators (`wire_gen`, shared
//! with `wire_decode_bounds.rs`) exercise `Msg` purely through the public
//! API — the same surface the simulator, the TCP transport and the
//! `check` model harness use.

mod wire_gen;

use bytes::Bytes;
use gridpaxos_transport::wire::{decode_msg, encode_to_bytes};
use proptest::prelude::*;
use wire_gen::{arb_msg, arb_mutation, mutate};

proptest! {
    #[test]
    fn any_msg_roundtrips_through_the_codec(msg in arb_msg()) {
        let mut buf = encode_to_bytes(&msg);
        let decoded = decode_msg(&mut buf).expect("generated message must decode");
        prop_assert!(buf.is_empty(), "codec left {} trailing bytes", buf.len());
        prop_assert_eq!(decoded, msg);
    }
}

proptest! {
    /// Decoding then encoding gives the same bytes: a reply shipped as a
    /// reference into its update decodes to a slice of the decoded update,
    /// so it is a reference again.
    #[test]
    fn a_decoded_message_re_encodes_to_identical_bytes(msg in arb_msg()) {
        let encoded = encode_to_bytes(&msg);
        let decoded = decode_msg(&mut encoded.clone()).expect("generated message must decode");
        prop_assert_eq!(encode_to_bytes(&decoded), encoded);
    }
}

proptest! {
    #[test]
    fn a_mutated_encoding_is_decoded_or_refused_never_a_panic(
        msg in arb_msg(),
        how in arb_mutation(),
        at in any::<usize>(),
    ) {
        let garbage = mutate(&encode_to_bytes(&msg), how, at);
        // `Ok` is fine too: a flipped payload byte is still a message.
        let _ = decode_msg(&mut Bytes::from(garbage));
    }
}
