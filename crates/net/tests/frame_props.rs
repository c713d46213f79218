//! Property tests for the socket frame codec: every payload kind, under
//! every wire format, at arbitrary lengths, round-trips exactly — and
//! corrupted input (truncation, bit flips, oversize length fields,
//! hostile bodies behind a valid checksum) is rejected with a typed
//! error, never a panic and never an allocation beyond the declared,
//! capped frame length.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use parallax_comm::wire::{PackedSlices, WireFormat};
use parallax_comm::{crc32, Payload};
use parallax_net::{decode_frame, encode_msg, Frame, FrameError, MAX_FRAME_BODY};
use parallax_tensor::{IndexedSlices, Tensor};

/// Builds one payload of `kind` from generated raw material. `wire`
/// selects the scalar encoding for compressed kinds, so the codec is
/// exercised with genuine f16/bf16 words and varint-packed indices.
fn build_payload(
    kind: usize,
    wire: WireFormat,
    floats: &[f32],
    indices: &[usize],
    width: usize,
    header: u64,
) -> Payload {
    let count = indices.len();
    let dense_rows = indices.iter().copied().max().map_or(4, |m| m + 3);
    let slices = || {
        let values = Tensor::new(
            vec![count, width],
            (0..count * width).map(|i| (i as f32) - 2.5).collect(),
        )
        .expect("slice values");
        IndexedSlices::new(indices.to_vec(), values, dense_rows).expect("slices")
    };
    match kind % 8 {
        0 => Payload::Tensor(Arc::new(
            Tensor::new(vec![floats.len()], floats.to_vec()).expect("tensor"),
        )),
        1 => Payload::Slices(Arc::new(slices())),
        2 => Payload::Floats(Arc::new(floats.to_vec())),
        3 => {
            // Words payloads only exist under the compressing formats.
            let w = if wire == WireFormat::F32 {
                WireFormat::F16
            } else {
                wire
            };
            Payload::Words(Arc::new(w.encode_vec(floats)))
        }
        4 => Payload::Packed(Arc::new(PackedSlices::pack(&slices()))),
        5 => Payload::Ids(indices.to_vec()),
        6 => Payload::Control(header),
        _ => Payload::Packet {
            header,
            body: Box::new(Payload::Floats(Arc::new(floats.to_vec()))),
        },
    }
}

fn wire_of(sel: usize) -> WireFormat {
    match sel % 3 {
        0 => WireFormat::F32,
        1 => WireFormat::F16,
        _ => WireFormat::Bf16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary payload kind x wire format x length round-trips with
    /// the accounted byte size preserved exactly (the invariant that
    /// keeps in-process and socket traffic ledgers byte-identical).
    #[test]
    fn roundtrip_preserves_payload_and_byte_size(
        kind in 0usize..8,
        wire_sel in 0usize..3,
        floats in vec(-1000.0f32..1000.0, 0..48),
        indices in vec(0usize..200, 0..24),
        width in 1usize..5,
        header in any::<u64>(),
        tag in any::<u64>(),
    ) {
        let wire = wire_of(wire_sel);
        let p = build_payload(kind, wire, &floats, &indices, width, header);
        let bytes = encode_msg(tag, &p);
        match decode_frame(&bytes) {
            Ok(Frame::Msg { tag: t, payload }) => {
                prop_assert_eq!(t, tag);
                prop_assert_eq!(payload.byte_size(), p.byte_size());
                prop_assert_eq!(format!("{payload:?}"), format!("{p:?}"));
            }
            other => return Err(TestCaseError::fail(format!("expected msg, got {other:?}"))),
        }
    }

    /// Any strict prefix of a valid frame fails with a typed error —
    /// never a panic.
    #[test]
    fn truncation_rejected_at_every_cut(
        kind in 0usize..8,
        wire_sel in 0usize..3,
        floats in vec(-10.0f32..10.0, 0..16),
        indices in vec(0usize..50, 0..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let wire = wire_of(wire_sel);
        let p = build_payload(kind, wire, &floats, &indices, 2, 9);
        let bytes = encode_msg(5, &p);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(decode_frame(&bytes[..cut]).is_err());
    }

    /// Any single bit flip anywhere in the frame is rejected (length
    /// corruption surfaces as truncation/oversize, body corruption as a
    /// CRC mismatch) — never a panic, never accepted.
    #[test]
    fn single_bit_flip_rejected(
        kind in 0usize..8,
        wire_sel in 0usize..3,
        floats in vec(-10.0f32..10.0, 1..16),
        indices in vec(0usize..50, 1..8),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let wire = wire_of(wire_sel);
        let p = build_payload(kind, wire, &floats, &indices, 2, 9);
        let mut bytes = encode_msg(5, &p);
        let at = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[at] ^= 1 << bit;
        prop_assert!(decode_frame(&bytes).is_err());
    }

    /// A corrupted length field above the cap is rejected as
    /// `Oversize` before any allocation happens.
    #[test]
    fn oversize_length_rejected_before_allocation(
        declared in (MAX_FRAME_BODY + 1)..u32::MAX as u64,
    ) {
        let mut bytes = vec![0u8; 64];
        bytes[..4].copy_from_slice(&(declared as u32).to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::Oversize { len, max }) => {
                prop_assert_eq!(len, declared);
                prop_assert_eq!(max, MAX_FRAME_BODY);
            }
            other => return Err(TestCaseError::fail(format!("expected Oversize, got {other:?}"))),
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(garbage in vec(any::<u8>(), 0..256)) {
        let _ = decode_frame(&garbage);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// A valid frame of every payload kind with 1-4 body bytes
    /// overwritten (random, 0x00 or 0xFF), sometimes truncated or
    /// extended, then re-sealed so its length and CRC match: the checksum
    /// passes, so the body decoder meets the hostile bytes directly. It
    /// must return a frame or a typed error, never panic or abort (the
    /// class of a length field driving a multi-GiB allocation).
    #[test]
    fn crc_valid_hostile_bodies_never_panic(
        kind in 0usize..8,
        wire_sel in 0usize..3,
        floats in vec(-10.0f32..10.0, 0..16),
        indices in vec(0usize..50, 0..8),
        hits in vec((0.0f64..1.0, prop_oneof![any::<u8>(), Just(0x00u8), Just(0xFFu8)]), 1..5),
        resize in 0usize..4,
        cut in 1usize..9,
        tail in vec(any::<u8>(), 1..9),
    ) {
        let wire = wire_of(wire_sel);
        let p = build_payload(kind, wire, &floats, &indices, 2, 9);
        let mut body = encode_msg(5, &p)[8..].to_vec();
        for (frac, byte) in hits {
            let at = ((body.len() - 1) as f64 * frac) as usize;
            body[at] = byte;
        }
        match resize {
            0 => body.truncate(body.len().saturating_sub(cut)),
            1 => body.extend_from_slice(&tail),
            _ => {} // Half the cases keep the encoded length.
        }

        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        let decoded = decode_frame(&frame);
        prop_assert!(
            !matches!(decoded, Err(FrameError::CrcMismatch { .. } | FrameError::Oversize { .. })),
            "the re-sealed header must pass: {decoded:?}"
        );
    }
}
