//! Property tests for the wire layer the networked substrate rides on:
//! every payload codec in the workspace round-trips bit-exactly, and both
//! the value codec and the frame protocol reject malformed input —
//! truncation, oversized declared lengths, corrupt headers — with **typed
//! errors, never panics**. A hostile or garbled peer must not be able to
//! take the coordinator down.

use dlra_comm::wire::{decode_value, encode_value, Wire, WireError};
use dlra_net::frame::{
    decode_error_frame, decode_hop_desc, encode_hop_desc, error_frame, HopRecord, Roster,
    HEADER_BYTES, MAX_BODY_BYTES,
};
use dlra_net::{Frame, MsgType, NetError};
use dlra_sampler::{SketchBundle, ZSamplerParams};
use proptest::prelude::*;
use proptest::TestRng;

/// Encodes, decodes, and checks the codec contract for one value: the
/// round-trip is bit-exact (the decoded value re-encodes to the identical
/// bytes — stronger than `==`, and the property the networked substrate's
/// decode → merge → re-encode path relies on), the body is exactly
/// `8 × words` (the wire-audit invariant), and every strict prefix of the
/// descriptor or body fails with a typed error rather than panicking.
fn assert_codec_contract<T: Wire>(value: &T) {
    let (desc, body) = encode_value(value);
    assert_eq!(
        body.len() as u64,
        8 * value.words(),
        "body must be exactly 8 bytes per charged word"
    );
    let back: T = decode_value(&desc, &body).expect("roundtrip");
    let (desc2, body2) = encode_value(&back);
    assert_eq!(desc2, desc, "descriptor must re-encode bit-identically");
    assert_eq!(body2, body, "body must re-encode bit-identically");

    // Truncation at every cut point: typed error, no panic, no success.
    for cut in 0..desc.len() {
        assert!(
            decode_value::<T>(&desc[..cut], &body).is_err(),
            "desc truncated at {cut} of {} must fail",
            desc.len()
        );
    }
    for cut in 0..body.len() {
        assert!(
            decode_value::<T>(&desc, &body[..cut]).is_err(),
            "body truncated at {cut} of {} must fail",
            body.len()
        );
    }

    // Trailing garbage is rejected: buffers must be consumed exactly.
    let mut fat_body = body.clone();
    fat_body.extend_from_slice(&[0u8; 8]);
    assert!(matches!(
        decode_value::<T>(&desc, &fat_body),
        Err(WireError::Trailing { .. })
    ));
    let mut fat_desc = desc.clone();
    fat_desc.push(0);
    assert!(decode_value::<T>(&fat_desc, &body).is_err());
}

/// A finite, bit-diverse f64 from raw test entropy (exponent clamped so
/// the value is never NaN/Inf, mantissa and sign fully random).
fn finite_f64(bits: u64) -> f64 {
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = 512 + (bits >> 52 & 0x3FF); // biased, well inside finite range
    let sign = bits >> 63;
    f64::from_bits(sign << 63 | exponent << 52 | mantissa)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn primitive_payloads_roundtrip(bits in 0u64..u64::MAX, n in 0u64..u64::MAX, len in 0usize..9) {
        assert_codec_contract(&finite_f64(bits));
        assert_codec_contract(&n);
        assert_codec_contract(&(n as i64));
        assert_codec_contract(&(n as usize));
        assert_codec_contract(&(n % 2 == 0));
        assert_codec_contract(&());
        assert_codec_contract(&(n % 3 == 0).then_some(finite_f64(bits)));
        let v: Vec<f64> = (0..len).map(|i| finite_f64(bits.wrapping_add(i as u64 * 0x9E37))).collect();
        assert_codec_contract(&v);
        assert_codec_contract(&(finite_f64(bits), n));
        assert_codec_contract(&(n, v.clone(), finite_f64(bits)));
        assert_codec_contract(&vec![(n, finite_f64(bits)); len.min(4)]);
    }

    #[test]
    fn matrix_payloads_roundtrip(rows in 1usize..7, cols in 1usize..7, seed in 0u64..1000) {
        let mut rng = dlra_util::Rng::new(seed);
        let m = dlra_linalg::Matrix::gaussian(rows, cols, &mut rng);
        assert_codec_contract(&m);
        assert_codec_contract(&dlra_linalg::Matrix::zeros(rows, cols));
        // Empty matrices are legal payloads too.
        assert_codec_contract(&dlra_linalg::Matrix::zeros(0, 0));
        assert_codec_contract(&vec![m]);
    }

    #[test]
    fn sketch_bundle_roundtrips(seed in 0u64..500, updates in 0usize..24) {
        let params = ZSamplerParams::default();
        let mut bundle = SketchBundle::new(&params, seed, 1 << 12);
        let mut rng = TestRng::from_name("sketch_bundle");
        for _ in 0..updates {
            bundle.update(rng.next_u64() % (1 << 12), rng.unit_f64() - 0.5);
        }
        assert_codec_contract(&bundle);
    }

    #[test]
    fn frames_roundtrip_and_reject_every_truncation(
        msg in 0usize..5,
        seq in 0u64..u64::MAX,
        job in 0u64..u64::MAX,
        desc_len in 0usize..24,
        body_words in 0usize..9,
    ) {
        let msg_type = [MsgType::Broadcast, MsgType::Query, MsgType::QueryServer, MsgType::Reply, MsgType::HopBlock][msg];
        let desc: Vec<u8> = (0..desc_len).map(|i| (i as u8).wrapping_mul(37)).collect();
        let body: Vec<u8> = (0..body_words * 8).map(|i| (i as u8).wrapping_add(5)).collect();
        let frame = Frame::data(msg_type, seq as u32, job, desc, body);
        let bytes = frame.to_bytes();
        let back = Frame::from_bytes(&bytes).expect("frame roundtrip");
        prop_assert_eq!(back.msg_type, frame.msg_type);
        prop_assert_eq!(back.seq, frame.seq);
        prop_assert_eq!(back.job_id, frame.job_id);
        prop_assert_eq!(&back.desc, &frame.desc);
        prop_assert_eq!(&back.body, &frame.body);

        // Every strict prefix is a typed truncation error — both through
        // the buffer parser and through the stream reader.
        for cut in [0, 1, HEADER_BYTES as usize - 1, bytes.len().saturating_sub(1)] {
            let cut = cut.min(bytes.len().saturating_sub(1));
            match Frame::from_bytes(&bytes[..cut]) {
                Err(NetError::Truncated { .. }) => {}
                other => panic!("prefix {cut} must be Truncated, got {other:?}"),
            }
            let mut stream = std::io::Cursor::new(&bytes[..cut]);
            prop_assert!(Frame::read_from(&mut stream).is_err());
        }
    }

    #[test]
    fn corrupt_headers_are_typed_errors(byte in 0usize..24, value in 0u64..256) {
        // Flip one header byte of a valid frame to an arbitrary value: the
        // parser either still accepts a well-formed frame or fails typed —
        // never panics, never over-reads.
        let frame = Frame::data(MsgType::Reply, 3, 9, vec![1, 2], vec![0; 16]);
        let mut bytes = frame.to_bytes();
        bytes[byte] = value as u8;
        let _ = Frame::from_bytes(&bytes); // must not panic
        let mut stream = std::io::Cursor::new(bytes.clone());
        let _ = Frame::read_from(&mut stream); // must not panic either
    }

    #[test]
    fn hop_descriptors_roundtrip(hops in 0usize..9, tail in 0usize..6, seed in 0u64..1000) {
        let mut rng = TestRng::from_name("hop_desc");
        let _ = seed;
        let records: Vec<HopRecord> = (0..hops)
            .map(|_| HopRecord {
                round: (rng.next_u64() % 64) as u32,
                sender: (rng.next_u64() % 64) as u32,
                words: rng.next_u64() % (1 << 40),
            })
            .collect();
        let payload_desc: Vec<u8> = (0..tail).map(|i| i as u8).collect();
        let desc = encode_hop_desc(&records, &payload_desc);
        let (back_records, back_payload) = decode_hop_desc(&desc).expect("hop desc roundtrip");
        prop_assert_eq!(back_records, records);
        prop_assert_eq!(back_payload, &payload_desc[..]);
        for cut in 0..desc.len().min(32) {
            prop_assert!(decode_hop_desc(&desc[..cut]).is_err() || cut >= 4);
        }
    }
}

#[test]
fn oversized_declared_lengths_are_rejected_not_allocated() {
    // A descriptor claiming u32::MAX elements with no body: the codec must
    // reject the length before trusting it, not attempt the allocation.
    let huge_desc = u32::MAX.to_le_bytes().to_vec();
    match decode_value::<Vec<f64>>(&huge_desc, &[]) {
        Err(WireError::Oversized { .. }) => {}
        other => panic!("expected Oversized, got {other:?}"),
    }

    // Same at the frame layer: a header declaring a body beyond the hard
    // cap fails typed before any payload read.
    let valid = Frame::data(MsgType::Reply, 0, 1, vec![], vec![0; 8]).to_bytes();
    let mut bytes = valid.clone();
    bytes[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
    match Frame::from_bytes(&bytes) {
        Err(NetError::Oversized { len, max, .. }) => {
            assert!(len > max);
            assert_eq!(max, u64::from(MAX_BODY_BYTES));
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    let mut desc_bytes = valid;
    desc_bytes[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::from_bytes(&desc_bytes),
        Err(NetError::Oversized { .. })
    ));
}

#[test]
fn control_frame_codecs_roundtrip_and_reject_truncation() {
    let roster = Roster {
        servers: 5,
        topology: dlra_comm::Topology::Tree { fanout: 3 },
        peer_ports: vec![0, 40001, 40002, 40003, 40004],
    };
    let frame = roster.to_frame();
    let back = Roster::from_frame(&frame).expect("roster roundtrip");
    assert_eq!(back.servers, roster.servers);
    assert_eq!(back.topology, roster.topology);
    assert_eq!(back.peer_ports, roster.peer_ports);
    for cut in 0..frame.desc.len() {
        let mut clipped = frame.clone();
        clipped.desc.truncate(cut);
        assert!(Roster::from_frame(&clipped).is_err(), "cut {cut}");
    }

    let err = error_frame(7, "server 3: disk on fire");
    match decode_error_frame(&err) {
        NetError::Remote { code, message } => {
            assert_eq!(code, 7);
            assert_eq!(message, "server 3: disk on fire");
        }
        other => panic!("expected Remote, got {other}"),
    }
}
