//! Property tests for the wire codec: frames must round-trip arbitrary
//! tensor shapes and bit patterns exactly.

use proptest::prelude::*;
use qd_net::Payload;
use qd_tensor::Tensor;

/// Builds one tensor consuming `dims` and the prefix of `raw` it needs.
fn tensor_from(dims: &[usize], raw: &[f32]) -> Tensor {
    let len: usize = dims.iter().product();
    Tensor::from_vec(raw[..len].to_vec(), dims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f32_frames_round_trip_bit_exactly(
        dims in proptest::collection::vec(1usize..5, 1..4usize),
        bits in proptest::collection::vec(0u32..=u32::MAX, 64),
    ) {
        // Arbitrary bit patterns: normals, subnormals, infinities, NaNs —
        // the lossless format must preserve all of them exactly.
        let raw: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let t = tensor_from(&dims, &raw);
        let frame = Payload::encode(std::slice::from_ref(&t));
        let back = frame.decode().unwrap();
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(back[0].shape().dims(), &dims[..]);
        for (x, y) in t.data().iter().zip(back[0].data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    }

    #[test]
    fn non_finite_frames_round_trip_without_panicking(
        dims in proptest::collection::vec(1usize..5, 1..4usize),
        picks in proptest::collection::vec(0usize..4, 64),
        payloads in proptest::collection::vec(1u32..(1 << 23), 64),
    ) {
        // Every element is non-finite — the shape a diverged ascent round
        // actually ships: NaNs with arbitrary sign/payload bits, +/-Inf.
        let raw: Vec<f32> = picks
            .iter()
            .zip(&payloads)
            .map(|(&p, &bits)| match p {
                0 => f32::from_bits(0x7f80_0000 | bits),
                1 => f32::from_bits(0xff80_0000 | bits),
                2 => f32::INFINITY,
                _ => f32::NEG_INFINITY,
            })
            .collect();
        let t = tensor_from(&dims, &raw);
        let frame = Payload::encode(std::slice::from_ref(&t));
        let back = frame.decode().unwrap();
        for (x, y) in t.data().iter().zip(back[0].data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
    }

    #[test]
    fn multi_tensor_frames_keep_count_order_and_sizes(
        ranks in proptest::collection::vec(1usize..4, 1..6usize),
        vals in proptest::collection::vec(-2.0f32..2.0, 81),
    ) {
        // One tensor per entry of `ranks`, shaped [3; rank].
        let tensors: Vec<Tensor> = ranks
            .iter()
            .map(|&r| tensor_from(&vec![3; r], &vals))
            .collect();
        let back = Payload::encode(&tensors).decode().unwrap();
        prop_assert_eq!(back.len(), tensors.len());
        for (a, b) in tensors.iter().zip(&back) {
            prop_assert_eq!(a.shape(), b.shape());
        }
    }

    #[test]
    fn truncated_frames_never_decode(
        cut in 1usize..40,
        vals in proptest::collection::vec(-1.0f32..1.0, 12),
    ) {
        let t = vec![tensor_from(&[3, 4], &vals)];
        let frame = Payload::encode(&t);
        let cut = cut.min(frame.len() - 1);
        let shorter = frame.as_bytes()[..frame.len() - cut].to_vec();
        prop_assert!(Payload::from_bytes(shorter).decode().is_err());
    }
}
