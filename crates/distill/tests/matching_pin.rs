//! Gradient matching is the one caller that differentiates a gradient
//! again, so it stays on the recording tape and its bits may never move
//! without a re-pin: `match_class_step` on a fixed seed must return the
//! synthetic samples it returned before the first-order tape existed.
//! Distribution matching takes only a terminal gradient, so it runs on the
//! first-order tape, and must return what it returned on the recording one.

use qd_distill::{distribution_match_step, match_class_step, reference_gradients};
use qd_nn::{ConvNet, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;

/// FNV-1a over the little-endian bit patterns.
fn digest(t: &Tensor) -> u64 {
    t.data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Captured at the parent of PR 17 (commit 5625763), where every tape was
/// a recording tape: the synthetic samples after three matching steps, the
/// distance before the first, and the reference gradients they chase
/// (those come from `loss_gradients`, i.e. from the first-order tape).
const PARENT_SYNTHETIC: u64 = 0x46c6_731f_4ed8_d0c9;
const PARENT_DISTANCE: u32 = 0x41d3_0669;
const PARENT_REFERENCE: u64 = 0xad13_c808_aced_0486;

/// Captured at commit dd8a2a6, where `distribution_match_step` ran on the
/// recording tape: the synthetic samples after three steps and the
/// objective before the first.
const RECORDED_DISTRIBUTION_SYNTHETIC: u64 = 0xe52b_75ca_454b_5dbf;
const RECORDED_DISTRIBUTION_OBJECTIVE: u32 = 0x3f41_f1da;

#[test]
fn match_class_step_reproduces_the_parents_synthetic_bits() {
    let mut rng = Rng::seed_from(17);
    let net = ConvNet::scaled_default(3, 10);
    let params = net.init(&mut rng);
    let real = Tensor::randn(&[6, 3, 16, 16], &mut rng);
    let syn = Tensor::randn(&[2, 3, 16, 16], &mut rng);
    let reference = reference_gradients(&net, &params, &real, &[4; 6], 10);
    let (out, first) = match_class_step(&net, &params, &reference, syn, 4, 10, 0.1, 3);
    let reference = reference
        .iter()
        .fold(0u64, |h, g| h.rotate_left(7) ^ digest(g));
    println!(
        "synthetic {:#018x} distance {:#010x} reference {reference:#018x}",
        digest(&out),
        first.to_bits()
    );
    assert_eq!(
        (digest(&out), first.to_bits(), reference),
        (PARENT_SYNTHETIC, PARENT_DISTANCE, PARENT_REFERENCE)
    );
}

#[test]
fn distribution_match_step_reproduces_the_recording_tapes_bits() {
    let mut rng = Rng::seed_from(18);
    let net = ConvNet::scaled_default(3, 10);
    let params = net.init(&mut rng);
    let real = Tensor::randn(&[6, 3, 16, 16], &mut rng);
    let syn = Tensor::randn(&[2, 3, 16, 16], &mut rng);
    let (out, first) = distribution_match_step(&net, &params, &real, syn, 0.1, 3);
    println!(
        "synthetic {:#018x} objective {:#010x}",
        digest(&out),
        first.to_bits()
    );
    assert_eq!(
        (digest(&out), first.to_bits()),
        (
            RECORDED_DISTRIBUTION_SYNTHETIC,
            RECORDED_DISTRIBUTION_OBJECTIVE
        )
    );
}
