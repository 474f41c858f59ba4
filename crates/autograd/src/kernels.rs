//! Private layout kernels used by the tape ops: NCHW permutes and
//! spatial/channel reductions with their adjoint broadcasts.

use qd_tensor::Tensor;

/// Permutes a patch-row matrix `(N*OH*OW, C)` into an `(N, C, OH, OW)`
/// feature map. Inverse (and adjoint) of [`nchw_to_rows`].
///
/// Per image this is a `(OH*OW, C) -> (C, OH*OW)` transpose: each output
/// plane is one column of the image's row block, read as a strided run.
pub(crate) fn rows_to_nchw(rows: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(rows.dims(), &[n * oh * ow, c], "rows_to_nchw shape");
    let hw = oh * ow;
    let mut out = vec![0.0f32; n * c * hw];
    if c * hw > 0 {
        for (block, img) in rows
            .data()
            .chunks_exact(hw * c)
            .zip(out.chunks_exact_mut(c * hw))
        {
            for (ch, plane) in img.chunks_exact_mut(hw).enumerate() {
                for (o, &v) in plane.iter_mut().zip(block[ch..].iter().step_by(c)) {
                    *o = v;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Permutes an `(N, C, OH, OW)` feature map into patch rows
/// `(N*OH*OW, C)`. Inverse (and adjoint) of [`rows_to_nchw`].
///
/// Per image this is a `(C, OH*OW) -> (OH*OW, C)` transpose: each input
/// plane is written down one column of the image's row block.
pub(crate) fn nchw_to_rows(x: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(x.len(), n * c * oh * ow, "nchw_to_rows length");
    let hw = oh * ow;
    let mut out = vec![0.0f32; n * hw * c];
    if c * hw > 0 {
        for (img, block) in x
            .data()
            .chunks_exact(c * hw)
            .zip(out.chunks_exact_mut(hw * c))
        {
            for (ch, plane) in img.chunks_exact(hw).enumerate() {
                for (o, &v) in block[ch..].iter_mut().step_by(c).zip(plane) {
                    *o = v;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n * hw, c])
}

/// Adds the vector `b` `(n,)` to every row of the matrix `y` `(m, n)`.
pub(crate) fn add_row_bias(y: &Tensor, b: &Tensor) -> Tensor {
    let n = b.len();
    assert_eq!(b.shape().rank(), 1, "add_row_bias expects a bias vector");
    assert!(
        y.shape().rank() == 2 && y.dims()[1] == n,
        "add_row_bias: {} rows against a bias of {n}",
        y.shape()
    );
    let mut out = Vec::with_capacity(y.len());
    if n > 0 {
        for row in y.data().chunks_exact(n) {
            out.extend(row.iter().zip(b.data()).map(|(&v, &bias)| v + bias));
        }
    }
    Tensor::from_vec(out, y.dims())
}

/// Sums each `(n, c)` plane over its spatial extent:
/// `(N, C, H, W) -> (N*C,)`.
pub(crate) fn spatial_sum(x: &Tensor, c: usize, h: usize, w: usize) -> Tensor {
    let hw = h * w;
    let planes = x.len() / hw;
    assert_eq!(x.len(), planes * hw, "spatial_sum length");
    assert_eq!(planes % c, 0, "spatial_sum channel mismatch");
    let data = x.data();
    let out = (0..planes)
        .map(|p| data[p * hw..(p + 1) * hw].iter().sum())
        .collect();
    Tensor::from_vec(out, &[planes])
}

/// Replicates a per-plane vector `(N*C,)` over the spatial extent:
/// adjoint of [`spatial_sum`].
pub(crate) fn spatial_broadcast(v: &Tensor, c: usize, h: usize, w: usize) -> Tensor {
    let planes = v.len();
    assert_eq!(planes % c, 0, "spatial_broadcast channel mismatch");
    let n = planes / c;
    let hw = h * w;
    let mut out = vec![0.0f32; planes * hw];
    for (p, &val) in v.data().iter().enumerate() {
        out[p * hw..(p + 1) * hw].fill(val);
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

/// Sums an `(N, C, H, W)` tensor over batch and spatial axes: `-> (C,)`.
pub(crate) fn channel_sum(x: &Tensor, c: usize, h: usize, w: usize) -> Tensor {
    let hw = h * w;
    assert_eq!(x.len() % (c * hw), 0, "channel_sum length");
    let n = x.len() / (c * hw);
    let data = x.data();
    let mut out = vec![0.0f32; c];
    for b in 0..n {
        for (ch, o) in out.iter_mut().enumerate() {
            *o += data[(b * c + ch) * hw..(b * c + ch + 1) * hw]
                .iter()
                .sum::<f32>();
        }
    }
    Tensor::from_vec(out, &[c])
}

/// Replicates a per-channel vector `(C,)` over batch and spatial axes:
/// adjoint of [`channel_sum`].
pub(crate) fn channel_broadcast(v: &Tensor, n: usize, h: usize, w: usize) -> Tensor {
    let c = v.len();
    let hw = h * w;
    let mut out = vec![0.0f32; n * c * hw];
    for b in 0..n {
        for (ch, &val) in v.data().iter().enumerate() {
            out[(b * c + ch) * hw..(b * c + ch + 1) * hw].fill(val);
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_tensor::rng::Rng;

    /// The first-draft permutes, indexed per element: the oracles.
    fn naive_rows_to_nchw(rows: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
        let hw = oh * ow;
        let mut out = vec![0.0f32; n * c * hw];
        for b in 0..n {
            for p in 0..hw {
                for ch in 0..c {
                    out[(b * c + ch) * hw + p] = rows.data()[(b * hw + p) * c + ch];
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn naive_nchw_to_rows(x: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
        let hw = oh * ow;
        let mut out = vec![0.0f32; n * hw * c];
        for b in 0..n {
            for ch in 0..c {
                for p in 0..hw {
                    out[(b * hw + p) * c + ch] = x.data()[(b * c + ch) * hw + p];
                }
            }
        }
        Tensor::from_vec(out, &[n * hw, c])
    }

    proptest::proptest! {
        #[test]
        fn nchw_permutes_match_the_indexed_loops(
            n in 1usize..4,
            c in 1usize..6,
            oh in 1usize..5,
            ow in 1usize..5,
            seed in 0u64..100_000,
        ) {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut rng = Rng::seed_from(seed);
            let rows = Tensor::randn(&[n * oh * ow, c], &mut rng);
            let img = rows_to_nchw(&rows, n, c, oh, ow);
            let want = naive_rows_to_nchw(&rows, n, c, oh, ow);
            assert_eq!((img.dims(), bits(&img)), (want.dims(), bits(&want)));
            let x = Tensor::randn(&[n, c, oh, ow], &mut rng);
            let back = nchw_to_rows(&x, n, c, oh, ow);
            let want = naive_nchw_to_rows(&x, n, c, oh, ow);
            assert_eq!((back.dims(), bits(&back)), (want.dims(), bits(&want)));
        }
    }

    #[test]
    fn nchw_permutes_round_trip() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[2, 3, 4, 5], &mut rng);
        let rows = nchw_to_rows(&x, 2, 3, 4, 5);
        let back = rows_to_nchw(&rows, 2, 3, 4, 5);
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn nchw_permutes_are_adjoint() {
        let mut rng = Rng::seed_from(2);
        let rows = Tensor::randn(&[2 * 3 * 3, 4], &mut rng);
        let y = Tensor::randn(&[2, 4, 3, 3], &mut rng);
        let lhs = rows_to_nchw(&rows, 2, 4, 3, 3).dot(&y);
        let rhs = rows.dot(&nchw_to_rows(&y, 2, 4, 3, 3));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn spatial_pair_is_adjoint() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[2, 3, 2, 2], &mut rng);
        let v = Tensor::randn(&[6], &mut rng);
        let lhs = spatial_sum(&x, 3, 2, 2).dot(&v);
        let rhs = x.dot(&spatial_broadcast(&v, 3, 2, 2));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn channel_pair_is_adjoint() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[2, 3, 2, 2], &mut rng);
        let v = Tensor::randn(&[3], &mut rng);
        let lhs = channel_sum(&x, 3, 2, 2).dot(&v);
        let rhs = x.dot(&channel_broadcast(&v, 2, 2, 2));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn spatial_sum_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]);
        assert_eq!(spatial_sum(&x, 2, 1, 2).data(), &[3.0, 7.0]);
    }

    #[test]
    fn channel_sum_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 1, 2]);
        assert_eq!(channel_sum(&x, 1, 1, 2).data(), &[10.0]);
    }
}
