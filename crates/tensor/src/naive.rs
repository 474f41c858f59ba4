//! The first-draft kernels, kept verbatim as the oracle the production
//! kernels are differentially tested against (`to_bits` equality): plain
//! loops whose reduction order *defines* the contract — `matmul` sums over
//! `k` ascending from `0.0`, `col2im` adds patches in ascending `(oy, ox)`
//! order, `avg_pool2d` sums a window in `(ky, kx)` order.

use crate::{Conv2dGeometry, Tensor};

/// `(m, k) x (k, n) -> (m, n)`, `i-k-j` loop order, skipping zero
/// left-operand entries.
pub(crate) fn matmul(lhs: &Tensor, rhs: &Tensor) -> Tensor {
    let (m, k) = (lhs.dims()[0], lhs.dims()[1]);
    let n = rhs.dims()[1];
    let a = lhs.data();
    let b = rhs.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Per-element bounds-tested `im2col`.
pub(crate) fn im2col(x: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let per_image = geo.in_channels * geo.in_h * geo.in_w;
    let n = x.len() / per_image;
    let rows = geo.rows(n);
    let cols = geo.patch_len();
    let mut out = vec![0.0f32; rows * cols];
    let data = x.data();
    let k = geo.kernel;
    for b in 0..n {
        let img = &data[b * per_image..(b + 1) * per_image];
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                let row = b * geo.out_h * geo.out_w + oy * geo.out_w + ox;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for c in 0..geo.in_channels {
                    let chan = &img[c * geo.in_h * geo.in_w..(c + 1) * geo.in_h * geo.in_w];
                    for ky in 0..k {
                        let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                        if iy < 0 || iy >= geo.in_h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                            if ix < 0 || ix >= geo.in_w as isize {
                                continue;
                            }
                            out_row[c * k * k + ky * k + kx] =
                                chan[iy as usize * geo.in_w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols])
}

/// Per-element bounds-tested `col2im`.
pub(crate) fn col2im(cols_t: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let cols = geo.patch_len();
    let per_image_rows = geo.out_h * geo.out_w;
    let n = cols_t.dims()[0] / per_image_rows;
    let per_image = geo.in_channels * geo.in_h * geo.in_w;
    let mut out = vec![0.0f32; n * per_image];
    let data = cols_t.data();
    let k = geo.kernel;
    for b in 0..n {
        let img = &mut out[b * per_image..(b + 1) * per_image];
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                let row = b * per_image_rows + oy * geo.out_w + ox;
                let in_row = &data[row * cols..(row + 1) * cols];
                for c in 0..geo.in_channels {
                    let base = c * geo.in_h * geo.in_w;
                    for ky in 0..k {
                        let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                        if iy < 0 || iy >= geo.in_h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                            if ix < 0 || ix >= geo.in_w as isize {
                                continue;
                            }
                            img[base + iy as usize * geo.in_w + ix as usize] +=
                                in_row[c * k * k + ky * k + kx];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, geo.in_channels, geo.in_h, geo.in_w])
}

/// Per-window indexed `avg_pool2d`.
pub(crate) fn avg_pool2d(x: &Tensor, c: usize, h: usize, w: usize, k: usize) -> Tensor {
    let n = x.len() / (c * h * w);
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let inv = 1.0 / (k * k) as f32;
    let data = x.data();
    for b in 0..n {
        for ch in 0..c {
            let src = &data[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            let dst_base = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += src[(oy * k + ky) * w + ox * k + kx];
                        }
                    }
                    out[dst_base + oy * ow + ox] = acc * inv;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Per-element indexed `avg_unpool2d`.
pub(crate) fn avg_unpool2d(y: &Tensor, c: usize, oh: usize, ow: usize, k: usize) -> Tensor {
    let n = y.len() / (c * oh * ow);
    let (h, w) = (oh * k, ow * k);
    let mut out = vec![0.0f32; n * c * h * w];
    let inv = 1.0 / (k * k) as f32;
    let data = y.data();
    for b in 0..n {
        for ch in 0..c {
            let src = &data[(b * c + ch) * oh * ow..(b * c + ch + 1) * oh * ow];
            let dst = &mut out[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let v = src[oy * ow + ox] * inv;
                    for ky in 0..k {
                        for kx in 0..k {
                            dst[(oy * k + ky) * w + ox * k + kx] = v;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

/// Differential tests: every production kernel against its oracle above,
/// compared by `to_bits` — not a tolerance — over ragged shapes and inputs
/// salted with exact zeros of both signs.
mod differential {
    use super::*;
    use crate::linalg::{KC, MR, NR};
    use crate::rng::Rng;
    use proptest::prelude::*;

    /// Normal draws, a quarter of them replaced by `0.0` or `-0.0`.
    fn salted(shape: &[usize], rng: &mut Rng) -> Tensor {
        let mut t = Tensor::randn(shape, rng);
        for v in t.data_mut() {
            match rng.below(8) {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    /// Every value's bits, a NaN's as the one NaN: which operand's sign and
    /// payload a sum or product of two NaNs inherits is the instruction
    /// selector's choice (IEEE 754 leaves it open), not a reduction order.
    fn bits(t: &Tensor) -> Vec<u32> {
        let canonical = |v: &f32| if v.is_nan() { f32::NAN } else { *v };
        t.data().iter().map(|v| canonical(v).to_bits()).collect()
    }

    fn assert_same(new: &Tensor, oracle: &Tensor) {
        assert_eq!(new.dims(), oracle.dims());
        assert_eq!(bits(new), bits(oracle));
    }

    /// Normal draws, one in twelve replaced by a value arithmetic treats
    /// specially — few enough that not every sum ends up NaN.
    fn hostile(shape: &[usize], rng: &mut Rng) -> Tensor {
        let menu = [
            0.0f32,
            -0.0,
            1.5,
            -2.5,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ];
        let mut t = Tensor::randn(shape, rng);
        for v in t.data_mut() {
            if let Some(&special) = menu.get(rng.below(96)) {
                *v = special;
            }
        }
        t
    }

    /// The triple loop with no term skipped: [`matmul`] passes over a zero
    /// on its left, which a zero times an infinity must not be.
    fn product(lhs: &Tensor, rhs: &Tensor) -> Tensor {
        let (m, k, n) = (lhs.dims()[0], lhs.dims()[1], rhs.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    out[i * n + j] += lhs.data()[i * k + kk] * rhs.data()[kk * n + j];
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `(N, C, OH, OW) -> (N*OH*OW, C)`, or back.
    fn permuted(t: &Tensor, [n, c, hw]: [usize; 3], to_rows: bool) -> Tensor {
        let mut out = vec![0.0f32; n * c * hw];
        for (b, ch, p) in (0..n * c * hw).map(|i| (i / (c * hw), i / hw % c, i % hw)) {
            let (plane, row) = ((b * c + ch) * hw + p, (b * hw + p) * c + ch);
            let (to, from) = if to_rows { (row, plane) } else { (plane, row) };
            out[to] = t.data()[from];
        }
        Tensor::from_vec(out, &[n * hw, c])
    }

    /// The direct kernels against the chain they replace, built from the
    /// oracles: `im2col`, the triple loop, `col2im`; the parameter
    /// gradients, which read the NCHW upstream, against
    /// `matmul_tn(nchw_to_rows(dy), im2col(x))` and `sum_rows(nchw_to_rows(dy))`.
    fn assert_direct_conv_matches(
        geo: &Conv2dGeometry,
        [x, weight, bias, dy]: [&Tensor; 4],
        product: fn(&Tensor, &Tensor) -> Tensor,
    ) {
        let [n, cout, oh, ow] = geo.output_dims(x, weight, bias);
        let cols = im2col(x, geo);
        let mut y = product(&cols, &weight.transpose2());
        for row in y.data_mut().chunks_exact_mut(cout) {
            row.iter_mut().zip(bias.data()).for_each(|(v, b)| *v += b);
        }
        let want = permuted(&y, [n, cout, oh * ow], false).reshape(&[n, cout, oh, ow]);
        assert_same(&crate::conv2d(x, weight, bias, geo), &want);
        let rows = permuted(dy, [n, cout, oh * ow], true);
        let (dw, db) = crate::conv2d_weight_grad(x, dy, geo);
        assert_same(&dw, &product(&rows.transpose2(), &cols));
        assert_same(&db, &rows.sum_rows());
        assert_same(
            &crate::conv2d_input_grad(dy, weight, geo),
            &col2im(&product(&rows, weight), geo),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `m`, `n` straddle the `MR x NR` tile — every ragged row group and
        /// panel, `n < NR` included — and `k` includes 0 and 1 and values
        /// past the reduction block.
        #[test]
        fn gemm_family_matches_the_triple_loop(
            m in 1usize..2 * MR + 4,
            n in 1usize..3 * NR + 4,
            k in 0usize..40,
            long_k in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let k = if long_k == 1 { k + KC - 6 } else { k };
            let mut rng = Rng::seed_from(seed);
            let a = salted(&[m, k], &mut rng);
            let b = salted(&[k, n], &mut rng);
            let want = matmul(&a, &b);
            assert_same(&a.matmul(&b), &want);
            assert_same(&a.transpose2().matmul_tn(&b), &want);
            assert_same(&a.matmul_nt(&b.transpose2()), &want);
        }

        #[test]
        fn conv_kernels_match_the_indexed_loops(
            n in 1usize..3,
            c in 1usize..4,
            h in 1usize..8,
            w in 1usize..8,
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let kernel = kernel.min(h + 2 * pad).min(w + 2 * pad);
            let geo = Conv2dGeometry::new(c, h, w, kernel, stride, pad);
            let mut rng = Rng::seed_from(seed);
            let x = salted(&[n, c, h, w], &mut rng);
            assert_same(&crate::im2col(&x, &geo), &im2col(&x, &geo));
            let cols = salted(&[geo.rows(n), geo.patch_len()], &mut rng);
            assert_same(&crate::col2im(&cols, &geo), &col2im(&cols, &geo));
        }

        /// Kernels 1 to 5, `pad > kernel - 1`, 1x1 images, `h != w`, channel
        /// counts on both sides of a tile and `Cout` past two of them,
        /// ragged or not, output rows narrower than, as wide as and ragged
        /// past a run of `NR`, strides with and without the contiguous runs,
        /// batches that split into more than one group of images; inputs
        /// salted with zeros of both signs, then with NaN and ±∞ among them.
        #[test]
        fn direct_conv_kernels_match_im2col_gemm_col2im(
            n in 1usize..7,
            cin in 1usize..6,
            cout in 1usize..2 * MR + 4,
            h in 1usize..10,
            w in 1usize..NR + 6,
            kernel in 0usize..4,
            stride in 1usize..4,
            pad in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let kernel = [1, 2, 3, 5][kernel].min(h + 2 * pad).min(w + 2 * pad);
            let geo = Conv2dGeometry::new(cin, h, w, kernel, stride, pad);
            let shapes = [
                vec![n, cin, h, w],
                vec![cout, geo.patch_len()],
                vec![cout],
                vec![n, cout, geo.out_h, geo.out_w],
            ];
            let mut rng = Rng::seed_from(seed);
            let finite = shapes.each_ref().map(|shape| salted(shape, &mut rng));
            assert_direct_conv_matches(&geo, finite.each_ref(), matmul);
            let hostile = shapes.each_ref().map(|shape| hostile(shape, &mut rng));
            assert_direct_conv_matches(&geo, hostile.each_ref(), product);
        }

        #[test]
        fn pool_kernels_match_the_indexed_loops(
            n in 1usize..3,
            c in 1usize..4,
            oh in 1usize..5,
            ow in 1usize..5,
            k in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = Rng::seed_from(seed);
            let x = salted(&[n, c, oh * k, ow * k], &mut rng);
            assert_same(
                &crate::avg_pool2d(&x, c, oh * k, ow * k, k),
                &avg_pool2d(&x, c, oh * k, ow * k, k),
            );
            let y = salted(&[n, c, oh, ow], &mut rng);
            assert_same(
                &crate::avg_unpool2d(&y, c, oh, ow, k),
                &avg_unpool2d(&y, c, oh, ow, k),
            );
        }
    }

    /// Channel counts of the paper's ConvNet-3 (128 filters) and past it,
    /// ragged against the tile on either side: a weight-gradient window
    /// longer than `KC` and a `Cout` of many row groups and panels.
    #[test]
    fn wide_channel_counts_match() {
        let mut rng = Rng::seed_from(6);
        for (cin, cout, hw, stride) in [(64, 64, 4, 1), (128, 72, 3, 1), (67, 129, 5, 2)] {
            let geo = Conv2dGeometry::new(cin, hw, hw, 3, stride, 1);
            let x = salted(&[2, cin, hw, hw], &mut rng);
            let weight = salted(&[cout, geo.patch_len()], &mut rng);
            let bias = salted(&[cout], &mut rng);
            let dy = salted(&[2, cout, geo.out_h, geo.out_w], &mut rng);
            assert_direct_conv_matches(&geo, [&x, &weight, &bias, &dy], matmul);
        }
    }

    /// The shapes `ConvNet::scaled_default` issues at batch 32, where the
    /// pinned digests come from, and its two convolutions at every batch
    /// size a run issues.
    #[test]
    fn deployed_shapes_match() {
        let mut rng = Rng::seed_from(5);
        for (m, k, n) in [(8192, 27, 16), (2048, 144, 16), (32, 64, 10)] {
            let a = salted(&[m, k], &mut rng);
            let w = salted(&[n, k], &mut rng);
            let u = salted(&[m, n], &mut rng);
            assert_same(&a.matmul_nt(&w), &matmul(&a, &w.transpose2()));
            assert_same(&u.matmul(&w), &matmul(&u, &w));
            assert_same(&u.matmul_tn(&a), &matmul(&u.transpose2(), &a));
        }
        for batch in [1, 2, 18, 20, 32] {
            for (cin, hw) in [(3, 16), (16, 8)] {
                let geo = Conv2dGeometry::new(cin, hw, hw, 3, 1, 1);
                let x = salted(&[batch, cin, hw, hw], &mut rng);
                let weight = salted(&[16, geo.patch_len()], &mut rng);
                let bias = salted(&[16], &mut rng);
                let dy = salted(&[batch, 16, hw, hw], &mut rng);
                assert_direct_conv_matches(&geo, [&x, &weight, &bias, &dy], matmul);
            }
        }
    }
}
