//! Convolution-support kernels: `im2col`/`col2im` and average pooling.
//!
//! Convolution itself is expressed in `qd-autograd` as the composite
//! `nchw(im2col(x) · Wᵀ)`. Because `im2col` and `col2im` are a mutually
//! adjoint *linear* pair, the composite is differentiable to any order —
//! exactly what the gradient-matching distillation objective needs.

use crate::Tensor;

/// Static geometry of a 2-D convolution (or pooling) window.
///
/// # Examples
///
/// ```
/// use qd_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 16, 16, 3, 1, 1);
/// assert_eq!((g.out_h, g.out_w), (16, 16)); // "same" padding
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Output height, derived.
    pub out_h: usize,
    /// Output width, derived.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes output dimensions from the input geometry.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or the padded input is smaller than the
    /// kernel.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(
            in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
            "kernel {kernel} larger than padded input {in_h}x{in_w} (pad {pad})"
        );
        let out_h = (in_h + 2 * pad - kernel) / stride + 1;
        let out_w = (in_w + 2 * pad - kernel) / stride + 1;
        Conv2dGeometry {
            in_channels,
            in_h,
            in_w,
            kernel,
            stride,
            pad,
            out_h,
            out_w,
        }
    }

    /// Number of columns of the `im2col` matrix: `C * k * k`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of rows of the `im2col` matrix for a batch of `n`: `n*OH*OW`.
    pub fn rows(&self, n: usize) -> usize {
        n * self.out_h * self.out_w
    }
}

/// Where one window element `(c, ky, kx)` — one column of the patch matrix —
/// meets the image: every output row in `oys` has the same run of `len`
/// output positions starting at `ox0` whose window element lies inside the
/// input.
struct ColumnRuns {
    /// The patch column, `(c * k + ky) * k + kx`.
    col: usize,
    oys: std::ops::Range<usize>,
    ox0: usize,
    len: usize,
    /// Offset inside one image of the pixel under `(oys.start, ox0)`; the
    /// run's following positions read pixels `stride` apart and the next
    /// output row reads `stride` input rows further down.
    first: usize,
}

impl Conv2dGeometry {
    /// The output positions along one axis whose window element `kk` lands
    /// inside the input: `0 <= o * stride + kk - pad < in_dim`.
    fn covered(&self, kk: usize, in_dim: usize, out_dim: usize) -> std::ops::Range<usize> {
        let lo = self.pad.saturating_sub(kk).div_ceil(self.stride);
        let hi = (in_dim + self.pad)
            .saturating_sub(kk)
            .div_ceil(self.stride)
            .min(out_dim);
        lo..hi
    }

    /// The non-empty runs of every patch column, in column order.
    ///
    /// This is the one place the padding is clipped — once per window
    /// element and axis — so the kernels' inner loops are plain strided
    /// runs with no bounds test per element.
    fn column_runs(&self) -> Vec<ColumnRuns> {
        let k = self.kernel;
        let mut runs = Vec::with_capacity(self.patch_len());
        for c in 0..self.in_channels {
            for ky in 0..k {
                let oys = self.covered(ky, self.in_h, self.out_h);
                for kx in 0..k {
                    let oxs = self.covered(kx, self.in_w, self.out_w);
                    if oys.is_empty() || oxs.is_empty() {
                        continue;
                    }
                    let iy = oys.start * self.stride + ky - self.pad;
                    let ix = oxs.start * self.stride + kx - self.pad;
                    runs.push(ColumnRuns {
                        col: (c * k + ky) * k + kx,
                        oys: oys.clone(),
                        ox0: oxs.start,
                        len: oxs.len(),
                        first: (c * self.in_h + iy) * self.in_w + ix,
                    });
                }
            }
        }
        runs
    }

    /// Calls `f(patch_offset, image_offset, len)` for each run of `column`
    /// inside one image: `len` patch-block elements `patch_len()` apart
    /// pair with `len` image elements `stride` apart.
    #[inline(always)]
    fn for_each_run(&self, column: &ColumnRuns, mut f: impl FnMut(usize, usize, usize)) {
        let cols = self.patch_len();
        let mut at = column.first;
        for oy in column.oys.clone() {
            f(
                (oy * self.out_w + column.ox0) * cols + column.col,
                at,
                column.len,
            );
            at += self.stride * self.in_w;
        }
    }
}

/// Unfolds an `(N, C, H, W)` tensor into patch rows `(N*OH*OW, C*k*k)`.
///
/// Out-of-bounds positions (from zero padding) contribute zeros. The row
/// for batch `b`, output position `(oy, ox)` is at index
/// `b*OH*OW + oy*OW + ox`, and its columns run over `(c, ky, kx)` in
/// row-major order.
///
/// # Panics
///
/// Panics if `x` does not have `N * C * H * W` elements for some `N`.
pub fn im2col(x: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let per_image = geo.in_channels * geo.in_h * geo.in_w;
    assert!(
        per_image > 0 && x.len().is_multiple_of(per_image),
        "input of {} elements is not a whole number of {}x{}x{} images",
        x.len(),
        geo.in_channels,
        geo.in_h,
        geo.in_w
    );
    let n = x.len() / per_image;
    let cols = geo.patch_len();
    let per_image_out = geo.rows(1) * cols;
    let mut out = vec![0.0f32; n * per_image_out];
    if per_image_out > 0 {
        let columns = geo.column_runs();
        // One image's patch block is small enough to stay in cache while
        // every window element scatters its pixel runs down one column.
        for (img, block) in x
            .data()
            .chunks_exact(per_image)
            .zip(out.chunks_exact_mut(per_image_out))
        {
            for column in &columns {
                geo.for_each_run(column, |to, from, len| {
                    let dst = &mut block[to..to + (len - 1) * cols + 1];
                    let src = &img[from..from + (len - 1) * geo.stride + 1];
                    for t in 0..len {
                        dst[t * cols] = src[t * geo.stride];
                    }
                });
            }
        }
    }
    Tensor::from_vec(out, &[geo.rows(n), cols])
}

/// Folds patch rows back into an image tensor: the adjoint of [`im2col`].
///
/// Overlapping patches are *summed* into the `(N, C, H, W)` output, which
/// is exactly the vector-Jacobian product of `im2col`. Each pixel receives
/// its contributions in ascending `(oy, ox)` order of the patches that
/// cover it, from a `0.0` start.
///
/// # Panics
///
/// Panics if `cols` is not shaped `(N*OH*OW, C*k*k)` for some `N`.
pub fn col2im(cols_t: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let cols = geo.patch_len();
    assert_eq!(cols_t.shape().rank(), 2, "col2im expects a matrix");
    assert_eq!(
        cols_t.dims()[1],
        cols,
        "col2im column count {} != patch length {}",
        cols_t.dims()[1],
        cols
    );
    let per_image_rows = geo.out_h * geo.out_w;
    assert!(
        per_image_rows > 0 && cols_t.dims()[0].is_multiple_of(per_image_rows),
        "col2im row count {} is not a multiple of OH*OW = {}",
        cols_t.dims()[0],
        per_image_rows
    );
    let n = cols_t.dims()[0] / per_image_rows;
    let per_image = geo.in_channels * geo.in_h * geo.in_w;
    let mut out = vec![0.0f32; n * per_image];
    if cols > 0 && per_image > 0 {
        let columns = geo.column_runs();
        for (block, img) in cols_t
            .data()
            .chunks_exact(per_image_rows * cols)
            .zip(out.chunks_exact_mut(per_image))
        {
            // Patches reach a pixel in ascending (oy, ox) order exactly when
            // the window elements that carry them run in descending order.
            for column in columns.iter().rev() {
                geo.for_each_run(column, |from, to, len| {
                    let src = &block[from..from + (len - 1) * cols + 1];
                    let dst = &mut img[to..to + (len - 1) * geo.stride + 1];
                    for t in 0..len {
                        dst[t * geo.stride] += src[t * cols];
                    }
                });
            }
        }
    }
    Tensor::from_vec(out, &[n, geo.in_channels, geo.in_h, geo.in_w])
}

/// Non-overlapping average pooling on an `(N, C, H, W)` tensor.
///
/// Output is `(N, C, H/k, W/k)`. Trailing rows/columns that do not fill a
/// whole window are rejected to keep the operation exactly linear and
/// invertible-in-structure. Each window is summed in `(ky, kx)` order from
/// `0.0`, then scaled once.
///
/// # Panics
///
/// Panics if `h` or `w` is not divisible by `k`, or the buffer length does
/// not match `N*C*H*W` for some `N`.
pub fn avg_pool2d(x: &Tensor, c: usize, h: usize, w: usize, k: usize) -> Tensor {
    assert!(
        k > 0 && h.is_multiple_of(k) && w.is_multiple_of(k),
        "pooling {h}x{w} by {k}"
    );
    let per_image = c * h * w;
    assert!(
        per_image > 0 && x.len().is_multiple_of(per_image),
        "input of {} elements is not a whole number of {c}x{h}x{w} images",
        x.len()
    );
    let n = x.len() / per_image;
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let inv = 1.0 / (k * k) as f32;
    // One output row gathers a band of `k` input rows; a window's rows are
    // `w` apart in the band and the next window starts `k` further on.
    for (band, orow) in x.data().chunks_exact(k * w).zip(out.chunks_exact_mut(ow)) {
        let mut window = 0;
        for o in orow {
            let mut acc = 0.0;
            let mut row = window;
            for _ in 0..k {
                for kx in 0..k {
                    acc += band[row + kx];
                }
                row += w;
            }
            *o = acc * inv;
            window += k;
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Adjoint of [`avg_pool2d`]: spreads each pooled value, divided by `k*k`,
/// back over its window. Input is `(N, C, OH, OW)`; output `(N, C, OH*k,
/// OW*k)`.
///
/// # Panics
///
/// Panics if the buffer length does not match `N*C*OH*OW` for some `N`.
pub fn avg_unpool2d(y: &Tensor, c: usize, oh: usize, ow: usize, k: usize) -> Tensor {
    let per_image = c * oh * ow;
    assert!(
        per_image > 0 && y.len().is_multiple_of(per_image),
        "input of {} elements is not a whole number of {c}x{oh}x{ow} maps",
        y.len()
    );
    let n = y.len() / per_image;
    let (h, w) = (oh * k, ow * k);
    let mut out = vec![0.0f32; n * c * h * w];
    let inv = 1.0 / (k * k) as f32;
    if k > 0 {
        // One input row spreads into a band of `k` identical output rows.
        for (yrow, band) in y.data().chunks_exact(ow).zip(out.chunks_exact_mut(k * w)) {
            let (first, rest) = band.split_at_mut(w);
            for (window, &v) in first.chunks_exact_mut(k).zip(yrow) {
                window.fill(v * inv);
            }
            for row in rest.chunks_exact_mut(w) {
                row.copy_from_slice(first);
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(3, 8, 8, 3, 1, 1);
        assert_eq!((g.out_h, g.out_w), (8, 8));
        assert_eq!(g.patch_len(), 27);
        assert_eq!(g.rows(2), 128);
    }

    #[test]
    fn geometry_strided() {
        let g = Conv2dGeometry::new(1, 8, 8, 2, 2, 0);
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, no padding: im2col is a pure reshape/permute.
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let g = Conv2dGeometry::new(2, 2, 2, 1, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 2]);
        // Row for position (0,0) holds channel values x[0], x[4].
        assert_eq!(cols.data()[0], 0.0);
        assert_eq!(cols.data()[1], 4.0);
    }

    #[test]
    fn im2col_respects_zero_padding() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 9]);
        // Top-left output: kernel hangs over the top-left corner, so only
        // the bottom-right 2x2 of the kernel sees data.
        let row0 = &cols.data()[0..9];
        assert_eq!(row0.iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn conv_via_im2col_matches_direct_convolution() {
        // 3x3 input, 2x2 kernel of ones => each output = window sum.
        let x = Tensor::from_vec((1..=9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        let cols = im2col(&x, &g);
        let w = Tensor::ones(&[1, 4]); // (Cout, C*k*k)
        let y = cols.matmul(&w.transpose2());
        assert_eq!(y.dims(), &[4, 1]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = Rng::seed_from(9);
        let g = Conv2dGeometry::new(2, 5, 5, 3, 2, 1);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let cols = im2col(&x, &g);
        let y = Tensor::randn(cols.dims(), &mut rng);
        let lhs = cols.dot(&y);
        let rhs = x.dot(&col2im(&y, &g));
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn avg_pool_averages_windows() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = avg_pool2d(&x, 1, 2, 2, 2);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn avg_unpool_is_adjoint_of_avg_pool() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let px = avg_pool2d(&x, 3, 4, 4, 2);
        let y = Tensor::randn(px.dims(), &mut rng);
        let lhs = px.dot(&y);
        let rhs = x.dot(&avg_unpool2d(&y, 3, 2, 2, 2));
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "pooling")]
    fn avg_pool_rejects_ragged_windows() {
        let _ = avg_pool2d(&Tensor::zeros(&[1, 1, 3, 3]), 1, 3, 3, 2);
    }

    #[test]
    fn strided_conv_via_im2col_matches_hand_computation() {
        // 4x4 input, 2x2 kernel, stride 2: four disjoint windows.
        let x = Tensor::from_vec((1..=16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let g = Conv2dGeometry::new(1, 4, 4, 2, 2, 0);
        assert_eq!((g.out_h, g.out_w), (2, 2));
        let cols = im2col(&x, &g);
        let w = Tensor::ones(&[1, 4]);
        let y = cols.matmul(&w.transpose2());
        // Window sums: (1+2+5+6), (3+4+7+8), (9+10+13+14), (11+12+15+16).
        assert_eq!(y.data(), &[14.0, 22.0, 46.0, 54.0]);
    }

    #[test]
    fn multichannel_patches_are_channel_major() {
        // Two channels, 1x1 kernel: each row = [ch0, ch1] at that pixel.
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 1, 2]);
        let g = Conv2dGeometry::new(2, 1, 2, 1, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.data(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn col2im_then_im2col_on_disjoint_windows_is_identity() {
        // Stride = kernel: windows don't overlap, so the adjoint pair is a
        // bijection on patch space.
        let mut rng = Rng::seed_from(11);
        let g = Conv2dGeometry::new(1, 4, 4, 2, 2, 0);
        let cols = Tensor::randn(&[4, 4], &mut rng);
        let img = col2im(&cols, &g);
        let back = im2col(&img, &g);
        assert!(back.max_abs_diff(&cols) < 1e-6);
    }
}
