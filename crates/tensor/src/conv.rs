//! Convolution kernels: the direct forward / weight-gradient /
//! input-gradient kernels, `im2col`/`col2im`, average pooling, and the
//! copies between `(N, C, H, W)` planes and position-major rows.
//!
//! `qd-autograd` has two representations of a convolution. Where a
//! gradient may be differentiated again it is the composite
//! `nchw(im2col(x) · Wᵀ + b)`: `im2col` and `col2im` are a mutually adjoint
//! *linear* pair, so the composite is differentiable to any order — exactly
//! what the gradient-matching distillation objective needs. Inside a fused
//! ConvNet block it is [`conv2d_rows`] with [`conv2d_weight_grad`] (weight
//! and bias, from a position-major upstream) and [`conv2d_input_grad`],
//! which walk the images in place and never build the patch matrix, yet
//! give each output element the composite's terms in the composite's order:
//! the same bits at a ninth of the working set.
//!
//! A *position-major* map is the composite's `(N·OH·OW, Cout)` rows with
//! each row padded to [`lane_pitch`]`(Cout)` floats: one output position's
//! channels side by side, so that a per-channel reduction runs [`LANES`]
//! channels per vector. The forward kernel writes it directly and the
//! weight gradient reads it directly; a ConvNet block keeps its pre-norm
//! map in it (`qd-autograd`).

use crate::linalg::{lanes, tile, KC, MR, NR};
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
    /// Panics if `kernel == 0`, `stride == 0` or the padded input is smaller
    /// than the kernel.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel must be positive");
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

    /// Elements of one input image, `C * H * W`.
    fn image_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// How many images `x` holds, for the kernel `name`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a whole number of `C x H x W` images.
    fn batch(&self, name: &str, x: &Tensor) -> usize {
        assert!(
            self.image_len() > 0 && x.len().is_multiple_of(self.image_len()),
            "{name}: input {} is not a whole number of {}x{}x{} images",
            x.shape(),
            self.in_channels,
            self.in_h,
            self.in_w
        );
        x.len() / self.image_len()
    }

    /// The `[N, Cout, OH, OW]` of the convolution of `x` with the
    /// `(Cout, C*k*k)` `weight` and `(Cout,)` `bias`.
    ///
    /// # Panics
    ///
    /// Panics, naming `conv2d` and the shapes at odds, if `x` is not a whole
    /// number of `C x H x W` images, `bias` is not a vector or `weight` is
    /// not `(bias.len(), C*k*k)`.
    pub fn output_dims(&self, x: &Tensor, weight: &Tensor, bias: &Tensor) -> [usize; 4] {
        let n = self.batch("conv2d", x);
        let (cout, fan) = (bias.len(), self.patch_len());
        assert_eq!(
            bias.dims(),
            [cout],
            "conv2d: bias {} is not a vector",
            bias.shape()
        );
        assert_eq!(
            weight.dims(),
            [cout, fan],
            "conv2d: weight {} is not (Cout, Cin*k*k) = ({cout}, {fan}) for bias {}",
            weight.shape(),
            bias.shape()
        );
        [n, cout, self.out_h, self.out_w]
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
    let (n, per_image) = (geo.batch("im2col", x), geo.image_len());
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

/// Zero-padded working copies of a few consecutive images: what the direct
/// kernels read (the input) or add into (the input gradient) where the
/// chain of primitives has a patch matrix. A kernel owns one and reuses it
/// for every image, or every group of images, of the batch.
struct Frame {
    geo: Conv2dGeometry,
    /// Row pitch: the padded width, widened until a run of `MR.max(NR)`
    /// positions `stride` apart starting under any chunk of output
    /// positions stays inside one row.
    pitch: usize,
    /// One `(C, H + 2*pad, pitch)` slot per image; outside the image it is
    /// zero (the input) or dropped (the input gradient), which is how
    /// padding is clipped.
    data: Vec<f32>,
    /// Where window element `(c, ky, kx)` lies from the first element of
    /// its patch, in patch-column order.
    offsets: Vec<usize>,
}

impl Frame {
    fn new(geo: &Conv2dGeometry, images: usize) -> Self {
        let &Conv2dGeometry { kernel, stride, .. } = geo;
        let run = MR.max(NR);
        let pitch =
            (geo.in_w + 2 * geo.pad).max((geo.out_w.div_ceil(run) * run - 1) * stride + kernel);
        let rows = geo.in_h + 2 * geo.pad;
        let offsets = (0..geo.patch_len())
            .map(|col| {
                let (c, ky, kx) = (col / (kernel * kernel), col / kernel % kernel, col % kernel);
                (c * rows + ky) * pitch + kx
            })
            .collect();
        Frame {
            geo: *geo,
            pitch,
            data: vec![0.0; images * geo.in_channels * rows * pitch],
            offsets,
        }
    }

    /// Where the patch of output position `(oy, ox)` of the first slot's
    /// image starts.
    fn corner(&self, oy: usize, ox: usize) -> usize {
        (oy * self.pitch + ox) * self.geo.stride
    }

    /// Floats per image slot.
    fn slot_len(&self) -> usize {
        self.geo.in_channels * (self.geo.in_h + 2 * self.geo.pad) * self.pitch
    }

    /// The images' rows inside the frame, in `(slot, c, y)` order.
    fn image_rows(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let (in_h, in_w, pad, pitch) = (self.geo.in_h, self.geo.in_w, self.geo.pad, self.pitch);
        self.data
            .chunks_exact_mut((in_h + 2 * pad) * pitch)
            .flat_map(move |plane| plane[pad * pitch..].chunks_exact_mut(pitch).take(in_h))
            .map(move |row| &mut row[pad..pad + in_w])
    }

    /// Copies in consecutive images, one per slot from the first.
    fn load(&mut self, images: &[f32]) {
        let w = self.geo.in_w;
        for (dst, src) in self.image_rows().zip(images.chunks_exact(w)) {
            dst.iter_mut().zip(src).for_each(|(d, &s)| *d = s);
        }
    }

    fn store(&mut self, img: &mut [f32]) {
        let w = self.geo.in_w;
        for (src, dst) in self.image_rows().zip(img.chunks_exact_mut(w)) {
            dst.iter_mut().zip(src).for_each(|(d, s)| *d = *s);
        }
    }

    /// Output channels `oc0 .. oc0 + NR` of the loaded image, `MR` output
    /// positions at a time: the tile's rows are a run of positions, its
    /// lanes the filters, and each term is the run's pixels under one
    /// window element against the filters' weights there. `group` holds
    /// those weights window element by window element (see [`row_groups`];
    /// a ragged last group repeats its last filter), `bias` the filters'
    /// biases. A row is one position's `NR` channels, stored at lane `oc0`
    /// of its `pitch`-wide row of `out`, the image's share of the
    /// position-major output.
    fn forward(&self, group: &[f32], bias: [f32; NR], oc0: usize, pitch: usize, out: &mut [f32]) {
        let (out_h, out_w, stride) = (self.geo.out_h, self.geo.out_w, self.geo.stride);
        // Walked, not indexed, so that a term costs no bounds test on its
        // weights or its offset.
        let weights = || group.chunks_exact(NR).map(lanes::<NR>);
        for oy in 0..out_h {
            for ox0 in (0..out_w).step_by(MR) {
                let zero = [[0.0f32; NR]; MR];
                let window = &self.data[self.corner(oy, ox0)..];
                let acc = if stride == 1 {
                    let runs = self.offsets.iter().map(|&at| lanes::<MR>(&window[at..]));
                    tile(zero, runs.zip(weights()))
                } else {
                    let runs = (self.offsets.iter())
                        .map(|&at| std::array::from_fn(|r| window[at + r * stride]));
                    tile(zero, runs.zip(weights()))
                };
                let first = oy * out_w + ox0;
                for (p, row) in (first..).zip(&acc[..MR.min(out_w - ox0)]) {
                    let biased: [f32; NR] = std::array::from_fn(|l| row[l] + bias[l]);
                    out[p * pitch + oc0..][..NR].copy_from_slice(&biased);
                }
            }
        }
    }

    /// Where every patch of every slot starts, in `(slot, oy, ox)` order.
    fn corners(&self) -> Vec<usize> {
        let (out_h, out_w) = (self.geo.out_h, self.geo.out_w);
        let slots = self.data.len() / self.slot_len().max(1);
        (0..slots * out_h * out_w)
            .map(|p| {
                let (slot, at) = (p / (out_h * out_w), p % (out_h * out_w));
                slot * self.slot_len() + self.corner(at / out_w, at % out_w)
            })
            .collect()
    }

    /// Adds the loaded images' terms to rows `k0 .. k0 + MR`, columns
    /// `j0 .. j0 + NR` of the `(C*k*k, Cout)` transposed weight gradient:
    /// the tile's rows are window elements read under each patch `corners`
    /// names, its lanes the upstream's channels at that patch: channels
    /// `j0 ..` of one of `rows`, the images' position-major upstream.
    fn weight_grad(
        &self,
        corners: &[usize],
        (rows, pitch): (&[f32], usize),
        (k0, j0, cout): (usize, usize, usize),
        dwt: &mut [f32],
    ) {
        let (nr, len) = (NR.min(cout - j0), self.offsets.len());
        let mut acc = [[0.0f32; NR]; MR];
        for (k, row) in (k0..len).zip(&mut acc) {
            row[..nr].copy_from_slice(&dwt[k * cout + j0..][..nr]);
        }
        // Slices of one length, so that one bounds test covers a patch's
        // `MR` reads.
        let reach = corners.last().map_or(0, |last| last + 1);
        let src: [&[f32]; MR] =
            std::array::from_fn(|r| &self.data[self.offsets[(k0 + r).min(len - 1)]..][..reach]);
        let lhs = corners
            .iter()
            .map(|&at| std::array::from_fn(|r| src[r][at]));
        let upstream = rows.chunks_exact(pitch).map(|row| lanes::<NR>(&row[j0..]));
        let acc = tile(acc, lhs.zip(upstream));
        for (k, row) in (k0..len).zip(&acc) {
            dwt[k * cout + j0..][..nr].copy_from_slice(&row[..nr]);
        }
    }

    /// Adds to the frame what window elements `k0 .. k0 + MR` of the patches
    /// at `(oy, ox0 ..)` pass back: each tile row is `Σ_oc dy · w` for one
    /// window element, finished before it is added under that element.
    ///
    /// `group` holds those window elements' weights filter by filter (see
    /// [`row_groups`]).
    fn input_grad(&mut self, planes: &[f32], group: &[f32], (oy, ox0): (usize, usize), k0: usize) {
        let (out_h, out_w, stride) = (self.geo.out_h, self.geo.out_w, self.geo.stride);
        let nr = NR.min(out_w - ox0);
        let weights = group
            .chunks_exact(MR)
            .map(|w| -> [f32; MR] { w.try_into().expect("a group is MR wide") });
        let zero = [[0.0f32; NR]; MR];
        let runs = (planes.chunks_exact(out_h * out_w)).map(|map| &map[oy * out_w + ox0..]);
        let acc = if nr == NR {
            tile(zero, weights.zip(runs.map(lanes)))
        } else {
            tile(zero, weights.zip(runs.map(|run| ragged_lanes(&run[..nr]))))
        };
        // Descending, like the caller's groups: see `conv2d_input_grad`.
        let corner = self.corner(oy, ox0);
        for (k, row) in (k0..self.offsets.len()).zip(&acc).rev() {
            let first = corner + self.offsets[k];
            if stride == 1 {
                for (o, &v) in self.data[first..][..nr].iter_mut().zip(row) {
                    *o += v;
                }
            } else {
                let dst = self.data[first..].iter_mut().step_by(stride);
                for (o, &v) in dst.zip(&row[..nr]) {
                    *o += v;
                }
            }
        }
    }
}

/// `run`, shorter than a tile is wide, padded with zeros.
#[inline(always)]
fn ragged_lanes(run: &[f32]) -> [f32; NR] {
    let mut padded = [0.0f32; NR];
    padded[..run.len()].copy_from_slice(run);
    padded
}

/// Lanes of one vector of a position-major row: the register tile's
/// width.
pub const LANES: usize = NR;

/// Floats per row of a position-major map of `channels` channels: whole
/// vectors of [`LANES`].
pub fn lane_pitch(channels: usize) -> usize {
    channels.div_ceil(LANES) * LANES
}

/// The convolution of `(N, C, H, W)` images with a `(Cout, C*k*k)` weight
/// matrix and `(Cout,)` bias, without the patch matrix, stored
/// position-major: `(N·OH·OW, lane_pitch(Cout))`, row
/// `n·OH·OW + oy·OW + ox` holding every channel of that output position —
/// `im2col(x).matmul_nt(weight) + bias` to the bit, each row padded. The
/// padding lanes hold the last channel again; a reader drops them.
///
/// `out[(n, oy, ox), oc]` is the sum over window elements `(c, ky, kx)`
/// ascending from `0.0` of `x · w` — one rounded multiply and one rounded
/// add per term, a padding position multiplied as the zero it is — plus
/// `bias[oc]`.
///
/// # Panics
///
/// Panics as [`Conv2dGeometry::output_dims`] does.
pub fn conv2d_rows(x: &Tensor, weight: &Tensor, bias: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let [n, cout, oh, ow] = geo.output_dims(x, weight, bias);
    let pitch = lane_pitch(cout);
    let per_image = oh * ow * pitch;
    let mut out = vec![0.0f32; n * per_image];
    let mut frame = Frame::new(geo, 1);
    let groups = row_groups(weight.data(), geo.patch_len());
    for (b, img) in x.data().chunks_exact(geo.image_len()).enumerate() {
        frame.load(img);
        let block = &mut out[b * per_image..][..per_image];
        for (g, group) in groups.chunks_exact(geo.patch_len() * NR).enumerate() {
            let lanes = std::array::from_fn(|l| bias.data()[(g * NR + l).min(cout - 1)]);
            frame.forward(group, lanes, g * NR, pitch, block);
        }
    }
    Tensor::from_vec(out, &[n * oh * ow, pitch])
}

/// The rows of the row-major matrix `m`, `len` wide, as groups of `MR`
/// (= `NR`) rows, each group one `(len, MR)` block: a tile's operand
/// packed as the GEMM packs a transposed panel, so that the `MR` values of
/// one term are one slice. A ragged last group repeats its last row. The
/// forward kernel groups the filters (rows of the weight; a tile's lanes),
/// the input gradient the window elements (rows of its transpose; a tile's
/// rows).
fn row_groups(m: &[f32], len: usize) -> Vec<f32> {
    let rows = m.len() / len;
    let mut groups = vec![0.0f32; rows.div_ceil(MR) * MR * len];
    for (g, group) in groups.chunks_exact_mut(len * MR).enumerate() {
        for (kk, values) in group.chunks_exact_mut(MR).enumerate() {
            for (r, v) in values.iter_mut().enumerate() {
                *v = m[(g * MR + r).min(rows - 1) * len + kk];
            }
        }
    }
    groups
}

/// `(N, C, H, W)` planes, `dims`, as position-major rows
/// `(N·H·W, pitch)`: row `n·H·W + p` holds channel `c` of position `p` of
/// image `n` at `c`, and zeros from `C` to `pitch`.
///
/// # Panics
///
/// Panics if `x` is not `dims.iter().product()` long or `pitch < C`.
pub fn planes_to_rows(x: &Tensor, [n, c, h, w]: [usize; 4], pitch: usize) -> Tensor {
    assert_eq!(x.len(), n * c * h * w, "planes_to_rows length");
    assert!(pitch >= c, "rows of {pitch} cannot hold {c} channels");
    let hw = h * w;
    let mut out = vec![0.0f32; n * hw * pitch];
    if c * hw > 0 {
        for (img, block) in x
            .data()
            .chunks_exact(c * hw)
            .zip(out.chunks_exact_mut(hw * pitch))
        {
            for (ch, plane) in img.chunks_exact(hw).enumerate() {
                for (o, &v) in block[ch..].iter_mut().step_by(pitch).zip(plane) {
                    *o = v;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n * hw, pitch])
}

/// Position-major rows `(N·H·W, pitch)` as the `(N, C, H, W)` planes
/// `dims`: the inverse (and adjoint) of [`planes_to_rows`]; lanes past `C`
/// are dropped.
///
/// # Panics
///
/// Panics if `rows` is not `(N·H·W, pitch)` with `pitch >= C`.
pub fn rows_to_planes(rows: &Tensor, [n, c, h, w]: [usize; 4]) -> Tensor {
    let hw = h * w;
    let pitch = rows.dims().get(1).copied().unwrap_or(0);
    assert!(
        rows.dims() == [n * hw, pitch] && pitch >= c,
        "rows_to_planes: rows {} are not ({}, >= {c})",
        rows.shape(),
        n * hw
    );
    let mut out = vec![0.0f32; n * c * hw];
    if c * hw > 0 {
        for (block, img) in rows
            .data()
            .chunks_exact(hw * pitch)
            .zip(out.chunks_exact_mut(c * hw))
        {
            for (ch, plane) in img.chunks_exact_mut(hw).enumerate() {
                for (o, &v) in plane.iter_mut().zip(block[ch..].iter().step_by(pitch)) {
                    *o = v;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

/// The gradients of [`conv2d_rows`] with respect to its weight,
/// `(Cout, C*k*k)`, and its bias, `(Cout,)`, from the input and the
/// position-major upstream `rows`, `(N·OH·OW, lane_pitch(cout))`, whose
/// lanes past `cout` are never read into a result, in one pass over both.
///
/// `dW[oc, (c, ky, kx)]` is the sum over patches `(n, oy, ox)` ascending
/// from `0.0` of `dy · x`, padding positions included as zeros, and
/// `db[oc]` the sum over `(n, oy, ox)` ascending from `0.0` of `dy`: the
/// bits of `rows.matmul_tn(im2col(x))` and `rows.sum_rows()`. The images
/// go through a group at a time, padded into one working copy; a tile's
/// lanes are a slice of an upstream row, the bias sums run across channels
/// a vector at a time, and a group holds enough images that a tile takes
/// about `KC` terms between a load and a store of its accumulators, as the
/// GEMM's does.
///
/// # Panics
///
/// Panics if `x` is not a whole number of images or `rows` is not
/// `(N·OH·OW, lane_pitch(cout))`.
pub fn conv2d_weight_grad(
    x: &Tensor,
    rows: &Tensor,
    cout: usize,
    geo: &Conv2dGeometry,
) -> (Tensor, Tensor) {
    let n = geo.batch("conv2d_weight_grad", x);
    let (len, positions, pitch) = (geo.patch_len(), geo.rows(1), lane_pitch(cout));
    assert_eq!(
        rows.dims(),
        [n * positions, pitch],
        "conv2d_weight_grad: upstream rows {} are not (N*OH*OW, lane_pitch(Cout))",
        rows.shape()
    );
    let images = KC.div_ceil(positions).clamp(1, n.max(1));
    let mut frame = Frame::new(geo, images);
    let corners = frame.corners();
    let mut dwt = vec![0.0f32; len * cout];
    let mut db = vec![[0.0f32; NR]; pitch / NR];
    for (imgs, maps) in x
        .data()
        .chunks(images * geo.image_len())
        .zip(rows.data().chunks((images * positions * pitch).max(1)))
    {
        frame.load(imgs);
        for row in maps.chunks_exact(pitch) {
            for (sums, v) in db.iter_mut().zip(row.chunks_exact(NR)) {
                *sums = std::array::from_fn(|l| sums[l] + v[l]);
            }
        }
        // Between groups a tile rests in `dwt`, which is exact, so its sum
        // runs over every patch of the batch without a break.
        let patches = &corners[..maps.len() / pitch];
        for k0 in (0..len).step_by(MR) {
            for j0 in (0..cout).step_by(NR) {
                frame.weight_grad(patches, (maps, pitch), (k0, j0, cout), &mut dwt);
            }
        }
    }
    let dw = Tensor::from_vec(dwt, &[len, cout]).transpose2();
    let db = db.into_iter().flatten().take(cout).collect();
    (dw, Tensor::from_vec(db, &[cout]))
}

/// The gradient of [`conv2d_rows`] with respect to its input, `(N, C, H, W)`,
/// from the `(N, Cout, OH, OW)` upstream and the weight, without the patch
/// matrix: `col2im(nchw_to_rows(dy).matmul(weight))` to the bit.
///
/// `dx[n, c, iy, ix]` is the sum, from `0.0`, over the patches `(oy, ox)`
/// that cover the pixel in ascending order of `Σ_oc dy · w` — that inner
/// sum over `oc` ascending from `0.0` and finished before it is added. A
/// window element that falls in the padding adds to no pixel.
///
/// # Panics
///
/// Panics if `weight` is not `(Cout, C*k*k)` or `dy` is not a whole number
/// of `Cout x OH x OW` maps.
pub fn conv2d_input_grad(dy: &Tensor, weight: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let (len, per_image) = (geo.patch_len(), geo.image_len());
    assert!(
        weight.shape().rank() == 2 && weight.dims()[1] == len && per_image > 0,
        "conv2d_input_grad: weight {} is not (Cout, {len})",
        weight.shape()
    );
    let per_map = weight.dims()[0] * geo.rows(1);
    assert!(
        per_map > 0 && dy.len().is_multiple_of(per_map),
        "conv2d_input_grad: upstream {} is not a whole number of {}x{}x{} maps",
        dy.shape(),
        weight.dims()[0],
        geo.out_h,
        geo.out_w
    );
    let n = dy.len() / per_map;
    let mut dx = vec![0.0f32; n * per_image];
    let mut frame = Frame::new(geo, 1);
    let cout = weight.dims()[0];
    let groups = row_groups(weight.transpose2().data(), cout);
    for (planes, img) in dy
        .data()
        .chunks_exact(per_map)
        .zip(dx.chunks_exact_mut(per_image))
    {
        frame.data.fill(0.0);
        // A pixel takes its patches in ascending `(oy, ox)`: rows in order,
        // chunks in order and, inside a chunk, `ox` ascending — which under
        // one pixel is window elements descending.
        for oy in 0..geo.out_h {
            for ox0 in (0..geo.out_w).step_by(NR) {
                for (g, group) in groups.chunks_exact(cout * MR).enumerate().rev() {
                    frame.input_grad(planes, group, (oy, ox0), g * MR);
                }
            }
        }
        frame.store(img);
    }
    Tensor::from_vec(dx, &[n, geo.in_channels, geo.in_h, geo.in_w])
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
        for (window, o) in orow.iter_mut().enumerate() {
            let mut acc = 0.0;
            for ky in 0..k {
                for v in &band[ky * w + window * k..][..k] {
                    acc += v;
                }
            }
            *o = acc * inv;
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
    if k > 0 {
        let inv = 1.0 / (k * k) as f32;
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
    #[should_panic(expected = "kernel must be positive")]
    fn geometry_rejects_an_empty_window() {
        let _ = Conv2dGeometry::new(1, 4, 4, 0, 1, 0);
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
