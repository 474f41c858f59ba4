//! Private kernels used by the tape ops: spatial/channel reductions with
//! their adjoint broadcasts, the ReLU adjoint a first-order or inference
//! tape records in place of a chain, and the tail of a ConvNet block —
//! instance norm · ReLU · average pool — that those tapes fuse into the
//! block's one node.
//!
//! The tail runs on its pre-norm map position-major (`qd_tensor::conv2d_rows`
//! writes it so): row `n·H·W + p` holds every channel of position `p` of
//! image `n`, padded to `lane_pitch(C)`, so each per-plane reduction runs
//! `LANES` planes per vector. A fused kernel's contract is the chain's:
//! per output element and per reduction, the same rounded operations in
//! the same order (a plane sum is `iter().sum()` in position order, a
//! channel sum adds plane sums in batch order, a product feeding a sum is
//! rounded before it is added, a pool window is summed in `(ky, kx)` order
//! from `0.0`), so the two representations are `to_bits`-equal. The
//! padding lanes compute junk that no result reads. The norm's and the
//! ReLU's outputs are never stored.

use qd_tensor::{lane_pitch, Tensor, LANES};

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
    assert_eq!(x.len() % (c * h * w), 0, "spatial_sum length");
    let sums = x.data().chunks_exact(h * w).map(|plane| plane.iter().sum());
    Tensor::from_vec(sums.collect(), &[x.len() / (h * w)])
}

/// Replicates a per-plane vector `(N*C,)` over the spatial extent:
/// adjoint of [`spatial_sum`].
pub(crate) fn spatial_broadcast(v: &Tensor, c: usize, h: usize, w: usize) -> Tensor {
    assert_eq!(v.len() % c, 0, "spatial_broadcast channel mismatch");
    let mut out = vec![0.0f32; v.len() * h * w];
    for (plane, &val) in out.chunks_exact_mut(h * w).zip(v.data()) {
        plane.fill(val);
    }
    Tensor::from_vec(out, &[v.len() / c, c, h, w])
}

/// Sums an `(N, C, H, W)` tensor over batch and spatial axes: `-> (C,)`,
/// each channel's plane sums added in batch order.
pub(crate) fn channel_sum(x: &Tensor, c: usize, h: usize, w: usize) -> Tensor {
    assert_eq!(x.len() % (c * h * w), 0, "channel_sum length");
    let mut out = vec![0.0f32; c];
    for image in x.data().chunks_exact(c * h * w) {
        for (o, plane) in out.iter_mut().zip(image.chunks_exact(h * w)) {
            *o += plane.iter().sum::<f32>();
        }
    }
    Tensor::from_vec(out, &[c])
}

/// Replicates a per-channel vector `(C,)` over batch and spatial axes:
/// adjoint of [`channel_sum`].
pub(crate) fn channel_broadcast(v: &Tensor, n: usize, h: usize, w: usize) -> Tensor {
    let mut out = vec![0.0f32; n * v.len() * h * w];
    for (plane, &val) in out.chunks_exact_mut(h * w).zip(v.data().iter().cycle()) {
        plane.fill(val);
    }
    Tensor::from_vec(out, &[n, v.len(), h, w])
}

/// `u · 1[x > 0]`, the adjoint of `relu(x)`: a multiply by the 0/1 mask,
/// not a select, so `-0.0` and NaN upstreams come out as they do from
/// `mul(u, relu_mask(x))`.
pub(crate) fn relu_vjp(u: &Tensor, x: &Tensor) -> Tensor {
    u.zip_map(x, |u, x| u * if x > 0.0 { 1.0 } else { 0.0 })
}

/// The window and stride of a ConvNet block's average pool.
pub(crate) const POOL: usize = 2;

/// The pool's scale, `avg_pool2d`'s `1 / (k·k)`.
const POOL_SCALE: f32 = 1.0 / (POOL * POOL) as f32;

/// `Tape::neg` is `scale(-1.0)` — a multiply, not a sign flip — and the
/// fused backward pass negates the way the chain's rules do.
const MINUS_ONE: f32 = -1.0;

/// One vector of a position-major row: `LANES` planes.
type Lanes = [f32; LANES];

/// `f` lane by lane: a loop the compiler unrolls into vector operations
/// (inside the kernels below it does not inline `array::from_fn`'s
/// machinery, and each call would be eight scalar operations).
#[inline(always)]
fn each(f: impl Fn(usize) -> f32) -> Lanes {
    let mut out = [0.0; LANES];
    for (l, o) in out.iter_mut().enumerate() {
        *o = f(l);
    }
    out
}

/// The vector at the start of `run`.
#[inline(always)]
fn vector(run: &[f32]) -> Lanes {
    run[..LANES].try_into().expect("a run is a whole vector")
}

/// Where each lane of a plane sum starts: what `Iterator::sum` starts an
/// `f32` sum from, so that a lane adding its plane's terms in position
/// order is the chain's `iter().sum()` to the bit, signed zeros included.
fn empty_sum() -> Lanes {
    [std::iter::empty::<f32>().sum(); LANES]
}

/// The `(N, C, H, W)` a block tail's pre-norm map stands for. The tail
/// works a *column* at a time: vector `k` of every row of one image,
/// position after position — `LANES` planes, whose sums are chains of
/// dependent adds in position order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planes {
    dims: [usize; 4],
}

impl Planes {
    /// # Panics
    ///
    /// Panics unless `dims` is `(N, C, H, W)` with planes the
    /// `POOL × POOL` pool tiles exactly.
    pub fn new(dims: &[usize]) -> Self {
        let &[n, c, h, w] = dims else {
            panic!("instance norm expects (N, C, H, W), got {dims:?}");
        };
        assert!(h * w > 0, "instance norm over an empty plane");
        assert!(
            h.is_multiple_of(POOL) && w.is_multiple_of(POOL),
            "pooling {h}x{w} by {POOL}"
        );
        Planes { dims: [n, c, h, w] }
    }

    /// Floats per row of the position-major map.
    fn pitch(&self) -> usize {
        lane_pitch(self.dims[1])
    }

    /// Per-channel `v` as vectors of lanes, its last channel repeated into
    /// the padding.
    fn lanes_of(&self, v: &Tensor) -> Vec<Lanes> {
        let c = self.dims[1];
        assert_eq!(v.dims(), [c], "instance norm parameters are per channel");
        let lane = |i: usize| v.data()[i.min(c - 1)];
        (0..self.pitch() / LANES)
            .map(|k| each(|l| lane(k * LANES + l)))
            .collect()
    }

    /// Each column of `map` as `(image, k, its vectors)`, image by image.
    fn columns<'a>(&self, map: &'a [f32]) -> impl Iterator<Item = (usize, usize, Column<'a>)> {
        let (pitch, image) = (self.pitch(), self.dims[2] * self.dims[3] * self.pitch());
        let images = map.chunks_exact(image.max(1)).enumerate();
        images.flat_map(move |(i, rows)| {
            (0..pitch / LANES).map(move |k| (i, k, Column { rows, k, pitch }))
        })
    }
}

/// Vector `k` of each `pitch`-wide row of `image`, to write.
fn column_mut(image: &mut [f32], pitch: usize, k: usize) -> impl Iterator<Item = &mut [f32]> {
    image
        .chunks_exact_mut(pitch)
        .map(move |row| &mut row[k * LANES..][..LANES])
}

/// Vector `k` of each of one image's rows.
#[derive(Clone, Copy)]
struct Column<'a> {
    rows: &'a [f32],
    k: usize,
    pitch: usize,
}

impl<'a> Column<'a> {
    /// The vector at position `p`.
    #[inline(always)]
    fn at(self, p: usize) -> Lanes {
        vector(&self.rows[p * self.pitch + self.k * LANES..])
    }

    /// Its vectors in position order.
    fn iter(self) -> impl Iterator<Item = Lanes> + 'a {
        self.rows
            .chunks_exact(self.pitch)
            .map(move |row| vector(&row[self.k * LANES..]))
    }
}

/// `(Σ_p x) / hw` and `sqrt((Σ_p (x − mean)²) / hw + eps)` down a column:
/// the chain's `spatial_sum · 1/hw`, `sub`, `mul`, `spatial_sum · 1/hw`,
/// `+ eps`, `sqrt`.
fn moments(col: Column<'_>, inv_hw: f32, eps: f32) -> [Lanes; 2] {
    let sum = col.iter().fold(empty_sum(), |s, x| each(|l| s[l] + x[l]));
    let mean = each(|l| sum[l] * inv_hw);
    let squares = col.iter().fold(empty_sum(), |s, x| {
        each(|l| s[l] + (x[l] - mean[l]) * (x[l] - mean[l]))
    });
    [mean, each(|l| (squares[l] * inv_hw + eps).sqrt())]
}

/// A ConvNet block's tail on its position-major pre-norm map `map`,
/// `(N·H·W, lane_pitch(C))`, standing for the `(N, C, H, W)` of `planes`:
/// each `(n, c)` plane normalised by its own mean and variance,
/// `· γ[c] + β[c]`, rectified, and averaged over non-overlapping
/// `POOL × POOL` windows into `(N, C, H/POOL, W/POOL)` planes — after the
/// moments, the chain's `1 / std`, `mul`, `mul γ`, `add β`, `relu` and
/// the pool's window sum from `0.0`, `· ¼`.
///
/// Returns the pooled map and the `(2, N·pitch)` statistics the backward
/// kernel needs: every plane's mean, then its standard deviation.
pub(crate) fn norm_relu_pool(
    map: &Tensor,
    planes: Planes,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, Tensor) {
    let [n, c, h, w] = planes.dims;
    let (hw, pitch, pooled) = (h * w, planes.pitch(), h * w / (POOL * POOL));
    assert_eq!(map.dims(), [n * hw, pitch], "instance norm map shape");
    let (g, b) = (planes.lanes_of(gamma), planes.lanes_of(beta));
    let mut out = vec![0.0f32; n * c * pooled];
    let mut stats = vec![0.0f32; 2 * n * pitch];
    let mut windows = vec![[0.0f32; LANES]; pooled];
    // Each window's first position, in pooled order.
    let rows = (0..h).step_by(POOL).map(|y| y * w);
    let corners: Vec<usize> = rows.flat_map(|row| (row..row + w).step_by(POOL)).collect();
    for (i, k, column) in planes.columns(map.data()) {
        let [mean, std] = moments(column, 1.0 / hw as f32, eps);
        let (inv, g, b) = (each(|l| 1.0 / std[l]), g[k], b[k]);
        for (window, &corner) in windows.iter_mut().zip(&corners) {
            let mut acc = [0.0f32; LANES];
            // The window's positions in `(ky, kx)` order.
            for at in [0, 1, w, w + 1].map(|d| corner + d) {
                let x = column.at(at);
                acc = each(|l| acc[l] + (((x[l] - mean[l]) * inv[l]) * g[l] + b[l]).max(0.0));
            }
            *window = each(|l| acc[l] * POOL_SCALE);
        }
        let (image, lanes) = (
            &mut out[(i * c + k * LANES) * pooled..],
            0..LANES.min(c - k * LANES),
        );
        for (plane, l) in image.chunks_exact_mut(pooled).zip(lanes) {
            plane.iter_mut().zip(&windows).for_each(|(o, s)| *o = s[l]);
        }
        let at = i * pitch + k * LANES;
        stats[at..][..LANES].copy_from_slice(&mean);
        stats[n * pitch + at..][..LANES].copy_from_slice(&std);
    }
    (
        Tensor::from_vec(out, &[n, c, h / POOL, w / POOL]),
        Tensor::from_vec(stats, &[2, n * pitch]),
    )
}

/// The adjoints [`norm_relu_pool_vjp`] computes, one per input that needs
/// a gradient.
pub(crate) struct NormReluPoolGrads {
    /// The pre-norm map's adjoint, position-major: its adjoint through the
    /// centring subtraction, the mean term added.
    pub dx: Option<Tensor>,
    pub dgamma: Option<Tensor>,
    pub dbeta: Option<Tensor>,
}

/// The first-order backward pass of [`norm_relu_pool`] for the pooled
/// map's upstream `up`: what the chain's rules compute, plane by plane, in
/// two passes down each column.
///
/// Pass one forms the upstream at the norm's output, `u = (up·¼)·1[y > 0]`
/// (the pool's and the ReLU's rules, the mask recomputed from the
/// statistics), and takes `dβ = Σ u`, `dγ = Σ u·(c·inv)` and
/// `d_inv = Σ (u·γ)·c` at once, with `c = x − mean` and `inv = 1/std`
/// (plane sums added into `dγ`/`dβ` in batch order). Pass two forms
/// `d_centered = ((u·γ)·inv + a·c) + a·c` with
/// `a = (((d_inv·(inv/std))·−1)·½ / std) / hw` and takes `Σ −d_centered`;
/// `dx = d_centered + (Σ −d_centered) / hw`, that last term added in
/// place — the chain's result, since the map's slot is empty when the
/// chain adds `d_centered` into it first and the mean term second (the
/// block's convolution is the map's one consumer).
pub(crate) fn norm_relu_pool_vjp(
    map: &Tensor,
    planes: Planes,
    [gamma, beta, stats, up]: [&Tensor; 4],
    [need_x, need_gamma, need_beta]: [bool; 3],
) -> NormReluPoolGrads {
    let [n, c, h, w] = planes.dims;
    let (hw, pitch, pooled) = (h * w, planes.pitch(), h * w / (POOL * POOL));
    let up_dims = [n, c, h / POOL, w / POOL];
    assert_eq!(up.dims(), up_dims, "instance norm upstream shape");
    let (g, b) = (planes.lanes_of(gamma), planes.lanes_of(beta));
    let inv_hw = 1.0 / hw as f32;
    let mut dx = vec![0.0f32; n * hw * pitch];
    let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
    // The column's upstream, spread by the pool's rule: `up · ¼`.
    let mut spread = vec![[0.0f32; LANES]; pooled];
    // The pooled position each position falls in, in position order.
    let window_of: Vec<usize> = (0..h * w)
        .map(|p| p / w / POOL * (w / POOL) + p % w / POOL)
        .collect();
    for (i, k, column) in planes.columns(map.data()) {
        let channels = k * LANES..c.min((k + 1) * LANES);
        let ups = &up.data()[(i * c + channels.start) * pooled..];
        for (plane, l) in ups.chunks_exact(pooled).zip(0..channels.len()) {
            for (s, u) in spread.iter_mut().zip(plane) {
                s[l] = u * POOL_SCALE;
            }
        }
        let at = i * pitch + k * LANES;
        let mean = vector(&stats.data()[at..]);
        let std = vector(&stats.data()[n * pitch + at..]);
        let (inv, g, b) = (each(|l| 1.0 / std[l]), g[k], b[k]);
        let image = &mut dx[i * hw * pitch..][..hw * pitch];
        let [mut sum_u, mut sum_scaled, mut d_inv] = [empty_sum(); 3];
        let positions = column.iter().zip(column_mut(image, pitch, k));
        for ((x, d), &q) in positions.zip(&window_of) {
            let centered = each(|l| x[l] - mean[l]);
            let up = spread[q];
            let u = each(|l| {
                let y = (centered[l] * inv[l]) * g[l] + b[l];
                up[l] * if y > 0.0 { 1.0 } else { 0.0 }
            });
            d.copy_from_slice(&u);
            sum_u = each(|l| sum_u[l] + u[l]);
            sum_scaled = each(|l| sum_scaled[l] + u[l] * (centered[l] * inv[l]));
            d_inv = each(|l| d_inv[l] + (u[l] * g[l]) * centered[l]);
        }
        for (ch, l) in channels.zip(0..) {
            dbeta[ch] += sum_u[l];
            dgamma[ch] += sum_scaled[l];
        }
        if !need_x {
            continue;
        }
        let a = each(|l| ((((d_inv[l] * (inv[l] / std[l])) * MINUS_ONE) * 0.5) / std[l]) * inv_hw);
        let mut negated = empty_sum();
        for (x, d) in column.iter().zip(column_mut(image, pitch, k)) {
            let d_centered = each(|l| {
                let ad = a[l] * (x[l] - mean[l]);
                ((d[l] * g[l]) * inv[l] + ad) + ad
            });
            d.copy_from_slice(&d_centered);
            negated = each(|l| negated[l] + d_centered[l] * MINUS_ONE);
        }
        let shift = each(|l| negated[l] * inv_hw);
        for d in column_mut(image, pitch, k) {
            d.iter_mut().zip(shift).for_each(|(d, s)| *d += s);
        }
    }
    let per_channel = |v: Vec<f32>| Tensor::from_vec(v, &[c]);
    NormReluPoolGrads {
        dx: need_x.then(|| Tensor::from_vec(dx, &[n * hw, pitch])),
        dgamma: need_gamma.then(|| per_channel(dgamma)),
        dbeta: need_beta.then(|| per_channel(dbeta)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_tensor::rng::Rng;

    /// The chain's permutes, `qd_tensor`'s row copies at a pitch of `c`.
    fn rows_to_nchw(rows: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
        qd_tensor::rows_to_planes(rows, [n, c, oh, ow])
    }

    fn nchw_to_rows(x: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
        qd_tensor::planes_to_rows(x, [n, c, oh, ow], c)
    }

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
