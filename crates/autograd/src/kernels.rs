//! Private kernels used by the tape ops: NCHW permutes and
//! spatial/channel reductions with their adjoint broadcasts, and the fused
//! instance norm · ReLU · average pool of a ConvNet block and the ReLU
//! adjoint a first-order or inference tape records in place of chains of
//! them (its convolution is `qd_tensor::conv2d` and that kernel's
//! gradients).
//!
//! A fused kernel's contract is the chain's: per output element and per
//! reduction, the same rounded operations in the same order (a plane sum
//! is `iter().sum()` in element order, a channel sum adds plane sums in
//! batch order, a product feeding a sum is rounded before it is added, a
//! pool window is `qd_tensor`'s own loop), so the two representations are
//! `to_bits`-equal. What a fused kernel keeps is its own business: the
//! norm's and the ReLU's outputs and their adjoints exist one group of
//! planes at a time, in scratch.

use qd_tensor::{avg_pool_planes, avg_unpool_planes, Tensor};

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

/// `u · 1[x > 0]`, the adjoint of `relu(x)`: a multiply by the 0/1 mask,
/// not a select, so `-0.0` and NaN upstreams come out as they do from
/// `mul(u, relu_mask(x))`.
pub(crate) fn relu_vjp(u: &Tensor, x: &Tensor) -> Tensor {
    u.zip_map(x, |u, x| u * if x > 0.0 { 1.0 } else { 0.0 })
}

/// The window and stride of a ConvNet block's average pool.
pub(crate) const POOL: usize = 2;

/// `[n, c, h, w]` of an `(N, C, H, W)` tensor, whose planes the
/// `POOL × POOL` pool must tile exactly.
fn planes_of(x: &Tensor) -> [usize; 4] {
    let &[n, c, h, w] = x.dims() else {
        panic!("instance norm expects (N, C, H, W), got {}", x.shape());
    };
    assert!(h * w > 0, "instance norm over an empty plane");
    assert!(
        h.is_multiple_of(POOL) && w.is_multiple_of(POOL),
        "pooling {h}x{w} by {POOL}"
    );
    [n, c, h, w]
}

/// `Tape::neg` is `scale(-1.0)` — a multiply, not a sign flip — and the
/// fused backward pass negates the way the chain's rules do.
const MINUS_ONE: f32 = -1.0;

/// Planes reduced side by side. A plane sum is one chain of dependent
/// adds — its order is the contract — so the only parallelism a reduction
/// has is several planes' chains in flight at once.
const LANES: usize = 4;

/// Runs `group(first_plane, LANES)` over as many whole groups of planes
/// as there are, then `group(plane, 1)` over the rest.
fn for_plane_groups(planes: usize, mut group: impl FnMut(usize, usize)) {
    let wide = planes - planes % LANES;
    (0..wide).step_by(LANES).for_each(|p| group(p, LANES));
    (wide..planes).for_each(|p| group(p, 1));
}

/// The `N` consecutive `hw`-element planes at the start of `data`.
fn lanes<const N: usize>(data: &[f32], hw: usize) -> [&[f32]; N] {
    std::array::from_fn(|lane| &data[lane * hw..][..hw])
}

/// `Σ_i term(lane, i)` over `0..hw` for `N` planes at once: each lane adds
/// its terms in element order to what `Iterator::sum` starts an `f32` sum
/// from, so a lane is `iter().sum()` to the bit, signed zeros included.
#[inline(always)]
fn lane_sums<const N: usize>(hw: usize, term: impl Fn(usize, usize) -> f32) -> [f32; N] {
    let mut sums = [std::iter::empty::<f32>().sum(); N];
    for i in 0..hw {
        for (lane, sum) in sums.iter_mut().enumerate() {
            *sum += term(lane, i);
        }
    }
    sums
}

/// A ConvNet block's tail: each `(n, c)` plane of `x` normalised by its
/// own mean and variance, `· γ[c] + β[c]`, rectified, and averaged over
/// non-overlapping `POOL × POOL` windows, `(N, C, H/POOL, W/POOL)`. The
/// norm's ReLU output lives only in a scratch of one group of planes, from
/// which `qd_tensor`'s pooling loop writes the pooled planes.
///
/// Returns the pooled map and the `(2, N*C)` statistics the backward
/// kernel needs: every plane's mean, then every plane's standard deviation
/// `sqrt(var + eps)`.
pub(crate) fn norm_relu_pool(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, Tensor) {
    let [n, c, h, w] = planes_of(x);
    let (hw, pooled) = (h * w, h * w / (POOL * POOL));
    assert_eq!(gamma.dims(), &[c], "instance norm scale is per channel");
    assert_eq!(beta.dims(), &[c], "instance norm shift is per channel");
    let mut out = vec![0.0f32; n * c * pooled];
    let mut stats = vec![0.0f32; 2 * n * c];
    let mut active = vec![0.0f32; LANES * hw];
    let mut forward = NormForward {
        x: x.data(),
        gamma: gamma.data(),
        beta: beta.data(),
        eps,
        hw,
        stats: &mut stats,
    };
    for_plane_groups(n * c, |p, width| {
        let planes = &mut active[..width * hw];
        match width {
            LANES => forward.group::<LANES>(p, planes),
            _ => forward.group::<1>(p, planes),
        }
        avg_pool_planes(planes, w, POOL, &mut out[p * pooled..][..width * pooled]);
    });
    (
        Tensor::from_vec(out, &[n, c, h / POOL, w / POOL]),
        Tensor::from_vec(stats, &[2, n * c]),
    )
}

struct NormForward<'a> {
    x: &'a [f32],
    gamma: &'a [f32],
    beta: &'a [f32],
    eps: f32,
    hw: usize,
    stats: &'a mut [f32],
}

impl NormForward<'_> {
    /// Planes `p .. p + N` into `out`: mean, centre, variance, scale,
    /// rectify — the chain's `spatial_sum · 1/hw`, `sub`, `mul`,
    /// `spatial_sum · 1/hw`, `+ eps`, `sqrt`, `1 / std`, `mul`, `mul γ`,
    /// `add β`, `relu`.
    fn group<const N: usize>(&mut self, p: usize, out: &mut [f32]) {
        let (hw, c, planes) = (self.hw, self.gamma.len(), self.stats.len() / 2);
        let inv_hw = 1.0 / hw as f32;
        let x = lanes::<N>(&self.x[p * hw..], hw);
        let mean = lane_sums::<N>(hw, |lane, i| x[lane][i]).map(|s| s * inv_hw);
        for (lane, os) in out.chunks_exact_mut(hw).enumerate() {
            for (o, &v) in os.iter_mut().zip(x[lane]) {
                *o = v - mean[lane];
            }
        }
        let centered = lanes::<N>(out, hw);
        let std = lane_sums::<N>(hw, |lane, i| centered[lane][i] * centered[lane][i])
            .map(|s| (s * inv_hw + self.eps).sqrt());
        for (lane, os) in out.chunks_exact_mut(hw).enumerate() {
            let inv = 1.0 / std[lane];
            let (g, b) = (self.gamma[(p + lane) % c], self.beta[(p + lane) % c]);
            for o in os {
                *o = ((*o * inv) * g + b).max(0.0);
            }
            self.stats[p + lane] = mean[lane];
            self.stats[planes + p + lane] = std[lane];
        }
    }
}

/// The adjoints [`norm_relu_pool_vjp`] computes, one per input that needs
/// a gradient.
pub(crate) struct NormReluPoolGrads {
    /// The adjoint of the centred input, which is `x`'s through the
    /// subtraction — with `via_mean` already added when the caller asked
    /// for them folded.
    pub dx: Option<Tensor>,
    /// `x`'s second contribution, through the plane means, when it was
    /// asked for on its own.
    pub via_mean: Option<Tensor>,
    pub dgamma: Option<Tensor>,
    pub dbeta: Option<Tensor>,
}

/// The first-order backward pass of [`norm_relu_pool`] for the pooled
/// map's upstream `up`: what the chain's rules compute, plane by plane.
///
/// The upstream `u` at the norm's output is formed one group of planes at
/// a time: `up` spread by `qd_tensor`'s unpooling loop (`avg_pool2d`'s
/// rule), times the 0/1 mask of the norm's output `((c·inv)·γ) + β`
/// recomputed from the statistics (`relu`'s rule). Then, with
/// `c = x − mean`, `inv = 1/std` and `v = u·γ`:
/// `dβ = Σ u`, `dγ = Σ u·(c·inv)` (plane sums added in batch order),
/// `d_inv = Σ v·c`, `a = (((d_inv·(inv/std))·−1)·½ / std) / hw`,
/// `d_centered = ((v·inv) + a·c) + a·c` and
/// `dx = d_centered + (Σ −d_centered) / hw`. `fold` adds that last term in
/// place — the chain's result when `x`'s adjoint slot is empty, since it
/// adds `d_centered` into the slot first and the mean term second.
pub(crate) fn norm_relu_pool_vjp(
    [x, gamma, beta]: [&Tensor; 3],
    stats: &Tensor,
    up: &Tensor,
    [need_x, need_gamma, need_beta]: [bool; 3],
    fold: bool,
) -> NormReluPoolGrads {
    let [n, c, h, w] = planes_of(x);
    assert_eq!(
        up.dims(),
        [n, c, h / POOL, w / POOL],
        "instance norm upstream shape"
    );
    let hw = h * w;
    let mut backward = NormBackward {
        x: x.data(),
        up: up.data(),
        gamma: gamma.data(),
        beta: beta.data(),
        stats: stats.data(),
        hw,
        w,
        centered: vec![0.0f32; LANES * hw],
        unpooled: vec![0.0f32; LANES * hw],
        dx: need_x.then(|| vec![0.0f32; x.len()]),
        via_mean: (need_x && !fold).then(|| vec![0.0f32; x.len()]),
        dgamma: need_gamma.then(|| vec![0.0f32; c]),
        dbeta: need_beta.then(|| vec![0.0f32; c]),
    };
    for_plane_groups(n * c, |p, width| match width {
        LANES => backward.group::<LANES>(p),
        _ => backward.group::<1>(p),
    });
    let like_x = |v: Vec<f32>| Tensor::from_vec(v, x.dims());
    let per_channel = |v: Vec<f32>| Tensor::from_vec(v, &[c]);
    NormReluPoolGrads {
        dx: backward.dx.map(like_x),
        via_mean: backward.via_mean.map(like_x),
        dgamma: backward.dgamma.map(per_channel),
        dbeta: backward.dbeta.map(per_channel),
    }
}

struct NormBackward<'a> {
    x: &'a [f32],
    /// The pooled map's upstream.
    up: &'a [f32],
    gamma: &'a [f32],
    beta: &'a [f32],
    stats: &'a [f32],
    hw: usize,
    /// The planes' width.
    w: usize,
    /// Scratch: the centred planes of the group in hand.
    centered: Vec<f32>,
    /// Scratch: the group's upstream at the norm's output.
    unpooled: Vec<f32>,
    dx: Option<Vec<f32>>,
    via_mean: Option<Vec<f32>>,
    dgamma: Option<Vec<f32>>,
    dbeta: Option<Vec<f32>>,
}

impl NormBackward<'_> {
    /// Planes `p .. p + N`. A group's planes are consecutive, so adding
    /// its plane sums into `dγ`/`dβ` lane by lane keeps batch order.
    fn group<const N: usize>(&mut self, p: usize) {
        let (hw, c, planes) = (self.hw, self.gamma.len(), self.stats.len() / 2);
        let inv_hw = 1.0 / hw as f32;
        let x = lanes::<N>(&self.x[p * hw..], hw);
        let channel: [usize; N] = std::array::from_fn(|lane| (p + lane) % c);
        let std: [f32; N] = std::array::from_fn(|lane| self.stats[planes + p + lane]);
        let inv = std.map(|s| 1.0 / s);
        for (lane, ds) in self.centered.chunks_exact_mut(hw).take(N).enumerate() {
            let mean = self.stats[p + lane];
            for (d, &v) in ds.iter_mut().zip(x[lane]) {
                *d = v - mean;
            }
        }
        let centered = lanes::<N>(&self.centered, hw);
        let pooled = hw / (POOL * POOL);
        let unpooled = &mut self.unpooled[..N * hw];
        avg_unpool_planes(&self.up[p * pooled..][..N * pooled], self.w, POOL, unpooled);
        for (lane, ds) in unpooled.chunks_exact_mut(hw).enumerate() {
            let (g, b) = (self.gamma[channel[lane]], self.beta[channel[lane]]);
            for (d, &c) in ds.iter_mut().zip(centered[lane]) {
                let y = (c * inv[lane]) * g + b;
                *d *= if y > 0.0 { 1.0 } else { 0.0 };
            }
        }
        let u = lanes::<N>(&self.unpooled, hw);
        if let Some(dbeta) = &mut self.dbeta {
            let sums = lane_sums::<N>(hw, |lane, i| u[lane][i]);
            for (ch, sum) in channel.iter().zip(sums) {
                dbeta[*ch] += sum;
            }
        }
        if let Some(dgamma) = &mut self.dgamma {
            let sums = lane_sums::<N>(hw, |lane, i| u[lane][i] * (centered[lane][i] * inv[lane]));
            for (ch, sum) in channel.iter().zip(sums) {
                dgamma[*ch] += sum;
            }
        }
        let Some(dx) = &mut self.dx else { return };
        let g = channel.map(|ch| self.gamma[ch]);
        let d_inv = lane_sums::<N>(hw, |lane, i| (u[lane][i] * g[lane]) * centered[lane][i]);
        let dx = &mut dx[p * hw..][..N * hw];
        for (lane, os) in dx.chunks_exact_mut(hw).enumerate() {
            let d_std = (d_inv[lane] * (inv[lane] / std[lane])) * MINUS_ONE;
            let a = ((d_std * 0.5) / std[lane]) * inv_hw;
            for ((o, &u), &d) in os.iter_mut().zip(u[lane]).zip(centered[lane]) {
                let ad = a * d;
                *o = ((u * g[lane]) * inv[lane] + ad) + ad;
            }
        }
        let d_centered = lanes::<N>(dx, hw);
        let shift =
            lane_sums::<N>(hw, |lane, i| d_centered[lane][i] * MINUS_ONE).map(|s| s * inv_hw);
        for (lane, os) in dx.chunks_exact_mut(hw).enumerate() {
            match &mut self.via_mean {
                Some(separate) => separate[(p + lane) * hw..][..hw].fill(shift[lane]),
                None => os.iter_mut().for_each(|o| *o += shift[lane]),
            }
        }
    }
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
