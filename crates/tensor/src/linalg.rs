//! Matrix operations: the GEMM family (`A·B`, `Aᵀ·B`, `A·Bᵀ`) and 2-D
//! transpose.
//!
//! All three products run on one register-tiled micro-kernel. Its contract
//! is the reduction order: every output element is the sum over `k`
//! **ascending from a `0.0` accumulator**, one rounded multiply and one
//! rounded add per term (no FMA, no partial sums). Blocking only changes
//! *which* elements are in flight together, never the order of the terms of
//! any one of them, so a result is bit-identical whichever entry point or
//! tile produced it — and to the plain triple loop kept as the test oracle.

use crate::Tensor;

use std::ops::Range;

/// Rows of the output tile held in registers: eight accumulator rows, so
/// that eight independent add chains hide the adder's latency, and with one
/// register for the right operand and one for a broadcast the tile fits the
/// sixteen vector registers of x86-64-v3.
pub(crate) const MR: usize = 8;
/// Columns of the output tile: one 8-lane (256-bit) vector on x86-64-v3,
/// the workspace's build target (`.cargo/config.toml`); two 4-lane ones on
/// the SSE2 baseline, with the same bits.
pub(crate) const NR: usize = 8;
/// Terms of the reduction taken per pass over the output, so that a long
/// reduction (a weight gradient sums over every row of a batch) works on
/// blocks of both operands that stay in L1. Between passes a tile rests in
/// the output buffer; an `f32` store and reload is exact, so the sum still
/// runs `k` ascending without a break.
pub(crate) const KC: usize = 256;

/// How an operand of a product lies in memory.
#[derive(Clone, Copy)]
enum Layout {
    /// Row-major as the product reads it: `(m, k)` on the left, `(k, n)`
    /// on the right.
    Plain,
    /// Row-major transposed: `(k, m)` on the left, `(n, k)` on the right.
    Transposed,
}

/// The shape and left operand of one product.
struct Product<'a> {
    m: usize,
    n: usize,
    k: usize,
    a: &'a [f32],
    lhs: Layout,
}

/// One `NR`-wide column panel of the right operand: row `kk` of the panel
/// is `rows[kk * ld..][..NR]`, of which the first `nr` columns are output
/// columns `j0..j0 + nr`.
struct Panel<'a> {
    rows: &'a [f32],
    ld: usize,
    j0: usize,
    nr: usize,
}

/// The `NR` values at the start of `run`: one row of a panel, or one run of
/// output positions of a convolution.
#[inline(always)]
pub(crate) fn lanes(run: &[f32]) -> [f32; NR] {
    run[..NR].try_into().expect("a run is NR wide")
}

/// Advances one `R x NR` output tile over `terms`, in order: each term is
/// `R` left-operand values against `NR` right-operand values — a panel row
/// for a product; the direct convolution kernels (`conv.rs`) read theirs
/// from an image.
///
/// The accumulators are taken and returned by value so they live in
/// registers for the whole reduction, and each term rebuilds them from
/// fixed-size arrays, which is what lets the compiler unroll the tile and
/// vectorise it without intrinsics. (Written as nested `for` loops, the
/// tile at `R` = 8 is not unrolled and its accumulators live in memory,
/// several times slower.)
#[inline(always)]
pub(crate) fn tile<const R: usize>(
    mut acc: [[f32; NR]; R],
    terms: impl Iterator<Item = ([f32; R], [f32; NR])>,
) -> [[f32; NR]; R] {
    for (a, b) in terms {
        acc = std::array::from_fn(|r| std::array::from_fn(|l| acc[r][l] + a[r] * b[l]));
    }
    acc
}

impl Product<'_> {
    /// Advances the `R` output rows starting at `i0` over the terms `ks` of
    /// one panel: the tile is read from `out`, run through the micro-kernel
    /// and written back.
    #[inline(always)]
    fn advance<const R: usize>(
        &self,
        ks: Range<usize>,
        i0: usize,
        panel: &Panel<'_>,
        out: &mut [f32],
    ) {
        let &Product { m, n, k, a, lhs } = self;
        let &Panel { j0, nr, .. } = panel;
        let rhs = |kk: usize| lanes(&panel.rows[kk * panel.ld..]);
        let mut acc = [[0.0f32; NR]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            let src = &out[(i0 + r) * n + j0..];
            // The fixed-width arm is the common one and compiles to vector
            // moves; the ragged one to a `memcpy` call.
            if nr == NR {
                row.copy_from_slice(&src[..NR]);
            } else {
                row[..nr].copy_from_slice(&src[..nr]);
            }
        }
        let acc = match lhs {
            Layout::Plain => {
                let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
                tile(
                    acc,
                    ks.map(|kk| (std::array::from_fn(|r| rows[r][kk]), rhs(kk))),
                )
            }
            Layout::Transposed => {
                let column = |kk: usize| -> [f32; R] {
                    a[kk * m + i0..][..R]
                        .try_into()
                        .expect("a row group is R wide")
                };
                tile(acc, ks.map(|kk| (column(kk), rhs(kk))))
            }
        };
        for (r, row) in acc.iter().enumerate() {
            let dst = &mut out[(i0 + r) * n + j0..];
            if nr == NR {
                dst[..NR].copy_from_slice(row);
            } else {
                dst[..nr].copy_from_slice(&row[..nr]);
            }
        }
    }

    /// `(m, n) = op(A)·op(B)`; see the module docs for the order contract.
    ///
    /// The output is walked in `MR`-row groups and, inside a group, in
    /// `NR`-wide column panels, so a group's left-operand values stay in L1
    /// while they meet every panel and the output is written front to back.
    /// A full panel of a plain right operand is read in place. Its ragged
    /// last panel, and every panel of a transposed right operand, is packed
    /// up front into a zero-padded `k x NR` block so the micro-kernel sees
    /// full-width rows either way (the padding columns are computed and
    /// dropped). A ragged last row group runs as tiles of 4, 2 and 1 rows.
    fn run(&self, b: &[f32], rhs: Layout) -> Vec<f32> {
        let &Product { m, n, k, .. } = self;
        let mut out = vec![0.0f32; m * n];
        if k == 0 {
            return out;
        }
        let panels = n.div_ceil(NR);
        let in_place = match rhs {
            Layout::Plain => n / NR,
            Layout::Transposed => 0,
        };
        let mut packed = vec![0.0f32; (panels - in_place) * k * NR];
        for (p, block) in (in_place..panels).zip(packed.chunks_exact_mut(k * NR)) {
            let j0 = p * NR;
            for (kk, row) in block.chunks_exact_mut(NR).enumerate() {
                for (c, o) in row[..NR.min(n - j0)].iter_mut().enumerate() {
                    *o = match rhs {
                        Layout::Plain => b[kk * n + j0 + c],
                        Layout::Transposed => b[(j0 + c) * k + kk],
                    };
                }
            }
        }
        for k0 in (0..k).step_by(KC) {
            let ks = k0..k.min(k0 + KC);
            let mut i0 = 0;
            while i0 < m {
                let height = match (m - i0).min(MR) {
                    MR => MR,
                    left => 1 << left.ilog2(),
                };
                for p in 0..panels {
                    let (rows, ld) = if p < in_place {
                        (&b[p * NR..], n)
                    } else {
                        (&packed[(p - in_place) * k * NR..], NR)
                    };
                    let panel = Panel {
                        rows,
                        ld,
                        j0: p * NR,
                        nr: NR.min(n - p * NR),
                    };
                    match height {
                        1 => self.advance::<1>(ks.clone(), i0, &panel, &mut out),
                        2 => self.advance::<2>(ks.clone(), i0, &panel, &mut out),
                        4 => self.advance::<4>(ks.clone(), i0, &panel, &mut out),
                        _ => self.advance::<MR>(ks.clone(), i0, &panel, &mut out),
                    }
                }
                i0 += height;
            }
        }
        out
    }
}

/// The `(rows, cols)` of a rank-2 operand.
///
/// # Panics
///
/// Panics if `t` is not rank 2.
fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{what} must be rank 2");
    (t.dims()[0], t.dims()[1])
}

/// `op(a)·op(b)` as a tensor: the shape checks and the one call into
/// [`Product::run`] shared by the three entry points, `name` being the one
/// to blame in a panic.
fn product(name: &str, a: &Tensor, lhs: Layout, b: &Tensor, rhs: Layout) -> Tensor {
    let as_read = |(rows, cols): (usize, usize), layout| match layout {
        Layout::Plain => (rows, cols),
        Layout::Transposed => (cols, rows),
    };
    let (m, k) = as_read(dims2(a, name), lhs);
    let (k2, n) = as_read(dims2(b, name), rhs);
    assert_eq!(
        k,
        k2,
        "{name} inner-dimension mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let product = Product {
        m,
        n,
        k,
        a: a.data(),
        lhs,
    };
    Tensor::from_vec(product.run(b.data(), rhs), &[m, n])
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `(m, k) x (k, n) -> (m, n)`.
    ///
    /// Register-tiled (see the module docs); each output element is summed
    /// over `k` ascending from `0.0`, so the result does not depend on the
    /// tiling. A zero in `self` is multiplied like any other value: for
    /// finite operands that changes nothing, while `0 · ∞` yields NaN as
    /// IEEE 754 says it should — non-finite values are the business of the
    /// callers' non-finite scans, not of this kernel.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        product("matmul", self, Layout::Plain, other, Layout::Plain)
    }

    /// `selfᵀ · other` without building the transpose:
    /// `(k, m)ᵀ x (k, n) -> (m, n)`.
    ///
    /// Bit-identical to `self.transpose2().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the row counts (the inner
    /// dimension) disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        product("matmul_tn", self, Layout::Transposed, other, Layout::Plain)
    }

    /// `self · otherᵀ` without building the transpose:
    /// `(m, k) x (n, k)ᵀ -> (m, n)`.
    ///
    /// Bit-identical to `self.matmul(&other.transpose2())`. `other` is
    /// packed whole (one zero-padded `k x NR` block per panel), so it should
    /// be the smaller operand — a layer's weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the column counts (the
    /// inner dimension) disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        product("matmul_nt", self, Layout::Plain, other, Layout::Transposed)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Tensor {
        let (m, n) = dims2(self, "transpose2 operand");
        let a = self.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        assert_eq!(Tensor::eye(3).matmul(&a).data(), a.data());
        assert_eq!(a.matmul(&Tensor::eye(4)).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_tn inner-dimension mismatch")]
    fn matmul_tn_rejects_mismatched_rows() {
        let _ = Tensor::zeros(&[2, 3]).matmul_tn(&Tensor::zeros(&[3, 2]));
    }

    #[test]
    #[should_panic(expected = "matmul_nt inner-dimension mismatch")]
    fn matmul_nt_rejects_mismatched_cols() {
        let _ = Tensor::zeros(&[2, 3]).matmul_nt(&Tensor::zeros(&[3, 2]));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let t = a.transpose2();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert_eq!(t.transpose2().data(), a.data());
    }

    #[test]
    fn matmul_transpose_identity() {
        // (A B)^T == B^T A^T
        let mut rng = crate::rng::Rng::seed_from(2);
        let a = Tensor::randn(&[4, 5], &mut rng);
        let b = Tensor::randn(&[5, 3], &mut rng);
        let lhs = a.matmul(&b).transpose2();
        let rhs = b.transpose2().matmul(&a.transpose2());
        assert!(lhs.max_abs_diff(&rhs) < 1e-5);
    }

    #[test]
    fn zero_times_infinity_is_nan_not_skipped() {
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 2.0], &[2, 1]);
        assert!(a.matmul(&b).item().is_nan());
    }
}
