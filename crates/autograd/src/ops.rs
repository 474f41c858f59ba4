//! Vector–Jacobian products for every tape op.
//!
//! Each rule of a primitive *emits ordinary tape ops*, so the gradient of
//! a gradient is available by construction. Rules for linear ops are their
//! adjoints (`im2col` ↔ `col2im`, pool ↔ unpool, sum ↔ broadcast,
//! permutes), which the test-suite verifies by inner-product identities
//! and finite differences. The fused composites of a first-order tape
//! (`composite.rs`) have direct rules instead: their output is only read.

use crate::kernels::{self, norm_relu_pool_vjp, Planes};
use crate::tape::{Op, PoolGeo, Tape};
use crate::Var;
use qd_tensor::{conv2d_input_grad, conv2d_weight_grad, rows_to_planes, Conv2dGeometry, Tensor};

/// The `(input, contribution)` pairs one node hands to the gradient sweep
/// (one table for [`Tape::grad`] and [`Tape::into_grads`]), in the order
/// they are added into the inputs' adjoint slots. A primitive has at most
/// two inputs; a fused block has five — so five travel in an array, not a
/// `Vec`.
pub(crate) type Contributions = [Option<(Var, Var)>; 5];

/// The contribution of an op with a single differentiable input.
fn unary(a: Var, da: Var) -> Contributions {
    [Some((a, da)), None, None, None, None]
}

impl Tape {
    /// Contributions of a two-input op: `da`/`db` build the adjoint of
    /// `a`/`b` and are only run for an input the sweep `wants` (see
    /// [`Tape::vjp`]), so a product against a constant (the `dCols` of a
    /// network's first convolution, say) is never computed just to be
    /// dropped.
    fn binary(
        &mut self,
        wanted: &[bool],
        (a, b): (Var, Var),
        da: impl FnOnce(&mut Tape) -> Var,
        db: impl FnOnce(&mut Tape) -> Var,
    ) -> Contributions {
        [
            wanted[a.0].then(|| (a, da(self))),
            wanted[b.0].then(|| (b, db(self))),
            None,
            None,
            None,
        ]
    }

    /// Returns `(input, contribution)` pairs for the node `node` (whose
    /// recorded op is `op`) given the upstream adjoint `u`, for the inputs
    /// the sweep wants: `wanted[i]` says whether node `i` is differentiable
    /// and on a path to a variable the sweep differentiates for. (A
    /// unary rule's one input is wanted whenever its node is, unless the
    /// node is itself one of those variables.)
    ///
    /// Every contribution is shaped exactly like its input so that adjoint
    /// accumulation is a plain elementwise add. The three matrix products
    /// are closed under this function — each one's contributions are
    /// products from the same family — so no transpose is ever
    /// materialised, at any order of differentiation.
    pub(crate) fn vjp(&mut self, node: Var, op: Op, u: Var, wanted: &[bool]) -> Contributions {
        match op {
            Op::Leaf | Op::Constant | Op::ReluMask => [None; 5],
            Op::Add(a, b) => self.binary(wanted, (a, b), |_| u, |_| u),
            Op::Sub(a, b) => self.binary(wanted, (a, b), |_| u, |t| t.neg(u)),
            Op::Mul(a, b) => self.binary(wanted, (a, b), |t| t.mul(u, b), |t| t.mul(u, a)),
            Op::Div(a, b) => self.binary(
                wanted,
                (a, b),
                // y = a / b; da = u / b; db = -u * y / b.
                |t| t.div(u, b),
                |t| {
                    let y_over_b = t.div(node, b);
                    let ub = t.mul(u, y_over_b);
                    t.neg(ub)
                },
            ),
            Op::Neg(a) => unary(a, self.neg(u)),
            Op::Scale(a, s) => unary(a, self.scale(u, s)),
            Op::AddScalar(a) => unary(a, u),
            // y = a·b; da = u·bᵀ; db = aᵀ·u.
            Op::MatMul(a, b) => {
                self.binary(wanted, (a, b), |t| t.matmul_nt(u, b), |t| t.matmul_tn(a, u))
            }
            // y = aᵀ·b; da = b·uᵀ; db = a·u.
            Op::MatMulTn(a, b) => {
                self.binary(wanted, (a, b), |t| t.matmul_nt(b, u), |t| t.matmul(a, u))
            }
            // y = a·bᵀ; da = u·b; db = uᵀ·a.
            Op::MatMulNt(a, b) => {
                self.binary(wanted, (a, b), |t| t.matmul(u, b), |t| t.matmul_tn(u, a))
            }
            Op::Transpose2(a) => unary(a, self.transpose2(u)),
            Op::Relu(a) if self.fuses() => {
                let da = kernels::relu_vjp(self.value(u), self.value(a));
                unary(a, self.constant(da))
            }
            Op::Relu(a) => {
                // d relu(x)/dx = 1[x > 0]; the mask is locally constant.
                let mask = self.relu_mask(a);
                unary(a, self.mul(u, mask))
            }
            Op::Tanh(a) => {
                // y = tanh(x); dy/dx = 1 - y².
                let y2 = self.mul(node, node);
                let neg = self.neg(y2);
                let one_minus = self.add_scalar(neg, 1.0);
                unary(a, self.mul(u, one_minus))
            }
            Op::Sigmoid(a) => {
                // y = σ(x); dy/dx = y (1 - y).
                let neg = self.neg(node);
                let one_minus = self.add_scalar(neg, 1.0);
                let deriv = self.mul(node, one_minus);
                unary(a, self.mul(u, deriv))
            }
            Op::Sqrt(a) => {
                // y = sqrt(a); da = u / (2 y).
                let half_u = self.scale(u, 0.5);
                unary(a, self.div(half_u, node))
            }
            Op::Exp(a) => unary(a, self.mul(u, node)),
            Op::Ln(a) => unary(a, self.div(u, a)),
            Op::SumAll(a) => {
                let dims = self.value(a).dims().to_vec();
                unary(a, self.broadcast_to(u, &dims))
            }
            Op::BroadcastTo(a) => {
                let s = self.sum_all(u);
                unary(a, self.reshape_like(s, a))
            }
            Op::SumRows(a) => {
                let m = self.value(a).dims()[0];
                unary(a, self.broadcast_rows(u, m))
            }
            Op::BroadcastRows(a) => unary(a, self.sum_rows(u)),
            Op::AddRowBias(y, b) => self.binary(wanted, (y, b), |_| u, |t| t.sum_rows(u)),
            Op::SumCols(a) => {
                let n = self.value(a).dims()[1];
                unary(a, self.broadcast_cols(u, n))
            }
            Op::BroadcastCols(a) => unary(a, self.sum_cols(u)),
            Op::Reshape(a) => unary(a, self.reshape_like(u, a)),
            Op::Im2col(a, geo) => {
                let folded = self.col2im(u, geo);
                unary(a, self.reshape_like(folded, a))
            }
            Op::Col2im(a, geo) => {
                let cols = self.im2col(u, geo);
                unary(a, self.reshape_like(cols, a))
            }
            Op::AvgPool(a, PoolGeo { c, h, w, k }) => {
                let up = self.avg_unpool2d(u, c, h / k, w / k, k);
                unary(a, self.reshape_like(up, a))
            }
            Op::AvgUnpool(a, PoolGeo { c, h, w, k }) => {
                // Forward input was (N, C, h, w) with output (N, C, h*k, w*k).
                let down = self.avg_pool2d(u, c, h * k, w * k, k);
                unary(a, self.reshape_like(down, a))
            }
            Op::RowsToNchw(a, [n, c, oh, ow]) => {
                let rows = self.nchw_to_rows(u, n, c, oh, ow);
                unary(a, self.reshape_like(rows, a))
            }
            Op::NchwToRows(a, [n, c, oh, ow]) => {
                let img = self.rows_to_nchw(u, n, c, oh, ow);
                unary(a, self.reshape_like(img, a))
            }
            Op::SpatialSum(a, [c, h, w]) => {
                let bc = self.spatial_broadcast(u, c, h, w);
                unary(a, self.reshape_like(bc, a))
            }
            Op::SpatialBroadcast(a, [c, h, w]) => {
                let s = self.spatial_sum(u, c, h, w);
                unary(a, self.reshape_like(s, a))
            }
            Op::ChannelSum(a, [c, h, w]) => {
                let n = self.value(a).len() / (c * h * w);
                let bc = self.channel_broadcast(u, n, h, w);
                unary(a, self.reshape_like(bc, a))
            }
            Op::ChannelBroadcast(a, [_, c, h, w]) => {
                let s = self.channel_sum(u, c, h, w);
                unary(a, self.reshape_like(s, a))
            }
            Op::ConvNormReluPool([x, weight, bias, gamma, beta], geo, kept) => {
                // The two chains' rules on their values: the tail's, with
                // the pre-norm map's slot empty (the convolution is its one
                // consumer), then the convolution's from the map's adjoint.
                let [map, stats] = kept.expect("a differentiable block keeps its map");
                let [nx, nw, nb, ng, nbeta] = [x, weight, bias, gamma, beta].map(|v| wanted[v.0]);
                let [xv, w, g, b, s, u] = [x, weight, gamma, beta, stats, u].map(|v| self.value(v));
                let planes = Planes::new(&[xv.dims()[0], w.dims()[0], geo.out_h, geo.out_w]);
                let needs = [nx || nw || nb, ng, nbeta];
                let t = norm_relu_pool_vjp(self.value(map), planes, [g, b, s, u], needs);
                let conv = |rows| self.conv_grads([x, weight], geo, &rows, [nx, nw, nb]);
                let [dw, db, dx] = t.dx.map_or([None, None, None], conv);
                let grads = [t.dbeta, t.dgamma, db, dw, dx];
                self.given([beta, gamma, bias, weight, x], grads)
            }
            Op::LogSoftmax(a) => {
                // y = log_softmax(x); da = u - softmax(x) * rowsum(u).
                let n = self.value(a).dims()[1];
                let soft = self.exp(node);
                let row = self.sum_cols(u);
                let bc = self.broadcast_cols(row, n);
                let sub = self.mul(soft, bc);
                unary(a, self.sub(u, sub))
            }
        }
    }

    /// A convolution's adjoints `[W, b, x]` from its position-major
    /// upstream `rows`, each where `needs` (`[x, W, b]`) asks for it: the
    /// weight's and the bias's in one pass over `rows`, the input's from a
    /// `(N, Cout, OH, OW)` copy of them. A constant weight beside a
    /// differentiable bias, which no model here has, pays for the weight's.
    fn conv_grads(
        &self,
        [x, weight]: [Var; 2],
        geo: Conv2dGeometry,
        rows: &Tensor,
        [need_x, need_w, need_b]: [bool; 3],
    ) -> [Option<Tensor>; 3] {
        let (xv, w) = (self.value(x), self.value(weight));
        let dims = [xv.dims()[0], w.dims()[0], geo.out_h, geo.out_w];
        let grads = (need_w || need_b).then(|| conv2d_weight_grad(xv, rows, dims[1], &geo));
        let [dw, db] = grads.map_or([None, None], |(dw, db)| {
            [need_w.then_some(dw), need_b.then_some(db)]
        });
        let dx = need_x.then(|| {
            let dy = conv2d_input_grad(&rows_to_planes(rows, dims), w, &geo);
            Tensor::from_vec(dy.into_vec(), xv.dims())
        });
        [dw, db, dx]
    }

    /// The contributions of the block's rule: each adjoint in `grads` that
    /// was computed, as a constant node, for its input, in the order given.
    fn given(&mut self, inputs: [Var; 5], grads: [Option<Tensor>; 5]) -> Contributions {
        let mut out = [None; 5];
        for (slot, (input, g)) in out.iter_mut().zip(inputs.into_iter().zip(grads)) {
            *slot = g.map(|g| (input, self.constant(g)));
        }
        out
    }

    /// Reshapes `v` to the dims of `like` if they differ (no-op otherwise).
    fn reshape_like(&mut self, v: Var, like: Var) -> Var {
        if self.value(v).dims() == self.value(like).dims() {
            return v;
        }
        let want = self.value(like).dims().to_vec();
        self.reshape(v, &want)
    }
}
