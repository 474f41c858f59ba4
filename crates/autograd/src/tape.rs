//! The tape: eager op recording plus gradient construction.

use crate::kernels;
use qd_tensor::{
    avg_pool2d, avg_unpool2d, col2im, im2col, planes_to_rows, rows_to_planes, Conv2dGeometry,
    Tensor,
};

/// Handle to a node on a [`Tape`].
///
/// `Var` is a plain index; it is only meaningful together with the tape
/// that produced it. Using a `Var` with a different tape yields unspecified
/// values or panics, like indexing into the wrong arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node index inside the owning tape.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Geometry of a non-overlapping average pool recorded on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoolGeo {
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub k: usize,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Leaf,
    Constant,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var),
    MatMul(Var, Var),
    MatMulTn(Var, Var),
    MatMulNt(Var, Var),
    Transpose2(Var),
    Relu(Var),
    ReluMask,
    Tanh(Var),
    Sigmoid(Var),
    Sqrt(Var),
    Exp(Var),
    Ln(Var),
    SumAll(Var),
    BroadcastTo(Var),
    SumRows(Var),
    BroadcastRows(Var),
    SumCols(Var),
    BroadcastCols(Var),
    Reshape(Var),
    Im2col(Var, Conv2dGeometry),
    Col2im(Var, Conv2dGeometry),
    AvgPool(Var, PoolGeo),
    AvgUnpool(Var, PoolGeo),
    RowsToNchw(Var, [usize; 4]),
    NchwToRows(Var, [usize; 4]),
    SpatialSum(Var, [usize; 3]),
    SpatialBroadcast(Var, [usize; 3]),
    ChannelSum(Var, [usize; 3]),
    ChannelBroadcast(Var, [usize; 4]),
    LogSoftmax(Var),
    AddRowBias(Var, Var),
    /// A whole ConvNet block of `[x, W, b, γ, β]`: a direct convolution,
    /// then the fused norm·ReLU·pool tail; its value is the pooled map.
    /// Where it is differentiated it keeps two constant nodes: the
    /// position-major pre-norm map and the `(2, N·pitch)` statistics.
    ConvNormReluPool([Var; 5], Conv2dGeometry, Option<[Var; 2]>),
}

pub(crate) struct Node {
    /// `None` once released: by [`Tape::retire`] on an inference tape, or
    /// by the terminal sweep after it has passed the node.
    pub value: Option<Tensor>,
    pub op: Op,
    pub needs_grad: bool,
}

/// What a tape was opened for, which is what its caller may still ask of
/// it — and so how a composite layer is represented on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Kind {
    /// [`Tape::new`]: every value stays, [`Tape::grad`] may be applied and
    /// re-applied to its own output, composites are chains of primitives.
    #[default]
    Recording,
    /// [`Tape::first_order`]: [`Tape::into_grads`] is the only sweep, so
    /// no gradient is ever differentiated again and composites are fused.
    FirstOrder,
    /// [`Tape::inference`]: nothing is differentiable, [`Tape::retire`]
    /// releases values, composites are fused.
    Inference,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Recording => "recording tape",
            Kind::FirstOrder => "first-order tape",
            Kind::Inference => "inference tape",
        }
    }
}

fn value_bytes(value: &Tensor) -> usize {
    std::mem::size_of_val(value.data())
}

/// An eager autodiff tape.
///
/// Construct values with [`Tape::leaf`] (differentiable) or
/// [`Tape::constant`] (treated as fixed), combine them with the op methods,
/// and differentiate. For iterative training, create a fresh tape per step
/// and re-insert parameters as leaves.
///
/// A tape is opened for what its caller will still ask of it, and that
/// *kind* — never a flag — decides what it keeps and how it represents a
/// fused composite ([`Tape::conv_norm_relu_pool`], [`Tape::relu`]):
///
/// * [`Tape::new`], the recording tape: [`Tape::grad`] emits the
///   gradients as ordinary nodes, so it can be nested for higher-order
///   derivatives; the tape keeps every value and a composite is a chain
///   of primitives, closed under differentiation. Only a gradient that is
///   differentiated again needs it (gradient matching's inner `∇θ L(S)`).
///   [`Tape::into_grads`] is the last thing done to it: the same sweep
///   over the same rules, to the same bits, but it returns plain tensors
///   and releases every value, adjoint and temporary as soon as the sweep
///   has passed it — every *outer* gradient uses it.
/// * [`Tape::first_order`]: `into_grads` is the only sweep, so nothing on
///   it is differentiated twice and a composite is one node with a direct
///   backward kernel. Every SGD/SGA step uses it.
/// * [`Tape::inference`] starts a tape that is never differentiated, on
///   which [`Tape::retire`] releases values a forward pass is done with;
///   composites are the same single nodes.
///
/// All three compute the same bits. Reading a released value panics; it
/// never returns stale data.
///
/// # Examples
///
/// ```
/// use qd_autograd::Tape;
/// use qd_tensor::Tensor;
///
/// let mut tape = Tape::new();
/// let w = tape.leaf(Tensor::from_vec(vec![1.0, -2.0], &[1, 2]));
/// let x = tape.constant(Tensor::from_vec(vec![3.0, 4.0], &[2, 1]));
/// let y = tape.matmul(w, x); // 1*3 + -2*4 = -5
/// let loss = tape.sum_all(y);
/// let grads = tape.grad(loss, &[w]);
/// assert_eq!(tape.value(grads[0]).data(), &[3.0, 4.0]);
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    kind: Kind,
    /// Set once [`Tape::into_grads`] has consumed the tape.
    swept: bool,
    /// Bytes of node values held now, and the most ever held at once.
    live_bytes: usize,
    peak_bytes: usize,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

impl Tape {
    /// Creates an empty recording tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Creates an empty tape whose gradients are only ever read: a
    /// training, ascent or recovery step, a reference gradient.
    /// [`Tape::into_grads`] is its only sweep and [`Tape::grad`] panics,
    /// so no adjoint on it is differentiated again — which is what lets a
    /// fused composite ([`Tape::conv_norm_relu_pool`], [`Tape::relu`])
    /// be one node with a hand-written backward kernel
    /// here, where a recording tape needs the chain of primitives that is
    /// closed under second order. The kernels perform, per output element
    /// and per reduction, the chain's rounded operations in the chain's
    /// order, so values and gradients are `to_bits`-equal to a recording
    /// tape's; what changes is the time and the memory.
    ///
    /// # Examples
    ///
    /// ```
    /// use qd_autograd::Tape;
    /// use qd_tensor::Tensor;
    ///
    /// let mut tape = Tape::first_order();
    /// let x = tape.leaf(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
    /// let h = tape.relu(x);
    /// let sq = tape.mul(h, h);
    /// let y = tape.sum_all(sq);
    /// assert_eq!(tape.into_grads(y, &[x])[0].data(), &[0.0, 4.0]);
    /// ```
    pub fn first_order() -> Self {
        Tape {
            kind: Kind::FirstOrder,
            ..Tape::default()
        }
    }

    /// Whether the fused composites (a ConvNet block, ReLU) are single
    /// nodes on this tape: it can never be asked for a gradient of a
    /// gradient. The one place the kind decides a representation.
    pub(crate) fn fuses(&self) -> bool {
        self.kind != Kind::Recording
    }

    /// Creates an empty tape for a forward pass that is never
    /// differentiated: [`Tape::leaf`] records a constant, [`Tape::grad`]
    /// and [`Tape::into_grads`] panic, and [`Tape::retire`] releases
    /// values, so a caller that retires as it goes holds one layer's
    /// working set instead of the network's.
    ///
    /// # Examples
    ///
    /// ```
    /// use qd_autograd::Tape;
    /// use qd_tensor::Tensor;
    ///
    /// let mut tape = Tape::inference();
    /// let x = tape.constant(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
    /// let from = tape.len();
    /// let h = tape.relu(x);
    /// let y = tape.scale(h, 3.0);
    /// tape.retire(from, y); // `h` is gone, `x` and `y` stay
    /// assert_eq!(tape.value(y).data(), &[0.0, 6.0]);
    /// assert_eq!(tape.value(x).data(), &[-1.0, 2.0]);
    /// ```
    pub fn inference() -> Self {
        Tape {
            kind: Kind::Inference,
            ..Tape::default()
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The computed value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this tape, or if its value has
    /// been released (see [`Tape::retire`] and [`Tape::into_grads`]).
    pub fn value(&self, v: Var) -> &Tensor {
        self.nodes[v.0].value.as_ref().unwrap_or_else(|| {
            panic!(
                "value of node {} was released by the {}{}",
                v.0,
                self.kind.name(),
                if self.swept { "'s terminal sweep" } else { "" }
            )
        })
    }

    /// The variant name of every node's recorded op, in order: what the
    /// tests that pin a representation (chain or fused) compare.
    #[doc(hidden)]
    pub fn op_names(&self) -> Vec<String> {
        let variant = |node: &Node| {
            let debug = format!("{:?}", node.op);
            debug.split('(').next().unwrap_or_default().to_string()
        };
        self.nodes.iter().map(variant).collect()
    }

    /// The most bytes of node values this tape has held at one time: its
    /// footprint, which [`Tape::retire`] and [`Tape::into_grads`] exist to
    /// bound. On a recording tape nothing is released, so this is the
    /// sum over all nodes.
    pub fn peak_value_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// On an inference tape, releases the value of every node recorded at
    /// index `from` or later except `keep`: the caller is done with a
    /// sub-computation and wants only its result. On a recording tape this
    /// does nothing, because a later gradient sweep reads those values.
    pub fn retire(&mut self, from: usize, keep: Var) {
        if self.kind == Kind::Inference {
            for id in (from..self.nodes.len()).filter(|&id| id != keep.0) {
                self.release(Var(id));
            }
        }
    }

    fn release(&mut self, v: Var) {
        if let Some(value) = self.nodes[v.0].value.take() {
            self.live_bytes -= value_bytes(&value);
        }
    }

    /// Inserts a differentiable leaf (e.g. a model parameter or a synthetic
    /// sample being optimized). On an inference tape nothing is
    /// differentiable and this records a constant.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        let differentiable = self.kind != Kind::Inference;
        self.push(value, Op::Leaf, differentiable)
    }

    /// Inserts a non-differentiable constant (e.g. input data or labels).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Constant, false)
    }

    /// Whether gradients flow to `v`: it is a leaf or depends on one.
    pub(crate) fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        self.live_bytes += value_bytes(&value);
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.nodes.push(Node {
            value: Some(value),
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn push_unary(&mut self, a: Var, value: Tensor, op: Op) -> Var {
        let needs = self.nodes[a.0].needs_grad;
        self.push(value, op, needs)
    }

    fn push_binary(&mut self, a: Var, b: Var, value: Tensor, op: Op) -> Var {
        let needs = self.nodes[a.0].needs_grad || self.nodes[b.0].needs_grad;
        self.push(value, op, needs)
    }

    /// Elementwise sum of two same-shaped variables.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push_binary(a, b, v, Op::Add(a, b))
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push_binary(a, b, v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push_binary(a, b, v, Op::Mul(a, b))
    }

    /// Elementwise quotient `a / b`.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).div(self.value(b));
        self.push_binary(a, b, v, Op::Div(a, b))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).scale(-1.0);
        self.push_unary(a, v, Op::Neg(a))
    }

    /// Multiplies every element by the constant `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push_unary(a, v, Op::Scale(a, s))
    }

    /// Adds the constant `s` to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).add_scalar(s);
        self.push_unary(a, v, Op::AddScalar(a))
    }

    /// Matrix product of two rank-2 variables.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push_binary(a, b, v, Op::MatMul(a, b))
    }

    /// `aᵀ · b` for rank-2 variables `(k, m)` and `(k, n)`, without
    /// recording (or building) the transpose; see
    /// [`qd_tensor::Tensor::matmul_tn`].
    pub fn matmul_tn(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul_tn(self.value(b));
        self.push_binary(a, b, v, Op::MatMulTn(a, b))
    }

    /// `a · bᵀ` for rank-2 variables `(m, k)` and `(n, k)`, without
    /// recording (or building) the transpose — the product of a layer's
    /// input with its `(out, in)` weight matrix; see
    /// [`qd_tensor::Tensor::matmul_nt`].
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul_nt(self.value(b));
        self.push_binary(a, b, v, Op::MatMulNt(a, b))
    }

    /// Transpose of a rank-2 variable.
    pub fn transpose2(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose2();
        self.push_unary(a, v, Op::Transpose2(a))
    }

    /// Rectified linear unit, elementwise `max(0, x)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push_unary(a, v, Op::Relu(a))
    }

    /// The 0/1 activation mask of `relu(a)`. Treated as locally constant:
    /// gradients do not flow through the mask (the second derivative of
    /// ReLU is zero almost everywhere).
    pub fn relu_mask(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        // Deliberately needs_grad = false.
        self.push(v, Op::ReluMask, false)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push_unary(a, v, Op::Tanh(a))
    }

    /// Elementwise logistic sigmoid `1 / (1 + e^{-x})`.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push_unary(a, v, Op::Sigmoid(a))
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::sqrt);
        self.push_unary(a, v, Op::Sqrt(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        self.push_unary(a, v, Op::Exp(a))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::ln);
        self.push_unary(a, v, Op::Ln(a))
    }

    /// Sum of all elements, yielding a scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        self.push_unary(a, v, Op::SumAll(a))
    }

    /// Broadcasts a scalar variable to `shape`.
    pub fn broadcast_to(&mut self, a: Var, shape: &[usize]) -> Var {
        assert_eq!(self.value(a).len(), 1, "broadcast_to expects a scalar");
        let v = Tensor::full(shape, self.value(a).item());
        self.push_unary(a, v, Op::BroadcastTo(a))
    }

    /// Sums a matrix over rows: `(m, n) -> (n,)`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).sum_rows();
        self.push_unary(a, v, Op::SumRows(a))
    }

    /// Repeats a vector `(n,)` as `m` rows: `-> (m, n)`.
    pub fn broadcast_rows(&mut self, a: Var, m: usize) -> Var {
        let val = self.value(a);
        assert_eq!(val.shape().rank(), 1, "broadcast_rows expects a vector");
        let n = val.len();
        let mut data = Vec::with_capacity(m * n);
        for _ in 0..m {
            data.extend_from_slice(val.data());
        }
        let v = Tensor::from_vec(data, &[m, n]);
        self.push_unary(a, v, Op::BroadcastRows(a))
    }

    /// Adds the vector `b` of shape `(n,)` to every row of the `(m, n)`
    /// matrix `y` — a layer's bias — in one pass, where
    /// [`Tape::broadcast_rows`] then [`Tape::add`] materialise the
    /// repeated rows first. Same sums in the same order as that pair, at
    /// every order of differentiation: `b`'s adjoint is `sum_rows` of the
    /// upstream either way, and the broadcast had this one consumer.
    pub fn add_row_bias(&mut self, y: Var, b: Var) -> Var {
        let v = kernels::add_row_bias(self.value(y), self.value(b));
        self.push_binary(y, b, v, Op::AddRowBias(y, b))
    }

    /// Sums a matrix over columns: `(m, n) -> (m,)`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let v = self.value(a).sum_cols();
        self.push_unary(a, v, Op::SumCols(a))
    }

    /// Repeats a vector `(m,)` as `n` columns: `-> (m, n)`.
    pub fn broadcast_cols(&mut self, a: Var, n: usize) -> Var {
        let val = self.value(a);
        assert_eq!(val.shape().rank(), 1, "broadcast_cols expects a vector");
        let m = val.len();
        let mut data = Vec::with_capacity(m * n);
        for &x in val.data() {
            data.extend(std::iter::repeat_n(x, n));
        }
        let v = Tensor::from_vec(data, &[m, n]);
        self.push_unary(a, v, Op::BroadcastCols(a))
    }

    /// Reinterprets a variable with a new shape (same element count).
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let v = self.value(a).reshape(shape);
        self.push_unary(a, v, Op::Reshape(a))
    }

    /// Unfolds an image batch into convolution patch rows; see
    /// [`qd_tensor::im2col`].
    pub fn im2col(&mut self, a: Var, geo: Conv2dGeometry) -> Var {
        let v = im2col(self.value(a), &geo);
        self.push_unary(a, v, Op::Im2col(a, geo))
    }

    /// Folds patch rows back into an image batch; see
    /// [`qd_tensor::col2im`].
    pub fn col2im(&mut self, a: Var, geo: Conv2dGeometry) -> Var {
        let v = col2im(self.value(a), &geo);
        self.push_unary(a, v, Op::Col2im(a, geo))
    }

    /// Non-overlapping average pooling over an `(N, C, H, W)` variable.
    pub fn avg_pool2d(&mut self, a: Var, c: usize, h: usize, w: usize, k: usize) -> Var {
        let v = avg_pool2d(self.value(a), c, h, w, k);
        self.push_unary(a, v, Op::AvgPool(a, PoolGeo { c, h, w, k }))
    }

    /// Adjoint of [`Tape::avg_pool2d`]; input is `(N, C, OH, OW)`.
    pub fn avg_unpool2d(&mut self, a: Var, c: usize, oh: usize, ow: usize, k: usize) -> Var {
        let v = avg_unpool2d(self.value(a), c, oh, ow, k);
        self.push_unary(a, v, Op::AvgUnpool(a, PoolGeo { c, h: oh, w: ow, k }))
    }

    /// Permutes conv output rows `(N*OH*OW, C)` into `(N, C, OH, OW)`.
    pub fn rows_to_nchw(&mut self, a: Var, n: usize, c: usize, oh: usize, ow: usize) -> Var {
        let v = rows_to_planes(self.value(a), [n, c, oh, ow]);
        self.push_unary(a, v, Op::RowsToNchw(a, [n, c, oh, ow]))
    }

    /// Permutes `(N, C, OH, OW)` into rows `(N*OH*OW, C)`.
    pub fn nchw_to_rows(&mut self, a: Var, n: usize, c: usize, oh: usize, ow: usize) -> Var {
        let v = planes_to_rows(self.value(a), [n, c, oh, ow], c);
        self.push_unary(a, v, Op::NchwToRows(a, [n, c, oh, ow]))
    }

    /// Sums each `(n, c)` plane over its spatial extent:
    /// `(N, C, H, W) -> (N*C,)`.
    pub fn spatial_sum(&mut self, a: Var, c: usize, h: usize, w: usize) -> Var {
        let v = kernels::spatial_sum(self.value(a), c, h, w);
        self.push_unary(a, v, Op::SpatialSum(a, [c, h, w]))
    }

    /// Replicates a per-plane vector `(N*C,)` over spatial positions:
    /// `-> (N, C, H, W)`.
    pub fn spatial_broadcast(&mut self, a: Var, c: usize, h: usize, w: usize) -> Var {
        let v = kernels::spatial_broadcast(self.value(a), c, h, w);
        self.push_unary(a, v, Op::SpatialBroadcast(a, [c, h, w]))
    }

    /// Sums an `(N, C, H, W)` variable over batch and spatial axes:
    /// `-> (C,)`.
    pub fn channel_sum(&mut self, a: Var, c: usize, h: usize, w: usize) -> Var {
        let v = kernels::channel_sum(self.value(a), c, h, w);
        self.push_unary(a, v, Op::ChannelSum(a, [c, h, w]))
    }

    /// Replicates a per-channel vector `(C,)` over batch and spatial axes:
    /// `-> (N, C, H, W)`.
    pub fn channel_broadcast(&mut self, a: Var, n: usize, h: usize, w: usize) -> Var {
        let c = self.value(a).len();
        let v = kernels::channel_broadcast(self.value(a), n, h, w);
        self.push_unary(a, v, Op::ChannelBroadcast(a, [n, c, h, w]))
    }

    /// Numerically-stable row-wise log-softmax of a rank-2 variable.
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let v = self.value(a).log_softmax_rows();
        self.push_unary(a, v, Op::LogSoftmax(a))
    }

    /// Builds the gradients of scalar `y` with respect to each variable in
    /// `xs`, **as new differentiable nodes** on this tape.
    ///
    /// Variables in `xs` that `y` does not depend on receive zero tensors.
    /// Applying `grad` to one of the returned variables yields exact
    /// second-order derivatives. A gradient that is only read — a training
    /// step, or the outermost derivative — should use
    /// [`Tape::into_grads`], which computes the same bits and keeps none
    /// of this.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not a single-element variable, or on an inference
    /// tape.
    pub fn grad(&mut self, y: Var, xs: &[Var]) -> Vec<Var> {
        let adjoints = self.sweep(y, xs, false);
        xs.iter()
            .zip(adjoints)
            .map(|(x, adjoint)| {
                adjoint.unwrap_or_else(|| self.constant(Tensor::zeros(self.value(*x).dims())))
            })
            .collect()
    }

    /// The gradients of scalar `y` with respect to each variable in `xs`
    /// as plain tensors, consuming the tape: the terminal sweep.
    ///
    /// It is [`Tape::grad`]'s loop over [`Tape::grad`]'s rules in the same
    /// node order, so the result is bit-identical to reading `grad`'s
    /// output — but nothing is kept for a further derivative. A node's
    /// forward value is released once the sweep has passed it (every
    /// consumer has a higher index and has already run), a rule's
    /// temporaries when the rule returns, an adjoint when the last slot
    /// holding it is consumed, and accumulation is `acc += c` in place
    /// when `acc` has a single holder — the same additions in the same
    /// order. Variables `y` does not depend on receive zero tensors.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not a single-element variable, or on an inference
    /// tape.
    ///
    /// # Examples
    ///
    /// ```
    /// use qd_autograd::Tape;
    /// use qd_tensor::Tensor;
    ///
    /// let mut tape = Tape::new();
    /// let x = tape.leaf(Tensor::from_vec(vec![1.0, -2.0], &[2]));
    /// let sq = tape.mul(x, x);
    /// let y = tape.sum_all(sq);
    /// let grads = tape.into_grads(y, &[x]);
    /// assert_eq!(grads[0].data(), &[2.0, -4.0]);
    /// ```
    pub fn into_grads(mut self, y: Var, xs: &[Var]) -> Vec<Tensor> {
        self.sweep_terminal(y, xs)
    }

    /// [`Tape::into_grads`] on a borrowed tape, which is left spent (its
    /// forward values released): what tests use to read
    /// [`Tape::peak_value_bytes`] after the sweep.
    #[doc(hidden)]
    pub fn sweep_terminal(&mut self, y: Var, xs: &[Var]) -> Vec<Tensor> {
        let shapes: Vec<Vec<usize>> = xs.iter().map(|x| self.value(*x).dims().to_vec()).collect();
        let adjoints = self.sweep(y, xs, true);
        adjoints
            .iter()
            .zip(&shapes)
            .map(|(adjoint, dims)| match adjoint {
                Some(g) => self.value(*g).clone(),
                None => Tensor::zeros(dims),
            })
            .collect()
    }

    /// The reverse sweep behind [`Tape::grad`] and [`Tape::into_grads`]:
    /// the adjoint of `y` with respect to each of `xs` (`None` where `y`
    /// does not depend on it), as nodes on this tape.
    ///
    /// `terminal` changes what is kept and nothing that is computed. The
    /// liveness argument: a rule reads its own node, its inputs (lower
    /// indices) and its upstream adjoint, so when the sweep stands at
    /// `id` no later step reads a forward value above `id`, a temporary
    /// of an earlier rule, or an adjoint no slot points to any more.
    fn sweep(&mut self, y: Var, xs: &[Var], terminal: bool) -> Vec<Option<Var>> {
        assert!(
            self.kind != Kind::Inference && !self.swept,
            "cannot differentiate on the {}{}",
            self.kind.name(),
            if self.swept { " again" } else { "" }
        );
        assert!(
            terminal || self.kind == Kind::Recording,
            "cannot record a gradient on the {}: `into_grads` is its only sweep",
            self.kind.name()
        );
        assert_eq!(
            self.value(y).len(),
            1,
            "grad target must be scalar, got shape {}",
            self.value(y).shape()
        );
        let horizon = y.0 + 1;
        if terminal {
            self.swept = true;
            // Nothing recorded after `y` can feed it.
            for id in horizon..self.nodes.len() {
                self.release(Var(id));
            }
            self.nodes.truncate(horizon);
        }
        let mut adjoint: Vec<Option<Var>> = vec![None; horizon];
        // Terminal sweep only: how many adjoint slots (and entries of
        // `xs`, whose adjoints are the result) point at each node. The
        // pass-through rules (`Add`, `AddScalar`, a no-op reshape) hand
        // one upstream to several inputs, so it may be updated in place or
        // released only by its last holder.
        let mut holders: Vec<u32> = Vec::new();
        let seed = self.constant(Tensor::ones(self.value(y).dims()));
        adjoint[y.0] = Some(seed);
        if terminal {
            holders.resize(self.nodes.len(), 0);
            holders[seed.0] = 1;
        }
        for id in (0..horizon).rev() {
            if let (Some(upstream), true) = (adjoint[id], self.nodes[id].needs_grad) {
                let mark = self.nodes.len();
                let op = self.nodes[id].op;
                let contributions = self.vjp(Var(id), op, upstream);
                if terminal {
                    holders.resize(self.nodes.len(), 0);
                    if !xs.contains(&Var(id)) {
                        holders[upstream.0] -= 1;
                    }
                }
                for (input, c) in contributions.into_iter().flatten() {
                    debug_assert!(c.0 >= horizon, "a contribution is a node of the sweep");
                    let sum = match adjoint[input.0] {
                        None => c,
                        // `upstream` may yet be passed through by this
                        // rule's other contribution, and `acc == c` would
                        // read the buffer it writes.
                        Some(acc)
                            if terminal && holders[acc.0] == 1 && acc != c && acc != upstream =>
                        {
                            self.add_assign(acc, c);
                            continue;
                        }
                        Some(acc) => {
                            let sum = self.add(acc, c);
                            if terminal {
                                holders.resize(self.nodes.len(), 0);
                                holders[acc.0] -= 1;
                                if holders[acc.0] == 0 {
                                    self.release(acc);
                                }
                            }
                            sum
                        }
                    };
                    adjoint[input.0] = Some(sum);
                    if terminal {
                        holders[sum.0] += 1;
                    }
                }
                if terminal {
                    for held in std::iter::once(upstream.0).chain(mark..self.nodes.len()) {
                        if holders[held] == 0 {
                            self.release(Var(held));
                        }
                    }
                }
            }
            if terminal {
                self.release(Var(id));
            }
        }
        xs.iter()
            .map(|x| adjoint.get(x.0).copied().flatten())
            .collect()
    }

    /// `acc += c`, elementwise, in `acc`'s own buffer: the additions
    /// [`Tape::add`] would perform, without the third tensor.
    fn add_assign(&mut self, acc: Var, c: Var) {
        let mut sum = self.nodes[acc.0].value.take().expect("a held adjoint");
        let addend = self.value(c);
        assert_eq!(sum.dims(), addend.dims(), "adjoint shape mismatch");
        for (a, &b) in sum.data_mut().iter_mut().zip(addend.data()) {
            *a += b;
        }
        self.nodes[acc.0].value = Some(sum);
    }
}
