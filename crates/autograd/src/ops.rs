//! Differentiable primitive operations on [`Var`], and the `Op` record
//! each one leaves on the tape.
//!
//! Each op computes its forward value eagerly and records an `Op`: its
//! kind, its operands' node ids, and the scalars or spec its gradient
//! needs. Operand values are read back from the tape at backward time, so
//! recording an op clones no tensor (`sse_scaled`'s constant target aside)
//! and needs no heap beyond its forward value. `backward` holds every
//! gradient rule in one `match`; the long fused kernels it calls sit next
//! to their forwards in [`crate::fused`] and [`crate::vae_ops`].
//! Broadcasting binary ops fold gradients back to operand shape with
//! `Tensor::sum_to`.

use crate::fused::{add_bias_act_backward, FusedActivation};
use crate::tape::{BackwardCtx, GradSink, Tape, Var};
use crate::vae_ops::kl_between_fused_backward;
use muse_tensor::conv::{conv2d, conv2d_backward};
use muse_tensor::{Conv2dSpec, Tensor};
use std::ops::Range;

/// Declares [`Op`] from one list of variants, each with its fields and its
/// name, and derives [`Op::name`], [`Op::kind`] and [`Op::KINDS`] from it.
macro_rules! ops {
    ($($(#[$doc:meta])* $variant:ident $({ $($field:ident: $ty:ty),* })? => $name:literal,)*) => {
        /// One recorded operation. Operand fields are node ids, each
        /// recorded before the node that holds the op.
        pub(crate) enum Op {
            $($(#[$doc])* $variant $({ $($field: $ty),* })?,)*
        }

        impl Op {
            /// Number of op kinds.
            pub(crate) const KINDS: usize = [$($name),*].len();

            /// Short op name ("add", "matmul", …): the `<name>` of the
            /// `autograd.backward.<name>` histograms.
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $(Op::$variant { .. } => $name,)*
                }
            }

            /// Dense index of this op's kind, below [`Op::KINDS`].
            pub(crate) fn kind(&self) -> usize {
                enum Kind {
                    $($variant,)*
                }
                match self {
                    $(Op::$variant { .. } => Kind::$variant as usize,)*
                }
            }
        }
    };
}

ops! {
    /// A leaf or a constant: no operands and no gradient rule.
    Leaf => "leaf",
    Add { a: usize, b: usize } => "add",
    Sub { a: usize, b: usize } => "sub",
    Mul { a: usize, b: usize } => "mul",
    Div { a: usize, b: usize } => "div",
    Neg { a: usize } => "neg",
    AddScalar { a: usize } => "add_scalar",
    MulScalar { a: usize, s: f32 } => "mul_scalar",
    Exp { a: usize } => "exp",
    Ln { a: usize } => "ln",
    Square { a: usize } => "square",
    Sqrt { a: usize } => "sqrt",
    Tanh { a: usize } => "tanh",
    Sigmoid { a: usize } => "sigmoid",
    Relu { a: usize } => "relu",
    LeakyRelu { a: usize, slope: f32 } => "leaky_relu",
    Softplus { a: usize } => "softplus",
    Matmul { a: usize, b: usize } => "matmul",
    Conv2d { x: usize, w: usize, b: Option<usize>, spec: Conv2dSpec } => "conv2d",
    Sum { a: usize } => "sum",
    SumAxis { a: usize, axis: usize } => "sum_axis",
    SoftmaxLast { a: usize } => "softmax_last",
    Reshape { a: usize } => "reshape",
    /// `parts` is a range of the tape's operand list.
    Concat { parts: Range<usize>, axis: usize } => "concat",
    SliceAxis0 { a: usize, start: usize } => "slice_axis0",
    AddBiasAct { h: usize, b: usize, act: FusedActivation } => "add_bias_act",
    SseScaled { p: usize, target: Tensor, scale: f32 } => "sse_scaled",
    KlBetweenFused { mu1: usize, lv1: usize, mu2: usize, lv2: usize, k: f32 } => "kl_between_fused",
}

/// Accumulate the parent gradient contributions of the node `ctx`
/// differentiates, whose op is `op`, into `sink`.
pub(crate) fn backward(op: &Op, ctx: &BackwardCtx<'_>, sink: &mut GradSink<'_>) {
    let g = ctx.grad();
    match *op {
        Op::Leaf => {}
        Op::Add { a, b } => {
            sink.add_sum_to(a, g, ctx.value(a).dims());
            sink.add_sum_to(b, g, ctx.value(b).dims());
        }
        Op::Sub { a, b } => {
            sink.add_sum_to(a, g, ctx.value(a).dims());
            sink.add_sum_to_scaled(b, g, ctx.value(b).dims(), -1.0);
        }
        Op::Mul { a: la, b: lb } => {
            let (a, b) = (ctx.value(la), ctx.value(lb));
            if g.dims() == a.dims() && a.dims() == b.dims() {
                sink.add_zip(la, g, b, |gi, bi| gi * bi);
                sink.add_zip(lb, g, a, |gi, ai| gi * ai);
            } else {
                sink.add_sum_to(la, &g.mul(b), a.dims());
                sink.add_sum_to(lb, &g.mul(a), b.dims());
            }
        }
        Op::Div { a: la, b: lb } => {
            let (a, b) = (ctx.value(la), ctx.value(lb));
            if g.dims() == a.dims() && a.dims() == b.dims() {
                sink.add_zip(la, g, b, |gi, bi| gi / bi);
            } else {
                sink.add_sum_to(la, &g.div(b), a.dims());
            }
            sink.add_sum_to(lb, &g.mul(a).div(&b.square()).neg(), b.dims());
        }
        Op::Neg { a } => sink.add_scaled(a, g, -1.0),
        Op::AddScalar { a } => sink.add(a, g),
        Op::MulScalar { a, s } => sink.add_scaled(a, g, s),
        // d exp = exp(x), read from the saved output.
        Op::Exp { a } => sink.add_zip(a, g, ctx.out(), |g, y| g * y),
        Op::Ln { a } => sink.add_zip(a, g, ctx.value(a), |g, x| g / x),
        Op::Square { a } => sink.add_zip(a, g, ctx.value(a), |g, x| (g * x) * 2.0),
        Op::Sqrt { a } => sink.add_zip(a, g, ctx.out(), |g, y| g / (y * 2.0)),
        // d tanh = 1 - tanh^2
        Op::Tanh { a } => sink.add_zip(a, g, ctx.out(), |g, y| g * (1.0 - y * y)),
        // d sigmoid = s (1 - s)
        Op::Sigmoid { a } => sink.add_zip(a, g, ctx.out(), |g, y| g * (y * (1.0 - y))),
        Op::Relu { a } => sink.add_zip(a, g, ctx.value(a), |g, x| g * if x > 0.0 { 1.0 } else { 0.0 }),
        Op::LeakyRelu { a, slope } => {
            sink.add_zip(a, g, ctx.value(a), move |g, x| g * if x > 0.0 { 1.0 } else { slope })
        }
        // d softplus = sigmoid(x), recomputed from the saved input with the
        // same scalar expression as `Tensor::sigmoid`.
        Op::Softplus { a } => sink.add_zip(a, g, ctx.value(a), |g, x| g * (1.0 / (1.0 + (-x).exp()))),
        Op::Matmul { a, b } => {
            // dA = G B^T ; dB = A^T G
            sink.add_owned(a, g.matmul_bt(ctx.value(b)));
            sink.add_owned(b, ctx.value(a).matmul_at(g));
        }
        Op::Conv2d { x, w, b, spec } => {
            let (gx, gw, gb) = conv2d_backward(ctx.value(x), ctx.value(w), g, &spec);
            sink.add_owned(x, gx);
            sink.add_owned(w, gw);
            if let Some(b) = b {
                sink.add_owned(b, gb);
            }
        }
        Op::Sum { a } => sink.add_splat(a, ctx.value(a).dims(), g.item()),
        Op::SumAxis { a, axis } => {
            // Broadcast the reduced gradient back across `axis`.
            let grad = g.unsqueeze(axis).add(&Tensor::zeros(ctx.value(a).dims()));
            sink.add_owned(a, grad);
        }
        Op::SoftmaxLast { a } => {
            // dx = y * (g - sum(g * y, last, keepdim))
            let y = ctx.out();
            let dims = y.dims();
            let inner = dims[dims.len() - 1];
            let outer = y.len() / inner.max(1);
            let mut grad = Tensor::zeros(dims);
            {
                let (ys, gs, out) = (y.as_slice(), g.as_slice(), grad.as_mut_slice());
                for o in 0..outer {
                    let row = o * inner..(o + 1) * inner;
                    let dot: f32 =
                        ys[row.clone()].iter().zip(&gs[row.clone()]).map(|(&yi, &gi)| gi * yi).sum();
                    for k in row {
                        out[k] = ys[k] * (gs[k] - dot);
                    }
                }
            }
            sink.add_owned(a, grad);
        }
        Op::Reshape { a } => sink.add_flat(a, g, ctx.value(a).dims()),
        Op::Concat { ref parts, axis } => {
            let ids = ctx.operands(parts.clone());
            let sizes: Vec<usize> = ids.iter().map(|&id| ctx.value(id).dims()[axis]).collect();
            for (&id, piece) in ids.iter().zip(g.split(axis, &sizes)) {
                sink.add_owned(id, piece);
            }
        }
        Op::SliceAxis0 { a, start } => {
            let dims = ctx.value(a).dims();
            let chunk: usize = dims[1..].iter().product();
            sink.add_range(a, dims, start * chunk, g);
        }
        Op::AddBiasAct { h, b, act } => add_bias_act_backward(h, b, act, ctx, sink),
        Op::SseScaled { p, ref target, scale } => {
            // d/dp [scale · Σ(p−t)²] = 2·scale·(p−t), folded exactly as the
            // mul_scalar → sum → square backward chain computes it.
            let k = g.item() * scale;
            sink.add_zip(p, ctx.value(p), target, move |p, t| (k * (p - t)) * 2.0);
        }
        Op::KlBetweenFused { mu1, lv1, mu2, lv2, k } => {
            kl_between_fused_backward([mu1, lv1, mu2, lv2], k, ctx, sink)
        }
    }
}

/// Compute a binary forward value from two recorded nodes without cloning
/// either operand.
fn binary_forward(tape: &Tape, a: usize, b: usize, f: impl FnOnce(&Tensor, &Tensor) -> Tensor) -> Tensor {
    let nodes = tape.nodes.borrow();
    f(&nodes[a].value, &nodes[b].value)
}

impl<'t> Var<'t> {
    // ------------------------------------------------------------ binary ops

    /// Elementwise (broadcasting) addition.
    pub fn add(&self, rhs: &Var<'t>) -> Var<'t> {
        let (a, b) = (self.id(), rhs.id());
        self.tape().push(binary_forward(self.tape(), a, b, |a, b| a.add(b)), Op::Add { a, b })
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, rhs: &Var<'t>) -> Var<'t> {
        let (a, b) = (self.id(), rhs.id());
        self.tape().push(binary_forward(self.tape(), a, b, |a, b| a.sub(b)), Op::Sub { a, b })
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, rhs: &Var<'t>) -> Var<'t> {
        let (a, b) = (self.id(), rhs.id());
        self.tape().push(binary_forward(self.tape(), a, b, |a, b| a.mul(b)), Op::Mul { a, b })
    }

    /// Elementwise (broadcasting) division.
    pub fn div(&self, rhs: &Var<'t>) -> Var<'t> {
        let (a, b) = (self.id(), rhs.id());
        self.tape().push(binary_forward(self.tape(), a, b, |a, b| a.div(b)), Op::Div { a, b })
    }

    // ------------------------------------------------------------- unary ops

    /// Record `op` over this variable's value mapped through `f`.
    fn unary(&self, f: impl FnOnce(&Tensor) -> Tensor, op: Op) -> Var<'t> {
        self.tape().push(self.with_value(f), op)
    }

    /// Negation.
    pub fn neg(&self) -> Var<'t> {
        self.unary(|x| x.neg(), Op::Neg { a: self.id() })
    }

    /// Add a scalar constant.
    pub fn add_scalar(&self, s: f32) -> Var<'t> {
        self.unary(|x| x.add_scalar(s), Op::AddScalar { a: self.id() })
    }

    /// Multiply by a scalar constant.
    pub fn mul_scalar(&self, s: f32) -> Var<'t> {
        self.unary(|x| x.mul_scalar(s), Op::MulScalar { a: self.id(), s })
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var<'t> {
        self.unary(|x| x.exp(), Op::Exp { a: self.id() })
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var<'t> {
        self.unary(|x| x.ln(), Op::Ln { a: self.id() })
    }

    /// Elementwise square.
    pub fn square(&self) -> Var<'t> {
        self.unary(|x| x.square(), Op::Square { a: self.id() })
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var<'t> {
        self.unary(|x| x.sqrt(), Op::Sqrt { a: self.id() })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var<'t> {
        self.unary(|x| x.tanh(), Op::Tanh { a: self.id() })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var<'t> {
        self.unary(|x| x.sigmoid(), Op::Sigmoid { a: self.id() })
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var<'t> {
        self.unary(|x| x.relu(), Op::Relu { a: self.id() })
    }

    /// Leaky rectified linear unit: `x` for `x > 0`, `slope·x` otherwise.
    /// Avoids dead units on inputs with strongly negative mean (the scaled
    /// traffic tensors concentrate near −1).
    pub fn leaky_relu(&self, slope: f32) -> Var<'t> {
        self.unary(|x| x.map(|v| if v > 0.0 { v } else { slope * v }), Op::LeakyRelu { a: self.id(), slope })
    }

    /// Softplus `ln(1 + e^x)` — a smooth positive map used to keep standard
    /// deviations positive in some encoders.
    pub fn softplus(&self) -> Var<'t> {
        // Numerically stable: max(v,0) + ln(1 + e^{-|v|}).
        self.unary(|x| x.map(|v| v.max(0.0) + (1.0 + (-v.abs()).exp()).ln()), Op::Softplus { a: self.id() })
    }

    // ---------------------------------------------------------------- linalg

    /// Matrix product of two rank-2 variables.
    pub fn matmul(&self, rhs: &Var<'t>) -> Var<'t> {
        let (a, b) = (self.id(), rhs.id());
        self.tape().push(binary_forward(self.tape(), a, b, |a, b| a.matmul(b)), Op::Matmul { a, b })
    }

    /// 2-D convolution with weight and optional bias variables.
    pub fn conv2d(&self, weight: &Var<'t>, bias: Option<&Var<'t>>, spec: Conv2dSpec) -> Var<'t> {
        let (x, w, b) = (self.id(), weight.id(), bias.map(|b| b.id()));
        let out = {
            let nodes = self.tape().nodes.borrow();
            conv2d(&nodes[x].value, &nodes[w].value, b.map(|b| &*nodes[b].value), &spec)
        };
        self.tape().push(out, Op::Conv2d { x, w, b, spec })
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements, as a rank-0 variable.
    pub fn sum(&self) -> Var<'t> {
        self.unary(|x| Tensor::scalar(x.sum()), Op::Sum { a: self.id() })
    }

    /// Mean of all elements, as a rank-0 variable.
    pub fn mean(&self) -> Var<'t> {
        let n = self.len() as f32;
        self.sum().mul_scalar(1.0 / n)
    }

    /// Sum along `axis`, dropping it.
    pub fn sum_axis(&self, axis: usize) -> Var<'t> {
        self.unary(|x| x.sum_axis(axis), Op::SumAxis { a: self.id(), axis })
    }

    /// Mean along `axis`, dropping it.
    pub fn mean_axis(&self, axis: usize) -> Var<'t> {
        let n = self.dims()[axis] as f32;
        self.sum_axis(axis).mul_scalar(1.0 / n)
    }

    /// Softmax along the last axis.
    pub fn softmax_last(&self) -> Var<'t> {
        self.unary(|x| x.softmax_last(), Op::SoftmaxLast { a: self.id() })
    }

    // ------------------------------------------------------------- structure

    /// Reshape to `dims` (element count must match).
    pub fn reshape(&self, dims: &[usize]) -> Var<'t> {
        self.unary(|x| x.reshaped(dims), Op::Reshape { a: self.id() })
    }

    /// Concatenate variables along `axis`.
    pub fn concat(parts: &[Var<'t>], axis: usize) -> Var<'t> {
        assert!(!parts.is_empty(), "concat of zero vars");
        let tape = parts[0].tape();
        let out = {
            let nodes = tape.nodes.borrow();
            let refs: Vec<&Tensor> = parts.iter().map(|p| &*nodes[p.id()].value).collect();
            Tensor::concat(&refs, axis)
        };
        let parts = tape.push_operands(parts.iter().map(|p| p.id()));
        tape.push(out, Op::Concat { parts, axis })
    }

    /// Slice `[start, end)` along axis 0.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Var<'t> {
        self.unary(|x| x.slice_axis0(start, end), Op::SliceAxis0 { a: self.id(), start })
    }
}

#[cfg(test)]
mod tests {
    use super::Op;
    use crate::fused::FusedActivation;
    use crate::tape::{Tape, Var};
    use crate::vae_ops::kl_between_fused;
    use muse_obs as obs;
    use muse_tensor::{Conv2dSpec, Tensor};

    #[test]
    fn backward_times_every_op_under_its_histogram_name() {
        let _g = obs::test_lock();
        obs::enable();
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0], &[2, 3]));
        let y = tape.leaf(Tensor::from_vec(vec![1.5, -1.0, 0.5, 2.0, -0.5, 1.0], &[2, 3]));
        let b = tape.leaf(Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]));
        let w = tape.leaf(Tensor::ones(&[3, 2]));
        let k = tape.leaf(Tensor::ones(&[1, 1, 3, 3]));
        let kb = tape.leaf(Tensor::zeros(&[1]));
        let spec = Conv2dSpec::same(1, 1, 3);
        let terms = [
            x.add(&y),
            x.sub(&y),
            x.mul(&y),
            x.div(&y),
            x.neg(),
            x.add_scalar(1.0),
            x.mul_scalar(2.0),
            x.exp(),
            x.ln(),
            x.square(),
            x.sqrt(),
            x.tanh(),
            x.sigmoid(),
            x.relu(),
            x.leaky_relu(0.1),
            x.softplus(),
            x.matmul(&w),
            x.reshape(&[1, 1, 2, 3]).conv2d(&k, Some(&kb), spec),
            x.sum_axis(1),
            x.softmax_last(),
            Var::concat(&[x, y], 0),
            x.slice_axis0(1, 2),
            x.add_bias_act(&b, FusedActivation::Tanh),
            x.sse_scaled(&Tensor::zeros(&[2, 3]), 0.5),
            kl_between_fused(&x, &y, &y, &x),
        ];
        let loss = terms.iter().map(|t| t.sum()).reduce(|acc, t| acc.add(&t)).unwrap();
        let recorded: std::collections::BTreeSet<usize> =
            tape.nodes.borrow().iter().map(|n| n.op.kind()).collect();
        assert_eq!(recorded.len(), Op::KINDS, "the graph must record every op kind");
        drop(tape.backward(loss));
        obs::disable();
        for name in [
            "add",
            "sub",
            "mul",
            "div",
            "neg",
            "add_scalar",
            "mul_scalar",
            "exp",
            "ln",
            "square",
            "sqrt",
            "tanh",
            "sigmoid",
            "relu",
            "leaky_relu",
            "softplus",
            "matmul",
            "conv2d",
            "sum",
            "sum_axis",
            "softmax_last",
            "reshape",
            "concat",
            "slice_axis0",
            "add_bias_act",
            "sse_scaled",
            "kl_between_fused",
        ] {
            let histogram = obs::metrics::histogram_owned(&format!("autograd.backward.{name}"));
            assert!(histogram.count() > 0, "no autograd.backward.{name} histogram was recorded");
        }
    }

    #[test]
    fn add_broadcast_bias_grad_folds() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[4, 3]));
        let b = tape.leaf(Tensor::zeros(&[3]));
        let y = x.add(&b);
        let loss = y.sum();
        let grads = tape.backward(loss);
        // Bias gradient folds over the batch dimension.
        assert_eq!(grads.get(b).unwrap().as_slice(), &[4.0, 4.0, 4.0]);
        assert_eq!(grads.get(x).unwrap().dims(), &[4, 3]);
    }

    #[test]
    fn mul_product_rule() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let b = tape.leaf(Tensor::from_vec(vec![5.0, 7.0], &[2]));
        let loss = a.mul(&b).sum();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().as_slice(), &[5.0, 7.0]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn div_quotient_rule() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![6.0], &[1]));
        let b = tape.leaf(Tensor::from_vec(vec![3.0], &[1]));
        let loss = a.div(&b).sum();
        let grads = tape.backward(loss);
        assert!((grads.get(a).unwrap().as_slice()[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((grads.get(b).unwrap().as_slice()[0] + 6.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_grads_have_right_shapes_and_values() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::arange(0.0, 6.0).reshape(&[2, 3]));
        let b = tape.leaf(Tensor::arange(0.0, 12.0).reshape(&[3, 4]));
        let loss = a.matmul(&b).sum();
        let grads = tape.backward(loss);
        // dA = ones(2,4) B^T → each row is the row sums of B.
        let ga = grads.get(a).unwrap();
        assert_eq!(ga.dims(), &[2, 3]);
        assert_eq!(ga.at(&[0, 0]), 0.0 + 1.0 + 2.0 + 3.0);
        assert_eq!(ga.at(&[1, 2]), 8.0 + 9.0 + 10.0 + 11.0);
        // dB = A^T ones(2,4) → each row j is the column sums of A.
        let gb = grads.get(b).unwrap();
        assert_eq!(gb.dims(), &[3, 4]);
        assert_eq!(gb.at(&[0, 0]), 0.0 + 3.0);
        assert_eq!(gb.at(&[2, 3]), 2.0 + 5.0);
    }

    #[test]
    fn tanh_grad_at_zero_is_one() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[1]));
        let loss = x.tanh().sum();
        let grads = tape.backward(loss);
        assert!((grads.get(x).unwrap().as_slice()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relu_kills_negative_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        let loss = x.relu().sum();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn chained_ops_accumulate() {
        // loss = sum(x^2 + 3x) → grad = 2x + 3.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, -2.0], &[2]));
        let loss = x.square().add(&x.mul_scalar(3.0)).sum();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[5.0, -1.0]);
    }

    #[test]
    fn reused_var_accumulates_grad() {
        // loss = sum(x * x) via two separate uses of x.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![3.0], &[1]));
        let loss = x.mul(&x).sum();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[6.0]);
    }

    #[test]
    fn conv2d_records_all_grads() {
        let tape = Tape::new();
        let spec = Conv2dSpec::same(1, 1, 3);
        let x = tape.leaf(Tensor::ones(&[1, 1, 4, 4]));
        let w = tape.leaf(Tensor::ones(&[1, 1, 3, 3]));
        let b = tape.leaf(Tensor::zeros(&[1]));
        let y = x.conv2d(&w, Some(&b), spec);
        let loss = y.sum();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().dims(), &[1, 1, 4, 4]);
        assert_eq!(grads.get(w).unwrap().dims(), &[1, 1, 3, 3]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[16.0]);
    }

    #[test]
    fn concat_splits_gradient() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[2, 2]));
        let b = tape.leaf(Tensor::zeros(&[2, 3]));
        let c = crate::tape::Var::concat(&[a, b], 1);
        assert_eq!(c.dims(), vec![2, 5]);
        let loss = c.mul_scalar(2.0).sum();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().as_slice(), &[2.0; 4]);
        assert_eq!(grads.get(b).unwrap().as_slice(), &[2.0; 6]);
    }

    #[test]
    fn slice_axis0_scatter_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(0.0, 6.0).reshape(&[3, 2]));
        let s = x.slice_axis0(1, 2);
        let loss = s.sum();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn slice_axis0_grad_accumulates_into_existing_slot() {
        // x used both whole and sliced: grad = ones + scatter(ones).
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(0.0, 6.0).reshape(&[3, 2]));
        let loss = x.sum().add(&x.slice_axis0(1, 2).sum());
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        // Softmax gradient rows always sum to ~0 (shift invariance).
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]));
        let y = x.softmax_last();
        // Weighted loss to get a non-trivial gradient.
        let w = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let loss = y.mul(&w).sum();
        let grads = tape.backward(loss);
        let gx = grads.get(x).unwrap();
        assert!(gx.sum().abs() < 1e-5);
    }

    #[test]
    fn sum_axis_backward_broadcasts() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(0.0, 6.0).reshape(&[2, 3]));
        let s = x.sum_axis(1);
        assert_eq!(s.dims(), vec![2]);
        let loss = s.mul_scalar(3.0).sum();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[3.0; 6]);
    }

    #[test]
    fn mean_grad_is_uniform() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[4]));
        let loss = x.mean();
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[0.25; 4]);
    }

    #[test]
    fn reshape_grad_accumulates_flat() {
        // x used directly and through a reshape; both grads accumulate.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(0.0, 4.0).reshape(&[2, 2]));
        let loss = x.sum().add(&x.reshape(&[4]).mul_scalar(2.0).sum());
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().as_slice(), &[3.0; 4]);
        assert_eq!(grads.get(x).unwrap().dims(), &[2, 2]);
    }
}
