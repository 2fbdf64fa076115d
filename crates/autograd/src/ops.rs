//! Differentiable primitive operations on [`Var`].
//!
//! Each op computes the forward value eagerly and records a closure that
//! accumulates parent gradient contributions through a
//! [`crate::tape::GradSink`]. Closures capture only node ids, scalars, and
//! op specs; operand values are read back from the tape at backward time, so
//! recording an op never clones a tensor. Broadcasting binary ops fold
//! gradients back to operand shape with `Tensor::sum_to`.

use crate::tape::{Tape, Var};
use muse_tensor::conv::{conv2d, conv2d_backward};
use muse_tensor::{Conv2dSpec, Tensor};

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
        let (la, lb) = (self.id(), rhs.id());
        let out = binary_forward(self.tape(), la, lb, |a, b| a.add(b));
        self.tape().push(
            "add",
            out,
            Some(Box::new(move |ctx, sink| {
                let g = ctx.grad();
                sink.add_sum_to(la, g, ctx.value(la).dims());
                sink.add_sum_to(lb, g, ctx.value(lb).dims());
            })),
        )
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, rhs: &Var<'t>) -> Var<'t> {
        let (la, lb) = (self.id(), rhs.id());
        let out = binary_forward(self.tape(), la, lb, |a, b| a.sub(b));
        self.tape().push(
            "sub",
            out,
            Some(Box::new(move |ctx, sink| {
                let g = ctx.grad();
                sink.add_sum_to(la, g, ctx.value(la).dims());
                sink.add_sum_to_scaled(lb, g, ctx.value(lb).dims(), -1.0);
            })),
        )
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, rhs: &Var<'t>) -> Var<'t> {
        let (la, lb) = (self.id(), rhs.id());
        let out = binary_forward(self.tape(), la, lb, |a, b| a.mul(b));
        self.tape().push(
            "mul",
            out,
            Some(Box::new(move |ctx, sink| {
                let g = ctx.grad();
                let (a, b) = (ctx.value(la), ctx.value(lb));
                if g.dims() == a.dims() && a.dims() == b.dims() {
                    sink.add_zip(la, g, b, |gi, bi| gi * bi);
                    sink.add_zip(lb, g, a, |gi, ai| gi * ai);
                } else {
                    sink.add_sum_to(la, &g.mul(b), a.dims());
                    sink.add_sum_to(lb, &g.mul(a), b.dims());
                }
            })),
        )
    }

    /// Elementwise (broadcasting) division.
    pub fn div(&self, rhs: &Var<'t>) -> Var<'t> {
        let (la, lb) = (self.id(), rhs.id());
        let out = binary_forward(self.tape(), la, lb, |a, b| a.div(b));
        self.tape().push(
            "div",
            out,
            Some(Box::new(move |ctx, sink| {
                let g = ctx.grad();
                let (a, b) = (ctx.value(la), ctx.value(lb));
                if g.dims() == a.dims() && a.dims() == b.dims() {
                    sink.add_zip(la, g, b, |gi, bi| gi / bi);
                } else {
                    sink.add_sum_to(la, &g.div(b), a.dims());
                }
                sink.add_sum_to(lb, &g.mul(a).div(&b.square()).neg(), b.dims());
            })),
        )
    }

    // ------------------------------------------------------------- unary ops

    /// Negation.
    pub fn neg(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.neg());
        self.tape().push("neg", out, Some(Box::new(move |ctx, sink| sink.add_scaled(la, ctx.grad(), -1.0))))
    }

    /// Add a scalar constant.
    pub fn add_scalar(&self, s: f32) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.add_scalar(s));
        self.tape().push("add_scalar", out, Some(Box::new(move |ctx, sink| sink.add(la, ctx.grad()))))
    }

    /// Multiply by a scalar constant.
    pub fn mul_scalar(&self, s: f32) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.mul_scalar(s));
        self.tape().push(
            "mul_scalar",
            out,
            Some(Box::new(move |ctx, sink| sink.add_scaled(la, ctx.grad(), s))),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.exp());
        self.tape().push(
            "exp",
            out,
            Some(Box::new(move |ctx, sink| {
                // d exp = exp(x), read from the saved output.
                sink.add_zip(la, ctx.grad(), ctx.out(), |g, y| g * y);
            })),
        )
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.ln());
        self.tape().push(
            "ln",
            out,
            Some(Box::new(move |ctx, sink| {
                sink.add_zip(la, ctx.grad(), ctx.value(la), |g, x| g / x);
            })),
        )
    }

    /// Elementwise square.
    pub fn square(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.square());
        self.tape().push(
            "square",
            out,
            Some(Box::new(move |ctx, sink| {
                sink.add_zip(la, ctx.grad(), ctx.value(la), |g, x| (g * x) * 2.0);
            })),
        )
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.sqrt());
        self.tape().push(
            "sqrt",
            out,
            Some(Box::new(move |ctx, sink| {
                sink.add_zip(la, ctx.grad(), ctx.out(), |g, y| g / (y * 2.0));
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.tanh());
        self.tape().push(
            "tanh",
            out,
            Some(Box::new(move |ctx, sink| {
                // d tanh = 1 - tanh^2
                sink.add_zip(la, ctx.grad(), ctx.out(), |g, y| g * (1.0 - y * y));
            })),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.sigmoid());
        self.tape().push(
            "sigmoid",
            out,
            Some(Box::new(move |ctx, sink| {
                // d sigmoid = s (1 - s)
                sink.add_zip(la, ctx.grad(), ctx.out(), |g, y| g * (y * (1.0 - y)));
            })),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.relu());
        self.tape().push(
            "relu",
            out,
            Some(Box::new(move |ctx, sink| {
                sink.add_zip(la, ctx.grad(), ctx.value(la), |g, x| g * if x > 0.0 { 1.0 } else { 0.0 });
            })),
        )
    }

    /// Leaky rectified linear unit: `x` for `x > 0`, `slope·x` otherwise.
    /// Avoids dead units on inputs with strongly negative mean (the scaled
    /// traffic tensors concentrate near −1).
    pub fn leaky_relu(&self, slope: f32) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.map(|v| if v > 0.0 { v } else { slope * v }));
        self.tape().push(
            "leaky_relu",
            out,
            Some(Box::new(move |ctx, sink| {
                sink.add_zip(la, ctx.grad(), ctx.value(la), move |g, x| {
                    g * if x > 0.0 { 1.0 } else { slope }
                });
            })),
        )
    }

    /// Softplus `ln(1 + e^x)` — a smooth positive map used to keep standard
    /// deviations positive in some encoders.
    pub fn softplus(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| {
            x.map(|v| {
                // Numerically stable: max(v,0) + ln(1 + e^{-|v|}).
                v.max(0.0) + (1.0 + (-v.abs()).exp()).ln()
            })
        });
        self.tape().push(
            "softplus",
            out,
            Some(Box::new(move |ctx, sink| {
                // d softplus = sigmoid(x), recomputed from the saved input
                // with the same scalar expression as `Tensor::sigmoid`.
                sink.add_zip(la, ctx.grad(), ctx.value(la), |g, x| g * (1.0 / (1.0 + (-x).exp())));
            })),
        )
    }

    // ---------------------------------------------------------------- linalg

    /// Matrix product of two rank-2 variables.
    pub fn matmul(&self, rhs: &Var<'t>) -> Var<'t> {
        let (la, lb) = (self.id(), rhs.id());
        let out = binary_forward(self.tape(), la, lb, |a, b| a.matmul(b));
        self.tape().push(
            "matmul",
            out,
            Some(Box::new(move |ctx, sink| {
                // dA = G B^T ; dB = A^T G
                let g = ctx.grad();
                sink.add_owned(la, g.matmul_bt(ctx.value(lb)));
                sink.add_owned(lb, ctx.value(la).matmul_at(g));
            })),
        )
    }

    /// 2-D convolution with weight and optional bias variables.
    pub fn conv2d(&self, weight: &Var<'t>, bias: Option<&Var<'t>>, spec: Conv2dSpec) -> Var<'t> {
        let (lx, lw) = (self.id(), weight.id());
        let lb = bias.map(|b| b.id());
        let out = {
            let nodes = self.tape().nodes.borrow();
            let b = lb.map(|lb| &*nodes[lb].value);
            conv2d(&nodes[lx].value, &nodes[lw].value, b, &spec)
        };
        self.tape().push(
            "conv2d",
            out,
            Some(Box::new(move |ctx, sink| {
                let (gx, gw, gb) = conv2d_backward(ctx.value(lx), ctx.value(lw), ctx.grad(), &spec);
                sink.add_owned(lx, gx);
                sink.add_owned(lw, gw);
                if let Some(lb) = lb {
                    sink.add_owned(lb, gb);
                }
            })),
        )
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements, as a rank-0 variable.
    pub fn sum(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| Tensor::scalar(x.sum()));
        self.tape().push(
            "sum",
            out,
            Some(Box::new(move |ctx, sink| {
                sink.add_splat(la, ctx.value(la).dims(), ctx.grad().item());
            })),
        )
    }

    /// Mean of all elements, as a rank-0 variable.
    pub fn mean(&self) -> Var<'t> {
        let n = self.len() as f32;
        self.sum().mul_scalar(1.0 / n)
    }

    /// Sum along `axis`, dropping it.
    pub fn sum_axis(&self, axis: usize) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.sum_axis(axis));
        self.tape().push(
            "sum_axis",
            out,
            Some(Box::new(move |ctx, sink| {
                // Broadcast the reduced gradient back across `axis`.
                let dims = ctx.value(la).dims();
                let grad = ctx.grad().unsqueeze(axis).add(&Tensor::zeros(dims));
                sink.add_owned(la, grad);
            })),
        )
    }

    /// Mean along `axis`, dropping it.
    pub fn mean_axis(&self, axis: usize) -> Var<'t> {
        let n = self.dims()[axis] as f32;
        self.sum_axis(axis).mul_scalar(1.0 / n)
    }

    /// Softmax along the last axis.
    pub fn softmax_last(&self) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.softmax_last());
        self.tape().push(
            "softmax_last",
            out,
            Some(Box::new(move |ctx, sink| {
                // dx = y * (g - sum(g * y, last, keepdim))
                let y = ctx.out();
                let g = ctx.grad();
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
                sink.add_owned(la, grad);
            })),
        )
    }

    // ------------------------------------------------------------- structure

    /// Reshape to `dims` (element count must match).
    pub fn reshape(&self, dims: &[usize]) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.reshaped(dims));
        self.tape().push(
            "reshape",
            out,
            Some(Box::new(move |ctx, sink| {
                sink.add_flat(la, ctx.grad(), ctx.value(la).dims());
            })),
        )
    }

    /// Concatenate variables along `axis`.
    pub fn concat(parts: &[Var<'t>], axis: usize) -> Var<'t> {
        assert!(!parts.is_empty(), "concat of zero vars");
        let tape = parts[0].tape();
        let ids: Vec<usize> = parts.iter().map(|p| p.id()).collect();
        let (out, sizes) = {
            let nodes = tape.nodes.borrow();
            let refs: Vec<&Tensor> = ids.iter().map(|&id| &*nodes[id].value).collect();
            let sizes: Vec<usize> = refs.iter().map(|v| v.dims()[axis]).collect();
            (Tensor::concat(&refs, axis), sizes)
        };
        tape.push(
            "concat",
            out,
            Some(Box::new(move |ctx, sink| {
                let pieces = ctx.grad().split(axis, &sizes);
                for (&id, piece) in ids.iter().zip(pieces) {
                    sink.add_owned(id, piece);
                }
            })),
        )
    }

    /// Slice `[start, end)` along axis 0.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Var<'t> {
        let la = self.id();
        let out = self.with_value(|x| x.slice_axis0(start, end));
        self.tape().push(
            "slice_axis0",
            out,
            Some(Box::new(move |ctx, sink| {
                let dims = ctx.value(la).dims();
                let chunk: usize = dims[1..].iter().product();
                sink.add_range(la, dims, start * chunk, ctx.grad());
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::tape::Tape;
    use muse_tensor::{Conv2dSpec, Tensor};

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
