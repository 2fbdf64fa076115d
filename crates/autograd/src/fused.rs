//! Fused forward/backward kernels for dominant op chains.
//!
//! The training profile is dominated by a few short chains — `matmul → add
//! bias → activation` in every MLP layer, and `sub → square → sum →
//! mul_scalar` in the reconstruction/regression losses. Recording them as
//! single nodes halves the tape traffic and replaces several full-size
//! temporaries with one pass over the data.
//!
//! Every fused kernel is **bit-identical** to the composition of primitives
//! it replaces: the scalar expressions are copied from the unfused ops, and
//! reductions keep the same association (ascending-row bias folds, the
//! chunked SSE of [`Tensor::sse`]).

use crate::ops::Op;
use crate::tape::{BackwardCtx, GradSink, Var};
use muse_tensor::{arena, simd, Tensor};

/// Activation selector for [`Var::add_bias_act`]. Only activations whose
/// derivative is recoverable from the *output* are fusable (softplus needs
/// the pre-activation input and stays on the composed path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedActivation {
    /// No-op: the node is just the broadcast bias add.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// `x` for `x > 0`, `slope·x` otherwise. `slope` must be positive so the
    /// sign of the output determines the active branch.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl FusedActivation {
    /// Forward map, scalar-for-scalar identical to the `Tensor` elementwise
    /// kernels (`relu`, `tanh`, `sigmoid`, and the leaky-relu map in
    /// `Var::leaky_relu`).
    #[inline]
    fn forward(self, x: f32) -> f32 {
        match self {
            FusedActivation::Identity => x,
            FusedActivation::Relu => x.max(0.0),
            FusedActivation::LeakyRelu(s) => {
                if x > 0.0 {
                    x
                } else {
                    s * x
                }
            }
            FusedActivation::Tanh => x.tanh(),
            FusedActivation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Chain-rule factor applied to the upstream gradient `g`, written in
    /// terms of the saved output `y` with the exact expressions of the
    /// unfused ops' gradient rules.
    #[inline]
    fn backward(self, g: f32, y: f32) -> f32 {
        match self {
            FusedActivation::Identity => g,
            // y > 0 ⟺ x > 0 for (leaky) relu with positive slope.
            FusedActivation::Relu => g * if y > 0.0 { 1.0 } else { 0.0 },
            FusedActivation::LeakyRelu(s) => g * if y > 0.0 { 1.0 } else { s },
            FusedActivation::Tanh => g * (1.0 - y * y),
            FusedActivation::Sigmoid => g * (y * (1.0 - y)),
        }
    }

    /// The vectorized kernel equivalent, when one exists. Tanh/Sigmoid are
    /// transcendental and stay on the scalar path (libm calls don't
    /// vectorize without changing bits).
    #[inline]
    fn simd_kernel(self) -> Option<simd::Activation> {
        match self {
            FusedActivation::Identity => Some(simd::Activation::Identity),
            FusedActivation::Relu => Some(simd::Activation::Relu),
            FusedActivation::LeakyRelu(s) => Some(simd::Activation::LeakyRelu(s)),
            FusedActivation::Tanh | FusedActivation::Sigmoid => None,
        }
    }
}

impl<'t> Var<'t> {
    /// Fused `act(self + bias)` for a `[B, C]` input and `[C]` bias — one
    /// node instead of two, one output temporary instead of three.
    ///
    /// Backward computes the input gradient and the bias column-sum in a
    /// single pass; the bias fold accumulates over ascending rows, matching
    /// `sum_to(&[C])` bit-for-bit.
    pub fn add_bias_act(&self, bias: &Var<'t>, act: FusedActivation) -> Var<'t> {
        if let FusedActivation::LeakyRelu(s) = act {
            assert!(s > 0.0, "add_bias_act: leaky slope must be positive, got {s}");
        }
        let (lh, lb) = (self.id(), bias.id());
        let out = {
            let nodes = self.tape().nodes.borrow();
            let (h, b) = (&nodes[lh].value, &nodes[lb].value);
            let dims = h.dims();
            assert_eq!(dims.len(), 2, "add_bias_act expects [B, C], got {dims:?}");
            assert_eq!(b.dims(), &dims[1..], "add_bias_act bias shape {:?} vs {dims:?}", b.dims());
            let cols = dims[1];
            let mut data = arena::take_uninit(h.len()); // fully written below
            let (hs, bs) = (h.as_slice(), b.as_slice());
            if let Some(k) = act.simd_kernel() {
                simd::bias_act_forward(&mut data, hs, bs, k);
            } else {
                for (orow, hrow) in data.chunks_mut(cols.max(1)).zip(hs.chunks(cols.max(1))) {
                    for ((o, &hv), &bv) in orow.iter_mut().zip(hrow).zip(bs) {
                        *o = act.forward(hv + bv);
                    }
                }
            }
            Tensor::from_vec(data, dims)
        };
        self.tape().push(out, Op::AddBiasAct { h: lh, b: lb, act })
    }

    /// Fused `scale * Σ (self − target)²` against a constant target, as a
    /// rank-0 variable. Equivalent to
    /// `self.sub(&const).square().sum().mul_scalar(scale)` — same forward
    /// bits (via [`Tensor::sse`]) and same gradient bits — but records one
    /// node and allocates no intermediate tensors.
    pub fn sse_scaled(&self, target: &Tensor, scale: f32) -> Var<'t> {
        self.with_value(|p| {
            assert_eq!(
                p.dims(),
                target.dims(),
                "sse_scaled shape mismatch: {:?} vs {:?}",
                p.dims(),
                target.dims()
            );
        });
        let out = self.with_value(|p| Tensor::scalar(p.sse(target) * scale));
        self.tape().push(out, Op::SseScaled { p: self.id(), target: target.clone(), scale })
    }
}

/// Backward of [`Var::add_bias_act`] for input `h`, bias `b`: the input
/// gradient and the bias column-sum in a single pass over the saved output.
pub(crate) fn add_bias_act_backward(
    h: usize,
    b: usize,
    act: FusedActivation,
    ctx: &BackwardCtx<'_>,
    sink: &mut GradSink<'_>,
) {
    let (g, y) = (ctx.grad(), ctx.out());
    let dims = y.dims();
    let (rows, cols) = (dims[0], dims[1]);
    let mut gh = arena::take_uninit(rows * cols); // fully written below
    let mut gb = arena::take_zeroed(cols);
    let (gs, ys) = (g.as_slice(), y.as_slice());
    if let Some(k) = act.simd_kernel() {
        simd::bias_act_backward(&mut gh, &mut gb, gs, ys, k);
    } else {
        for r in 0..rows {
            let base = r * cols;
            for j in 0..cols {
                let v = act.backward(gs[base + j], ys[base + j]);
                gh[base + j] = v;
                gb[j] += v;
            }
        }
    }
    sink.add_owned(h, Tensor::from_vec(gh, dims));
    sink.add_owned(b, Tensor::from_vec(gb, &dims[1..]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_gradients;
    use crate::tape::Tape;
    use muse_tensor::init::SeededRng;

    fn rand(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
        Tensor::rand_uniform(rng, dims, -1.0, 1.0)
    }

    fn composed<'t>(h: Var<'t>, b: Var<'t>, act: FusedActivation) -> Var<'t> {
        let sum = h.add(&b);
        match act {
            FusedActivation::Identity => sum,
            FusedActivation::Relu => sum.relu(),
            FusedActivation::LeakyRelu(s) => sum.leaky_relu(s),
            FusedActivation::Tanh => sum.tanh(),
            FusedActivation::Sigmoid => sum.sigmoid(),
        }
    }

    #[test]
    fn add_bias_act_matches_composed_path_bitwise() {
        let acts = [
            FusedActivation::Identity,
            FusedActivation::Relu,
            FusedActivation::LeakyRelu(0.01),
            FusedActivation::Tanh,
            FusedActivation::Sigmoid,
        ];
        let mut rng = SeededRng::new(42);
        for act in acts {
            let hv = rand(&mut rng, &[5, 3]);
            let bv = rand(&mut rng, &[3]);
            let gv = rand(&mut rng, &[5, 3]); // non-uniform upstream weighting

            let run = |fused: bool| -> (Tensor, Tensor, Tensor) {
                let tape = Tape::new();
                let h = tape.leaf(hv.clone());
                let b = tape.leaf(bv.clone());
                let y = if fused { h.add_bias_act(&b, act) } else { composed(h, b, act) };
                let w = tape.constant(gv.clone());
                let grads = tape.backward(y.mul(&w).sum());
                (y.value(), grads.get_or_zeros(h), grads.get_or_zeros(b))
            };
            let (yf, ghf, gbf) = run(true);
            let (yc, ghc, gbc) = run(false);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&yf), bits(&yc), "forward bits differ for {act:?}");
            assert_eq!(bits(&ghf), bits(&ghc), "input grad bits differ for {act:?}");
            assert_eq!(bits(&gbf), bits(&gbc), "bias grad bits differ for {act:?}");
        }
    }

    #[test]
    fn add_bias_act_gradcheck() {
        let mut rng = SeededRng::new(7);
        let h = rand(&mut rng, &[3, 4]);
        let b = rand(&mut rng, &[4]);
        let r = check_gradients(
            |_t, v| v[0].add_bias_act(&v[1], FusedActivation::Tanh).square().sum(),
            &[h, b],
            1e-2,
        );
        assert!(r.passes(1e-2), "{r:?}");
    }

    #[test]
    fn sse_scaled_matches_composed_path_bitwise() {
        let mut rng = SeededRng::new(9);
        let pv = rand(&mut rng, &[4, 6]);
        let tv = rand(&mut rng, &[4, 6]);
        let scale = 1.0 / 4.0;

        let run = |fused: bool| -> (f32, Tensor) {
            let tape = Tape::new();
            let p = tape.leaf(pv.clone());
            let loss = if fused {
                p.sse_scaled(&tv, scale)
            } else {
                let t = tape.constant(tv.clone());
                p.sub(&t).square().sum().mul_scalar(scale)
            };
            let item = loss.item();
            let grads = tape.backward(loss);
            (item, grads.get_or_zeros(p))
        };
        let (lf, gf) = run(true);
        let (lc, gc) = run(false);
        assert_eq!(lf.to_bits(), lc.to_bits(), "loss bits differ");
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gf), bits(&gc), "grad bits differ");
    }

    #[test]
    fn sse_scaled_gradcheck() {
        let mut rng = SeededRng::new(11);
        let p = rand(&mut rng, &[2, 3]);
        let t = rand(&mut rng, &[2, 3]);
        let r = check_gradients(|_tape, v| v[0].sse_scaled(&t, 0.5), &[p], 1e-2);
        assert!(r.passes(1e-2), "{r:?}");
    }
}
