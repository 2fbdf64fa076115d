//! Differentiable building blocks for variational models.
//!
//! Everything here but [`kl_between_fused`] is a *composition* of the
//! primitives in [`crate::ops`], so its gradient follows from theirs.
//! `kl_between_fused` records one op with its own gradient kernel, pinned
//! bit-for-bit to the composed [`kl_between`]. All of them are
//! finite-difference checked in this crate's tests.
//!
//! Conventions: a diagonal Gaussian is represented by `(mu, logvar)` tensors
//! of shape `[B, K]` (batch × latent dimension). KL helpers sum over the
//! latent dimension and average over the batch, matching how Eq. (27)/(29) of
//! the paper enter the scalar training objective.

use crate::ops::Op;
use crate::tape::{BackwardCtx, GradSink, Var};
use muse_tensor::init::SeededRng;
use muse_tensor::{arena, Tensor};

/// Reparameterization trick: `z = mu + exp(0.5 * logvar) * eps`,
/// `eps ~ N(0, I)` drawn from `rng` and recorded as a constant.
pub fn reparameterize<'t>(mu: &Var<'t>, logvar: &Var<'t>, rng: &mut SeededRng) -> Var<'t> {
    assert_eq!(mu.dims(), logvar.dims(), "reparameterize: mu/logvar shape mismatch");
    let eps = mu.tape().constant(Tensor::rand_normal(rng, &mu.dims(), 0.0, 1.0));
    let std = logvar.mul_scalar(0.5).exp();
    mu.add(&std.mul(&eps))
}

/// `KL[N(mu, diag(e^logvar)) || N(0, I)]`, summed over latent dims, averaged
/// over the batch. Returns a rank-0 variable.
///
/// Closed form: `-0.5 * Σ (1 + logvar - mu² - e^logvar)`.
pub fn kl_to_standard_normal<'t>(mu: &Var<'t>, logvar: &Var<'t>) -> Var<'t> {
    assert_eq!(mu.dims(), logvar.dims(), "kl_to_standard_normal shape mismatch");
    let batch = mu.dims()[0] as f32;
    let inner = logvar.add_scalar(1.0).sub(&mu.square()).sub(&logvar.exp());
    inner.sum().mul_scalar(-0.5 / batch)
}

/// `KL[N(mu1, e^lv1) || N(mu2, e^lv2)]` for diagonal Gaussians, summed over
/// latent dims and averaged over the batch.
///
/// Closed form: `0.5 * Σ ( lv2 - lv1 + (e^lv1 + (mu1-mu2)²) / e^lv2 - 1 )`.
pub fn kl_between<'t>(mu1: &Var<'t>, lv1: &Var<'t>, mu2: &Var<'t>, lv2: &Var<'t>) -> Var<'t> {
    assert_eq!(mu1.dims(), mu2.dims(), "kl_between mu shape mismatch");
    assert_eq!(lv1.dims(), lv2.dims(), "kl_between logvar shape mismatch");
    let batch = mu1.dims()[0] as f32;
    let diff_sq = mu1.sub(mu2).square();
    let ratio = lv1.exp().add(&diff_sq).div(&lv2.exp());
    let inner = lv2.sub(lv1).add(&ratio).add_scalar(-1.0);
    inner.sum().mul_scalar(0.5 / batch)
}

/// Fused single-node form of [`kl_between`]: same closed form, same bits,
/// one tape node instead of ten.
///
/// The pulling loss (Eqs. 23–25) evaluates this nine times per batch; on
/// the composed path that is ~90 tape nodes and a dozen full-size
/// temporaries per call. Here the forward materializes only the `inner`
/// summand buffer (summed through `Tensor::sum`, so the reduction
/// association matches the composed graph exactly) and the backward
/// recomputes the cheap elementwise pieces instead of saving them.
///
/// **Bit-identity contract** (covered by `kl_between_fused_matches_composed`
/// and the fused-kernel tests in `fused.rs`): when the four arguments are
/// distinct tape nodes, the forward value and all four gradients are
/// bit-for-bit equal to [`kl_between`]'s. Each gradient is the composed
/// graph's per-slot contributions combined in sweep order — if one `Var` is
/// passed in two positions its contributions arrive pre-combined rather
/// than interleaved, which can differ in the last ulp (same caveat as
/// `Var::add_bias_act` and not a configuration the model uses).
pub fn kl_between_fused<'t>(mu1: &Var<'t>, lv1: &Var<'t>, mu2: &Var<'t>, lv2: &Var<'t>) -> Var<'t> {
    assert_eq!(mu1.dims(), mu2.dims(), "kl_between mu shape mismatch");
    assert_eq!(lv1.dims(), lv2.dims(), "kl_between logvar shape mismatch");
    assert_eq!(mu1.dims(), lv1.dims(), "kl_between mu/logvar shape mismatch");
    let batch = mu1.dims()[0] as f32;
    let k = 0.5 / batch;
    let (lm1, ll1, lm2, ll2) = (mu1.id(), lv1.id(), mu2.id(), lv2.id());
    let tape = mu1.tape();
    let out = {
        let nodes = tape.nodes.borrow();
        let (m1, l1) = (nodes[lm1].value.as_slice(), nodes[ll1].value.as_slice());
        let (m2, l2) = (nodes[lm2].value.as_slice(), nodes[ll2].value.as_slice());
        let mut inner = arena::take_uninit(m1.len()); // fully written below
        for i in 0..m1.len() {
            // Exact per-element expression sequence of the composed graph:
            // d = mu1−mu2, t = e^lv1 + d², inner = (lv2−lv1) + t/e^lv2 − 1.
            let d = m1[i] - m2[i];
            let t = l1[i].exp() + d * d;
            inner[i] = ((l2[i] - l1[i]) + (t / l2[i].exp())) + -1.0;
        }
        let dims = nodes[lm1].value.dims().to_vec();
        // Tensor::sum so the reduction association (canonical lane sums,
        // fixed chunking) is the one the composed `inner.sum()` uses.
        let total = Tensor::from_vec(inner, &dims).sum();
        Tensor::scalar(total * k)
    };
    tape.push(out, Op::KlBetweenFused { mu1: lm1, lv1: ll1, mu2: lm2, lv2: ll2, k })
}

/// Backward of [`kl_between_fused`] for operands `[mu1, lv1, mu2, lv2]` and
/// scale `k = 0.5 / batch`: recomputes the cheap elementwise pieces.
// `* -1.0` below is kept literal: it mirrors the composed graph's
// `mul_scalar(-1.0)` steps the bit-identity contract is written against.
#[allow(clippy::neg_multiply)]
pub(crate) fn kl_between_fused_backward(
    ids: [usize; 4],
    k: f32,
    ctx: &BackwardCtx<'_>,
    sink: &mut GradSink<'_>,
) {
    let [lm1, ll1, lm2, ll2] = ids;
    // One scalar multiply upstream, exactly like the composed
    // mul_scalar → sum chain: u = g·k, splatted over the shape.
    let u = ctx.grad().item() * k;
    let (m1t, l1t) = (ctx.value(lm1), ctx.value(ll1));
    let (m2t, l2t) = (ctx.value(lm2), ctx.value(ll2));
    let (m1, l1) = (m1t.as_slice(), l1t.as_slice());
    let (m2, l2) = (m2t.as_slice(), l2t.as_slice());
    let n = m1.len();
    let mut g_m1 = arena::take_uninit(n); // all fully written below
    let mut g_m2 = arena::take_uninit(n);
    let mut g_l1 = arena::take_uninit(n);
    let mut g_l2 = arena::take_uninit(n);
    for i in 0..n {
        let d = m1[i] - m2[i];
        let e1 = l1[i].exp();
        let e2 = l2[i].exp();
        let t = e1 + d * d;
        let q = u / e2;
        // Each line reproduces the composed sweep's contributions to one
        // slot, combined in the order the sweep adds them.
        let gm = (q * d) * 2.0;
        g_m1[i] = gm;
        g_m2[i] = gm * -1.0;
        g_l1[i] = (u * -1.0) + (q * e1);
        g_l2[i] = u + (-((u * t) / (e2 * e2))) * e2;
    }
    let dims = m1t.dims();
    sink.add_owned(lm1, Tensor::from_vec(g_m1, dims));
    sink.add_owned(lm2, Tensor::from_vec(g_m2, dims));
    sink.add_owned(ll1, Tensor::from_vec(g_l1, dims));
    sink.add_owned(ll2, Tensor::from_vec(g_l2, dims));
}

/// Mean squared error between a prediction and a constant target, averaged
/// over every element. Returns a rank-0 variable.
pub fn mse<'t>(pred: &Var<'t>, target: &Tensor) -> Var<'t> {
    assert_eq!(pred.dims(), target.dims(), "mse shape mismatch: {:?} vs {:?}", pred.dims(), target.dims());
    let t = pred.tape().constant(target.clone());
    pred.sub(&t).square().mean()
}

/// Squared error **summed over each sample** and averaged over the batch —
/// the scale of the paper's `L_Reg = ‖X_n − Y_n‖²` (Eq. 30) and of the
/// Gaussian reconstruction log-likelihoods (Eq. 28), which sum over the
/// frame elements. Using this (instead of a per-element mean) keeps the
/// regression/reconstruction terms on the same footing as the
/// dimension-summed KL terms, as in the paper's objective.
pub fn sse_per_sample<'t>(pred: &Var<'t>, target: &Tensor) -> Var<'t> {
    assert_eq!(pred.dims(), target.dims(), "sse shape mismatch: {:?} vs {:?}", pred.dims(), target.dims());
    let batch = pred.dims()[0] as f32;
    // Fused single-node form of `sub → square → sum → mul_scalar`
    // (bit-identical, see `Var::sse_scaled`).
    pred.sse_scaled(target, 1.0 / batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Closed-form value (no gradients) of `KL[N(mu, e^logvar) || N(0, I)]`
    /// summed over dims and averaged over batch: the reference the taped
    /// KL is checked against.
    fn kl_to_standard_normal_value(mu: &Tensor, logvar: &Tensor) -> f32 {
        let batch = mu.dims()[0] as f32;
        let inner = logvar.add_scalar(1.0).sub(&mu.square()).sub(&logvar.exp());
        -0.5 * inner.sum() / batch
    }

    #[test]
    fn kl_standard_normal_zero_at_standard() {
        let tape = Tape::new();
        let mu = tape.leaf(Tensor::zeros(&[2, 4]));
        let lv = tape.leaf(Tensor::zeros(&[2, 4]));
        let kl = kl_to_standard_normal(&mu, &lv);
        assert!(kl.item().abs() < 1e-6);
    }

    #[test]
    fn kl_standard_normal_positive_otherwise() {
        let tape = Tape::new();
        let mu = tape.leaf(Tensor::full(&[1, 3], 1.5));
        let lv = tape.leaf(Tensor::full(&[1, 3], -0.7));
        let kl = kl_to_standard_normal(&mu, &lv);
        assert!(kl.item() > 0.0);
        // Matches the closed-form value helper.
        let v = kl_to_standard_normal_value(&Tensor::full(&[1, 3], 1.5), &Tensor::full(&[1, 3], -0.7));
        assert!((kl.item() - v).abs() < 1e-5);
    }

    #[test]
    fn kl_between_zero_for_identical() {
        let tape = Tape::new();
        let mu = tape.leaf(Tensor::full(&[2, 3], 0.4));
        let lv = tape.leaf(Tensor::full(&[2, 3], -0.2));
        let kl = kl_between(&mu, &lv, &mu, &lv);
        assert!(kl.item().abs() < 1e-6);
    }

    #[test]
    fn kl_between_matches_standard_normal_special_case() {
        // KL(q || N(0,I)) computed through both helpers must agree.
        let tape = Tape::new();
        let mu = tape.leaf(Tensor::from_vec(vec![0.3, -0.8, 1.2], &[1, 3]));
        let lv = tape.leaf(Tensor::from_vec(vec![0.1, -0.5, 0.4], &[1, 3]));
        let zero_mu = tape.constant(Tensor::zeros(&[1, 3]));
        let zero_lv = tape.constant(Tensor::zeros(&[1, 3]));
        let a = kl_to_standard_normal(&mu, &lv).item();
        let b = kl_between(&mu, &lv, &zero_mu, &zero_lv).item();
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn kl_between_fused_matches_composed_bitwise() {
        // Distinct leaves, non-uniform upstream gradient: the fused node
        // must reproduce the composed graph's loss and all four gradients
        // bit-for-bit.
        let mut rng = SeededRng::new(29);
        let dims = [3usize, 5];
        let vals: Vec<Tensor> = (0..4).map(|_| Tensor::rand_uniform(&mut rng, &dims, -1.2, 1.2)).collect();

        let run = |fused: bool| -> (f32, Vec<Tensor>) {
            let tape = Tape::new();
            let vs: Vec<_> = vals.iter().map(|v| tape.leaf(v.clone())).collect();
            let kl = if fused {
                kl_between_fused(&vs[0], &vs[1], &vs[2], &vs[3])
            } else {
                kl_between(&vs[0], &vs[1], &vs[2], &vs[3])
            };
            let loss = kl.mul_scalar(0.7); // non-unit upstream gradient
            let item = loss.item();
            let grads = tape.backward(loss);
            (item, vs.iter().map(|&v| grads.get_or_zeros(v)).collect())
        };
        let (lf, gf) = run(true);
        let (lc, gc) = run(false);
        assert_eq!(lf.to_bits(), lc.to_bits(), "loss bits differ: {lf} vs {lc}");
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (f, c)) in gf.iter().zip(&gc).enumerate() {
            assert_eq!(bits(f), bits(c), "grad {i} bits differ");
        }
    }

    #[test]
    fn kl_between_fused_gradcheck() {
        let mut rng = SeededRng::new(31);
        let dims = [2usize, 4];
        let inputs: Vec<Tensor> = (0..4).map(|_| Tensor::rand_uniform(&mut rng, &dims, -0.8, 0.8)).collect();
        let r = crate::grad_check::check_gradients(
            |_t, v| kl_between_fused(&v[0], &v[1], &v[2], &v[3]),
            &inputs,
            1e-2,
        );
        assert!(r.passes(1e-2), "{r:?}");
    }

    #[test]
    fn reparameterize_statistics() {
        // With many samples, z should be distributed around mu with std e^{lv/2}.
        let tape = Tape::new();
        let n = 4000;
        let mu = tape.leaf(Tensor::full(&[n, 1], 2.0));
        let lv = tape.leaf(Tensor::full(&[n, 1], (0.25f32).ln() * 1.0)); // var 0.25 → std 0.5
        let mut rng = SeededRng::new(7);
        let z = reparameterize(&mu, &lv, &mut rng);
        let zv = z.value();
        assert!((zv.mean() - 2.0).abs() < 0.05, "mean {}", zv.mean());
        assert!((zv.std() - 0.5).abs() < 0.05, "std {}", zv.std());
    }

    #[test]
    fn reparameterize_is_differentiable() {
        let tape = Tape::new();
        let mu = tape.leaf(Tensor::zeros(&[1, 2]));
        let lv = tape.leaf(Tensor::zeros(&[1, 2]));
        let mut rng = SeededRng::new(3);
        let z = reparameterize(&mu, &lv, &mut rng);
        let loss = z.square().sum();
        let grads = tape.backward(loss);
        assert!(grads.get(mu).is_some());
        assert!(grads.get(lv).is_some());
    }

    #[test]
    fn mse_known_value_and_grad() {
        let tape = Tape::new();
        let pred = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let target = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let loss = mse(&pred, &target);
        assert!((loss.item() - 2.5).abs() < 1e-6);
        let grads = tape.backward(loss);
        // d/dp mean((p-t)^2) = 2(p-t)/n
        assert_eq!(grads.get(pred).unwrap().as_slice(), &[1.0, 2.0]);
    }
}
