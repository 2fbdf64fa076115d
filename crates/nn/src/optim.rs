//! Optimizers: SGD (with momentum) and Adam, plus global-norm gradient
//! clipping.

use crate::param::ParamRef;
use muse_obs as obs;
use muse_tensor::Tensor;
use std::sync::OnceLock;

/// Common optimizer interface: owns its parameter list and per-parameter
/// state, consumes accumulated `.grad`s on [`Optimizer::step`].
pub trait Optimizer {
    /// Apply one update using the parameters' accumulated gradients.
    fn step(&mut self);
    /// Clear all parameter gradients.
    fn zero_grad(&self);
    /// The managed parameters.
    fn params(&self) -> &[ParamRef];
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Adjust the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
pub struct Sgd {
    params: Vec<ParamRef>,
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD (momentum 0).
    pub fn new(params: Vec<ParamRef>, lr: f32) -> Self {
        Self::with_momentum(params, lr, 0.0)
    }

    /// SGD with momentum `mu`: `v = mu v + g; p -= lr v`.
    pub fn with_momentum(params: Vec<ParamRef>, lr: f32, momentum: f32) -> Self {
        let velocity = params.iter().map(|p| Tensor::zeros(&p.dims())).collect();
        Sgd { params, lr, momentum, velocity }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        for (p, v) in self.params.iter().zip(self.velocity.iter_mut()) {
            if self.momentum != 0.0 {
                v.scale_assign(self.momentum);
                p.with_grad(|g| v.add_assign(g));
                p.apply_update(v, self.lr);
            } else {
                let lr = self.lr;
                p.with_grad(|g| p.apply_update(g, lr));
            }
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[ParamRef] {
        &self.params
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba). The paper trains MUSE-Net with Adam at lr 2e-4.
pub struct Adam {
    params: Vec<ParamRef>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    first_moment: Vec<Tensor>,
    second_moment: Vec<Tensor>,
}

impl Adam {
    /// Adam with custom betas and epsilon.
    pub fn new(params: Vec<ParamRef>, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        let first_moment = params.iter().map(|p| Tensor::zeros(&p.dims())).collect();
        let second_moment = params.iter().map(|p| Tensor::zeros(&p.dims())).collect();
        Adam { params, lr, beta1, beta2, eps, t: 0, first_moment, second_moment }
    }

    /// Adam with the standard (0.9, 0.999, 1e-8) hyper-parameters.
    pub fn with_defaults(params: Vec<ParamRef>, lr: f32) -> Self {
        Self::new(params, lr, 0.9, 0.999, 1e-8)
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for ((p, m), v) in
            self.params.iter().zip(self.first_moment.iter_mut()).zip(self.second_moment.iter_mut())
        {
            p.with_grad(|g| {
                // m = b1 m + (1-b1) g
                m.scale_assign(b1);
                m.axpy_assign(1.0 - b1, g);
                // v = b2 v + (1-b2) g^2
                v.scale_assign(b2);
                v.accum_zip(g, g, move |x, y| (x * y) * (1.0 - b2));
            });
            // update = m_hat / (sqrt(v_hat) + eps)
            let mut denom = v.mul_scalar(1.0 / bc2);
            denom.map_inplace(move |x| x.sqrt() + eps);
            let update = m.mul_scalar(1.0 / bc1).div(&denom);
            p.apply_update(&update, lr);
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[ParamRef] {
        &self.params
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Scale all gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the norm before clipping.
pub fn clip_grad_norm(params: &[ParamRef], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        total += p.with_grad(|g| g.as_slice().iter().map(|&x| x * x).sum::<f32>());
    }
    let norm = total.sqrt();
    let clipped_norm = if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.scale_grad(scale);
        }
        max_norm
    } else {
        norm
    };
    if obs::enabled() {
        static NORMS: OnceLock<(&obs::Gauge, &obs::Gauge, &obs::Histogram)> = OnceLock::new();
        static CLIPPED: OnceLock<&obs::Counter> = OnceLock::new();
        let (pre_clip, post_clip, hist) = NORMS.get_or_init(|| {
            (
                obs::gauge("nn.grad_norm.pre_clip"),
                obs::gauge("nn.grad_norm.post_clip"),
                obs::histogram("nn.grad_norm"),
            )
        });
        pre_clip.set(norm as f64);
        post_clip.set(clipped_norm as f64);
        hist.record(norm as f64);
        if norm > max_norm {
            CLIPPED.get_or_init(|| obs::counter("nn.grad_clip.clipped")).add(1);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Param, Session};
    use muse_autograd::{vae_ops::mse, Tape};

    fn quadratic_step(p: &ParamRef, target: &Tensor) -> f32 {
        let tape = Tape::new();
        let s = Session::new(&tape);
        let w = s.param(p);
        let loss = mse(&w, target);
        let l = loss.item();
        s.backward(loss);
        l
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let p = Param::new("w", Tensor::zeros(&[1, 2]));
        let target = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]);
        let mut opt = Sgd::new(vec![p.clone()], 0.3);
        for _ in 0..100 {
            let _ = quadratic_step(&p, &target);
            opt.step();
            opt.zero_grad();
        }
        assert!(p.value().max_abs_diff(&target) < 1e-2);
    }

    #[test]
    fn sgd_momentum_converges() {
        let p = Param::new("w", Tensor::zeros(&[1, 2]));
        let target = Tensor::from_vec(vec![3.0, 0.5], &[1, 2]);
        let mut opt = Sgd::with_momentum(vec![p.clone()], 0.1, 0.9);
        for _ in 0..200 {
            let _ = quadratic_step(&p, &target);
            opt.step();
            opt.zero_grad();
        }
        assert!(p.value().max_abs_diff(&target) < 5e-2);
    }

    #[test]
    fn adam_converges_faster_than_tiny_sgd() {
        let target = Tensor::from_vec(vec![2.0, -1.0], &[1, 2]);
        let p_adam = Param::new("wa", Tensor::zeros(&[1, 2]));
        let mut adam = Adam::with_defaults(vec![p_adam.clone()], 0.05);
        for _ in 0..300 {
            let _ = quadratic_step(&p_adam, &target);
            adam.step();
            adam.zero_grad();
        }
        assert!(p_adam.value().max_abs_diff(&target) < 5e-2, "adam did not converge");
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn adam_handles_sparse_zero_grads() {
        // A step with zero gradient must not move parameters (much) or
        // produce NaN.
        let p = Param::new("w", Tensor::ones(&[2]));
        let mut adam = Adam::with_defaults(vec![p.clone()], 0.1);
        adam.step(); // grad is zero
        assert!(p.value().all_finite());
        assert!(p.value().max_abs_diff(&Tensor::ones(&[2])) < 1e-4);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        p.accumulate_grad(&Tensor::from_vec(vec![3.0, 4.0], &[2])); // norm 5
        let before = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((before - 5.0).abs() < 1e-5);
        assert!((p.grad().norm() - 1.0).abs() < 1e-5);
        // Already-small gradients untouched.
        let q = Param::new("q", Tensor::zeros(&[2]));
        q.accumulate_grad(&Tensor::from_vec(vec![0.1, 0.1], &[2]));
        let n = clip_grad_norm(std::slice::from_ref(&q), 1.0);
        assert!(n < 1.0);
        assert!((q.grad().as_slice()[0] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn learning_rate_mutation() {
        let p = Param::new("w", Tensor::zeros(&[1]));
        let mut opt = Adam::with_defaults(vec![p], 0.1);
        assert!((opt.learning_rate() - 0.1).abs() < 1e-9);
        opt.set_learning_rate(0.01);
        assert!((opt.learning_rate() - 0.01).abs() < 1e-9);
    }
}
