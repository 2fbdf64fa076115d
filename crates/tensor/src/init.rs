//! Random tensor construction with a deterministic, seedable generator.
//!
//! Everything in this repository that draws randomness (weight init, the
//! traffic simulator, VAE reparameterization noise) threads a [`SeededRng`]
//! so experiments are exactly reproducible.

use crate::tensor::Tensor;

/// A seedable RNG with the sampling helpers the project needs.
///
/// The core generator is SplitMix64 (Steele, Lea & Flood 2014): one 64-bit
/// state word advanced by a Weyl increment and scrambled by two xor-shift
/// multiplies. It passes BigCrush, is trivially seedable from any 64-bit
/// value (including 0), and every draw is a constant-time pure function of
/// the state — exactly what reproducible experiments need, with no
/// external dependency.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

impl SeededRng {
    /// Deterministic generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeededRng { state: seed }
    }

    /// Next raw 64-bit output (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)` using the top 24 bits.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        if lo == hi {
            return lo;
        }
        lo + (hi - lo) * self.next_f32()
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        // Draw u1 in (0,1] to keep ln() finite.
        let u1: f32 = 1.0 - self.next_f32();
        let u2: f32 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Uniform integer in `[0, n)` (Lemire's multiply-shift; bias is at
    /// most 2^-64 and irrelevant at this project's `n`).
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            // next_f64 is in [0, 1): guarantee `chance(1.0)` is always true.
            self.next_f64();
            return true;
        }
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of indices `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.index(i + 1);
            idx.swap(i, j);
        }
        idx
    }
}

impl Tensor {
    /// Tensor of uniform samples in `[lo, hi)`.
    pub fn rand_uniform(rng: &mut SeededRng, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Tensor::from_vec(data, dims)
    }

    /// Tensor of normal samples.
    pub fn rand_normal(rng: &mut SeededRng, dims: &[usize], mean: f32, std: f32) -> Tensor {
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|_| rng.normal_with(mean, std)).collect();
        Tensor::from_vec(data, dims)
    }

    /// Glorot/Xavier uniform init for a layer with the given fan-in/out.
    pub fn glorot_uniform(rng: &mut SeededRng, dims: &[usize], fan_in: usize, fan_out: usize) -> Tensor {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform(rng, dims, -limit, limit)
    }

    /// He/Kaiming normal init (for ReLU layers).
    pub fn he_normal(rng: &mut SeededRng, dims: &[usize], fan_in: usize) -> Tensor {
        let std = (2.0 / fan_in as f32).sqrt();
        Tensor::rand_normal(rng, dims, 0.0, std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        let ta = Tensor::rand_uniform(&mut a, &[100], -1.0, 1.0);
        let tb = Tensor::rand_uniform(&mut b, &[100], -1.0, 1.0);
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let ta = Tensor::rand_uniform(&mut a, &[50], 0.0, 1.0);
        let tb = Tensor::rand_uniform(&mut b, &[50], 0.0, 1.0);
        assert_ne!(ta, tb);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SeededRng::new(3);
        let t = Tensor::rand_uniform(&mut rng, &[1000], -2.0, 3.0);
        assert!(t.min() >= -2.0 && t.max() < 3.0);
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = SeededRng::new(9);
        let t = Tensor::rand_normal(&mut rng, &[20000], 1.0, 2.0);
        assert!((t.mean() - 1.0).abs() < 0.1, "mean {}", t.mean());
        assert!((t.std() - 2.0).abs() < 0.1, "std {}", t.std());
        assert!(t.all_finite());
    }

    #[test]
    fn glorot_limit() {
        let mut rng = SeededRng::new(4);
        let t = Tensor::glorot_uniform(&mut rng, &[10, 10], 10, 10);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(t.max() <= limit && t.min() >= -limit);
    }

    #[test]
    fn permutation_is_bijection() {
        let mut rng = SeededRng::new(8);
        let p = rng.permutation(20);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SeededRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
