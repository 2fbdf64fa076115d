//! Golden output bits for every public `muse_tensor::simd` kernel.
//!
//! The determinism suites compare the dispatch levels with each other. This
//! file pins the bits themselves: each kernel runs on seeded inputs (odd
//! lengths, every reduction tail size, GEMM tiles with ragged `n`, NaN and
//! signed-zero activations) and its output bits fold into one FNV-1a 64
//! digest, compared against a constant. A change of association — a
//! reordered reduction, a contracted multiply-add — moves the digest on
//! every level at once, which a level-against-level comparison cannot see.
//!
//! NaN outputs fold as one canonical pattern: Rust leaves NaN payloads
//! unspecified, so only "is NaN" is part of the contract.
//!
//! To re-derive the table after an intended numerics change, run this test
//! and copy the `computed` table from the failure message.

use muse_tensor::init::SeededRng;
use muse_tensor::simd::{self, Activation, BinOp, Level};

/// Digest of every kernel's output bits, in a fixed order.
const GOLDEN: &[(&str, u64)] = &[
    ("sum", 0x9aa06b52bd81ab42),
    ("sum_squares", 0xf9396ea9db84c4f5),
    ("sum_sq_dev", 0xadd760c18889a214),
    ("dot", 0x71aa4138c5b95650),
    ("sse", 0x1e42e78562027e27),
    ("binary_add", 0xf32b73b4ed7d1b37),
    ("binary_sub", 0xbe21cb3fa555af89),
    ("binary_mul", 0x99aff652f890f39a),
    ("binary_div", 0x056c19b580fc6db9),
    ("axpy", 0x14f1945eea7ddfa5),
    ("add_assign", 0xfb2b219fb2770f26),
    ("scale", 0xf1d0dbbbf643cfca),
    ("add_scalar_assign", 0x39bb143ba4844c2e),
    ("gemm_tile4", 0xc6dbdf8ef7c106a6),
    ("gemm_tile1", 0x3cbcce3dfb4c070a),
    ("gemm_tile4_at", 0x4b4c7d102317ecd1),
    ("gemm_tile1_at", 0x33ad9cd1da0b8dd1),
    ("bias_act_forward", 0x8d5ca7408410a50d),
    ("bias_act_backward", 0xf31b3feabee31305),
];

/// One FNV-1a 64 digest per kernel name, in first-fed order.
#[derive(Default)]
struct Digests(Vec<(&'static str, u64)>);

impl Digests {
    /// Fold the bits of `xs` into `name`'s digest.
    fn feed(&mut self, name: &'static str, xs: &[f32]) {
        let i = self.0.iter().position(|(n, _)| *n == name).unwrap_or_else(|| {
            self.0.push((name, 0xcbf2_9ce4_8422_2325));
            self.0.len() - 1
        });
        let h = &mut self.0[i].1;
        for &x in xs {
            let bits = if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
            for byte in bits.to_le_bytes() {
                *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn rand_vec(rng: &mut SeededRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// Random values with a NaN, a `-0.0`, a `+0.0` and an infinity sprinkled
/// in at fixed strides, so elementwise and activation kernels see them in
/// both the vector body and the tail.
fn special_vec(rng: &mut SeededRng, n: usize) -> Vec<f32> {
    let mut v = rand_vec(rng, n);
    for (i, x) in v.iter_mut().enumerate() {
        match i % 11 {
            3 => *x = -0.0,
            5 => *x = f32::NAN,
            7 => *x = 0.0,
            9 if i % 3 == 0 => *x = f32::INFINITY,
            _ => {}
        }
    }
    v
}

fn reductions(d: &mut Digests) {
    let mut rng = SeededRng::new(0x5eed_0001);
    // Every reduction tail size (mod 32 and mod 8) plus a few long slices.
    for n in (0..=70).chain([96, 100, 257, 1023]) {
        let a = rand_vec(&mut rng, n);
        let b = rand_vec(&mut rng, n);
        d.feed("sum", &[simd::sum(&a)]);
        d.feed("sum_squares", &[simd::sum_squares(&a)]);
        d.feed("sum_sq_dev", &[simd::sum_sq_dev(&a, 0.37)]);
        d.feed("dot", &[simd::dot(&a, &b)]);
        d.feed("sse", &[simd::sse(&a, &b)]);
    }
}

fn elementwise(d: &mut Digests) {
    let mut rng = SeededRng::new(0x5eed_0002);
    let ops = [
        ("binary_add", BinOp::Add),
        ("binary_sub", BinOp::Sub),
        ("binary_mul", BinOp::Mul),
        ("binary_div", BinOp::Div),
    ];
    for n in (0..=40).chain([100, 1000]) {
        let a = special_vec(&mut rng, n);
        let b = rand_vec(&mut rng, n);
        for (name, op) in ops {
            let mut o = vec![0.0f32; n];
            simd::binary(op, &a, &b, &mut o);
            d.feed(name, &o);
        }
        let mut dst = rand_vec(&mut rng, n);
        simd::axpy(&mut dst, -0.73, &a);
        d.feed("axpy", &dst);
        let mut dst = rand_vec(&mut rng, n);
        simd::add_assign(&mut dst, &a);
        d.feed("add_assign", &dst);
        let mut dst = a.clone();
        simd::scale(&mut dst, 1.1);
        d.feed("scale", &dst);
        let mut dst = a.clone();
        simd::add_scalar_assign(&mut dst, -0.2);
        d.feed("add_scalar_assign", &dst);
    }
}

fn split4(o: &mut [f32], n: usize) -> [&mut [f32]; 4] {
    let (o0, rest) = o.split_at_mut(n);
    let (o1, rest) = rest.split_at_mut(n);
    let (o2, o3) = rest.split_at_mut(n);
    [o0, o1, o2, o3]
}

fn gemm_tiles(d: &mut Digests) {
    let mut rng = SeededRng::new(0x5eed_0003);
    const ASTRIDE: usize = 7;
    for n in [1, 7, 8, 15, 16, 17, 33] {
        for k in [1, 5, 37] {
            let a = rand_vec(&mut rng, 4 * k);
            let at = rand_vec(&mut rng, k * ASTRIDE);
            let b = rand_vec(&mut rng, k * n);
            // Full range and a trailing block, both onto a random carry-in.
            for (p0, p1) in [(0, k), (k / 3, k)] {
                let rows = [&a[..k], &a[k..2 * k], &a[2 * k..3 * k], &a[3 * k..]];
                let mut o = rand_vec(&mut rng, 4 * n);
                simd::gemm_tile4(rows, p0, p1, &b, n, split4(&mut o, n));
                d.feed("gemm_tile4", &o);
                let mut o = rand_vec(&mut rng, n);
                simd::gemm_tile1(rows[1], p0, p1, &b, n, &mut o);
                d.feed("gemm_tile1", &o);
                for base in [0, 3] {
                    let mut o = rand_vec(&mut rng, 4 * n);
                    simd::gemm_tile4_at(&at, ASTRIDE, base, p0, p1, &b, n, split4(&mut o, n));
                    d.feed("gemm_tile4_at", &o);
                    let mut o = rand_vec(&mut rng, n);
                    simd::gemm_tile1_at(&at, ASTRIDE, base + 1, p0, p1, &b, n, &mut o);
                    d.feed("gemm_tile1_at", &o);
                }
            }
        }
    }
}

fn bias_act(d: &mut Digests) {
    let mut rng = SeededRng::new(0x5eed_0004);
    for (rows, cols) in [(1usize, 1usize), (3, 7), (5, 8), (4, 19), (2, 33), (3, 40)] {
        let h = special_vec(&mut rng, rows * cols);
        let b = special_vec(&mut rng, cols);
        let g = special_vec(&mut rng, rows * cols);
        for act in [Activation::Identity, Activation::Relu, Activation::LeakyRelu(0.01)] {
            let mut y = vec![0.0f32; rows * cols];
            simd::bias_act_forward(&mut y, &h, &b, act);
            d.feed("bias_act_forward", &y);
            let mut gh = vec![0.0f32; rows * cols];
            let mut gb = vec![0.0f32; cols];
            simd::bias_act_backward(&mut gh, &mut gb, &g, &y, act);
            d.feed("bias_act_backward", &gh);
            d.feed("bias_act_backward", &gb);
        }
    }
}

fn digests() -> Vec<(&'static str, u64)> {
    let mut d = Digests::default();
    reductions(&mut d);
    elementwise(&mut d);
    gemm_tiles(&mut d);
    bias_act(&mut d);
    d.0
}

#[test]
fn every_kernel_matches_its_golden_digest_at_every_level() {
    let mut levels = vec![Level::Scalar];
    if simd::detected_level() != Level::Scalar {
        levels.push(simd::detected_level());
    }
    for level in levels {
        let computed = simd::with_level(level, digests);
        let rendered: String =
            computed.iter().map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n")).collect();
        assert!(
            computed.as_slice() == GOLDEN,
            "golden digests differ at level {}; computed:\n{rendered}",
            level.name()
        );
    }
}
