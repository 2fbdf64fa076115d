//! Runtime-dispatched SIMD micro-kernels: one portable source per kernel,
//! compiled for the baseline target and again for AVX2.
//!
//! Every public kernel in this module has exactly one body. The `kernel!`
//! macro compiles that body twice — once for the baseline target, once
//! inside an `unsafe fn` marked `#[target_feature(enable = "avx2,fma")]` —
//! and [`active_level`] picks the copy per call. Both copies produce **the
//! same bits for every input**. That is the contract the rest of the crate
//! builds on: flipping `MUSE_SIMD`, or running on a machine without AVX2,
//! changes throughput but never a single output bit, just like
//! `MUSE_THREADS` (see `crates/tensor/tests/determinism.rs`, which sweeps
//! both, and `crates/tensor/tests/golden_bits.rs`, which pins the bits).
//!
//! ## Why the two copies agree
//!
//! * **One source, no contraction.** Rust never fuses a `mul` and an `add`
//!   into an FMA and never reassociates floating-point arithmetic, so the
//!   compiler may change how many lanes evaluate an expression, but not the
//!   expression. The FMA flag is part of the level (reported as `avx2+fma`)
//!   purely to target modern cores; no kernel computes a fused multiply-add.
//! * **Elementwise kernels** apply one expression per element, and the
//!   GEMM tiles vectorize along the *output* axis, each element summing its
//!   contributions in ascending-`p` order: lane width is unobservable.
//! * **Reductions** (`sum`, `dot`, `sse`, `sum_squares`, `sum_sq_dev`) use a
//!   fixed [`LANES`]-wide accumulator layout: lane `l` sums elements
//!   `l, l+LANES, l+2·LANES, …`, the tail folds into lanes `0..r`, and the
//!   horizontal sum walks the lane array left to right. The association is
//!   written into the source, so the data alone decides the result.
//!
//! Accumulating bodies are fixed-width lane code (`[f32; 8]` accumulators)
//! so vectors stay in registers across a loop; elementwise bodies are plain
//! zipped loops over an 8-aligned prefix and a tail, which the compiler
//! vectorizes on its own.
//!
//! ## Dispatch
//!
//! [`detected_level`] is computed once per process: `MUSE_SIMD=0` (or
//! `off`/`false`) forces [`Level::Scalar`]; otherwise the CPU is probed for
//! AVX2+FMA. The result is exported as the `simd.level` gauge
//! (`muse_simd_level` in Prometheus exposition). Tests flip paths
//! in-process with [`with_level`], which can lower but never exceed the
//! detected capability.

use muse_obs as obs;
use std::slice::ChunksExact;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction-set level a kernel call can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The baseline-target copy of every kernel (the fallback everywhere).
    Scalar,
    /// The copy compiled with AVX2 (8-wide `f32`), gated on the `avx2`
    /// **and** `fma` CPU flags. (No kernel fuses mul/add.)
    Avx2Fma,
}

impl Level {
    /// Stable human-readable name, as reported in run manifests, `/stats`
    /// and the `muse_simd_level` gauge docs: `"scalar"` or `"avx2+fma"`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2Fma => "avx2+fma",
        }
    }
}

static DETECTED: OnceLock<Level> = OnceLock::new();

const OVERRIDE_NONE: u8 = 0;
const OVERRIDE_SCALAR: u8 = 1;
const OVERRIDE_BEST: u8 = 2;

/// Process-wide test override (not thread-local: kernels run on pool
/// worker threads, which must observe the override too). Safe because both
/// copies are bit-identical — concurrent tests can only change *which* copy
/// computes, never what it computes.
static OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_NONE);

fn env_disabled() -> bool {
    match std::env::var("MUSE_SIMD") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            v == "0" || v == "off" || v == "false"
        }
        Err(_) => false,
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_level() -> Level {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        Level::Avx2Fma
    } else {
        Level::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_level() -> Level {
    Level::Scalar
}

/// The level this process dispatches to by default: CPU capability masked
/// by the `MUSE_SIMD` environment knob (read once, like `MUSE_THREADS`).
/// First call publishes the `simd.level` gauge (1 = `avx2+fma`,
/// 0 = `scalar`).
pub fn detected_level() -> Level {
    *DETECTED.get_or_init(|| {
        let lvl = if env_disabled() { Level::Scalar } else { cpu_level() };
        obs::gauge("simd.level").set(match lvl {
            Level::Avx2Fma => 1.0,
            Level::Scalar => 0.0,
        });
        lvl
    })
}

/// Name of the detected level — `"avx2+fma"` or `"scalar"`.
pub fn level_name() -> &'static str {
    detected_level().name()
}

/// The level kernel calls dispatch to right now: a [`with_level`] override
/// if one is active, else [`detected_level`]. An override can only lower
/// the level; requesting [`Level::Avx2Fma`] on a scalar-only process stays
/// scalar.
#[inline]
pub fn active_level() -> Level {
    match OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_SCALAR => Level::Scalar,
        _ => detected_level(),
    }
}

/// Run `f` with kernel dispatch forced to `level` (clamped to the detected
/// capability), restoring the previous override on exit — including on
/// panic. Used by the determinism sweeps to compare SIMD-on and SIMD-off
/// outputs inside one process.
pub fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let code = match level {
        Level::Scalar => OVERRIDE_SCALAR,
        Level::Avx2Fma => OVERRIDE_BEST,
    };
    let _restore = Restore(OVERRIDE.swap(code, Ordering::Relaxed));
    f()
}

/// Define a public kernel from one body, compiled twice: inline for the
/// baseline target, and inside an AVX2+FMA `target_feature` function that
/// the dispatch calls when [`active_level`] is [`Level::Avx2Fma`]. Every
/// helper a body calls is `#[inline(always)]`, so it is compiled into both
/// copies with that copy's features.
macro_rules! kernel {
    ($($(#[$attr:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block)*) => {$(
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            /// # Safety
            /// The CPU must support AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if active_level() == Level::Avx2Fma {
                // SAFETY: the level is `Avx2Fma` only when the CPU reported
                // both features; an override can only lower it.
                return unsafe { avx2($($arg),*) };
            }
            body($($arg),*)
        }
    )*};
}

/// Lane width of the kernel bodies: one AVX2 `f32` vector.
const W: usize = 8;

/// Accumulator lanes of the canonical reduction layout: four 8-wide
/// vectors, enough independent chains to hide `add` latency.
pub const LANES: usize = 32;

// --------------------------------------------------------------- reductions

/// The canonical lane reduction of `f` over element pairs of equal-length
/// `a` and `b` (unary kernels pass one slice twice). Lane `W·k + l` is
/// accumulator `acc[k][l]`: it sums `f` at elements `W·k + l + LANES·t`
/// for ascending `t`, the tail adds into lanes `0..r`, and the lanes fold
/// left to right from `0.0`. The tail indexes lanes by constants, so the
/// accumulators stay in registers (spilling them stalls the final fold).
#[inline(always)]
fn lane_reduce(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut acc = [[0.0f32; W]; LANES / W];
    let (mut ia, mut ib) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    for (ca, cb) in (&mut ia).zip(&mut ib) {
        for ((lanes, xa), xb) in acc.iter_mut().zip(ca.chunks_exact(W)).zip(cb.chunks_exact(W)) {
            for ((s, &x), &y) in lanes.iter_mut().zip(xa).zip(xb) {
                *s += f(x, y);
            }
        }
    }
    let ra = ia.remainder();
    let rb = &ib.remainder()[..ra.len()];
    for (k, lanes) in acc.iter_mut().enumerate() {
        let base = k * W;
        if base >= ra.len() {
            break;
        }
        if base + W <= ra.len() {
            for ((s, &x), &y) in lanes.iter_mut().zip(&ra[base..base + W]).zip(&rb[base..base + W]) {
                *s += f(x, y);
            }
        } else {
            for (l, s) in lanes.iter_mut().enumerate() {
                if base + l < ra.len() {
                    *s += f(ra[base + l], rb[base + l]);
                }
            }
        }
    }
    acc.iter().flatten().fold(0.0, |s, &x| s + x)
}

kernel! {
    /// Sum of all elements with the canonical lane association (see module
    /// docs). **Not** the plain sequential sum: callers switching to this
    /// kernel change their result bits once, but the result is then stable
    /// across SIMD levels and thread counts.
    pub fn sum(s: &[f32]) -> f32 {
        lane_reduce(s, s, |x, _| x)
    }

    /// `Σ s[i]²` with the canonical lane association.
    pub fn sum_squares(s: &[f32]) -> f32 {
        lane_reduce(s, s, |x, _| x * x)
    }

    /// `Σ (s[i] − m)²` with the canonical lane association.
    pub fn sum_sq_dev(s: &[f32], m: f32) -> f32 {
        lane_reduce(s, s, |x, _| (x - m) * (x - m))
    }

    /// Dot product with the canonical lane association. Slices must have
    /// equal length.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "simd::dot length mismatch");
        lane_reduce(a, b, |x, y| x * y)
    }

    /// `Σ (a[i] − b[i])²` with the canonical lane association. Slices must
    /// have equal length.
    pub fn sse(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "simd::sse length mismatch");
        lane_reduce(a, b, |x, y| (x - y) * (x - y))
    }
}

// -------------------------------------------------------------- elementwise

// The elementwise helpers loop over the [`W`]-aligned prefix and the tail
// separately: a loop whose length the compiler knows to be a multiple of `W`
// compiles to the bare vector loop, which beats one loop with a remainder on
// short and mid-size slices.

/// `*d = f(*d)` over `dst`.
#[inline(always)]
fn map(dst: &mut [f32], f: impl Fn(f32) -> f32) {
    let (head, tail) = dst.split_at_mut(dst.len() - dst.len() % W);
    head.iter_mut().chain(tail).for_each(|d| *d = f(*d));
}

/// `*d = f(*d, s)` over element pairs of equal-length `dst` and `src`.
#[inline(always)]
fn update(dst: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32) {
    let run = |d: &mut [f32], s: &[f32]| d.iter_mut().zip(s).for_each(|(d, &s)| *d = f(*d, s));
    let (head, tail) = dst.split_at_mut(dst.len() - dst.len() % W);
    run(head, &src[..head.len()]);
    run(tail, &src[head.len()..]);
}

/// `out[i] = f(a[i], b[i])` over equal-length slices.
#[inline(always)]
fn zip_map(out: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    let run = |o: &mut [f32], a: &[f32], b: &[f32]| {
        o.iter_mut().zip(a).zip(b).for_each(|((o, &x), &y)| *o = f(x, y));
    };
    let (head, tail) = out.split_at_mut(out.len() - out.len() % W);
    let m = head.len();
    run(head, &a[..m], &b[..m]);
    run(tail, &a[m..], &b[m..]);
}

/// Binary elementwise operation selector for [`binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `x + y`
    Add,
    /// `x - y`
    Sub,
    /// `x * y`
    Mul,
    /// `x / y`
    Div,
}

impl BinOp {
    /// The scalar expression [`binary`] evaluates per element.
    #[inline]
    pub fn apply(self, x: f32, y: f32) -> f32 {
        match self {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        }
    }
}

kernel! {
    /// `out[i] = op(a[i], b[i])`. All slices must have the same length.
    pub fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), out.len(), "simd::binary length mismatch");
        assert_eq!(b.len(), out.len(), "simd::binary length mismatch");
        match op {
            BinOp::Add => zip_map(out, a, b, |x, y| x + y),
            BinOp::Sub => zip_map(out, a, b, |x, y| x - y),
            BinOp::Mul => zip_map(out, a, b, |x, y| x * y),
            BinOp::Div => zip_map(out, a, b, |x, y| x / y),
        }
    }

    /// `dst[i] += s * src[i]` (the optimizer/gradient-fold primitive).
    pub fn axpy(dst: &mut [f32], s: f32, src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "simd::axpy length mismatch");
        update(dst, src, |d, x| d + s * x)
    }

    /// `dst[i] += src[i]` (col2im interiors, sample-ordered gradient folds).
    pub fn add_assign(dst: &mut [f32], src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "simd::add_assign length mismatch");
        update(dst, src, |d, x| d + x)
    }

    /// `dst[i] *= s`.
    pub fn scale(dst: &mut [f32], s: f32) {
        map(dst, |d| d * s)
    }

    /// `dst[i] += s` (conv2d bias rows).
    pub fn add_scalar_assign(dst: &mut [f32], s: f32) {
        map(dst, |d| d + s)
    }
}

// --------------------------------------------------------- GEMM micro-tiles

/// Columns `j..j + SW` of an `R`-row tile over one `k`-block: `av` yields
/// the tile's multipliers and `brows` the rows of `B`, one pair per `p` in
/// ascending order. The strip lives in a local accumulator for the whole
/// block, so each element receives `av[p][r] · brows[p][j + l]` in
/// ascending `p` — the same per-element order as a plain row update.
#[inline(always)]
fn strip<const R: usize, const SW: usize>(
    av: impl Iterator<Item = [f32; R]>,
    mut brows: ChunksExact<'_, f32>,
    j: usize,
    o: &mut [&mut [f32]; R],
) {
    let mut acc = [[0.0f32; SW]; R];
    for (acc, o) in acc.iter_mut().zip(o.iter()) {
        acc.copy_from_slice(&o[j..j + SW]);
    }
    // Pulled by hand, not zipped: a zip of two exact-size iterators divides
    // to find its length, once per strip.
    for a in av {
        let Some(brow) = brows.next() else { break };
        let bv = &brow[j..j + SW];
        for (acc, v) in acc.iter_mut().zip(a) {
            for (x, &y) in acc.iter_mut().zip(bv) {
                *x += v * y;
            }
        }
    }
    for (acc, o) in acc.iter().zip(o.iter_mut()) {
        o[j..j + SW].copy_from_slice(acc);
    }
}

/// An `R`-row tile over columns `0..n` of the `k`-block whose `B` rows are
/// `b`: 16-wide strips, one 8-wide strip, then single columns.
#[inline(always)]
fn tile<const R: usize>(
    av: impl Iterator<Item = [f32; R]> + Clone,
    b: &[f32],
    n: usize,
    mut o: [&mut [f32]; R],
) {
    if n == 0 {
        return;
    }
    let brows = b.chunks_exact(n);
    let mut j = 0;
    while j + 2 * W <= n {
        strip::<R, { 2 * W }>(av.clone(), brows.clone(), j, &mut o);
        j += 2 * W;
    }
    if j + W <= n {
        strip::<R, W>(av.clone(), brows.clone(), j, &mut o);
        j += W;
    }
    for j in j..n {
        strip::<R, 1>(av.clone(), brows.clone(), j, &mut o);
    }
}

kernel! {
    /// One `k`-block update of a four-row register tile:
    /// `o[r][j] += a[r][p] · b[p·n + j]` for `p` ascending over `p0..p1`.
    /// Each output element accumulates in ascending-`p` order, so the tile
    /// is bit-identical to four independent row updates.
    pub fn gemm_tile4(a: [&[f32]; 4], p0: usize, p1: usize, b: &[f32], n: usize, o: [&mut [f32]; 4]) {
        let [a0, a1, a2, a3] = a.map(|r| &r[p0..p1]);
        let av = a0.iter().zip(a1).zip(a2).zip(a3).map(|(((&x0, &x1), &x2), &x3)| [x0, x1, x2, x3]);
        tile(av, &b[p0 * n..p1 * n], n, o)
    }

    /// Single-row variant of [`gemm_tile4`] for remainder rows.
    pub fn gemm_tile1(arow: &[f32], p0: usize, p1: usize, b: &[f32], n: usize, orow: &mut [f32]) {
        tile(arow[p0..p1].iter().map(|&x| [x]), &b[p0 * n..p1 * n], n, [orow])
    }

    /// [`gemm_tile4`] with the A operand read column-wise (`Aᵀ·B` kernels):
    /// row `r`'s multiplier at step `p` is `a[p·astride + base + r]`.
    pub fn gemm_tile4_at(
        a: &[f32],
        astride: usize,
        base: usize,
        p0: usize,
        p1: usize,
        b: &[f32],
        n: usize,
        o: [&mut [f32]; 4],
    ) {
        let rows = a[p0 * astride..p1 * astride].chunks_exact(astride);
        tile(rows.map(|row| row[base..base + 4].try_into().unwrap()), &b[p0 * n..p1 * n], n, o)
    }

    /// Single-row variant of [`gemm_tile4_at`].
    pub fn gemm_tile1_at(
        a: &[f32],
        astride: usize,
        base: usize,
        p0: usize,
        p1: usize,
        b: &[f32],
        n: usize,
        orow: &mut [f32],
    ) {
        let rows = a[p0 * astride..p1 * astride].chunks_exact(astride);
        tile(rows.map(|row| [row[base]]), &b[p0 * n..p1 * n], n, [orow])
    }
}

// --------------------------------------------------- fused bias+activation

/// Activation selector for the fused bias+activation kernels. Only the
/// variants whose forward/backward are single select/multiply expressions
/// are here; transcendental activations stay on the scalar path in
/// `muse-autograd`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Pass-through: the kernel is just the broadcast bias add.
    Identity,
    /// `max(x, 0)`.
    Relu,
    /// `x` for `x > 0`, `slope·x` otherwise (`slope > 0`).
    LeakyRelu(f32),
}

/// `out = f(h + b)` row by row over a `[rows, b.len()]` matrix.
#[inline(always)]
fn bias_rows(out: &mut [f32], h: &[f32], b: &[f32], f: impl Fn(f32) -> f32) {
    for (orow, hrow) in out.chunks_exact_mut(b.len()).zip(h.chunks_exact(b.len())) {
        zip_map(orow, hrow, b, |x, y| f(x + y));
    }
}

/// `gh = f(g, y)` row by row, folding each finished row into `gb`.
#[inline(always)]
fn bias_grad_rows(gh: &mut [f32], gb: &mut [f32], g: &[f32], y: &[f32], f: impl Fn(f32, f32) -> f32) {
    let cols = gb.len();
    for (ghrow, (grow, yrow)) in gh.chunks_exact_mut(cols).zip(g.chunks_exact(cols).zip(y.chunks_exact(cols)))
    {
        zip_map(ghrow, grow, yrow, &f);
        update(gb, ghrow, |acc, v| acc + v);
    }
}

kernel! {
    /// Fused `out = act(h + b)` over a `[rows, cols]` matrix `h` with a
    /// `[cols]` bias `b` (`out.len() == h.len()`, `cols == b.len()`). The
    /// per-element expressions match `muse-autograd`'s unfused activation
    /// maps.
    pub fn bias_act_forward(out: &mut [f32], h: &[f32], b: &[f32], act: Activation) {
        assert_eq!(out.len(), h.len(), "bias_act_forward length mismatch");
        if b.is_empty() {
            return;
        }
        assert_eq!(h.len() % b.len(), 0, "bias_act_forward: rows not integral");
        match act {
            Activation::Identity => bias_rows(out, h, b, |x| x),
            Activation::Relu => bias_rows(out, h, b, |x| x.max(0.0)),
            Activation::LeakyRelu(s) => bias_rows(out, h, b, |x| if x > 0.0 { x } else { s * x }),
        }
    }

    /// Fused backward of [`bias_act_forward`]: writes the input gradient
    /// `gh[i] = g[i] · act'(y[i])` and accumulates the bias gradient column
    /// sums into `gb` (which the caller zeroes) over ascending rows — the
    /// same association as a `sum_to(&[cols])` fold. The derivative factor
    /// is multiplied, not selected, so `g · 0.0` keeps its signed zero.
    pub fn bias_act_backward(gh: &mut [f32], gb: &mut [f32], g: &[f32], y: &[f32], act: Activation) {
        assert_eq!(gh.len(), g.len(), "bias_act_backward length mismatch");
        assert_eq!(gh.len(), y.len(), "bias_act_backward length mismatch");
        if gb.is_empty() {
            return;
        }
        assert_eq!(gh.len() % gb.len(), 0, "bias_act_backward: rows not integral");
        match act {
            Activation::Identity => bias_grad_rows(gh, gb, g, y, |g, _| g),
            Activation::Relu => bias_grad_rows(gh, gb, g, y, |g, y| g * if y > 0.0 { 1.0 } else { 0.0 }),
            Activation::LeakyRelu(s) => {
                bias_grad_rows(gh, gb, g, y, |g, y| g * if y > 0.0 { 1.0 } else { s })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises the tests that flip the process-global override: a
    /// concurrent `with_level` would change what `active_level` reports in
    /// the middle of another test.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    /// Run `f` on the baseline copy and at the detected level, asserting the
    /// bits agree. On machines without AVX2 both runs are scalar and the
    /// test degenerates to a self-comparison (still a valid smoke test).
    /// Callers hold `LEVEL_LOCK`.
    fn assert_paths_agree<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
        let scalar = with_level(Level::Scalar, &f);
        let native = with_level(Level::Avx2Fma, &f);
        assert_eq!(scalar, native);
    }

    #[test]
    fn level_name_is_stable() {
        assert!(matches!(level_name(), "scalar" | "avx2+fma"));
        assert_eq!(Level::Scalar.name(), "scalar");
        assert_eq!(Level::Avx2Fma.name(), "avx2+fma");
    }

    #[test]
    fn with_level_restores_on_exit() {
        let _lock = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let before = active_level();
        with_level(Level::Scalar, || {
            assert_eq!(active_level(), Level::Scalar);
        });
        assert_eq!(active_level(), before);
    }

    #[test]
    fn reductions_handle_nan_and_inf() {
        let _lock = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let mut a = vec![1.0f32; 40];
        a[7] = f32::INFINITY;
        a[33] = f32::NEG_INFINITY;
        assert!(sum(&a).is_nan()); // inf + (-inf) meets in the fold
        let mut b = vec![0.5f32; 40];
        b[3] = f32::NAN;
        assert!(sum(&b).is_nan());
        assert!(dot(&a, &b).is_nan());
        assert_paths_agree(|| sum(&a).is_nan());
        assert_paths_agree(|| sse(&a, &b).is_nan());
    }
}
