//! SIMD-level training determinism (the PR 2 thread contract extended to
//! instruction sets): a full training run of every ablation variant must be
//! **bit-identical** — the per-epoch losses, every final parameter and the
//! trained model's one- and 3-step predictions — whether the kernels run
//! through the scalar or the AVX2 path, crossed with every thread-pool
//! size. Vector width must never change numerics, only how fast the same
//! bits are produced.
//!
//! Each variant's fit folds into one FNV-1a 64 digest, compared against the
//! committed [`GOLDEN`] table on every leg, so a change can claim "the same
//! bits as before" by leaving the table untouched. Unlike
//! `crates/tensor/tests/golden_bits.rs`, these digests go through the
//! platform libm (`expf`, `tanhf`, `logf`), so another platform may need
//! its own table; a numerics change that is meant re-derives the table
//! from the failure message and says why in CHANGES.md.
//!
//! Prediction rows must also not depend on batch size: every row of a
//! batch equals that sample predicted alone, at every level and thread
//! count. The multi-step rollout relies on it to advance many base indices
//! in one batch.
//!
//! On machines without AVX2 the `Level::Avx2Fma` leg silently degrades to
//! scalar (the override can only lower the detected level), so this test
//! still runs everywhere.

use muse_parallel::with_threads;
use muse_tensor::simd::{self, Level};
use muse_tensor::Tensor;
use muse_traffic::flow::FlowSeries;
use muse_traffic::grid::GridMap;
use muse_traffic::subseries::{batch, SubSeriesSpec};
use musenet::{AblationVariant, MuseNet, MuseNetConfig, Trainer, TrainerOptions};

/// A smooth daily pattern so training has structure to fit.
fn patterned_flows(grid: GridMap, days: usize, f: usize) -> FlowSeries {
    let t = days * f;
    let mut data = Vec::with_capacity(t * 2 * grid.cells());
    for i in 0..t {
        let hour = (i % f) as f32 / f as f32;
        let level = (2.0 * std::f32::consts::PI * hour).sin() * 0.6;
        for ch in 0..2 {
            for cell in 0..grid.cells() {
                let phase = 0.1 * (cell as f32) + 0.05 * ch as f32;
                data.push((level + phase).tanh());
            }
        }
    }
    FlowSeries::from_tensor(grid, Tensor::from_vec(data, &[t, 2, grid.height, grid.width]))
}

/// The digest of each variant's reference fit, in `AblationVariant::all()`
/// order.
const GOLDEN: &[(&str, u64)] = &[
    ("MUSE-Net-w/o-Spatial", 0x870ede34c8118078),
    ("MUSE-Net-w/o-MultiDisentangle", 0x8dfb7dd4cdef2940),
    ("MUSE-Net-w/o-SemanticPushing", 0x5a009fd01104f09f),
    ("MUSE-Net-w/o-SemanticPulling", 0xd426113f638ad2de),
    ("MUSE-Net", 0x4dc6aae5bab79f95),
];

/// FNV-1a 64 over the bits of every value fed, in order.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, xs: &[f32]) {
        for &x in xs {
            for byte in x.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// One full (tiny) training run of `variant`, folded into a digest: the
/// per-epoch losses and validation RMSE, every final parameter, a one-step
/// `predict` and a 3-step `predict_multi_step` of the validation targets.
fn fit_digest(variant: AblationVariant) -> u64 {
    let grid = GridMap::new(3, 3);
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 6, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
    cfg.variant = variant;
    let flows = patterned_flows(grid, 10, 6);
    let first = spec.min_target();
    let train: Vec<usize> = (first..first + 12).collect();
    let val: Vec<usize> = (first + 12..first + 16).collect();

    let model = MuseNet::new(cfg.clone());
    let mut trainer = Trainer::new(
        model,
        TrainerOptions { epochs: 3, batch_size: 4, learning_rate: 3e-3, ..Default::default() },
    );
    let report = trainer.fit(&flows, &cfg.spec, &train, &val);
    assert_eq!(report.epochs.len(), 3, "{}", variant.name());
    let mut d = Digest::new();
    for e in &report.epochs {
        d.feed(&[e.train_loss, e.train_regression, e.val_rmse.expect("validation set given")]);
    }
    let model = trainer.model();
    for p in model.params() {
        d.feed(p.value().as_slice());
    }
    d.feed(model.predict(&batch(&flows, &spec, &val)).as_slice());
    for step in model.predict_multi_step(&flows, &spec, &val, 3) {
        d.feed(step.as_slice());
    }
    d.0
}

/// Every variant's fit digest, in `AblationVariant::all()` order.
fn digests() -> Vec<(&'static str, u64)> {
    AblationVariant::all().into_iter().map(|v| (v.name(), fit_digest(v))).collect()
}

#[test]
fn training_is_bit_identical_across_simd_levels_and_threads() {
    for level in [Level::Scalar, Level::Avx2Fma] {
        for threads in [1usize, 2, 4, 7] {
            let computed = simd::with_level(level, || with_threads(threads, digests));
            let rendered: String =
                computed.iter().map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n")).collect();
            assert!(
                computed.as_slice() == GOLDEN,
                "fit digests differ from GOLDEN at {threads} threads / {}; computed:\n{rendered}\
                 If the numerics change is meant, copy this table into GOLDEN and say why in \
                 CHANGES.md. These digests go through the platform libm (expf, tanhf, logf), \
                 unlike golden_bits.rs, so another platform may need its own table.",
                level.name()
            );
        }
    }
}

/// Assert that each row of a 13-sample prediction is bit-identical to the
/// same sample predicted at batch size 1, for every untrained MUSE-Net
/// variant on `grid`. The baselines' leg lives in `muse-baselines`.
fn assert_rows_match_singletons(grid: GridMap, cfg: &str) {
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 6, trend_days: 7 };
    let flows = patterned_flows(grid, 10, 6);
    let indices: Vec<usize> = (spec.min_target()..spec.min_target() + 13).collect();
    let many = batch(&flows, &spec, &indices);
    for variant in AblationVariant::all() {
        let mut model_cfg = MuseNetConfig::cpu_profile(grid, spec);
        model_cfg.d = 4;
        model_cfg.k = 8;
        model_cfg.variant = variant;
        let model = MuseNet::new(model_cfg);
        let name = variant.name();
        let rows = model.predict(&many);
        let frame = rows.len() / indices.len();
        for (r, &n) in indices.iter().enumerate() {
            let alone = model.predict(&batch(&flows, &spec, &[n]));
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&rows.as_slice()[r * frame..(r + 1) * frame]),
                bits(alone.as_slice()),
                "{name} row {r} on {}x{} depends on batch size at {cfg}",
                grid.height,
                grid.width
            );
        }
    }
}

#[test]
fn batch_rows_are_bit_identical_to_batch_of_one() {
    for level in [Level::Scalar, Level::Avx2Fma] {
        for threads in [1usize, 2] {
            let cfg = format!("{threads} threads / {}", level.name());
            simd::with_level(level, || {
                with_threads(threads, || {
                    assert_rows_match_singletons(GridMap::new(3, 4), &cfg);
                    assert_rows_match_singletons(GridMap::new(4, 5), &cfg);
                    assert_rows_match_singletons(GridMap::new(10, 20), &cfg);
                })
            });
        }
    }
}
