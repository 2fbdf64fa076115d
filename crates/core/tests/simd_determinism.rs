//! SIMD-level training determinism (the PR 2 thread contract extended to
//! instruction sets): a full training run must be **bit-identical** — the
//! per-epoch loss curve and every final parameter — whether the kernels run
//! through the scalar or the AVX2 path, crossed with every thread-pool
//! size. Vector width must never change numerics, only how fast the same
//! bits are produced.
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

/// One full (tiny) training run; returns the per-epoch loss bits and the
/// final parameter bits.
fn train_once() -> (Vec<u32>, Vec<Vec<u32>>) {
    let grid = GridMap::new(3, 3);
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 6, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
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
    let losses = report.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
    let params = trainer
        .model()
        .params()
        .iter()
        .map(|p| p.value().as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    (losses, params)
}

#[test]
fn training_is_bit_identical_across_simd_levels_and_threads() {
    // Reference: scalar kernels, single thread.
    let (ref_losses, ref_params) = simd::with_level(Level::Scalar, || with_threads(1, train_once));
    assert_eq!(ref_losses.len(), 3);
    for level in [Level::Scalar, Level::Avx2Fma] {
        for threads in [1usize, 2, 4, 7] {
            let (losses, params) = simd::with_level(level, || with_threads(threads, train_once));
            let cfg = format!("{threads} threads / {}", level.name());
            assert_eq!(losses, ref_losses, "loss curve diverged at {cfg}");
            assert_eq!(params.len(), ref_params.len());
            for (i, (got, want)) in params.iter().zip(&ref_params).enumerate() {
                assert_eq!(got, want, "param {i} diverged at {cfg}");
            }
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
