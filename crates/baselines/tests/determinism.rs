//! The neural baselines under the determinism contract MUSE-Net training
//! already meets: training through the shared `musenet::Trainer` loop is
//! **bit-identical** — per-epoch loss curve and every final parameter —
//! whether the kernels run through the scalar or the AVX2 path, crossed
//! with thread-pool sizes, and every row of a batched prediction equals
//! that sample predicted alone.
//!
//! On machines without AVX2 the `Level::Avx2Fma` leg silently degrades to
//! scalar (the override can only lower the detected level), so these tests
//! still run everywhere.

use muse_baselines::{
    DeepStnForecaster, RnnForecaster, Seq2SeqForecaster, StNormLiteForecaster, StgspLiteForecaster,
};
use muse_parallel::with_threads;
use muse_tensor::simd::{self, Level};
use muse_tensor::Tensor;
use muse_traffic::subseries::{batch, SubSeriesSpec};
use muse_traffic::{FlowSeries, GridMap};
use musenet::{Trainable, Trainer, TrainerOptions};

const SPEC: SubSeriesSpec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 6, trend_days: 7 };

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

/// The five neural baselines on `grid`, untrained.
fn lineup(grid: GridMap) -> Vec<Box<dyn Trainable>> {
    vec![
        Box::new(RnnForecaster::new(grid, &SPEC, 8, 1)),
        Box::new(Seq2SeqForecaster::new(grid, &SPEC, 8, 2)),
        Box::new(DeepStnForecaster::new(grid, &SPEC, 4, 2, 3)),
        Box::new(StgspLiteForecaster::new(grid, &SPEC, 4, 4)),
        Box::new(StNormLiteForecaster::new(grid, &SPEC, 4, 5)),
    ]
}

/// Per-epoch loss bits and final parameter bits of one tiny training run.
type Fit = (Vec<u32>, Vec<Vec<u32>>);

/// Train each baseline for three epochs through the shared loop.
fn train_lineup() -> Vec<(String, Fit)> {
    let grid = GridMap::new(3, 3);
    let flows = patterned_flows(grid, 10, 6);
    let first = SPEC.min_target();
    let train: Vec<usize> = (first..first + 12).collect();
    let val: Vec<usize> = (first + 12..first + 16).collect();
    lineup(grid)
        .into_iter()
        .map(|model| {
            let options =
                TrainerOptions { epochs: 3, batch_size: 4, learning_rate: 3e-3, ..Default::default() };
            let mut trainer = Trainer::new(model, options);
            let report = trainer.fit(&flows, &SPEC, &train, &val);
            let losses = report.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let params = trainer
                .model()
                .params()
                .iter()
                .map(|p| p.value().as_slice().iter().map(|x| x.to_bits()).collect())
                .collect();
            (trainer.model().name().to_string(), (losses, params))
        })
        .collect()
}

#[test]
fn baseline_training_is_bit_identical_across_simd_levels_and_threads() {
    // Reference: scalar kernels, single thread.
    let reference = simd::with_level(Level::Scalar, || with_threads(1, train_lineup));
    assert_eq!(reference.len(), 5);
    for level in [Level::Scalar, Level::Avx2Fma] {
        for threads in [1usize, 2] {
            let fits = simd::with_level(level, || with_threads(threads, train_lineup));
            let cfg = format!("{threads} threads / {}", level.name());
            for ((name, (losses, params)), (_, (ref_losses, ref_params))) in fits.iter().zip(&reference) {
                assert_eq!(losses.len(), 3, "{name}");
                assert_eq!(losses, ref_losses, "{name} loss curve diverged at {cfg}");
                assert_eq!(params.len(), ref_params.len());
                for (i, (got, want)) in params.iter().zip(ref_params).enumerate() {
                    assert_eq!(got, want, "{name} param {i} diverged at {cfg}");
                }
            }
        }
    }
}

#[test]
fn batch_rows_are_bit_identical_to_batch_of_one() {
    let grid = GridMap::new(4, 5);
    let flows = patterned_flows(grid, 10, 6);
    let indices: Vec<usize> = (SPEC.min_target()..SPEC.min_target() + 13).collect();
    let many = batch(&flows, &SPEC, &indices);
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for level in [Level::Scalar, Level::Avx2Fma] {
        for threads in [1usize, 2] {
            let cfg = format!("{threads} threads / {}", level.name());
            simd::with_level(level, || {
                with_threads(threads, || {
                    for model in lineup(grid) {
                        let rows = model.predict(&many);
                        let frame = rows.len() / indices.len();
                        for (r, &n) in indices.iter().enumerate() {
                            let alone = model.predict(&batch(&flows, &SPEC, &[n]));
                            assert_eq!(
                                bits(&rows.as_slice()[r * frame..(r + 1) * frame]),
                                bits(alone.as_slice()),
                                "{} row {r} depends on batch size at {cfg}",
                                model.name()
                            );
                        }
                    }
                })
            });
        }
    }
}
