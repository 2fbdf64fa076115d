//! The neural baselines under the determinism contract MUSE-Net training
//! already meets: training through the shared `musenet::Trainer` loop is
//! **bit-identical** — per-epoch losses, every final parameter and the
//! trained model's one- and 3-step predictions — whether the kernels run
//! through the scalar or the AVX2 path, crossed with thread-pool sizes,
//! and every row of a batched prediction equals that sample predicted
//! alone.
//!
//! Each baseline's fit folds into one FNV-1a 64 digest, compared against
//! the committed [`GOLDEN`] table on every leg. Unlike
//! `crates/tensor/tests/golden_bits.rs`, these digests go through the
//! platform libm (`expf`, `tanhf`, `logf`), so another platform may need
//! its own table; a numerics change that is meant re-derives the table
//! from the failure message and says why in CHANGES.md.
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
use muse_traffic::subseries::{batch, roll_out, SubSeriesSpec};
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

/// The digest of each baseline's reference fit, in [`lineup`] order.
const GOLDEN: &[(&str, u64)] = &[
    ("RNN", 0x56347e60b61a955d),
    ("Seq2Seq", 0xcdee25deff802fbe),
    ("DeepSTN+", 0x3e829bcc470a39a8),
    ("ST-GSP(lite)", 0x3a00889f1c3b06f9),
    ("ST-Norm(lite)", 0x9251a436710a9a8d),
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

/// Train each baseline for three epochs through the shared loop and fold
/// each fit into a digest: the per-epoch losses and validation RMSE, every
/// final parameter, a one-step `predict` and a 3-step rollout of the
/// validation targets.
fn digests() -> Vec<(String, u64)> {
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
            let model = trainer.model();
            assert_eq!(report.epochs.len(), 3, "{}", model.name());
            let mut d = Digest::new();
            for e in &report.epochs {
                d.feed(&[e.train_loss, e.train_regression, e.val_rmse.expect("validation set given")]);
            }
            for p in model.params() {
                d.feed(p.value().as_slice());
            }
            d.feed(model.predict(&batch(&flows, &SPEC, &val)).as_slice());
            for step in roll_out(&flows, &SPEC, &val, 3, |b| model.predict(b)) {
                d.feed(step.as_slice());
            }
            (model.name().to_string(), d.0)
        })
        .collect()
}

#[test]
fn baseline_training_is_bit_identical_across_simd_levels_and_threads() {
    for level in [Level::Scalar, Level::Avx2Fma] {
        for threads in [1usize, 2] {
            let computed = simd::with_level(level, || with_threads(threads, digests));
            let rendered: String =
                computed.iter().map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n")).collect();
            assert!(
                computed.iter().map(|(n, h)| (n.as_str(), *h)).eq(GOLDEN.iter().copied()),
                "fit digests differ from GOLDEN at {threads} threads / {}; computed:\n{rendered}\
                 If the numerics change is meant, copy this table into GOLDEN and say why in \
                 CHANGES.md. These digests go through the platform libm (expf, tanhf, logf), \
                 unlike golden_bits.rs, so another platform may need its own table.",
                level.name()
            );
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
