//! Integration: end-to-end training runs across the whole stack.

use muse_net_repro::prelude::*;
use muse_net_repro::traffic::subseries::{sample, Batch};

fn tiny_profile() -> Profile {
    Profile {
        scale: 0.45,
        epochs: 3,
        max_batches: 12,
        max_eval: 24,
        d: 6,
        k: 8,
        hidden: 12,
        channels: 6,
        musenet_lr: 3e-3,
        baseline_lr: 3e-3,
        ..Profile::quick()
    }
}

#[test]
fn musenet_end_to_end_beats_seasonal_naive() {
    let profile = Profile { epochs: 8, max_batches: 25, ..tiny_profile() };
    let prepared = prepare(DatasetPreset::NycBike, &profile);
    let eval_idx = prepared.eval_indices(&profile);
    let truth = prepared.truth(&eval_idx);

    let muse = fit_model(ModelKind::MuseNet(AblationVariant::Full), &prepared, &profile);
    let (muse_out, _) = channel_errors(&muse.predict_unscaled(&prepared, &eval_idx), &truth);

    let naive = fit_model(ModelKind::SeasonalNaive, &prepared, &profile);
    let (naive_out, _) = channel_errors(&naive.predict_unscaled(&prepared, &eval_idx), &truth);

    assert!(
        muse_out.rmse < naive_out.rmse,
        "MUSE-Net ({}) should beat seasonal naive ({})",
        muse_out.rmse,
        naive_out.rmse
    );
    assert!(muse_out.rmse.is_finite() && muse_out.mape.is_finite());
}

#[test]
fn every_model_kind_fits_and_predicts() {
    let profile = Profile { epochs: 1, max_batches: 2, ..tiny_profile() };
    let prepared = prepare(DatasetPreset::NycBike, &profile);
    let eval_idx = &prepared.split.test[..6];
    let truth = prepared.truth(eval_idx);
    for kind in ModelKind::table2_lineup() {
        let model = fit_model(kind, &prepared, &profile);
        let pred = model.predict_unscaled(&prepared, eval_idx);
        assert_eq!(pred.dims(), truth.dims(), "{}", model.name());
        assert!(pred.all_finite(), "{} produced non-finite predictions", model.name());
        assert!(pred.min() >= 0.0 - 1e-3, "{} predicted negative counts", model.name());
    }
}

/// One prediction from `b` at batch size 1.
fn predict_one(model: &FittedModel, b: &Batch) -> Tensor {
    match model {
        FittedModel::Muse(trainer) => trainer.model().predict(b),
        FittedModel::Neural(trainer) => trainer.model().predict(b),
        FittedModel::Naive(_) => unreachable!("naive baselines have no rollout"),
    }
}

/// A rollout reference that shares no code with the batched rollout: each
/// step predicts from `subseries::sample` on a copy of the series, then
/// writes its prediction into the copy where the real frame was.
fn reference_rollout(model: &FittedModel, prepared: &Prepared, n: usize, horizons: usize) -> Vec<Tensor> {
    let grid = prepared.scaled.grid();
    let frame_len = 2 * grid.cells();
    let mut series = prepared.scaled.clone();
    let mut steps = Vec::with_capacity(horizons);
    for h in 0..horizons {
        let target = n + h;
        let s = sample(&series, &prepared.spec, target);
        let b = Batch {
            closeness: s.closeness.unsqueeze(0),
            period: s.period.unsqueeze(0),
            trend: s.trend.unsqueeze(0),
            target: s.target.unsqueeze(0),
            indices: vec![target],
        };
        let prediction = predict_one(model, &b);
        let mut data = series.into_tensor();
        data.as_mut_slice()[target * frame_len..(target + 1) * frame_len]
            .copy_from_slice(prediction.as_slice());
        series = FlowSeries::from_tensor(grid, data);
        steps.push(prediction);
    }
    steps
}

#[test]
fn multi_step_rollout_works_for_all_multiperiodic_models() {
    let profile = Profile { epochs: 1, max_batches: 2, ..tiny_profile() };
    let prepared = prepare(DatasetPreset::NycBike, &profile);
    let base: Vec<usize> = prepared.split.test[..4].to_vec();
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for kind in ModelKind::multiperiodic_lineup() {
        let model = fit_model(kind, &prepared, &profile);
        let preds = model.predict_multi_step(&prepared, &base, 3);
        assert_eq!(preds.len(), 3, "{}", model.name());
        for (h, p) in preds.iter().enumerate() {
            assert_eq!(p.dims()[0], base.len(), "{} horizon {h}", model.name());
            assert!(p.all_finite(), "{} horizon {h} not finite", model.name());
        }
        for (row, &n) in base.iter().enumerate() {
            for (h, want) in reference_rollout(&model, &prepared, n, 3).iter().enumerate() {
                let frame = want.len();
                assert_eq!(
                    bits(&preds[h].as_slice()[row * frame..(row + 1) * frame]),
                    bits(want.as_slice()),
                    "{} base {n} horizon {h} differs from the reference rollout",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn ablation_variants_all_train_end_to_end() {
    let profile = Profile { epochs: 1, max_batches: 3, ..tiny_profile() };
    let prepared = prepare(DatasetPreset::NycBike, &profile);
    let eval_idx = &prepared.split.test[..6];
    let truth = prepared.truth(eval_idx);
    for variant in AblationVariant::all() {
        let model = fit_model(ModelKind::MuseNet(variant), &prepared, &profile);
        let pred = model.predict_unscaled(&prepared, eval_idx);
        let (out, _) = channel_errors(&pred, &truth);
        assert!(out.rmse.is_finite(), "{} diverged", variant.name());
    }
}

#[test]
fn representations_extractable_after_training() {
    let profile = Profile { epochs: 1, max_batches: 3, ..tiny_profile() };
    let prepared = prepare(DatasetPreset::NycBike, &profile);
    let model = fit_model(ModelKind::MuseNet(AblationVariant::Full), &prepared, &profile);
    let idx = &prepared.split.test[..8];
    let b = batch(&prepared.scaled, &prepared.spec, idx);
    let FittedModel::Muse(trainer) = &model else { panic!("expected MUSE-Net") };
    let reps = trainer.model().representations(&b);
    assert_eq!(reps.interactive.dims()[0], idx.len());
    for e in &reps.exclusive {
        assert!(e.all_finite());
    }
    assert!(reps.interactive_mu.all_finite());
}
