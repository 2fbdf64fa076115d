//! Shared experiment infrastructure: profiles, dataset preparation, the
//! model zoo, evaluation, and the autoregressive multi-step rollout.

use muse_baselines::{
    DeepStnForecaster, Forecaster, HistoricalAverage, RnnForecaster, SeasonalNaive, Seq2SeqForecaster,
    StNormLiteForecaster, StgspLiteForecaster,
};
use muse_metrics::error::ErrorStats;
use muse_obs::{self as obs, ToJson};
use muse_tensor::Tensor;
use muse_traffic::dataset::{DatasetPreset, Scaler, Split, TrafficDataset};
use muse_traffic::subseries::{self, SubSeriesSpec};
use muse_traffic::FlowSeries;
use musenet::{AblationVariant, MuseNet, MuseNetConfig, Trainable, Trainer, TrainerOptions};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Compute/scale profile for an experiment run.
///
/// `quick` finishes each table in minutes on a single core; `standard`
/// grows the simulation, model width, and epoch budget. `--scale`-style
/// growth toward paper sizes goes through [`Profile::scaled`].
#[derive(Debug, Clone)]
pub struct Profile {
    /// Simulator scale multiplier (grid + agent population).
    pub scale: f32,
    /// Training epochs for every learned model.
    pub epochs: usize,
    /// Mini-batch size (paper: 8).
    pub batch_size: usize,
    /// MUSE-Net representation dim `d`.
    pub d: usize,
    /// MUSE-Net sampled dim `k`.
    pub k: usize,
    /// Hidden width for recurrent baselines.
    pub hidden: usize,
    /// Channel width for CNN baselines.
    pub channels: usize,
    /// Learning rate for MUSE-Net (paper: 2e-4; larger for short budgets).
    pub musenet_lr: f32,
    /// Learning rate for baselines.
    pub baseline_lr: f32,
    /// Cap on train batches per epoch (0 = all).
    pub max_batches: usize,
    /// Cap on evaluated test targets (0 = all) — keeps metric passes fast.
    pub max_eval: usize,
    /// Master seed.
    pub seed: u64,
    /// Derive the interception spec from spectrally detected periods
    /// instead of the paper default (`--auto-periods`).
    pub auto_periods: bool,
    /// Save each trained MUSE-Net (self-describing, with its config) here —
    /// the most recently trained model wins, so point single-model
    /// experiments at it for a deterministic serving artifact.
    pub save_checkpoint: Option<PathBuf>,
    /// Warm-start MUSE-Net training from this checkpoint instead of fresh
    /// weights, when its architecture matches the run (see
    /// [`fit_model`] for the matching rules).
    pub load_checkpoint: Option<PathBuf>,
}

impl Profile {
    /// Minutes-scale profile used by integration tests and `--quick`.
    pub fn quick() -> Self {
        Profile {
            scale: 0.5,
            epochs: 30,
            batch_size: 8,
            d: 16,
            k: 32,
            hidden: 32,
            channels: 8,
            musenet_lr: 3e-3,
            baseline_lr: 5e-3,
            max_batches: 60,
            max_eval: 120,
            seed: 42,
            auto_periods: false,
            save_checkpoint: None,
            load_checkpoint: None,
        }
    }

    /// Default harness profile (tens of minutes for the full table set).
    pub fn standard() -> Self {
        Profile {
            scale: 1.0,
            epochs: 30,
            batch_size: 8,
            d: 16,
            k: 32,
            hidden: 64,
            channels: 16,
            musenet_lr: 2e-3,
            baseline_lr: 3e-3,
            max_batches: 80,
            max_eval: 240,
            seed: 42,
            auto_periods: false,
            save_checkpoint: None,
            load_checkpoint: None,
        }
    }

    /// Scale the profile toward the paper's sizes (`factor` ≥ 1 grows the
    /// grid, model widths, and epoch budget together).
    pub fn scaled(mut self, factor: f32) -> Self {
        self.scale *= factor;
        self.d = ((self.d as f32 * factor) as usize).max(4);
        self.k = ((self.k as f32 * factor) as usize).max(8);
        self.hidden = ((self.hidden as f32 * factor) as usize).max(8);
        self.channels = ((self.channels as f32 * factor) as usize).max(4);
        self.epochs = ((self.epochs as f32 * factor) as usize).max(1);
        self
    }

    /// MUSE-Net trainer options derived from the profile.
    pub fn trainer_options(&self) -> TrainerOptions {
        TrainerOptions {
            epochs: self.epochs,
            batch_size: self.batch_size,
            learning_rate: self.musenet_lr,
            max_batches_per_epoch: self.max_batches,
            ..Default::default()
        }
    }

    /// Neural-baseline trainer options: MUSE-Net's, at the baseline
    /// learning rate and with the baselines' own shuffle seed.
    pub fn baseline_options(&self) -> TrainerOptions {
        TrainerOptions { learning_rate: self.baseline_lr, shuffle_seed: 13, ..self.trainer_options() }
    }
}

/// A prepared dataset: generated, split, and scaled.
pub struct Prepared {
    /// The generated dataset with metadata.
    pub dataset: TrafficDataset,
    /// Interception spec (paper defaults at the dataset's frequency).
    pub spec: SubSeriesSpec,
    /// Chronological splits of target indices.
    pub split: Split,
    /// Min-max scaler fitted on the training region.
    pub scaler: Scaler,
    /// The full series in scaled `[-1, 1]` units.
    pub scaled: FlowSeries,
    /// Lazily cached [`EvalPlan`], keyed by the `max_eval` it was built for.
    plan: OnceLock<(usize, Arc<EvalPlan>)>,
}

/// Generate and prepare a dataset preset under a profile.
pub fn prepare(preset: DatasetPreset, profile: &Profile) -> Prepared {
    let dataset = preset.generate(profile.scale, profile.seed);
    let spec = if profile.auto_periods {
        detect_spec(&dataset)
    } else {
        SubSeriesSpec::paper_default(dataset.intervals_per_day)
    };
    // Paper: last ~1/3 test (20 of 60 days), 10% of the rest validation;
    // reserve 3 horizons for the multi-step experiment.
    let split = dataset.split(&spec, 0.30, 0.10, 3);
    let scaler = dataset.fit_scaler(&split);
    let scaled = dataset.scaled_flows(&scaler);
    Prepared { dataset, spec, split, scaler, scaled, plan: OnceLock::new() }
}

/// Spectral auto-periodicity (`--auto-periods`): detect the dominant
/// periods on the **leading 70%** of the raw frame-mean series — the split
/// itself depends on the spec, so detection runs on the region that can
/// never become test data — and derive the interception spec from them.
/// Detection is scalar and single-threaded, so the derived spec (and hence
/// everything downstream) is a deterministic function of the dataset. When
/// the detected periods match the paper's daily + weekly structure, the
/// derived spec equals [`SubSeriesSpec::paper_default`] and training is
/// bit-identical to the hand-specified run. Falls back to the paper
/// default when nothing usable is detected.
fn detect_spec(dataset: &TrafficDataset) -> SubSeriesSpec {
    let series = dataset.flows.mean_series();
    let train_region = series.len() * 7 / 10;
    let detected = muse_fft::detect_periods(&series[..train_region], 4);
    match SubSeriesSpec::from_detected(&detected, dataset.flows.len()) {
        Ok(spec) => {
            obs::emit_with("eval.auto_periods", || {
                vec![
                    (
                        "detected",
                        obs::Json::Arr(
                            detected
                                .iter()
                                .map(|p| {
                                    obs::Json::obj([
                                        ("intervals", p.intervals.to_json()),
                                        ("power_share", p.power_share.to_json()),
                                        ("snr", p.snr.to_json()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "spec",
                        obs::Json::obj([
                            ("lc", spec.lc.to_json()),
                            ("lp", spec.lp.to_json()),
                            ("lt", spec.lt.to_json()),
                            ("intervals_per_day", spec.intervals_per_day.to_json()),
                            ("trend_days", spec.trend_days.to_json()),
                        ]),
                    ),
                    (
                        "matches_paper_default",
                        (spec == SubSeriesSpec::paper_default(spec.intervals_per_day)).to_json(),
                    ),
                ]
            });
            spec
        }
        Err(e) => {
            eprintln!("[auto-periods] {e}; falling back to the paper default");
            SubSeriesSpec::paper_default(dataset.intervals_per_day)
        }
    }
}

/// The shared evaluation plan of one driver run: the subsampled test
/// indices and their stacked ground truth, computed once per prepared
/// dataset instead of once per sweep point / lineup entry (they are
/// identical across a run's models — recomputing them was pure waste,
/// and the fleet scheduler would have recomputed them per job).
pub struct EvalPlan {
    /// Test indices, subsampled evenly to the profile's evaluation cap.
    pub indices: Vec<usize>,
    /// Ground-truth frames (original units) for `indices`: `[N, 2, H, W]`.
    pub truth: Tensor,
}

impl Prepared {
    /// Test indices, subsampled evenly to the profile's evaluation cap.
    pub fn eval_indices(&self, profile: &Profile) -> Vec<usize> {
        subsample(&self.split.test, profile.max_eval)
    }

    /// Ground-truth frames (original units) for target indices: `[N,2,H,W]`.
    pub fn truth(&self, indices: &[usize]) -> Tensor {
        let frames: Vec<Tensor> = indices.iter().map(|&n| self.dataset.flows.frame(n)).collect();
        let refs: Vec<&Tensor> = frames.iter().collect();
        Tensor::stack(&refs)
    }

    /// The cached [`EvalPlan`] for this profile. The cache is keyed by
    /// `max_eval`; a different cap on the same `Prepared` (which no driver
    /// does today) computes a fresh uncached plan rather than serving a
    /// stale one.
    pub fn eval_plan(&self, profile: &Profile) -> Arc<EvalPlan> {
        let build = || {
            let indices = self.eval_indices(profile);
            let truth = self.truth(&indices);
            Arc::new(EvalPlan { indices, truth })
        };
        let (cap, plan) = self.plan.get_or_init(|| (profile.max_eval, build()));
        if *cap == profile.max_eval {
            Arc::clone(plan)
        } else {
            build()
        }
    }
}

/// Run per-model training jobs through the inter-op fleet scheduler
/// ([`muse_parallel::run_fleet`]), with one eval-specific guard: when the
/// profile saves checkpoints, jobs are forced sequential — concurrent
/// trainings would race on the checkpoint file, and the documented
/// "most recently trained wins" contract needs a defined training order.
pub fn train_fleet<'a, R: Send>(
    label: &str,
    profile: &Profile,
    jobs: Vec<muse_parallel::FleetJob<'a, R>>,
) -> Vec<R> {
    if profile.save_checkpoint.is_some() {
        muse_parallel::with_jobs(1, || muse_parallel::run_fleet(label, jobs))
    } else {
        muse_parallel::run_fleet(label, jobs)
    }
}

/// Evenly subsample `indices` down to `cap` entries (0 = keep all).
pub fn subsample(indices: &[usize], cap: usize) -> Vec<usize> {
    if cap == 0 || indices.len() <= cap {
        return indices.to_vec();
    }
    let step = indices.len() as f32 / cap as f32;
    (0..cap).map(|i| indices[(i as f32 * step) as usize]).collect()
}

/// Which models an experiment trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Historical average.
    Ha,
    /// Seasonal naive (daily lag).
    SeasonalNaive,
    /// Vanilla RNN.
    Rnn,
    /// GRU Seq2Seq.
    Seq2Seq,
    /// DeepSTN+-style entangled CNN.
    DeepStn,
    /// ST-GSP-lite attention model.
    StgspLite,
    /// ST-Norm-lite normalization model.
    StNormLite,
    /// MUSE-Net (full or an ablation variant).
    MuseNet(AblationVariant),
}

impl ModelKind {
    /// Table II's method list (ours last, as in the paper).
    pub fn table2_lineup() -> Vec<ModelKind> {
        vec![
            ModelKind::Ha,
            ModelKind::SeasonalNaive,
            ModelKind::Rnn,
            ModelKind::Seq2Seq,
            ModelKind::StNormLite,
            ModelKind::StgspLite,
            ModelKind::DeepStn,
            ModelKind::MuseNet(AblationVariant::Full),
        ]
    }

    /// The multi-periodic methods compared in Tables III–V.
    pub fn multiperiodic_lineup() -> Vec<ModelKind> {
        vec![
            ModelKind::StgspLite,
            ModelKind::StNormLite,
            ModelKind::DeepStn,
            ModelKind::MuseNet(AblationVariant::Full),
        ]
    }

    /// Whether this is our model.
    pub fn is_ours(&self) -> bool {
        matches!(self, ModelKind::MuseNet(_))
    }
}

/// A fitted model, behind the unified interface the drivers use.
pub enum FittedModel {
    /// A naive baseline (HA, seasonal copy): index-based prediction only.
    Naive(Box<dyn Forecaster>),
    /// A neural baseline with its trainer: also supports multi-step rollout.
    Neural(Trainer<Box<dyn Trainable>>),
    /// MUSE-Net with its trainer.
    Muse(Box<Trainer>),
}

impl FittedModel {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            FittedModel::Naive(b) => b.name().to_string(),
            FittedModel::Neural(t) => t.model().name().to_string(),
            FittedModel::Muse(t) => t.model().name().to_string(),
        }
    }

    /// Predict (scaled units) for target indices.
    pub fn predict(&self, prepared: &Prepared, indices: &[usize]) -> Tensor {
        match self {
            FittedModel::Naive(b) => b.predict(&prepared.scaled, &prepared.spec, indices),
            FittedModel::Neural(t) => t.predict_indices(&prepared.scaled, &prepared.spec, indices),
            FittedModel::Muse(t) => t.predict_indices(&prepared.scaled, &prepared.spec, indices),
        }
    }

    /// Predict in original units.
    pub fn predict_unscaled(&self, prepared: &Prepared, indices: &[usize]) -> Tensor {
        prepared.scaler.unscale(&self.predict(prepared, indices))
    }

    /// Autoregressive multi-step rollout (scaled units), one `[N, 2, H, W]`
    /// tensor per horizon. Panics for the naive baselines (the multi-step
    /// tables do not include them).
    pub fn predict_multi_step(&self, prepared: &Prepared, indices: &[usize], horizons: usize) -> Vec<Tensor> {
        match self {
            FittedModel::Muse(t) => {
                t.model().predict_multi_step(&prepared.scaled, &prepared.spec, indices, horizons)
            }
            FittedModel::Neural(t) => {
                subseries::roll_out(&prepared.scaled, &prepared.spec, indices, horizons, |batch| {
                    t.model().predict(batch)
                })
            }
            FittedModel::Naive(_) => panic!("naive baselines have no multi-step rollout"),
        }
    }
}

/// Build and fit one model on a prepared dataset.
pub fn fit_model(kind: ModelKind, prepared: &Prepared, profile: &Profile) -> FittedModel {
    let grid = prepared.dataset.grid();
    let spec = &prepared.spec;
    let train = &prepared.split.train;
    let val = &prepared.split.val;
    let scaled = &prepared.scaled;
    let neural = |model: Box<dyn Trainable>| {
        let mut trainer = Trainer::new(model, profile.baseline_options());
        trainer.fit(scaled, spec, train, val);
        FittedModel::Neural(trainer)
    };
    match kind {
        ModelKind::Ha => {
            let mut m = HistoricalAverage::new();
            m.fit(scaled, spec, train, val);
            FittedModel::Naive(Box::new(m))
        }
        ModelKind::SeasonalNaive => {
            let mut m = SeasonalNaive::daily();
            m.fit(scaled, spec, train, val);
            FittedModel::Naive(Box::new(m))
        }
        ModelKind::Rnn => neural(Box::new(RnnForecaster::new(grid, spec, profile.hidden, profile.seed + 1))),
        ModelKind::Seq2Seq => {
            neural(Box::new(Seq2SeqForecaster::new(grid, spec, profile.hidden, profile.seed + 2)))
        }
        ModelKind::DeepStn => {
            neural(Box::new(DeepStnForecaster::new(grid, spec, profile.channels, 2, profile.seed + 3)))
        }
        ModelKind::StgspLite => {
            neural(Box::new(StgspLiteForecaster::new(grid, spec, profile.channels, profile.seed + 4)))
        }
        ModelKind::StNormLite => {
            neural(Box::new(StNormLiteForecaster::new(grid, spec, profile.channels, profile.seed + 5)))
        }
        ModelKind::MuseNet(variant) => {
            let mut cfg = MuseNetConfig::cpu_profile(grid, *spec);
            cfg.d = profile.d;
            cfg.k = profile.k;
            // Match the DeepSTN+ baseline's spatial depth.
            cfg.resplus_blocks = 2;
            cfg.variant = variant;
            cfg.seed = profile.seed + 6;
            let model = warm_start(&cfg, profile).unwrap_or_else(|| MuseNet::new(cfg));
            let mut trainer = Trainer::new(model, profile.trainer_options());
            trainer.fit(scaled, spec, train, val);
            if let Some(path) = &profile.save_checkpoint {
                trainer.model().save_with_config(path).unwrap_or_else(|e| {
                    panic!("saving checkpoint {}: {e}", path.display());
                });
                obs::emit_with("eval.checkpoint", || {
                    vec![
                        ("path", path.display().to_string().to_json()),
                        ("variant", trainer.model().config().variant.name().to_json()),
                        ("param_count", trainer.model().param_count().to_json()),
                    ]
                });
            }
            FittedModel::Muse(Box::new(trainer))
        }
    }
}

/// Resolve `--load-checkpoint` for a MUSE-Net fit: rebuild the checkpointed
/// model when its architecture matches what this run would construct
/// (variant, grid, spec, `d`, `k`), so training continues from the saved
/// weights. A mismatched or unreadable checkpoint falls back to fresh
/// weights with a note on stderr — ablation sweeps warm-start only the
/// variant the checkpoint actually holds.
fn warm_start(cfg: &MuseNetConfig, profile: &Profile) -> Option<MuseNet> {
    let path = profile.load_checkpoint.as_ref()?;
    let model = match MuseNet::from_checkpoint(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("[warm-start] ignoring {}: {e}", path.display());
            return None;
        }
    };
    let saved = model.config();
    let matches = saved.variant == cfg.variant
        && saved.grid == cfg.grid
        && saved.spec == cfg.spec
        && saved.d == cfg.d
        && saved.k == cfg.k;
    if !matches {
        eprintln!(
            "[warm-start] {} holds {} (d={}, k={}, {}x{}), run wants {} (d={}, k={}, {}x{}); training fresh",
            path.display(),
            saved.variant.name(),
            saved.d,
            saved.k,
            saved.grid.height,
            saved.grid.width,
            cfg.variant.name(),
            cfg.d,
            cfg.k,
            cfg.grid.height,
            cfg.grid.width,
        );
        return None;
    }
    obs::emit_with("eval.warm_start", || {
        vec![("path", path.display().to_string().to_json()), ("variant", saved.variant.name().to_json())]
    });
    Some(model)
}

/// Split `[N, 2, H, W]` predictions into (outflow, inflow) `[N, 1, H, W]`.
pub fn split_channels(x: &Tensor) -> (Tensor, Tensor) {
    let parts = x.split(1, &[1, 1]);
    let mut it = parts.into_iter();
    (it.next().unwrap(), it.next().unwrap())
}

/// Per-channel error stats (outflow, inflow) in the units of the inputs.
pub fn channel_errors(pred: &Tensor, truth: &Tensor) -> (ErrorStats, ErrorStats) {
    let (po, pi) = split_channels(pred);
    let (to, ti) = split_channels(truth);
    (ErrorStats::between(&po, &to), ErrorStats::between(&pi, &ti))
}

/// Which datasets an invocation covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalSet {
    /// All three presets (the paper's setting).
    All,
    /// A single preset (quick runs / tests).
    One(DatasetPreset),
}

impl EvalSet {
    /// The presets to iterate.
    pub fn presets(&self) -> Vec<DatasetPreset> {
        match self {
            EvalSet::All => DatasetPreset::all().to_vec(),
            EvalSet::One(p) => vec![*p],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> Profile {
        Profile {
            scale: 0.45,
            epochs: 1,
            max_batches: 4,
            max_eval: 12,
            d: 4,
            k: 8,
            hidden: 8,
            channels: 4,
            ..Profile::quick()
        }
    }

    #[test]
    fn prepare_builds_consistent_views() {
        let profile = tiny_profile();
        let prepared = prepare(DatasetPreset::NycBike, &profile);
        assert_eq!(prepared.scaled.len(), prepared.dataset.flows.len());
        assert!(!prepared.split.train.is_empty());
        assert!(prepared.split.test.last().unwrap() + 3 <= prepared.scaled.len());
        // Scaled training data is in [-1, 1].
        assert!(prepared.scaled.tensor().min() >= -1.0 - 1e-5);
    }

    #[test]
    fn auto_periods_reproduces_hand_specified_preparation() {
        // The simulator's diurnal + weekly structure is what the paper
        // hand-codes; when detection recovers it, `--auto-periods` must be
        // bit-identical to the default run.
        let mut profile = tiny_profile();
        let by_hand = prepare(DatasetPreset::NycBike, &profile);
        profile.auto_periods = true;
        let detected = prepare(DatasetPreset::NycBike, &profile);
        assert_eq!(detected.spec, SubSeriesSpec::paper_default(24));
        assert_eq!(detected.spec, by_hand.spec);
        assert_eq!(detected.split.train, by_hand.split.train);
        assert_eq!(detected.split.test, by_hand.split.test);
        let (a, b) = (detected.scaled.tensor().as_slice(), by_hand.scaled.tensor().as_slice());
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn subsample_even_and_capped() {
        let idx: Vec<usize> = (0..100).collect();
        let s = subsample(&idx, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert!(s.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(subsample(&idx, 0).len(), 100);
        assert_eq!(subsample(&idx[..5], 10).len(), 5);
    }

    #[test]
    fn lineups_match_paper_structure() {
        let t2 = ModelKind::table2_lineup();
        assert!(t2.last().unwrap().is_ours());
        assert_eq!(t2.len(), 8);
        let mp = ModelKind::multiperiodic_lineup();
        assert_eq!(mp.len(), 4);
        assert!(mp.last().unwrap().is_ours());
    }

    #[test]
    fn fit_and_evaluate_naive_models() {
        let profile = tiny_profile();
        let prepared = prepare(DatasetPreset::NycBike, &profile);
        let eval_idx = prepared.eval_indices(&profile);
        for kind in [ModelKind::Ha, ModelKind::SeasonalNaive] {
            let m = fit_model(kind, &prepared, &profile);
            let pred = m.predict_unscaled(&prepared, &eval_idx);
            let truth = prepared.truth(&eval_idx);
            let (out, inn) = channel_errors(&pred, &truth);
            assert!(out.rmse.is_finite() && inn.rmse.is_finite());
            assert!(out.rmse > 0.0, "synthetic data should not be exactly predictable");
        }
    }

    #[test]
    fn split_channels_roundtrip() {
        let x = Tensor::arange(0.0, 16.0).reshape(&[2, 2, 2, 2]);
        let (o, i) = split_channels(&x);
        assert_eq!(o.dims(), &[2, 1, 2, 2]);
        assert_eq!(o.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(i.at(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn eval_plan_caches_per_cap() {
        let profile = tiny_profile();
        let prepared = prepare(DatasetPreset::NycBike, &profile);
        let a = prepared.eval_plan(&profile);
        let b = prepared.eval_plan(&profile);
        assert!(Arc::ptr_eq(&a, &b), "same cap must reuse the cached plan");
        assert_eq!(a.indices, prepared.eval_indices(&profile));
        let mut other = profile.clone();
        other.max_eval = 6;
        let c = prepared.eval_plan(&other);
        assert!(!Arc::ptr_eq(&a, &c), "different cap must not reuse the cache");
        assert_eq!(c.indices, prepared.eval_indices(&other));
    }

    #[test]
    fn train_fleet_checkpoint_forces_sequential() {
        let mut profile = tiny_profile();
        profile.save_checkpoint = Some(std::env::temp_dir().join("muse-fleet-ckpt-test"));
        let caller = std::thread::current().id();
        let ids = muse_parallel::with_jobs(4, || {
            let jobs: Vec<muse_parallel::FleetJob<'_, std::thread::ThreadId>> = (0..3)
                .map(|_| {
                    Box::new(|| std::thread::current().id())
                        as muse_parallel::FleetJob<'_, std::thread::ThreadId>
                })
                .collect();
            train_fleet("test.ckpt_guard", &profile, jobs)
        });
        assert!(ids.iter().all(|&id| id == caller), "checkpointing fleets must run on the caller thread");
    }

    #[test]
    fn eval_set_presets() {
        assert_eq!(EvalSet::All.presets().len(), 3);
        assert_eq!(EvalSet::One(DatasetPreset::TaxiBj).presets(), vec![DatasetPreset::TaxiBj]);
    }
}
