//! Mini-batch Adam training (the paper's joint training, §IV-E): the one
//! loop that fits MUSE-Net and every neural baseline under the same
//! protocol — shuffled mini-batches, Adam, gradient-norm clipping, and
//! keeping the best-validation parameters.

use crate::loss::LossTerms;
use crate::model::{ForwardPass, MuseNet};
use muse_autograd::{Tape, Var};
use muse_nn::{clip_grad_norm, Adam, Optimizer, ParamRef, Session};
use muse_obs::{self as obs, Json, ToJson};
use muse_tensor::init::SeededRng;
use muse_tensor::{arena, Tensor};
use muse_traffic::subseries::{batch, batch_into, Batch, SubSeriesSpec};
use muse_traffic::FlowSeries;
use std::sync::OnceLock;
use std::time::Instant;

/// A model [`Trainer`] can fit: a per-batch prediction graph over named
/// parameters. The provided methods give MSE regression training and
/// forward-only prediction; MUSE-Net overrides `train_graph` with its full
/// objective (Eq. 26).
pub trait Trainable {
    /// Display name (matching the paper's tables).
    fn name(&self) -> &str;

    /// Trainable parameters, in optimizer order.
    fn params(&self) -> Vec<ParamRef>;

    /// Build the prediction variable for a batch: `[B, 2, H, W]`.
    fn predict_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> Var<'t>;

    /// The training objective for a batch: MSE regression on its target.
    fn train_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> ForwardPass<'t> {
        let prediction = self.predict_graph(s, batch);
        let loss = muse_autograd::vae_ops::mse(&prediction, &batch.target);
        let regression = loss.item();
        let terms = LossTerms {
            kl_exclusive: 0.0,
            kl_interactive: 0.0,
            reconstruction: 0.0,
            pulling: 0.0,
            regression,
            total: regression,
        };
        ForwardPass { prediction, loss, terms }
    }

    /// Deterministic prediction `[B, 2, H, W]` (scaled units), on a
    /// forward-only tape.
    fn predict(&self, batch: &Batch) -> Tensor {
        let tape = Tape::forward_only();
        let s = Session::new(&tape);
        self.predict_graph(&s, batch).value()
    }
}

impl<M: Trainable + ?Sized> Trainable for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn params(&self) -> Vec<ParamRef> {
        (**self).params()
    }

    fn predict_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> Var<'t> {
        (**self).predict_graph(s, batch)
    }

    fn train_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> ForwardPass<'t> {
        (**self).train_graph(s, batch)
    }

    fn predict(&self, batch: &Batch) -> Tensor {
        (**self).predict(batch)
    }
}

/// Training options.
///
/// Paper settings: Adam, learning rate `2e-4`, batch 8, up to 350 epochs.
/// The defaults here shorten the epoch budget to CPU scale; everything is
/// overridable.
#[derive(Debug, Clone)]
pub struct TrainerOptions {
    /// Number of passes over the training indices.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip_norm: f32,
    /// Shuffle seed for epoch ordering.
    pub shuffle_seed: u64,
    /// Early-stop patience in epochs without validation improvement
    /// (0 disables early stopping).
    pub patience: usize,
    /// Cap on train batches per epoch (0 = no cap) — keeps harness sweeps
    /// CPU-feasible on large splits.
    pub max_batches_per_epoch: usize,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions {
            epochs: 12,
            batch_size: 8,
            learning_rate: 2e-4,
            clip_norm: 5.0,
            shuffle_seed: 7,
            patience: 0,
            max_batches_per_epoch: 0,
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean total loss over the epoch's *finite* batches.
    pub train_loss: f32,
    /// Mean regression component.
    pub train_regression: f32,
    /// Validation RMSE in scaled units (if a validation set was given).
    pub val_rmse: Option<f32>,
    /// Batches skipped this epoch because the forward pass diverged
    /// (non-finite loss). These do not contribute to the means above.
    pub skipped_batches: usize,
}

impl ToJson for EpochRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epoch", self.epoch.to_json()),
            ("train_loss", self.train_loss.to_json()),
            ("train_regression", self.train_regression.to_json()),
            ("val_rmse", self.val_rmse.to_json()),
            ("skipped_batches", self.skipped_batches.to_json()),
        ])
    }
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// One record per completed epoch.
    pub epochs: Vec<EpochRecord>,
    /// Best validation RMSE seen (scaled units).
    pub best_val_rmse: Option<f32>,
    /// Loss terms of the final training batch (diagnostics).
    pub final_terms: Option<LossTerms>,
}

impl TrainReport {
    /// Mean training loss of the first epoch (for convergence assertions).
    pub fn first_loss(&self) -> f32 {
        self.epochs.first().map_or(f32::NAN, |e| e.train_loss)
    }

    /// Mean training loss of the last epoch.
    pub fn last_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::NAN, |e| e.train_loss)
    }

    /// Total diverged batches skipped across all epochs.
    pub fn total_skipped_batches(&self) -> usize {
        self.epochs.iter().map(|e| e.skipped_batches).sum()
    }
}

impl ToJson for TrainReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epochs", self.epochs.to_json()),
            ("best_val_rmse", self.best_val_rmse.to_json()),
            ("final_terms", self.final_terms.to_json()),
            ("skipped_batches", self.total_skipped_batches().to_json()),
        ])
    }
}

/// Trainer owning the model and optimizer state.
pub struct Trainer<M: Trainable = MuseNet> {
    model: M,
    options: TrainerOptions,
    optimizer: Adam,
}

impl<M: Trainable> Trainer<M> {
    /// Create a trainer for a model.
    pub fn new(model: M, options: TrainerOptions) -> Self {
        let optimizer = Adam::with_defaults(model.params(), options.learning_rate);
        Trainer { model, options, optimizer }
    }

    /// The trained model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consume the trainer, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// The options.
    pub fn options(&self) -> &TrainerOptions {
        &self.options
    }

    /// Fit on (scaled) flows. `train_idx`/`val_idx` are target indices into
    /// `flows` (see [`muse_traffic::dataset::TrafficDataset::split`]).
    pub fn fit(
        &mut self,
        flows: &FlowSeries,
        spec: &SubSeriesSpec,
        train_idx: &[usize],
        val_idx: &[usize],
    ) -> TrainReport {
        assert!(!train_idx.is_empty(), "no training indices");
        let mut shuffle_rng = SeededRng::new(self.options.shuffle_seed);
        let mut report = TrainReport { epochs: Vec::new(), best_val_rmse: None, final_terms: None };
        let mut best = f32::INFINITY;
        let mut since_best = 0usize;
        let mut best_snapshot: Option<Vec<Tensor>> = None;

        let run = obs::next_run_id();
        // Smoothed live loss, exported as a gauge so a scraper (or the
        // serve-path quality tooling) can watch training health without
        // parsing per-batch trace events.
        let mut loss_ewma = obs::Ewma::new(0.05);
        let opts = &self.options;
        obs::emit_with("train.start", || {
            vec![
                ("run", run.to_json()),
                ("model", self.model.name().to_json()),
                ("epochs", opts.epochs.to_json()),
                ("batch_size", opts.batch_size.to_json()),
                ("learning_rate", opts.learning_rate.to_json()),
                ("clip_norm", opts.clip_norm.to_json()),
                ("shuffle_seed", opts.shuffle_seed.to_json()),
                ("patience", opts.patience.to_json()),
                ("max_batches_per_epoch", opts.max_batches_per_epoch.to_json()),
                ("train_size", train_idx.len().to_json()),
                ("val_size", val_idx.len().to_json()),
            ]
        });
        let fit_start = Instant::now();
        let _fit_span = obs::span("train.fit");

        // Reusable training context: one tape/session pair and one staging
        // batch for the whole run. Per step, `Tape::reset` + `Session::reset`
        // keep their capacity (and, through the tensor arena, the value
        // buffers), so the steady-state batch allocates (almost) nothing.
        let tape = Tape::new();
        let s = Session::new(&tape);
        let mut staging = Batch::staging();
        let mut indices: Vec<usize> = Vec::new();

        for epoch in 0..self.options.epochs {
            let epoch_start = Instant::now();
            let order = shuffle_rng.permutation(train_idx.len());
            let mut losses = Vec::new();
            let mut regs = Vec::new();
            let mut term_sums = [0.0f64; 4]; // kl_ex, kl_in, reconstruction, pulling
            let mut skipped = 0usize;
            let mut samples = 0usize;
            let mut batch_count = 0usize;
            for chunk in order.chunks(self.options.batch_size) {
                if self.options.max_batches_per_epoch > 0 && batch_count >= self.options.max_batches_per_epoch
                {
                    break;
                }
                let batch_start = Instant::now();
                let alloc0 = arena::stats();
                indices.clear();
                indices.extend(chunk.iter().map(|&i| train_idx[i]));
                {
                    let _span = obs::span("train.data");
                    batch_into(flows, spec, &indices, &mut staging);
                }
                tape.reset();
                s.reset();
                let pass = {
                    let _span = obs::span("train.forward");
                    self.model.train_graph(&s, &staging)
                };
                if !pass.terms.is_finite() {
                    // Skip a diverged batch rather than poisoning the run:
                    // it contributes to `skipped_batches`, never to the
                    // epoch's loss means.
                    skipped += 1;
                    obs::emit_with("train.batch_skipped", || {
                        vec![
                            ("run", run.to_json()),
                            ("epoch", epoch.to_json()),
                            ("batch", batch_count.to_json()),
                            ("terms", pass.terms.to_json()),
                        ]
                    });
                    continue;
                }
                losses.push(pass.terms.total);
                static LOSS_EWMA: OnceLock<&obs::Gauge> = OnceLock::new();
                LOSS_EWMA
                    .get_or_init(|| obs::gauge("train.loss_ewma"))
                    .set(loss_ewma.update(pass.terms.total as f64));
                regs.push(pass.terms.regression);
                term_sums[0] += pass.terms.kl_exclusive as f64;
                term_sums[1] += pass.terms.kl_interactive as f64;
                term_sums[2] += pass.terms.reconstruction as f64;
                term_sums[3] += pass.terms.pulling as f64;
                report.final_terms = Some(pass.terms);
                {
                    let _span = obs::span("train.backward");
                    s.backward(pass.loss);
                    if self.options.clip_norm > 0.0 {
                        clip_grad_norm(self.optimizer.params(), self.options.clip_norm);
                    }
                }
                // Release the tape's shared parameter leaves, so the
                // optimizer updates every parameter in its own buffer
                // instead of copying on write.
                tape.reset();
                s.reset();
                {
                    let _span = obs::span("train.optim");
                    self.optimizer.step();
                    self.optimizer.zero_grad();
                }
                samples += indices.len();
                obs::emit_with("train.batch", || {
                    let secs = batch_start.elapsed().as_secs_f64().max(1e-9);
                    let alloc1 = arena::stats();
                    vec![
                        ("run", run.to_json()),
                        ("epoch", epoch.to_json()),
                        ("batch", batch_count.to_json()),
                        ("size", indices.len().to_json()),
                        ("terms", pass.terms.to_json()),
                        ("duration_ms", (secs * 1e3).to_json()),
                        ("samples_per_sec", (indices.len() as f64 / secs).to_json()),
                        ("alloc_bytes", (alloc1.alloc_bytes - alloc0.alloc_bytes).to_json()),
                        ("pool_hits", (alloc1.pool_hits - alloc0.pool_hits).to_json()),
                    ]
                });
                batch_count += 1;
            }
            let train_loss = mean(&losses);
            let train_regression = mean(&regs);
            let val_rmse = if val_idx.is_empty() {
                None
            } else {
                let _span = obs::span("train.validate");
                Some(self.validation_rmse(flows, spec, val_idx))
            };
            let record =
                EpochRecord { epoch, train_loss, train_regression, val_rmse, skipped_batches: skipped };
            obs::emit_with("train.epoch", || {
                let n = losses.len().max(1) as f64;
                let secs = epoch_start.elapsed().as_secs_f64().max(1e-9);
                vec![
                    ("run", run.to_json()),
                    ("record", record.to_json()),
                    ("kl_exclusive", (term_sums[0] / n).to_json()),
                    ("kl_interactive", (term_sums[1] / n).to_json()),
                    ("reconstruction", (term_sums[2] / n).to_json()),
                    ("pulling", (term_sums[3] / n).to_json()),
                    ("batches", batch_count.to_json()),
                    ("duration_ms", (secs * 1e3).to_json()),
                    ("samples_per_sec", (samples as f64 / secs).to_json()),
                ]
            });
            report.epochs.push(record);

            if let Some(v) = val_rmse {
                if v < best {
                    best = v;
                    since_best = 0;
                    best_snapshot = Some(muse_nn::snapshot(self.optimizer.params()));
                } else {
                    since_best += 1;
                    if self.options.patience > 0 && since_best >= self.options.patience {
                        obs::emit_with("train.early_stop", || {
                            vec![
                                ("run", run.to_json()),
                                ("epoch", epoch.to_json()),
                                ("best_val_rmse", best.to_json()),
                                ("epochs_since_best", since_best.to_json()),
                            ]
                        });
                        break;
                    }
                }
            }
        }
        if best.is_finite() {
            report.best_val_rmse = Some(best);
        }
        // Keep the best-validation parameters (standard early-selection).
        if let Some(snap) = best_snapshot {
            muse_nn::restore(self.optimizer.params(), &snap);
        }
        obs::emit_with("train.end", || {
            vec![
                ("run", run.to_json()),
                ("epochs_run", report.epochs.len().to_json()),
                ("best_val_rmse", report.best_val_rmse.to_json()),
                ("skipped_batches", report.total_skipped_batches().to_json()),
                ("final_terms", report.final_terms.to_json()),
                ("duration_ms", (fit_start.elapsed().as_secs_f64() * 1e3).to_json()),
            ]
        });
        report
    }

    /// RMSE of deterministic predictions over a set of targets, in the
    /// (scaled) units of `flows`.
    pub fn validation_rmse(&self, flows: &FlowSeries, spec: &SubSeriesSpec, indices: &[usize]) -> f32 {
        let preds = self.predict_indices(flows, spec, indices);
        let truths = stack_frames(flows, indices);
        muse_metrics::error::rmse(&preds, &truths)
    }

    /// Deterministic predictions for arbitrary target indices, batched for
    /// memory friendliness: returns `[N, 2, H, W]`.
    pub fn predict_indices(&self, flows: &FlowSeries, spec: &SubSeriesSpec, indices: &[usize]) -> Tensor {
        assert!(!indices.is_empty(), "no indices to predict");
        let mut parts: Vec<Tensor> = Vec::new();
        for chunk in indices.chunks(self.options.batch_size.max(1)) {
            let b = batch(flows, spec, chunk);
            parts.push(self.model.predict(&b));
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, 0)
    }
}

/// Stack ground-truth frames for target indices: `[N, 2, H, W]`.
pub fn stack_frames(flows: &FlowSeries, indices: &[usize]) -> Tensor {
    let frames: Vec<Tensor> = indices.iter().map(|&n| flows.frame(n)).collect();
    let refs: Vec<&Tensor> = frames.iter().collect();
    Tensor::stack(&refs)
}

fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::AblationVariant;
    use crate::config::MuseNetConfig;
    use muse_tensor::Tensor;
    use muse_traffic::{GridMap, SubSeriesSpec};

    /// A tiny synthetic flow series with a strong daily pattern the model
    /// can learn quickly.
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

    fn tiny_setup() -> (MuseNetConfig, FlowSeries, Vec<usize>, Vec<usize>) {
        let grid = GridMap::new(3, 3);
        let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 6, trend_days: 7 };
        let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
        cfg.d = 4;
        cfg.k = 8;
        let flows = patterned_flows(grid, 10, 6);
        let first = spec.min_target();
        let train: Vec<usize> = (first..first + 12).collect();
        let val: Vec<usize> = (first + 12..first + 16).collect();
        (cfg, flows, train, val)
    }

    #[test]
    fn training_reduces_loss_and_tracks_validation() {
        let (cfg, flows, train, val) = tiny_setup();
        let model = MuseNet::new(cfg.clone());
        let mut trainer = Trainer::new(
            model,
            TrainerOptions { epochs: 6, batch_size: 4, learning_rate: 3e-3, ..Default::default() },
        );
        let report = trainer.fit(&flows, &cfg.spec, &train, &val);
        assert_eq!(report.epochs.len(), 6);
        assert!(
            report.last_loss() < report.first_loss(),
            "{} -> {}",
            report.first_loss(),
            report.last_loss()
        );
        assert!(report.best_val_rmse.is_some());
        assert!(report.final_terms.unwrap().is_finite());
    }

    #[test]
    fn learned_model_beats_untrained_on_validation() {
        let (cfg, flows, train, val) = tiny_setup();
        let untrained_rmse = {
            let t = Trainer::new(MuseNet::new(cfg.clone()), TrainerOptions::default());
            t.validation_rmse(&flows, &cfg.spec, &val)
        };
        let trained_rmse = {
            let mut t = Trainer::new(
                MuseNet::new(cfg.clone()),
                TrainerOptions { epochs: 8, batch_size: 4, learning_rate: 3e-3, ..Default::default() },
            );
            t.fit(&flows, &cfg.spec, &train, &val);
            t.validation_rmse(&flows, &cfg.spec, &val)
        };
        assert!(
            trained_rmse < untrained_rmse,
            "training did not help: {trained_rmse} vs untrained {untrained_rmse}"
        );
    }

    #[test]
    fn early_stopping_respects_patience() {
        let (cfg, flows, train, val) = tiny_setup();
        let mut trainer = Trainer::new(
            MuseNet::new(cfg.clone()),
            TrainerOptions {
                epochs: 50,
                batch_size: 4,
                learning_rate: 0.0, // frozen: validation can never improve
                patience: 2,
                ..Default::default()
            },
        );
        let report = trainer.fit(&flows, &cfg.spec, &train, &val);
        assert!(report.epochs.len() < 50, "early stopping never triggered");
    }

    #[test]
    fn predict_indices_matches_batched_shapes() {
        let (cfg, flows, train, _) = tiny_setup();
        let trainer =
            Trainer::new(MuseNet::new(cfg.clone()), TrainerOptions { batch_size: 3, ..Default::default() });
        let preds = trainer.predict_indices(&flows, &cfg.spec, &train[..7]);
        assert_eq!(preds.dims(), &[7, 2, 3, 3]);
        let truths = stack_frames(&flows, &train[..7]);
        assert_eq!(truths.dims(), preds.dims());
    }

    #[test]
    fn max_batches_caps_epoch_cost() {
        let (cfg, flows, train, _) = tiny_setup();
        let mut trainer = Trainer::new(
            MuseNet::new(cfg.clone()),
            TrainerOptions { epochs: 1, batch_size: 2, max_batches_per_epoch: 2, ..Default::default() },
        );
        // Runs fast and records a single epoch; correctness of the cap is
        // observable through the epoch record being present.
        let report = trainer.fit(&flows, &cfg.spec, &train, &[]);
        assert_eq!(report.epochs.len(), 1);
        assert!(report.epochs[0].val_rmse.is_none());
    }

    #[test]
    fn a_training_step_updates_every_parameter_in_its_own_buffer() {
        let (cfg, flows, train, _) = tiny_setup();
        let model = MuseNet::new(cfg.clone());
        let params = model.params();
        let address = |p: &ParamRef| p.with_value(|v| v.as_slice().as_ptr());
        let before: Vec<_> = params.iter().map(|p| (address(p), p.value())).collect();
        let mut trainer = Trainer::new(
            model,
            TrainerOptions { epochs: 1, batch_size: 4, max_batches_per_epoch: 1, ..Default::default() },
        );
        trainer.fit(&flows, &cfg.spec, &train, &[]);
        let mut updated = 0;
        for (p, (at, value)) in params.iter().zip(&before) {
            assert_eq!(address(p), *at, "{} was copied, not updated in place", p.name());
            updated += usize::from(p.value() != *value);
        }
        assert!(updated > 0, "the batch updated no parameter");
    }

    #[test]
    fn ablated_variants_train_too() {
        let (mut cfg, flows, train, val) = tiny_setup();
        for variant in [AblationVariant::WithoutSpatial, AblationVariant::WithoutMultiDisentangle] {
            cfg.variant = variant;
            let mut trainer = Trainer::new(
                MuseNet::new(cfg.clone()),
                TrainerOptions { epochs: 2, batch_size: 4, learning_rate: 1e-3, ..Default::default() },
            );
            let report = trainer.fit(&flows, &cfg.spec, &train, &val);
            assert!(report.last_loss().is_finite(), "{variant:?} diverged");
        }
    }
}
