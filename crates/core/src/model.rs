//! The MUSE-Net model: one shared representation pass (exclusive encoders
//! → interactive encoder(s) → spatial stack) under the training objective,
//! the serving pass and representation extraction.

use crate::config::MuseNetConfig;
use crate::decoder::ReconstructedDecoder;
use crate::encoders::{spatial_pool, EncoderOutput, ExclusiveEncoder, InteractiveEncoder};
use crate::loss::{saturate, LossTerms, ObjectiveWeights};
use crate::resplus::{PointwiseHead, ResPlus};
use crate::trainer::Trainable;
use crate::variational::{Branch, VariationalEncoder};
use muse_autograd::vae_ops::{kl_between_fused, kl_to_standard_normal, reparameterize, sse_per_sample};
use muse_autograd::{Tape, Var};
use muse_nn::{ParamRef, Session};
use muse_obs as obs;
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::subseries::{self, SubSeriesSpec};
use muse_traffic::{Batch, FlowSeries};
use std::cell::RefCell;

/// Spatial dependency module: ResPlus, or a pointwise head for the
/// `w/o-Spatial` ablation.
enum SpatialHead {
    ResPlus(ResPlus),
    Pointwise(PointwiseHead),
}

/// Interactive pathway: one multivariate `Z^S`, or three pairwise
/// representations for the `w/o-MultiDisentangle` ablation.
// The pairwise variant is ~3x larger, but at most one model exists per run,
// so the size gap buys nothing to box away.
#[allow(clippy::large_enum_variant)]
enum InteractivePath {
    Multivariate(InteractiveEncoder),
    /// Encoders over the pairs `(C,P), (C,T), (P,T)`.
    Pairwise([InteractiveEncoder; 3]),
}

/// The semantic-pulling encoders (Eq. 29), built for the variants that
/// train them (all of which use the multivariate `Z^S`).
struct Pulling {
    /// `g_τ^i(z^s|i)` per branch.
    simplex: [VariationalEncoder; 3],
    /// `d_ω^{i,j}(z^s|i,j)` per unordered pair.
    duplex: [VariationalEncoder; 3],
}

/// The MUSE-Net model. See the crate docs for the architecture overview.
pub struct MuseNet {
    config: MuseNetConfig,
    exclusive: [ExclusiveEncoder; 3],
    interactive: InteractivePath,
    pulling: Option<Pulling>,
    decoders: [ReconstructedDecoder; 3],
    spatial: SpatialHead,
    /// Reparameterization noise source (deterministic per model seed).
    noise: RefCell<SeededRng>,
}

/// One training-step graph: the prediction variable, the total loss to
/// backprop, and the component read-out.
pub struct ForwardPass<'t> {
    /// Forecast `[B, 2, H, W]` in scaled units.
    pub prediction: Var<'t>,
    /// Weighted total objective (minimize).
    pub loss: Var<'t>,
    /// Scalar components for logging.
    pub terms: LossTerms,
}

/// Deterministic per-sample representations for the analysis experiments
/// (RQ3–RQ5): spatially pooled feature maps and posterior means.
#[derive(Debug, Clone)]
pub struct Representations {
    /// Pooled exclusive representations `[B, d]`, order C, P, T.
    pub exclusive: [Tensor; 3],
    /// Pooled interactive representation `[B, d]` (mean of the pairwise
    /// maps for the `w/o-MultiDisentangle` variant).
    pub interactive: Tensor,
    /// Exclusive posterior means `[B, k/4]`, order C, P, T.
    pub exclusive_mu: [Tensor; 3],
    /// Interactive posterior mean `[B, k]` (the three pairwise means
    /// concatenated, `[B, 3k]`, for the `w/o-MultiDisentangle` variant).
    pub interactive_mu: Tensor,
}

/// Output of a forward-only serving pass ([`MuseNet::infer_raw`]).
#[derive(Debug, Clone)]
pub struct InferenceOutput {
    /// Forecast `[B, 2, H, W]` in scaled units.
    pub prediction: Tensor,
    /// L2 norms of the exclusive posterior means, order C, P, T.
    pub exclusive_mu_norms: [f32; 3],
    /// L2 norm of the interactive posterior mean (of the concatenated
    /// pairwise means for the `w/o-MultiDisentangle` variant).
    pub interactive_mu_norm: f32,
}

/// What every pass shares: the encoders' outputs and the spatial head's
/// inputs, recorded on one session.
struct Encoded<'t> {
    /// Exclusive encoder outputs, order C, P, T.
    exclusive: [EncoderOutput<'t>; 3],
    /// Each interactive output with the branches (0 = C, 1 = P, 2 = T) whose
    /// features it read: one `Z^S` over all three, or the three pairs.
    interactive: Vec<(EncoderOutput<'t>, Vec<usize>)>,
    /// Exclusive then interactive feature maps, along channels.
    stack: Var<'t>,
    /// The most recent frame of each sub-series, for the Hadamard fusion.
    skips: [Var<'t>; 3],
}

/// Span names of the three exclusive branches, order C, P, T.
const BRANCH_SPANS: [&str; 3] = ["closeness", "period", "trend"];

/// Left-to-right sum of scalar terms, in the order they are recorded.
fn sum<'t>(terms: impl IntoIterator<Item = Var<'t>>) -> Var<'t> {
    terms.into_iter().reduce(|acc, term| acc.add(&term)).expect("at least one term")
}

impl MuseNet {
    /// Build a model for the given configuration.
    pub fn new(config: MuseNetConfig) -> Self {
        config.validate();
        let mut rng = SeededRng::new(config.seed);
        let cells = config.cells();
        let d = config.d;
        let k4 = config.exclusive_dim();
        let k = config.interactive_dim();
        let (h, w) = (config.grid.height, config.grid.width);

        let exclusive = [
            ExclusiveEncoder::new(&mut rng, config.closeness_channels(), d, cells, k4),
            ExclusiveEncoder::new(&mut rng, config.period_channels(), d, cells, k4),
            ExclusiveEncoder::new(&mut rng, config.trend_channels(), d, cells, k4),
        ];

        let interactive = if config.variant.uses_multivariate_interactive() {
            InteractivePath::Multivariate(InteractiveEncoder::new(&mut rng, 3, d, cells, k))
        } else {
            InteractivePath::Pairwise([
                InteractiveEncoder::new(&mut rng, 2, d, cells, k),
                InteractiveEncoder::new(&mut rng, 2, d, cells, k),
                InteractiveEncoder::new(&mut rng, 2, d, cells, k),
            ])
        };
        let pulling = config.variant.uses_pulling().then(|| Pulling {
            simplex: [
                VariationalEncoder::new(&mut rng, 1, d, cells, k),
                VariationalEncoder::new(&mut rng, 1, d, cells, k),
                VariationalEncoder::new(&mut rng, 1, d, cells, k),
            ],
            duplex: [
                VariationalEncoder::new(&mut rng, 2, d, cells, k),
                VariationalEncoder::new(&mut rng, 2, d, cells, k),
                VariationalEncoder::new(&mut rng, 2, d, cells, k),
            ],
        });

        // Decoder latent width: z^i plus the interactive sample(s) paired
        // with branch i.
        let dec_z = if config.variant.uses_multivariate_interactive() { k4 + k } else { k4 + 2 * k };
        let decoders = [
            ReconstructedDecoder::new(&mut rng, dec_z, config.closeness_channels(), h, w),
            ReconstructedDecoder::new(&mut rng, dec_z, config.period_channels(), h, w),
            ReconstructedDecoder::new(&mut rng, dec_z, config.trend_channels(), h, w),
        ];

        // Spatial module input: 3 exclusive maps + 1 interactive map (or 3
        // pairwise maps).
        let spatial_in = if config.variant.uses_multivariate_interactive() { 4 * d } else { 6 * d };
        // Three Hadamard skip frames: the most recent closeness, period,
        // and trend frames (ST-ResNet-style per-cell fusion).
        let spatial = if config.variant.uses_spatial() {
            SpatialHead::ResPlus(ResPlus::new(
                &mut rng,
                spatial_in,
                d.max(config.plus_channels + 1),
                config.resplus_blocks,
                config.plus_channels,
                h,
                w,
                3,
            ))
        } else {
            SpatialHead::Pointwise(PointwiseHead::new(&mut rng, spatial_in, h, w, 3))
        };

        let noise = RefCell::new(SeededRng::new(config.seed.wrapping_add(0x5EED)));
        MuseNet { config, exclusive, interactive, pulling, decoders, spatial, noise }
    }

    /// The configuration.
    pub fn config(&self) -> &MuseNetConfig {
        &self.config
    }

    /// All trainable parameters.
    pub fn params(&self) -> Vec<ParamRef> {
        let mut p: Vec<ParamRef> = Vec::new();
        for e in &self.exclusive {
            p.extend(e.params());
        }
        match &self.interactive {
            InteractivePath::Multivariate(encoder) => p.extend(encoder.params()),
            InteractivePath::Pairwise(encoders) => {
                for e in encoders {
                    p.extend(e.params());
                }
            }
        }
        if let Some(pulling) = &self.pulling {
            for e in pulling.simplex.iter().chain(&pulling.duplex) {
                p.extend(e.params());
            }
        }
        for d in &self.decoders {
            p.extend(d.params());
        }
        match &self.spatial {
            SpatialHead::ResPlus(r) => p.extend(r.params()),
            SpatialHead::Pointwise(h) => p.extend(h.params()),
        }
        p
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Save the model's parameters to a checkpoint file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), muse_nn::CheckpointError> {
        muse_nn::save_params(path, &self.params())
    }

    /// Load parameters from a checkpoint produced by [`MuseNet::save`] on a
    /// model with the same configuration.
    pub fn load(&self, path: &std::path::Path) -> Result<(), muse_nn::CheckpointError> {
        muse_nn::load_params(path, &self.params())
    }

    /// Save parameters with the model's JSON config embedded as checkpoint
    /// metadata, making the file self-describing: a serving process can
    /// rebuild the architecture from the file alone
    /// ([`MuseNet::from_checkpoint`]).
    pub fn save_with_config(&self, path: &std::path::Path) -> Result<(), muse_nn::CheckpointError> {
        muse_nn::save_params_with_meta(path, &self.params(), Some(&self.config.to_json().render()))
    }

    /// Reconstruct a model from a self-describing checkpoint: parse the
    /// embedded config, build the architecture, decode the weights straight
    /// into its parameters.
    pub fn from_checkpoint(path: &std::path::Path) -> Result<MuseNet, muse_nn::CheckpointError> {
        use muse_nn::CheckpointError;
        let bytes = std::fs::read(path)?;
        let ckpt = muse_nn::CheckpointView::parse(&bytes)?;
        let meta = ckpt.meta.ok_or_else(|| {
            CheckpointError::Format(
                "checkpoint has no embedded model config (save it with MuseNet::save_with_config \
                 or muse-eval --save-checkpoint)"
                    .into(),
            )
        })?;
        let json = obs::json::parse(meta)
            .map_err(|e| CheckpointError::Format(format!("checkpoint metadata is not valid JSON: {e}")))?;
        let config = MuseNetConfig::from_json(&json).map_err(CheckpointError::Format)?;
        config.validate();
        let model = MuseNet::new(config);
        ckpt.restore(&model.params())?;
        Ok(model)
    }

    // ---------------------------------------------------------- shared pass

    /// Record the pass every caller shares: the sub-series and their last
    /// frames as inputs, the three exclusive encoders, the interactive
    /// encoder(s) over their features, and the spatial head's input stack.
    fn encode<'t>(
        &self,
        s: &Session<'t>,
        closeness: &Tensor,
        period: &Tensor,
        trend: &Tensor,
    ) -> Encoded<'t> {
        let series = [closeness, period, trend];
        let inputs = series.map(|x| s.input(x.clone()));
        let skips = series.map(|x| s.input(subseries::last_frame(x)));
        let exclusive = {
            let _span = obs::span("model.encode");
            [0, 1, 2].map(|i| {
                let _branch = obs::span(BRANCH_SPANS[i]);
                self.exclusive[i].forward(s, inputs[i])
            })
        };
        let features = [exclusive[0].feature, exclusive[1].feature, exclusive[2].feature];
        let interactive = {
            let _span = obs::span("model.interactive");
            let run = |encoder: &InteractiveEncoder, reads: Vec<usize>| {
                let read: Vec<Var<'t>> = reads.iter().map(|&b| features[b]).collect();
                (encoder.forward(s, Var::concat(&read, 1)), reads)
            };
            match &self.interactive {
                InteractivePath::Multivariate(encoder) => vec![run(encoder, vec![0, 1, 2])],
                InteractivePath::Pairwise(encoders) => encoders
                    .iter()
                    .zip(Branch::pairs())
                    .map(|(encoder, (i, j))| run(encoder, vec![i.index(), j.index()]))
                    .collect(),
            }
        };
        let mut maps = features.to_vec();
        maps.extend(interactive.iter().map(|(out, _)| out.feature));
        let stack = Var::concat(&maps, 1);
        Encoded { exclusive, interactive, stack, skips }
    }

    /// The spatial head over the encoded stack, Hadamard-fusing the recent
    /// frames: the forecast `[B, 2, H, W]`.
    fn spatial_head<'t>(&self, s: &Session<'t>, enc: &Encoded<'t>) -> Var<'t> {
        let _span = obs::span("model.spatial");
        match &self.spatial {
            SpatialHead::ResPlus(r) => r.forward(s, enc.stack, &enc.skips),
            SpatialHead::Pointwise(h) => h.forward(s, enc.stack, &enc.skips),
        }
    }

    // ------------------------------------------------------------- training

    /// Build the full training graph for one (scaled) batch: the shared
    /// pass plus sampling, the KL terms, reconstruction (semantic pushing,
    /// Eq. 28), semantic pulling (Eq. 29) and the regression (Eq. 30).
    pub fn train_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> ForwardPass<'t> {
        let weights =
            ObjectiveWeights::for_variant(self.config.variant, self.config.lambda, self.config.pull_cap);
        let enc = self.encode(s, &batch.closeness, &batch.period, &batch.trend);
        let (exclusive, interactive) = (&enc.exclusive, &enc.interactive);

        // Noise draws in order z^c, z^p, z^t, then the interactive latent(s).
        let mut rng = self.noise.borrow_mut();
        let z_exclusive = [0, 1, 2].map(|i| reparameterize(&exclusive[i].mu, &exclusive[i].logvar, &mut rng));
        let kl_exclusive = sum(exclusive.iter().map(|o| kl_to_standard_normal(&o.mu, &o.logvar)));
        let z_interactive: Vec<Var<'t>> =
            interactive.iter().map(|(o, _)| reparameterize(&o.mu, &o.logvar, &mut rng)).collect();
        drop(rng);
        let kl_interactive = sum(interactive.iter().map(|(o, _)| kl_to_standard_normal(&o.mu, &o.logvar)));

        // Branch i decodes from z^i plus the interactive latent(s) that read
        // it: z^s, or the two pairwise latents that involve i.
        let reconstruction = {
            let _span = obs::span("model.reconstruct");
            let series = [&batch.closeness, &batch.period, &batch.trend];
            sum((0..3).map(|i| {
                let mut z = vec![z_exclusive[i]];
                z.extend(
                    interactive
                        .iter()
                        .zip(&z_interactive)
                        .filter(|((_, reads), _)| reads.contains(&i))
                        .map(|(_, &z)| z),
                );
                sse_per_sample(&self.decoders[i].forward(s, Var::concat(&z, 1)), series[i])
            }))
        };

        let pulling = self.pulling.as_ref().map(|Pulling { simplex, duplex }| {
            let _span = obs::span("model.pulling");
            let inter = &interactive[0].0;
            // Each branch's simplex posterior g_τ(z|i) appears in two of the
            // three pair terms — run the three simplex forwards once
            // instead of six times.
            let g = [0, 1, 2].map(|i| simplex[i].forward(s, exclusive[i].feature));
            sum(Branch::pairs().iter().zip(duplex).map(|((bi, bj), dx)| {
                let (i, j) = (bi.index(), bj.index());
                let (mu_d, lv_d) =
                    dx.forward(s, Var::concat(&[exclusive[i].feature, exclusive[j].feature], 1));
                // Minimized: + KL(d‖g_i) + KL(d‖g_j) − sat(KL(r_s‖d)).
                kl_between_fused(&mu_d, &lv_d, &g[i].0, &g[i].1)
                    .add(&kl_between_fused(&mu_d, &lv_d, &g[j].0, &g[j].1))
                    .sub(&saturate(
                        kl_between_fused(&inter.mu, &inter.logvar, &mu_d, &lv_d),
                        weights.pull_cap,
                    ))
            }))
        });

        let prediction = self.spatial_head(s, &enc);
        let regression = sse_per_sample(&prediction, &batch.target);

        // Weighted total (minimization form of Eq. 26).
        let mut total = kl_exclusive
            .mul_scalar(weights.exclusive)
            .add(&kl_interactive)
            .add(&reconstruction.mul_scalar(weights.exclusive))
            .add(&regression);
        if let Some(pull) = pulling {
            total = total.add(&pull.mul_scalar(weights.pulling));
        }

        let terms = LossTerms {
            kl_exclusive: kl_exclusive.item(),
            kl_interactive: kl_interactive.item(),
            reconstruction: reconstruction.item(),
            pulling: pulling.map_or(0.0, |p| p.item()),
            regression: regression.item(),
            total: total.item(),
        };
        ForwardPass { prediction, loss: total, terms }
    }

    // ------------------------------------------------------------ inference

    /// Predict the (scaled) next-step flows for a batch: `[B, 2, H, W]`.
    ///
    /// The prediction path is deterministic — it uses the representation
    /// maps, not the sampled latents.
    pub fn predict(&self, batch: &Batch) -> Tensor {
        let tape = Tape::forward_only();
        let s = Session::new(&tape);
        self.infer_raw(&s, &batch.closeness, &batch.period, &batch.trend).prediction
    }

    /// Forward-only serving pass: the shared pass and the spatial head,
    /// plus the per-branch posterior-mean norms. Its prediction is
    /// bit-identical to [`MuseNet::train_graph`]'s — sampling, decoders and
    /// pulling never feed the prediction path.
    ///
    /// The caller owns the session; a long-lived server hoists one
    /// [`Tape::forward_only`] tape + session and `reset`s both between
    /// requests so steady-state inference runs out of the tensor arena.
    pub fn infer_raw<'t>(
        &self,
        s: &Session<'t>,
        closeness: &Tensor,
        period: &Tensor,
        trend: &Tensor,
    ) -> InferenceOutput {
        let _span = obs::span("model.infer");
        let enc = self.encode(s, closeness, period, trend);
        let exclusive_mu_norms = [0, 1, 2].map(|i| enc.exclusive[i].mu.with_value(|mu: &Tensor| mu.norm()));
        // ‖concat(mus)‖ = sqrt(Σ‖mu_j‖²), without the concat; for a single
        // mean, sqrt(‖mu‖²) rounds back to ‖mu‖ exactly in f32.
        let mu_norms = enc.interactive.iter().map(|(o, _)| o.mu.with_value(|mu: &Tensor| mu.norm()));
        let interactive_mu_norm = mu_norms.map(|n| n * n).sum::<f32>().sqrt();
        let prediction = self.spatial_head(s, &enc).value();
        InferenceOutput { prediction, exclusive_mu_norms, interactive_mu_norm }
    }

    /// Autoregressive multi-step forecast: [`subseries::roll_out`] with
    /// one [`infer_raw`](Self::infer_raw) pass per step on a hoisted
    /// forward-only tape. Predicted frames replace the unavailable future
    /// frames inside the closeness window, while the period/trend windows
    /// remain ground truth (their lags are ≥ one day, beyond any horizon
    /// served). Returns one `[B, 2, H, W]` tensor per horizon.
    pub fn predict_multi_step(
        &self,
        flows: &FlowSeries,
        spec: &SubSeriesSpec,
        indices: &[usize],
        horizons: usize,
    ) -> Vec<Tensor> {
        let tape = Tape::forward_only();
        let s = Session::new(&tape);
        subseries::roll_out(flows, spec, indices, horizons, |b| {
            tape.reset();
            s.reset();
            self.infer_raw(&s, &b.closeness, &b.period, &b.trend).prediction
        })
    }

    // ------------------------------------------------------------- analysis

    /// Extract deterministic representations for a batch (RQ3–RQ5): the
    /// shared pass on a forward-only tape, spatially pooled.
    pub fn representations(&self, batch: &Batch) -> Representations {
        let tape = Tape::forward_only();
        let s = Session::new(&tape);
        let enc = self.encode(&s, &batch.closeness, &batch.period, &batch.trend);
        let pooled = |map: Var<'_>| spatial_pool(map).value();
        // The mean of the interactive maps; their posterior means side by side.
        let n = enc.interactive.len() as f32;
        let interactive_map = sum(enc.interactive.iter().map(|(o, _)| o.feature)).mul_scalar(1.0 / n);
        let interactive_mus: Vec<Var<'_>> = enc.interactive.iter().map(|(o, _)| o.mu).collect();
        Representations {
            exclusive: [0, 1, 2].map(|i| pooled(enc.exclusive[i].feature)),
            interactive: pooled(interactive_map),
            exclusive_mu: [0, 1, 2].map(|i| enc.exclusive[i].mu.value()),
            interactive_mu: Var::concat(&interactive_mus, 1).value(),
        }
    }
}

impl Trainable for MuseNet {
    fn name(&self) -> &str {
        self.config.variant.name()
    }

    fn params(&self) -> Vec<ParamRef> {
        MuseNet::params(self)
    }

    /// The shared pass and the spatial head — nothing training-only.
    fn predict_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> Var<'t> {
        let enc = self.encode(s, &batch.closeness, &batch.period, &batch.trend);
        self.spatial_head(s, &enc)
    }

    fn train_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> ForwardPass<'t> {
        MuseNet::train_graph(self, s, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::AblationVariant;
    use muse_traffic::subseries::batch;
    use muse_traffic::{GridMap, SubSeriesSpec};

    fn tiny_config(variant: AblationVariant) -> MuseNetConfig {
        let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 4, trend_days: 7 };
        let mut cfg = MuseNetConfig::cpu_profile(GridMap::new(3, 4), spec);
        cfg.d = 4;
        cfg.k = 8;
        cfg.variant = variant;
        cfg
    }

    fn tiny_flows() -> FlowSeries {
        let grid = GridMap::new(3, 4);
        let t = 40;
        let mut rng = SeededRng::new(11);
        FlowSeries::from_tensor(grid, Tensor::rand_uniform(&mut rng, &[t, 2, 3, 4], -1.0, 1.0))
    }

    fn tiny_batch(cfg: &MuseNetConfig) -> Batch {
        let flows = tiny_flows();
        batch(&flows, &cfg.spec, &[30, 31, 35])
    }

    #[test]
    fn forward_shapes_full_model() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg.clone());
        let b = tiny_batch(&cfg);
        let tape = Tape::new();
        let s = Session::new(&tape);
        let pass = model.train_graph(&s, &b);
        assert_eq!(pass.prediction.dims(), vec![3, 2, 3, 4]);
        assert!(pass.terms.is_finite(), "{:?}", pass.terms);
        assert!(pass.terms.kl_exclusive >= -1e-4);
        assert!(pass.terms.kl_interactive >= -1e-4);
        assert!(pass.terms.reconstruction >= 0.0);
        assert!(pass.terms.regression >= 0.0);
    }

    #[test]
    fn every_variant_builds_and_runs() {
        for variant in AblationVariant::all() {
            let cfg = tiny_config(variant);
            let model = MuseNet::new(cfg.clone());
            let b = tiny_batch(&cfg);
            let tape = Tape::new();
            let s = Session::new(&tape);
            let pass = model.train_graph(&s, &b);
            assert!(pass.terms.is_finite(), "{variant:?}: {:?}", pass.terms);
            // Pulling only active for variants that use it.
            if !variant.uses_pulling() {
                assert_eq!(pass.terms.pulling, 0.0, "{variant:?}");
            }
            // Gradients flow to every parameter group.
            s.backward(pass.loss);
            let with_grad = model.params().iter().filter(|p| p.grad().norm() > 0.0).count();
            assert!(
                with_grad * 10 >= model.params().len() * 8,
                "{variant:?}: only {with_grad}/{} params got gradients",
                model.params().len()
            );
        }
    }

    #[test]
    fn prediction_in_tanh_range() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg.clone());
        let b = tiny_batch(&cfg);
        let pred = model.predict(&b);
        assert!(pred.max() <= 1.0 && pred.min() >= -1.0);
    }

    #[test]
    fn multi_step_rollout_shapes() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg.clone());
        let flows = tiny_flows();
        let preds = model.predict_multi_step(&flows, &cfg.spec, &[30, 32], 3);
        assert_eq!(preds.len(), 3);
        for p in &preds {
            assert_eq!(p.dims(), &[2, 2, 3, 4]);
            assert!(p.all_finite());
        }
    }

    #[test]
    fn representations_shapes() {
        for variant in [AblationVariant::Full, AblationVariant::WithoutMultiDisentangle] {
            let cfg = tiny_config(variant);
            let model = MuseNet::new(cfg.clone());
            let b = tiny_batch(&cfg);
            let reps = model.representations(&b);
            for e in &reps.exclusive {
                assert_eq!(e.dims(), &[3, cfg.d]);
            }
            assert_eq!(reps.interactive.dims(), &[3, cfg.d]);
            for m in &reps.exclusive_mu {
                assert_eq!(m.dims(), &[3, cfg.exclusive_dim()]);
            }
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg.clone());
        let b = tiny_batch(&cfg);
        let before = model.predict(&b);
        let mut path = std::env::temp_dir();
        path.push(format!("musenet-ckpt-{}.bin", std::process::id()));
        model.save(&path).unwrap();
        // A fresh model with a different seed predicts differently…
        let mut cfg2 = cfg.clone();
        cfg2.seed = 999;
        let other = MuseNet::new(cfg2);
        assert!(other.predict(&b).max_abs_diff(&before) > 1e-6);
        // …until the checkpoint is loaded.
        other.load(&path).unwrap();
        assert!(other.predict(&b).approx_eq(&before, 1e-6));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_path_predicts_the_same_bits() {
        use crate::trainer::Trainable;
        for variant in AblationVariant::all() {
            let cfg = tiny_config(variant);
            let model = MuseNet::new(cfg.clone());
            let b = tiny_batch(&cfg);
            // Training samples latents, but the prediction reads only the
            // representation maps.
            let train_tape = Tape::new();
            let train_s = Session::new(&train_tape);
            let trained = model.train_graph(&train_s, &b).prediction.value();

            let serve_tape = Tape::forward_only();
            let serve_s = Session::new(&serve_tape);
            let graph_tape = Tape::forward_only();
            let graph_s = Session::new(&graph_tape);
            let reps = model.representations(&b);
            for round in ["fresh session", "after reset"] {
                let served = model.infer_raw(&serve_s, &b.closeness, &b.period, &b.trend);
                assert_eq!(
                    served.prediction.as_slice(),
                    trained.as_slice(),
                    "{variant:?} infer_raw, {round}"
                );
                let graph = Trainable::predict_graph(&model, &graph_s, &b).value();
                assert_eq!(graph.as_slice(), trained.as_slice(), "{variant:?} predict_graph, {round}");
                for (i, mu) in reps.exclusive_mu.iter().enumerate() {
                    assert_eq!(
                        mu.norm().to_bits(),
                        served.exclusive_mu_norms[i].to_bits(),
                        "{variant:?} exclusive_mu[{i}], {round}"
                    );
                }
                for (tape, s) in [(&train_tape, &train_s), (&serve_tape, &serve_s), (&graph_tape, &graph_s)] {
                    tape.reset();
                    s.reset();
                }
            }
            let retrained = model.train_graph(&train_s, &b).prediction.value();
            assert_eq!(retrained.as_slice(), trained.as_slice(), "{variant:?} train_graph after reset");
            assert_eq!(Trainable::predict(&model, &b).as_slice(), trained.as_slice(), "{variant:?} predict");
        }
    }

    #[test]
    fn from_checkpoint_rebuilds_the_exact_model() {
        let mut cfg = tiny_config(AblationVariant::Full);
        cfg.seed = 41;
        let model = MuseNet::new(cfg.clone());
        let b = tiny_batch(&cfg);
        let before = model.predict(&b);
        let mut path = std::env::temp_dir();
        path.push(format!("musenet-ckpt-meta-{}.bin", std::process::id()));
        model.save_with_config(&path).unwrap();
        let rebuilt = MuseNet::from_checkpoint(&path).unwrap();
        assert_eq!(rebuilt.config().grid, cfg.grid);
        assert_eq!(rebuilt.config().seed, cfg.seed);
        assert_eq!(rebuilt.predict(&b).as_slice(), before.as_slice());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn from_checkpoint_requires_embedded_config() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg);
        let mut path = std::env::temp_dir();
        path.push(format!("musenet-ckpt-nometa-{}.bin", std::process::id()));
        model.save(&path).unwrap(); // no metadata section
        let Err(err) = MuseNet::from_checkpoint(&path) else {
            panic!("config-less checkpoint must not self-construct");
        };
        assert!(format!("{err}").contains("no embedded model config"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_different_variant() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg.clone());
        let mut path = std::env::temp_dir();
        path.push(format!("musenet-ckpt-var-{}.bin", std::process::id()));
        model.save(&path).unwrap();
        let ablated = MuseNet::new(tiny_config(AblationVariant::WithoutSemanticPulling));
        assert!(ablated.load(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn param_count_reasonable_and_variant_dependent() {
        let full = MuseNet::new(tiny_config(AblationVariant::Full));
        let no_pull = MuseNet::new(tiny_config(AblationVariant::WithoutSemanticPulling));
        // Dropping the simplex/duplex encoders removes parameters.
        assert!(full.param_count() > no_pull.param_count());
        assert!(full.param_count() > 1000);
    }

    #[test]
    fn one_training_step_reduces_loss() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg.clone());
        let b = tiny_batch(&cfg);
        let mut opt = muse_nn::Adam::with_defaults(model.params(), 1e-3);
        let mut losses = Vec::new();
        for _ in 0..15 {
            let tape = Tape::new();
            let s = Session::new(&tape);
            let pass = model.train_graph(&s, &b);
            losses.push(pass.terms.total);
            s.backward(pass.loss);
            use muse_nn::Optimizer;
            opt.step();
            opt.zero_grad();
        }
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(last.is_finite());
    }
}
