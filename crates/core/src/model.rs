//! The MUSE-Net model: joint forward pass, objective assembly, prediction,
//! and representation extraction.

use crate::config::MuseNetConfig;
use crate::decoder::ReconstructedDecoder;
use crate::encoders::{EncoderOutput, ExclusiveEncoder, InteractiveEncoder};
use crate::loss::{saturate, LossTerms, ObjectiveWeights};
use crate::resplus::{PointwiseHead, ResPlus};
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
    Multivariate {
        encoder: InteractiveEncoder,
        /// `g_τ^i(z^s|i)` per branch (None when pulling is ablated).
        simplex: Option<[VariationalEncoder; 3]>,
        /// `d_ω^{i,j}(z^s|i,j)` per unordered pair.
        duplex: Option<[VariationalEncoder; 3]>,
    },
    Pairwise {
        /// Encoders over pairs `(C,P), (C,T), (P,T)`.
        encoders: [VariationalPairEncoder; 3],
    },
}

/// A pairwise interactive encoder (the `w/o-MultiDisentangle` replacement):
/// shares the [`InteractiveEncoder`] structure over two branches.
struct VariationalPairEncoder {
    inner: InteractiveEncoder,
}

/// The MUSE-Net model. See the crate docs for the architecture overview.
pub struct MuseNet {
    config: MuseNetConfig,
    exclusive: [ExclusiveEncoder; 3],
    interactive: InteractivePath,
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
    /// Interactive posterior mean `[B, k]`.
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
            let encoder = InteractiveEncoder::new(&mut rng, 3, d, cells, k);
            let (simplex, duplex) = if config.variant.uses_pulling() {
                (
                    Some([
                        VariationalEncoder::new(&mut rng, 1, d, cells, k),
                        VariationalEncoder::new(&mut rng, 1, d, cells, k),
                        VariationalEncoder::new(&mut rng, 1, d, cells, k),
                    ]),
                    Some([
                        VariationalEncoder::new(&mut rng, 2, d, cells, k),
                        VariationalEncoder::new(&mut rng, 2, d, cells, k),
                        VariationalEncoder::new(&mut rng, 2, d, cells, k),
                    ]),
                )
            } else {
                (None, None)
            };
            InteractivePath::Multivariate { encoder, simplex, duplex }
        } else {
            InteractivePath::Pairwise {
                encoders: [
                    VariationalPairEncoder { inner: InteractiveEncoder::new(&mut rng, 2, d, cells, k) },
                    VariationalPairEncoder { inner: InteractiveEncoder::new(&mut rng, 2, d, cells, k) },
                    VariationalPairEncoder { inner: InteractiveEncoder::new(&mut rng, 2, d, cells, k) },
                ],
            }
        };

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
        MuseNet { config, exclusive, interactive, decoders, spatial, noise }
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
            InteractivePath::Multivariate { encoder, simplex, duplex } => {
                p.extend(encoder.params());
                if let Some(sx) = simplex {
                    for e in sx {
                        p.extend(e.params());
                    }
                }
                if let Some(dx) = duplex {
                    for e in dx {
                        p.extend(e.params());
                    }
                }
            }
            InteractivePath::Pairwise { encoders } => {
                for e in encoders {
                    p.extend(e.inner.params());
                }
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
    /// embedded config, build the architecture, load the weights.
    pub fn from_checkpoint(path: &std::path::Path) -> Result<MuseNet, muse_nn::CheckpointError> {
        use muse_nn::CheckpointError;
        let ckpt = muse_nn::load_checkpoint_full(path)?;
        let meta = ckpt.meta.as_deref().ok_or_else(|| {
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
        muse_nn::apply_checkpoint(&ckpt.entries, &model.params())?;
        Ok(model)
    }

    // ------------------------------------------------------------- training

    /// Build the full training graph for one (scaled) batch.
    pub fn train_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> ForwardPass<'t> {
        self.graph(s, &batch.closeness, &batch.period, &batch.trend, Some(&batch.target), true)
    }

    /// Build an evaluation graph (no sampling noise) for a batch; the target
    /// is still used to report loss terms.
    pub fn eval_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> ForwardPass<'t> {
        self.graph(s, &batch.closeness, &batch.period, &batch.trend, Some(&batch.target), false)
    }

    fn graph<'t>(
        &self,
        s: &Session<'t>,
        closeness: &Tensor,
        period: &Tensor,
        trend: &Tensor,
        target: Option<&Tensor>,
        train: bool,
    ) -> ForwardPass<'t> {
        let weights =
            ObjectiveWeights::for_variant(self.config.variant, self.config.lambda, self.config.pull_cap);
        let inputs = [closeness, period, trend];
        let c = s.input(closeness.clone());
        let p = s.input(period.clone());
        let t = s.input(trend.clone());
        // Most recent frame of each sub-series (last 2 channels), for the
        // per-cell Hadamard fusion in the spatial head.
        let last_frame = |x: &Tensor| -> Tensor {
            let ch = x.dims()[1];
            x.split(1, &[ch - 2, 2]).pop().expect("two chunks")
        };
        let skips = [s.input(last_frame(closeness)), s.input(last_frame(period)), s.input(last_frame(trend))];

        // Exclusive branches.
        let enc: Vec<EncoderOutput<'t>> = {
            let _span = obs::span("model.encode");
            vec![
                {
                    let _b = obs::span("closeness");
                    self.exclusive[0].forward(s, c)
                },
                {
                    let _b = obs::span("period");
                    self.exclusive[1].forward(s, p)
                },
                {
                    let _b = obs::span("trend");
                    self.exclusive[2].forward(s, t)
                },
            ]
        };

        let mut rng = self.noise.borrow_mut();
        let sample_z = |mu: &Var<'t>, lv: &Var<'t>, rng: &mut SeededRng| -> Var<'t> {
            if train {
                reparameterize(mu, lv, rng)
            } else {
                *mu
            }
        };

        let z_exclusive: Vec<Var<'t>> = enc.iter().map(|e| sample_z(&e.mu, &e.logvar, &mut rng)).collect();
        let kl_exclusive_var = kl_to_standard_normal(&enc[0].mu, &enc[0].logvar)
            .add(&kl_to_standard_normal(&enc[1].mu, &enc[1].logvar))
            .add(&kl_to_standard_normal(&enc[2].mu, &enc[2].logvar));

        // Interactive pathway, reconstruction inputs, spatial stack, pulling.
        let (kl_interactive_var, recon_var, spatial_stack, pull_var) = match &self.interactive {
            InteractivePath::Multivariate { encoder, simplex, duplex } => {
                let (inter, z_s, kl_s) = {
                    let _span = obs::span("model.interactive");
                    let feats = Var::concat(&[enc[0].feature, enc[1].feature, enc[2].feature], 1);
                    let inter = encoder.forward(s, feats);
                    let z_s = sample_z(&inter.mu, &inter.logvar, &mut rng);
                    let kl_s = kl_to_standard_normal(&inter.mu, &inter.logvar);
                    (inter, z_s, kl_s)
                };

                // Reconstruction (semantic-pushing, Eq. 28).
                let _recon_span = obs::span("model.reconstruct");
                let mut recon =
                    sse_per_sample(&self.decoders[0].forward_pair(s, z_exclusive[0], z_s), inputs[0]);
                recon = recon
                    .add(&sse_per_sample(&self.decoders[1].forward_pair(s, z_exclusive[1], z_s), inputs[1]));
                recon = recon
                    .add(&sse_per_sample(&self.decoders[2].forward_pair(s, z_exclusive[2], z_s), inputs[2]));
                drop(_recon_span);

                let stack = Var::concat(&[enc[0].feature, enc[1].feature, enc[2].feature, inter.feature], 1);

                // Semantic-pulling (Eq. 29).
                let _pull_span = obs::span("model.pulling");
                let pull = match (simplex, duplex) {
                    (Some(sx), Some(dx)) => {
                        // Each branch's simplex posterior g_τ(z|i) appears in
                        // two of the three pair terms — run the three simplex
                        // forwards once instead of six times.
                        let g: Vec<(Var<'t>, Var<'t>)> =
                            (0..3).map(|b| sx[b].forward(s, enc[b].feature)).collect();
                        let mut acc: Option<Var<'t>> = None;
                        for (pair_idx, (bi, bj)) in Branch::pairs().iter().enumerate() {
                            let fi = enc[bi.index()].feature;
                            let fj = enc[bj.index()].feature;
                            let (mu_d, lv_d) = dx[pair_idx].forward(s, Var::concat(&[fi, fj], 1));
                            let (mu_gi, lv_gi) = g[bi.index()];
                            let (mu_gj, lv_gj) = g[bj.index()];
                            // Minimized: + KL(d‖g_i) + KL(d‖g_j) − sat(KL(r_s‖d)).
                            let term = kl_between_fused(&mu_d, &lv_d, &mu_gi, &lv_gi)
                                .add(&kl_between_fused(&mu_d, &lv_d, &mu_gj, &lv_gj))
                                .sub(&saturate(
                                    kl_between_fused(&inter.mu, &inter.logvar, &mu_d, &lv_d),
                                    weights.pull_cap,
                                ));
                            acc = Some(match acc {
                                Some(a) => a.add(&term),
                                None => term,
                            });
                        }
                        Some(acc.expect("three pairs"))
                    }
                    _ => None,
                };
                drop(_pull_span);
                (kl_s, recon, stack, pull)
            }
            InteractivePath::Pairwise { encoders } => {
                let _span = obs::span("model.interactive");
                // w/o-MultiDisentangle: three pairwise interactive paths.
                let mut pair_out = Vec::with_capacity(3);
                for (pair_idx, (bi, bj)) in Branch::pairs().iter().enumerate() {
                    let feats = Var::concat(&[enc[bi.index()].feature, enc[bj.index()].feature], 1);
                    pair_out.push(encoders[pair_idx].inner.forward(s, feats));
                }
                let z_pair: Vec<Var<'t>> =
                    pair_out.iter().map(|o| sample_z(&o.mu, &o.logvar, &mut rng)).collect();
                let kl_s = kl_to_standard_normal(&pair_out[0].mu, &pair_out[0].logvar)
                    .add(&kl_to_standard_normal(&pair_out[1].mu, &pair_out[1].logvar))
                    .add(&kl_to_standard_normal(&pair_out[2].mu, &pair_out[2].logvar));

                // Branch i reconstructs from z^i plus the two pairwise
                // latents that involve i: C → (CP, CT), P → (CP, PT),
                // T → (CT, PT).
                let pair_for = |branch: usize| -> [usize; 2] {
                    match branch {
                        0 => [0, 1],
                        1 => [0, 2],
                        _ => [1, 2],
                    }
                };
                let mut recon: Option<Var<'t>> = None;
                for b in 0..3 {
                    let [pa, pb] = pair_for(b);
                    let z = Var::concat(&[z_exclusive[b], z_pair[pa], z_pair[pb]], 1);
                    let term = sse_per_sample(&self.decoders[b].forward(s, z), inputs[b]);
                    recon = Some(match recon {
                        Some(r) => r.add(&term),
                        None => term,
                    });
                }
                let stack = Var::concat(
                    &[
                        enc[0].feature,
                        enc[1].feature,
                        enc[2].feature,
                        pair_out[0].feature,
                        pair_out[1].feature,
                        pair_out[2].feature,
                    ],
                    1,
                );
                (kl_s, recon.expect("three branches"), stack, None)
            }
        };
        drop(rng);

        // Spatial head with Hadamard-fused recent frames.
        let prediction = {
            let _span = obs::span("model.spatial");
            match &self.spatial {
                SpatialHead::ResPlus(r) => r.forward(s, spatial_stack, &skips),
                SpatialHead::Pointwise(h) => h.forward(s, spatial_stack, &skips),
            }
        };

        // Regression (Eq. 30).
        let reg_var = match target {
            Some(y) => sse_per_sample(&prediction, y),
            None => s.input(Tensor::scalar(0.0)),
        };

        // Weighted total (minimization form of Eq. 26).
        let mut total = kl_exclusive_var
            .mul_scalar(weights.exclusive)
            .add(&kl_interactive_var)
            .add(&recon_var.mul_scalar(weights.exclusive))
            .add(&reg_var);
        let pulling_value = if let Some(pull) = pull_var {
            total = total.add(&pull.mul_scalar(weights.pulling));
            pull.item()
        } else {
            0.0
        };

        let terms = LossTerms {
            kl_exclusive: kl_exclusive_var.item(),
            kl_interactive: kl_interactive_var.item(),
            reconstruction: recon_var.item(),
            pulling: pulling_value,
            regression: reg_var.item(),
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
        self.predict_raw(&batch.closeness, &batch.period, &batch.trend)
    }

    /// Predict from raw sub-series tensors.
    pub fn predict_raw(&self, closeness: &Tensor, period: &Tensor, trend: &Tensor) -> Tensor {
        let tape = Tape::forward_only();
        let s = Session::new(&tape);
        self.infer_raw(&s, closeness, period, trend).prediction
    }

    /// Forward-only serving pass: the deterministic prediction plus the
    /// per-branch posterior-mean norms, skipping the training-only graph
    /// (decoders, reconstruction, pulling, loss terms). Bit-identical to
    /// the prediction of [`MuseNet::eval_graph`] — the omitted branches
    /// never feed the prediction path.
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
        let c = s.input(closeness.clone());
        let p = s.input(period.clone());
        let t = s.input(trend.clone());
        let last_frame = |x: &Tensor| -> Tensor {
            let ch = x.dims()[1];
            x.split(1, &[ch - 2, 2]).pop().expect("two chunks")
        };
        let skips = [s.input(last_frame(closeness)), s.input(last_frame(period)), s.input(last_frame(trend))];
        let enc = [
            self.exclusive[0].forward(s, c),
            self.exclusive[1].forward(s, p),
            self.exclusive[2].forward(s, t),
        ];
        let exclusive_mu_norms = [0, 1, 2].map(|i| enc[i].mu.with_value(|mu: &Tensor| mu.norm()));
        let (spatial_stack, interactive_mu_norm) = match &self.interactive {
            InteractivePath::Multivariate { encoder, .. } => {
                let feats = Var::concat(&[enc[0].feature, enc[1].feature, enc[2].feature], 1);
                let inter = encoder.forward(s, feats);
                let stack = Var::concat(&[enc[0].feature, enc[1].feature, enc[2].feature, inter.feature], 1);
                (stack, inter.mu.with_value(|mu: &Tensor| mu.norm()))
            }
            InteractivePath::Pairwise { encoders } => {
                let mut feats = vec![enc[0].feature, enc[1].feature, enc[2].feature];
                let mut sq_norm = 0.0f32;
                for (pair_idx, (bi, bj)) in Branch::pairs().iter().enumerate() {
                    let pair_feats = Var::concat(&[enc[bi.index()].feature, enc[bj.index()].feature], 1);
                    let out = encoders[pair_idx].inner.forward(s, pair_feats);
                    feats.push(out.feature);
                    // ‖concat(mus)‖ = sqrt(Σ‖mu_i‖²), without the concat.
                    sq_norm += out.mu.with_value(|mu: &Tensor| {
                        let n = mu.norm();
                        n * n
                    });
                }
                (Var::concat(&feats, 1), sq_norm.sqrt())
            }
        };
        let prediction = {
            let _span = obs::span("model.spatial");
            match &self.spatial {
                SpatialHead::ResPlus(r) => r.forward(s, spatial_stack, &skips),
                SpatialHead::Pointwise(h) => h.forward(s, spatial_stack, &skips),
            }
        };
        InferenceOutput { prediction: prediction.value(), exclusive_mu_norms, interactive_mu_norm }
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

    /// Extract deterministic representations for a batch (RQ3–RQ5).
    pub fn representations(&self, batch: &Batch) -> Representations {
        let tape = Tape::new();
        let s = Session::new(&tape);
        let c = s.input(batch.closeness.clone());
        let p = s.input(batch.period.clone());
        let t = s.input(batch.trend.clone());
        let enc = [
            self.exclusive[0].forward(&s, c),
            self.exclusive[1].forward(&s, p),
            self.exclusive[2].forward(&s, t),
        ];
        let pooled = |map: &Tensor| -> Tensor {
            // [B, d, H, W] → [B, d] by spatial mean.
            let (b, d) = (map.dims()[0], map.dims()[1]);
            let cells = map.dims()[2] * map.dims()[3];
            map.reshaped(&[b, d, cells]).mean_axis(2)
        };
        let exclusive_maps: Vec<Tensor> = enc.iter().map(|e| e.feature.value()).collect();
        let exclusive_mu: Vec<Tensor> = enc.iter().map(|e| e.mu.value()).collect();

        let (interactive_map, interactive_mu) = match &self.interactive {
            InteractivePath::Multivariate { encoder, .. } => {
                let feats = Var::concat(&[enc[0].feature, enc[1].feature, enc[2].feature], 1);
                let inter = encoder.forward(&s, feats);
                (inter.feature.value(), inter.mu.value())
            }
            InteractivePath::Pairwise { encoders } => {
                let mut maps = Vec::with_capacity(3);
                let mut mus = Vec::with_capacity(3);
                for (pair_idx, (bi, bj)) in Branch::pairs().iter().enumerate() {
                    let feats = Var::concat(&[enc[bi.index()].feature, enc[bj.index()].feature], 1);
                    let out = encoders[pair_idx].inner.forward(&s, feats);
                    maps.push(out.feature.value());
                    mus.push(out.mu.value());
                }
                // Mean of the pairwise maps; concatenated posterior means.
                let mean_map = maps[0].add(&maps[1]).add(&maps[2]).mul_scalar(1.0 / 3.0);
                let mu_refs: Vec<&Tensor> = mus.iter().collect();
                (mean_map, Tensor::concat(&mu_refs, 1))
            }
        };

        Representations {
            exclusive: [pooled(&exclusive_maps[0]), pooled(&exclusive_maps[1]), pooled(&exclusive_maps[2])],
            interactive: pooled(&interactive_map),
            exclusive_mu: [exclusive_mu[0].clone(), exclusive_mu[1].clone(), exclusive_mu[2].clone()],
            interactive_mu,
        }
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
    fn eval_graph_is_deterministic() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg.clone());
        let b = tiny_batch(&cfg);
        let run = || {
            let tape = Tape::new();
            let s = Session::new(&tape);
            model.eval_graph(&s, &b).prediction.value()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn predict_matches_eval_graph_prediction() {
        let cfg = tiny_config(AblationVariant::Full);
        let model = MuseNet::new(cfg.clone());
        let b = tiny_batch(&cfg);
        let tape = Tape::new();
        let s = Session::new(&tape);
        let via_graph = model.eval_graph(&s, &b).prediction.value();
        let via_predict = model.predict(&b);
        assert!(via_graph.approx_eq(&via_predict, 1e-5));
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
    fn infer_raw_is_bit_identical_to_eval_graph_prediction() {
        for variant in AblationVariant::all() {
            let cfg = tiny_config(variant);
            let model = MuseNet::new(cfg.clone());
            let b = tiny_batch(&cfg);
            let tape = Tape::new();
            let s = Session::new(&tape);
            let via_graph = model.eval_graph(&s, &b).prediction.value();

            let infer_tape = Tape::forward_only();
            let infer_s = Session::new(&infer_tape);
            let out = model.infer_raw(&infer_s, &b.closeness, &b.period, &b.trend);
            assert_eq!(out.prediction.as_slice(), via_graph.as_slice(), "{variant:?}");
            assert!(out.exclusive_mu_norms.iter().all(|n| n.is_finite()), "{variant:?}");
            assert!(out.interactive_mu_norm.is_finite(), "{variant:?}");

            // And a reused (reset) session reproduces the same bits.
            infer_tape.reset();
            infer_s.reset();
            let again = model.infer_raw(&infer_s, &b.closeness, &b.period, &b.trend);
            assert_eq!(again.prediction.as_slice(), via_graph.as_slice(), "{variant:?} after reset");
            assert_eq!(again.exclusive_mu_norms, out.exclusive_mu_norms, "{variant:?} after reset");
            assert_eq!(again.interactive_mu_norm, out.interactive_mu_norm, "{variant:?} after reset");
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
