//! ST-GSP-lite: an attention-based baseline in the spirit of ST-GSP
//! (Zhao et al., WSDM 2022) — each multi-periodic frame is embedded by a
//! shared CNN, a scaled dot-product self-attention mixes the frame tokens,
//! and a learned query token produces the forecast embedding.
//!
//! This represents the paper's Attention class: it models multi-periodicity
//! *sequentially* with a single entangled representation, which is exactly
//! the behaviour MUSE-Net's disentanglement improves on.

use muse_autograd::Var;
use muse_nn::{Conv2dLayer, Linear, Param, ParamRef, Session};
use muse_tensor::init::SeededRng;
use muse_tensor::{Conv2dSpec, Tensor};
use muse_traffic::subseries::SubSeriesSpec;
use muse_traffic::{Batch, GridMap};
use musenet::Trainable;

/// Attention-based multi-periodic forecaster.
pub struct StgspLiteForecaster {
    embed: Conv2dLayer,
    query: ParamRef,
    key_map: Linear,
    value_map: Linear,
    head: Linear,
    token_dim: usize,
    frames: usize,
    grid: GridMap,
    lc: usize,
    lp: usize,
    lt: usize,
}

impl StgspLiteForecaster {
    /// Build for a grid and interception spec; `token_dim` is the attention
    /// width.
    pub fn new(grid: GridMap, spec: &SubSeriesSpec, token_dim: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let cells = grid.cells();
        StgspLiteForecaster {
            // Shared per-frame embedding: 2 channels → token_dim channels,
            // pooled later to a token.
            embed: Conv2dLayer::new(&mut rng, Conv2dSpec::same(2, token_dim, 3)),
            query: Param::new("stgsp.query", Tensor::rand_normal(&mut rng, &[1, token_dim], 0.0, 0.2)),
            key_map: Linear::new(&mut rng, token_dim, token_dim),
            value_map: Linear::new(&mut rng, token_dim, token_dim),
            head: Linear::new(&mut rng, token_dim, 2 * cells),
            token_dim,
            frames: spec.total_frames(),
            grid,
            lc: spec.lc,
            lp: spec.lp,
            lt: spec.lt,
        }
    }

    /// Embed each `[B, 2, H, W]` frame to a `[B, token_dim]` token by
    /// spatial mean pooling of the conv features.
    fn tokens<'t>(&self, s: &Session<'t>, stacked: &Tensor, l: usize) -> Vec<Var<'t>> {
        let dims = stacked.dims();
        let (b, _c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        stacked
            .split(1, &vec![2usize; l])
            .into_iter()
            .map(|frame| {
                let x = s.input(frame);
                let feat = self.embed.forward(s, x).relu(); // [B, D, H, W]
                feat.reshape(&[b, self.token_dim, h * w]).mean_axis(2)
            })
            .collect()
    }
}

impl Trainable for StgspLiteForecaster {
    fn name(&self) -> &str {
        "ST-GSP(lite)"
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut p = self.embed.params();
        p.push(self.query.clone());
        p.extend(self.key_map.params());
        p.extend(self.value_map.params());
        p.extend(self.head.params());
        p
    }

    fn predict_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> Var<'t> {
        let b = batch.closeness.dims()[0];
        let mut tokens = self.tokens(s, &batch.trend, self.lt);
        tokens.extend(self.tokens(s, &batch.period, self.lp));
        tokens.extend(self.tokens(s, &batch.closeness, self.lc));
        assert_eq!(tokens.len(), self.frames);

        // Scaled dot-product attention of a learned query over the frame
        // tokens (per batch row).
        let q = s.param(&self.query); // [1, D]
        let scale = 1.0 / (self.token_dim as f32).sqrt();
        // scores[l] = (k_l · q) * scale, computed batched: [B, L]
        let mut score_cols: Vec<Var<'t>> = Vec::with_capacity(tokens.len());
        let mut values: Vec<Var<'t>> = Vec::with_capacity(tokens.len());
        for &tok in &tokens {
            let k = self.key_map.forward(s, tok); // [B, D]
            let v = self.value_map.forward(s, tok); // [B, D]
                                                    // (k * q) summed over D → [B, 1]
            let score = k.mul(&q).sum_axis(1).mul_scalar(scale).reshape(&[b, 1]);
            score_cols.push(score);
            values.push(v);
        }
        let scores = Var::concat(&score_cols, 1).softmax_last(); // [B, L]
                                                                 // Weighted sum of values: Σ_l w_l v_l.
        let mut context: Option<Var<'t>> = None;
        for (l, v) in values.iter().enumerate() {
            let w = scores.slice_cols(s, l, b, tokens.len());
            let piece = v.mul(&w);
            context = Some(match context {
                Some(c) => c.add(&piece),
                None => piece,
            });
        }
        let context = context.expect("non-empty token list");
        self.head.forward(s, context).tanh().reshape(&[b, 2, self.grid.height, self.grid.width])
    }
}

/// Helper: extract column `l` of a `[B, L]` variable as `[B, 1]`.
trait SliceCols<'t> {
    fn slice_cols(&self, s: &Session<'t>, col: usize, b: usize, l: usize) -> Var<'t>;
}

impl<'t> SliceCols<'t> for Var<'t> {
    fn slice_cols(&self, _s: &Session<'t>, col: usize, b: usize, l: usize) -> Var<'t> {
        // [B, L] → [L, B] via reshape-free path: use reshape to [B*L] then
        // slice strided is unavailable; instead multiply by a one-hot column
        // selector: [B, L] x [L, 1] → [B, 1].
        let mut selector = Tensor::zeros(&[l, 1]);
        selector.as_mut_slice()[col] = 1.0;
        let sel = self.tape().constant(selector);
        let picked = self.matmul(&sel); // [B, 1]
        debug_assert_eq!(picked.dims(), vec![b, 1]);
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_support::{six_epochs, tiny_problem};
    use muse_traffic::subseries::batch;
    use musenet::Trainer;

    #[test]
    fn attention_weights_form_distribution() {
        let (flows, spec, train, _) = tiny_problem();
        let model = StgspLiteForecaster::new(flows.grid(), &spec, 6, 1);
        let b = batch(&flows, &spec, &train[..2]);
        // Probe the internal path by just running the graph: a softmax is
        // applied, so outputs are finite and bounded.
        let p = model.predict(&b);
        assert!(p.all_finite());
        assert!(p.max() <= 1.0 && p.min() >= -1.0);
    }

    #[test]
    fn stgsp_trains() {
        let (flows, spec, train, val) = tiny_problem();
        let mut trainer = Trainer::new(StgspLiteForecaster::new(flows.grid(), &spec, 6, 2), six_epochs(3e-3));
        let before = trainer.validation_rmse(&flows, &spec, &val);
        let report = trainer.fit(&flows, &spec, &train, &val);
        let after = trainer.validation_rmse(&flows, &spec, &val);
        assert!(after < before, "ST-GSP(lite) did not improve: {before} -> {after}");
        assert!(report.last_loss().is_finite());
    }

    #[test]
    fn output_shape() {
        let (flows, spec, _, val) = tiny_problem();
        let model = StgspLiteForecaster::new(flows.grid(), &spec, 4, 3);
        let p = model.predict(&batch(&flows, &spec, &val));
        assert_eq!(p.dims(), &[val.len(), 2, 3, 3]);
        assert_eq!(model.name(), "ST-GSP(lite)");
    }
}
