//! DeepSTN+-style baseline (Feng et al., 2021): the *entangled* counterpart
//! of MUSE-Net. All multi-periodic sub-series are concatenated along the
//! channel axis and pushed through a residual CNN whose blocks carry a
//! long-range "plus" unit (a bottlenecked dense map over the whole grid).
//!
//! This is the strongest CNN baseline in the paper. Its blocks follow the
//! layout of MUSE-Net's ResPlus head (a local 3×3 conv path beside a "plus"
//! path) but are its own `PlusBlock`: leaky-ReLU (slope 0.1) activations
//! and a pre-activation residual with no ReLU after the add. What it lacks
//! next to MUSE-Net is the disentanglement, which Table II isolates.

use muse_autograd::Var;
use muse_nn::{Conv2dLayer, Linear, Param, ParamRef, Session};
use muse_tensor::init::SeededRng;
use muse_tensor::{Conv2dSpec, Tensor};
use muse_traffic::subseries::{last_frame, SubSeriesSpec};
use muse_traffic::{Batch, GridMap};
use musenet::Trainable;

/// One residual block with a local conv path and a long-range plus path.
struct PlusBlock {
    conv: Conv2dLayer,
    reduce: Conv2dLayer,
    dense: Linear,
    channels: usize,
    plus_channels: usize,
    height: usize,
    width: usize,
}

impl PlusBlock {
    fn new(rng: &mut SeededRng, channels: usize, plus_channels: usize, height: usize, width: usize) -> Self {
        assert!(channels > plus_channels);
        let cells = height * width;
        PlusBlock {
            conv: Conv2dLayer::new(rng, Conv2dSpec::same(channels, channels - plus_channels, 3)),
            reduce: Conv2dLayer::new(
                rng,
                Conv2dSpec {
                    in_channels: channels,
                    out_channels: plus_channels,
                    kernel: (1, 1),
                    stride: (1, 1),
                    padding: (0, 0),
                },
            ),
            dense: Linear::new(rng, plus_channels * cells, plus_channels * cells),
            channels,
            plus_channels,
            height,
            width,
        }
    }

    fn forward<'t>(&self, s: &Session<'t>, x: Var<'t>) -> Var<'t> {
        let b = x.dims()[0];
        let local = self.conv.forward(s, x).leaky_relu(0.1);
        let reduced = self.reduce.forward(s, x).leaky_relu(0.1);
        let global = self
            .dense
            .forward(s, reduced.reshape(&[b, self.plus_channels * self.height * self.width]))
            .leaky_relu(0.1)
            .reshape(&[b, self.plus_channels, self.height, self.width]);
        let merged = Var::concat(&[local, global], 1);
        debug_assert_eq!(merged.dims()[1], self.channels);
        // Pre-activation residual: no ReLU after the add, so the block can
        // carry negative activations (the scaled data lives near −1).
        x.add(&merged)
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut p = self.conv.params();
        p.extend(self.reduce.params());
        p.extend(self.dense.params());
        p
    }
}

/// DeepSTN+-style entangled CNN forecaster.
pub struct DeepStnForecaster {
    entry: Conv2dLayer,
    blocks: Vec<PlusBlock>,
    head: Conv2dLayer,
    /// ST-ResNet-style per-cell Hadamard fusion weights for the most recent
    /// closeness / period / trend frames.
    hadamard: [ParamRef; 3],
}

impl DeepStnForecaster {
    /// Build for a grid and interception spec.
    pub fn new(grid: GridMap, spec: &SubSeriesSpec, channels: usize, blocks: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let in_channels = 2 * spec.total_frames();
        let plus = 2.min(channels - 1).max(1);
        let mk_hadamard = |i: usize, init: f32| {
            Param::new(format!("deepstn.hadamard[{i}]"), Tensor::full(&[2, grid.height, grid.width], init))
        };
        DeepStnForecaster {
            entry: Conv2dLayer::new(
                &mut rng,
                Conv2dSpec {
                    in_channels,
                    out_channels: channels,
                    kernel: (1, 1),
                    stride: (1, 1),
                    padding: (0, 0),
                },
            ),
            blocks: (0..blocks.max(1))
                .map(|_| PlusBlock::new(&mut rng, channels, plus, grid.height, grid.width))
                .collect(),
            head: Conv2dLayer::new(&mut rng, Conv2dSpec::same(channels, 2, 3)),
            hadamard: [mk_hadamard(0, 0.8), mk_hadamard(1, 0.1), mk_hadamard(2, 0.1)],
        }
    }
}

impl Trainable for DeepStnForecaster {
    fn name(&self) -> &str {
        "DeepSTN+"
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut p = self.entry.params();
        for b in &self.blocks {
            p.extend(b.params());
        }
        p.extend(self.head.params());
        p.extend(self.hadamard.iter().cloned());
        p
    }

    fn predict_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> Var<'t> {
        // Entangled early fusion: concat C, P, T along channels.
        let joined = Tensor::concat(&[&batch.closeness, &batch.period, &batch.trend], 1);
        let x = s.input(joined);
        let mut h = self.entry.forward(s, x).leaky_relu(0.1);
        for block in &self.blocks {
            h = block.forward(s, h);
        }
        let mut out = self.head.forward(s, h);
        // Per-cell Hadamard fusion of the most recent frames (ST-ResNet).
        let frames = [last_frame(&batch.closeness), last_frame(&batch.period), last_frame(&batch.trend)];
        for (w, frame) in self.hadamard.iter().zip(frames) {
            let wv = s.param(w);
            let fv = s.input(frame);
            out = out.add(&fv.mul(&wv));
        }
        out.tanh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_support::{six_epochs, tiny_problem};
    use muse_traffic::subseries::batch;
    use musenet::Trainer;

    #[test]
    fn deepstn_trains_below_untrained_error() {
        let (flows, spec, train, val) = tiny_problem();
        let mut trainer =
            Trainer::new(DeepStnForecaster::new(flows.grid(), &spec, 8, 1, 7), six_epochs(2e-3));
        let before = trainer.validation_rmse(&flows, &spec, &val);
        let report = trainer.fit(&flows, &spec, &train, &val);
        let after = trainer.validation_rmse(&flows, &spec, &val);
        assert!(after < before, "DeepSTN+ did not improve: {before} -> {after}");
        assert!(report.last_loss().is_finite());
    }

    #[test]
    fn output_shape_and_name() {
        let (flows, spec, _, val) = tiny_problem();
        let model = DeepStnForecaster::new(flows.grid(), &spec, 6, 2, 8);
        let p = model.predict(&batch(&flows, &spec, &val));
        assert_eq!(p.dims(), &[val.len(), 2, 3, 3]);
        assert_eq!(model.name(), "DeepSTN+");
    }

    #[test]
    fn uses_all_subseries_channels() {
        let (flows, spec, train, _) = tiny_problem();
        let model = DeepStnForecaster::new(flows.grid(), &spec, 6, 1, 9);
        let b = batch(&flows, &spec, &train[..1]);
        let mut altered = b.clone();
        altered.period = altered.period.map(|x| -x);
        assert!(model.predict(&b).max_abs_diff(&model.predict(&altered)) > 1e-6, "period input ignored");
    }
}
