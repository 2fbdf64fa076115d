//! ST-Norm-lite: the Disentangle-class baseline, after ST-Norm (Deng et
//! al., KDD 2021). The input is decomposed into a temporally normalized
//! component (removing each cell's own history mean — the "high-frequency"
//! residual) and a spatially normalized component (removing each frame's
//! spatial mean — the "local" deviation); separate CNN branches process the
//! two components and a head fuses them.

use muse_autograd::Var;
use muse_nn::{Conv2dLayer, ParamRef, Session};
use muse_tensor::init::SeededRng;
use muse_tensor::{Conv2dSpec, Tensor};
use muse_traffic::subseries::SubSeriesSpec;
use muse_traffic::{Batch, GridMap};
use musenet::Trainable;

/// ST-Norm-style two-branch forecaster.
pub struct StNormLiteForecaster {
    temporal_branch: Conv2dLayer,
    spatial_branch: Conv2dLayer,
    fuse: Conv2dLayer,
    head: Conv2dLayer,
}

impl StNormLiteForecaster {
    /// Build for a grid and interception spec.
    pub fn new(grid: GridMap, spec: &SubSeriesSpec, channels: usize, seed: u64) -> Self {
        let _ = grid;
        let mut rng = SeededRng::new(seed);
        let in_channels = 2 * spec.total_frames();
        StNormLiteForecaster {
            temporal_branch: Conv2dLayer::new(&mut rng, Conv2dSpec::same(in_channels, channels, 3)),
            spatial_branch: Conv2dLayer::new(&mut rng, Conv2dSpec::same(in_channels, channels, 3)),
            fuse: Conv2dLayer::new(&mut rng, Conv2dSpec::same(2 * channels, channels, 3)),
            head: Conv2dLayer::new(&mut rng, Conv2dSpec::same(channels, 2, 3)),
        }
    }

    /// Temporal normalization: subtract each cell's mean over the stacked
    /// frames (channel axis) — isolates the high-frequency component.
    fn temporal_norm(x: &Tensor) -> Tensor {
        let dims = x.dims();
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let mean = x.reshaped(&[b, c, h * w]).mean_axis(1); // [B, H*W]
        let mean4 = mean.reshaped(&[b, 1, h, w]);
        x.sub(&mean4)
    }

    /// Spatial normalization: subtract each frame's spatial mean — isolates
    /// the local deviation from the citywide level.
    fn spatial_norm(x: &Tensor) -> Tensor {
        let dims = x.dims();
        let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let mean = x.reshaped(&[b, c, h * w]).mean_axis(2); // [B, C]
        let mean4 = mean.reshaped(&[b, c, 1, 1]);
        x.sub(&mean4)
    }
}

impl Trainable for StNormLiteForecaster {
    fn name(&self) -> &str {
        "ST-Norm(lite)"
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut p = self.temporal_branch.params();
        p.extend(self.spatial_branch.params());
        p.extend(self.fuse.params());
        p.extend(self.head.params());
        p
    }

    fn predict_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> Var<'t> {
        let joined = Tensor::concat(&[&batch.closeness, &batch.period, &batch.trend], 1);
        let t_in = s.input(Self::temporal_norm(&joined));
        let s_in = s.input(Self::spatial_norm(&joined));
        let t_feat = self.temporal_branch.forward(s, t_in).relu();
        let s_feat = self.spatial_branch.forward(s, s_in).relu();
        let fused = self.fuse.forward(s, Var::concat(&[t_feat, s_feat], 1)).relu();
        self.head.forward(s, fused).tanh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_support::{six_epochs, tiny_problem};
    use muse_traffic::subseries::batch;
    use musenet::Trainer;

    #[test]
    fn temporal_norm_zeroes_channel_mean() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 4, 2, 2]);
        let n = StNormLiteForecaster::temporal_norm(&x);
        // For each cell, mean over channels is ~0.
        for cell in 0..4 {
            let mut total = 0.0;
            for c in 0..4 {
                total += n.at(&[0, c, cell / 2, cell % 2]);
            }
            assert!(total.abs() < 1e-5);
        }
    }

    #[test]
    fn spatial_norm_zeroes_frame_mean() {
        let x = Tensor::from_vec((0..16).map(|i| (i * i) as f32).collect(), &[1, 4, 2, 2]);
        let n = StNormLiteForecaster::spatial_norm(&x);
        for c in 0..4 {
            let mut total = 0.0;
            for h in 0..2 {
                for w in 0..2 {
                    total += n.at(&[0, c, h, w]);
                }
            }
            assert!(total.abs() < 1e-4);
        }
    }

    #[test]
    fn stnorm_trains() {
        let (flows, spec, train, val) = tiny_problem();
        let mut trainer =
            Trainer::new(StNormLiteForecaster::new(flows.grid(), &spec, 6, 5), six_epochs(2e-3));
        let before = trainer.validation_rmse(&flows, &spec, &val);
        let report = trainer.fit(&flows, &spec, &train, &val);
        let after = trainer.validation_rmse(&flows, &spec, &val);
        assert!(after < before, "ST-Norm(lite) did not improve: {before} -> {after}");
        assert!(report.last_loss().is_finite());
    }

    #[test]
    fn output_shape_and_name() {
        let (flows, spec, _, val) = tiny_problem();
        let model = StNormLiteForecaster::new(flows.grid(), &spec, 4, 6);
        let p = model.predict(&batch(&flows, &spec, &val));
        assert_eq!(p.dims(), &[val.len(), 2, 3, 3]);
        assert_eq!(model.name(), "ST-Norm(lite)");
    }
}
