//! The interface of the non-learned baselines. The neural baselines
//! implement [`musenet::Trainable`] instead and train through
//! [`musenet::Trainer`], the loop MUSE-Net itself uses.

use muse_tensor::Tensor;
use muse_traffic::subseries::SubSeriesSpec;
use muse_traffic::FlowSeries;

/// A forecaster fitted by a closed-form pass over the training frames
/// (HA, seasonal copy).
pub trait Forecaster {
    /// Display name (matching the paper's tables).
    fn name(&self) -> &str;

    /// Fit on (scaled) flows given chronological target-index splits.
    fn fit(&mut self, flows: &FlowSeries, spec: &SubSeriesSpec, train: &[usize], val: &[usize]);

    /// Predict `[N, 2, H, W]` (scaled units) for target indices.
    fn predict(&self, flows: &FlowSeries, spec: &SubSeriesSpec, indices: &[usize]) -> Tensor;
}

#[cfg(test)]
pub(crate) mod test_support {
    use muse_tensor::Tensor;
    use muse_traffic::subseries::SubSeriesSpec;
    use muse_traffic::{FlowSeries, GridMap};
    use musenet::TrainerOptions;

    /// A tiny flow series with learnable daily structure, plus a standard
    /// tiny spec and splits — shared by the baseline tests.
    pub fn tiny_problem() -> (FlowSeries, SubSeriesSpec, Vec<usize>, Vec<usize>) {
        let grid = GridMap::new(3, 3);
        let f = 6;
        let days = 10;
        let t = days * f;
        let mut data = Vec::with_capacity(t * 2 * grid.cells());
        for i in 0..t {
            let hour = (i % f) as f32 / f as f32;
            let level = (2.0 * std::f32::consts::PI * hour).sin() * 0.5;
            for ch in 0..2 {
                for cell in 0..grid.cells() {
                    data.push((level + 0.08 * cell as f32 + 0.04 * ch as f32).tanh());
                }
            }
        }
        let flows = FlowSeries::from_tensor(grid, Tensor::from_vec(data, &[t, 2, 3, 3]));
        let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: f, trend_days: 7 };
        let first = spec.min_target();
        let train: Vec<usize> = (first..first + 12).collect();
        let val: Vec<usize> = (first + 12..first + 16).collect();
        (flows, spec, train, val)
    }

    /// Six epochs of batch-4 training at `learning_rate`, shuffled with the
    /// baselines' seed.
    pub fn six_epochs(learning_rate: f32) -> TrainerOptions {
        TrainerOptions { epochs: 6, batch_size: 4, learning_rate, shuffle_seed: 13, ..Default::default() }
    }
}
