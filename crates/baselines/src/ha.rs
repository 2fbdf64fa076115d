//! Historical Average: predict the per-cell mean of all training frames at
//! the same slot of day. The classic non-learned reference point.

use crate::api::Forecaster;
use muse_tensor::Tensor;
use muse_traffic::subseries::SubSeriesSpec;
use muse_traffic::FlowSeries;

/// Historical-average forecaster.
#[derive(Debug, Default)]
pub struct HistoricalAverage {
    /// Per-slot mean frames (len = intervals_per_day), each `[2, H, W]`.
    slot_means: Vec<Tensor>,
}

impl HistoricalAverage {
    /// New, unfitted model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Needed for tests/diagnostics: the fitted per-slot mean.
    pub fn slot_mean(&self, slot: usize) -> Option<&Tensor> {
        self.slot_means.get(slot)
    }
}

impl Forecaster for HistoricalAverage {
    fn name(&self) -> &str {
        "HA"
    }

    fn fit(&mut self, flows: &FlowSeries, spec: &SubSeriesSpec, train: &[usize], _val: &[usize]) {
        let f = spec.intervals_per_day;
        let dims = flows.frame(0).dims().to_vec();
        let mut sums: Vec<Tensor> = (0..f).map(|_| Tensor::zeros(&dims)).collect();
        let mut counts = vec![0usize; f];
        // Average every frame available before the first held-out target so
        // HA sees the same history as the learned models.
        let end = train.last().map_or(0, |&n| n + 1).min(flows.len());
        for i in 0..end {
            let slot = i % f;
            sums[slot].add_assign(&flows.frame(i));
            counts[slot] += 1;
        }
        self.slot_means =
            sums.into_iter().zip(counts).map(|(s, c)| s.mul_scalar(1.0 / c.max(1) as f32)).collect();
    }

    fn predict(&self, _flows: &FlowSeries, spec: &SubSeriesSpec, indices: &[usize]) -> Tensor {
        assert!(!self.slot_means.is_empty(), "HA must be fitted before predicting");
        let f = spec.intervals_per_day;
        let frames: Vec<&Tensor> = indices.iter().map(|&n| &self.slot_means[n % f]).collect();
        Tensor::stack(&frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_support::tiny_problem;
    use musenet::trainer::stack_frames;

    #[test]
    fn ha_learns_slot_means_exactly_on_periodic_data() {
        // The tiny problem is a pure daily cycle (same value at the same
        // slot every day), so HA should be near-perfect.
        let (flows, spec, train, val) = tiny_problem();
        let mut ha = HistoricalAverage::new();
        ha.fit(&flows, &spec, &train, &val);
        let preds = ha.predict(&flows, &spec, &val);
        let truth = stack_frames(&flows, &val);
        assert!(preds.approx_eq(&truth, 1e-4), "HA error {}", preds.max_abs_diff(&truth));
    }

    #[test]
    fn predict_shape() {
        let (flows, spec, train, val) = tiny_problem();
        let mut ha = HistoricalAverage::new();
        ha.fit(&flows, &spec, &train, &val);
        assert_eq!(ha.predict(&flows, &spec, &val).dims()[0], val.len());
        assert_eq!(ha.name(), "HA");
        assert!(ha.slot_mean(0).is_some());
    }

    #[test]
    #[should_panic(expected = "fitted before")]
    fn unfitted_predict_panics() {
        let (flows, spec, _, val) = tiny_problem();
        let ha = HistoricalAverage::new();
        let _ = ha.predict(&flows, &spec, &val);
    }
}
