//! Seasonal naive: predict the frame one season (day or week) earlier.

use crate::api::Forecaster;
use muse_tensor::Tensor;
use muse_traffic::subseries::SubSeriesSpec;
use muse_traffic::FlowSeries;

/// Which seasonal lag to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Season {
    /// Copy yesterday's frame at the same time.
    Daily,
    /// Copy last week's frame at the same time.
    Weekly,
}

/// Seasonal-naive forecaster (no parameters).
#[derive(Debug, Clone, Copy)]
pub struct SeasonalNaive {
    season: Season,
}

impl SeasonalNaive {
    /// Daily-lag copy model.
    pub fn daily() -> Self {
        SeasonalNaive { season: Season::Daily }
    }

    /// Weekly-lag copy model.
    pub fn weekly() -> Self {
        SeasonalNaive { season: Season::Weekly }
    }

    fn lag(&self, spec: &SubSeriesSpec) -> usize {
        match self.season {
            Season::Daily => spec.intervals_per_day,
            Season::Weekly => spec.intervals_per_day * 7,
        }
    }
}

impl Forecaster for SeasonalNaive {
    fn name(&self) -> &str {
        match self.season {
            Season::Daily => "SeasonalNaive(day)",
            Season::Weekly => "SeasonalNaive(week)",
        }
    }

    fn fit(&mut self, _flows: &FlowSeries, _spec: &SubSeriesSpec, _train: &[usize], _val: &[usize]) {}

    fn predict(&self, flows: &FlowSeries, spec: &SubSeriesSpec, indices: &[usize]) -> Tensor {
        let lag = self.lag(spec);
        let frames: Vec<Tensor> = indices
            .iter()
            .map(|&n| {
                assert!(n >= lag, "seasonal naive needs {lag} intervals of history at {n}");
                flows.frame(n - lag)
            })
            .collect();
        let refs: Vec<&Tensor> = frames.iter().collect();
        Tensor::stack(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_support::tiny_problem;
    use musenet::trainer::stack_frames;

    #[test]
    fn daily_copy_is_exact_on_daily_cycle() {
        let (flows, spec, train, val) = tiny_problem();
        let mut m = SeasonalNaive::daily();
        m.fit(&flows, &spec, &train, &val);
        let preds = m.predict(&flows, &spec, &val);
        let truth = stack_frames(&flows, &val);
        assert!(preds.approx_eq(&truth, 1e-5));
    }

    #[test]
    fn weekly_variant_uses_longer_lag() {
        let (flows, spec, _, _) = tiny_problem();
        let m = SeasonalNaive::weekly();
        let n = spec.intervals_per_day * 7 + 2;
        let preds = m.predict(&flows, &spec, &[n]);
        assert!(preds.index_axis0(0).approx_eq(&flows.frame(2), 1e-6));
        assert_eq!(m.name(), "SeasonalNaive(week)");
    }

    #[test]
    #[should_panic(expected = "history")]
    fn insufficient_history_panics() {
        let (flows, spec, _, _) = tiny_problem();
        let m = SeasonalNaive::daily();
        let _ = m.predict(&flows, &spec, &[2]);
    }
}
