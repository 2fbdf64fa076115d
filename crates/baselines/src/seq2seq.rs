//! The Seq2Seq baseline: a GRU encoder-decoder over the flattened frames of
//! the *recent* (closeness) window, following LibCity's Seq2Seq reference
//! model — like the paper's RNN-class baselines it has no access to the
//! daily/weekly sub-series, which is exactly why the multi-periodic methods
//! beat it in Table II.

use crate::rnn::frame_sequence;
use muse_autograd::Var;
use muse_nn::{GruCell, Linear, ParamRef, Session};
use muse_tensor::init::SeededRng;
use muse_traffic::subseries::SubSeriesSpec;
use muse_traffic::{Batch, GridMap};
use musenet::Trainable;

/// GRU encoder-decoder forecaster.
pub struct Seq2SeqForecaster {
    encoder: GruCell,
    decoder: GruCell,
    head: Linear,
    grid: GridMap,
    lc: usize,
    lp: usize,
    lt: usize,
}

impl Seq2SeqForecaster {
    /// Build for a grid and interception spec.
    pub fn new(grid: GridMap, spec: &SubSeriesSpec, hidden: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let io = 2 * grid.cells();
        Seq2SeqForecaster {
            encoder: GruCell::new(&mut rng, io, hidden),
            decoder: GruCell::new(&mut rng, io, hidden),
            head: Linear::new(&mut rng, hidden, io),
            grid,
            lc: spec.lc,
            lp: spec.lp,
            lt: spec.lt,
        }
    }
}

impl Trainable for Seq2SeqForecaster {
    fn name(&self) -> &str {
        "Seq2Seq"
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut p = self.encoder.params();
        p.extend(self.decoder.params());
        p.extend(self.head.params());
        p
    }

    fn predict_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> Var<'t> {
        let b = batch.closeness.dims()[0];
        // The paper's RNN-class baselines see only the recent window.
        let seq = frame_sequence(s, &batch.closeness, self.lc);
        let _ = (self.lp, self.lt);
        let mut h = self.encoder.zero_state(s, b);
        let mut last = None;
        for &x in &seq {
            h = self.encoder.step(s, x, h);
            last = Some(x);
        }
        // One decoder step fed with the most recent frame.
        let dec_in = last.expect("non-empty sequence");
        let h = self.decoder.step(s, dec_in, h);
        self.head.forward(s, h).tanh().reshape(&[b, 2, self.grid.height, self.grid.width])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_support::{six_epochs, tiny_problem};
    use muse_traffic::subseries::batch;
    use musenet::Trainer;

    #[test]
    fn seq2seq_trains() {
        let (flows, spec, train, val) = tiny_problem();
        let mut trainer = Trainer::new(Seq2SeqForecaster::new(flows.grid(), &spec, 12, 3), six_epochs(3e-3));
        let before = trainer.validation_rmse(&flows, &spec, &val);
        let report = trainer.fit(&flows, &spec, &train, &val);
        let after = trainer.validation_rmse(&flows, &spec, &val);
        assert!(after < before, "Seq2Seq did not improve: {before} -> {after}");
        assert!(report.best_val_rmse.is_some());
        assert!(report.last_loss().is_finite());
    }

    #[test]
    fn output_shape() {
        let (flows, spec, _, val) = tiny_problem();
        let model = Seq2SeqForecaster::new(flows.grid(), &spec, 8, 4);
        let p = model.predict(&batch(&flows, &spec, &val));
        assert_eq!(p.dims(), &[val.len(), 2, 3, 3]);
        assert_eq!(model.name(), "Seq2Seq");
    }

    #[test]
    fn ignores_period_and_trend_like_the_paper_baseline() {
        // The RNN-class baselines only see the recent window: perturbing
        // trend must NOT change the prediction, perturbing closeness must.
        let (flows, spec, train, _) = tiny_problem();
        let model = Seq2SeqForecaster::new(flows.grid(), &spec, 8, 5);
        let b = batch(&flows, &spec, &train[..1]);
        let base = model.predict(&b);
        let mut trend_altered = b.clone();
        trend_altered.trend = trend_altered.trend.map(|x| -x);
        assert!(base.max_abs_diff(&model.predict(&trend_altered)) < 1e-7, "trend leaked in");
        let mut close_altered = b.clone();
        close_altered.closeness = close_altered.closeness.map(|x| -x);
        assert!(base.max_abs_diff(&model.predict(&close_altered)) > 1e-6, "closeness ignored");
    }
}
