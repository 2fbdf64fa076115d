//! The RNN baseline: a vanilla recurrent network over the flattened recent
//! (closeness) frames — temporal-only, no spatial structure, as in the
//! paper's RNN row.

use muse_autograd::Var;
use muse_nn::{Linear, ParamRef, RnnCell, Session};
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::subseries::SubSeriesSpec;
use muse_traffic::{Batch, GridMap};
use musenet::Trainable;

/// Split a channel-stacked sub-series `[B, 2L, H, W]` into `L` flattened
/// per-lag inputs `[B, 2·H·W]` on the tape.
pub(crate) fn frame_sequence<'t>(s: &Session<'t>, stacked: &Tensor, l: usize) -> Vec<Var<'t>> {
    let dims = stacked.dims();
    let (b, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c, 2 * l, "expected {l} frames x 2 channels, got {c} channels");
    // Split along the channel axis into L chunks of 2 channels each.
    let sizes = vec![2usize; l];
    stacked.split(1, &sizes).into_iter().map(|frame| s.input(frame.reshape(&[b, 2 * h * w]))).collect()
}

/// Vanilla-RNN forecaster.
pub struct RnnForecaster {
    cell: RnnCell,
    head: Linear,
    grid: GridMap,
    lc: usize,
}

impl RnnForecaster {
    /// Build for a grid and interception spec.
    pub fn new(grid: GridMap, spec: &SubSeriesSpec, hidden: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let io = 2 * grid.cells();
        RnnForecaster {
            cell: RnnCell::new(&mut rng, io, hidden),
            head: Linear::new(&mut rng, hidden, io),
            grid,
            lc: spec.lc,
        }
    }
}

impl Trainable for RnnForecaster {
    fn name(&self) -> &str {
        "RNN"
    }

    fn params(&self) -> Vec<ParamRef> {
        let mut p = self.cell.params();
        p.extend(self.head.params());
        p
    }

    fn predict_graph<'t>(&self, s: &Session<'t>, batch: &Batch) -> Var<'t> {
        let b = batch.closeness.dims()[0];
        let seq = frame_sequence(s, &batch.closeness, self.lc);
        let h = self.cell.run(s, &seq, b);
        self.head.forward(s, h).tanh().reshape(&[b, 2, self.grid.height, self.grid.width])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::test_support::{six_epochs, tiny_problem};
    use muse_autograd::Tape;
    use muse_traffic::subseries::batch;
    use musenet::Trainer;

    #[test]
    fn frame_sequence_extracts_lags_in_order() {
        let (flows, spec, train, _) = tiny_problem();
        let b = batch(&flows, &spec, &train[..2]);
        let tape = Tape::new();
        let s = Session::new(&tape);
        let seq = frame_sequence(&s, &b.closeness, spec.lc);
        assert_eq!(seq.len(), spec.lc);
        assert_eq!(seq[0].dims(), vec![2, 2 * 9]);
        // First element of the sequence equals the oldest closeness frame.
        let n = train[0];
        let expected = flows.frame(n - spec.lc).reshaped(&[2 * 9]);
        let got = seq[0].value();
        for j in 0..expected.len() {
            assert!((got.at(&[0, j]) - expected.as_slice()[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn rnn_trains_and_beats_untrained_self() {
        let (flows, spec, train, val) = tiny_problem();
        let mut trainer = Trainer::new(RnnForecaster::new(flows.grid(), &spec, 16, 1), six_epochs(3e-3));
        let before = trainer.validation_rmse(&flows, &spec, &val);
        let report = trainer.fit(&flows, &spec, &train, &val);
        let after = trainer.validation_rmse(&flows, &spec, &val);
        assert!(after < before, "RNN did not improve: {before} -> {after}");
        assert!(report.last_loss().is_finite());
    }

    #[test]
    fn prediction_shape_and_range() {
        let (flows, spec, _train, val) = tiny_problem();
        let model = RnnForecaster::new(flows.grid(), &spec, 8, 2);
        let p = model.predict(&batch(&flows, &spec, &val));
        assert_eq!(p.dims(), &[val.len(), 2, 3, 3]);
        assert!(p.max() <= 1.0 && p.min() >= -1.0);
        assert_eq!(model.name(), "RNN");
    }
}
