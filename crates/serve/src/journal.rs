//! Forecast journal: served predictions awaiting their ground truth.
//!
//! Every forecast the engine serves is recorded here, keyed by the
//! absolute index of its *target* frame. When later `/ingest` calls push
//! the window past a pending target, [`ForecastJournal::settle`] scores
//! the stored prediction against the real frame (MAE/RMSE, overall and
//! per inflow/outflow channel) and retires the entry.
//!
//! An entry is two words: its request id and a shared [`StepRecord`], the
//! one record the engine builds per computed rollout step (its rollout,
//! horizon, target and prediction). Every forecast answered from one step
//! records the same record, so a full journal costs 16 bytes per entry
//! plus one record and one frame per distinct computed step, and
//! recording an entry allocates nothing once the queue has grown.
//! `settle` scores each distinct record once, and every entry pointing at
//! it reuses that score; the score cache is kept between calls, so a warm
//! settle allocates nothing either.
//!
//! Two ways a forecast can fail to score, both non-fatal:
//!
//! * **Target evicted** — the ring buffer wrapped past the target before
//!   `settle` ran (e.g. a deep-horizon forecast followed by a burst of
//!   ingests). The entry retires as *dropped*.
//! * **Journal overflow** — the journal is bounded; recording beyond
//!   capacity drops the oldest pending entry first.

use crate::window::FlowWindow;
use std::collections::VecDeque;
use std::sync::Arc;

/// What every forecast answered from one computed rollout step shares.
#[derive(Debug)]
pub struct StepRecord {
    /// Memo rollout that computed the step.
    pub rollout: u64,
    /// Forecast horizon in frames (1 = next frame).
    pub horizon: usize,
    /// Absolute index of the frame the step predicts.
    pub target: u64,
    /// The predicted `[2, H, W]` frame, row-major, shared with every
    /// response answered from the step.
    pub prediction: Arc<[f32]>,
}

/// One recorded, not-yet-scored forecast.
#[derive(Debug, Clone)]
pub struct PendingForecast {
    /// Request ID of the `/forecast` call that produced it.
    pub request: u64,
    /// The computed step that answered it.
    pub step: Arc<StepRecord>,
}

/// Error summary of one scored forecast.
#[derive(Debug, Clone, Copy)]
pub struct ForecastScore {
    /// Request ID of the `/forecast` call.
    pub request: u64,
    /// Memo rollout that computed the prediction.
    pub rollout: u64,
    /// Forecast horizon in frames.
    pub horizon: usize,
    /// Target frame index that has now arrived.
    pub target: u64,
    /// Mean absolute error over the whole frame.
    pub mae: f64,
    /// Root-mean-square error over the whole frame.
    pub rmse: f64,
    /// MAE over the inflow channel only.
    pub mae_inflow: f64,
    /// MAE over the outflow channel only.
    pub mae_outflow: f64,
}

/// Outcome of settling one journal entry.
#[derive(Debug, Clone, Copy)]
pub enum Settled {
    /// Ground truth arrived; here is the score.
    Scored(ForecastScore),
    /// Ground truth is gone (evicted) — the forecast can never be scored.
    Dropped {
        /// Request ID of the unscorable forecast.
        request: u64,
        /// Its horizon.
        horizon: usize,
        /// The target frame that was evicted.
        target: u64,
    },
}

/// Bounded queue of pending forecasts, scored as ground truth arrives.
pub struct ForecastJournal {
    pending: VecDeque<PendingForecast>,
    capacity: usize,
    recorded: u64,
    overflowed: u64,
    /// Each record scored by the running `settle` call, with its score;
    /// empty between calls, its capacity kept.
    scored: Vec<(Arc<StepRecord>, ForecastScore)>,
}

impl ForecastJournal {
    /// Journal retaining at most `capacity` pending forecasts.
    pub fn new(capacity: usize) -> ForecastJournal {
        assert!(capacity >= 1, "journal needs capacity for at least one forecast");
        ForecastJournal { pending: VecDeque::new(), capacity, recorded: 0, overflowed: 0, scored: Vec::new() }
    }

    /// Pending entries (recorded, not yet settled).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Total forecasts ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Pending entries dropped because the journal was full.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Record one served forecast. When full, the oldest pending entry is
    /// dropped (returned) to make room — callers count it as dropped.
    pub fn record(&mut self, entry: PendingForecast) -> Option<PendingForecast> {
        self.recorded += 1;
        let evicted = if self.pending.len() == self.capacity {
            self.overflowed += 1;
            self.pending.pop_front()
        } else {
            None
        };
        self.pending.push_back(entry);
        evicted
    }

    /// Settle every pending forecast whose target frame is now in the past
    /// (`target < window.next_index()`): hand it to `each`, in recording
    /// order, and retire it in one order-preserving pass. Targets already
    /// evicted from the ring settle as [`Settled::Dropped`].
    pub fn settle(&mut self, window: &FlowWindow, mut each: impl FnMut(Settled)) {
        let next = window.next_index();
        let ForecastJournal { pending, scored, .. } = self;
        // Entries are recorded in rollout order, but horizons differ, so
        // settleable entries are not necessarily at the front: scan all.
        pending.retain(|entry| {
            let step = &entry.step;
            if step.target >= next {
                return true;
            }
            let Some(truth) = window.try_frame(step.target) else {
                each(Settled::Dropped { request: entry.request, horizon: step.horizon, target: step.target });
                return false;
            };
            let errors = match scored.iter().find(|(s, _)| Arc::ptr_eq(s, step)) {
                Some(&(_, errors)) => errors,
                None => {
                    let errors = score(step, truth);
                    scored.push((Arc::clone(step), errors));
                    errors
                }
            };
            each(Settled::Scored(ForecastScore { request: entry.request, ..errors }));
            false
        });
        scored.clear();
    }
}

/// Score one step's prediction against its ground-truth frame. Both are
/// row-major `[2, H, W]`: the first half is inflow, the second outflow.
/// The score's `request` is left 0 for the caller to fill in.
fn score(step: &StepRecord, truth: &[f32]) -> ForecastScore {
    assert_eq!(step.prediction.len(), truth.len(), "prediction/truth shape mismatch");
    let half = truth.len() / 2;
    let mut abs_sum = 0.0f64;
    let mut sq_sum = 0.0f64;
    let mut abs_in = 0.0f64;
    let mut abs_out = 0.0f64;
    for (i, (&p, &t)) in step.prediction.iter().zip(truth).enumerate() {
        let err = (p - t) as f64;
        abs_sum += err.abs();
        sq_sum += err * err;
        if i < half {
            abs_in += err.abs();
        } else {
            abs_out += err.abs();
        }
    }
    let n = truth.len() as f64;
    ForecastScore {
        request: 0,
        rollout: step.rollout,
        horizon: step.horizon,
        target: step.target,
        mae: abs_sum / n,
        rmse: (sq_sum / n).sqrt(),
        mae_inflow: abs_in / half as f64,
        mae_outflow: abs_out / half as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_traffic::GridMap;

    fn step(horizon: usize, target: u64, prediction: Vec<f32>) -> Arc<StepRecord> {
        Arc::new(StepRecord { rollout: 1, horizon, target, prediction: prediction.into() })
    }

    fn entry(request: u64, horizon: usize, target: u64, prediction: Vec<f32>) -> PendingForecast {
        PendingForecast { request, step: step(horizon, target, prediction) }
    }

    fn settle(j: &mut ForecastJournal, w: &FlowWindow) -> Vec<Settled> {
        let mut out = Vec::new();
        j.settle(w, |s| out.push(s));
        out
    }

    #[test]
    fn an_entry_is_two_words() {
        assert_eq!(std::mem::size_of::<PendingForecast>(), 16);
    }

    #[test]
    fn scores_match_hand_computation() {
        // 1x1 grid: frame is [inflow, outflow].
        let mut w = FlowWindow::new(GridMap::new(1, 1), 4);
        let mut j = ForecastJournal::new(8);
        j.record(entry(7, 1, 0, vec![1.0, 3.0]));
        w.push(&[2.0, 1.0]).unwrap();
        let settled = settle(&mut j, &w);
        assert_eq!(settled.len(), 1);
        let Settled::Scored(s) = &settled[0] else { panic!("expected a score") };
        assert_eq!(s.request, 7);
        assert_eq!(s.horizon, 1);
        assert_eq!(s.target, 0);
        // Errors are |1-2|=1 and |3-1|=2.
        assert!((s.mae - 1.5).abs() < 1e-12);
        assert!((s.rmse - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.mae_inflow, 1.0);
        assert_eq!(s.mae_outflow, 2.0);
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn settles_only_past_targets_in_any_order() {
        let mut w = FlowWindow::new(GridMap::new(1, 1), 8);
        let mut j = ForecastJournal::new(8);
        // Deep-horizon forecast recorded first, shallow one second.
        j.record(entry(1, 3, 2, vec![0.0, 0.0]));
        j.record(entry(2, 1, 0, vec![0.0, 0.0]));
        w.push(&[1.0, 1.0]).unwrap();
        let settled = settle(&mut j, &w);
        assert_eq!(settled.len(), 1, "only target 0 is in the past");
        let Settled::Scored(s) = &settled[0] else { panic!() };
        assert_eq!(s.request, 2);
        assert_eq!(j.pending(), 1);
        w.push(&[1.0, 1.0]).unwrap();
        w.push(&[1.0, 1.0]).unwrap();
        let settled = settle(&mut j, &w);
        assert_eq!(settled.len(), 1);
        let Settled::Scored(s) = &settled[0] else { panic!() };
        assert_eq!(s.request, 1);
    }

    #[test]
    fn shared_records_score_like_copies_in_recording_order() {
        let mut w = FlowWindow::new(GridMap::new(1, 1), 8);
        let a = step(1, 0, vec![1.0, 3.0]);
        let b = step(2, 1, vec![0.5, 2.0]);
        let c = step(1, 0, vec![0.5, 2.0]);
        // A later target sits between settleable entries that share records.
        let plan = [(1, &a), (2, &b), (3, &a), (4, &c), (5, &a)];
        let (mut shared, mut copied) = (ForecastJournal::new(8), ForecastJournal::new(8));
        for (request, record) in plan {
            let copy = StepRecord { prediction: Arc::from(&record.prediction[..]), ..**record };
            copied.record(PendingForecast { request, step: Arc::new(copy) });
            shared.record(PendingForecast { request, step: Arc::clone(record) });
        }
        w.push(&[2.0, 1.0]).unwrap();
        let settled = settle(&mut shared, &w);
        assert_eq!(format!("{settled:?}"), format!("{:?}", settle(&mut copied, &w)));
        let requests: Vec<u64> = settled
            .iter()
            .map(|s| match s {
                Settled::Scored(s) => s.request,
                other => panic!("expected a score, got {other:?}"),
            })
            .collect();
        assert_eq!(requests, [1, 3, 4, 5]);
        assert_eq!(shared.pending(), 1);
        // The score cache holds no record past the call.
        assert_eq!(Arc::strong_count(&a), 1);
        assert_eq!(Arc::strong_count(&c), 1);
    }

    #[test]
    fn evicted_target_counts_as_dropped_not_panic() {
        let mut w = FlowWindow::new(GridMap::new(1, 1), 2);
        let mut j = ForecastJournal::new(8);
        let shared = step(1, 0, vec![0.5, 0.5]);
        j.record(PendingForecast { request: 5, step: Arc::clone(&shared) });
        j.record(PendingForecast { request: 6, step: Arc::clone(&shared) });
        // Three pushes: frame 0 is ingested, then evicted by frame 2.
        for v in [1.0, 2.0, 3.0] {
            w.push(&[v, v]).unwrap();
        }
        let dropped: Vec<_> = settle(&mut j, &w)
            .into_iter()
            .map(|s| match s {
                Settled::Dropped { request, horizon, target } => (request, horizon, target),
                other => panic!("expected Dropped, got {other:?}"),
            })
            .collect();
        assert_eq!(dropped, [(5, 1, 0), (6, 1, 0)]);
        assert_eq!(Arc::strong_count(&shared), 1, "both entries retired");
    }

    #[test]
    fn journal_overflow_drops_oldest() {
        let mut j = ForecastJournal::new(2);
        let shared = step(1, 10, vec![]);
        let record = |request| PendingForecast { request, step: Arc::clone(&shared) };
        assert!(j.record(record(1)).is_none());
        assert!(j.record(record(2)).is_none());
        let dropped = j.record(record(3)).expect("oldest evicted");
        assert_eq!(dropped.request, 1);
        assert!(Arc::ptr_eq(&dropped.step, &shared));
        assert_eq!(j.pending(), 2);
        assert_eq!(j.recorded(), 3);
        assert_eq!(j.overflowed(), 1);
    }
}
