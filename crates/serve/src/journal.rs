//! Forecast journal: served predictions awaiting their ground truth.
//!
//! Every forecast the engine serves is recorded here, keyed by the
//! absolute index of its *target* frame. When later `/ingest` calls push
//! the window past a pending target, [`ForecastJournal::settle`] scores
//! the stored prediction against the real frame (MAE/RMSE, overall and
//! per inflow/outflow channel) and retires the entry.
//!
//! An entry holds its prediction as a shared `Arc<[f32]>`: every forecast
//! the engine answers from one rollout step records the same buffer, so a
//! full journal costs a few words per entry plus one frame per distinct
//! computed step, not one frame per entry. `settle` scores each distinct
//! buffer and target once, and every entry sharing them reuses that score.
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

/// One recorded, not-yet-scored forecast.
#[derive(Debug, Clone)]
pub struct PendingForecast {
    /// Request ID of the `/forecast` call that produced it.
    pub request: u64,
    /// Memo rollout that computed the prediction.
    pub rollout: u64,
    /// Forecast horizon in frames (1 = next frame).
    pub horizon: usize,
    /// Absolute index of the frame this prediction targets.
    pub target: u64,
    /// The predicted `[2, H, W]` frame, row-major, shared with the rollout
    /// step that computed it and every other forecast answered from it.
    pub prediction: Arc<[f32]>,
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
#[derive(Debug, Clone)]
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
}

impl ForecastJournal {
    /// Journal retaining at most `capacity` pending forecasts.
    pub fn new(capacity: usize) -> ForecastJournal {
        assert!(capacity >= 1, "journal needs capacity for at least one forecast");
        ForecastJournal { pending: VecDeque::new(), capacity, recorded: 0, overflowed: 0 }
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

    /// Score every pending forecast whose target frame is now in the past
    /// (`target < window.next_index()`), in recording order, and retire it
    /// in one order-preserving pass. Targets already evicted from the ring
    /// settle as [`Settled::Dropped`].
    pub fn settle(&mut self, window: &FlowWindow) -> Vec<Settled> {
        let next = window.next_index();
        let mut out = Vec::new();
        // Forecasts answered from one rollout step share a buffer and a
        // target, so they share a score: compute each distinct one once.
        let mut scored: Vec<(Arc<[f32]>, ForecastScore)> = Vec::new();
        // Entries are recorded in rollout order, but horizons differ, so
        // settleable entries are not necessarily at the front: scan all.
        self.pending.retain(|entry| {
            if entry.target >= next {
                return true;
            }
            let Some(truth) = window.try_frame(entry.target) else {
                out.push(Settled::Dropped {
                    request: entry.request,
                    horizon: entry.horizon,
                    target: entry.target,
                });
                return false;
            };
            let known =
                scored.iter().find(|(p, s)| s.target == entry.target && Arc::ptr_eq(p, &entry.prediction));
            let errors = match known {
                Some(&(_, errors)) => errors,
                None => {
                    let errors = score(entry, truth);
                    scored.push((Arc::clone(&entry.prediction), errors));
                    errors
                }
            };
            out.push(Settled::Scored(ForecastScore {
                request: entry.request,
                rollout: entry.rollout,
                horizon: entry.horizon,
                target: entry.target,
                ..errors
            }));
            false
        });
        out
    }
}

/// Score one prediction against its ground-truth frame. Both are row-major
/// `[2, H, W]`: the first half is inflow, the second outflow.
fn score(entry: &PendingForecast, truth: &[f32]) -> ForecastScore {
    assert_eq!(entry.prediction.len(), truth.len(), "prediction/truth shape mismatch");
    let half = truth.len() / 2;
    let mut abs_sum = 0.0f64;
    let mut sq_sum = 0.0f64;
    let mut abs_in = 0.0f64;
    let mut abs_out = 0.0f64;
    for (i, (&p, &t)) in entry.prediction.iter().zip(truth).enumerate() {
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
        request: entry.request,
        rollout: entry.rollout,
        horizon: entry.horizon,
        target: entry.target,
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

    fn entry(request: u64, horizon: usize, target: u64, prediction: Vec<f32>) -> PendingForecast {
        PendingForecast { request, rollout: 1, horizon, target, prediction: prediction.into() }
    }

    #[test]
    fn scores_match_hand_computation() {
        // 1x1 grid: frame is [inflow, outflow].
        let mut w = FlowWindow::new(GridMap::new(1, 1), 4);
        let mut j = ForecastJournal::new(8);
        j.record(entry(7, 1, 0, vec![1.0, 3.0]));
        w.push(&[2.0, 1.0]).unwrap();
        let settled = j.settle(&w);
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
        let settled = j.settle(&w);
        assert_eq!(settled.len(), 1, "only target 0 is in the past");
        let Settled::Scored(s) = &settled[0] else { panic!() };
        assert_eq!(s.request, 2);
        assert_eq!(j.pending(), 1);
        w.push(&[1.0, 1.0]).unwrap();
        w.push(&[1.0, 1.0]).unwrap();
        let settled = j.settle(&w);
        assert_eq!(settled.len(), 1);
        let Settled::Scored(s) = &settled[0] else { panic!() };
        assert_eq!(s.request, 1);
    }

    #[test]
    fn shared_buffers_score_like_copies_in_recording_order() {
        let mut w = FlowWindow::new(GridMap::new(1, 1), 8);
        let a: Arc<[f32]> = Arc::from([1.0, 3.0]);
        let b: Arc<[f32]> = Arc::from([0.5, 2.0]);
        // A later target sits between settleable entries that share buffers.
        let plan = [(1, 1, 0, &a), (2, 2, 1, &b), (3, 1, 0, &a), (4, 1, 0, &b), (5, 1, 0, &a)];
        let (mut shared, mut copied) = (ForecastJournal::new(8), ForecastJournal::new(8));
        for (request, horizon, target, prediction) in plan {
            let entry =
                PendingForecast { request, rollout: 1, horizon, target, prediction: Arc::clone(prediction) };
            copied.record(PendingForecast { prediction: Arc::from(&prediction[..]), ..entry.clone() });
            shared.record(entry);
        }
        w.push(&[2.0, 1.0]).unwrap();
        let settled = shared.settle(&w);
        assert_eq!(format!("{settled:?}"), format!("{:?}", copied.settle(&w)));
        let requests: Vec<u64> = settled
            .iter()
            .map(|s| match s {
                Settled::Scored(s) => s.request,
                other => panic!("expected a score, got {other:?}"),
            })
            .collect();
        assert_eq!(requests, [1, 3, 4, 5]);
        assert_eq!(shared.pending(), 1);
    }

    #[test]
    fn evicted_target_counts_as_dropped_not_panic() {
        let mut w = FlowWindow::new(GridMap::new(1, 1), 2);
        let mut j = ForecastJournal::new(8);
        j.record(entry(5, 1, 0, vec![0.5, 0.5]));
        // Three pushes: frame 0 is ingested, then evicted by frame 2.
        for v in [1.0, 2.0, 3.0] {
            w.push(&[v, v]).unwrap();
        }
        let settled = j.settle(&w);
        assert_eq!(settled.len(), 1);
        match &settled[0] {
            Settled::Dropped { request, horizon, target } => {
                assert_eq!((*request, *horizon, *target), (5, 1, 0));
            }
            other => panic!("expected Dropped, got {other:?}"),
        }
    }

    #[test]
    fn journal_overflow_drops_oldest() {
        let mut j = ForecastJournal::new(2);
        assert!(j.record(entry(1, 1, 10, vec![])).is_none());
        assert!(j.record(entry(2, 1, 11, vec![])).is_none());
        let dropped = j.record(entry(3, 1, 12, vec![])).expect("oldest evicted");
        assert_eq!(dropped.request, 1);
        assert_eq!(j.pending(), 2);
        assert_eq!(j.recorded(), 3);
        assert_eq!(j.overflowed(), 1);
    }
}
