//! Live forecast-quality tracking: ground-truth scoring, rolling error
//! estimators, and drift alerts — the serve path's answer to "is the model
//! still any good?".
//!
//! The engine owns one [`QualityTracker`]. On every `/forecast` it records
//! the served prediction in a [`ForecastJournal`]; on every `/ingest` it
//! settles the journal against the newly arrived ground truth, folds the
//! scores into rolling estimators ([`muse_obs::rolling`]), feeds the drift
//! rules ([`crate::alerts`]), and publishes everything three ways:
//!
//! * gauges/counters on the registry (scraped via `/metrics`),
//! * `forecast.scored` / `forecast.dropped` / `alert.transition` events in
//!   the JSONL trace (analyzed by `muse-trace quality`),
//! * JSON snapshots behind `GET /quality` and `GET /alerts`.
//!
//! Three drift rules watch for the paper's distribution shifts, each fed
//! its own stream: `mae_drift` (EWMA level shift on scored MAE — needs the
//! model to be wrong), `flow_level_shift` (periodic-mean residual blowout
//! on the ingested flow level itself — fires on drift even before any
//! forecast is scored, PRNet-style per-slot expected values as the
//! baseline) and `spectral_shift` (the dominant detected period against a
//! frozen baseline).

use muse_fft::DetectedPeriod;
use muse_obs::rolling::{DecayingHistogram, Ewma, RollingStats};
use muse_obs::{self as obs, Counter, Gauge, Json};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::alerts::{Alert, AlertState};
use crate::journal::{ForecastJournal, PendingForecast, Settled, StepRecord};
use crate::window::FlowWindow;

/// Errors are tracked in scaled flow units (typically ≪ 1); the decayed
/// power-of-two histogram needs integer-scale values to resolve them, so
/// it stores micro-units.
const ERR_HIST_SCALE: f64 = 1e6;

/// Smoothing factor of the headline MAE/RMSE EWMAs.
const EWMA_ALPHA: f64 = 0.1;

/// Half-life (in scored forecasts) of the decayed error histogram.
const DECAY_HALF_LIFE: f64 = 128.0;

/// Quality-subsystem tuning knobs (part of the engine options).
#[derive(Debug, Clone)]
pub struct QualityConfig {
    /// Most pending forecasts retained awaiting ground truth.
    pub journal_capacity: usize,
    /// Exact rolling-window depth of the error estimators.
    pub window: usize,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig { journal_capacity: 4096, window: 256 }
    }
}

/// Rolling error estimators for one horizon.
#[derive(Debug, Clone)]
struct HorizonStats {
    mae_win: RollingStats,
    rmse_win: RollingStats,
    mae_ewma: Ewma,
    rmse_ewma: Ewma,
    scored: u64,
    /// The interned `quality.{mae,rmse}.h<h>` gauges.
    mae_gauge: &'static Gauge,
    rmse_gauge: &'static Gauge,
}

impl HorizonStats {
    fn new(horizon: usize, window: usize) -> HorizonStats {
        HorizonStats {
            mae_win: RollingStats::new(window),
            rmse_win: RollingStats::new(window),
            mae_ewma: Ewma::new(EWMA_ALPHA),
            rmse_ewma: Ewma::new(EWMA_ALPHA),
            scored: 0,
            mae_gauge: obs::gauge_owned(&format!("quality.mae.h{horizon}")),
            rmse_gauge: obs::gauge_owned(&format!("quality.rmse.h{horizon}")),
        }
    }
}

/// The tracker's counters and gauges, interned when it is built (so each
/// exports from then on, at 0 until its first update).
struct Metrics {
    flow_mean: &'static Gauge,
    scored: &'static Counter,
    mae: &'static Gauge,
    rmse: &'static Gauge,
    spectral_period: &'static Gauge,
    spectral_power_share: &'static Gauge,
}

impl Metrics {
    fn intern() -> Metrics {
        Metrics {
            flow_mean: obs::gauge("serve.flow.mean"),
            scored: obs::counter("serve.forecasts_scored"),
            mae: obs::gauge("quality.mae"),
            rmse: obs::gauge("quality.rmse"),
            spectral_period: obs::gauge("spectral.period_intervals"),
            spectral_power_share: obs::gauge("spectral.power_share"),
        }
    }
}

/// The engine-owned quality state: journal + estimators + drift rules.
pub struct QualityTracker {
    journal: ForecastJournal,
    /// Rolling-window depth of each horizon's estimators.
    window: usize,
    mae_drift: Alert,
    flow_level_shift: Alert,
    spectral_shift: Alert,
    mae_ewma: Ewma,
    rmse_ewma: Ewma,
    mae_win: RollingStats,
    rmse_win: RollingStats,
    mae_inflow: Ewma,
    mae_outflow: Ewma,
    err_hist: DecayingHistogram,
    per_horizon: BTreeMap<usize, HorizonStats>,
    scored: u64,
    dropped: Drops,
    last_flow_mean: f64,
    metrics: Metrics,
}

impl QualityTracker {
    /// Build the tracker for a model with `slots` intervals per day.
    pub fn new(slots: usize, cfg: &QualityConfig) -> QualityTracker {
        QualityTracker {
            journal: ForecastJournal::new(cfg.journal_capacity),
            window: cfg.window,
            mae_drift: Alert::mae_drift(),
            flow_level_shift: Alert::flow_level_shift(slots.max(1)),
            spectral_shift: Alert::spectral_shift(),
            mae_ewma: Ewma::new(EWMA_ALPHA),
            rmse_ewma: Ewma::new(EWMA_ALPHA),
            mae_win: RollingStats::new(cfg.window),
            rmse_win: RollingStats::new(cfg.window),
            mae_inflow: Ewma::new(EWMA_ALPHA),
            mae_outflow: Ewma::new(EWMA_ALPHA),
            err_hist: DecayingHistogram::with_half_life(DECAY_HALF_LIFE),
            per_horizon: BTreeMap::new(),
            scored: 0,
            dropped: Drops { total: 0, counter: obs::counter("serve.forecasts_dropped") },
            last_flow_mean: 0.0,
            metrics: Metrics::intern(),
        }
    }

    /// Record one served forecast awaiting ground truth: request `request`,
    /// answered from the computed step `step`. The journal shares the
    /// step's record, so recording allocates nothing once the journal's
    /// queue has grown.
    pub fn record_forecast(&mut self, request: u64, step: &Arc<StepRecord>) {
        let evicted = self.journal.record(PendingForecast { request, step: Arc::clone(step) });
        if let Some(old) = evicted {
            self.dropped.count(old.request, old.step.horizon, old.step.target, "journal_overflow");
        }
    }

    /// Fold in one ingested ground-truth frame: update the flow-level
    /// signal, settle every now-scorable journal entry, and run the drift
    /// rules.
    pub fn on_ingest(&mut self, window: &FlowWindow, index: u64, frame: &[f32]) {
        let mean = if frame.is_empty() {
            0.0
        } else {
            frame.iter().map(|&v| v as f64).sum::<f64>() / frame.len() as f64
        };
        self.last_flow_mean = mean;
        self.metrics.flow_mean.set(mean);
        self.flow_level_shift.observe(index, mean);

        self.journal.settle(window, |settled| match settled {
            Settled::Scored(s) => {
                self.scored += 1;
                self.mae_ewma.update(s.mae);
                self.rmse_ewma.update(s.rmse);
                self.mae_win.push(s.mae);
                self.rmse_win.push(s.rmse);
                self.mae_inflow.update(s.mae_inflow);
                self.mae_outflow.update(s.mae_outflow);
                self.err_hist.record(s.mae * ERR_HIST_SCALE);
                let h = self
                    .per_horizon
                    .entry(s.horizon)
                    .or_insert_with(|| HorizonStats::new(s.horizon, self.window));
                h.scored += 1;
                h.mae_win.push(s.mae);
                h.rmse_win.push(s.rmse);
                h.mae_ewma.update(s.mae);
                h.rmse_ewma.update(s.rmse);

                self.metrics.scored.add(1);
                self.metrics.mae.set(self.mae_ewma.value());
                self.metrics.rmse.set(self.rmse_ewma.value());
                h.mae_gauge.set(h.mae_ewma.value());
                h.rmse_gauge.set(h.rmse_ewma.value());
                obs::emit_with("forecast.scored", || {
                    vec![
                        ("request", Json::Num(s.request as f64)),
                        ("rollout", Json::Num(s.rollout as f64)),
                        ("horizon", Json::Num(s.horizon as f64)),
                        ("target", Json::Num(s.target as f64)),
                        ("mae", Json::Num(s.mae)),
                        ("rmse", Json::Num(s.rmse)),
                        ("mae_inflow", Json::Num(s.mae_inflow)),
                        ("mae_outflow", Json::Num(s.mae_outflow)),
                    ]
                });
                self.mae_drift.observe(0, s.mae);
            }
            Settled::Dropped { request, horizon, target } => {
                self.dropped.count(request, horizon, target, "target_evicted");
            }
        });
    }

    /// Fold in one spectral-sweep result: publish the dominant-period
    /// gauges, feed the `spectral_shift` alert, and trace the sweep. Sweeps
    /// that detected nothing only bump the gauges to zero — an empty
    /// spectrum is "no information", not a period of zero, so it must not
    /// feed the shift baseline.
    pub fn on_spectral(&mut self, sweep: u64, index: u64, periods: &[DetectedPeriod]) {
        let dominant = periods.first();
        self.metrics.spectral_period.set(dominant.map_or(0.0, |p| p.intervals as f64));
        self.metrics.spectral_power_share.set(dominant.map_or(0.0, |p| p.power_share));
        obs::emit_with("spectral.sweep", || {
            vec![
                ("sweep", Json::Num(sweep as f64)),
                ("index", Json::Num(index as f64)),
                (
                    "periods",
                    Json::Arr(
                        periods
                            .iter()
                            .map(|p| {
                                Json::obj([
                                    ("intervals", Json::Num(p.intervals as f64)),
                                    ("power_share", Json::Num(p.power_share)),
                                    ("snr", Json::Num(p.snr)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]
        });
        if let Some(p) = dominant {
            self.spectral_shift.observe(0, p.intervals as f64);
        }
    }

    /// Forecasts scored so far.
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Forecasts that could never be scored.
    pub fn dropped(&self) -> u64 {
        self.dropped.total
    }

    /// The drift rules, in `/alerts` order.
    fn alerts(&self) -> [&Alert; 3] {
        [&self.mae_drift, &self.flow_level_shift, &self.spectral_shift]
    }

    /// Worst state across the drift rules.
    pub fn worst_alert(&self) -> AlertState {
        self.alerts().iter().map(|a| a.state()).max().unwrap_or(AlertState::Ok)
    }

    /// State of the `spectral_shift` rule.
    pub fn spectral_shift_state(&self) -> AlertState {
        self.spectral_shift.state()
    }

    /// The `GET /quality` payload.
    pub fn snapshot_json(&self) -> Json {
        let err_block = |ewma: &Ewma, win: &RollingStats| {
            Json::obj([
                ("ewma", Json::Num(ewma.value())),
                ("ewma_std", Json::Num(ewma.std())),
                ("window_mean", Json::Num(win.mean())),
                ("window_p50", Json::Num(win.quantile(0.5))),
                ("window_p90", Json::Num(win.quantile(0.9))),
                ("window_max", Json::Num(if win.is_empty() { 0.0 } else { win.max() })),
                ("window_len", Json::Num(win.len() as f64)),
            ])
        };
        let horizons = Json::Arr(
            self.per_horizon
                .iter()
                .map(|(h, s)| {
                    Json::obj([
                        ("horizon", Json::Num(*h as f64)),
                        ("scored", Json::Num(s.scored as f64)),
                        ("mae", Json::Num(s.mae_ewma.value())),
                        ("rmse", Json::Num(s.rmse_ewma.value())),
                        ("window_mae", Json::Num(s.mae_win.mean())),
                        ("window_rmse", Json::Num(s.rmse_win.mean())),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("scored", Json::Num(self.scored as f64)),
            ("dropped", Json::Num(self.dropped.total as f64)),
            ("pending", Json::Num(self.journal.pending() as f64)),
            ("recorded", Json::Num(self.journal.recorded() as f64)),
            ("mae", err_block(&self.mae_ewma, &self.mae_win)),
            ("rmse", err_block(&self.rmse_ewma, &self.rmse_win)),
            (
                "channels",
                Json::obj([
                    ("inflow_mae", Json::Num(self.mae_inflow.value())),
                    ("outflow_mae", Json::Num(self.mae_outflow.value())),
                ]),
            ),
            (
                "mae_decayed",
                Json::obj([
                    ("p50", Json::Num(self.err_hist.quantile(0.5) / ERR_HIST_SCALE)),
                    ("p90", Json::Num(self.err_hist.quantile(0.9) / ERR_HIST_SCALE)),
                    ("mean", Json::Num(self.err_hist.mean() / ERR_HIST_SCALE)),
                ]),
            ),
            ("horizons", horizons),
            ("flow_mean", Json::Num(self.last_flow_mean)),
            ("worst_alert", Json::Str(self.worst_alert().as_str().to_string())),
        ])
    }

    /// The `GET /alerts` payload.
    pub fn alerts_json(&self) -> Json {
        Json::obj([
            ("worst", Json::Str(self.worst_alert().as_str().to_string())),
            ("alerts", Json::Arr(self.alerts().iter().map(|a| a.status_json()).collect())),
        ])
    }
}

/// Forecasts that can never be scored: how many, and their interned
/// counter.
struct Drops {
    total: u64,
    counter: &'static Counter,
}

impl Drops {
    /// Count one forecast that can never be scored, and trace why.
    fn count(&mut self, request: u64, horizon: usize, target: u64, reason: &'static str) {
        self.total += 1;
        self.counter.add(1);
        obs::emit_with("forecast.dropped", || {
            vec![
                ("request", Json::Num(request as f64)),
                ("horizon", Json::Num(horizon as f64)),
                ("target", Json::Num(target as f64)),
                ("reason", Json::Str(reason.to_string())),
            ]
        });
    }
}

#[cfg(test)]
mod tests {
    //! Every test holds `obs::test_lock()`: the tracker's rules bump the
    //! process-global `alerts.transitions` counter, whose exact count
    //! `alerts::tests` asserts.
    use super::*;
    use muse_traffic::GridMap;

    fn tracker(slots: usize) -> QualityTracker {
        QualityTracker::new(slots, &QualityConfig::default())
    }

    fn step(horizon: usize, target: u64, prediction: [f32; 2]) -> Arc<StepRecord> {
        Arc::new(StepRecord { rollout: 1, horizon, target, prediction: Arc::from(prediction) })
    }

    #[test]
    fn scores_flow_into_estimators_and_snapshot() {
        let _g = obs::test_lock();
        let mut w = FlowWindow::new(GridMap::new(1, 1), 8);
        let mut t = tracker(4);
        // Forecast frame 0 as [1,3]; truth arrives as [2,1] → mae 1.5.
        t.record_forecast(11, &step(1, 0, [1.0, 3.0]));
        w.push(&[2.0, 1.0]).unwrap();
        t.on_ingest(&w, 0, &[2.0, 1.0]);
        assert_eq!(t.scored(), 1);
        assert_eq!(t.dropped(), 0);
        let snap = t.snapshot_json();
        assert_eq!(snap.get("scored").unwrap().as_f64(), Some(1.0));
        assert_eq!(snap.get("mae").unwrap().get("ewma").unwrap().as_f64(), Some(1.5));
        assert_eq!(snap.get("channels").unwrap().get("inflow_mae").unwrap().as_f64(), Some(1.0));
        assert_eq!(snap.get("channels").unwrap().get("outflow_mae").unwrap().as_f64(), Some(2.0));
        let horizons = snap.get("horizons").unwrap().as_arr().unwrap();
        assert_eq!(horizons.len(), 1);
        assert_eq!(horizons[0].get("horizon").unwrap().as_f64(), Some(1.0));
        assert_eq!(t.worst_alert(), AlertState::Ok);
    }

    #[test]
    fn flow_level_shift_alert_fires_on_injected_drift() {
        let _g = obs::test_lock();
        let mut w = FlowWindow::new(GridMap::new(1, 1), 8);
        let slots = 4;
        let mut t = tracker(slots);
        // Periodic flow pattern, 6 clean days.
        let pattern = [0.1f32, 0.8, 0.5, 0.2];
        let mut index = 0u64;
        for _ in 0..6 {
            for &v in &pattern {
                w.push(&[v, v]).unwrap();
                t.on_ingest(&w, index, &[v, v]);
                index += 1;
            }
        }
        assert_eq!(t.flow_level_shift.state(), AlertState::Ok);
        // 3x level shift: fires after `for=2` consecutive blown residuals.
        let mut fired_after = None;
        for step in 0..(2 * slots) {
            let v = pattern[(index % slots as u64) as usize] * 3.0;
            w.push(&[v, v]).unwrap();
            t.on_ingest(&w, index, &[v, v]);
            index += 1;
            if fired_after.is_none() && t.flow_level_shift.state() == AlertState::Firing {
                fired_after = Some(step + 1);
            }
        }
        assert_eq!(fired_after, Some(2), "periodic rule fires on the second shifted frame");
    }

    #[test]
    fn spectral_shift_alert_fires_when_the_dominant_period_moves() {
        let _g = obs::test_lock();
        let mut t = tracker(24);
        assert_eq!(t.spectral_shift_state(), AlertState::Ok);
        let daily = |p: usize| DetectedPeriod { intervals: p, power_share: 0.7, snr: 50.0 };
        // Warmup (3) + steady sweeps at a 24-interval dominant period.
        for sweep in 0..6u64 {
            t.on_spectral(sweep, sweep * 32, &[daily(24)]);
        }
        assert_eq!(t.spectral_shift_state(), AlertState::Ok);
        // Empty sweeps are "no information" and must not disturb the state.
        t.on_spectral(6, 6 * 32, &[]);
        assert_eq!(t.spectral_shift_state(), AlertState::Ok);
        // Cadence change: dominant period halves; fires after for=2 sweeps.
        t.on_spectral(7, 7 * 32, &[daily(12)]);
        assert_eq!(t.spectral_shift_state(), AlertState::Ok, "for=2 needs two");
        t.on_spectral(8, 8 * 32, &[daily(12)]);
        assert_eq!(t.spectral_shift_state(), AlertState::Firing);
        assert_eq!(t.worst_alert(), AlertState::Firing);
    }

    #[test]
    fn journal_overflow_and_eviction_count_as_dropped() {
        let _g = obs::test_lock();
        let cfg = QualityConfig { journal_capacity: 1, ..QualityConfig::default() };
        let mut w = FlowWindow::new(GridMap::new(1, 1), 2);
        let mut t = QualityTracker::new(4, &cfg);
        // Second record evicts the first (journal capacity 1).
        t.record_forecast(1, &step(1, 0, [0.0, 0.0]));
        t.record_forecast(2, &step(2, 1, [0.0, 0.0]));
        assert_eq!(t.dropped(), 1);
        // Ring of capacity 2: after frames 0..=3 land, the live range is
        // [2, 4) — target 1 is gone when settle finally runs.
        for (i, v) in [0.5f32, 0.6, 0.7, 0.8].iter().enumerate() {
            w.push(&[*v, *v]).unwrap();
            if i < 3 {
                continue;
            }
            t.on_ingest(&w, i as u64, &[*v, *v]);
        }
        assert_eq!(t.dropped(), 2, "evicted target also drops");
        assert_eq!(t.scored(), 0);
    }

    #[test]
    fn a_fresh_tracker_reports_the_three_rules() {
        let _g = obs::test_lock();
        let want = concat!(
            r#"{"worst":"ok","alerts":["#,
            r#"{"name":"mae_drift","metric":"quality.mae","kind":"ewma","state":"ok","for":3,"#,
            r#""last_value":0,"observations":0,"transitions":0},"#,
            r#"{"name":"flow_level_shift","metric":"serve.flow.mean","kind":"periodic","state":"ok","for":2,"#,
            r#""last_value":0,"observations":0,"transitions":0},"#,
            r#"{"name":"spectral_shift","metric":"spectral.period_intervals","kind":"spectral-shift","#,
            r#""state":"ok","for":2,"last_value":0,"observations":0,"transitions":0}]}"#,
        );
        assert_eq!(tracker(24).alerts_json().render(), want);
    }
}
