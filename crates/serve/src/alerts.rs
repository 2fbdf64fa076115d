//! The drift monitor's three rules, each an [`Alert`] with a three-state
//! `ok/warning/firing` lifecycle.
//!
//! The [`QualityTracker`](crate::QualityTracker) owns one alert per rule
//! and feeds each its own stream directly:
//!
//! | rule | stream | judge |
//! |---|---|---|
//! | `mae_drift` | scored MAE (`quality.mae`) | EWMA shift |
//! | `flow_level_shift` | ingested flow level (`serve.flow.mean`) | periodic residual |
//! | `spectral_shift` | dominant detected period (`spectral.period_intervals`) | frozen baseline |
//!
//! * **EWMA shift** — a fast EWMA of the value divided by a slow EWMA; the
//!   recent level rising a ratio above the long-run level is drift.
//! * **Periodic residual** — a per-slot running mean (slot = time-of-day
//!   index) is the expected value, and the relative residual
//!   `|v - mean[slot]| / |mean[slot]|` is judged. This is the PRNet-style
//!   periodic reference: traffic is strongly periodic, so "unusual for 3am"
//!   matters, not "unusual overall".
//! * **Frozen baseline** — the mean of the first `warmup` samples is the
//!   baseline, and a later sample's relative distance from it is judged.
//!   Built for slow, sparse structural values such as the dominant period:
//!   it is near-constant while a regime holds, so the early baseline *is*
//!   the regime and any sustained departure is the shift.
//!
//! Every judge scores a sample; a score at or above `warn` / `fire` is a
//! warning / firing sample, and `for_n` consecutive samples at a severity
//! move the state there. Each state change is published as it happens: an
//! `alert.transition` trace event, the `alerts.transitions` counter, and the
//! rule's `alert.<name>.state` gauge (0 ok / 1 warning / 2 firing), which is
//! interned when the alert is built.

use muse_obs::rolling::Ewma;
use muse_obs::{self as obs, Counter, Gauge, Json};

/// Guard against division by a near-zero baseline in ratio judges.
const BASELINE_EPS: f64 = 1e-9;

/// Lifecycle state of one alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Rule is not breached.
    Ok,
    /// Warn level breached for `for_n` consecutive samples.
    Warning,
    /// Fire level breached for `for_n` consecutive samples.
    Firing,
}

impl AlertState {
    /// Stable lowercase name used in JSON and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warning => "warning",
            AlertState::Firing => "firing",
        }
    }

    /// Numeric encoding for the `alert.<name>.state` gauge: 0/1/2.
    fn gauge_value(self) -> f64 {
        self as u8 as f64
    }
}

/// A running mean.
#[derive(Debug, Clone, Copy, Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn value(&self) -> f64 {
        self.sum / self.n as f64
    }
}

/// How a rule scores each sample, with the state it keeps to do so.
#[derive(Debug)]
enum Judge {
    /// `fast / slow` EWMA ratio, judged once `warmup` samples seeded both.
    EwmaShift { fast: Ewma, slow: Ewma, warmup: u64 },
    /// Relative residual against the sample's slot mean, judged once the
    /// slot holds `min_periods` samples. `floor` bounds the denominator
    /// from below: low-volume slots (3am traffic near zero) would make a
    /// pure relative residual explode on noise.
    Periodic { slots: Vec<Mean>, min_periods: u64, floor: f64 },
    /// Relative departure from the mean of the first `warmup` samples.
    FrozenBaseline { baseline: Mean, warmup: u64 },
}

impl Judge {
    /// Kind name in the `/alerts` JSON.
    fn kind(&self) -> &'static str {
        match self {
            Judge::EwmaShift { .. } => "ewma",
            Judge::Periodic { .. } => "periodic",
            Judge::FrozenBaseline { .. } => "spectral-shift",
        }
    }

    /// Score the sample `v` of interval `index`, or `None` while the judge
    /// is still warming up.
    fn score(&mut self, index: u64, v: f64) -> Option<f64> {
        match self {
            Judge::EwmaShift { fast, slow, warmup } => {
                fast.update(v);
                slow.update(v);
                (fast.count() >= *warmup).then(|| fast.value() / slow.value().abs().max(BASELINE_EPS))
            }
            Judge::Periodic { slots, min_periods, floor } => {
                let len = slots.len() as u64;
                let baseline = &mut slots[(index % len) as usize];
                // Judge against the baseline *before* folding the sample
                // in, so a regime change cannot vouch for itself.
                let residual = (baseline.n >= *min_periods).then(|| {
                    let mean = baseline.value();
                    (v - mean).abs() / mean.abs().max(*floor).max(BASELINE_EPS)
                });
                baseline.push(v);
                residual
            }
            Judge::FrozenBaseline { baseline, warmup } => {
                // Only warmup samples feed the baseline, so a drifted
                // regime can never vouch for itself.
                if baseline.n < *warmup {
                    baseline.push(v);
                    return None;
                }
                let mean = baseline.value();
                Some((v - mean).abs() / mean.abs().max(BASELINE_EPS))
            }
        }
    }
}

/// One rule and its lifecycle.
#[derive(Debug)]
pub struct Alert {
    name: &'static str,
    /// The stream the rule watches, as named in JSON and events.
    metric: &'static str,
    judge: Judge,
    /// Score at which a sample is a warning.
    warn: f64,
    /// Score at which a sample is firing.
    fire: f64,
    /// Consecutive samples at a severity before the state moves there.
    for_n: u32,
    state: AlertState,
    /// Consecutive samples at >= firing severity.
    fire_streak: u32,
    /// Consecutive samples at >= warning severity.
    warn_streak: u32,
    /// Consecutive samples at ok severity.
    ok_streak: u32,
    last_value: f64,
    observations: u64,
    transitions: u64,
    /// The interned `alert.<name>.state` gauge.
    gauge: &'static Gauge,
    /// The interned `alerts.transitions` counter, shared by every rule.
    transitions_total: &'static Counter,
}

impl Alert {
    /// `mae_drift`: an EWMA level shift on scored MAE. It needs the model
    /// to be wrong.
    pub(crate) fn mae_drift() -> Alert {
        let judge = Judge::EwmaShift { fast: Ewma::new(0.3), slow: Ewma::new(0.03), warmup: 12 };
        Alert::new("mae_drift", "quality.mae", judge, 1.6, 2.2, 3)
    }

    /// `flow_level_shift`: a periodic residual on the ingested flow level,
    /// one slot per interval of the day. It fires on drift before a single
    /// forecast is scored.
    pub(crate) fn flow_level_shift(slots: usize) -> Alert {
        let judge = Judge::Periodic { slots: vec![Mean::default(); slots], min_periods: 2, floor: 0.05 };
        Alert::new("flow_level_shift", "serve.flow.mean", judge, 0.35, 0.6, 2)
    }

    /// `spectral_shift`: a frozen baseline on the dominant detected period.
    pub(crate) fn spectral_shift() -> Alert {
        let judge = Judge::FrozenBaseline { baseline: Mean::default(), warmup: 3 };
        Alert::new("spectral_shift", "spectral.period_intervals", judge, 0.2, 0.4, 2)
    }

    fn new(
        name: &'static str,
        metric: &'static str,
        judge: Judge,
        warn: f64,
        fire: f64,
        for_n: u32,
    ) -> Alert {
        let gauge = obs::gauge_owned(&format!("alert.{name}.state"));
        gauge.set(AlertState::Ok.gauge_value());
        let transitions_total = obs::counter("alerts.transitions");
        Alert {
            name,
            metric,
            judge,
            warn,
            fire,
            for_n,
            state: AlertState::Ok,
            fire_streak: 0,
            warn_streak: 0,
            ok_streak: 0,
            last_value: 0.0,
            observations: 0,
            transitions: 0,
            gauge,
            transitions_total,
        }
    }

    /// Current state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// Judge the sample `v` of interval `index` (only the periodic judge
    /// reads it, as the time-of-day slot `index % slots`). A state change is
    /// published and returned as `(from, to)`.
    pub(crate) fn observe(&mut self, index: u64, v: f64) -> Option<(AlertState, AlertState)> {
        self.observations += 1;
        self.last_value = v;
        match self.judge.score(index, v) {
            Some(s) if s >= self.fire => {
                self.fire_streak += 1;
                self.warn_streak += 1;
                self.ok_streak = 0;
            }
            Some(s) if s >= self.warn => {
                self.warn_streak += 1;
                self.fire_streak = 0;
                self.ok_streak = 0;
            }
            _ => {
                self.ok_streak += 1;
                self.warn_streak = 0;
                self.fire_streak = 0;
            }
        }
        let to = if self.fire_streak >= self.for_n {
            AlertState::Firing
        } else if self.warn_streak >= self.for_n {
            AlertState::Warning
        } else if self.ok_streak >= self.for_n {
            AlertState::Ok
        } else {
            self.state
        };
        if to == self.state {
            return None;
        }
        let from = std::mem::replace(&mut self.state, to);
        self.transitions += 1;
        self.gauge.set(to.gauge_value());
        self.transitions_total.add(1);
        obs::emit_with("alert.transition", || {
            vec![
                ("alert", Json::Str(self.name.to_string())),
                ("metric", Json::Str(self.metric.to_string())),
                ("from", Json::Str(from.as_str().to_string())),
                ("to", Json::Str(to.as_str().to_string())),
                ("value", Json::Num(v)),
            ]
        });
        Some((from, to))
    }

    /// This rule's entry in the `GET /alerts` payload.
    pub(crate) fn status_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("metric", Json::Str(self.metric.to_string())),
            ("kind", Json::Str(self.judge.kind().to_string())),
            ("state", Json::Str(self.state.as_str().to_string())),
            ("for", Json::Num(self.for_n as f64)),
            ("last_value", Json::Num(self.last_value)),
            ("observations", Json::Num(self.observations as f64)),
            ("transitions", Json::Num(self.transitions as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    //! Every test that can move a rule holds `obs::test_lock()`: the
    //! `alerts.transitions` counter is process-global, and
    //! `transitions_set_the_interned_gauge_and_count` asserts its exact count.
    use super::*;
    use AlertState::{Firing, Ok, Warning};

    fn ewma(
        name: &'static str,
        fast: f64,
        slow: f64,
        warn: f64,
        fire: f64,
        warmup: u64,
        for_n: u32,
    ) -> Alert {
        let judge = Judge::EwmaShift { fast: Ewma::new(fast), slow: Ewma::new(slow), warmup };
        Alert::new(name, "m", judge, warn, fire, for_n)
    }

    fn periodic(slots: usize, warn: f64, fire: f64, min_periods: u64, floor: f64, for_n: u32) -> Alert {
        let judge = Judge::Periodic { slots: vec![Mean::default(); slots], min_periods, floor };
        Alert::new("test_periodic", "m", judge, warn, fire, for_n)
    }

    fn frozen(name: &'static str, warn: f64, fire: f64, warmup: u64, for_n: u32) -> Alert {
        let judge = Judge::FrozenBaseline { baseline: Mean::default(), warmup };
        Alert::new(name, "m", judge, warn, fire, for_n)
    }

    #[test]
    fn lifecycle_with_hysteresis() {
        let _g = obs::test_lock();
        // Baseline 1: a sample's score is its distance from 1.
        let mut a = frozen("test_lifecycle", 0.5, 1.0, 1, 2);
        assert_eq!(a.observe(0, 1.0), None, "the warmup sample sets the baseline");
        assert_eq!(a.observe(0, 1.5), None, "one warn sample is not enough");
        assert_eq!(a.observe(0, 1.5), Some((Ok, Warning)));
        a.observe(0, 5.0);
        assert_eq!(a.observe(0, 5.0), Some((Warning, Firing)));
        // Recovery also needs for_n consecutive ok samples.
        assert_eq!(a.observe(0, 1.0), None);
        assert_eq!(a.observe(0, 1.0), Some((Firing, Ok)));
        assert_eq!(a.state(), Ok);
    }

    #[test]
    fn firing_requires_consecutive_breaches() {
        let _g = obs::test_lock();
        let mut a = frozen("test_debounce", 1.0, 1.0, 1, 3);
        a.observe(0, 1.0);
        for _ in 0..5 {
            assert_eq!(a.observe(0, 3.0), None);
            assert_eq!(a.observe(0, 1.0), None);
        }
        assert_eq!(a.state(), Ok, "interleaved breaches never reach for=3");
    }

    #[test]
    fn ewma_shift_detects_level_shift() {
        let _g = obs::test_lock();
        let mut a = ewma("test_ewma", 0.4, 0.02, 1.5, 2.0, 8, 2);
        for _ in 0..50 {
            assert_eq!(a.observe(0, 1.0), None, "stable stream must not alert");
        }
        let mut fired = false;
        for _ in 0..30 {
            if let Some((_, Firing)) = a.observe(0, 4.0) {
                fired = true;
            }
        }
        assert!(fired, "4x level shift must fire, state={:?}", a.state());
    }

    #[test]
    fn periodic_residual_ignores_normal_seasonality_but_fires_on_shift() {
        let _g = obs::test_lock();
        let mut a = periodic(4, 0.3, 0.5, 2, 0.0, 2);
        // Strongly periodic signal: slot values 1, 10, 5, 2 repeating.
        let pattern = [1.0, 10.0, 5.0, 2.0];
        for day in 0..6 {
            for (slot, &v) in pattern.iter().enumerate() {
                assert_eq!(
                    a.observe(slot as u64, v),
                    None,
                    "periodic-but-stable stream alerted on day {day}"
                );
            }
        }
        // Level shift: everything doubles. Each slot's residual ratio is
        // ~1.0 >= fire, so after 2 consecutive samples the alert fires.
        let mut fired_at = None;
        for (i, slot) in (0..8).map(|i| (i, i % 4)) {
            if let Some((_, Firing)) = a.observe(slot as u64, pattern[slot] * 2.0) {
                fired_at.get_or_insert(i);
            }
        }
        assert_eq!(fired_at, Some(1), "fires on the 2nd shifted sample (for=2)");
    }

    #[test]
    fn periodic_floor_damps_low_volume_slots() {
        let _g = obs::test_lock();
        // A 3am-style slot with a tiny baseline: pure relative residual
        // would treat 0.001 -> 0.004 as a 3x blowout, the floor does not.
        let mut floored = periodic(1, 0.35, 0.6, 2, 0.05, 1);
        let mut unfloored = periodic(1, 0.35, 0.6, 2, 0.0, 1);
        for v in [0.001, 0.001, 0.004, 0.002, 0.005] {
            floored.observe(0, v);
            unfloored.observe(0, v);
        }
        assert_eq!(floored.state(), Ok, "floored rule ignores low-volume noise");
        assert_eq!(unfloored.state(), Firing, "unfloored rule flaps on it");
        // The floor still lets a genuine shift through.
        assert_eq!(floored.observe(0, 0.2), Some((Ok, Firing)));
    }

    #[test]
    fn periodic_warmup_respects_min_periods() {
        let _g = obs::test_lock();
        let mut a = periodic(2, 0.1, 0.2, 3, 0.0, 1);
        // Wildly varying samples during warmup never alert: the slot has
        // fewer than min_periods baseline points.
        for v in [1.0, 100.0, 1.0] {
            assert_eq!(a.observe(0, v), None);
            assert_eq!(a.state(), Ok);
        }
        // Baseline established (mean 34): a blown-out sample now fires.
        assert_eq!(a.observe(0, 100.0), Some((Ok, Firing)));
    }

    #[test]
    fn spectral_shift_freezes_baseline_and_fires_on_departure() {
        let _g = obs::test_lock();
        let mut a = frozen("test_spectral", 0.2, 0.4, 3, 2);
        // Warmup: three sweeps agreeing on a 24-interval dominant period.
        for _ in 0..3 {
            assert_eq!(a.observe(0, 24.0), None);
        }
        // Steady regime: more 24s never alert.
        for _ in 0..5 {
            assert_eq!(a.observe(0, 24.0), None);
        }
        // Mild wobble (24 -> 26 is ~8%) stays ok.
        a.observe(0, 26.0);
        assert_eq!(a.state(), Ok);
        // Cadence change: the dominant period halves (24 -> 12, 50% off).
        assert_eq!(a.observe(0, 12.0), None, "for=2 needs a 2nd");
        assert_eq!(a.observe(0, 12.0), Some((Ok, Firing)));
        // The frozen baseline is NOT dragged toward the new regime: going
        // back to 24 recovers.
        for _ in 0..2 {
            a.observe(0, 24.0);
        }
        assert_eq!(a.state(), Ok);
    }

    #[test]
    fn transitions_set_the_interned_gauge_and_count() {
        let _g = obs::test_lock();
        obs::reset_metrics();
        let mut a = frozen("pub_test", 1.0, 2.0, 1, 1);
        assert_eq!(obs::gauge_owned("alert.pub_test.state").get(), 0.0, "interned at 0 when built");
        a.observe(0, 1.0);
        assert_eq!(a.observe(0, 9.0), Some((Ok, Firing)));
        assert_eq!(obs::gauge_owned("alert.pub_test.state").get(), 2.0);
        assert_eq!(obs::counter("alerts.transitions").get(), 1);
        obs::reset_metrics();
    }

    #[test]
    fn status_json_shape() {
        let _g = obs::test_lock();
        let mut a = frozen("test_status", 1.0, 2.0, 1, 1);
        a.observe(0, 1.0);
        a.observe(0, 2.5);
        let json = a.status_json();
        assert_eq!(json.get("name").unwrap().as_str(), Some("test_status"));
        assert_eq!(json.get("state").unwrap().as_str(), Some("warning"));
        assert_eq!(json.get("kind").unwrap().as_str(), Some("spectral-shift"));
        assert_eq!(json.get("last_value").unwrap().as_f64(), Some(2.5));
        assert_eq!(json.get("observations").unwrap().as_f64(), Some(2.0));
    }
}
