//! `muse-trace quality` — reconstruct the serve-path quality story from a
//! trace: the forecast error trajectory, the alert transition chronology,
//! and per-request lifecycles (ingest → forecast → score),
//! correlated by the request ids the daemon threads through its events.

use crate::ingest::{QualitySample, TraceData};
use std::collections::BTreeMap;

/// How many trajectory buckets the error timeline is folded into.
const TRAJECTORY_BUCKETS: usize = 8;

/// How many request lifecycles are printed in full.
const LIFECYCLE_ROWS: usize = 10;

/// Render the quality report for a loaded trace.
pub fn render(data: &TraceData) -> String {
    let mut out = String::new();
    out.push_str(&format!("trace: {} ({} events)\n", data.path.display(), data.events.len()));

    if data.quality_samples.is_empty()
        && data.dropped_forecasts.is_empty()
        && data.alert_events.is_empty()
        && data.request_events.is_empty()
    {
        out.push_str(
            "(no serve-path quality events — run muse-serve with --trace and \
             stream ground truth through /ingest)\n",
        );
        return out;
    }

    let scored = data.quality_samples.len();
    let dropped = data.dropped_forecasts.len();
    let rejects = data.request_events.iter().filter(|r| r.kind == "reject").count();
    out.push_str(&format!(
        "quality: {scored} scored, {dropped} dropped, {rejects} rejected, {} alert transition(s)\n",
        data.alert_events.len()
    ));

    render_trajectory(&mut out, data);
    render_drops(&mut out, data);
    render_alerts(&mut out, data);
    render_lifecycles(&mut out, data);
    out
}

/// Error trajectory: per horizon, fold the scored samples (in trace order)
/// into a handful of buckets of mean MAE/RMSE so a drift reads as a rising
/// tail without printing every sample.
fn render_trajectory(out: &mut String, data: &TraceData) {
    if data.quality_samples.is_empty() {
        return;
    }
    let mut by_horizon: BTreeMap<usize, Vec<&QualitySample>> = BTreeMap::new();
    for s in &data.quality_samples {
        by_horizon.entry(s.horizon).or_default().push(s);
    }
    out.push_str("error trajectory (bucketed mean MAE over sample order):\n");
    for (horizon, samples) in &by_horizon {
        let mae: Vec<f64> = samples.iter().map(|s| s.mae).collect();
        let rmse: Vec<f64> = samples.iter().map(|s| s.rmse).collect();
        let mean = mae.iter().sum::<f64>() / mae.len() as f64;
        let worst = mae.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!(
            "  h={horizon}: {} sample(s), mean mae {:.4}, mean rmse {:.4}, worst mae {:.4}\n",
            samples.len(),
            mean,
            rmse.iter().sum::<f64>() / rmse.len() as f64,
            worst,
        ));
        let buckets = bucket_means(&mae, TRAJECTORY_BUCKETS);
        if buckets.len() > 1 {
            let rendered: Vec<String> = buckets.iter().map(|b| format!("{b:.4}")).collect();
            out.push_str(&format!("       mae: {}\n", rendered.join(" -> ")));
            let first = buckets[0].max(f64::MIN_POSITIVE);
            let last = buckets[buckets.len() - 1];
            if last > 3.0 * first {
                out.push_str(&format!("       DRIFT: final bucket is {:.1}x the first\n", last / first));
            }
        }
    }
}

fn render_drops(out: &mut String, data: &TraceData) {
    if data.dropped_forecasts.is_empty() {
        return;
    }
    let mut by_reason: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &data.dropped_forecasts {
        *by_reason.entry(d.reason.as_str()).or_default() += 1;
    }
    out.push_str("dropped forecasts:\n");
    for (reason, n) in by_reason {
        out.push_str(&format!("  {reason:<20} {n}\n"));
    }
}

/// Alert chronology: every state transition, in trace order, ending with
/// each alert's final state.
fn render_alerts(out: &mut String, data: &TraceData) {
    if data.alert_events.is_empty() {
        return;
    }
    out.push_str("alert transitions:\n");
    let mut finals: BTreeMap<&str, &str> = BTreeMap::new();
    for a in &data.alert_events {
        out.push_str(&format!(
            "  {:<24} {:>8} -> {:<8} ({} = {:.4})\n",
            a.alert, a.from, a.to, a.metric, a.value
        ));
        finals.insert(&a.alert, &a.to);
    }
    out.push_str("final alert states:\n");
    for (alert, state) in finals {
        let marker = if state == "firing" { "  <-- FIRING" } else { "" };
        out.push_str(&format!("  {alert:<24} {state}{marker}\n"));
    }
}

/// Request lifecycles: join req.forecast rows with their eventual
/// score/drop by request id.
fn render_lifecycles(out: &mut String, data: &TraceData) {
    let forecasts: Vec<_> = data.request_events.iter().filter(|r| r.kind == "forecast").collect();
    if forecasts.is_empty() {
        return;
    }
    let scored_mae: BTreeMap<u64, f64> = data.quality_samples.iter().map(|s| (s.request, s.mae)).collect();
    let drop_reason: BTreeMap<u64, &str> =
        data.dropped_forecasts.iter().map(|d| (d.request, d.reason.as_str())).collect();

    out.push_str(&format!(
        "forecast lifecycles ({} of {}):\n",
        forecasts.len().min(LIFECYCLE_ROWS),
        forecasts.len()
    ));
    out.push_str(&format!(
        "  {:>8} {:>8} {:>6} {:>8} {:>10}\n",
        "request", "rollout", "h", "target", "outcome"
    ));
    for f in forecasts.iter().take(LIFECYCLE_ROWS) {
        let outcome = match (scored_mae.get(&f.request), drop_reason.get(&f.request)) {
            (Some(mae), _) => format!("mae {mae:.4}"),
            (None, Some(reason)) => (*reason).to_string(),
            (None, None) => "pending".to_string(),
        };
        out.push_str(&format!(
            "  {:>8} {:>8} {:>6} {:>8} {:>10}\n",
            f.request,
            f.rollout.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            f.horizon.map(|h| h.to_string()).unwrap_or_else(|| "-".into()),
            f.target.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            outcome,
        ));
    }

    let mut reject_counts: BTreeMap<String, usize> = BTreeMap::new();
    for r in data.request_events.iter().filter(|r| r.kind == "reject") {
        let key = format!("{}/{}", r.stage.as_deref().unwrap_or("?"), r.reason.as_deref().unwrap_or("?"));
        *reject_counts.entry(key).or_default() += 1;
    }
    if !reject_counts.is_empty() {
        out.push_str("rejected requests (stage/reason):\n");
        for (key, n) in reject_counts {
            out.push_str(&format!("  {key:<32} {n}\n"));
        }
    }
}

/// Fold `values` into up to `n` contiguous buckets of their means.
fn bucket_means(values: &[f64], n: usize) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let buckets = n.min(values.len());
    (0..buckets)
        .map(|b| {
            let lo = b * values.len() / buckets;
            let hi = ((b + 1) * values.len() / buckets).max(lo + 1);
            let chunk = &values[lo..hi];
            chunk.iter().sum::<f64>() / chunk.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{AlertEvent, DroppedForecast, QualitySample, RequestEvent};

    fn sample(request: u64, horizon: usize, mae: f64) -> QualitySample {
        QualitySample {
            request,
            rollout: 1,
            horizon,
            target: 20 + request,
            mae,
            rmse: mae * 1.2,
            mae_inflow: mae,
            mae_outflow: mae,
        }
    }

    fn forecast_event(request: u64) -> RequestEvent {
        RequestEvent {
            kind: "forecast".into(),
            request,
            index: None,
            rollout: Some(1),
            horizon: Some(1),
            target: Some(20 + request),
            stage: None,
            reason: None,
        }
    }

    #[test]
    fn empty_trace_points_at_the_daemon_flags() {
        let text = render(&TraceData::default());
        assert!(text.contains("no serve-path quality events"), "{text}");
    }

    #[test]
    fn drift_story_is_reconstructed() {
        let mut data = TraceData::default();
        // 8 clean samples then 8 blown-up ones: the trajectory must flag it.
        for i in 0..16u64 {
            let mae = if i < 8 { 0.05 } else { 0.9 };
            data.quality_samples.push(sample(i + 1, 1, mae));
            data.request_events.push(forecast_event(i + 1));
        }
        data.dropped_forecasts.push(DroppedForecast {
            request: 99,
            horizon: 1,
            target: 120,
            reason: "target_evicted".into(),
        });
        data.alert_events.push(AlertEvent {
            alert: "flow_level_shift".into(),
            metric: "serve.flow.mean".into(),
            from: "ok".into(),
            to: "firing".into(),
            value: 1.5,
        });
        data.request_events.push(RequestEvent {
            kind: "reject".into(),
            request: 100,
            index: None,
            rollout: None,
            horizon: None,
            target: None,
            stage: Some("forecast".into()),
            reason: Some("bad_horizon".into()),
        });
        let text = render(&data);
        assert!(text.contains("16 scored"), "{text}");
        assert!(text.contains("DRIFT"), "rising trajectory flagged: {text}");
        assert!(text.contains("flow_level_shift"), "{text}");
        assert!(text.contains("<-- FIRING"), "{text}");
        assert!(text.contains("target_evicted"), "{text}");
        assert!(text.contains("mae 0.0500"), "lifecycle outcome joined: {text}");
        assert!(text.contains("forecast/bad_horizon"), "{text}");
    }

    #[test]
    fn bucket_means_folds_evenly() {
        assert_eq!(bucket_means(&[1.0, 1.0, 3.0, 3.0], 2), vec![1.0, 3.0]);
        assert_eq!(bucket_means(&[2.0], 8), vec![2.0]);
        assert!(bucket_means(&[], 8).is_empty());
    }
}
