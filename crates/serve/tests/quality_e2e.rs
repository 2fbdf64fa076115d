//! End-to-end quality monitoring: boot the daemon, stream a periodic flow
//! pattern with an injected mid-stream level shift, and verify the whole
//! observability loop —
//!
//! * served forecasts are journaled and scored once ground truth arrives
//!   (`/quality`, `muse_quality_*` on `/metrics`);
//! * the `flow_level_shift` periodic drift alert reaches `firing`
//!   deterministically, two frames after the shift (`/alerts`, the
//!   `muse_alert_*_state` gauge);
//! * the JSONL trace records the full story: `req.ingest` → `req.forecast`
//!   → `forecast.scored` lifecycles and `alert.transition` events,
//!   correlated by request ID.

use muse_obs as obs;
use muse_obs::http::fetch;
use muse_obs::Json;
use muse_serve::{Engine, EngineOptions, ForecastResponse, Server, ServerOptions};
use muse_traffic::{GridMap, SubSeriesSpec};
use musenet::{MuseNet, MuseNetConfig};
use std::net::SocketAddr;
use std::sync::Arc;

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let (_, head, body) = fetch(addr, "GET", path, None).unwrap();
    (head, body)
}

fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (head, body) = get(addr, path);
    assert!(head.starts_with("HTTP/1.1 200 "), "{path}: {head}");
    obs::json::parse(&body).unwrap()
}

fn post_raw_frame(addr: SocketAddr, frame: &[f32]) {
    let body: Vec<u8> = frame.iter().flat_map(|v| v.to_le_bytes()).collect();
    let (status, head, _) =
        fetch(addr, "POST", "/ingest", Some(("application/octet-stream", &body))).unwrap();
    assert_eq!(status, 200, "{head}");
}

/// Deterministic periodic frame with per-slot structure; `factor` scales it
/// (the injected level shift).
fn frame_at(i: u64, frame_len: usize, intervals_per_day: usize, factor: f32) -> Vec<f32> {
    let phase = (i % intervals_per_day as u64) as f32 / intervals_per_day as f32;
    (0..frame_len)
        .map(|c| factor * (0.5 + 0.3 * (phase * std::f32::consts::TAU + c as f32 * 0.37).sin()))
        .collect()
}

fn alert_state(alerts: &Json, name: &str) -> String {
    alerts
        .get("alerts")
        .and_then(Json::as_arr)
        .and_then(|rules| rules.iter().find(|r| r.get("name").and_then(Json::as_str) == Some(name)))
        .and_then(|r| r.get("state"))
        .and_then(Json::as_str)
        .unwrap_or("missing")
        .to_string()
}

#[test]
fn drift_is_scored_alerted_and_traced() {
    let _g = obs::test_lock();
    obs::reset_metrics();
    let mut trace = std::env::temp_dir();
    trace.push(format!("muse-quality-e2e-{}.jsonl", std::process::id()));
    obs::open_trace(&trace).unwrap();
    obs::enable();

    let grid = GridMap::new(3, 4);
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 3, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
    cfg.seed = 23;
    let frame_len = 2 * grid.cells();
    let ipd = spec.intervals_per_day;

    let engine = Arc::new(Engine::new(MuseNet::new(cfg), EngineOptions::default()));
    let server = Server::start(Arc::clone(&engine), ServerOptions::default()).unwrap();
    let addr = server.addr();
    let capacity = engine.info().window_capacity;

    // Warmup: fill the window with the clean periodic pattern.
    for i in 0..capacity as u64 {
        post_raw_frame(addr, &frame_at(i, frame_len, ipd, 1.0));
    }

    // Clean live phase: forecast then ingest, so each forecast's target
    // arrives one step later and is scored.
    let clean_steps = 2 * ipd as u64;
    let mut request_ids = Vec::new();
    for s in 0..clean_steps {
        let i = capacity as u64 + s;
        let (head, body) = get(addr, "/forecast?horizon=1");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let resp = ForecastResponse::from_json(&obs::json::parse(&body).unwrap()).unwrap();
        assert_eq!(resp.target_index, i);
        request_ids.push(resp.request_id);
        post_raw_frame(addr, &frame_at(i, frame_len, ipd, 1.0));
    }
    let quality = get_json(addr, "/quality");
    assert_eq!(quality.get("scored").unwrap().as_f64(), Some(clean_steps as f64));
    assert!(quality.get("mae").unwrap().get("ewma").unwrap().as_f64().unwrap() >= 0.0);
    let alerts = get_json(addr, "/alerts");
    assert_eq!(alert_state(&alerts, "flow_level_shift"), "ok");

    // Inject the level shift: every subsequent frame is 3x the periodic
    // baseline. The periodic rule (warn=0.35/fire=0.6, for=2) must reach
    // `firing` on exactly the second shifted frame.
    let shift_at = capacity as u64 + clean_steps;
    let mut fired_after = None;
    for s in 0..(2 * ipd as u64) {
        let i = shift_at + s;
        let (head, body) = get(addr, "/forecast?horizon=1");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let resp = ForecastResponse::from_json(&obs::json::parse(&body).unwrap()).unwrap();
        request_ids.push(resp.request_id);
        post_raw_frame(addr, &frame_at(i, frame_len, ipd, 3.0));
        if fired_after.is_none() {
            let alerts = get_json(addr, "/alerts");
            if alert_state(&alerts, "flow_level_shift") == "firing" {
                fired_after = Some(s + 1);
            }
        }
    }
    assert_eq!(fired_after, Some(2), "drift alert must fire on the second shifted frame");

    // The shift also blows up forecast error, visible in /quality.
    let quality = get_json(addr, "/quality");
    let scored = quality.get("scored").unwrap().as_f64().unwrap();
    assert!(scored >= clean_steps as f64 + 1.0, "shifted forecasts scored too: {scored}");
    assert!(quality.get("mae").unwrap().get("window_max").unwrap().as_f64().unwrap() > 0.0);

    // /metrics exports the quality gauges, alert states, and counters.
    let (head, metrics) = get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(metrics.contains("muse_quality_mae "), "{metrics}");
    assert!(metrics.contains("muse_quality_rmse "), "{metrics}");
    assert!(metrics.contains("muse_serve_forecasts_scored_total"), "{metrics}");
    assert!(metrics.contains("muse_alert_flow_level_shift_state 2"), "{metrics}");
    assert!(metrics.contains("muse_serve_flow_mean "), "{metrics}");
    assert!(metrics.contains("muse_alerts_transitions_total"), "{metrics}");

    // Tear down so nothing writes to the trace while we read it.
    drop(server);
    engine.shutdown();
    let path = obs::close_trace().unwrap();
    obs::disable();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The trace tells the same story. Pick a scored request and follow its
    // lifecycle: req.forecast assigns its rollout and target, and
    // forecast.scored closes it out with the same two.
    let events: Vec<Json> = text.lines().filter_map(|l| obs::json::parse(l).ok()).collect();
    let ev = |name: &str| -> Vec<&Json> {
        events.iter().filter(|e| e.get("ev").and_then(Json::as_str) == Some(name)).collect()
    };
    assert!(!ev("req.ingest").is_empty(), "ingest requests traced");
    let traced_request = request_ids[0] as f64;
    let forecast_events = ev("req.forecast");
    let mine = forecast_events
        .iter()
        .find(|e| e.get("request").and_then(Json::as_f64) == Some(traced_request))
        .expect("first forecast request traced");
    let scored_events = ev("forecast.scored");
    let scored = scored_events
        .iter()
        .find(|e| e.get("request").and_then(Json::as_f64) == Some(traced_request))
        .expect("scored event closes the request lifecycle");
    for field in ["rollout", "target"] {
        assert_eq!(scored.get(field), mine.get(field), "{field} of the scored forecast");
    }
    // And the alert transition to firing is on record.
    assert!(
        ev("alert.transition").iter().any(|e| {
            e.get("alert").and_then(Json::as_str) == Some("flow_level_shift")
                && e.get("to").and_then(Json::as_str) == Some("firing")
        }),
        "alert transition traced"
    );
    obs::reset_metrics();
}
