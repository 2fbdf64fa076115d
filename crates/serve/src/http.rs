//! The daemon's HTTP front end.
//!
//! `--workers` server loops ([`muse_obs::http::HttpServer`]) each accept,
//! read, answer and close connections on their own thread; a panicking
//! handler is answered `500` and never kills a loop. All request parsing,
//! response writing and shutdown goes through [`muse_obs::http`];
//! malformed requests are answered (`400`/`405`), not dropped.
//!
//! Routes:
//!
//! | route                  | method | payload                                  |
//! |------------------------|--------|------------------------------------------|
//! | `/healthz`             | GET    | liveness + readiness JSON                |
//! | `/ingest`              | POST   | one frame, JSON or raw little-endian f32 |
//! | `/forecast?horizon=k`  | GET    | prediction + per-branch latent norms     |
//! | `/stats`               | GET    | model facts + serving counters           |
//! | `/quality`             | GET    | rolling forecast-error estimators        |
//! | `/alerts`              | GET    | alert rule states                        |
//! | `/spectrum`            | GET    | detected periodicities of the window     |
//! | `/metrics`             | GET    | Prometheus text exposition               |
//! | `/debug/profile`       | GET    | span self times as collapsed stacks      |

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use muse_obs as obs;
use muse_obs::http::{HttpServer, Request, Response};
use muse_obs::{Histogram, Json};

use crate::api::parse_ingest_frame;
use crate::engine::{Engine, EngineError};

const JSON_CONTENT_TYPE: &str = "application/json; charset=utf-8";
const TEXT_CONTENT_TYPE: &str = "text/plain; charset=utf-8";

/// HTTP front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (port `0` picks an ephemeral port).
    pub addr: String,
    /// Server loops, each serving one connection at a time (`1` serves
    /// connections sequentially).
    pub workers: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { addr: "127.0.0.1:0".to_string(), workers: 4 }
    }
}

/// A running daemon front end; dropping it stops the listener (the engine
/// is shared and lives until its last handle drops).
pub struct Server {
    http: HttpServer,
    engine: Arc<Engine>,
}

impl Server {
    /// Bind `opts.addr` and serve `engine` from `opts.workers` server loops.
    pub fn start(engine: Arc<Engine>, opts: ServerOptions) -> io::Result<Server> {
        let handler_engine = Arc::clone(&engine);
        let latency = Latency {
            forecast: obs::histogram("serve.http.forecast_ns"),
            ingest: obs::histogram("serve.http.ingest_ns"),
        };
        let http = HttpServer::bind(
            opts.addr.as_str(),
            "muse-serve-http",
            opts.workers,
            Duration::from_secs(10),
            move |request| handle(request, &handler_engine, &latency),
        )?;
        Ok(Server { http, engine })
    }

    /// The bound address (port 0 resolved).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stop accepting, finish in-flight connections, and join every server
    /// loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.http.shutdown();
    }
}

/// The handler-latency histograms, interned when the server starts.
/// Recorded in nanoseconds internally; `/metrics` exports them as
/// `_seconds` histograms (see `muse_obs::serve`).
struct Latency {
    forecast: &'static Histogram,
    ingest: &'static Histogram,
}

/// Route one request and record its handler latency.
fn handle(request: &Request, engine: &Engine, latency: &Latency) -> Response {
    let started = Instant::now();
    let response = route(request, engine);
    let histogram = match request.path.as_str() {
        "/forecast" => Some(latency.forecast),
        "/ingest" => Some(latency.ingest),
        _ => None,
    };
    if let Some(h) = histogram {
        h.record(started.elapsed().as_nanos() as f64);
    }
    response
}

fn route(request: &Request, engine: &Engine) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(engine),
        ("GET", "/stats") => stats(engine),
        ("GET", "/forecast") => forecast(request, engine),
        ("GET", "/quality") => reply(engine.quality()),
        ("GET", "/alerts") => reply(engine.alerts()),
        ("GET", "/spectrum") => reply(engine.spectrum()),
        ("GET", "/metrics") => (200, obs::serve::METRICS_CONTENT_TYPE, obs::render_prometheus()),
        ("POST", "/ingest") => ingest(request, engine),
        // The same live profile the muse-obs MetricsServer serves.
        ("GET", "/debug/profile") => (200, TEXT_CONTENT_TYPE, obs::profile()),
        (
            _,
            "/healthz" | "/stats" | "/forecast" | "/metrics" | "/ingest" | "/quality" | "/alerts"
            | "/spectrum" | "/debug/profile",
        ) => (405, TEXT_CONTENT_TYPE, "method not allowed\n".to_string()),
        _ => (404, TEXT_CONTENT_TYPE, "not found\n".to_string()),
    }
}

fn healthz(engine: &Engine) -> Response {
    match engine.stats() {
        Ok(stats) => (
            200,
            JSON_CONTENT_TYPE,
            Json::obj([
                ("status", Json::Str("ok".to_string())),
                ("ready", Json::Bool(stats.ready)),
                ("frames", Json::Num(stats.window_frames as f64)),
            ])
            .render(),
        ),
        Err(_) => (
            503,
            JSON_CONTENT_TYPE,
            Json::obj([("status", Json::Str("engine stopped".to_string()))]).render(),
        ),
    }
}

fn stats(engine: &Engine) -> Response {
    let info = engine.info();
    let model = Json::obj([
        ("variant", Json::Str(info.variant.clone())),
        ("d", Json::Num(info.d as f64)),
        ("k", Json::Num(info.k as f64)),
        ("param_count", Json::Num(info.param_count as f64)),
        (
            "grid",
            Json::obj([
                ("height", Json::Num(info.grid.height as f64)),
                ("width", Json::Num(info.grid.width as f64)),
            ]),
        ),
        ("frame_len", Json::Num(info.frame_len as f64)),
        ("max_horizon", Json::Num(info.max_horizon as f64)),
    ]);
    reply(engine.stats().map(|snapshot| {
        Json::obj([
            ("model", model),
            ("serving", snapshot.to_json()),
            ("build", obs::serve::build_info_json()),
        ])
    }))
}

fn forecast(request: &Request, engine: &Engine) -> Response {
    let max = engine.info().max_horizon;
    // Validate at the HTTP layer so bad requests never reach the engine
    // thread and the error body names the offending parameter.
    let horizon = match request.query_param("horizon") {
        None => 1,
        Some(raw) => match raw.parse::<usize>() {
            Ok(h) if (1..=max).contains(&h) => h,
            Ok(h) => return bad_horizon(format!("horizon {h} outside 1..={max}"), max),
            Err(_) => return bad_horizon(format!("horizon must be a positive integer, got '{raw}'"), max),
        },
    };
    match engine.forecast(horizon) {
        Ok(resp) => (200, JSON_CONTENT_TYPE, resp.render()),
        Err(err) => engine_error(err),
    }
}

fn bad_horizon(message: String, max: usize) -> Response {
    (
        400,
        JSON_CONTENT_TYPE,
        Json::obj([
            ("error", Json::Str(message)),
            ("param", Json::Str("horizon".to_string())),
            ("max", Json::Num(max as f64)),
        ])
        .render(),
    )
}

fn ingest(request: &Request, engine: &Engine) -> Response {
    let content_type = request.header("content-type").unwrap_or("application/octet-stream");
    let frame = match parse_ingest_frame(content_type, &request.body) {
        Ok(frame) => frame,
        Err(msg) => {
            return (
                400,
                JSON_CONTENT_TYPE,
                Json::obj([("error", Json::Str(msg)), ("param", Json::Str("frame".to_string()))]).render(),
            )
        }
    };
    reply(engine.ingest(frame).map(|ack| ack.to_json()))
}

/// `200` with the rendered JSON, or the engine error's status and body.
fn reply(result: Result<Json, EngineError>) -> Response {
    match result {
        Ok(json) => (200, JSON_CONTENT_TYPE, json.render()),
        Err(err) => engine_error(err),
    }
}

fn engine_error(err: EngineError) -> Response {
    let mut fields = vec![("error", Json::Str(err.to_string()))];
    let status = match &err {
        EngineError::NotReady { have, need } => {
            fields.push(("have", Json::Num(*have as f64)));
            fields.push(("need", Json::Num(*need as f64)));
            503
        }
        EngineError::BadFrame(_) => {
            fields.push(("param", Json::Str("frame".to_string())));
            400
        }
        EngineError::BadHorizon { max, .. } => {
            fields.push(("param", Json::Str("horizon".to_string())));
            fields.push(("max", Json::Num(*max as f64)));
            400
        }
        EngineError::NonFinite { horizon } => {
            fields.push(("horizon", Json::Num(*horizon as f64)));
            500
        }
        EngineError::Panicked | EngineError::Stopped => 500,
    };
    (status, JSON_CONTENT_TYPE, Json::obj(fields).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;
    use muse_obs::http::{exchange, fetch};
    use muse_traffic::{GridMap, SubSeriesSpec};
    use musenet::{MuseNet, MuseNetConfig};

    fn boot() -> Server {
        let spec = SubSeriesSpec { lc: 2, lp: 1, lt: 1, intervals_per_day: 2, trend_days: 7 };
        let mut cfg = MuseNetConfig::cpu_profile(GridMap::new(2, 3), spec);
        cfg.d = 4;
        cfg.k = 8;
        cfg.seed = 3;
        let engine = Arc::new(Engine::new(MuseNet::new(cfg), EngineOptions::default()));
        Server::start(engine, ServerOptions::default()).unwrap()
    }

    fn raw(addr: SocketAddr, payload: &[u8]) -> String {
        exchange(addr, payload).unwrap().1
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let (_, head, body) = fetch(addr, "GET", path, None).unwrap();
        (head, body)
    }

    fn post(addr: SocketAddr, path: &str, content_type: &str, body: &[u8]) -> (String, String) {
        let (_, head, body) = fetch(addr, "POST", path, Some((content_type, body))).unwrap();
        (head, body)
    }

    #[test]
    fn routes_statuses_and_payloads() {
        let _g = obs::test_lock();
        let server = boot();
        let addr = server.addr();
        let frame_len = server.engine().info().frame_len;
        let capacity = server.engine().info().window_capacity;

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        assert!(body.contains("\"ready\":false"), "{body}");

        // Not ready yet: /forecast is 503 and says how many frames remain.
        let (head, body) = get(addr, "/forecast?horizon=1");
        assert!(head.starts_with("HTTP/1.1 503 "), "{head}");
        assert!(body.contains("not ready"), "{body}");
        assert!(body.contains("\"have\":0"), "{body}");
        assert!(body.contains("\"need\":"), "{body}");

        // Bad horizon values are 400 with a body naming the parameter.
        let (head, body) = get(addr, "/forecast?horizon=banana");
        assert!(head.starts_with("HTTP/1.1 400 "), "{head}");
        assert!(body.contains("\"param\":\"horizon\""), "{body}");
        assert!(body.contains("positive integer"), "{body}");
        let (head, body) = get(addr, "/forecast?horizon=0");
        assert!(head.starts_with("HTTP/1.1 400 "), "{head}");
        assert!(body.contains("\"param\":\"horizon\""), "{body}");
        let (head, body) = get(addr, "/forecast?horizon=99");
        assert!(head.starts_with("HTTP/1.1 400 "), "{head}");
        assert!(body.contains("outside"), "{body}");
        assert!(body.contains("\"max\":2"), "{body}");

        // Wrong-size raw frame is 400 with the engine's message.
        let (head, body) = post(addr, "/ingest", "application/octet-stream", &[0u8; 4]);
        assert!(head.starts_with("HTTP/1.1 400 "), "{head}");
        assert!(body.contains("bad frame"), "{body}");
        assert!(body.contains("\"param\":\"frame\""), "{body}");

        // Fill the window over HTTP: JSON for the first frame, raw for the rest.
        let values: Vec<String> = (0..frame_len).map(|i| format!("{}", 0.25 + i as f32 * 0.01)).collect();
        let json_body = format!("{{\"frame\": [{}]}}", values.join(", "));
        let (head, body) = post(addr, "/ingest", "application/json", json_body.as_bytes());
        assert!(head.starts_with("HTTP/1.1 200 "), "{head} {body}");
        assert!(body.contains("\"index\":0"), "{body}");
        let mut raw_frame = Vec::with_capacity(frame_len * 4);
        for i in 0..frame_len {
            raw_frame.extend_from_slice(&(0.5 + i as f32 * 0.001).to_le_bytes());
        }
        for _ in 1..capacity {
            let (head, _) = post(addr, "/ingest", "application/octet-stream", &raw_frame);
            assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        }

        let (head, body) = get(addr, "/forecast?horizon=2");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head} {body}");
        let parsed = crate::api::ForecastResponse::from_json(&obs::json::parse(&body).unwrap()).unwrap();
        assert_eq!(parsed.horizon, 2);
        assert_eq!(parsed.prediction.len(), frame_len);
        assert!(parsed.prediction.iter().all(|v| v.is_finite()));

        let (head, body) = get(addr, "/stats");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let stats = obs::json::parse(&body).unwrap();
        assert_eq!(stats.get("serving").unwrap().get("ready"), Some(&Json::Bool(true)));
        assert!(stats.get("model").unwrap().get("param_count").unwrap().as_f64().unwrap() > 0.0);

        // Quality: the forecast above is journaled; one more ingest scores it.
        let (head, body) = get(addr, "/quality");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let quality = obs::json::parse(&body).unwrap();
        assert_eq!(quality.get("pending").unwrap().as_f64(), Some(1.0), "{body}");
        // The horizon-2 forecast targets next_index + 1: two more ingests
        // bring the ground truth past it.
        for _ in 0..2 {
            let (head, _) = post(addr, "/ingest", "application/octet-stream", &raw_frame);
            assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        }
        let (_, body) = get(addr, "/quality");
        let quality = obs::json::parse(&body).unwrap();
        assert_eq!(quality.get("scored").unwrap().as_f64(), Some(1.0), "{body}");
        assert!(quality.get("mae").unwrap().get("ewma").unwrap().as_f64().unwrap() >= 0.0);

        let (head, body) = get(addr, "/alerts");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let alerts = obs::json::parse(&body).unwrap();
        assert_eq!(alerts.get("worst").unwrap().as_str(), Some("ok"), "{body}");
        assert!(!alerts.get("alerts").unwrap().as_arr().unwrap().is_empty());

        // This tiny window (14 frames) never reaches the 32-ingest sweep
        // cadence, so /spectrum reports zero sweeps — but the shape is live.
        let (head, body) = get(addr, "/spectrum");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let spectrum = obs::json::parse(&body).unwrap();
        assert!(spectrum.get("sweeps").unwrap().as_f64().is_some(), "{body}");
        assert!(spectrum.get("periods").unwrap().as_arr().is_some(), "{body}");
        assert!(spectrum.get("alert").is_some(), "{body}");

        // Unknown path → 404; wrong method on a real route → 405; malformed
        // request → 400; unknown verb → 405.
        assert!(get(addr, "/nope").0.starts_with("HTTP/1.1 404 "));
        assert!(post(addr, "/forecast", "text/plain", b"").0.starts_with("HTTP/1.1 405 "));
        assert!(post(addr, "/quality", "text/plain", b"").0.starts_with("HTTP/1.1 405 "));
        assert!(post(addr, "/alerts", "text/plain", b"").0.starts_with("HTTP/1.1 405 "));
        assert!(post(addr, "/spectrum", "text/plain", b"").0.starts_with("HTTP/1.1 405 "));
        assert!(raw(addr, b"GET /healthz HTTP/1.1\nHost: x\r\n\r\n").starts_with("HTTP/1.1 400 "));
        assert!(raw(addr, b"FROB /healthz HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405 "));
    }

    #[test]
    fn a_panicking_rollout_is_a_500_and_serving_goes_on() {
        let _g = obs::test_lock();
        let server = boot();
        let addr = server.addr();
        // A ready window one frame deep: every rollout step reads a frame
        // the window never held and panics on the HTTP worker.
        server.engine().shrink_window(1);
        let frame_len = server.engine().info().frame_len;
        let raw_frame: Vec<u8> = (0..frame_len).flat_map(|i| (0.1 * i as f32).to_le_bytes()).collect();
        let ingest = || post(addr, "/ingest", "application/octet-stream", &raw_frame).0;
        let panics = obs::counter("serve.panics").get();
        for _ in 0..2 {
            let (head, body) = get(addr, "/forecast?horizon=1");
            assert!(head.starts_with("HTTP/1.1 500 "), "{head}");
            assert!(body.contains("panicked"), "{body}");
        }
        assert_eq!(obs::counter("serve.panics").get(), panics + 2, "each refused forecast is counted");
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        assert!(body.contains("\"ready\":true"), "{body}");
        assert!(ingest().starts_with("HTTP/1.1 200 "), "the window survives the panic");
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains(&format!("muse_serve_panics_total {}", panics + 2)), "{body}");
    }

    #[test]
    fn non_finite_forecast_maps_to_500() {
        let (status, content_type, body) = engine_error(EngineError::NonFinite { horizon: 3 });
        assert_eq!((status, content_type), (500, JSON_CONTENT_TYPE));
        assert!(body.contains("non-finite prediction at horizon 3"), "{body}");
        assert!(body.contains("\"horizon\":3"), "{body}");
    }

    #[test]
    fn debug_routes_and_build_info_surface() {
        let _g = obs::test_lock();
        obs::enable();
        let server = boot();
        let addr = server.addr();
        let info = server.engine().info().clone();
        let raw_frame: Vec<u8> = (0..info.frame_len).flat_map(|i| (0.1 * i as f32).to_le_bytes()).collect();
        let ingest = || post(addr, "/ingest", "application/octet-stream", &raw_frame).0;
        for _ in 0..info.window_capacity {
            assert!(ingest().starts_with("HTTP/1.1 200 "));
        }
        assert!(get(addr, "/forecast?horizon=1").0.starts_with("HTTP/1.1 200 "));
        // The forecast's closed spans are in the live profile; wrong methods
        // get a 405 and no other /debug/ route exists.
        let (head, body) = get(addr, "/debug/profile");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        assert!(body.lines().any(|l| l.starts_with("serve.forecast.batch")), "{body}");
        assert!(post(addr, "/debug/profile", "text/plain", b"").0.starts_with("HTTP/1.1 405 "));
        assert!(get(addr, "/debug/profile/status").0.starts_with("HTTP/1.1 404 "));
        obs::disable();
        // Build info set at boot shows up in /stats under "build".
        obs::serve::set_build_info(vec![
            ("version".to_string(), "0.0.0-test".to_string()),
            ("simd_level".to_string(), "scalar".to_string()),
        ]);
        let (head, body) = get(addr, "/stats");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let stats = obs::json::parse(&body).unwrap();
        let build = stats.get("build").expect("stats carries build info");
        assert_eq!(build.get("version").unwrap().as_str(), Some("0.0.0-test"));
        obs::serve::set_build_info(Vec::new());
    }

    #[test]
    fn metrics_endpoint_exposes_serving_histograms() {
        let _g = obs::test_lock();
        obs::enable();
        obs::reset_metrics();
        let server = boot();
        let addr = server.addr();
        let frame_len = server.engine().info().frame_len;
        let mut raw_frame = Vec::with_capacity(frame_len * 4);
        for i in 0..frame_len {
            raw_frame.extend_from_slice(&(0.1 * i as f32).to_le_bytes());
        }
        let (head, _) = post(addr, "/ingest", "application/octet-stream", &raw_frame);
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("muse_serve_frames_ingested_total 1"), "{body}");
        // Latency histograms export in seconds, never raw nanoseconds.
        assert!(body.contains("muse_serve_http_ingest_seconds_count 1"), "{body}");
        assert!(!body.contains("_ns_count"), "{body}");
        obs::reset_metrics();
        obs::disable();
    }
}
