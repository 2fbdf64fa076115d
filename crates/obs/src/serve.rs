//! Live metrics exporter: a tiny blocking HTTP listener.
//!
//! [`MetricsServer::start`] binds a TCP listener and serves three routes
//! from a background thread:
//!
//! * `GET /metrics` — the full registry in Prometheus text exposition
//!   format (version 0.0.4): counters as `muse_<name>_total`, gauges as
//!   `muse_<name>`, histograms with cumulative power-of-two `le` buckets,
//!   kernel stats as three labelled counter families.
//! * `GET /status`  — a JSON snapshot of the run: uptime, scrape count,
//!   whether a trace is open and where, and the global event watermark.
//! * `GET /debug/profile` — [`crate::span::profile`]: every closed span's
//!   self time as collapsed stacks, cumulative like `/metrics`.
//!
//! The server is deliberately minimal — one [`crate::http::HttpServer`]
//! loop, blocking I/O, no keep-alive — because its job is to let
//! `curl`/Prometheus watch a long `Trainer::fit` without adding a
//! dependency or a runtime. Dropping the handle (or calling
//! [`MetricsServer::shutdown`]) stops the listener.

use crate::http::{HttpServer, Request, Response};
use crate::json::Json;
use crate::metrics;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Prometheus content type for text exposition format 0.0.4.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

static BUILD_INFO: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Set the label pairs rendered as the `muse_build_info` gauge (and under
/// `"build"` in status JSON). Call once at process start with e.g. crate
/// version, SIMD level, and thread-pool size.
pub fn set_build_info(pairs: Vec<(String, String)>) {
    *BUILD_INFO.lock().unwrap_or_else(|p| p.into_inner()) = pairs;
}

/// The currently registered build-info label pairs.
pub fn build_info() -> Vec<(String, String)> {
    BUILD_INFO.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Build info as a JSON object, for embedding in `/stats`-style endpoints.
pub fn build_info_json() -> Json {
    Json::Obj(build_info().into_iter().map(|(k, v)| (k, Json::Str(v))).collect())
}

/// Handle to a running exporter; dropping it shuts the listener down.
pub struct MetricsServer {
    http: HttpServer,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and start
    /// serving `/metrics` and `/status` from a background thread.
    pub fn start(addr: impl ToSocketAddrs) -> io::Result<MetricsServer> {
        let started = Instant::now();
        let scrapes = AtomicU64::new(0);
        let http = HttpServer::bind(addr, "muse-obs-serve", 1, Duration::from_secs(2), move |request| {
            route(request, started, &scrapes)
        })?;
        Ok(MetricsServer { http })
    }

    /// Honour the `MUSE_OBS_ADDR` environment variable: when set to a bind
    /// address, start an exporter there. Returns the running server, or
    /// `None` when the variable is unset/empty (bind errors are reported to
    /// stderr, not fatal).
    pub fn start_from_env() -> Option<MetricsServer> {
        match std::env::var("MUSE_OBS_ADDR") {
            Ok(addr) if !addr.is_empty() => match MetricsServer::start(addr.as_str()) {
                Ok(server) => Some(server),
                Err(e) => {
                    eprintln!("muse-obs: cannot serve metrics on {addr}: {e}");
                    None
                }
            },
            _ => None,
        }
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.http.shutdown();
    }
}

fn route(request: &Request, started: Instant, scrapes: &AtomicU64) -> Response {
    if request.method != "GET" {
        return (405, "text/plain; charset=utf-8", "method not allowed\n".to_string());
    }
    match request.path.as_str() {
        "/metrics" => {
            scrapes.fetch_add(1, Ordering::Relaxed);
            (200, METRICS_CONTENT_TYPE, render_prometheus())
        }
        "/status" => (200, "application/json; charset=utf-8", status_json(started, scrapes).render()),
        "/debug/profile" => (200, "text/plain; charset=utf-8", crate::span::profile()),
        _ => (404, "text/plain; charset=utf-8", "not found\n".to_string()),
    }
}

fn status_json(started: Instant, scrapes: &AtomicU64) -> Json {
    Json::obj([
        ("uptime_s", Json::Num(started.elapsed().as_secs_f64())),
        ("enabled", Json::Bool(crate::enabled())),
        ("trace_open", Json::Bool(crate::trace_enabled())),
        ("trace_path", crate::trace_path().map_or(Json::Null, |p| Json::Str(p.display().to_string()))),
        ("events_emitted", Json::Num(crate::sink::emitted_events() as f64)),
        ("scrapes", Json::Num(scrapes.load(Ordering::Relaxed) as f64)),
    ])
}

/// Render every registered metric in Prometheus text exposition format
/// (0.0.4). Metric names are prefixed with `muse_` and sanitized to
/// `[a-zA-Z0-9_:]`; kernel stats become labelled counter families.
pub fn render_prometheus() -> String {
    let snap = metrics::export_snapshot();
    let mut out = String::new();
    let info = build_info();
    if !info.is_empty() {
        // Info-gauge pattern: constant 1 with the interesting bits as labels.
        let labels: Vec<String> =
            info.iter().map(|(k, v)| format!("{}=\"{}\"", sanitize_label_key(k), escape_label(v))).collect();
        out.push_str("# TYPE muse_build_info gauge\n");
        out.push_str(&format!("muse_build_info{{{}}} 1\n", labels.join(",")));
    }
    for (name, value) in &snap.counters {
        let name = format!("muse_{}_total", sanitize(name));
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let name = format!("muse_{}", sanitize(name));
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", num(*value)));
    }
    for (name, count, sum, buckets) in &snap.histograms {
        let (name, scale) = histogram_export_name(name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (floor, bucket_count) in buckets {
            cumulative += bucket_count;
            // Bucket with floor 2^i holds values in [2^i, 2^(i+1)), except
            // bucket 0 which also absorbs everything below 1.
            let le = (*floor as f64) * 2.0 * scale;
            out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cumulative}\n", num(le)));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!("{name}_sum {}\n", num(*sum * scale)));
        out.push_str(&format!("{name}_count {count}\n"));
    }
    if !snap.kernels.is_empty() {
        out.push_str("# TYPE muse_kernel_calls_total counter\n");
        for row in &snap.kernels {
            out.push_str(&format!(
                "muse_kernel_calls_total{{kernel=\"{}\"}} {}\n",
                escape_label(&row.0),
                row.1
            ));
        }
        // Kernel time is tracked in integer nanoseconds internally but
        // exported in the Prometheus base unit (seconds).
        out.push_str("# TYPE muse_kernel_seconds_total counter\n");
        for row in &snap.kernels {
            out.push_str(&format!(
                "muse_kernel_seconds_total{{kernel=\"{}\"}} {}\n",
                escape_label(&row.0),
                num(row.2 as f64 * 1e-9)
            ));
        }
        out.push_str("# TYPE muse_kernel_bytes_total counter\n");
        for row in &snap.kernels {
            out.push_str(&format!(
                "muse_kernel_bytes_total{{kernel=\"{}\"}} {}\n",
                escape_label(&row.0),
                row.3
            ));
        }
    }
    out
}

/// Exported family name and value scale for one internal histogram.
///
/// Duration histograms are recorded in nanoseconds (so the power-of-two
/// buckets resolve microsecond-scale work), under either a `span.` prefix
/// or an explicit `_ns` suffix. Prometheus conventions want base units:
/// those families export as `_seconds` with values scaled by 1e-9.
/// Everything else (batch sizes, gradient norms, error magnitudes) is
/// unitless and exports unscaled.
fn histogram_export_name(name: &str) -> (String, f64) {
    if let Some(stem) = name.strip_suffix("_ns") {
        (format!("muse_{}_seconds", sanitize(stem)), 1e-9)
    } else if name.starts_with("span.") || name.starts_with("autograd.backward.") {
        (format!("muse_{}_seconds", sanitize(name)), 1e-9)
    } else {
        (format!("muse_{}", sanitize(name)), 1.0)
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' }).collect()
}

/// Label names are stricter than metric names (no `:` allowed).
fn sanitize_label_key(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Prometheus float formatting: integral values render without an exponent
/// or trailing `.0`; everything else uses shortest-roundtrip `Display`.
fn num(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{exchange, fetch};
    use std::net::TcpListener;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let (_, head, body) = fetch(addr, "GET", path, None).unwrap();
        (head, body)
    }

    #[test]
    fn render_covers_all_metric_kinds() {
        let _g = crate::test_lock();
        crate::reset_metrics();
        crate::metrics::counter("serve.test.counter").add(7);
        crate::metrics::gauge("serve.test.gauge").set(2.5);
        let h = crate::metrics::histogram("serve.test.hist");
        h.record(3.0);
        h.record(700.0);
        let k = crate::metrics::kernel("serve.test.kernel");
        k.calls.add(2);
        k.nanos.add(1024);
        k.bytes.add(4096);
        let text = render_prometheus();
        assert!(text.contains("# TYPE muse_serve_test_counter_total counter"));
        assert!(text.contains("muse_serve_test_counter_total 7"));
        assert!(text.contains("muse_serve_test_gauge 2.5"));
        assert!(text.contains("# TYPE muse_serve_test_hist histogram"));
        // 3.0 lands in the [2,4) bucket → le="4"; cumulative +Inf == count.
        assert!(text.contains("muse_serve_test_hist_bucket{le=\"4\"} 1"));
        assert!(text.contains("muse_serve_test_hist_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("muse_serve_test_hist_sum 703"));
        assert!(text.contains("muse_serve_test_hist_count 2"));
        assert!(text.contains("muse_kernel_calls_total{kernel=\"serve.test.kernel\"} 2"));
        // Kernel time is kept in ns internally but exported in seconds.
        assert!(text.contains("# TYPE muse_kernel_seconds_total counter"));
        assert!(text.contains("muse_kernel_seconds_total{kernel=\"serve.test.kernel\"} 0.000001024"));
        assert!(!text.contains("muse_kernel_nanos_total"));
        assert!(text.contains("muse_kernel_bytes_total{kernel=\"serve.test.kernel\"} 4096"));
        crate::reset_metrics();
    }

    #[test]
    fn duration_histograms_export_in_seconds() {
        let _g = crate::test_lock();
        crate::reset_metrics();
        let lat = crate::metrics::histogram("serve.test.lat_ns");
        lat.record(3.0);
        lat.record(5.0);
        let span = crate::metrics::histogram_owned("span.test.fit");
        span.record(2_000_000_000.0);
        let text = render_prometheus();
        // `_ns`-suffixed histograms drop the suffix, gain `_seconds`, and
        // scale both bucket edges and the sum by 1e-9.
        assert!(text.contains("# TYPE muse_serve_test_lat_seconds histogram"), "text: {text}");
        assert!(text.contains("muse_serve_test_lat_seconds_bucket{le=\"0.000000004\"} 1"));
        assert!(text.contains("muse_serve_test_lat_seconds_sum 0.000000008"));
        assert!(text.contains("muse_serve_test_lat_seconds_count 2"));
        assert!(!text.contains("muse_serve_test_lat_ns"));
        // Span histograms are implicitly nanoseconds and convert too.
        assert!(text.contains("# TYPE muse_span_test_fit_seconds histogram"));
        assert!(text.contains("muse_span_test_fit_seconds_sum 2\n"));
        crate::reset_metrics();
    }

    #[test]
    fn server_serves_metrics_status_and_404() {
        let _g = crate::test_lock();
        crate::metrics::counter("serve.test.live").add(1);
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("muse_serve_test_live_total"));

        let (head, body) = http_get(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let status = crate::json::parse(&body).unwrap();
        assert!(status.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(status.get("scrapes").unwrap().as_f64(), Some(1.0));

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
        // Malformed requests are answered, not dropped; a parseable non-GET
        // is this server's 405.
        assert_eq!(exchange(addr, b"GET /metrics HTTP/1.1\nHost: x\r\n\r\n").unwrap().0, 400);
        assert_eq!(fetch(addr, "POST", "/metrics", Some(("text/plain", b""))).unwrap().0, 405);

        server.shutdown();
        // The port is released: a fresh bind to the same address succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok());
    }

    #[test]
    fn build_info_gauge_renders_when_set() {
        let _g = crate::test_lock();
        set_build_info(vec![
            ("version".to_string(), "9.9.9".to_string()),
            ("simd_level".to_string(), "avx2".to_string()),
            ("threads".to_string(), "8".to_string()),
        ]);
        let text = render_prometheus();
        assert!(text.contains("# TYPE muse_build_info gauge"));
        assert!(
            text.contains("muse_build_info{version=\"9.9.9\",simd_level=\"avx2\",threads=\"8\"} 1"),
            "text: {text}"
        );
        let json = build_info_json().render();
        assert!(json.contains("\"simd_level\":\"avx2\""), "json: {json}");
        set_build_info(Vec::new());
        assert!(!render_prometheus().contains("muse_build_info"));
    }

    #[test]
    fn debug_profile_serves_the_span_fold() {
        let _g = crate::test_lock();
        crate::enable();
        drop(crate::span("serve_test_profiled"));
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let (head, body) = http_get(addr, "/debug/profile");
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        assert!(body.lines().any(|l| l.starts_with("serve_test_profiled ")), "body: {body}");
        assert!(http_get(addr, "/debug/profile/status").0.starts_with("HTTP/1.1 404"));
        server.shutdown();
        crate::disable();
    }
}
