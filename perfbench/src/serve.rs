//! The serve workloads: a real `muse-serve` child process booted from a
//! seeded checkpoint, fed simulator frames over `/ingest` in index order
//! while forecasts are requested on a seeded open-loop schedule, then
//! driven closed-loop to saturation. Every `200` forecast is checked
//! bit-for-bit against an in-process `MuseNet::predict_multi_step`.

use crate::loadgen::{self, Op, Outcome};
use crate::stats::{lag_grows, median, quantile};
use crate::{Ctx, Report};
use muse_obs::Json;
use muse_serve::ForecastResponse;
use muse_tensor::Tensor;
use muse_traffic::{DatasetPreset, FlowSeries, Scaler, SubSeriesSpec};
use musenet::{MuseNet, MuseNetConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One serve traffic mix. The offered rate is a fixed constant, a fifth to
/// a quarter of the mix's closed-loop saturation on the recording machine
/// (200 of about 740 req/s, 60 of about 290 req/s), and is never recomputed
/// at run time: a faster commit is not offered a heavier load.
pub struct Mix {
    pub name: &'static str,
    pub horizon: usize,
    /// Requests per second, ingests and forecasts together.
    pub rate: f64,
    /// Share of requests that are ingests.
    pub ingest_share: f64,
}

/// `/forecast?horizon=1` with about four forecasts per ingest.
pub const NOWCAST: Mix = Mix { name: "serve-nowcast", horizon: 1, rate: 200.0, ingest_share: 0.2 };
/// `/forecast?horizon=24` (the full-day rollout) with sparse ingests.
pub const DAYAHEAD: Mix = Mix { name: "serve-dayahead", horizon: 24, rate: 60.0, ingest_share: 0.15 };

/// Share of `--seconds` spent in the open-loop phase; the rest is the
/// closed-loop saturation phase.
const OPEN_SHARE: f64 = 0.6;
/// Set-ups per run; `setup_s` is their median. A set-up generates the
/// inputs from the seed, builds and checkpoints the model, spawns the daemon
/// and fills its window with about 700 sequential HTTP requests.
const SETUP_REPEATS: usize = 16;
/// An open loop whose last-quarter median lag exceeds this (and has more
/// than doubled) fell behind its schedule; its numbers are not reported.
const LAG_FLOOR_MS: f64 = 20.0;

/// The daemon's flags, recorded in the stamp.
pub fn daemon_flags() -> Vec<String> {
    vec!["--addr".into(), "127.0.0.1:0".into()]
}

/// Inputs of a serve run, built from the workload seed alone.
pub struct ServeData {
    pub flows: FlowSeries,
    pub cfg: MuseNetConfig,
    pub schedule: Vec<(Duration, Op)>,
    /// Frames needed to fill the daemon's window before it is ready.
    pub fill: usize,
}

impl ServeData {
    pub fn new(seed: u64, mix: &Mix, open: Duration) -> ServeData {
        let schedule = loadgen::schedule(seed, mix.rate, mix.ingest_share, open);
        let ingests = schedule.iter().filter(|(_, op)| matches!(op, Op::Ingest(_))).count();
        let spec = SubSeriesSpec::paper_default(24);
        let fill = spec.min_target();
        let mut city = DatasetPreset::NycBike.config(0.5, seed);
        city.days = city.days.max((fill + ingests).div_ceil(city.intervals_per_day) + 1);
        let raw = muse_traffic::CitySimulator::new(city).run().flows;
        let scaler = Scaler::fit_sqrt(raw.tensor());
        let flows = FlowSeries::from_tensor(raw.grid(), scaler.scale(raw.tensor()));
        // The quick-profile model `train-eval` fits, untrained.
        let mut cfg = MuseNetConfig::cpu_profile(flows.grid(), spec);
        cfg.resplus_blocks = 2;
        cfg.seed = seed + 6;
        ServeData { flows, cfg, schedule, fill }
    }

    /// Raw little-endian f32 body of frame `index`.
    pub fn frame_body(&self, index: usize) -> Vec<u8> {
        self.flows.frame(index).as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
    }
}

/// A running `muse-serve` child. Dropping it kills the process and waits
/// for it and for the thread draining its stderr.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(bin: &Path, checkpoint: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--checkpoint").arg(checkpoint).args(daemon_flags());
        if let Some(path) = trace {
            cmd.arg("--trace").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        let addr = rest.split(' ').next().unwrap_or_default();
                        break addr.parse().map_err(|e| format!("daemon address {addr}: {e}"));
                    }
                }
                _ => break Err("muse-serve exited before listening".to_string()),
            }
        };
        let drain = std::thread::spawn(move || lines.for_each(drop));
        let mut daemon =
            Daemon { child, addr: "127.0.0.1:0".parse().expect("literal address"), drain: Some(drain) };
        daemon.addr = addr?;
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Build and checkpoint the model, boot the daemon and fill its window
/// until `/healthz` reports ready.
fn boot(ctx: &Ctx, data: &ServeData, trace: Option<&Path>) -> Result<(Daemon, PathBuf), String> {
    let checkpoint = checkpoint_path(ctx);
    MuseNet::new(data.cfg.clone())
        .save_with_config(&checkpoint)
        .map_err(|e| format!("writing checkpoint {}: {e}", checkpoint.display()))?;
    let daemon = Daemon::spawn(&ctx.serve_bin, &checkpoint, trace)?;
    for i in 0..data.fill {
        match loadgen::http(daemon.addr, "POST", "/ingest", &data.frame_body(i)) {
            Ok((200, _)) => {}
            other => return Err(format!("filling the window, frame {i}: {other:?}")),
        }
    }
    let (status, body) =
        loadgen::http(daemon.addr, "GET", "/healthz", &[]).map_err(|e| format!("/healthz: {e}"))?;
    if status != 200 || !String::from_utf8_lossy(&body).contains("\"ready\":true") {
        return Err(format!(
            "daemon not ready after {} frames: {}",
            data.fill,
            String::from_utf8_lossy(&body)
        ));
    }
    Ok((daemon, checkpoint))
}

/// Everything one measured pass over a daemon produced.
struct Pass {
    open: Vec<Outcome>,
    closed: Vec<Outcome>,
    closed_s: f64,
    stats: Json,
    metrics: String,
    peak_rss_mb: f64,
}

/// The open-loop phase, `between`, then the closed-loop phase and the
/// daemon's `/stats`, `/metrics` and peak RSS.
fn drive(
    ctx: &Ctx,
    mix: &Mix,
    data: &ServeData,
    daemon: &Daemon,
    closed: Duration,
    between: impl FnOnce() -> Result<(), String>,
) -> Result<Pass, String> {
    let path = format!("/forecast?horizon={}", mix.horizon);
    let body = |n: usize| data.frame_body(data.fill + n);
    let open = loadgen::open_loop(daemon.addr, &data.schedule, ctx.nproc, &path, &body);
    between()?;
    let (closed, closed_s) = loadgen::closed_loop(daemon.addr, &path, ctx.nproc, closed);
    let get = |route: &str| -> Result<String, String> {
        match loadgen::http(daemon.addr, "GET", route, &[]) {
            Ok((200, body)) => Ok(String::from_utf8_lossy(&body).into_owned()),
            other => Err(format!("GET {route}: {other:?}")),
        }
    };
    let stats = muse_obs::json::parse(&get("/stats")?).map_err(|e| format!("/stats: {e}"))?;
    let metrics = get("/metrics")?;
    let peak_rss_mb = crate::peak_rss_mb(Some(daemon.pid()))?;
    Ok(Pass { open, closed, closed_s, stats, metrics, peak_rss_mb })
}

/// The reference a served forecast must equal: the in-process rollout of
/// the same checkpoint over the same frames.
pub struct Reference {
    model: MuseNet,
    flows: FlowSeries,
    spec: SubSeriesSpec,
    /// `(base, horizon)` → predicted frame.
    cache: BTreeMap<(usize, usize), Tensor>,
}

impl Reference {
    pub fn new(checkpoint: &Path, flows: FlowSeries) -> Result<Reference, String> {
        let model = MuseNet::from_checkpoint(checkpoint)
            .map_err(|e| format!("loading {}: {e}", checkpoint.display()))?;
        let spec = model.config().spec;
        Ok(Reference { model, flows, spec, cache: BTreeMap::new() })
    }

    /// Check one forecast response body; `Err` names the mismatch.
    pub fn check(
        &mut self,
        body: &[u8],
        horizon: usize,
        bases: std::ops::RangeInclusive<usize>,
    ) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "forecast body is not UTF-8".to_string())?;
        let json = muse_obs::json::parse(text).map_err(|e| format!("forecast body: {e}"))?;
        let resp = ForecastResponse::from_json(&json)?;
        if resp.horizon != horizon {
            return Err(format!("asked horizon {horizon}, got {}", resp.horizon));
        }
        let base = (resp.target_index as usize + 1)
            .checked_sub(horizon)
            .filter(|b| bases.contains(b))
            .ok_or_else(|| format!("target index {} outside the ingested range", resp.target_index))?;
        let (model, flows, spec) = (&self.model, &self.flows, &self.spec);
        let want = self.cache.entry((base, horizon)).or_insert_with(|| {
            model.predict_multi_step(flows, spec, &[base], horizon).pop().expect("one tensor per horizon")
        });
        check_prediction(&resp.prediction, want.as_slice())
            .map_err(|e| format!("forecast of frame {}: {e}", resp.target_index))
    }
}

/// Bit-for-bit comparison of a served prediction with its reference.
pub fn check_prediction(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, expected {}", got.len(), want.len()));
    }
    let Some(at) = got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits()) else {
        return Ok(());
    };
    Err(format!(
        "value {at} is {} (bits {:#010x}), expected {} (bits {:#010x})",
        got[at],
        got[at].to_bits(),
        want[at],
        want[at].to_bits()
    ))
}

/// Latency samples of one request kind; a failed request misses every
/// latency limit, so it enters as +∞.
fn latencies(outcomes: &[Outcome], ingest: bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| matches!(o.op, Op::Ingest(_)) == ingest)
        .map(|o| if o.status == 200 { o.latency_ms } else { f64::INFINITY })
        .collect()
}

/// Check outputs, then report the pass's end-to-end numbers.
fn report_pass(
    ctx: &Ctx,
    mix: &Mix,
    data: &ServeData,
    pass: &Pass,
    reference: &mut Reference,
    report: &mut Report,
) {
    let ingested = data.fill + data.schedule.iter().filter(|(_, op)| matches!(op, Op::Ingest(_))).count();
    let mut failed = 0u64;
    let mut first_error = None;
    for o in pass.open.iter().chain(&pass.closed) {
        let verdict = if o.status != 200 {
            Err(format!("{:?} answered {}", o.op, o.status))
        } else if o.op == Op::Forecast {
            reference.check(&o.body, mix.horizon, data.fill..=ingested)
        } else {
            Ok(())
        };
        if let Err(e) = verdict {
            failed += 1;
            first_error.get_or_insert(e);
        }
    }
    let attempted = (pass.open.len() + pass.closed.len()) as u64;
    report.attempted += attempted;
    report.failed += failed;
    if let Some(e) = first_error {
        report.error(format!("{failed} of {attempted} requests failed; first: {e}"));
    }
    let lags: Vec<f64> = pass.open.iter().map(|o| o.lag_ms).collect();
    if lag_grows(&lags, LAG_FLOOR_MS) {
        report.error(format!(
            "open-loop generator fell behind its schedule (lag p99 {:.1} ms)",
            quantile(&lags, 0.99)
        ));
    }
    let forecasts = latencies(&pass.open, false);
    let ingests = latencies(&pass.open, true);
    let saturated = pass.closed.iter().filter(|o| o.status == 200).count() as f64 / pass.closed_s;
    report.set("primary_p50_ms", quantile(&forecasts, 0.5), "ms");
    report.set("e2e.primary_p90_ms", quantile(&forecasts, 0.9), "ms");
    report.set("e2e.secondary_p50_ms", quantile(&ingests, 0.5), "ms");
    report.set("e2e.secondary_p90_ms", quantile(&ingests, 0.9), "ms");
    report.set("throughput_per_s", saturated, "1/s");
    report.set("peak_rss_mb", pass.peak_rss_mb, "MB");
    report.line(format!(
        "{}: open loop {:.0} req/s offered ({} forecasts, {} ingests, lag p99 {:.2} ms); closed loop {} callers, {} requests",
        mix.name,
        mix.rate,
        forecasts.len(),
        ingests.len(),
        quantile(&lags, 0.99),
        ctx.nproc,
        pass.closed.len(),
    ));

    let completed = pass.open.iter().chain(&pass.closed).filter(|o| o.status == 200).count();
    report.set("loadgen.lag_p99_ms", quantile(&lags, 0.99), "ms");
    report.set("loadgen.sent", attempted as f64, "count");
    report.set("loadgen.completed", completed as f64, "count");
    let serving = pass.stats.get("serving");
    let field = |name: &str| serving.and_then(|s| s.get(name)).and_then(Json::as_f64).unwrap_or(f64::NAN);
    report.set("serve.batch_size_mean", field("forecasts") / field("batches"), "count");
    report.set(
        "serve.rollout_ms_p50",
        histogram_p50(&pass.metrics, "muse_serve_forecast_rollout_seconds") * 1e3,
        "ms",
    );
    report.set(
        "serve.http_forecast_ms_p50",
        histogram_p50(&pass.metrics, "muse_serve_http_forecast_seconds") * 1e3,
        "ms",
    );
}

/// Median of a Prometheus histogram family, interpolated linearly inside
/// the bucket that holds it (buckets are `[le/2, le)`).
pub fn histogram_p50(text: &str, family: &str) -> f64 {
    let prefix = format!("{family}_bucket{{le=\"");
    let buckets: Vec<(f64, f64)> = text
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            Some((le.parse().ok()?, count.trim().parse().ok()?))
        })
        .collect();
    let Some(&(_, total)) = buckets.last() else { return f64::NAN };
    let rank = total / 2.0;
    let mut below = 0.0;
    for &(le, cumulative) in &buckets {
        if cumulative >= rank && le.is_finite() {
            let lo = le / 2.0;
            return lo + (le - lo) * (rank - below) / (cumulative - below).max(1.0);
        }
        below = cumulative;
    }
    f64::NAN
}

/// One measured pass of a mix: the open-loop phase, the closed-loop phase
/// and checks, with `repeats` timed set-ups around them (their median is
/// `setup_s`). Returns the inputs.
fn measure(
    ctx: &Ctx,
    mix: &Mix,
    seconds: f64,
    trace: Option<&Path>,
    repeats: usize,
    report: &mut Report,
) -> Result<ServeData, String> {
    let open = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let closed = Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
    // Set-ups are timed at three moments of the run: before the open loop,
    // between the loops and after the closed loop. On a shared host the
    // set-up time of one moment can be a third off that of another.
    let setups = std::cell::RefCell::new(Vec::with_capacity(repeats));
    let timed_setup = || -> Result<(ServeData, Daemon, PathBuf), String> {
        let started = Instant::now();
        let data = ServeData::new(ctx.seed, mix, open);
        let (daemon, checkpoint) = boot(ctx, &data, trace)?;
        setups.borrow_mut().push(started.elapsed().as_secs_f64());
        Ok((data, daemon, checkpoint))
    };
    let spare_setups = |n: usize| -> Result<(), String> { (0..n).try_for_each(|_| timed_setup().map(drop)) };
    let third = (repeats - 1) / 3;
    spare_setups(third)?;
    let (data, daemon, checkpoint) = timed_setup()?;
    let pass = drive(ctx, mix, &data, &daemon, closed, || spare_setups(third))?;
    drop(daemon);
    let mut reference = Reference::new(&checkpoint, data.flows.clone())?;
    spare_setups(repeats - 1 - 2 * third)?;
    let setups = setups.into_inner();
    report.set("setup_s", median(&setups), "s");
    report.line(format!(
        "{}: set-ups (ms) {}",
        mix.name,
        setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect::<Vec<_>>().join(" ")
    ));
    report_pass(ctx, mix, &data, &pass, &mut reference, report);
    Ok(data)
}

fn checkpoint_path(ctx: &Ctx) -> PathBuf {
    ctx.work.join(format!("serve-{}.ckpt", ctx.seed))
}

pub fn run(ctx: &Ctx, mix: &Mix, report: &mut Report) -> Result<(), String> {
    measure(ctx, mix, ctx.seconds, None, SETUP_REPEATS, report)?;
    if ctx.trace {
        let trace = ctx.work.join(format!("{}-daemon.jsonl", mix.name));
        let mut traced = Report::default();
        let data = measure(ctx, mix, ctx.seconds, Some(&trace), 1, &mut traced)?;
        let overhead = traced.get("primary_p50_ms") / report.get("primary_p50_ms") - 1.0;
        report.set("trace.overhead_pct", 100.0 * overhead, "%");
        report.absorb(traced);
        crate::ledger::serving_layers(&checkpoint_path(ctx), &data.flows, mix.horizon, report)?;
        let model_ms = report.get("core.infer_raw_us") * mix.horizon as f64 / 1e3;
        report.line(format!(
            "{}: core.infer_raw_us x {} passes = {model_ms:.3} ms, {:.0}% of forecast_p50_ms",
            mix.name,
            mix.horizon,
            100.0 * model_ms / report.get("primary_p50_ms"),
        ));
    }
    Ok(())
}

/// Serving-side layer metrics for `train-eval`, which boots no daemon: a
/// short traced `serve-nowcast` pass, and the in-process serving pieces at
/// the evaluation's horizon.
pub fn probe(ctx: &Ctx, horizon: usize, report: &mut Report) -> Result<(), String> {
    let trace = ctx.work.join("serve-probe-daemon.jsonl");
    let data = measure(ctx, &NOWCAST, 2.0, Some(&trace), 1, report)?;
    crate::ledger::serving_layers(&checkpoint_path(ctx), &data.flows, horizon, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_checker_catches_a_single_flipped_bit() {
        let want = vec![0.25f32, -0.5, 0.125, 0.75];
        assert!(check_prediction(&want, &want).is_ok());
        for i in 0..want.len() {
            for bit in [0, 22, 31] {
                let mut got = want.clone();
                got[i] = f32::from_bits(got[i].to_bits() ^ (1 << bit));
                let err = check_prediction(&got, &want).expect_err("a flipped bit must be caught");
                assert!(err.contains(&format!("value {i}")), "{err}");
            }
        }
        assert!(check_prediction(&want[..3], &want).is_err());
    }

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        let text = "# TYPE muse_x_seconds histogram\n\
                    muse_x_seconds_bucket{le=\"0.001\"} 2\n\
                    muse_x_seconds_bucket{le=\"0.002\"} 6\n\
                    muse_x_seconds_bucket{le=\"+Inf\"} 8\n\
                    muse_x_seconds_sum 0.01\nmuse_x_seconds_count 8\n";
        // Rank 4 of 8 lies halfway through the [0.001, 0.002) bucket.
        assert!((histogram_p50(text, "muse_x_seconds") - 0.0015).abs() < 1e-12);
        assert!(histogram_p50(text, "muse_missing").is_nan());
    }
}
