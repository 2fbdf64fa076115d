//! Parse a muse-obs JSONL trace into typed run records.
//!
//! [`TraceData::load`] reads every event (tolerating a truncated final
//! line via [`muse_obs::read_trace`]) and folds the stream into:
//!
//! * training runs keyed by their `run` id — options from `train.start`,
//!   one [`EpochRow`] per `train.epoch`, divergence/early-stop markers,
//!   totals from `train.end`;
//! * per-bench results (`bench.result`) and the final `kernel.summary`
//!   (kernel totals, counter/gauge snapshots, and the span totals folded
//!   from its `span.*` histograms — the input to `flame`, `report` and
//!   `diff`);
//! * serve-path quality events: scored/dropped forecasts, alert
//!   transitions, request lifecycles, and rollout coalescing (the input
//!   to `muse-trace quality`).
//!
//! Unknown events are kept in [`TraceData::events`] but otherwise ignored,
//! so traces from newer writers stay loadable.

use muse_obs::span::{fold_histograms, FoldedSpan};
use muse_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One `train.epoch` event, flattened.
#[derive(Debug, Clone)]
pub struct EpochRow {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean total loss over the epoch's finite batches.
    pub train_loss: f64,
    /// Mean regression component.
    pub train_regression: f64,
    /// Validation RMSE, when a validation set was given.
    pub val_rmse: Option<f64>,
    /// Diverged batches skipped this epoch.
    pub skipped_batches: usize,
    /// Batches that contributed to the means.
    pub batches: usize,
    /// Wall-clock of the epoch in milliseconds.
    pub duration_ms: f64,
    /// Training throughput.
    pub samples_per_sec: f64,
    /// Mean exclusive-KL term.
    pub kl_exclusive: f64,
    /// Mean interactive-KL term.
    pub kl_interactive: f64,
    /// Mean reconstruction (semantic-pushing) term.
    pub reconstruction: f64,
    /// Mean semantic-pulling term.
    pub pulling: f64,
}

/// One training run (`train.start` .. `train.end`), keyed by run id.
#[derive(Debug, Clone, Default)]
pub struct TrainRun {
    /// The `run` id tagging this run's events.
    pub run: u64,
    /// The trained model's name (`Trainable::name`); empty in traces that
    /// predate the field.
    pub model: String,
    /// Planned epochs from the options.
    pub epochs_planned: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training-set size.
    pub train_size: usize,
    /// Validation-set size.
    pub val_size: usize,
    /// One row per completed epoch.
    pub epochs: Vec<EpochRow>,
    /// Total `train.batch` events seen.
    pub batches: usize,
    /// Total diverged batches skipped.
    pub skipped_batches: usize,
    /// Epoch at which early stopping fired, if it did.
    pub early_stop_epoch: Option<usize>,
    /// Best validation RMSE, from `train.end`.
    pub best_val_rmse: Option<f64>,
    /// Whole-fit wall clock, from `train.end`.
    pub duration_ms: Option<f64>,
}

impl TrainRun {
    /// Mean training loss of the first epoch.
    pub fn first_loss(&self) -> Option<f64> {
        self.epochs.first().map(|e| e.train_loss)
    }

    /// Mean training loss of the last epoch.
    pub fn last_loss(&self) -> Option<f64> {
        self.epochs.last().map(|e| e.train_loss)
    }

    /// Mean throughput over all epochs (samples per second).
    pub fn mean_samples_per_sec(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.samples_per_sec).sum::<f64>() / self.epochs.len() as f64
    }
}

/// One `bench.result` event.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Minimum per-iteration nanoseconds (the gated statistic).
    pub min_ns: f64,
    /// Mean per-iteration nanoseconds.
    pub mean_ns: f64,
    /// Maximum per-iteration nanoseconds.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
}

/// One kernel row from the final `kernel.summary` event.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Total invocations.
    pub calls: f64,
    /// Cumulative wall-clock nanoseconds.
    pub nanos: f64,
    /// Cumulative bytes moved.
    pub bytes: f64,
}

impl KernelRow {
    /// Nanoseconds per call (0 when never called).
    pub fn nanos_per_call(&self) -> f64 {
        if self.calls > 0.0 {
            self.nanos / self.calls
        } else {
            0.0
        }
    }

    /// Bytes per call (0 when never called).
    pub fn bytes_per_call(&self) -> f64 {
        if self.calls > 0.0 {
            self.bytes / self.calls
        } else {
            0.0
        }
    }
}

/// One `forecast.scored` event: a served forecast matched against the
/// ground-truth frame that later arrived for its target index.
#[derive(Debug, Clone)]
pub struct QualitySample {
    /// Request id of the forecast that was scored.
    pub request: u64,
    /// Memo rollout that computed the forecast's step: every forecast
    /// answered at one window state shares it.
    pub rollout: u64,
    /// Forecast horizon in frames.
    pub horizon: usize,
    /// Absolute target frame index.
    pub target: u64,
    /// Mean absolute error over the frame.
    pub mae: f64,
    /// Root-mean-square error over the frame.
    pub rmse: f64,
    /// MAE over the inflow half of the frame.
    pub mae_inflow: f64,
    /// MAE over the outflow half of the frame.
    pub mae_outflow: f64,
}

/// One `forecast.dropped` event: a journaled forecast that could not be
/// scored (its target frame was evicted, or the journal overflowed).
#[derive(Debug, Clone)]
pub struct DroppedForecast {
    /// Request id of the dropped forecast.
    pub request: u64,
    /// Forecast horizon in frames.
    pub horizon: usize,
    /// Absolute target frame index it was waiting for.
    pub target: u64,
    /// Why it was dropped (`journal_overflow` / `target_evicted`).
    pub reason: String,
}

/// One `alert.transition` event: an alert rule changed state.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// Alert rule name.
    pub alert: String,
    /// The metric the rule watches.
    pub metric: String,
    /// State before the transition (`ok`/`warning`/`firing`).
    pub from: String,
    /// State after the transition.
    pub to: String,
    /// The metric value that caused the transition.
    pub value: f64,
}

/// One request-lifecycle event (`req.ingest` / `req.forecast` /
/// `req.reject`), flattened into a single row keyed by request id.
#[derive(Debug, Clone)]
pub struct RequestEvent {
    /// Which lifecycle stage this row records (`ingest`/`forecast`/`reject`).
    pub kind: String,
    /// Request id.
    pub request: u64,
    /// Absolute frame index (ingests only).
    pub index: Option<u64>,
    /// Memo rollout id (forecasts only).
    pub rollout: Option<u64>,
    /// Forecast horizon (forecasts only).
    pub horizon: Option<usize>,
    /// Absolute target frame index (forecasts only).
    pub target: Option<u64>,
    /// Pipeline stage that rejected the request (rejects only).
    pub stage: Option<String>,
    /// Rejection reason (rejects only).
    pub reason: Option<String>,
}

/// One detected period inside a `spectral.sweep` event.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPeriod {
    /// Period length in intervals (frames).
    pub intervals: usize,
    /// Share of total spectral power near this period.
    pub power_share: f64,
    /// Peak power over the median noise floor.
    pub snr: f64,
}

/// One `spectral.sweep` event: the daemon re-detected the dominant
/// periodicities of its live flow window.
#[derive(Debug, Clone)]
pub struct SpectralSweep {
    /// Monotonic sweep ordinal.
    pub sweep: u64,
    /// Absolute frame index the sweep observed.
    pub index: u64,
    /// Detected periods, strongest first (empty: nothing passed the gates).
    pub periods: Vec<SweepPeriod>,
}

impl SpectralSweep {
    /// The dominant (strongest) detected period, if any.
    pub fn dominant(&self) -> Option<&SweepPeriod> {
        self.periods.first()
    }
}

/// A fully parsed trace.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Where the trace was read from.
    pub path: PathBuf,
    /// Every event, in order (including kinds this parser ignores).
    pub events: Vec<Json>,
    /// The `run.manifest` event, if present.
    pub manifest: Option<Json>,
    /// Training runs in first-seen order.
    pub runs: Vec<TrainRun>,
    /// `(experiment, duration_s)` per `eval.experiment` event.
    pub experiments: Vec<(String, f64)>,
    /// `bench.result` events in order.
    pub benches: Vec<BenchResult>,
    /// Kernel totals from the *final* `kernel.summary` (earlier summaries
    /// are superseded — only the last covers the whole run).
    pub kernels: Vec<KernelRow>,
    /// Counter snapshot from the final `kernel.summary`.
    pub counters: BTreeMap<String, f64>,
    /// Gauge snapshot from the final `kernel.summary`.
    pub gauges: BTreeMap<String, f64>,
    /// Span totals with self time, folded from the `span.*` histograms of
    /// the final `kernel.summary` by [`muse_obs::span::fold_histograms`],
    /// the fold the live `/debug/profile` uses.
    pub spans: Vec<FoldedSpan>,
    /// `forecast.scored` events in order (the serve-path error trajectory).
    pub quality_samples: Vec<QualitySample>,
    /// `forecast.dropped` events in order.
    pub dropped_forecasts: Vec<DroppedForecast>,
    /// `alert.transition` events in order (the alert chronology).
    pub alert_events: Vec<AlertEvent>,
    /// Request lifecycle events (`req.ingest`/`req.forecast`/`req.reject`).
    pub request_events: Vec<RequestEvent>,
    /// `spectral.sweep` events in order (the period-drift trajectory).
    pub spectral_sweeps: Vec<SpectralSweep>,
}

fn num(ev: &Json, key: &str) -> f64 {
    ev.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn unum(ev: &Json, key: &str) -> u64 {
    num(ev, key).max(0.0) as u64
}

impl TraceData {
    /// Read and fold a JSONL trace. Errors only on I/O failure or
    /// corruption before the final line; a truncated final line (killed
    /// run) is skipped by the reader.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<TraceData> {
        let path = path.as_ref().to_path_buf();
        let events = muse_obs::read_trace(&path)?;
        let mut data = TraceData { path, ..TraceData::default() };
        // Run-id → index into data.runs, preserving first-seen order.
        let mut run_index: BTreeMap<u64, usize> = BTreeMap::new();
        for ev in &events {
            let Some(kind) = ev.get("ev").and_then(Json::as_str) else { continue };
            match kind {
                "run.manifest" => data.manifest = Some(ev.clone()),
                "train.start" => {
                    let run = unum(ev, "run");
                    let idx = *run_index.entry(run).or_insert_with(|| {
                        data.runs.push(TrainRun { run, ..TrainRun::default() });
                        data.runs.len() - 1
                    });
                    let r = &mut data.runs[idx];
                    r.model = ev.get("model").and_then(Json::as_str).unwrap_or_default().to_string();
                    r.epochs_planned = unum(ev, "epochs") as usize;
                    r.batch_size = unum(ev, "batch_size") as usize;
                    r.learning_rate = num(ev, "learning_rate");
                    r.train_size = unum(ev, "train_size") as usize;
                    r.val_size = unum(ev, "val_size") as usize;
                }
                "train.batch" | "train.batch_skipped" | "train.epoch" | "train.early_stop" | "train.end" => {
                    let run = unum(ev, "run");
                    let idx = *run_index.entry(run).or_insert_with(|| {
                        data.runs.push(TrainRun { run, ..TrainRun::default() });
                        data.runs.len() - 1
                    });
                    let r = &mut data.runs[idx];
                    match kind {
                        "train.batch" => r.batches += 1,
                        "train.batch_skipped" => r.skipped_batches += 1,
                        "train.epoch" => {
                            let record = ev.get("record").cloned().unwrap_or(Json::Null);
                            r.epochs.push(EpochRow {
                                epoch: unum(&record, "epoch") as usize,
                                train_loss: num(&record, "train_loss"),
                                train_regression: num(&record, "train_regression"),
                                val_rmse: record.get("val_rmse").and_then(Json::as_f64),
                                skipped_batches: unum(&record, "skipped_batches") as usize,
                                batches: unum(ev, "batches") as usize,
                                duration_ms: num(ev, "duration_ms"),
                                samples_per_sec: num(ev, "samples_per_sec"),
                                kl_exclusive: num(ev, "kl_exclusive"),
                                kl_interactive: num(ev, "kl_interactive"),
                                reconstruction: num(ev, "reconstruction"),
                                pulling: num(ev, "pulling"),
                            });
                        }
                        "train.early_stop" => r.early_stop_epoch = Some(unum(ev, "epoch") as usize),
                        _ => {
                            // train.end
                            r.best_val_rmse = ev.get("best_val_rmse").and_then(Json::as_f64);
                            r.duration_ms = ev.get("duration_ms").and_then(Json::as_f64);
                        }
                    }
                }
                "eval.experiment" => {
                    let name = ev.get("experiment").and_then(Json::as_str).unwrap_or("?").to_string();
                    data.experiments.push((name, num(ev, "duration_s")));
                }
                "bench.result" => {
                    data.benches.push(BenchResult {
                        name: ev.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
                        min_ns: num(ev, "min_ns"),
                        mean_ns: num(ev, "mean_ns"),
                        max_ns: num(ev, "max_ns"),
                        samples: unum(ev, "samples") as usize,
                    });
                }
                "kernel.summary" => {
                    data.kernels.clear();
                    data.counters.clear();
                    data.gauges.clear();
                    data.spans.clear();
                    let Some(metrics) = ev.get("metrics") else { continue };
                    if let Some(Json::Obj(ks)) = metrics.get("kernels") {
                        for (name, stat) in ks {
                            data.kernels.push(KernelRow {
                                name: name.clone(),
                                calls: num(stat, "calls"),
                                nanos: num(stat, "nanos"),
                                bytes: num(stat, "bytes"),
                            });
                        }
                    }
                    if let Some(Json::Obj(cs)) = metrics.get("counters") {
                        for (name, v) in cs {
                            if let Some(v) = v.as_f64() {
                                data.counters.insert(name.clone(), v);
                            }
                        }
                    }
                    if let Some(Json::Obj(gs)) = metrics.get("gauges") {
                        for (name, v) in gs {
                            if let Some(v) = v.as_f64() {
                                data.gauges.insert(name.clone(), v);
                            }
                        }
                    }
                    if let Some(Json::Obj(hs)) = metrics.get("histograms") {
                        let rows =
                            hs.iter().map(|(name, h)| (name.as_str(), unum(h, "count"), unum(h, "sum")));
                        data.spans = fold_histograms(rows);
                    }
                }
                "forecast.scored" => {
                    data.quality_samples.push(QualitySample {
                        request: unum(ev, "request"),
                        rollout: unum(ev, "rollout"),
                        horizon: unum(ev, "horizon") as usize,
                        target: unum(ev, "target"),
                        mae: num(ev, "mae"),
                        rmse: num(ev, "rmse"),
                        mae_inflow: num(ev, "mae_inflow"),
                        mae_outflow: num(ev, "mae_outflow"),
                    });
                }
                "forecast.dropped" => {
                    data.dropped_forecasts.push(DroppedForecast {
                        request: unum(ev, "request"),
                        horizon: unum(ev, "horizon") as usize,
                        target: unum(ev, "target"),
                        reason: ev.get("reason").and_then(Json::as_str).unwrap_or("?").to_string(),
                    });
                }
                "alert.transition" => {
                    data.alert_events.push(AlertEvent {
                        alert: ev.get("alert").and_then(Json::as_str).unwrap_or("?").to_string(),
                        metric: ev.get("metric").and_then(Json::as_str).unwrap_or("?").to_string(),
                        from: ev.get("from").and_then(Json::as_str).unwrap_or("?").to_string(),
                        to: ev.get("to").and_then(Json::as_str).unwrap_or("?").to_string(),
                        value: num(ev, "value"),
                    });
                }
                "req.ingest" | "req.forecast" | "req.reject" => {
                    let opt_u = |key: &str| ev.get(key).and_then(Json::as_f64).map(|v| v.max(0.0) as u64);
                    let opt_s = |key: &str| ev.get(key).and_then(Json::as_str).map(|s| s.to_string());
                    data.request_events.push(RequestEvent {
                        kind: kind.trim_start_matches("req.").to_string(),
                        request: unum(ev, "request"),
                        index: opt_u("index"),
                        rollout: opt_u("rollout"),
                        horizon: opt_u("horizon").map(|h| h as usize),
                        target: opt_u("target"),
                        stage: opt_s("stage"),
                        reason: opt_s("reason"),
                    });
                }
                "spectral.sweep" => {
                    let periods = ev
                        .get("periods")
                        .and_then(Json::as_arr)
                        .map(|ps| {
                            ps.iter()
                                .map(|p| SweepPeriod {
                                    intervals: unum(p, "intervals") as usize,
                                    power_share: num(p, "power_share"),
                                    snr: num(p, "snr"),
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    data.spectral_sweeps.push(SpectralSweep {
                        sweep: unum(ev, "sweep"),
                        index: unum(ev, "index"),
                        periods,
                    });
                }
                _ => {}
            }
        }
        data.events = events;
        Ok(data)
    }

    /// Kernels sorted by cumulative time, descending.
    pub fn kernels_by_time(&self) -> Vec<&KernelRow> {
        let mut rows: Vec<&KernelRow> = self.kernels.iter().collect();
        rows.sort_by(|a, b| b.nanos.total_cmp(&a.nanos));
        rows
    }

    /// Kernels sorted by cumulative bytes moved, descending.
    pub fn kernels_by_bytes(&self) -> Vec<&KernelRow> {
        let mut rows: Vec<&KernelRow> = self.kernels.iter().collect();
        rows.sort_by(|a, b| b.bytes.total_cmp(&a.bytes));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_lines(name: &str, lines: &[&str]) -> PathBuf {
        let dir = std::env::temp_dir().join("muse-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        for l in lines {
            writeln!(f, "{l}").unwrap();
        }
        path
    }

    #[test]
    fn folds_a_synthetic_run() {
        let path = write_lines(
            "ingest_run.jsonl",
            &[
                r#"{"ev":"run.manifest","seq":0,"experiments":["fig4"],"threads":1}"#,
                r#"{"ev":"train.start","seq":1,"run":1,"model":"MUSE-Net","epochs":2,"batch_size":4,"learning_rate":0.001,"train_size":12,"val_size":4}"#,
                r#"{"ev":"train.batch","seq":2,"run":1,"epoch":0,"batch":0}"#,
                r#"{"ev":"train.batch_skipped","seq":3,"run":1,"epoch":0,"batch":1,"terms":{}}"#,
                r#"{"ev":"train.epoch","seq":4,"run":1,"record":{"epoch":0,"train_loss":5.0,"train_regression":2.0,"val_rmse":0.4,"skipped_batches":1},"batches":1,"duration_ms":10.0,"samples_per_sec":400.0,"kl_exclusive":1.0,"kl_interactive":0.5,"reconstruction":2.5,"pulling":0.1}"#,
                r#"{"ev":"train.epoch","seq":5,"run":1,"record":{"epoch":1,"train_loss":3.0,"train_regression":1.0,"val_rmse":0.3,"skipped_batches":0},"batches":2,"duration_ms":9.0,"samples_per_sec":440.0,"kl_exclusive":0.9,"kl_interactive":0.4,"reconstruction":1.5,"pulling":0.1}"#,
                r#"{"ev":"train.end","seq":6,"run":1,"epochs_run":2,"best_val_rmse":0.3,"skipped_batches":1,"duration_ms":19.5}"#,
                r#"{"ev":"eval.experiment","seq":7,"experiment":"fig4","duration_s":1.25}"#,
                r#"{"ev":"bench.result","seq":8,"name":"gemm","min_ns":100.0,"mean_ns":120.0,"max_ns":150.0,"samples":10}"#,
                r#"{"ev":"kernel.summary","seq":9,"metrics":{"counters":{"parallel.jobs_submitted":8},"gauges":{"parallel.pool_size":1},"histograms":{"nn.grad_norm":{"count":3,"sum":1.5},"span.train.fit":{"count":1,"sum":400,"mean":400,"min":400,"max":400}},"kernels":{"tensor.matmul":{"calls":4,"nanos":2000,"bytes":800}}}}"#,
            ],
        );
        let data = TraceData::load(&path).unwrap();
        assert!(data.manifest.is_some());
        assert_eq!(data.runs.len(), 1);
        let run = &data.runs[0];
        assert_eq!(run.run, 1);
        assert_eq!(run.model, "MUSE-Net");
        assert_eq!(run.epochs_planned, 2);
        assert_eq!(run.epochs.len(), 2);
        assert_eq!(run.batches, 1);
        assert_eq!(run.skipped_batches, 1);
        assert_eq!(run.first_loss(), Some(5.0));
        assert_eq!(run.last_loss(), Some(3.0));
        assert_eq!(run.best_val_rmse, Some(0.3));
        assert_eq!(run.epochs[0].val_rmse, Some(0.4));
        assert_eq!(run.epochs[1].kl_exclusive, 0.9);
        assert_eq!(data.experiments, vec![("fig4".to_string(), 1.25)]);
        assert_eq!(data.benches.len(), 1);
        assert_eq!(data.benches[0].min_ns, 100.0);
        assert_eq!(data.kernels.len(), 1);
        assert_eq!(data.kernels[0].nanos_per_call(), 500.0);
        assert_eq!(data.kernels[0].bytes_per_call(), 200.0);
        assert_eq!(data.counters.get("parallel.jobs_submitted"), Some(&8.0));
        // Only `span.*` histograms are spans.
        assert_eq!(data.spans, muse_obs::span::fold([("train.fit", 1, 400)]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let path = write_lines(
            "ingest_truncated.jsonl",
            &[
                r#"{"ev":"train.start","seq":0,"run":3,"epochs":1,"batch_size":2,"learning_rate":0.01,"train_size":4,"val_size":0}"#,
                r#"{"ev":"train.epoch","seq":1,"run":3,"record":{"epoch":0,"train_loss":1.0,"train_regression":0.5,"val_rmse":null,"skipped_batches":0},"batches":2,"duration_ms":5.0,"samples_per_sec":800.0}"#,
                r#"{"ev":"train.end","seq":2,"run":3,"best_val"#, // torn mid-emit
            ],
        );
        let data = TraceData::load(&path).unwrap();
        assert_eq!(data.runs.len(), 1);
        assert_eq!(data.runs[0].epochs.len(), 1);
        // The torn train.end never folded: totals stay None.
        assert_eq!(data.runs[0].duration_ms, None);
        assert_eq!(data.runs[0].epochs[0].val_rmse, None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn folds_serve_quality_events() {
        let path = write_lines(
            "ingest_quality.jsonl",
            &[
                r#"{"ev":"req.ingest","seq":0,"request":1,"index":21}"#,
                r#"{"ev":"req.forecast","seq":2,"request":2,"rollout":1,"horizon":1,"target":21}"#,
                r#"{"ev":"req.forecast","seq":3,"request":3,"rollout":1,"horizon":2,"target":22}"#,
                r#"{"ev":"req.reject","seq":4,"request":4,"stage":"forecast","reason":"bad_horizon"}"#,
                r#"{"ev":"forecast.scored","seq":5,"request":2,"rollout":1,"horizon":1,"target":21,"mae":0.125,"rmse":0.25,"mae_inflow":0.1,"mae_outflow":0.15}"#,
                r#"{"ev":"forecast.dropped","seq":6,"request":3,"horizon":2,"target":22,"reason":"target_evicted"}"#,
                r#"{"ev":"alert.transition","seq":7,"alert":"flow_level_shift","metric":"serve.flow.mean","from":"ok","to":"firing","value":1.5}"#,
                r#"{"ev":"spectral.sweep","seq":8,"sweep":1,"index":64,"periods":[{"intervals":24,"power_share":0.8,"snr":30.0},{"intervals":168,"power_share":0.1,"snr":9.0}]}"#,
                r#"{"ev":"spectral.sweep","seq":9,"sweep":2,"index":96,"periods":[]}"#,
            ],
        );
        let data = TraceData::load(&path).unwrap();
        assert_eq!(data.quality_samples.len(), 1);
        let s = &data.quality_samples[0];
        assert_eq!((s.request, s.rollout, s.horizon, s.target), (2, 1, 1, 21));
        assert_eq!((s.mae, s.rmse), (0.125, 0.25));
        assert_eq!(data.dropped_forecasts.len(), 1);
        assert_eq!(data.dropped_forecasts[0].reason, "target_evicted");
        assert_eq!(data.alert_events.len(), 1);
        assert_eq!(data.alert_events[0].alert, "flow_level_shift");
        assert_eq!(data.alert_events[0].to, "firing");
        assert_eq!(data.request_events.len(), 4);
        assert_eq!(data.request_events[0].kind, "ingest");
        assert_eq!(data.request_events[0].index, Some(21));
        assert_eq!(data.request_events[1].kind, "forecast");
        assert_eq!(data.request_events[1].rollout, Some(1));
        assert_eq!(data.request_events[3].kind, "reject");
        assert_eq!(data.request_events[3].reason.as_deref(), Some("bad_horizon"));
        assert_eq!(data.spectral_sweeps.len(), 2);
        assert_eq!(data.spectral_sweeps[0].sweep, 1);
        assert_eq!(data.spectral_sweeps[0].index, 64);
        assert_eq!(
            data.spectral_sweeps[0].dominant(),
            Some(&SweepPeriod { intervals: 24, power_share: 0.8, snr: 30.0 })
        );
        assert_eq!(data.spectral_sweeps[0].periods.len(), 2);
        assert!(data.spectral_sweeps[1].dominant().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn later_kernel_summary_supersedes_earlier() {
        let path = write_lines(
            "ingest_summary.jsonl",
            &[
                r#"{"ev":"kernel.summary","seq":0,"metrics":{"kernels":{"a":{"calls":1,"nanos":10,"bytes":1}},"histograms":{"span.old":{"count":1,"sum":7},"span.run":{"count":1,"sum":50}}}}"#,
                r#"{"ev":"kernel.summary","seq":1,"metrics":{"kernels":{"b":{"calls":2,"nanos":20,"bytes":2},"c":{"calls":3,"nanos":5,"bytes":9}},"histograms":{"span.old":{"count":0,"sum":0},"span.run":{"count":3,"sum":90},"span.run/step":{"count":2,"sum":60}}}}"#,
            ],
        );
        let data = TraceData::load(&path).unwrap();
        assert_eq!(data.kernels.len(), 2);
        // Snapshots are cumulative: the last one's span totals replace the
        // earlier ones, and a path with no closes drops out.
        assert_eq!(data.spans, muse_obs::span::fold([("run", 3, 90), ("run/step", 2, 60)]));
        assert_eq!(data.spans[0].self_ns, 30);
        let by_time = data.kernels_by_time();
        assert_eq!(by_time[0].name, "b");
        let by_bytes = data.kernels_by_bytes();
        assert_eq!(by_bytes[0].name, "c");
        let _ = std::fs::remove_file(&path);
    }
}
