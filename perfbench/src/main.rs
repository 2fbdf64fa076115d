//! The repository benchmark.
//!
//! ```text
//! muse-perfbench --workload <train-eval|serve-nowcast|serve-dayahead>
//!     --seed <n> --seconds <s> --trace <0|1>
//!     --serve-bin <path to muse-serve> [--work-dir <dir>]
//! muse-perfbench --write-benchmark-json <path>
//! ```
//!
//! With `--trace 0` it measures the workload with tracing off and prints
//! every end-to-end metric; with `--trace 1` it measures it again traced
//! and prints every per-layer metric. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is non-zero when any output check fails. `perfbench/run.sh` builds the
//! daemon and this program from the checkout and runs it.

mod ledger;
mod loadgen;
mod serve;
mod spans;
mod stamp;
mod stats;
mod train;

use muse_obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads `BENCHMARK.json` lists, and why each exists.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "serve-nowcast",
        "live muse-serve, open-loop ingests and horizon-1 forecasts: HTTP front end, coalescing window and engine \
         channel dominate; nearly blind to kernel speed",
    ),
    (
        "serve-dayahead",
        "live muse-serve, open-loop horizon-24 forecasts with sparse ingests: the 24-pass rollout and tensor kernels \
         dominate behind the same HTTP layer",
    ),
];

/// A workload the command runs but `BENCHMARK.json` does not list: its
/// CPU-bound metrics follow the host's load phases (1.6-1.7x) more closely
/// than any bound allows. Every layer it exercises is still measured by the
/// listed workloads' traced runs.
pub const TRAIN_EVAL: &str = "train-eval";

/// End-to-end metrics: JSON name, unit, better, bound, and what it is on
/// `train-eval` and on the serve workloads.
pub const END_TO_END: [(&str, &str, &str, f64, &str, &str); 4] = [
    ("setup_s", "s", "lower", 0.25, "setup_s", "setup_s"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak_rss_mb", "peak_rss_mb"),
    ("throughput_per_s", "1/s", "higher", 0.25, "train_samples_per_s", "saturated_rps"),
    ("primary_p50_ms", "ms", "lower", 0.25, "train_step_p50_ms", "forecast_p50_ms"),
];

/// End-to-end latencies printed beside the bounded ones but reported
/// unbounded with the per-layer metrics: their run-to-run spread on a
/// shared host exceeded the largest bound allowed. Name, and what it is on
/// `train-eval` and on the serve workloads.
pub const UNBOUNDED: [(&str, &str, &str); 3] = [
    ("e2e.secondary_p50_ms", "eval_forecast_p50_ms", "ingest_p50_ms"),
    ("e2e.primary_p90_ms", "train_step_p90_ms", "forecast_p90_ms"),
    ("e2e.secondary_p90_ms", "eval_forecast_p90_ms", "ingest_p90_ms"),
];

/// Per-layer metrics: name, unit, better.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| out.push((name, unit, better));
    for (name, ..) in UNBOUNDED {
        add(name.into(), "ms", "lower");
    }
    add("traffic.batch_into_us".into(), "us", "lower");
    add("core.train_graph_ms".into(), "ms", "lower");
    add("core.predict_multi_step_ms".into(), "ms", "lower");
    add("core.infer_raw_us".into(), "us", "lower");
    for stage in ["exclusive", "interactive", "decoder", "pulling", "resplus"] {
        add(format!("stage.{stage}.fwd_us"), "us", "lower");
        add(format!("stage.{stage}.bwd_us"), "us", "lower");
        add(format!("stage.{stage}.mflops"), "MFLOP", "lower");
        add(format!("stage.{stage}.mbytes"), "MB", "lower");
    }
    add("ledger.stages_ms".into(), "ms", "lower");
    add("ledger.unexplained_ms".into(), "ms", "lower");
    add("ledger.fwd_mflops_per_sample".into(), "MFLOP", "lower");
    add("ledger.flops_over_table1".into(), "ratio", "lower");
    add("autograd.backward_ms".into(), "ms", "lower");
    add("nn.clip_grad_norm_us".into(), "us", "lower");
    add("nn.adam_step_us".into(), "us", "lower");
    add("tensor.alloc_bytes_per_step".into(), "B", "lower");
    add("tensor.pool_hit_ratio".into(), "ratio", "higher");
    for k in train::KERNELS {
        add(format!("tensor.{k}.calls_per_step"), "count", "lower");
        add(format!("tensor.{k}.ns_per_step"), "ns", "lower");
        add(format!("tensor.{k}.bytes_per_call"), "B", "lower");
    }
    add("parallel.jobs_per_step".into(), "count", "lower");
    add("parallel.scratch_hit_ratio".into(), "ratio", "higher");
    add("metrics.error_stats_us".into(), "us", "lower");
    add("serve.engine_ingest_us".into(), "us", "lower");
    add("serve.engine_forecast_us".into(), "us", "lower");
    add("serve.window_push_us".into(), "us", "lower");
    add("serve.quality_on_ingest_us".into(), "us", "lower");
    add("serve.spectral_sweep_ms".into(), "ms", "lower");
    add("serve.batch_size_mean".into(), "count", "higher");
    add("serve.rollout_ms_p50".into(), "ms", "lower");
    add("serve.http_forecast_ms_p50".into(), "ms", "lower");
    add("obs.read_request_us".into(), "us", "lower");
    add("fft.detect_periods_ms".into(), "ms", "lower");
    add("loadgen.lag_p99_ms".into(), "ms", "lower");
    add("loadgen.sent".into(), "count", "higher");
    add("loadgen.completed".into(), "count", "higher");
    add("trace.overhead_pct".into(), "%", "lower");
    out
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// Run settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub serve_bin: PathBuf,
    pub nproc: usize,
}

/// Measured values, output-check failures and log lines of one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, (f64, &'static str)>,
    lines: Vec<String>,
    errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn extend(&mut self, values: Vec<(String, f64, &'static str)>) {
        for (name, value, unit) in values {
            self.set(&name, value, unit);
        }
    }

    /// A value set earlier in the run (`NaN` if none was).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(f64::NAN, |v| v.0)
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Record a failed output check.
    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Take a traced pass's or a probe's checks, log lines and per-layer
    /// values, keeping any value this report already has (measured without
    /// tracing, or by the workload itself). End-to-end values are dropped.
    pub fn absorb(&mut self, probe: Report) {
        let layers = per_layer();
        for (name, value) in probe.values {
            if layers.iter().any(|(n, _, _)| *n == name) {
                self.values.entry(name).or_insert(value);
            }
        }
        self.lines.extend(probe.lines);
        self.errors.extend(probe.errors);
        self.attempted += probe.attempted;
        self.failed += probe.failed;
    }
}

/// `VmHWM` (peak resident set) of this process or of `pid`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or("/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// The benchmark's `BENCHMARK.json`: workloads and metrics as this program
/// defines them.
pub fn benchmark_json() -> Json {
    let metric = |name: &str, unit: &str, better: &str| {
        vec![
            ("name".to_string(), Json::Str(name.to_string())),
            ("unit".to_string(), Json::Str(unit.to_string())),
            ("better".to_string(), Json::Str(better.to_string())),
        ]
    };
    Json::obj([
        ("command", Json::Arr(vec![Json::Str("bash".into()), Json::Str("perfbench/run.sh".into())])),
        ("paths", Json::Arr(vec![Json::Str("perfbench".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([
                            ("name", Json::Str(name.to_string())),
                            ("why", Json::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound, _, _)| {
                        let mut fields = metric(name, unit, better);
                        fields.push(("bound".to_string(), Json::Num(bound)));
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|(name, unit, better)| Json::Obj(metric(name, unit, better)))
                    .collect(),
            ),
        ),
    ])
}

/// Print, per workload and mode, each metric's median over the records in
/// `path` and its run-to-run spread: the distance between the quartiles as
/// a share of the median, next to the end-to-end bound it must stay within.
fn summarize(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut groups: BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = muse_obs::json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = record.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
        let trace = record.get("trace") == Some(&Json::Bool(true));
        let Some(Json::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else { continue };
        let group = groups.entry((workload, trace)).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                group.entry(name.clone()).or_default().push(value);
            }
        }
    }
    for ((workload, trace), metrics) in &groups {
        println!("{workload} (trace {})", u8::from(*trace));
        for (name, values) in metrics {
            let m = stats::median(values);
            let spread = if values.len() >= 2 {
                let (q1, q3) = stats::quartiles(values);
                format!("{:.4}", (q3 - q1) / m.abs())
            } else {
                "-".to_string()
            };
            let bound =
                END_TO_END.iter().find(|e| e.0 == name).map_or(String::new(), |e| format!(" bound {}", e.3));
            println!("  {name:<36} n={:<3} median={m:<14.6} spread={spread}{bound}", values.len());
        }
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut serve_bin = None;
    let mut work = PathBuf::from(".bench_work");
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work = PathBuf::from(value()?),
            "--write-benchmark-json" => {
                let path = value()?;
                std::fs::write(&path, benchmark_json().render() + "\n")
                    .map_err(|e| format!("writing {path}: {e}"))?;
                std::process::exit(0);
            }
            "--summarize" => {
                summarize(&value()?)?;
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != TRAIN_EVAL && !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work,
    })
}

fn run(ctx: &Ctx, workload: &str, report: &mut Report) -> Result<(), String> {
    match workload {
        TRAIN_EVAL => {
            train::run(ctx, report)?;
            if ctx.trace {
                let mut probe = Report::default();
                serve::probe(ctx, train::EVAL_HORIZONS, &mut probe)?;
                report.absorb(probe);
            }
        }
        serve_mix => {
            let mix = if serve_mix == serve::NOWCAST.name { &serve::NOWCAST } else { &serve::DAYAHEAD };
            serve::run(ctx, mix, report)?;
            if ctx.trace {
                let mut probe = Report::default();
                train::probe(ctx, &mut probe)?;
                report.absorb(probe);
            }
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("muse-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the knobs every number depends on, before any pool starts. The
    // timed passes and the daemon run kernels on one thread: on a shared
    // machine a parallel kernel waits for its slowest core, which widened
    // run-to-run spread about threefold. The traced training probe runs on
    // `nproc` pool threads (see `train::probe`).
    let nproc = stamp::nproc();
    std::env::set_var("MUSE_THREADS", "1");
    std::env::set_var("MUSE_JOBS", "1");
    for knob in ["MUSE_OBS", "MUSE_PROF_HZ", "MUSE_SIMD"] {
        std::env::remove_var(knob);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("muse-perfbench: creating {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: args.work.clone(),
        serve_bin: args.serve_bin.clone(),
        nproc,
    };
    let stamp = stamp::Stamp::collect(std::path::Path::new("."), args.seed, serve::daemon_flags());
    let mut report = Report::default();
    if let Err(e) = run(&ctx, &args.workload, &mut report) {
        eprintln!("muse-perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }

    // The metrics this mode must report, each finite.
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer().into_iter().map(|(name, unit, _)| (name, unit)).collect()
    } else {
        END_TO_END.iter().map(|&(name, unit, ..)| (name.to_string(), unit)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in &wanted {
        match report.values.get(name) {
            Some(&(value, got_unit)) if value.is_finite() && got_unit == *unit => metrics.push((
                name.clone(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))]),
            )),
            other => report.error(format!("metric {name} not measured ({other:?})")),
        }
    }
    let correct = report.errors.is_empty() && report.failed == 0;

    for line in &report.lines {
        println!("# {line}");
    }
    println!("# stamp {}", stamp.to_json().render());
    if !args.trace {
        let serve_names = !args.workload.starts_with("train");
        let shown = |train_name, serve_name| if serve_names { serve_name } else { train_name };
        for &(name, unit, _, _, train_name, serve_name) in &END_TO_END {
            println!(
                "{} {} = {:.4} {unit} [{name}]",
                args.workload,
                shown(train_name, serve_name),
                report.get(name)
            );
        }
        for (name, train_name, serve_name) in UNBOUNDED {
            println!(
                "{} {} = {:.4} ms [{name}]",
                args.workload,
                shown(train_name, serve_name),
                report.get(name)
            );
        }
        if !serve_names {
            println!(
                "{} eval_forecasts_per_s = {:.4} 1/s",
                args.workload,
                report.get("eval_forecasts_per_s")
            );
        }
    } else {
        for (name, unit) in &wanted {
            println!("{} {name} = {:.4} {unit}", args.workload, report.get(name));
        }
    }
    println!(
        "{} failed_share = {:.6} ({} failed of {} attempted)",
        args.workload,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for e in &report.errors {
        println!("# CHECK FAILED: {e}");
    }

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let record = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("stamp", stamp.to_json()),
        ("result", result.clone()),
        ("errors", Json::Arr(report.errors.iter().map(|e| Json::Str(e.clone())).collect())),
    ]);
    let records = args.work.join("records.jsonl");
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&records)
        .and_then(|mut f| std::io::Write::write_all(&mut f, (record.render() + "\n").as_bytes()))
    {
        eprintln!("muse-perfbench: appending {}: {e}", records.display());
    }
    println!("{}", result.render());
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_this_program() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let committed = muse_obs::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json(), "regenerate with --write-benchmark-json BENCHMARK.json");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
