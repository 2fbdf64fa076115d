//! End-to-end: train a real (tiny) MUSE-Net with a JSONL trace open, then
//! analyze that trace with the library and with the actual `muse-trace`
//! CLI binary.

use muse_obs as obs;
use muse_tensor::Tensor;
use muse_trace::ingest::TraceData;
use muse_traffic::{FlowSeries, GridMap, SubSeriesSpec};
use musenet::config::MuseNetConfig;
use musenet::model::MuseNet;
use musenet::trainer::{Trainer, TrainerOptions};
use std::path::PathBuf;
use std::process::Command;

/// A tiny synthetic flow series with a strong daily pattern.
fn patterned_flows(grid: GridMap, days: usize, f: usize) -> FlowSeries {
    let t = days * f;
    let mut data = Vec::with_capacity(t * 2 * grid.cells());
    for i in 0..t {
        let hour = (i % f) as f32 / f as f32;
        let level = (2.0 * std::f32::consts::PI * hour).sin() * 0.6;
        for ch in 0..2 {
            for cell in 0..grid.cells() {
                let phase = 0.1 * (cell as f32) + 0.05 * ch as f32;
                data.push((level + phase).tanh());
            }
        }
    }
    FlowSeries::from_tensor(grid, Tensor::from_vec(data, &[t, 2, grid.height, grid.width]))
}

/// Train a tiny model with the trace open; returns the trace path.
fn record_training_trace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("muse-trace-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    obs::reset_metrics();
    obs::open_trace(&path).unwrap();
    obs::enable();

    let grid = GridMap::new(3, 3);
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 6, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
    let flows = patterned_flows(grid, 10, 6);
    let first = spec.min_target();
    let train: Vec<usize> = (first..first + 12).collect();
    let val: Vec<usize> = (first + 12..first + 16).collect();
    let mut trainer = Trainer::new(
        MuseNet::new(cfg.clone()),
        TrainerOptions { epochs: 2, batch_size: 4, learning_rate: 3e-3, ..Default::default() },
    );
    let report = trainer.fit(&flows, &cfg.spec, &train, &val);
    assert_eq!(report.epochs.len(), 2, "training must complete");

    obs::emit("kernel.summary", vec![("metrics", obs::snapshot())]);
    obs::close_trace().expect("trace was open");
    obs::disable();
    obs::reset_metrics();
    path
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_muse-trace"))
}

#[test]
fn report_flame_and_diff_work_on_a_real_training_trace() {
    let _g = obs::test_lock();
    let path = record_training_trace("real_run.jsonl");
    let trace = path.to_str().unwrap();

    // Library-level ingestion sees the run and its spans.
    let data = TraceData::load(&path).unwrap();
    assert_eq!(data.runs.len(), 1);
    let run = &data.runs[0];
    assert_eq!(run.epochs.len(), 2);
    assert!(run.epochs_planned == 2 && run.batch_size == 4);
    assert!(run.batches > 0);
    assert!(run.duration_ms.is_some());
    assert!(!data.span_exits.is_empty(), "span tracing must be on during fit");
    let paths: Vec<&str> = data.span_exits.iter().map(|s| s.path.as_str()).collect();
    assert!(paths.contains(&"train.fit"));
    for stage in ["model.encode", "model.interactive", "model.pulling", "model.spatial"] {
        let prefix = format!("train.fit/train.forward/{stage}");
        assert!(paths.iter().any(|p| p.starts_with(&prefix)), "no {prefix} span");
    }
    assert!(!data.kernels.is_empty(), "kernel.summary folded");

    // `muse-trace report` succeeds and shows the run.
    let out = cli().args(["report", trace]).output().unwrap();
    assert!(out.status.success(), "report failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("training runs:"), "{stdout}");
    assert!(stdout.contains("top kernels by time"), "{stdout}");
    assert!(stdout.contains("top spans by self time"), "{stdout}");

    // `muse-trace flame` emits collapsed stacks with nested paths.
    let out = cli().args(["flame", trace]).output().unwrap();
    assert!(out.status.success(), "flame failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l.starts_with("train.fit ") || l.starts_with("train.fit;")), "{stdout}");
    let nested: Vec<&str> = stdout.lines().filter(|l| l.contains(';')).collect();
    assert!(!nested.is_empty(), "expected nested collapsed stacks:\n{stdout}");
    for line in stdout.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("collapsed line has a value");
        assert!(!stack.is_empty());
        value.parse::<u64>().expect("collapsed value is integer nanoseconds");
    }

    // A trace diffed against itself passes.
    let out = cli().args(["diff", trace, trace]).output().unwrap();
    assert!(out.status.success(), "self-diff failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn flame_refuses_spanless_trace_and_report_survives_truncation() {
    let _g = obs::test_lock();
    let dir = std::env::temp_dir().join("muse-trace-integration");
    std::fs::create_dir_all(&dir).unwrap();

    // A trace with no span events: flame errors (exit 1), report still works.
    let spanless = dir.join("spanless.jsonl");
    std::fs::write(
        &spanless,
        "{\"ev\":\"eval.experiment\",\"seq\":0,\"experiment\":\"fig4\",\"duration_s\":1.0}\n",
    )
    .unwrap();
    let out = cli().args(["flame", spanless.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no span.exit"));
    let out = cli().args(["report", spanless.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());

    // A trace torn mid-line still reports.
    let torn = dir.join("torn.jsonl");
    std::fs::write(
        &torn,
        "{\"ev\":\"eval.experiment\",\"seq\":0,\"experiment\":\"fig4\",\"duration_s\":1.0}\n{\"ev\":\"tr",
    )
    .unwrap();
    let out = cli().args(["report", torn.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("fig4"));

    let _ = std::fs::remove_file(&spanless);
    let _ = std::fs::remove_file(&torn);
}

#[test]
fn promcheck_accepts_live_exporter_output_and_rejects_junk() {
    let _g = obs::test_lock();
    obs::enable();
    obs::counter("integration.ticks").add(2);
    let h = obs::histogram("integration.lat");
    h.record(5.0);
    h.record(900.0);
    let text = obs::render_prometheus();
    obs::disable();

    let dir = std::env::temp_dir().join("muse-trace-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("metrics_good.txt");
    std::fs::write(&good, &text).unwrap();
    let out = cli().args(["promcheck", good.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("promcheck: OK"));

    let bad = dir.join("metrics_bad.txt");
    std::fs::write(&bad, "this is not an exposition\n").unwrap();
    let out = cli().args(["promcheck", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());

    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);
}
