//! End-to-end: train a real (tiny) MUSE-Net with a JSONL trace open, then
//! analyze that trace with the library and with the actual `muse-trace`
//! CLI binary.

mod common;

use common::record_training_trace;
use muse_obs as obs;
use muse_trace::ingest::TraceData;
use std::process::Command;

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
    assert!(!data.spans.is_empty(), "the kernel.summary snapshot carries the span totals");
    let paths: Vec<&str> = data.spans.iter().map(|s| s.path.as_str()).collect();
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
    assert!(stdout.contains("dominant: train.fit"), "{stdout}");

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

    // A trace with no kernel.summary: flame errors (exit 1), report still works.
    let spanless = dir.join("spanless.jsonl");
    std::fs::write(
        &spanless,
        "{\"ev\":\"eval.experiment\",\"seq\":0,\"experiment\":\"fig4\",\"duration_s\":1.0}\n",
    )
    .unwrap();
    let out = cli().args(["flame", spanless.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("kernel.summary"));
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
