//! Human-readable per-run summary of one trace.

use crate::flame;
use crate::ingest::TraceData;
use muse_obs::Json;

/// How many rows the "top kernels / top spans" sections show.
const TOP_N: usize = 8;

/// Render the full report for a loaded trace.
pub fn render(data: &TraceData) -> String {
    let mut out = String::new();
    out.push_str(&format!("trace: {} ({} events)\n", data.path.display(), data.events.len()));

    if let Some(manifest) = &data.manifest {
        out.push_str("manifest:\n");
        let experiments = manifest
            .get("experiments")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect::<Vec<_>>().join(", "))
            .unwrap_or_default();
        out.push_str(&format!("  experiments: {experiments}\n"));
        if let Some(threads) = manifest.get("threads").and_then(Json::as_f64) {
            out.push_str(&format!("  threads: {threads}\n"));
        }
        if let Some(addr) = manifest.get("metrics_addr").and_then(Json::as_str) {
            out.push_str(&format!("  metrics: http://{addr}/metrics\n"));
        }
    }

    if !data.runs.is_empty() {
        out.push_str("training runs:\n");
        out.push_str(&format!(
            "  {:>4} {:>7} {:>10} {:>10} {:>10} {:>8} {:>8} {:>12}  model\n",
            "run", "epochs", "first", "last", "best-rmse", "batches", "skipped", "samples/s"
        ));
        for run in &data.runs {
            out.push_str(&format!(
                "  {:>4} {:>7} {:>10} {:>10} {:>10} {:>8} {:>8} {:>12.1}  {}\n",
                run.run,
                format_epochs(run),
                fmt_opt(run.first_loss()),
                fmt_opt(run.last_loss()),
                fmt_opt(run.best_val_rmse),
                run.batches,
                run.skipped_batches,
                run.mean_samples_per_sec(),
                if run.model.is_empty() { "-" } else { &run.model },
            ));
            if let Some(epoch) = run.early_stop_epoch {
                out.push_str(&format!("       early-stopped at epoch {epoch}\n"));
            }
            if run.skipped_batches > 0 {
                out.push_str(&format!(
                    "       DIVERGENCE: {} batch(es) skipped for non-finite loss\n",
                    run.skipped_batches
                ));
            }
        }
    }

    if !data.experiments.is_empty() {
        out.push_str("experiments:\n");
        for (name, secs) in &data.experiments {
            out.push_str(&format!("  {name:<24} {secs:>8.1} s\n"));
        }
    }

    if !data.kernels.is_empty() {
        out.push_str(&format!("top kernels by time (of {}):\n", data.kernels.len()));
        for k in data.kernels_by_time().into_iter().take(TOP_N) {
            out.push_str(&format!(
                "  {:<28} {:>10.0} calls  {:>10.3} ms  {:>10.1} ns/call\n",
                k.name,
                k.calls,
                k.nanos / 1e6,
                k.nanos_per_call(),
            ));
        }
        out.push_str("top kernels by bytes:\n");
        for k in data.kernels_by_bytes().into_iter().take(TOP_N) {
            out.push_str(&format!(
                "  {:<28} {:>10.1} MiB  {:>12.1} bytes/call\n",
                k.name,
                k.bytes / (1024.0 * 1024.0),
                k.bytes_per_call(),
            ));
        }
    }

    let spans = flame::by_self_time(&data.spans);
    if let Some(&(hot, share)) = spans.first() {
        if hot.self_ns > 0 {
            out.push_str(&format!("dominant: {} ({share:.1}% self)\n", hot.path));
        }
        out.push_str(&format!("top spans by self time (of {} paths):\n", spans.len()));
        for (span, share) in spans.into_iter().take(TOP_N) {
            out.push_str(&format!(
                "  {:<44} {:>8}x  self {:>10.3} ms ({share:5.1}%)  total {:>10.3} ms\n",
                span.path,
                span.count,
                span.self_ns as f64 / 1e6,
                span.total_ns as f64 / 1e6,
            ));
        }
    }

    if !data.benches.is_empty() {
        out.push_str("benches:\n");
        for b in &data.benches {
            out.push_str(&format!(
                "  {:<40} min {:>12.0} ns  mean {:>12.0} ns  ({} samples)\n",
                b.name, b.min_ns, b.mean_ns, b.samples
            ));
        }
    }

    let interesting: Vec<(&String, &f64)> = data
        .counters
        .iter()
        .chain(data.gauges.iter())
        .filter(|(name, _)| {
            name.starts_with("parallel.")
                || name.starts_with("obs.")
                || name.starts_with("tensor.")
                || name.starts_with("sched.")
        })
        .collect();
    if !interesting.is_empty() {
        out.push_str("pool & runtime metrics:\n");
        for (name, v) in interesting {
            out.push_str(&format!("  {name:<32} {v}\n"));
        }
    }

    if out.lines().count() <= 1 {
        out.push_str("(no recognized events — is this a muse-obs trace?)\n");
    }
    out
}

fn format_epochs(run: &crate::ingest::TrainRun) -> String {
    if run.epochs_planned > 0 && run.epochs.len() != run.epochs_planned {
        format!("{}/{}", run.epochs.len(), run.epochs_planned)
    } else {
        format!("{}", run.epochs.len())
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.4}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{EpochRow, KernelRow, TrainRun};

    #[test]
    fn report_mentions_runs_kernels_and_divergence() {
        let data = TraceData {
            runs: vec![TrainRun {
                run: 1,
                model: "DeepSTN+".into(),
                epochs_planned: 4,
                epochs: vec![EpochRow {
                    epoch: 0,
                    train_loss: 2.0,
                    train_regression: 1.0,
                    val_rmse: Some(0.5),
                    skipped_batches: 2,
                    batches: 3,
                    duration_ms: 10.0,
                    samples_per_sec: 100.0,
                    kl_exclusive: 0.0,
                    kl_interactive: 0.0,
                    reconstruction: 0.0,
                    pulling: 0.0,
                }],
                batches: 3,
                skipped_batches: 2,
                ..TrainRun::default()
            }],
            kernels: vec![KernelRow { name: "tensor.matmul".into(), calls: 2.0, nanos: 100.0, bytes: 64.0 }],
            spans: muse_obs::span::fold([("train.fit", 1, 9)]),
            ..TraceData::default()
        };
        let text = render(&data);
        assert!(text.contains("1/4"), "partial epoch count shown: {text}");
        assert!(text.contains("DeepSTN+"), "model named per run: {text}");
        assert!(text.contains("DIVERGENCE"), "skipped batches flagged: {text}");
        assert!(text.contains("tensor.matmul"));
        assert!(text.contains("train.fit"));
    }

    #[test]
    fn report_names_the_dominant_self_path() {
        let data = TraceData {
            spans: muse_obs::span::fold([
                ("train.fit", 1, 10_000),
                ("train.fit/train.backward", 1, 6500),
                ("train.fit/train.backward/autograd.backward", 1, 6000),
                ("train.fit/train.forward", 1, 2500),
            ]),
            ..TraceData::default()
        };
        let text = render(&data);
        assert!(
            text.contains("dominant: train.fit/train.backward/autograd.backward (60.0% self)\n"),
            "report:\n{text}"
        );
        assert!(text.find("dominant:") < text.find("top spans by self time"), "dominant line first: {text}");
        // Spans with no self time at all name no dominant path.
        let idle = TraceData { spans: muse_obs::span::fold([("idle", 1, 0)]), ..TraceData::default() };
        assert!(!render(&idle).contains("dominant:"));
    }

    #[test]
    fn report_lists_scheduler_and_pool_metrics() {
        let data = TraceData {
            counters: [("sched.jobs_completed".to_string(), 6.0), ("tensor.pool_hits".to_string(), 10.0)]
                .into(),
            gauges: [("sched.queue_depth".to_string(), 0.0)].into(),
            ..TraceData::default()
        };
        let text = render(&data);
        assert!(text.contains("sched.jobs_completed"), "scheduler counters shown: {text}");
        assert!(text.contains("sched.queue_depth"), "scheduler gauges shown: {text}");
        assert!(text.contains("tensor.pool_hits"), "pool counters shown: {text}");
    }

    #[test]
    fn empty_trace_says_so() {
        let text = render(&TraceData::default());
        assert!(text.contains("no recognized events"));
    }
}
