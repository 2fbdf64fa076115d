//! Side-by-side comparison of two traces with regression highlighting.
//!
//! `muse-trace diff <baseline> <current>` pairs up what the two traces
//! share and flags regressions using the *same* tolerance band as the perf
//! gate ([`crate::tolerance`]):
//!
//! * benches — `min_ns` one-sided (slower fails);
//! * kernels — `nanos_per_call` one-sided, `bytes_per_call` two-sided
//!   drift;
//! * training runs (paired by position) — final loss and best validation
//!   RMSE one-sided (higher fails), throughput one-sided (lower fails);
//! * spans — each path's share of all self time two-sided (a drifted share
//!   fails), over the paths holding at least [`SPAN_SHARE_FLOOR_PCT`] of
//!   either trace. Shares, unlike span totals, do not grow with run
//!   length, so traces of runs of different lengths still line up.

use crate::flame;
use crate::ingest::TraceData;
use crate::tolerance;
use std::collections::BTreeMap;

/// Minimum self-time share (percent) a span path must hold in either trace
/// to be compared; below it, run-to-run noise dominates.
pub const SPAN_SHARE_FLOOR_PCT: f64 = 1.0;

/// Outcome of a diff: the rendered text and whether any regression was
/// found (drives the CLI exit code).
pub struct DiffReport {
    /// Human-readable side-by-side rendering.
    pub text: String,
    /// Regression descriptions (empty = pass).
    pub regressions: Vec<String>,
}

/// Compare `current` against `baseline` with the given tolerance.
pub fn diff(baseline: &TraceData, current: &TraceData, tol: f64) -> DiffReport {
    let mut text = String::new();
    let mut regressions = Vec::new();
    text.push_str(&format!(
        "diff: {} (baseline) vs {} (current), tolerance +{:.0}%\n",
        baseline.path.display(),
        current.path.display(),
        tol * 100.0
    ));

    if !baseline.benches.is_empty() || !current.benches.is_empty() {
        text.push_str("benches (min_ns):\n");
        for base in &baseline.benches {
            match current.benches.iter().find(|b| b.name == base.name) {
                None => {
                    regressions.push(format!("bench `{}` missing from current trace", base.name));
                    text.push_str(&format!("  GONE {:<40} baseline {:>12.0} ns\n", base.name, base.min_ns));
                }
                Some(cur) => {
                    let change = tolerance::rel_change(base.min_ns, cur.min_ns);
                    let fail = tolerance::exceeds(base.min_ns, cur.min_ns, tol);
                    text.push_str(&format!(
                        "  {} {:<40} {:>12.0} -> {:>12.0} ns  ({:+.1}%)\n",
                        verdict(fail),
                        base.name,
                        base.min_ns,
                        cur.min_ns,
                        change * 100.0
                    ));
                    if fail {
                        regressions.push(format!(
                            "bench `{}` slowed {:+.1}% (tolerance +{:.0}%)",
                            base.name,
                            change * 100.0,
                            tol * 100.0
                        ));
                    }
                }
            }
        }
        for cur in &current.benches {
            if !baseline.benches.iter().any(|b| b.name == cur.name) {
                text.push_str(&format!(
                    "  new  {:<40} {:>12.0} ns (not in baseline)\n",
                    cur.name, cur.min_ns
                ));
            }
        }
    }

    if !baseline.kernels.is_empty() {
        text.push_str("kernels (ns/call, bytes/call):\n");
        for base in &baseline.kernels {
            let Some(cur) = current.kernels.iter().find(|k| k.name == base.name) else {
                text.push_str(&format!("  GONE {:<28} (absent in current)\n", base.name));
                continue;
            };
            let (bn, cn) = (base.nanos_per_call(), cur.nanos_per_call());
            let (bb, cb) = (base.bytes_per_call(), cur.bytes_per_call());
            let slow = tolerance::exceeds(bn, cn, tol);
            let drift = tolerance::drifted(bb, cb, tol);
            text.push_str(&format!(
                "  {} {:<28} {:>10.1} -> {:>10.1} ns/call ({:+.1}%)  {:>10.1} -> {:>10.1} B/call\n",
                verdict(slow || drift),
                base.name,
                bn,
                cn,
                tolerance::rel_change(bn, cn) * 100.0,
                bb,
                cb,
            ));
            if slow {
                regressions.push(format!(
                    "kernel `{}` slowed {:+.1}% per call",
                    base.name,
                    tolerance::rel_change(bn, cn) * 100.0
                ));
            }
            if drift {
                regressions.push(format!("kernel `{}` bytes/call drifted: {bb:.1} -> {cb:.1}", base.name));
            }
        }
    }

    let paired = baseline.runs.len().min(current.runs.len());
    if paired > 0 {
        text.push_str("training runs (paired by position):\n");
        for i in 0..paired {
            let (b, c) = (&baseline.runs[i], &current.runs[i]);
            text.push_str(&format!("  pair {} (runs {} vs {}):\n", i, b.run, c.run));
            let mut metric = |label: &str, bv: Option<f64>, cv: Option<f64>, higher_is_worse: bool| {
                let (Some(bv), Some(cv)) = (bv, cv) else {
                    text.push_str(&format!("    -    {label:<16} (absent in one trace)\n"));
                    return;
                };
                let (base_cmp, cur_cmp) = if higher_is_worse { (bv, cv) } else { (cv, bv) };
                let fail = tolerance::exceeds(base_cmp, cur_cmp, tol);
                text.push_str(&format!("    {} {label:<16} {bv:>12.4} -> {cv:>12.4}\n", verdict(fail)));
                if fail {
                    regressions.push(format!("run pair {i}: {label} regressed {bv:.4} -> {cv:.4}"));
                }
            };
            metric("last_loss", b.last_loss(), c.last_loss(), true);
            metric("best_val_rmse", b.best_val_rmse, c.best_val_rmse, true);
            metric("samples_per_sec", Some(b.mean_samples_per_sec()), Some(c.mean_samples_per_sec()), false);
            if c.skipped_batches > b.skipped_batches {
                regressions.push(format!(
                    "run pair {i}: skipped batches rose {} -> {}",
                    b.skipped_batches, c.skipped_batches
                ));
                text.push_str(&format!(
                    "    FAIL skipped_batches  {:>12} -> {:>12}\n",
                    b.skipped_batches, c.skipped_batches
                ));
            }
        }
    }

    if !baseline.spans.is_empty() && !current.spans.is_empty() {
        text.push_str(&format!("span self-time shares (paths ≥{SPAN_SHARE_FLOOR_PCT}% in either trace):\n"));
        let mut shares: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for (span, share) in flame::by_self_time(&baseline.spans) {
            shares.entry(&span.path).or_default().0 = share;
        }
        for (span, share) in flame::by_self_time(&current.spans) {
            shares.entry(&span.path).or_default().1 = share;
        }
        let mut rows: Vec<(&str, f64, f64)> = shares
            .into_iter()
            .filter(|(_, (b, c))| b.max(*c) >= SPAN_SHARE_FLOOR_PCT)
            .map(|(path, (b, c))| (path, b, c))
            .collect();
        rows.sort_by(|a, b| (b.2 - b.1).abs().total_cmp(&(a.2 - a.1).abs()).then_with(|| a.0.cmp(b.0)));
        for (path, b, c) in rows {
            let fail = tolerance::drifted(b, c, tol);
            text.push_str(&format!("  {} {b:>5.1}% -> {c:>5.1}% self  {path}\n", verdict(fail)));
            if fail {
                regressions.push(format!("span `{path}` self share drifted {b:.1}% -> {c:.1}%"));
            }
        }
    }

    text.push_str(&if regressions.is_empty() {
        "diff: PASS\n".to_string()
    } else {
        format!("diff: {} regression(s):\n  {}\n", regressions.len(), regressions.join("\n  "))
    });
    DiffReport { text, regressions }
}

fn verdict(fail: bool) -> &'static str {
    if fail {
        "FAIL"
    } else {
        "ok  "
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{BenchResult, KernelRow, TrainRun};

    fn bench(name: &str, min_ns: f64) -> BenchResult {
        BenchResult { name: name.into(), min_ns, mean_ns: min_ns * 1.2, max_ns: min_ns * 2.0, samples: 10 }
    }

    #[test]
    fn identical_traces_pass() {
        let mk = || TraceData {
            benches: vec![bench("gemm", 1000.0)],
            kernels: vec![KernelRow { name: "k".into(), calls: 10.0, nanos: 1000.0, bytes: 640.0 }],
            ..TraceData::default()
        };
        let report = diff(&mk(), &mk(), 0.75);
        assert!(report.regressions.is_empty(), "{}", report.text);
        assert!(report.text.contains("PASS"));
    }

    #[test]
    fn slowdown_beyond_band_fails_speedup_passes() {
        let base = TraceData { benches: vec![bench("gemm", 1000.0)], ..TraceData::default() };
        let slow = TraceData { benches: vec![bench("gemm", 2000.0)], ..TraceData::default() };
        let fast = TraceData { benches: vec![bench("gemm", 100.0)], ..TraceData::default() };
        assert_eq!(diff(&base, &slow, 0.75).regressions.len(), 1);
        assert!(diff(&base, &fast, 0.75).regressions.is_empty());
    }

    #[test]
    fn missing_bench_is_a_regression_new_bench_is_not() {
        let base = TraceData { benches: vec![bench("gemm", 1000.0)], ..TraceData::default() };
        let cur = TraceData { benches: vec![bench("conv", 500.0)], ..TraceData::default() };
        let report = diff(&base, &cur, 0.75);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.text.contains("new  conv"));
    }

    #[test]
    fn bytes_per_call_drift_fails_both_directions() {
        let mk = |bytes: f64| TraceData {
            kernels: vec![KernelRow { name: "k".into(), calls: 10.0, nanos: 100.0, bytes }],
            ..TraceData::default()
        };
        assert!(!diff(&mk(1000.0), &mk(1100.0), 0.75).regressions.iter().any(|r| r.contains("drifted")));
        assert!(diff(&mk(1000.0), &mk(10.0), 0.75).regressions.iter().any(|r| r.contains("drifted")));
        assert!(diff(&mk(1000.0), &mk(5000.0), 0.75).regressions.iter().any(|r| r.contains("drifted")));
    }

    fn spans(rows: &[(&str, u64)]) -> TraceData {
        TraceData {
            spans: muse_obs::span::fold(rows.iter().map(|&(path, total_ns)| (path, 1, total_ns))),
            ..TraceData::default()
        }
    }

    /// Self times: train.fit 1000, backward 500, autograd.backward 6000,
    /// forward 2500 (10% / 5% / 60% / 25%).
    fn training(autograd_ns: u64, forward_ns: u64) -> TraceData {
        spans(&[
            ("train.fit", 1500 + autograd_ns + forward_ns),
            ("train.fit/train.backward", 500 + autograd_ns),
            ("train.fit/train.backward/autograd.backward", autograd_ns),
            ("train.fit/train.forward", forward_ns),
        ])
    }

    #[test]
    fn span_self_diff_is_clean() {
        let report = diff(&training(6000, 2500), &training(6000, 2500), 0.5);
        assert!(report.regressions.is_empty(), "{}", report.text);
        assert_eq!(report.text.matches("% self  ").count(), 4, "{}", report.text);
        // A run ten times as long with the same mix has the same shares.
        let longer = spans(&[
            ("train.fit", 100_000),
            ("train.fit/train.backward", 65_000),
            ("train.fit/train.backward/autograd.backward", 60_000),
            ("train.fit/train.forward", 25_000),
        ]);
        assert!(diff(&training(6000, 2500), &longer, 0.5).regressions.is_empty());
    }

    #[test]
    fn moving_backward_time_into_forward_drifts_both() {
        let report = diff(&training(6000, 2500), &training(1000, 7500), 0.5);
        let drifted = |path: &str| report.regressions.iter().any(|r| r.contains(&format!("`{path}`")));
        assert!(drifted("train.fit/train.backward/autograd.backward"), "{}", report.text);
        assert!(drifted("train.fit/train.forward"), "{}", report.text);
        assert!(!drifted("train.fit"), "train.fit keeps its 10%: {}", report.text);
        assert_eq!(report.regressions.len(), 2, "{}", report.text);
    }

    #[test]
    fn sub_floor_span_paths_are_ignored() {
        let report = diff(&spans(&[("hot", 995), ("cold", 5)]), &spans(&[("hot", 1000)]), 0.5);
        assert!(!report.text.contains("cold"), "0.5% path compared: {}", report.text);
        assert!(report.regressions.is_empty(), "{}", report.text);
    }

    #[test]
    fn run_regressions_pair_by_position() {
        let mk = |loss: f64, skipped: usize| TraceData {
            runs: vec![TrainRun {
                run: 1,
                epochs: vec![crate::ingest::EpochRow {
                    epoch: 0,
                    train_loss: loss,
                    train_regression: loss,
                    val_rmse: None,
                    skipped_batches: skipped,
                    batches: 1,
                    duration_ms: 1.0,
                    samples_per_sec: 100.0,
                    kl_exclusive: 0.0,
                    kl_interactive: 0.0,
                    reconstruction: 0.0,
                    pulling: 0.0,
                }],
                skipped_batches: skipped,
                ..TrainRun::default()
            }],
            ..TraceData::default()
        };
        let report = diff(&mk(1.0, 0), &mk(5.0, 2), 0.75);
        assert!(report.regressions.iter().any(|r| r.contains("last_loss")), "{}", report.text);
        assert!(report.regressions.iter().any(|r| r.contains("skipped batches")), "{}", report.text);
    }
}
