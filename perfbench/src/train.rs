//! The `train-eval` workload: a MUSE-Net Full-variant fit on the seeded
//! NYC-Bike preset at the quick-profile shape, then a one-step and a
//! 3-horizon multi-step evaluation of the fixed test subsample.
//!
//! The step loop calls the crates' public functions in the order
//! `Trainer::fit` does (`batch_into` → `train_graph` → `backward` → clip →
//! `Adam::step`) so the benchmark's spans sit on layer boundaries; its
//! per-step losses are checked bit-for-bit against `Trainer::fit` itself.

use crate::spans::{median_call_us, Spans};
use crate::stats::{median, quantile};
use crate::{Ctx, Report};
use muse_autograd::Tape;
use muse_eval::{prepare, Prepared, Profile};
use muse_metrics::ErrorStats;
use muse_nn::{clip_grad_norm, Adam, Optimizer, Session};
use muse_obs::{self as obs, Json};
use muse_tensor::{arena, Tensor};
use muse_traffic::subseries::{batch, batch_into};
use muse_traffic::{Batch, DatasetPreset, FlowSeries, SubSeriesSpec};
use musenet::trainer::stack_frames;
use musenet::{MuseNet, MuseNetConfig, Trainer, TrainerOptions};
use std::path::Path;
use std::time::Instant;

/// Train batches per epoch (the quick profile's cap). The first epoch is
/// warm-up and is not timed.
const BATCHES_PER_EPOCH: usize = 60;
/// Measured train steps per requested second. Fixed, so a faster commit
/// runs the same steps in less time rather than more steps.
const STEPS_PER_SECOND: f64 = 150.0;
/// Horizons of the multi-step evaluation.
pub const EVAL_HORIZONS: usize = 3;
/// Train steps of the traced probe other workloads run for the
/// training-side layer metrics.
const PROBE_EPOCHS: usize = 6;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Epochs checked against `Trainer::fit`: step by step, across two epoch
/// boundaries, plus the parameters they end on.
const REFERENCE_EPOCHS: usize = 3;

/// Everything a fit needs, built from the workload seed alone.
pub struct TrainData {
    pub prepared: Prepared,
    pub profile: Profile,
    pub cfg: MuseNetConfig,
}

impl TrainData {
    pub fn new(seed: u64) -> TrainData {
        let profile = Profile { seed, ..Profile::quick() };
        let prepared = prepare(DatasetPreset::NycBike, &profile);
        // The quick profile's MUSE-Net, as `muse_eval::runner::fit_model`
        // builds it.
        let mut cfg = MuseNetConfig::cpu_profile(prepared.dataset.grid(), prepared.spec);
        cfg.d = profile.d;
        cfg.k = profile.k;
        cfg.resplus_blocks = 2;
        cfg.seed = profile.seed + 6;
        TrainData { prepared, profile, cfg }
    }

    fn options(&self, epochs: usize) -> TrainerOptions {
        TrainerOptions {
            epochs,
            batch_size: self.profile.batch_size,
            learning_rate: self.profile.musenet_lr,
            max_batches_per_epoch: BATCHES_PER_EPOCH,
            ..TrainerOptions::default()
        }
    }
}

/// Outcome of one timed fit.
pub struct Fit {
    pub model: MuseNet,
    /// Total loss of every step, warm-up included, in order.
    pub losses: Vec<f32>,
    pub skipped: usize,
    /// Wall time of each measured (post-warm-up) step.
    pub step_ms: Vec<f64>,
    /// Parameter values after `REFERENCE_EPOCHS` epochs.
    pub reference_params: Vec<Tensor>,
    /// The multi-step evaluation passes run after each measured epoch.
    pub multi_step: MultiStep,
    /// Training-side layer metrics, when traced.
    pub layers: Vec<(String, f64, &'static str)>,
}

/// Fit for `epochs` epochs; the first is warm-up. With `evaluate`, every
/// measured epoch ends with a multi-step evaluation pass, as a fit with
/// per-epoch validation runs; it spreads the evaluation over the whole run
/// instead of a few seconds at its end. With `trace` set, the measured
/// epochs run under a `MUSE_OBS`-style JSONL trace at that path and the
/// kernel, arena and pool counters are read back from it.
pub fn fit(data: &TrainData, epochs: usize, evaluate: bool, trace: Option<&Path>) -> Result<Fit, String> {
    let opts = data.options(epochs);
    let flows = &data.prepared.scaled;
    let spec = &data.prepared.spec;
    let train_idx = &data.prepared.split.train;
    let model = MuseNet::new(data.cfg.clone());
    let mut optimizer = Adam::with_defaults(model.params(), opts.learning_rate);
    let mut spans = Spans::new(trace.is_some());

    let tape = Tape::new();
    let s = Session::new(&tape);
    let mut staging = Batch::staging();
    let mut indices: Vec<usize> = Vec::new();
    let mut shuffle = muse_tensor::init::SeededRng::new(opts.shuffle_seed);
    let mut losses = Vec::new();
    let mut skipped = 0usize;
    let mut step_ms = Vec::new();
    let mut reference_params = Vec::new();
    let mut multi_step = MultiStep::default();
    let targets = data.prepared.eval_indices(&data.profile);
    let mut arena0 = arena::stats();
    for epoch in 0..opts.epochs {
        if epoch == 1 {
            if let Some(path) = trace {
                obs::open_trace(path).map_err(|e| format!("opening trace {}: {e}", path.display()))?;
                obs::reset_metrics();
            }
            arena0 = arena::stats();
        }
        let order = shuffle.permutation(train_idx.len());
        let mut batches = 0usize;
        for chunk in order.chunks(opts.batch_size) {
            if batches >= opts.max_batches_per_epoch {
                break;
            }
            let started = Instant::now();
            indices.clear();
            indices.extend(chunk.iter().map(|&i| train_idx[i]));
            spans.time("traffic.batch_into", || batch_into(flows, spec, &indices, &mut staging));
            tape.reset();
            s.reset();
            let pass = spans.time("core.train_graph", || model.train_graph(&s, &staging));
            if !pass.terms.is_finite() {
                // Trainer::fit skips a diverged batch the same way.
                skipped += 1;
                continue;
            }
            losses.push(pass.terms.total);
            spans.time("autograd.backward", || drop(s.backward(pass.loss)));
            spans.time("nn.clip_grad_norm", || clip_grad_norm(optimizer.params(), opts.clip_norm));
            spans.time("nn.adam_step", || {
                optimizer.step();
                optimizer.zero_grad();
            });
            batches += 1;
            if epoch > 0 {
                step_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
        if epoch + 1 == REFERENCE_EPOCHS {
            reference_params = muse_nn::snapshot(&model.params());
        }
        if evaluate && epoch > 0 {
            multi_step.pass(&model, flows, spec, &targets);
        }
    }
    let arena1 = arena::stats();

    let mut layers = Vec::new();
    if let Some(path) = trace {
        obs::emit("kernel.summary", vec![("metrics", obs::snapshot())]);
        obs::close_trace();
        obs::disable();
        let steps = step_ms.len().max(1) as f64;
        layers.push(("traffic.batch_into_us".into(), spans.median_us("traffic.batch_into"), "us"));
        layers.push(("core.train_graph_ms".into(), spans.median_us("core.train_graph") / 1e3, "ms"));
        layers.push(("autograd.backward_ms".into(), spans.median_us("autograd.backward") / 1e3, "ms"));
        layers.push(("nn.clip_grad_norm_us".into(), spans.median_us("nn.clip_grad_norm"), "us"));
        layers.push(("nn.adam_step_us".into(), spans.median_us("nn.adam_step"), "us"));
        let alloc = (arena1.alloc_bytes - arena0.alloc_bytes) as f64;
        let hits = (arena1.pool_hits - arena0.pool_hits) as f64;
        let misses = (arena1.pool_misses - arena0.pool_misses) as f64;
        layers.push(("tensor.alloc_bytes_per_step".into(), alloc / steps, "B"));
        layers.push(("tensor.pool_hit_ratio".into(), hits / (hits + misses).max(1.0), "ratio"));
        layers.extend(kernel_summary_metrics(path, steps)?);
    }
    Ok(Fit { model, losses, skipped, step_ms, reference_params, multi_step, layers })
}

/// Kernel kinds whose per-step cost the traced run reports.
pub const KERNELS: [&str; 7] =
    ["conv2d", "conv2d_backward", "matmul", "matmul_at", "matmul_bt", "zip_same", "zip_broadcast"];

/// Per-step kernel and pool numbers from the trace's `kernel.summary`.
fn kernel_summary_metrics(path: &Path, steps: f64) -> Result<Vec<(String, f64, &'static str)>, String> {
    let events = obs::read_trace(path).map_err(|e| format!("reading trace {}: {e}", path.display()))?;
    let summary = events
        .iter()
        .rev()
        .find(|e| e.get("ev").and_then(Json::as_str) == Some("kernel.summary"))
        .and_then(|e| e.get("metrics"))
        .ok_or_else(|| format!("no kernel.summary in {}", path.display()))?;
    let num = |section: &str, name: &str, field: Option<&str>| -> f64 {
        let entry = summary.get(section).and_then(|s| s.get(name));
        let value = match field {
            Some(f) => entry.and_then(|e| e.get(f)),
            None => entry,
        };
        value.and_then(Json::as_f64).unwrap_or(0.0)
    };
    let mut out = Vec::new();
    for k in KERNELS {
        let name = format!("tensor.{k}");
        let calls = num("kernels", &name, Some("calls"));
        out.push((format!("tensor.{k}.calls_per_step"), calls / steps, "count"));
        out.push((format!("tensor.{k}.ns_per_step"), num("kernels", &name, Some("nanos")) / steps, "ns"));
        out.push((
            format!("tensor.{k}.bytes_per_call"),
            num("kernels", &name, Some("bytes")) / calls.max(1.0),
            "B",
        ));
    }
    let jobs = num("counters", "parallel.jobs_completed", None);
    let hit = num("counters", "parallel.scratch_hit", None);
    let miss = num("counters", "parallel.scratch_miss", None);
    out.push(("parallel.jobs_per_step".into(), jobs / steps, "count"));
    out.push(("parallel.scratch_hit_ratio".into(), hit / (hit + miss).max(1.0), "ratio"));
    Ok(out)
}

/// Per-step losses of `Trainer::fit` over `REFERENCE_EPOCHS` epochs on the
/// same data, options and seed, read back from the `train.batch` events of
/// its trace, plus the fitted model.
fn reference_fit(data: &TrainData, work: &Path) -> Result<(Vec<f32>, MuseNet), String> {
    let path = work.join("train-reference.jsonl");
    obs::open_trace(&path).map_err(|e| format!("opening trace {}: {e}", path.display()))?;
    let mut trainer = Trainer::new(MuseNet::new(data.cfg.clone()), data.options(REFERENCE_EPOCHS));
    trainer.fit(&data.prepared.scaled, &data.prepared.spec, &data.prepared.split.train, &[]);
    obs::close_trace();
    obs::disable();
    obs::reset_metrics();
    let events = obs::read_trace(&path).map_err(|e| format!("reading trace {}: {e}", path.display()))?;
    let losses = events
        .iter()
        .filter(|e| e.get("ev").and_then(Json::as_str) == Some("train.batch"))
        .map(|e| e.get("terms").and_then(|t| t.get("total")).and_then(Json::as_f64).map(|v| v as f32))
        .collect::<Option<Vec<f32>>>()
        .ok_or("train.batch event without terms.total")?;
    Ok((losses, trainer.into_model()))
}

/// Count the reference steps whose loss differs in any bit, and whether the
/// parameters after the reference epochs agree bit-for-bit.
fn compare_with_reference(fit: &Fit, reference: &[f32], model: &MuseNet) -> (usize, bool) {
    let steps = &fit.losses[..reference.len().min(fit.losses.len())];
    let mismatches = reference.len() - steps.len()
        + steps.iter().zip(reference).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    let params_equal = fit.reference_params.len() == model.params().len()
        && fit
            .reference_params
            .iter()
            .zip(model.params())
            .all(|(a, b)| b.with_value(|y| bits_equal(a.as_slice(), y.as_slice())));
    (mismatches, params_equal)
}

/// Timed per-target multi-step forecasts, each checked bit-for-bit against
/// one batched call over all targets.
#[derive(Default)]
pub struct MultiStep {
    /// Wall time of each per-target `predict_multi_step` call.
    pub target_ms: Vec<f64>,
    pub checked: usize,
    pub mismatches: usize,
}

impl MultiStep {
    /// One pass: a 3-horizon `predict_multi_step` per target.
    fn pass(&mut self, model: &MuseNet, flows: &FlowSeries, spec: &SubSeriesSpec, targets: &[usize]) {
        let batched = model.predict_multi_step(flows, spec, targets, EVAL_HORIZONS);
        for (i, &n) in targets.iter().enumerate() {
            let t = Instant::now();
            let out = model.predict_multi_step(flows, spec, &[n], EVAL_HORIZONS);
            self.target_ms.push(t.elapsed().as_secs_f64() * 1e3);
            for (h, frame) in out.iter().enumerate() {
                self.checked += 1;
                if !bits_equal(frame.as_slice(), batched[h].index_axis0(i).as_slice()) {
                    self.mismatches += 1;
                }
            }
        }
    }

    fn forecasts_per_s(&self) -> f64 {
        self.checked as f64 * 1e3 / self.target_ms.iter().sum::<f64>()
    }
}

/// One-step RMSE (scaled units) of the test subsample.
fn one_step_rmse(data: &TrainData, model: &MuseNet) -> f32 {
    let flows = &data.prepared.scaled;
    let spec = &data.prepared.spec;
    let targets = data.prepared.eval_indices(&data.profile);
    let parts: Vec<Tensor> = targets
        .chunks(data.profile.batch_size)
        .map(|chunk| model.predict(&batch(flows, spec, chunk)))
        .collect();
    let preds = Tensor::concat(&parts.iter().collect::<Vec<_>>(), 0);
    ErrorStats::between(&preds, &stack_frames(flows, &targets)).rmse
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn epochs_for(seconds: f64) -> usize {
    (1 + ((seconds * STEPS_PER_SECOND) / BATCHES_PER_EPOCH as f64).ceil() as usize).max(REFERENCE_EPOCHS)
}

/// The end-to-end numbers of one measured fit with evaluation, plus checks.
fn end_to_end(ctx: &Ctx, data: &TrainData, epochs: usize, report: &mut Report) -> Result<Fit, String> {
    let fit = fit(data, epochs, true, None)?;
    let eval = &fit.multi_step;
    let rmse = one_step_rmse(data, &fit.model);
    let batch = data.profile.batch_size as f64;
    let samples_per_s = batch * fit.step_ms.len() as f64 * 1e3 / fit.step_ms.iter().sum::<f64>();
    report.set("throughput_per_s", samples_per_s, "1/s");
    report.set("primary_p50_ms", median(&fit.step_ms), "ms");
    report.set("e2e.primary_p90_ms", quantile(&fit.step_ms, 0.9), "ms");
    report.set("e2e.secondary_p50_ms", median(&eval.target_ms), "ms");
    report.set("e2e.secondary_p90_ms", quantile(&eval.target_ms, 0.9), "ms");
    report.set("eval_forecasts_per_s", eval.forecasts_per_s(), "1/s");
    report.attempted += (fit.losses.len() + eval.checked) as u64;
    report.failed += (fit.skipped + eval.mismatches) as u64;
    if eval.mismatches > 0 {
        report.error(format!("{} multi-step forecasts differ from the batched rollout", eval.mismatches));
    }
    if !rmse.is_finite() {
        report.error(format!("one-step evaluation RMSE is {rmse}"));
    }
    report.line(format!(
        "train-eval: {} measured steps ({} warm-up), {} multi-step forecasts, one-step RMSE {rmse:.4} (scaled), {} cores",
        fit.step_ms.len(),
        BATCHES_PER_EPOCH,
        eval.checked,
        ctx.nproc,
    ));
    Ok(fit)
}

/// Check a fit's per-step losses and parameters against `Trainer::fit`.
fn check_against_trainer(
    ctx: &Ctx,
    data: &TrainData,
    fits: &[&Fit],
    report: &mut Report,
) -> Result<(), String> {
    let (reference, model) = reference_fit(data, &ctx.work)?;
    for fit in fits {
        let (mismatches, params_equal) = compare_with_reference(fit, &reference, &model);
        report.failed += mismatches as u64;
        if mismatches > 0 {
            report.error(format!("{mismatches} step losses differ from Trainer::fit"));
        }
        if !params_equal {
            report.failed += 1;
            report.error("fitted parameters differ from Trainer::fit".into());
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut data = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let built = TrainData::new(ctx.seed);
        // The model and optimizer state a fit starts from.
        let model = MuseNet::new(built.cfg.clone());
        drop(Adam::with_defaults(model.params(), built.profile.musenet_lr));
        setups.push(started.elapsed().as_secs_f64());
        data = Some(built);
    }
    let data = data.expect("at least one set-up");
    report.set("setup_s", median(&setups), "s");
    let epochs = epochs_for(ctx.seconds);

    let untraced = end_to_end(ctx, &data, epochs, report)?;
    report.set("peak_rss_mb", crate::peak_rss_mb(None)?, "MB");
    if !ctx.trace {
        return check_against_trainer(ctx, &data, &[&untraced], report);
    }
    let traced = fit(&data, epochs, false, Some(&ctx.work.join("train-traced.jsonl")))?;
    report.attempted += traced.losses.len() as u64;
    report.failed += traced.skipped as u64;
    let overhead = median(&traced.step_ms) / report.get("primary_p50_ms") - 1.0;
    report.set("trace.overhead_pct", 100.0 * overhead, "%");
    check_against_trainer(ctx, &data, &[&untraced, &traced], report)?;
    probe(ctx, report)
}

/// Training-side layer metrics: a short traced fit at the `train-eval`
/// shape. It runs with `nproc` intra-op pool threads, unlike the timed
/// end-to-end passes, so the pool's own counters (`parallel.*`) and its
/// share of each kernel are measured.
pub fn probe(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let data = TrainData::new(ctx.seed);
    let trace = ctx.work.join("train-probe.jsonl");
    let fit = muse_parallel::with_threads(ctx.nproc, || fit(&data, PROBE_EPOCHS, false, Some(&trace)))?;
    report.attempted += fit.losses.len() as u64;
    report.failed += fit.skipped as u64;
    check_against_trainer(ctx, &data, &[&fit], report)?;
    report.extend(fit.layers);
    layer_probes(&data, &fit.model, report);
    Ok(())
}

/// Evaluation-side layer metrics at the `train-eval` shape.
fn layer_probes(data: &TrainData, model: &MuseNet, report: &mut Report) {
    let flows = &data.prepared.scaled;
    let spec = &data.prepared.spec;
    let targets = data.prepared.eval_indices(&data.profile);
    let multi_us = median_call_us(20, || {
        std::hint::black_box(model.predict_multi_step(flows, spec, &targets[..1], EVAL_HORIZONS));
    });
    report.set("core.predict_multi_step_ms", multi_us / 1e3, "ms");
    let preds = Tensor::concat(
        &targets
            .chunks(8)
            .map(|c| model.predict(&batch(flows, spec, c)))
            .collect::<Vec<_>>()
            .iter()
            .collect::<Vec<_>>(),
        0,
    );
    let truth = stack_frames(flows, &targets);
    let stats_us = median_call_us(200, || {
        std::hint::black_box(ErrorStats::between(&preds, &truth));
    });
    report.set("metrics.error_stats_us", stats_us, "us");
    crate::ledger::stage_ledger(&data.cfg, data.profile.batch_size, report);
}
