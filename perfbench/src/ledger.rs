//! Per-layer probes that run in-process: the MUSE-Net stage ledger at the
//! `train-eval` shape, and the serving path's pieces at the served shape.
//!
//! Stage FLOPs and bytes are computed from tensor sizes, not counted by
//! the kernels: forward FLOPs are 2 per multiply-accumulate of every
//! weight (a conv weight applied at every grid cell, a dense weight once
//! per sample), backward is taken as twice forward, and bytes are the f32
//! inputs, outputs and parameters read and written forward and backward
//! plus the parameter gradients. Activations, pooling and the KL terms are
//! not counted.

use crate::spans::median_call_us;
use crate::Report;
use muse_autograd::vae_ops::kl_between_fused;
use muse_autograd::{Tape, Var};
use muse_nn::{ParamRef, Session};
use muse_serve::{Engine, EngineOptions, FlowWindow, QualityConfig, QualityTracker, SpectralSweeper};
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::FlowSeries;
use musenet::decoder::ReconstructedDecoder;
use musenet::encoders::{ExclusiveEncoder, InteractiveEncoder};
use musenet::resplus::ResPlus;
use musenet::variational::VariationalEncoder;
use musenet::{MuseNet, MuseNetConfig};
use std::path::Path;
use std::time::Instant;

/// Timed repetitions per stage.
const STAGE_REPS: usize = 150;

/// Forward and backward cost of one stage at the workload's shape.
struct StageCost {
    fwd_us: f64,
    bwd_us: f64,
    fwd_flops: f64,
    bytes: f64,
}

/// Weight FLOPs of one forward pass over `batch` samples on `cells` cells.
fn weight_flops(params: &[ParamRef], batch: usize, cells: usize) -> f64 {
    params
        .iter()
        .map(|p| {
            let n = p.len() as f64;
            match p.dims().len() {
                4 => 2.0 * n * (batch * cells) as f64,
                1 => n * batch as f64,
                _ => 2.0 * n * batch as f64,
            }
        })
        .sum()
}

/// Time `forward` (which builds the stage's graph from fresh inputs and
/// returns its outputs) and the backward pass from the sum of its outputs.
/// `grad_inputs` says whether the stage's inputs are activations that need
/// a gradient (everything but the data-fed exclusive encoders).
#[allow(clippy::too_many_arguments)]
fn time_stage<'t>(
    tape: &'t Tape,
    s: &Session<'t>,
    inputs: &[Tensor],
    grad_inputs: bool,
    params: &[ParamRef],
    batch: usize,
    cells: usize,
    forward: impl Fn(&Session<'t>, &[Var<'t>]) -> Vec<Var<'t>>,
) -> StageCost {
    let mut fwd = Vec::with_capacity(STAGE_REPS);
    let mut bwd = Vec::with_capacity(STAGE_REPS);
    let mut out_len = 0usize;
    for rep in 0..=STAGE_REPS {
        tape.reset();
        s.reset();
        let leaves: Vec<Var<'t>> = inputs
            .iter()
            .map(|x| if grad_inputs { tape.leaf(x.clone()) } else { s.input(x.clone()) })
            .collect();
        let started = Instant::now();
        let outs = forward(s, &leaves);
        let forward_us = started.elapsed().as_secs_f64() * 1e6;
        out_len = outs.iter().map(|o| o.dims().iter().product::<usize>()).sum();
        let loss = outs.iter().map(|o| o.sum()).reduce(|a, b| a.add(&b)).expect("a stage has outputs");
        let started = Instant::now();
        drop(s.backward(loss));
        let backward_us = started.elapsed().as_secs_f64() * 1e6;
        for p in params {
            p.zero_grad();
        }
        if rep > 0 {
            fwd.push(forward_us);
            bwd.push(backward_us);
        }
    }
    let in_len: usize = inputs.iter().map(Tensor::len).sum();
    let param_len: usize = params.iter().map(|p| p.len()).sum();
    StageCost {
        fwd_us: crate::stats::median(&fwd),
        bwd_us: crate::stats::median(&bwd),
        fwd_flops: weight_flops(params, batch, cells),
        bytes: 4.0 * (2 * (in_len + out_len + param_len) + param_len) as f64,
    }
}

/// The stage ledger: each public stage type built at `cfg`'s shape with a
/// batch of `batch`, instanced as often as one MUSE-Net Full step uses it.
/// Reports time, FLOPs and bytes per stage, reconciles the summed times
/// with `core.train_graph_ms + autograd.backward_ms`, and sets the ledger's
/// FLOPs against Table I's `O(LdM + d²M + dM²)`.
pub fn stage_ledger(cfg: &MuseNetConfig, batch: usize, report: &mut Report) {
    let (h, w) = (cfg.grid.height, cfg.grid.width);
    let cells = h * w;
    let (d, k, k4) = (cfg.d, cfg.interactive_dim(), cfg.exclusive_dim());
    let mut rng = SeededRng::new(cfg.seed);
    let map = |c: usize, rng: &mut SeededRng| Tensor::rand_uniform(rng, &[batch, c, h, w], -1.0, 1.0);
    let tape = Tape::new();
    let s = Session::new(&tape);
    let mut stages: Vec<(&str, StageCost)> = Vec::new();

    let channels = [cfg.closeness_channels(), cfg.period_channels(), cfg.trend_channels()];
    let exclusive: Vec<ExclusiveEncoder> =
        channels.iter().map(|&c| ExclusiveEncoder::new(&mut rng, c, d, cells, k4)).collect();
    let inputs: Vec<Tensor> = channels.iter().map(|&c| map(c, &mut rng)).collect();
    let params: Vec<ParamRef> = exclusive.iter().flat_map(|e| e.params()).collect();
    stages.push((
        "exclusive",
        time_stage(&tape, &s, &inputs, false, &params, batch, cells, |s, x| {
            exclusive
                .iter()
                .zip(x)
                .flat_map(|(e, &x)| {
                    let o = e.forward(s, x);
                    [o.feature, o.mu, o.logvar]
                })
                .collect()
        }),
    ));

    let interactive = InteractiveEncoder::new(&mut rng, 3, d, cells, k);
    let inputs = vec![map(3 * d, &mut rng)];
    stages.push((
        "interactive",
        time_stage(&tape, &s, &inputs, true, &interactive.params(), batch, cells, |s, x| {
            let o = interactive.forward(s, x[0]);
            vec![o.feature, o.mu, o.logvar]
        }),
    ));

    let decoders: Vec<ReconstructedDecoder> =
        channels.iter().map(|&c| ReconstructedDecoder::new(&mut rng, k4 + k, c, h, w)).collect();
    let mut inputs: Vec<Tensor> =
        (0..3).map(|_| Tensor::rand_uniform(&mut rng, &[batch, k4], -1.0, 1.0)).collect();
    inputs.push(Tensor::rand_uniform(&mut rng, &[batch, k], -1.0, 1.0));
    let params: Vec<ParamRef> = decoders.iter().flat_map(|e| e.params()).collect();
    stages.push((
        "decoder",
        time_stage(&tape, &s, &inputs, true, &params, batch, cells, |s, x| {
            decoders.iter().zip(&x[..3]).map(|(dec, &z)| dec.forward_pair(s, z, x[3])).collect()
        }),
    ));

    // Semantic pulling: three simplex and three duplex variational
    // encoders over the branch features, and the nine fused KL terms.
    let simplex: Vec<VariationalEncoder> =
        (0..3).map(|_| VariationalEncoder::new(&mut rng, 1, d, cells, k)).collect();
    let duplex: Vec<VariationalEncoder> =
        (0..3).map(|_| VariationalEncoder::new(&mut rng, 2, d, cells, k)).collect();
    let mut inputs: Vec<Tensor> = (0..3).map(|_| map(d, &mut rng)).collect();
    inputs.push(Tensor::rand_uniform(&mut rng, &[batch, k], -1.0, 1.0));
    inputs.push(Tensor::rand_uniform(&mut rng, &[batch, k], -1.0, 1.0));
    let params: Vec<ParamRef> = simplex.iter().chain(&duplex).flat_map(|e| e.params()).collect();
    stages.push((
        "pulling",
        time_stage(&tape, &s, &inputs, true, &params, batch, cells, |s, x| {
            let g: Vec<(Var, Var)> = (0..3).map(|b| simplex[b].forward(s, x[b])).collect();
            let (inter_mu, inter_lv) = (x[3], x[4]);
            [(0, 1), (0, 2), (1, 2)]
                .iter()
                .enumerate()
                .map(|(pair, &(i, j))| {
                    let (mu_d, lv_d) = duplex[pair].forward(s, Var::concat(&[x[i], x[j]], 1));
                    kl_between_fused(&mu_d, &lv_d, &g[i].0, &g[i].1)
                        .add(&kl_between_fused(&mu_d, &lv_d, &g[j].0, &g[j].1))
                        .sub(&kl_between_fused(&inter_mu, &inter_lv, &mu_d, &lv_d))
                })
                .collect()
        }),
    ));

    let resplus = ResPlus::new(
        &mut rng,
        4 * d,
        d.max(cfg.plus_channels + 1),
        cfg.resplus_blocks,
        cfg.plus_channels,
        h,
        w,
        3,
    );
    let mut inputs = vec![map(4 * d, &mut rng)];
    inputs.extend((0..3).map(|_| map(2, &mut rng)));
    stages.push((
        "resplus",
        time_stage(&tape, &s, &inputs, true, &resplus.params(), batch, cells, |s, x| {
            vec![resplus.forward(s, x[0], &x[1..])]
        }),
    ));

    let mut total_us = 0.0;
    let mut fwd_flops = 0.0;
    for (name, cost) in &stages {
        report.set(&format!("stage.{name}.fwd_us"), cost.fwd_us, "us");
        report.set(&format!("stage.{name}.bwd_us"), cost.bwd_us, "us");
        report.set(&format!("stage.{name}.mflops"), 3.0 * cost.fwd_flops / 1e6, "MFLOP");
        report.set(&format!("stage.{name}.mbytes"), cost.bytes / 1e6, "MB");
        total_us += cost.fwd_us + cost.bwd_us;
        fwd_flops += cost.fwd_flops;
    }
    let model_ms = report.get("core.train_graph_ms") + report.get("autograd.backward_ms");
    report.set("ledger.stages_ms", total_us / 1e3, "ms");
    report.set("ledger.unexplained_ms", model_ms - total_us / 1e3, "ms");
    let l = cfg.spec.lc + cfg.spec.lp + cfg.spec.lt;
    let table1 = musenet::analysis::estimate("MUSE-Net (Ours)", l, d, cells, 0).time_ops;
    report.set("ledger.fwd_mflops_per_sample", fwd_flops / batch as f64 / 1e6, "MFLOP");
    report.set("ledger.flops_over_table1", fwd_flops / batch as f64 / table1, "ratio");
    report.line(format!(
        "stage ledger (batch {batch}): stages {:.3} ms of train_graph+backward {:.3} ms, unexplained {:.3} ms; \
         forward {:.3} MFLOP/sample vs Table I LdM+d²M+dM² = {:.3} M (L={l}, d={d}, M={cells}); FLOPs from tensor sizes",
        total_us / 1e3,
        model_ms,
        model_ms - total_us / 1e3,
        fwd_flops / batch as f64 / 1e6,
        table1 / 1e6,
    ));
}

/// Median per-call time of `f` in microseconds, timing `batch` calls at a
/// time so sub-microsecond calls are not lost in clock overhead.
fn per_call_us(batch: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    median_call_us(reps, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

/// The serving path's pieces at the served shape, in-process: the model
/// pass, the engine without HTTP, the window, quality tracking, the
/// spectral sweep, FFT period detection and HTTP request parsing.
pub fn serving_layers(
    checkpoint: &Path,
    flows: &FlowSeries,
    horizon: usize,
    report: &mut Report,
) -> Result<(), String> {
    let model =
        MuseNet::from_checkpoint(checkpoint).map_err(|e| format!("loading {}: {e}", checkpoint.display()))?;
    let spec = model.config().spec;
    let grid = flows.grid();
    let fill = spec.min_target();
    let frame = |i: usize| flows.frame(i).as_slice().to_vec();

    // One forward-only pass with a hoisted tape and session, as the engine runs it.
    let (c, p, t) = {
        let b = muse_traffic::subseries::batch(flows, &spec, &[fill]);
        (b.closeness, b.period, b.trend)
    };
    let tape = Tape::forward_only();
    let s = Session::new(&tape);
    let infer_us = median_call_us(300, || {
        tape.reset();
        s.reset();
        std::hint::black_box(model.infer_raw(&s, &c, &p, &t));
    });
    report.set("core.infer_raw_us", infer_us, "us");

    let mut window = FlowWindow::for_spec(grid, &spec);
    let frames: Vec<Vec<f32>> = (0..fill).map(frame).collect();
    let mut next = 0usize;
    let push_us = per_call_us(fill, 20, || {
        window.push(&frames[next % fill]).expect("a well-formed frame");
        next += 1;
    });
    report.set("serve.window_push_us", push_us, "us");
    let mut tracker = QualityTracker::new(spec.intervals_per_day, &QualityConfig::default());
    let index = window.next_index() - 1;
    let on_ingest_us = per_call_us(50, 40, || tracker.on_ingest(&window, index, &frames[0]));
    report.set("serve.quality_on_ingest_us", on_ingest_us, "us");
    let mut sweeper = SpectralSweeper::new();
    let sweep_us = median_call_us(30, || {
        std::hint::black_box(sweeper.sweep(&window));
    });
    report.set("serve.spectral_sweep_ms", sweep_us / 1e3, "ms");
    let series: Vec<f64> = (0..fill)
        .map(|i| frames[i].iter().map(|&v| v as f64).sum::<f64>() / frames[i].len() as f64)
        .collect();
    let detect_us = median_call_us(30, || {
        std::hint::black_box(muse_fft::detect_periods(&series, 4));
    });
    report.set("fft.detect_periods_ms", detect_us / 1e3, "ms");

    let body: Vec<u8> = frames[0].iter().flat_map(|v| v.to_le_bytes()).collect();
    let request = crate::loadgen::request_bytes(
        "127.0.0.1:9600".parse().expect("literal address"),
        "POST",
        "/ingest",
        &body,
    );
    let parse_us = per_call_us(100, 40, || {
        let parsed = muse_obs::http::read_request(&mut std::io::Cursor::new(&request));
        std::hint::black_box(parsed.expect("a recorded request parses"));
    });
    report.set("obs.read_request_us", parse_us, "us");

    // The engine without HTTP: same model, same coalescing window.
    let engine = Engine::from_checkpoint(checkpoint, EngineOptions::default())?;
    for f in &frames {
        engine.ingest(f.clone()).map_err(|e| format!("engine ingest: {e}"))?;
    }
    let mut i = 0usize;
    let ingest_us = median_call_us(200, || {
        engine.ingest(frames[i % fill].clone()).expect("engine accepts the frame");
        i += 1;
    });
    report.set("serve.engine_ingest_us", ingest_us, "us");
    let forecast_us = median_call_us(40, || {
        std::hint::black_box(engine.forecast(horizon).expect("engine is ready"));
    });
    report.set("serve.engine_forecast_us", forecast_us, "us");
    engine.shutdown();
    Ok(())
}
