//! Micro-benchmarks of the hot computational kernels, plus two end-to-end
//! benches: a daemon-path forecast (`serve_forecast_*`, the muse-serve
//! engine's request latency) and a training step whose steady-state arena
//! traffic is recorded as the `train.steady_alloc` pseudo-kernel (gated by
//! `perf_gate` alongside the real kernels' bytes-per-call).
//!
//! Order matters: `bench_train_step` runs last and resets the metric
//! registry first, so the gated per-kernel bytes-per-call ratios come from
//! identical training steps only.

use muse_bench::{bench_dataset, bench_profile, criterion_group, criterion_main, Criterion};
use muse_tensor::conv::{conv2d, conv2d_backward, Conv2dSpec};
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::{CityConfig, CitySimulator};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let a = Tensor::rand_uniform(&mut rng, &[64, 128], -1.0, 1.0);
    let b = Tensor::rand_uniform(&mut rng, &[128, 64], -1.0, 1.0);
    c.bench_function("matmul_64x128x64", |bch| bch.iter(|| black_box(a.matmul(&b))));
    let a2 = Tensor::rand_uniform(&mut rng, &[256, 256], -1.0, 1.0);
    let b2 = Tensor::rand_uniform(&mut rng, &[256, 256], -1.0, 1.0);
    c.bench_function("matmul_256x256x256", |bch| bch.iter(|| black_box(a2.matmul(&b2))));
    c.bench_function("matmul_bt_256x256x256", |bch| bch.iter(|| black_box(a2.matmul_bt(&b2))));
    c.bench_function("matmul_at_256x256x256", |bch| bch.iter(|| black_box(a2.matmul_at(&b2))));
}

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let spec = Conv2dSpec::same(16, 16, 3);
    let x = Tensor::rand_uniform(&mut rng, &[8, 16, 8, 10], -1.0, 1.0);
    let w = Tensor::rand_uniform(&mut rng, &[16, 16, 3, 3], -0.2, 0.2);
    let b = Tensor::rand_uniform(&mut rng, &[16], -0.1, 0.1);
    c.bench_function("conv2d_b8_c16_8x10", |bch| bch.iter(|| black_box(conv2d(&x, &w, Some(&b), &spec))));
    let y = conv2d(&x, &w, Some(&b), &spec);
    let go = Tensor::rand_uniform(&mut rng, y.dims(), -1.0, 1.0);
    c.bench_function("conv2d_backward_b8_c16_8x10", |bch| {
        bch.iter(|| black_box(conv2d_backward(&x, &w, &go, &spec)))
    });
}

fn bench_simulator(c: &mut Criterion) {
    let mut cfg = CityConfig::small(3);
    cfg.days = 7;
    c.bench_function("simulate_week_small_city", |bch| {
        bch.iter(|| black_box(CitySimulator::new(cfg.clone()).run()))
    });
}

fn bench_backward(c: &mut Criterion) {
    use muse_autograd::Tape;
    let mut rng = SeededRng::new(4);
    let x = Tensor::rand_uniform(&mut rng, &[8, 64], -1.0, 1.0);
    let w = Tensor::rand_uniform(&mut rng, &[64, 64], -0.2, 0.2);
    c.bench_function("tape_forward_backward_mlp", |bch| {
        bch.iter(|| {
            let tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv = tape.leaf(w.clone());
            let loss = xv.matmul(&wv).tanh().square().sum();
            black_box(tape.backward(loss));
        })
    });
}

fn bench_fft(c: &mut Criterion) {
    use muse_fft::{Complex, RealFft, WelchPlan};

    // The spectral sweep's two building blocks at representative sizes: one
    // 4096-point real-input transform (the detector's largest segment) and a
    // full Welch-averaged periodogram over a four-week hourly series. Both
    // reuse their plans across iterations, as the sweep does.
    let mut rng = SeededRng::new(6);
    let signal: Vec<f64> = (0..4096)
        .map(|t| 10.0 + (std::f64::consts::TAU * t as f64 / 24.0).cos() + rng.uniform(-0.1, 0.1) as f64)
        .collect();
    let mut fft = RealFft::new(4096);
    let mut spectrum = vec![Complex::default(); fft.spectrum_len()];
    c.bench_function("fft_4096", |bch| {
        bch.iter(|| {
            fft.forward(&signal, &mut spectrum);
            black_box(spectrum[0]);
        })
    });

    let series = &signal[..672];
    let mut welch = WelchPlan::new(muse_fft::segment_for(series.len(), 4096));
    let mut power = Vec::new();
    c.bench_function("periodogram_welch", |bch| {
        bch.iter(|| {
            black_box(welch.periodogram_into(series, &mut power));
        })
    });
}

fn bench_serve_forecast(c: &mut Criterion) {
    use muse_serve::{Engine, EngineOptions};
    use musenet::{MuseNet, MuseNetConfig};

    let profile = bench_profile();
    let prepared = bench_dataset();
    let mut cfg = MuseNetConfig::cpu_profile(prepared.dataset.grid(), prepared.spec);
    cfg.d = profile.d;
    cfg.k = profile.k;
    // No spectral sweep: every 32nd ingest would otherwise add an FFT pass
    // to one sample and nothing to the rest.
    let opts = EngineOptions { spectral_every: 0, ..EngineOptions::default() };
    let engine = Engine::new(MuseNet::new(cfg), opts);
    let frame_len = engine.info().frame_len;
    let src = prepared.scaled.tensor().as_slice();
    let frames = prepared.scaled.len();
    let frame = |i: usize| src[(i % frames) * frame_len..(i % frames + 1) * frame_len].to_vec();
    let mut next = engine.info().window_capacity;
    for i in 0..next {
        engine.ingest(frame(i)).expect("ingest");
    }
    // The rollout is memoized per window state: one ingest per iteration
    // moves the forecast base, so these time a computed rollout (plus the
    // ingest and its quality scoring and the step's JSON rendering).
    for (name, horizon) in [("serve_forecast_h1", 1), ("serve_forecast_h3", 3)] {
        c.bench_function(name, |bch| {
            bch.iter(|| {
                engine.ingest(frame(next)).expect("ingest");
                next += 1;
                black_box(engine.forecast(horizon).unwrap())
            })
        });
    }
    // The hit path: an unchanged window answers horizon 24 from the memo.
    engine.forecast(24).expect("fill the memo");
    c.bench_function("serve_forecast_h24_memo", |bch| bch.iter(|| black_box(engine.forecast(24).unwrap())));
}

fn bench_pulling_loss(c: &mut Criterion) {
    use muse_autograd::vae_ops::kl_between_fused;
    use muse_autograd::Tape;

    // The model's pulling block (Eqs. 23–25): three branch pairs, three
    // fused KL terms each, summed and differentiated. Batch 8, d=16 mirrors
    // the fig4 training profile's latent shapes.
    let mut rng = SeededRng::new(5);
    let dims = [8usize, 16];
    let branch: Vec<[Tensor; 4]> = (0..3)
        .map(|_| {
            [
                Tensor::rand_uniform(&mut rng, &dims, -1.0, 1.0),
                Tensor::rand_uniform(&mut rng, &dims, -0.8, 0.8),
                Tensor::rand_uniform(&mut rng, &dims, -1.0, 1.0),
                Tensor::rand_uniform(&mut rng, &dims, -0.8, 0.8),
            ]
        })
        .collect();
    c.bench_function("pulling_loss_b8", |bch| {
        bch.iter(|| {
            let tape = Tape::new();
            let vars: Vec<_> = branch
                .iter()
                .map(|[mu_s, lv_s, mu_g, lv_g]| {
                    (
                        tape.leaf(mu_s.clone()),
                        tape.leaf(lv_s.clone()),
                        tape.leaf(mu_g.clone()),
                        tape.leaf(lv_g.clone()),
                    )
                })
                .collect();
            let mut total = None;
            for i in 0..3 {
                for j in (i + 1)..3 {
                    let (mu_si, lv_si, mu_gi, lv_gi) = &vars[i];
                    let (_, _, mu_gj, lv_gj) = &vars[j];
                    let term = kl_between_fused(mu_si, lv_si, mu_gi, lv_gi)
                        .add(&kl_between_fused(mu_si, lv_si, mu_gj, lv_gj))
                        .sub(&kl_between_fused(mu_gi, lv_gi, mu_gj, lv_gj));
                    total = Some(match total {
                        None => term,
                        Some(t) => term.add(&t),
                    });
                }
            }
            black_box(tape.backward(total.expect("three pairs")));
        })
    });
}

fn bench_fleet(c: &mut Criterion) {
    use muse_eval::runner::{channel_errors, fit_model, prepare, ModelKind, Profile};
    use muse_parallel::scheduler::{self, JobsOverrideGuard};
    use muse_parallel::FleetJob;
    use muse_traffic::dataset::DatasetPreset;
    use musenet::AblationVariant;
    use std::cell::RefCell;

    // A fig9-style mini sweep: six full MUSE-Net trainings (distinct seeds,
    // as the sensitivity driver's repeats are) dispatched through the
    // inter-op scheduler. The A side runs sequentially (MUSE_JOBS default),
    // the B side under a jobs=4 fleet — the pair's min-vs-min ratio is the
    // fleet speedup the perf gate stamps and checks.
    let profile = Profile {
        scale: 0.45,
        epochs: 1,
        max_batches: 1,
        max_eval: 8,
        d: 4,
        k: 8,
        hidden: 8,
        channels: 4,
        ..Profile::quick()
    };
    let prepared = prepare(DatasetPreset::NycBike, &profile);
    let plan = prepared.eval_plan(&profile);

    let prepared_ref = &prepared;
    let profile_ref = &profile;
    let plan_ref = plan.as_ref();
    let fleet = || {
        let jobs: Vec<FleetJob<'_, f32>> = (0..6u64)
            .map(|rep| {
                Box::new(move || {
                    let mut p = profile_ref.clone();
                    p.seed = profile_ref.seed + 100 * rep;
                    let model = fit_model(ModelKind::MuseNet(AblationVariant::Full), prepared_ref, &p);
                    let pred = model.predict_unscaled(prepared_ref, &plan_ref.indices);
                    channel_errors(&pred, &plan_ref.truth).0.rmse
                }) as FleetJob<'_, f32>
            })
            .collect();
        muse_parallel::run_fleet("fig9.mini_bench", jobs)
    };

    let guard: RefCell<Option<JobsOverrideGuard>> = RefCell::new(None);
    c.bench_pair(
        "fig9_mini_fleet",
        "fig9_mini_fleet_jobs4",
        || black_box(fleet()),
        || *guard.borrow_mut() = Some(scheduler::override_jobs(4)),
        || {
            guard.borrow_mut().take();
        },
    );
}

fn bench_train_step(c: &mut Criterion) {
    use muse_autograd::Tape;
    use muse_nn::{clip_grad_norm, Adam, Optimizer, Session};
    use muse_tensor::arena;
    use muse_traffic::subseries::{batch_into, Batch};
    use musenet::{MuseNet, MuseNetConfig};

    let profile = bench_profile();
    let prepared = bench_dataset();
    let mut cfg = MuseNetConfig::cpu_profile(prepared.dataset.grid(), prepared.spec);
    cfg.d = profile.d;
    cfg.k = profile.k;
    let model = MuseNet::new(cfg);
    let mut opt = Adam::with_defaults(model.params(), 3e-3);
    let indices: Vec<usize> = prepared.split.train[..8.min(prepared.split.train.len())].to_vec();

    // From here on, every kernel call comes from identical training steps,
    // so per-kernel bytes-per-call in the final `kernel.summary` is a fixed
    // per-iteration ratio — invariant to the harness' calibrated iteration
    // counts. Drop the micro-benches' shape mix (whose averages jitter with
    // calibration) so the perf gate checks deterministic numbers.
    muse_obs::reset_metrics();

    // The trainer's reusable context: one tape/session/staging batch, reset
    // per step so the steady state runs out of the arena. As in
    // `Trainer::fit`, the reset comes before `opt.step()`: it releases the
    // tape's shared parameter leaves, so Adam updates every parameter in
    // its own buffer instead of copying it on write.
    let tape = Tape::new();
    let s = Session::new(&tape);
    let mut staging = Batch::staging();
    let mut step = || {
        batch_into(&prepared.scaled, &prepared.spec, &indices, &mut staging);
        let pass = model.train_graph(&s, &staging);
        s.backward(pass.loss);
        clip_grad_norm(opt.params(), 5.0);
        let total = pass.terms.total;
        tape.reset();
        s.reset();
        opt.step();
        opt.zero_grad();
        total
    };

    c.bench_function("train_step_fig4_batch8", |bch| bch.iter(|| black_box(step())));

    // Steady-state bytes newly allocated per training step (pool misses
    // only). Recorded as a pseudo-kernel so the perf-gate's bytes-per-call
    // band fails the build if the hot loop starts allocating again.
    let before = arena::stats();
    black_box(step());
    let after = arena::stats();
    let stat = muse_obs::kernel("train.steady_alloc");
    stat.calls.add(1);
    stat.bytes.add(after.alloc_bytes - before.alloc_bytes);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_conv2d, bench_simulator, bench_backward, bench_fft, bench_serve_forecast, bench_pulling_loss, bench_fleet, bench_train_step
}
criterion_main!(benches);
