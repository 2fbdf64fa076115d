//! Finite-difference check of the whole MUSE-Net objective (Eqs. 26–30).
//!
//! For every ablation variant, the analytic gradient of
//! `train_graph(..).loss` is compared with central differences at a
//! fixed-seed sample of parameter coordinates. The op-level checks in
//! `muse-autograd` cover each backward rule alone; this one covers how the
//! model wires them together: sampling, KLs, reconstruction, pulling, the
//! spatial head and the weighted sum.
//!
//! Every loss evaluation rebuilds the model from its config, so the
//! reparameterisation noise stream restarts at the same point (it is seeded
//! from `config.seed`), and then restores the perturbed parameter values.
//!
//! The check runs at a jittered copy of the initial parameters: conv biases
//! start at exactly zero, so a ReLU whose receptive field holds only zeros
//! sits exactly on its kink, where the one-sided slopes differ and no
//! finite difference can agree with the tape.

use muse_autograd::Tape;
use muse_nn::Session;
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::subseries::{batch, Batch};
use muse_traffic::{FlowSeries, GridMap, SubSeriesSpec};
use musenet::{AblationVariant, MuseNet, MuseNetConfig};

/// Central-difference step.
const EPS: f32 = 3e-3;
/// Half-width of the uniform jitter added to every initial parameter.
const JITTER: f32 = 0.05;
/// Parameter coordinates checked per variant.
const COORDS: usize = 32;
/// A coordinate passes when `|analytic − numeric| ≤ ATOL + RTOL·max(|analytic|, |numeric|)`.
/// `ATOL` covers f32 rounding of a loss of order 10² (a few 1e-5 per
/// evaluation, ≈1e-2 after dividing by `2·EPS`).
const ATOL: f32 = 2e-2;
const RTOL: f32 = 2e-2;

fn tiny_config(variant: AblationVariant) -> MuseNetConfig {
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 4, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(GridMap::new(3, 4), spec);
    cfg.d = 4;
    cfg.k = 8;
    cfg.variant = variant;
    cfg
}

fn tiny_batch(cfg: &MuseNetConfig) -> Batch {
    let mut rng = SeededRng::new(11);
    let flows = FlowSeries::from_tensor(cfg.grid, Tensor::rand_uniform(&mut rng, &[40, 2, 3, 4], -1.0, 1.0));
    batch(&flows, &cfg.spec, &[30, 31, 35])
}

/// The objective at the given parameter values, on a freshly built model.
fn loss_at(cfg: &MuseNetConfig, values: &[Tensor], b: &Batch) -> f32 {
    let model = MuseNet::new(cfg.clone());
    muse_nn::restore(&model.params(), values);
    let tape = Tape::new();
    let s = Session::new(&tape);
    model.train_graph(&s, b).loss.item()
}

#[test]
fn whole_objective_matches_finite_differences_for_every_variant() {
    for variant in AblationVariant::all() {
        let cfg = tiny_config(variant);
        let b = tiny_batch(&cfg);
        let mut rng = SeededRng::new(0x6AD);
        let model = MuseNet::new(cfg.clone());
        let params = model.params();
        let mut values = muse_nn::snapshot(&params);
        for v in &mut values {
            for x in v.as_mut_slice() {
                *x += rng.uniform(-JITTER, JITTER);
            }
        }
        muse_nn::restore(&params, &values);
        let analytic: Vec<Tensor> = {
            let tape = Tape::new();
            let s = Session::new(&tape);
            let pass = model.train_graph(&s, &b);
            s.backward(pass.loss);
            params.iter().map(|p| p.grad()).collect()
        };

        // Pick a tensor, then a coordinate in it, so small parameter groups
        // (heads, Hadamard weights) are sampled as often as the large ones.
        let mut failures = Vec::new();
        let mut worst = 0.0f32;
        for _ in 0..COORDS {
            let t = rng.index(params.len());
            let i = rng.index(values[t].len());
            let at = |delta: f32| {
                let mut v = values.clone();
                v[t].as_mut_slice()[i] += delta;
                loss_at(&cfg, &v, &b)
            };
            let numeric = (at(EPS) - at(-EPS)) / (2.0 * EPS);
            let a = analytic[t].as_slice()[i];
            let err = (a - numeric).abs();
            let bound = ATOL + RTOL * a.abs().max(numeric.abs());
            worst = worst.max(err / bound);
            if err > bound {
                failures.push(format!("{}[{i}]: analytic {a}, numeric {numeric}", params[t].name()));
            }
        }
        assert!(
            failures.is_empty(),
            "{variant:?}: {} coordinates off:\n{}",
            failures.len(),
            failures.join("\n")
        );
        eprintln!("{variant:?}: worst error/bound {worst:.3}");
    }
}
