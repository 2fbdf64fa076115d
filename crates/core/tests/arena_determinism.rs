//! Pooled-vs-fresh training determinism (PR 2 contract extended to the
//! arena): a full training run with the tensor arena enabled must be
//! **bit-identical** — per-epoch loss curve and every final parameter — to
//! the same run with pooling disabled, for every thread-pool size. Buffer
//! reuse must never change numerics, only where the bytes live.

use muse_parallel::with_threads;
use muse_tensor::arena;
use muse_tensor::Tensor;
use muse_traffic::flow::FlowSeries;
use muse_traffic::grid::GridMap;
use muse_traffic::subseries::SubSeriesSpec;
use musenet::{MuseNet, MuseNetConfig, Trainer, TrainerOptions};
use std::sync::Mutex;

/// Serialises the tests in this file: `arena::set_enabled(false)` disables
/// and clears the process-wide pool, which would zero the pool hits another
/// test is counting on a parallel test thread.
static ARENA_LOCK: Mutex<()> = Mutex::new(());

/// A smooth daily pattern so training has structure to fit.
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

/// One full (tiny) training run; returns the per-epoch loss bits and the
/// final parameter bits.
fn train_once() -> (Vec<u32>, Vec<Vec<u32>>) {
    let grid = GridMap::new(3, 3);
    let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: 6, trend_days: 7 };
    let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
    cfg.d = 4;
    cfg.k = 8;
    let flows = patterned_flows(grid, 10, 6);
    let first = spec.min_target();
    let train: Vec<usize> = (first..first + 12).collect();
    let val: Vec<usize> = (first + 12..first + 16).collect();

    let model = MuseNet::new(cfg.clone());
    let mut trainer = Trainer::new(
        model,
        TrainerOptions { epochs: 3, batch_size: 4, learning_rate: 3e-3, ..Default::default() },
    );
    let report = trainer.fit(&flows, &cfg.spec, &train, &val);
    let losses = report.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
    let params = trainer
        .model()
        .params()
        .iter()
        .map(|p| p.value().as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    (losses, params)
}

fn train_with_arena(enabled: bool) -> (Vec<u32>, Vec<Vec<u32>>) {
    let was = arena::enabled();
    arena::set_enabled(enabled);
    let out = train_once();
    arena::set_enabled(was);
    out
}

#[test]
fn pooled_training_is_bit_identical_to_fresh_allocation() {
    let _lock = ARENA_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // Reference: fresh allocations, single thread.
    let (ref_losses, ref_params) = with_threads(1, || train_with_arena(false));
    assert_eq!(ref_losses.len(), 3);
    for threads in [1usize, 2, 4, 7] {
        let (losses, params) = with_threads(threads, || train_with_arena(true));
        assert_eq!(losses, ref_losses, "loss curve diverged at {threads} threads (pooled)");
        assert_eq!(params.len(), ref_params.len());
        for (i, (got, want)) in params.iter().zip(&ref_params).enumerate() {
            assert_eq!(got, want, "param {i} diverged at {threads} threads (pooled)");
        }
        // Fresh-allocation path must agree at this thread count too.
        let (losses_fresh, params_fresh) = with_threads(threads, || train_with_arena(false));
        assert_eq!(losses_fresh, ref_losses, "loss curve diverged at {threads} threads (fresh)");
        assert_eq!(params_fresh, ref_params, "params diverged at {threads} threads (fresh)");
    }
}

#[test]
fn pooled_training_recycles_buffers() {
    let _lock = ARENA_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // A steady-state batch should be served overwhelmingly from the pool:
    // after a warm-up epoch, later epochs allocate (almost) no new bytes.
    let _ = with_threads(1, || {
        arena::set_enabled(true);
        let s0 = arena::stats();
        let out = train_once();
        let s1 = arena::stats();
        assert!(s1.pool_hits > s0.pool_hits, "training never hit the buffer pool");
        out
    });
}
