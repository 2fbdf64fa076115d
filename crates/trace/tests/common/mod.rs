//! A real (tiny) training trace for the integration tests to analyze.

use muse_obs as obs;
use muse_tensor::Tensor;
use muse_traffic::{FlowSeries, GridMap, SubSeriesSpec};
use musenet::config::MuseNetConfig;
use musenet::model::MuseNet;
use musenet::trainer::{Trainer, TrainerOptions};
use std::path::PathBuf;

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
pub fn record_training_trace(name: &str) -> PathBuf {
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
