//! Property-style tests for the traffic substrate, swept deterministically
//! with the in-tree [`SeededRng`]: flow-counting invariants, interception
//! index algebra, scaling round-trips.

use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::dataset::Scaler;
use muse_traffic::flow::{flows_from_trajectories, INFLOW, OUTFLOW};
use muse_traffic::subseries::{sample, SubSeriesSpec};
use muse_traffic::{FlowSeries, GridMap, Region, Trajectory};

/// Random trajectory collection on a small grid.
fn random_trajectories(seed: u64, n: usize, t_max: usize, grid: GridMap) -> Vec<Trajectory> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|_| {
            let mut traj = Trajectory::new();
            let mut t = rng.index(t_max.max(1));
            let len = 1 + rng.index(4);
            for _ in 0..len {
                let r = Region::new(rng.index(grid.height), rng.index(grid.width));
                traj.push(t, r);
                t += 1 + rng.index(2);
            }
            traj
        })
        .collect()
}

/// Per-interval inflow mass always equals outflow mass (each counted
/// transition contributes one of each).
#[test]
fn flow_conservation() {
    for seed in 0..32u64 {
        let n = 1 + SeededRng::new(seed ^ 0xF1).index(39);
        let grid = GridMap::new(4, 4);
        let t_total = 20;
        let trajs = random_trajectories(seed, n, t_total, grid);
        let flows = flows_from_trajectories(grid, &trajs, t_total);
        for i in 0..t_total {
            assert_eq!(flows.total_inflow(i), flows.total_outflow(i), "seed {seed} interval {i}");
        }
    }
}

/// Total counted transitions never exceed total trajectory transitions.
#[test]
fn transition_count_bound() {
    for seed in 0..32u64 {
        let n = 1 + SeededRng::new(seed ^ 0xF2).index(39);
        let grid = GridMap::new(4, 4);
        let t_total = 20;
        let trajs = random_trajectories(seed, n, t_total, grid);
        let flows = flows_from_trajectories(grid, &trajs, t_total);
        let max_transitions: usize = trajs.iter().map(|t| t.len().saturating_sub(1)).sum();
        // Each counted transition adds 2 (one inflow + one outflow).
        assert!(flows.tensor().sum() <= 2.0 * max_transitions as f32, "seed {seed}");
        assert!(flows.tensor().min() >= 0.0, "seed {seed}");
    }
}

/// Sub-series lag structure: every gathered frame index is strictly before
/// the target and within range.
#[test]
fn interception_indices_in_range() {
    for seed in 0..32u64 {
        let mut rng = SeededRng::new(seed);
        let spec = SubSeriesSpec {
            lc: 1 + rng.index(3),
            lp: 1 + rng.index(3),
            lt: 1 + rng.index(2),
            intervals_per_day: 2 + rng.index(4),
            trend_days: 1 + rng.index(8),
        };
        let lags = [spec.closeness_lags(), spec.period_lags(), spec.trend_lags()].concat();
        assert!(lags.iter().all(|&lag| lag >= 1), "seed {seed}");
        assert_eq!(lags.iter().max(), Some(&spec.min_target()), "seed {seed}: min_target is the deepest lag");
        // Lags are strictly decreasing within each sub-series (oldest first).
        let c = spec.closeness_lags();
        assert!(c.windows(2).all(|w| w[0] > w[1]), "seed {seed}");
        let p = spec.period_lags();
        assert!(p.windows(2).all(|w| w[0] > w[1]), "seed {seed}");
    }
}

/// Sampling at the minimum target index works; one below panics (checked
/// through explicit bound arithmetic rather than catch_unwind).
#[test]
fn sample_at_min_target_valid() {
    for f in 2usize..5 {
        let spec = SubSeriesSpec { lc: 2, lp: 2, lt: 1, intervals_per_day: f, trend_days: 7 };
        let grid = GridMap::new(2, 2);
        let t = spec.min_target() + 4;
        let mut rng = SeededRng::new(f as u64);
        let flows = FlowSeries::from_tensor(grid, Tensor::rand_uniform(&mut rng, &[t, 2, 2, 2], 0.0, 5.0));
        let smp = sample(&flows, &spec, spec.min_target());
        assert_eq!(smp.closeness.dims()[0], 2 * spec.lc, "f={f}");
        assert_eq!(smp.index, spec.min_target(), "f={f}");
    }
}

/// Non-hourly cadences (`intervals_per_day` ∈ {24, 48, 96}) with weekly
/// and detected super-period trends: `min_target`, lag offsets, and batch
/// assembly stay mutually consistent.
#[test]
fn non_hourly_cadences_consistent() {
    use muse_traffic::subseries::batch;
    for &f in &[24usize, 48, 96] {
        for &trend_days in &[3usize, 7] {
            let spec = SubSeriesSpec { lc: 3, lp: 2, lt: 1, intervals_per_day: f, trend_days };
            assert_eq!(spec.min_target(), f * trend_days, "f={f}");
            assert_eq!(spec.period_lags(), vec![2 * f, f], "f={f}");
            assert_eq!(spec.trend_lags(), vec![f * trend_days], "f={f}");
            // Batch assembly on an index-valued series makes the lag
            // arithmetic directly observable in the gathered values.
            let n0 = spec.min_target();
            let t = n0 + 3;
            let grid = GridMap::new(2, 2);
            let mut data = Vec::with_capacity(t * 8);
            for i in 0..t {
                data.extend(std::iter::repeat_n(i as f32, 8));
            }
            let flows = FlowSeries::from_tensor(grid, Tensor::from_vec(data, &[t, 2, 2, 2]));
            let b = batch(&flows, &spec, &[n0, n0 + 2]);
            assert_eq!(b.closeness.dims(), &[2, 6, 2, 2], "f={f}");
            assert_eq!(b.closeness.at(&[0, 0, 0, 0]) as usize, n0 - 3, "f={f}");
            assert_eq!(b.period.at(&[0, 0, 0, 0]) as usize, n0 - 2 * f, "f={f}");
            assert_eq!(b.period.at(&[1, 2, 0, 0]) as usize, n0 + 2 - f, "f={f}");
            assert_eq!(b.trend.at(&[0, 0, 0, 0]), 0.0, "f={f}");
            assert_eq!(b.target.at(&[1, 0, 0, 0]) as usize, n0 + 2, "f={f}");
        }
    }
}

/// Scaler round-trips arbitrary non-negative data (sqrt mode).
#[test]
fn sqrt_scaler_roundtrip() {
    for seed in 0..32u64 {
        let mut rng = SeededRng::new(seed);
        let hi = rng.uniform(1.0, 500.0);
        let data = Tensor::rand_uniform(&mut rng, &[50], 0.0, hi);
        let sc = Scaler::fit_sqrt(&data);
        let back = sc.unscale(&sc.scale(&data));
        assert!(back.approx_eq(&data, hi.max(1.0) * 2e-3), "seed {seed} diff {}", back.max_abs_diff(&data));
    }
}

/// Scaled data never leaves [-SPAN, SPAN] for in-range inputs.
#[test]
fn scale_bounds() {
    for seed in 0..32u64 {
        let mut rng = SeededRng::new(seed);
        let data = Tensor::rand_uniform(&mut rng, &[60], 0.0, 40.0);
        let sc = Scaler::fit_sqrt(&data);
        let scaled = sc.scale(&data);
        assert!(scaled.min() >= -muse_traffic::dataset::SPAN - 1e-5, "seed {seed}");
        assert!(scaled.max() <= muse_traffic::dataset::SPAN + 1e-5, "seed {seed}");
    }
}

/// Flow volumes are readable both through `volume` and `frame`.
#[test]
fn volume_frame_consistency() {
    for seed in 0..32u64 {
        let grid = GridMap::new(3, 3);
        let trajs = random_trajectories(seed, 20, 12, grid);
        let flows = flows_from_trajectories(grid, &trajs, 12);
        for i in (0..12).step_by(3) {
            let frame = flows.frame(i);
            for r in 0..3 {
                for c in 0..3 {
                    assert_eq!(flows.volume(i, INFLOW, r, c), frame.at(&[INFLOW, r, c]), "seed {seed}");
                    assert_eq!(flows.volume(i, OUTFLOW, r, c), frame.at(&[OUTFLOW, r, c]), "seed {seed}");
                }
            }
        }
    }
}
