//! Definition 2: inflow/outflow volumes per region and interval, computed
//! from trajectory transitions (Eqs. 1–2), stored as a dense series.

use crate::grid::GridMap;
use crate::trajectory::{Trajectory, TrajectoryPoint};
use muse_tensor::Tensor;

/// Channel index of outflow in the `[2, H, W]` flow tensors (matches the
/// paper's `(X_i)_{0,h,w}`).
pub const OUTFLOW: usize = 0;
/// Channel index of inflow (`(X_i)_{1,h,w}`).
pub const INFLOW: usize = 1;

/// A dense series of flow tensors: shape `[T, 2, H, W]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSeries {
    grid: GridMap,
    /// `[T, 2, H, W]`.
    data: Tensor,
}

impl FlowSeries {
    /// Wrap an existing `[T, 2, H, W]` tensor.
    pub fn from_tensor(grid: GridMap, data: Tensor) -> Self {
        let dims = data.dims();
        assert_eq!(dims.len(), 4, "flow series must be [T,2,H,W], got {:?}", dims);
        assert_eq!(dims[1], 2, "flow series channel dim must be 2");
        assert_eq!((dims[2], dims[3]), (grid.height, grid.width), "flow series grid mismatch");
        FlowSeries { grid, data }
    }

    /// All-zero series of `t` intervals.
    pub fn zeros(grid: GridMap, t: usize) -> Self {
        FlowSeries { grid, data: Tensor::zeros(&[t, 2, grid.height, grid.width]) }
    }

    /// Number of intervals `T`.
    pub fn len(&self) -> usize {
        self.data.dims()[0]
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The grid this series is defined over.
    pub fn grid(&self) -> GridMap {
        self.grid
    }

    /// The raw `[T, 2, H, W]` tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.data
    }

    /// Consume into the raw tensor.
    pub fn into_tensor(self) -> Tensor {
        self.data
    }

    /// The `[2, H, W]` flow tensor `X_i` at interval `i`.
    pub fn frame(&self, i: usize) -> Tensor {
        self.data.index_axis0(i)
    }

    /// Read one volume: `channel` is [`OUTFLOW`] or [`INFLOW`].
    pub fn volume(&self, i: usize, channel: usize, row: usize, col: usize) -> f32 {
        self.data.at(&[i, channel, row, col])
    }

    /// Mutable access to one volume.
    pub fn volume_mut(&mut self, i: usize, channel: usize, row: usize, col: usize) -> &mut f32 {
        self.data.at_mut(&[i, channel, row, col])
    }

    /// Total inflow summed over all regions at interval `i`.
    pub fn total_inflow(&self, i: usize) -> f32 {
        self.frame(i).index_axis0(INFLOW).sum()
    }

    /// Total outflow summed over all regions at interval `i`.
    pub fn total_outflow(&self, i: usize) -> f32 {
        self.frame(i).index_axis0(OUTFLOW).sum()
    }

    /// Per-interval mean volume over both channels and all cells — the 1-D
    /// series spectral periodicity detection runs on. Computed in `f64` so
    /// the result is independent of summation-order optimisations.
    pub fn mean_series(&self) -> Vec<f64> {
        let frame = 2 * self.grid.cells();
        let src = self.data.as_slice();
        (0..self.len())
            .map(|i| src[i * frame..(i + 1) * frame].iter().map(|&v| v as f64).sum::<f64>() / frame as f64)
            .collect()
    }

    /// Per-cell mean over time for a channel — `[H, W]`.
    pub fn temporal_mean(&self, channel: usize) -> Tensor {
        let t = self.len();
        let mut acc = Tensor::zeros(&[self.grid.height, self.grid.width]);
        for i in 0..t {
            acc.add_assign(&self.frame(i).index_axis0(channel));
        }
        acc.mul_scalar(1.0 / t.max(1) as f32)
    }
}

/// Compute inflow/outflow volumes from a trajectory collection `P` over `t`
/// intervals (Eqs. 1–2), one [`count_transitions`] call per trajectory.
pub fn flows_from_trajectories(grid: GridMap, trajectories: &[Trajectory], t_total: usize) -> FlowSeries {
    let mut series = FlowSeries::zeros(grid, t_total);
    for traj in trajectories {
        count_transitions(&mut series, traj.points());
    }
    series
}

/// Count one trajectory's transitions into `series` (Eqs. 1–2).
///
/// For each consecutive pair `(u_{i-1}, u_i)` where the region changes, the
/// earlier region's **outflow** and the later region's **inflow** are
/// incremented at the interval of `u_i`. Transitions at or beyond the
/// series length are ignored. Every increment adds an integer-valued 1.0,
/// so the counts do not depend on the order trajectories arrive in.
pub(crate) fn count_transitions(series: &mut FlowSeries, points: &[TrajectoryPoint]) {
    let grid = series.grid;
    let cells = grid.cells();
    let t_total = series.len();
    let data = series.data.as_mut_slice();
    for pair in points.windows(2) {
        let (prev, cur) = (pair[0], pair[1]);
        if cur.interval >= t_total || prev.region == cur.region {
            continue;
        }
        debug_assert!(grid.contains(prev.region) && grid.contains(cur.region));
        let frame = cur.interval * 2 * cells;
        data[frame + OUTFLOW * cells + prev.region.row * grid.width + prev.region.col] += 1.0;
        data[frame + INFLOW * cells + cur.region.row * grid.width + cur.region.col] += 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Region;

    fn traj(points: &[(usize, usize, usize)]) -> Trajectory {
        let mut t = Trajectory::new();
        for &(i, r, c) in points {
            t.push(i, Region::new(r, c));
        }
        t
    }

    #[test]
    fn single_transition_counts_once() {
        let grid = GridMap::new(2, 2);
        let trajs = vec![traj(&[(0, 0, 0), (1, 0, 1)])];
        let flows = flows_from_trajectories(grid, &trajs, 3);
        assert_eq!(flows.volume(1, OUTFLOW, 0, 0), 1.0);
        assert_eq!(flows.volume(1, INFLOW, 0, 1), 1.0);
        // Nothing else incremented.
        assert_eq!(flows.tensor().sum(), 2.0);
    }

    #[test]
    fn staying_in_region_counts_nothing() {
        let grid = GridMap::new(2, 2);
        let trajs = vec![traj(&[(0, 1, 1), (1, 1, 1), (2, 1, 1)])];
        let flows = flows_from_trajectories(grid, &trajs, 3);
        assert_eq!(flows.tensor().sum(), 0.0);
    }

    #[test]
    fn multiple_trajectories_accumulate() {
        let grid = GridMap::new(2, 2);
        let trajs =
            vec![traj(&[(0, 0, 0), (1, 1, 1)]), traj(&[(0, 0, 1), (1, 1, 1)]), traj(&[(1, 1, 1), (2, 0, 0)])];
        let flows = flows_from_trajectories(grid, &trajs, 3);
        assert_eq!(flows.volume(1, INFLOW, 1, 1), 2.0);
        assert_eq!(flows.volume(2, OUTFLOW, 1, 1), 1.0);
        assert_eq!(flows.volume(2, INFLOW, 0, 0), 1.0);
    }

    #[test]
    fn flow_conservation_every_move_in_equals_out() {
        // Each counted transition adds exactly one inflow and one outflow,
        // so totals match per interval.
        let grid = GridMap::new(3, 3);
        let trajs = vec![traj(&[(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 2, 2)]), traj(&[(0, 2, 0), (2, 0, 2)])];
        let flows = flows_from_trajectories(grid, &trajs, 4);
        for i in 0..4 {
            assert_eq!(flows.total_inflow(i), flows.total_outflow(i), "interval {i}");
        }
    }

    #[test]
    fn transitions_beyond_horizon_ignored() {
        let grid = GridMap::new(2, 2);
        let trajs = vec![traj(&[(0, 0, 0), (5, 1, 1)])];
        let flows = flows_from_trajectories(grid, &trajs, 3);
        assert_eq!(flows.tensor().sum(), 0.0);
    }

    #[test]
    fn frame_and_temporal_mean() {
        let grid = GridMap::new(2, 2);
        let trajs = vec![traj(&[(0, 0, 0), (1, 0, 1)]), traj(&[(1, 0, 0), (2, 0, 1)])];
        let flows = flows_from_trajectories(grid, &trajs, 3);
        let f1 = flows.frame(1);
        assert_eq!(f1.dims(), &[2, 2, 2]);
        let mean_in = flows.temporal_mean(INFLOW);
        assert!((mean_in.at(&[0, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "grid mismatch")]
    fn from_tensor_validates_grid() {
        let grid = GridMap::new(2, 2);
        FlowSeries::from_tensor(grid, Tensor::zeros(&[3, 2, 4, 4]));
    }
}
