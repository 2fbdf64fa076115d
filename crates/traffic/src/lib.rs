#![warn(missing_docs)]

//! # muse-traffic
//!
//! The traffic-flow data substrate of the MUSE-Net reproduction. Implements
//! the paper's preliminaries end to end:
//!
//! * **Definition 1 (Spatial Region)** — [`grid::GridMap`]: a city as an
//!   `H × W` grid of regions.
//! * **Definition 2 (Inflow/Outflow)** — [`trajectory::Trajectory`] and
//!   [`flow::flows_from_trajectories`]: per-interval region transition counts
//!   (Eqs. 1–2). The simulator counts each trip as it generates it, through
//!   the same counting function, without storing trajectories.
//! * **Definition 3 (Closeness/Period/Trend)** — [`subseries::SubSeriesSpec`]:
//!   intercepting a flow series into hourly/daily/weekly sub-series
//!   (Eqs. 3–5).
//!
//! Because the paper's NYC-Bike / NYC-Taxi / TaxiBJ trajectory corpora are
//! not available in this environment, [`sim::CitySimulator`] provides an
//! agent-based substitute: commuting agents with day/night cycles,
//! weekday/weekend regimes, weather-induced **level shifts**, and incident
//! **point shifts** — by construction exercising the distribution-shift and
//! interaction-shift phenomena MUSE-Net targets. [`dataset`] wraps simulator
//! output into named presets with scaling and splits.

pub mod dataset;
pub mod energy;
pub mod flow;
pub mod grid;
pub mod masks;
pub mod sim;
pub mod subseries;
pub mod trajectory;

pub use dataset::{DatasetPreset, Scaler, TrafficDataset};
pub use energy::{generate_energy, EnergyConfig, EnergyOutput};
pub use flow::FlowSeries;
pub use grid::{GridMap, Region};
pub use masks::{peak_mask, weekday_mask, DayKind};
pub use sim::{periodic_preset, CityConfig, CitySimulator, PeriodicPreset, PERIODIC_PRESETS};
pub use subseries::{Batch, FrameSource, Rollout, Sample, SubSeriesSpec};
pub use trajectory::{Trajectory, TrajectoryPoint};
