#![warn(missing_docs)]

//! # muse-net-repro
//!
//! A from-scratch Rust reproduction of **MUSE-Net: Disentangling
//! Multi-Periodicity for Traffic Flow Forecasting** (Qin et al., ICDE 2024),
//! including every substrate the paper depends on:
//!
//! * [`tensor`] — dense f32 tensors (broadcasting, matmul, conv2d kernels);
//! * [`autograd`] — tape-based reverse-mode differentiation;
//! * [`nn`] — layers, recurrent cells, initializers, Adam/SGD;
//! * [`traffic`] — grids, trajectories, inflow/outflow (Defs. 1–3), the
//!   agent-based city simulator standing in for NYC-Bike / NYC-Taxi /
//!   TaxiBJ, and multi-periodic sub-series interception;
//! * [`musenet`] — the paper's model: disentangled exclusive/interactive
//!   representations, semantic pushing/pulling, ResPlus spatial head,
//!   joint training, and the four §V-D ablations;
//! * [`baselines`] — HA, seasonal naive, RNN, Seq2Seq, DeepSTN+-style CNN,
//!   ST-GSP-lite attention, ST-Norm-lite;
//! * [`metrics`] — RMSE/MAE/MAPE, cosine similarity, PCA, t-SNE, silhouette;
//! * [`eval`] — drivers regenerating every table and figure of the paper.
//!
//! ## Quickstart
//!
//! ```no_run
//! use muse_net_repro::prelude::*;
//!
//! // Generate a synthetic city, prepare splits and scaling.
//! let profile = Profile::quick();
//! let prepared = prepare(DatasetPreset::NycBike, &profile);
//!
//! // Train MUSE-Net and forecast the test period.
//! let model = fit_model(ModelKind::MuseNet(AblationVariant::Full), &prepared, &profile);
//! let test_idx = prepared.eval_indices(&profile);
//! let forecast = model.predict_unscaled(&prepared, &test_idx);
//! let truth = prepared.truth(&test_idx);
//! let (outflow, inflow) = channel_errors(&forecast, &truth);
//! println!("outflow RMSE {:.2}, inflow RMSE {:.2}", outflow.rmse, inflow.rmse);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `muse-eval`
//! binary for paper-table regeneration.

pub use muse_autograd as autograd;
pub use muse_baselines as baselines;
pub use muse_eval as eval;
pub use muse_metrics as metrics;
pub use muse_nn as nn;
pub use muse_tensor as tensor;
pub use muse_traffic as traffic;
pub use musenet;

/// The most common imports for application code.
pub mod prelude {
    pub use muse_autograd::{Tape, Var};
    pub use muse_baselines::Forecaster;
    pub use muse_eval::runner::{
        channel_errors, fit_model, prepare, EvalSet, FittedModel, ModelKind, Prepared, Profile,
    };
    pub use muse_metrics::error::ErrorStats;
    pub use muse_nn::{Adam, Optimizer, Session};
    pub use muse_tensor::{init::SeededRng, Tensor};
    pub use muse_traffic::dataset::{DatasetPreset, Scaler, TrafficDataset};
    pub use muse_traffic::subseries::{batch, SubSeriesSpec};
    pub use muse_traffic::{CityConfig, CitySimulator, FlowSeries, GridMap};
    pub use musenet::{AblationVariant, MuseNet, MuseNetConfig, Trainable, Trainer, TrainerOptions};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        let spec = SubSeriesSpec::paper_default(24);
        assert_eq!(spec.lc, 3);
        let cfg = MuseNetConfig::paper(GridMap::new(4, 4), spec);
        assert_eq!(cfg.d, 64);
    }
}
