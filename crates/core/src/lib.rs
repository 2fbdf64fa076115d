#![warn(missing_docs)]

//! # musenet
//!
//! The paper's primary contribution: **MUSE-Net**, a multivariate
//! disentanglement network for traffic flow forecasting (Qin et al.,
//! ICDE 2024).
//!
//! MUSE-Net intercepts a traffic-flow series into closeness / period / trend
//! sub-series (hourly, daily, weekly — see [`muse_traffic::subseries`]) and
//! factorizes them into:
//!
//! * three **exclusive** representations `Z^C, Z^P, Z^T` — private,
//!   per-resolution patterns that absorb distribution shift, and
//! * one **interactive** representation `Z^S` — the pattern common to all
//!   resolutions, which bridges interaction shift.
//!
//! Training maximizes the derived lower bound of Eq. (26):
//! a VAE term ([`loss`], Eq. 27), a semantic-pushing reconstruction term
//! (Eq. 28), a semantic-pulling interaction-information term (Eq. 29), and
//! the forecasting regression (Eq. 30). The fused representations feed a
//! DeepSTN+-style [`resplus`] CNN that models spatial dependency.
//!
//! Entry points:
//! * [`MuseNet`] — the model; [`MuseNetConfig`] — hyper-parameters.
//! * [`Trainer`] — mini-batch Adam training with validation tracking, for
//!   MUSE-Net and any other [`Trainable`] model (the baselines).
//! * [`ablation::AblationVariant`] — the four §V-D ablations.
//! * [`analysis`] — representation extraction (RQ3–RQ5) and the Table I
//!   complexity model.

pub mod ablation;
pub mod analysis;
pub mod config;
pub mod decoder;
pub mod encoders;
pub mod loss;
pub mod model;
pub mod resplus;
pub mod trainer;
pub mod variational;

pub use ablation::AblationVariant;
pub use config::MuseNetConfig;
pub use loss::LossTerms;
pub use model::{InferenceOutput, MuseNet};
pub use trainer::{TrainReport, Trainable, Trainer, TrainerOptions};
