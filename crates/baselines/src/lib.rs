#![warn(missing_docs)]

//! # muse-baselines
//!
//! From-scratch implementations of the baseline traffic forecasters MUSE-Net
//! is compared against (Table II), one representative per class:
//!
//! | Class | Paper baselines | Implemented here |
//! |---|---|---|
//! | Naive | — | [`HistoricalAverage`], [`SeasonalNaive`] |
//! | RNN-based | RNN, Seq2Seq | [`RnnForecaster`], [`Seq2SeqForecaster`] |
//! | CNN-based | CONVGCN, DeepSTN+ | [`DeepStnForecaster`] (entangled CNN + ResPlus-style long-range unit) |
//! | Attention-based | GMAN, STGSP | [`StgspLiteForecaster`] (multi-periodic frame attention) |
//! | Disentangle-based | ST-Norm | [`StNormLiteForecaster`] (temporal/spatial normalization branches) |
//!
//! GNN-class baselines are intentionally omitted: the grid datasets carry no
//! graph structure, and in the paper's evaluation the GNN rows behave like
//! the CNN rows (see DESIGN.md).
//!
//! The five neural baselines implement [`musenet::Trainable`] and train
//! through [`musenet::Trainer`] — the same mini-batch loop, optimizer,
//! clipping and best-validation selection as MUSE-Net — so Table II compares
//! every learned method under one protocol. HA and seasonal naive implement
//! the closed-form [`Forecaster`] trait.

pub mod api;
pub mod deepstn;
pub mod ha;
pub mod rnn;
pub mod seasonal;
pub mod seq2seq;
pub mod stgsp_lite;
pub mod stnorm_lite;

pub use api::Forecaster;
pub use deepstn::DeepStnForecaster;
pub use ha::HistoricalAverage;
pub use rnn::RnnForecaster;
pub use seasonal::SeasonalNaive;
pub use seq2seq::Seq2SeqForecaster;
pub use stgsp_lite::StgspLiteForecaster;
pub use stnorm_lite::StNormLiteForecaster;
