//! `muse-serve` — a long-lived MUSE-Net forecasting daemon.
//!
//! The training side of this repo produces self-describing checkpoints
//! (`muse-eval --save-checkpoint`, `MuseNet::save_with_config`); this crate
//! is the other half of that contract: boot a model from such a checkpoint,
//! ingest live flow frames into a rolling window, and answer forecasts over
//! HTTP — forward-only on a hoisted tape that recycles tensor storage, with
//! the rollout memoized per window state and every request answered on the
//! HTTP worker that received it.
//!
//! Layering (each module usable on its own):
//!
//! * [`window`] — ring buffer of `2×H×W` frames with absolute indexing, the
//!   frame source of the shared `muse_traffic::Rollout`;
//! * [`engine`] — the model and the serving state behind one lock:
//!   checkpoint loading, the autoregressive rollout memo (each step
//!   rendered to JSON once), misses computed on the calling worker;
//! * [`journal`] — served forecasts awaiting ground truth, scored when the
//!   target frame later arrives over `/ingest`;
//! * [`quality`] — rolling MAE/RMSE estimators behind `GET /quality`, and
//!   the drift rules behind `GET /alerts`;
//! * [`alerts`] — the three drift rules (`mae_drift`, `flow_level_shift`,
//!   `spectral_shift`) and their `ok/warning/firing` lifecycle;
//! * [`spectral`] — the periodic FFT sweep over the live window behind
//!   `GET /spectrum` and the `spectral_shift` alert;
//! * [`api`] — wire types (`/ingest`, `/forecast`) over the repo's own JSON;
//! * [`http`] — the routes, served by the [`muse_obs::http::HttpServer`]
//!   loops shared with the metrics exporter, exposing `/metrics` for
//!   Prometheus.
//!
//! The daemon serves *scaled* flow units — whatever normalization the
//! checkpointed model was trained with, its frames are ingested in kind.
//! Determinism carries over from the kernels: for a fixed checkpoint and
//! ingestion sequence, `/forecast` is bit-identical for any `MUSE_THREADS`.

pub mod alerts;
pub mod api;
pub mod engine;
pub mod http;
pub mod journal;
pub mod quality;
pub mod spectral;
pub mod window;

pub use alerts::AlertState;
pub use api::{ForecastResponse, IngestAck, LatentNorms};
pub use engine::{Engine, EngineError, EngineInfo, EngineOptions, StatsSnapshot};
pub use http::{Server, ServerOptions};
pub use journal::{ForecastJournal, ForecastScore, PendingForecast, Settled, StepRecord};
pub use quality::{QualityConfig, QualityTracker};
pub use spectral::SpectralSweeper;
pub use window::FlowWindow;
