#![warn(missing_docs)]

//! # muse-trace
//!
//! Analysis layer over `muse-obs` JSONL traces: parse a trace back into
//! typed run records, summarize and compare runs, and render the span
//! totals of a trace's last `kernel.summary` snapshot as collapsed-stack
//! flame profiles.
//!
//! Like the rest of the workspace this crate is `std`-only. It is both a
//! library (used by the perf gate for the shared tolerance band, and by
//! tests) and the `muse-trace` CLI:
//!
//! ```text
//! muse-trace report <trace.jsonl>             per-run summary, with the
//!                                             dominant self-time span path
//! muse-trace diff   <base.jsonl> <new.jsonl>  side-by-side with regression
//!                                             highlighting (shared perf-gate
//!                                             tolerance band), span
//!                                             self-time shares included
//! muse-trace flame  <trace.jsonl>             collapsed stacks (self time),
//!                                             flamegraph.pl-compatible
//! muse-trace promcheck <file|->               validate Prometheus text
//!                                             exposition (CI smoke)
//! muse-trace quality <trace.jsonl>            serve-path quality story:
//!                                             error trajectory, alert
//!                                             chronology, request lifecycles
//! muse-trace spectrum <trace.jsonl>           period-drift story: dominant-
//!                                             period trajectory across
//!                                             spectral sweeps + alert moves
//! ```

pub mod diff;
pub mod flame;
pub mod ingest;
pub mod prometheus;
pub mod quality;
pub mod report;
pub mod spectrum;
pub mod tolerance;

pub use ingest::{
    AlertEvent, BenchResult, DroppedForecast, EpochRow, KernelRow, QualitySample, RequestEvent,
    SpectralSweep, SweepPeriod, TraceData, TrainRun,
};
