#![warn(missing_docs)]

//! # muse-trace
//!
//! Analysis layer over `muse-obs` JSONL traces: parse a trace back into
//! typed run records, summarize and compare runs, and fold span
//! enter/exit events into collapsed-stack flame profiles.
//!
//! Like the rest of the workspace this crate is `std`-only. It is both a
//! library (used by the perf gate for the shared tolerance band, and by
//! tests) and the `muse-trace` CLI:
//!
//! ```text
//! muse-trace report <trace.jsonl>             per-run summary
//! muse-trace diff   <base.jsonl> <new.jsonl>  side-by-side with regression
//!                                             highlighting (shared perf-gate
//!                                             tolerance band)
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
//! muse-trace prof <profile.folded>            folded-profile report: top-N
//!                                             self/total tables, flame
//!                                             re-emission, share diffs
//! ```

pub mod diff;
pub mod flame;
pub mod ingest;
pub mod prof;
pub mod prometheus;
pub mod quality;
pub mod report;
pub mod spectrum;
pub mod tolerance;

pub use ingest::{
    AlertEvent, BenchResult, CoalesceEvent, DroppedForecast, EpochRow, KernelRow, QualitySample,
    RequestEvent, SpanExit, SpectralSweep, SweepPeriod, TraceData, TrainRun,
};
