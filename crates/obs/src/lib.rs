#![warn(missing_docs)]

//! # muse-obs
//!
//! Zero-dependency telemetry for the MUSE-Net reproduction: RAII span
//! timers with nesting, atomic counters/gauges, value histograms, a global
//! registry, and two sinks — a human console summary and a JSONL event
//! stream written through the hand-rolled JSON encoder in [`json`].
//!
//! Design constraints:
//!
//! * **No external crates.** Everything is `std`.
//! * **Near-no-op when disabled.** Every instrumentation entry point first
//!   checks one relaxed atomic flag; hot kernels pay a single load and a
//!   predictable branch when telemetry is off.
//! * **Machine-readable.** The JSONL trace is the source of truth for
//!   training/kernel trajectories; the console summary is a convenience
//!   rendering of the same registry.
//!
//! ## Quick tour
//!
//! ```
//! use muse_obs as obs;
//!
//! // Metrics accumulate only while telemetry is enabled.
//! obs::enable();
//! obs::counter("demo.calls").add(1);
//! let _span = obs::span("demo.outer");
//! {
//!     let _inner = obs::span("demo.inner"); // nests under demo.outer
//! }
//! drop(_span);
//! assert!(obs::summary().contains("demo.calls"));
//! obs::disable();
//! ```
//!
//! A JSONL trace is opened with [`open_trace`] (or [`init_from_env`] which
//! honours `MUSE_OBS=<path>`); every [`emit`] call then appends one JSON
//! object per line. See the repository README ("Telemetry & tracing") for
//! the event schema.

pub mod alerts;
pub mod http;
pub mod json;
pub mod metrics;
pub mod rolling;
pub mod serve;
pub mod sink;
pub mod span;

pub use alerts::{AlertEngine, AlertRule, AlertState, AlertTransition};
pub use json::{Json, ToJson};
pub use metrics::{counter, gauge, gauge_owned, histogram, kernel, Counter, Gauge, Histogram, KernelStat};
pub use rolling::{DecayingHistogram, Ewma, RollingStats};
pub use serve::{render_prometheus, MetricsServer};
pub use sink::{
    close_trace, emit, emit_with, emitted_events, flush_trace, init_from_env, next_run_id, now_ns,
    open_trace, read_trace, trace_enabled, trace_path,
};
pub use span::{profile, span, span_depth, thread_ordinal, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry collection is on. A single relaxed load — this is the
/// guard every instrumentation site checks first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric collection on (idempotent). Opening a trace enables
/// collection automatically.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn metric collection off. An open trace keeps its file; re-[`enable`]
/// to resume.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Time a kernel invocation: returns a guard that, on drop, bumps the
/// kernel's call/nanosecond/byte totals. Inert (no clock read) when
/// telemetry is disabled.
#[inline]
pub fn kernel_timer(name: &'static str, bytes: u64) -> metrics::KernelTimer {
    if enabled() {
        metrics::KernelTimer::running(kernel(name), bytes)
    } else {
        metrics::KernelTimer::inert()
    }
}

/// Record a named duration into the histogram registry (used for per-op
/// backward attribution, where names are composed at runtime).
#[inline]
pub fn record_duration(name: &str, nanos: u64) {
    if enabled() {
        metrics::histogram_owned(name).record(nanos as f64);
    }
}

/// Human console summary of every registered metric, sorted by name.
/// Kernel stats are ranked by cumulative time so the dominant kernel is
/// obvious at a glance.
pub fn summary() -> String {
    metrics::render_summary()
}

/// Snapshot of the whole registry as one JSON object (counters, gauges,
/// histograms, kernels). This is what `muse-eval` emits as the
/// `kernel.summary` trace event.
pub fn snapshot() -> Json {
    metrics::snapshot_json()
}

/// Reset every registered metric to zero (names stay registered).
/// Intended for tests and for isolating per-run kernel totals.
pub fn reset_metrics() {
    metrics::reset();
}

/// Test support: serializes tests that toggle the global enable flag or
/// the trace sink. Not part of the public API.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_noop() {
        let _g = test_lock();
        disable();
        let before = counter("lib.noop").get();
        let _t = kernel_timer("lib.noop.kernel", 128);
        drop(_t);
        assert_eq!(counter("lib.noop").get(), before);
    }

    #[test]
    fn enable_disable_roundtrip() {
        let _g = test_lock();
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }
}
