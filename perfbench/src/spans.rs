//! The benchmark's own spans: wall time around calls into each crate's
//! public functions, kept in memory and reported as per-layer medians when
//! the run ends.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Durations per span name. A disabled recorder still runs the closures but
/// reads no clock, so untraced runs pay nothing for the instrumentation.
#[derive(Default)]
pub struct Spans {
    enabled: bool,
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, by_name: BTreeMap::new() }
    }

    /// Run `f` inside span `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        self.by_name.entry(name).or_default().push(elapsed.as_nanos() as f64);
    }

    /// Median duration of `name` in microseconds (`NaN` if never recorded).
    pub fn median_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(f64::NAN, |v| median(v) / 1e3)
    }
}

/// Median wall time of `reps` calls of `f`, in microseconds, after one
/// untimed warm-up call.
pub fn median_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}
