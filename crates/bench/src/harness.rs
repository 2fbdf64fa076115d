//! A tiny, dependency-free benchmark harness exposing the subset of the
//! Criterion API the bench targets use (`Criterion::default()`,
//! `.sample_size(n)`, `.bench_function(name, |b| b.iter(...))` plus the
//! `criterion_group!`/`criterion_main!` macros), so `cargo bench` works
//! fully offline.
//!
//! Reporting is deliberately simple: per benchmark it prints min / mean /
//! max over the configured number of samples, where each sample runs
//! enough iterations to cover a minimum measurement window. When a
//! `MUSE_OBS` trace is open, each benchmark also emits a `bench.result`
//! event, so BENCH_*.json trajectories can be scripted from traces.

use muse_obs as obs;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall-clock per sample; iterations scale up to cover it.
const MIN_SAMPLE: Duration = Duration::from_millis(5);

/// Harness entry point, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut bencher = Bencher { samples: Vec::new(), sample_size: self.sample_size };
        f(&mut bencher);
        report(name, &bencher.samples);
        self
    }

    /// Run one routine as two interleaved variants (A, B, A, B, …), where
    /// `enter_b`/`exit_b` bracket every B sample outside its timed window
    /// (e.g. overriding the job count). Back-to-back benchmarks sit in disjoint
    /// wall-clock windows, so frequency scaling or background load between
    /// them can shift a min-vs-min comparison by far more than a small true
    /// difference; interleaving exposes both variants to every machine-speed
    /// phase, making A-vs-B ratios (like the fleet-speedup gate)
    /// meaningful. Emits a `bench.result` per variant like `bench_function`.
    pub fn bench_pair<O>(
        &mut self,
        name_a: &str,
        name_b: &str,
        mut routine: impl FnMut() -> O,
        mut enter_b: impl FnMut(),
        mut exit_b: impl FnMut(),
    ) -> &mut Self {
        // Shared warm-up + calibration so both variants run identical
        // iteration counts per sample.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (MIN_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let mut samples_a = Vec::with_capacity(self.sample_size);
        let mut samples_b = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            // One untimed settle iteration after each enter/exit call, so
            // neither timed window starts in the wake of that call's side
            // effects (say, a thread spawn or join) — otherwise A
            // systematically absorbs the previous round's exit_b cost and
            // the comparison reads biased fast for B.
            black_box(routine());
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples_a.push((start.elapsed().as_nanos() as u64) / iters);
            enter_b();
            black_box(routine());
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples_b.push((start.elapsed().as_nanos() as u64) / iters);
            exit_b();
        }
        report(name_a, &samples_a);
        report(name_b, &samples_b);
        self
    }
}

fn report(name: &str, samples: &[u64]) {
    let stats = Stats::from_nanos(samples);
    println!(
        "bench {:<40} {:>12} min  {:>12} mean  {:>12} max  ({} samples)",
        name,
        format_nanos(stats.min),
        format_nanos(stats.mean),
        format_nanos(stats.max),
        samples.len(),
    );
    obs::emit_with("bench.result", || {
        vec![
            ("name", obs::Json::Str(name.to_string())),
            ("min_ns", obs::Json::Num(stats.min)),
            ("mean_ns", obs::Json::Num(stats.mean)),
            ("max_ns", obs::Json::Num(stats.max)),
            ("samples", obs::Json::Num(samples.len() as f64)),
        ]
    });
}

/// Per-benchmark measurement state, mirroring `criterion::Bencher`.
pub struct Bencher {
    samples: Vec<u64>,
    sample_size: usize,
}

impl Bencher {
    /// Measure `routine`, recording per-iteration nanoseconds.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm-up + calibration: how many iterations cover MIN_SAMPLE?
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (MIN_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push((start.elapsed().as_nanos() as u64) / iters);
        }
    }
}

struct Stats {
    min: f64,
    mean: f64,
    max: f64,
}

impl Stats {
    fn from_nanos(samples: &[u64]) -> Stats {
        if samples.is_empty() {
            return Stats { min: 0.0, mean: 0.0, max: 0.0 };
        }
        let min = *samples.iter().min().unwrap() as f64;
        let max = *samples.iter().max().unwrap() as f64;
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        Stats { min, mean, max }
    }
}

fn format_nanos(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Define a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::harness::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Define the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            muse_obs::init_from_env();
            $($group();)+
            if muse_obs::trace_enabled() {
                muse_obs::emit("kernel.summary", vec![("metrics", muse_obs::snapshot())]);
                muse_obs::close_trace();
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default().sample_size(3);
        let mut ran = 0u64;
        c.bench_function("harness_smoke", |b| {
            b.iter(|| {
                ran += 1;
                ran
            })
        });
        assert!(ran >= 3);
    }

    #[test]
    fn bench_pair_interleaves_and_brackets_b() {
        let mut c = Criterion::default().sample_size(4);
        let phase_b = std::cell::Cell::new(false);
        let runs = std::cell::Cell::new(0u64);
        let b_runs = std::cell::Cell::new(0u64);
        c.bench_pair(
            "pair_a",
            "pair_b",
            || {
                runs.set(runs.get() + 1);
                if phase_b.get() {
                    b_runs.set(b_runs.get() + 1);
                }
                runs.get()
            },
            || phase_b.set(true),
            || phase_b.set(false),
        );
        assert!(!phase_b.get(), "exit_b must run after the last B sample");
        assert!(b_runs.get() >= 4, "every B sample must run inside enter/exit");
        assert!(runs.get() > b_runs.get(), "A samples must run outside the B bracket");
    }

    #[test]
    fn stats_and_formatting() {
        let s = Stats::from_nanos(&[100, 200, 300]);
        assert_eq!(s.min, 100.0);
        assert_eq!(s.mean, 200.0);
        assert_eq!(s.max, 300.0);
        assert_eq!(format_nanos(500.0), "500 ns");
        assert_eq!(format_nanos(2_500.0), "2.500 µs");
        assert_eq!(format_nanos(3_000_000.0), "3.000 ms");
        assert_eq!(format_nanos(1.5e9), "1.500 s");
    }
}
