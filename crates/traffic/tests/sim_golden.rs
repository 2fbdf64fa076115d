//! Golden output bits and a heap bound for the city simulator.
//!
//! Each case runs [`CitySimulator`] on a fixed configuration and folds its
//! whole output — every flow bit, the trip count, the rain days, the
//! incident log and the level shift — into one FNV-1a 64 digest, compared
//! against a constant. Any change to the trip generator or to the Eqs. 1–2
//! counting rule moves a digest.
//!
//! To re-derive the table after an intended change to the simulator, run
//! this test and copy the `computed` table from the failure message.
//!
//! A test binary of its own: the counting global allocator below sees every
//! allocation in the process, so it counts only on the thread that asks.

use muse_traffic::sim::SimOutput;
use muse_traffic::{CityConfig, CitySimulator, DatasetPreset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Digest of each case's output, in case order.
const GOLDEN: &[(&str, u64)] = &[
    ("small_5_level_shift", 0x9206a7e6941ee6cb),
    ("nyc_bike_0.25", 0x1e64064017bac05d),
    ("nyc_taxi_0.25", 0x598c14e8f47b288e),
    ("taxibj_0.25", 0xc50666e4b9c34396),
];

/// FNV-1a 64 over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn digest(out: &SimOutput) -> u64 {
    let mut h = Fnv::new();
    for &v in out.flows.tensor().as_slice() {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    h.word(out.trips as u64);
    h.word(out.rain_days.len() as u64);
    for &day in &out.rain_days {
        h.word(day as u64);
    }
    h.word(out.incidents.len() as u64);
    for &(interval, region) in &out.incidents {
        h.word(interval as u64);
        h.word(region.row as u64);
        h.word(region.col as u64);
    }
    match out.level_shift {
        None => h.word(0),
        Some((start, factor)) => {
            h.word(1);
            h.word(start as u64);
            h.word(u64::from(factor.to_bits()));
        }
    }
    h.0
}

/// The pinned configurations: the small test city with a persistent level
/// shift, and every dataset preset at its smallest scale.
fn cases() -> Vec<(&'static str, CityConfig)> {
    let mut small = CityConfig::small(5);
    small.level_shift_interval = Some(small.total_intervals() / 2);
    small.level_shift_factor = 1.75;
    vec![
        ("small_5_level_shift", small),
        ("nyc_bike_0.25", DatasetPreset::NycBike.config(0.25, 7)),
        ("nyc_taxi_0.25", DatasetPreset::NycTaxi.config(0.25, 7)),
        ("taxibj_0.25", DatasetPreset::TaxiBj.config(0.25, 7)),
    ]
}

#[test]
fn simulator_output_bits_match_the_golden_digests() {
    let computed: Vec<(&str, u64)> =
        cases().into_iter().map(|(name, cfg)| (name, digest(&CitySimulator::new(cfg).run()))).collect();
    let table: String = computed.iter().map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n")).collect();
    assert_eq!(computed, GOLDEN, "simulator output bits moved; computed:\n{table}");
}

struct Counting;

thread_local! {
    /// `(live, peak)` heap bytes on this thread while counting is on.
    static HEAP: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// `alloc` and `dealloc` are overridden: the default `alloc_zeroed` and
/// `realloc` go through them, so live bytes are tracked exactly.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = HEAP.try_with(|c| {
            c.set(c.get().map(|(live, peak)| (live + layout.size(), peak.max(live + layout.size()))))
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ =
            HEAP.try_with(|c| c.set(c.get().map(|(live, peak)| (live.saturating_sub(layout.size()), peak))));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live heap bytes allocated on this thread while `f` runs.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    HEAP.with(|c| c.set(Some((0, 0))));
    let out = f();
    let (_, peak) = HEAP.with(|c| c.replace(None)).unwrap_or((0, 0));
    (out, peak)
}

#[test]
fn the_serve_preset_simulates_in_bounded_heap() {
    // NYC-Bike at scale 0.5 is the serving benchmark's preset: over 400k
    // trips in 63 days, each counted as it is generated.
    let cfg = DatasetPreset::NycBike.config(0.5, 11);
    let (out, peak) = peak_heap_of(|| CitySimulator::new(cfg).run());
    assert!(out.trips > 100_000, "too few trips to be meaningful: {}", out.trips);
    assert!(peak < 1 << 20, "simulating {} trips peaked at {peak} live heap bytes", out.trips);
}
