//! The serving paths that run once warm make no heap allocation.
//!
//! * A warm memo hit: `Engine::forecast` answers a horizon the memo already
//!   holds by handing out the step's shared prediction buffer and rendered
//!   text, and the quality journal records the step's shared record.
//!   Neither the response nor the journal copies the frame. Rendering the
//!   hit's `/forecast` body then makes exactly one allocation: the body,
//!   with the step's text spliced in.
//! * A warm ingest: `Engine::ingest` settles the pending forecasts whose
//!   target it delivers, scoring each computed step once, without
//!   allocating.
//! * Recording into a full journal: the oldest entry makes room.
//!
//! A test binary of its own: the counting global allocator below sees every
//! allocation in the process, so it counts only on the thread that asks.
//! The engine answers on the calling thread and neither a hit nor an ingest
//! runs a kernel, so that is every allocation of either.

use muse_parallel::with_threads;
use muse_serve::{Engine, EngineOptions, ForecastJournal, PendingForecast, QualityConfig, StepRecord};
use muse_traffic::{GridMap, SubSeriesSpec};
use musenet::{MuseNet, MuseNetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations and bytes counted on this thread, while counting.
    static ALLOCATIONS: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Only `alloc` is overridden: the default `alloc_zeroed` and `realloc`
/// allocate through it, so every allocation is counted.
// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counting touches only a thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|(n, bytes)| (n + 1, bytes + layout.size()))));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations and bytes made on this thread while `f` runs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    ALLOCATIONS.with(|c| c.set(Some((0, 0))));
    let out = f();
    let counted = ALLOCATIONS.with(|c| c.replace(None)).unwrap_or((0, 0));
    (out, counted)
}

/// The test shapes' spec: three intervals per day, so horizons 1..=3.
const SPEC: SubSeriesSpec = SubSeriesSpec { lc: 2, lp: 1, lt: 1, intervals_per_day: 3, trend_days: 7 };

/// A small engine at `height`×`width` with a `journal`-entry quality
/// journal, its window filled to readiness by [`wave`] frames.
fn ready_engine(height: usize, width: usize, journal: usize) -> Engine {
    let mut cfg = MuseNetConfig::cpu_profile(GridMap::new(height, width), SPEC);
    cfg.d = 4;
    cfg.k = 8;
    let opts = EngineOptions {
        quality: QualityConfig { journal_capacity: journal, ..QualityConfig::default() },
        spectral_every: 0,
    };
    let engine = Engine::new(MuseNet::new(cfg), opts);
    let frame_len = engine.info().frame_len;
    for i in 0..SPEC.min_target() {
        engine.ingest(wave(i, frame_len)).unwrap();
    }
    engine
}

/// A seeded wavy frame, the `i`-th of its stream.
fn wave(i: usize, frame_len: usize) -> Vec<f32> {
    (0..frame_len).map(|c| ((i * frame_len + c) as f32 * 0.01).sin()).collect()
}

/// The `scored` count of the engine's `/quality` snapshot.
fn scored(engine: &Engine) -> f64 {
    engine.quality().unwrap().get("scored").and_then(|v| v.as_f64()).unwrap()
}

#[test]
fn warm_memo_hits_make_no_allocation() {
    let journal = 4;
    with_threads(1, || {
        for (height, width) in [(2, 3), (8, 10)] {
            let engine = ready_engine(height, width, journal);
            let frame_len = engine.info().frame_len;
            // Compute the memo, then fill the journal so recording a hit
            // retires its oldest entry instead of growing the queue.
            engine.forecast(SPEC.intervals_per_day).unwrap();
            for _ in 0..journal {
                engine.forecast(1).unwrap();
            }
            let before = engine.stats().unwrap();

            let (responses, (count, bytes)) =
                allocations_of(|| [1, 2, 3, 1, 2, 3, 1, 2, 3, 1].map(|h| engine.forecast(h)));
            for resp in responses {
                let resp = resp.unwrap();
                assert_eq!(resp.prediction.len(), frame_len);
                let (body, (renders, _)) = allocations_of(|| resp.render());
                assert!(body.starts_with("{\"request_id\":"), "{body}");
                assert_eq!(renders, 1, "{height}x{width}: rendering a memo hit made {renders} allocations");
            }
            let after = engine.stats().unwrap();
            assert_eq!(after.memo_hits - before.memo_hits, 10, "{height}x{width}: every forecast was a hit");
            assert_eq!(after.rollout_steps, before.rollout_steps, "{height}x{width}: no step computed");
            assert_eq!(
                (count, bytes),
                (0, 0),
                "{height}x{width}: 10 memo hits made {count} allocations ({bytes} B)"
            );
        }
    });
}

#[test]
fn warm_ingests_settle_without_allocating() {
    with_threads(1, || {
        for (height, width) in [(2, 3), (8, 10)] {
            let engine = ready_engine(height, width, 64);
            let frame_len = engine.info().frame_len;
            // Each cycle forecasts every horizon twice, then ingests the
            // frame the oldest pending horizons target: one ingest settles
            // an entry pair for each of up to three computed steps (all
            // three from the third cycle on). The first cycles see each
            // horizon and grow the score cache.
            for cycle in 0..8 {
                for h in [1, 2, 3, 3, 2, 1] {
                    engine.forecast(h).unwrap();
                }
                let frame = wave(SPEC.min_target() + cycle, frame_len);
                let before = scored(&engine);
                let (ack, (count, bytes)) = allocations_of(|| engine.ingest(frame));
                ack.unwrap();
                let settled = scored(&engine) - before;
                assert!(settled >= 2.0, "{height}x{width}: cycle {cycle} scored {settled} forecasts");
                if cycle >= 3 {
                    assert_eq!(
                        (count, bytes, settled),
                        (0, 0, 6.0),
                        "{height}x{width}: warm ingest {cycle}, settling {settled} forecasts, \
                         made {count} allocations ({bytes} B)"
                    );
                }
            }
        }
    });
}

#[test]
fn recording_into_a_full_journal_makes_no_allocation() {
    let step =
        Arc::new(StepRecord { rollout: 1, horizon: 1, target: 7, prediction: Arc::from([0.5f32, 0.25]) });
    let mut journal = ForecastJournal::new(4);
    for request in 0..4 {
        assert!(journal.record(PendingForecast { request, step: Arc::clone(&step) }).is_none());
    }
    let (evicted, (count, bytes)) = allocations_of(|| {
        (4..68).map(|request| journal.record(PendingForecast { request, step: Arc::clone(&step) })).last()
    });
    assert_eq!(evicted.flatten().map(|e| e.request), Some(63), "each record drops the oldest");
    assert_eq!((journal.pending(), journal.overflowed()), (4, 64));
    assert_eq!((count, bytes), (0, 0), "64 drop-oldest records made {count} allocations ({bytes} B)");
}
