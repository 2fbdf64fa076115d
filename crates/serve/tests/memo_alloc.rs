//! A warm memo hit makes no heap allocation: `Engine::forecast` answers a
//! horizon the memo already holds by handing out the step's shared
//! prediction buffer and rendered text, and the quality journal records the
//! same buffer. Neither the response nor the journal copies the frame.
//!
//! A test binary of its own: the counting global allocator below sees every
//! allocation in the process, so it counts only on the thread that asks.
//! The engine answers on the calling thread and a hit runs no kernel, so
//! that is every allocation of a hit.

use muse_parallel::with_threads;
use muse_serve::{Engine, EngineOptions, QualityConfig};
use muse_traffic::{GridMap, SubSeriesSpec};
use musenet::{MuseNet, MuseNetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn warm_memo_hits_make_no_allocation() {
    let spec = SubSeriesSpec { lc: 2, lp: 1, lt: 1, intervals_per_day: 3, trend_days: 7 };
    let journal = 4;
    with_threads(1, || {
        for (height, width) in [(2, 3), (8, 10)] {
            let grid = GridMap::new(height, width);
            let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
            cfg.d = 4;
            cfg.k = 8;
            let opts = EngineOptions {
                quality: QualityConfig { journal_capacity: journal, ..QualityConfig::default() },
                spectral_every: 0,
            };
            let engine = Engine::new(MuseNet::new(cfg), opts);
            let frame_len = engine.info().frame_len;
            for i in 0..spec.min_target() {
                engine
                    .ingest((0..frame_len).map(|c| ((i * frame_len + c) as f32 * 0.01).sin()).collect())
                    .unwrap();
            }
            // Compute the memo, then fill the journal so recording a hit
            // retires its oldest entry instead of growing the queue.
            engine.forecast(spec.intervals_per_day).unwrap();
            for _ in 0..journal {
                engine.forecast(1).unwrap();
            }
            let before = engine.stats().unwrap();

            let (responses, (count, bytes)) =
                allocations_of(|| [1, 2, 3, 1, 2, 3, 1, 2, 3, 1].map(|h| engine.forecast(h)));
            for resp in responses {
                assert_eq!(resp.unwrap().prediction.len(), frame_len);
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
