//! A warm span open/close allocates nothing: the open path lives in one
//! reused thread-local string, and each span looks its histogram up once,
//! when it opens.
//!
//! A test binary of its own: the counting global allocator below sees every
//! allocation in the process, so it counts only on the thread that asks.

use muse_obs as obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Only `alloc` is overridden: the default `alloc_zeroed` and `realloc`
/// allocate through it, so every allocation is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get().map(|(n, bytes)| (n + 1, bytes + layout.size()))));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` made on this thread while `f` runs.
fn allocated_by(f: impl FnOnce()) -> (usize, usize) {
    ALLOCATED.with(|c| c.set(Some((0, 0))));
    f();
    ALLOCATED.with(|c| c.replace(None)).unwrap_or((0, 0))
}

fn nested_spans() {
    let _outer = obs::span("alloc.outer");
    {
        let _inner = obs::span("alloc.inner");
        let _leaf = obs::span("alloc.leaf");
    }
    let _sibling = obs::span("alloc.sibling");
}

#[test]
fn a_warm_span_open_and_close_allocates_nothing() {
    obs::enable();
    // Cold: the path string grows and the histograms are interned.
    nested_spans();
    let (count, bytes) = allocated_by(|| {
        for _ in 0..100 {
            nested_spans();
        }
    });
    assert_eq!((count, bytes), (0, 0), "warm nested spans allocated {count} times ({bytes} bytes)");
    assert_eq!(obs::histogram("span.alloc.outer/alloc.inner/alloc.leaf").count(), 101);
    obs::disable();
}
