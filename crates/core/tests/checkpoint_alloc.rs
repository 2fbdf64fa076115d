//! Loading a self-describing checkpoint keeps one copy of the parameters:
//! `MuseNet::from_checkpoint` builds the model and decodes every entry
//! straight into its parameters' buffers, so it allocates the parameters,
//! the file's bytes and little else, and leaves nothing on the tensor
//! arena's shelves.
//!
//! A test binary of its own: the counting global allocator below sees every
//! allocation in the process, so it counts only on the thread that asks.

use muse_tensor::arena;
use muse_traffic::{GridMap, SubSeriesSpec};
use musenet::{MuseNet, MuseNetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Only `alloc` is overridden: the default `alloc_zeroed` and `realloc`
/// allocate through it, so every byte requested is counted.
// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counting touches only a thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get().map(|n| n + layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATED.with(|c| c.set(Some(0)));
    let out = f();
    let bytes = ALLOCATED.with(|c| c.replace(None)).unwrap_or(0);
    (out, bytes)
}

#[test]
fn from_checkpoint_allocates_the_parameters_and_the_file_once() {
    // The model `muse-serve` boots in the serving benchmark: a 4x5 grid,
    // the paper's sub-series at 24 intervals a day, two ResPlus blocks.
    let mut cfg = MuseNetConfig::cpu_profile(GridMap::new(4, 5), SubSeriesSpec::paper_default(24));
    cfg.resplus_blocks = 2;
    let saved = MuseNet::new(cfg);
    assert_eq!(saved.param_count(), 66_306);
    let path = std::env::temp_dir().join(format!("muse-ckpt-alloc-{}.ckpt", std::process::id()));
    saved.save_with_config(&path).unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len() as usize;

    arena::clear();
    let (loaded, bytes) = allocated_by(|| MuseNet::from_checkpoint(&path));
    std::fs::remove_file(&path).ok();
    let loaded = loaded.unwrap();

    let param_bytes = 4 * saved.param_count();
    let bound = param_bytes + file_bytes + (64 << 10);
    assert!(
        bytes <= bound,
        "from_checkpoint allocated {bytes} B: parameters {param_bytes} B, file {file_bytes} B, bound {bound} B"
    );
    assert_eq!(arena::stats().retained_bytes, 0, "loading left buffers on the arena's shelves");
    for (a, b) in saved.params().iter().zip(loaded.params()) {
        let bits = |p: &muse_nn::ParamRef| {
            p.with_value(|v| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(a), bits(&b), "{}", a.name());
    }
}
