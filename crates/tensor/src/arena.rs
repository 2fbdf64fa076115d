//! The buffer arena: the process's one pool of recycled `Vec<f32>`
//! buffers, shared by tensor storage and the conv kernels' column buffers.
//!
//! MUSE-Net's training graph has the same shape every batch, so the steady
//! state re-allocates the same set of buffers over and over. The arena
//! breaks that cycle: every tensor's storage is returned here on drop (see
//! `impl Drop for Tensor`), kernels return their temporaries with
//! [`recycle`], and the constructors and kernels in this crate take their
//! buffers back out, making the steady-state batch (nearly)
//! allocation-free.
//!
//! ## Correctness
//!
//! Recycled buffers are ordinary initialized `Vec<f32>`s holding stale
//! values — never uninitialized memory. [`take_zeroed`] always hands out
//! zeroes; [`take_uninit`] hands out stale values and is only used by
//! kernels that provably overwrite every element before the buffer becomes
//! observable. Buffer identity therefore never influences computed values,
//! which is why pooling preserves the PR 2 determinism contract
//! (bit-identical results for any `MUSE_THREADS` and `MUSE_JOBS`) —
//! asserted by `tests/determinism.rs` and the pooled-vs-fresh training test
//! in `muse-core`.
//!
//! ## Bounds
//!
//! One mutex guards the shelves. A recycle that would pass either bound
//! (8192 buffers, 256 MiB) evicts strictly smaller shelved buffers first;
//! if every shelved buffer is at least as large, the newcomer is freed.
//! [`set_enabled`]`(false)` turns pooling off in-process (every take is a
//! fresh allocation, every recycle a free) — the comparison baseline the
//! pooled-vs-fresh tests train against.
//!
//! Raw counters are always maintained (relaxed atomics); the
//! `tensor.alloc_bytes` / `tensor.pool_hits` / `tensor.pool_misses`
//! counters and the `tensor.pool_retained_bytes` gauge are additionally
//! published to `muse-obs` when telemetry is enabled.

use muse_obs as obs;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Maximum number of retained buffers. A full MUSE-Net training step drops
/// every tape node's value plus all gradients at once (a few thousand
/// tensors); the count bound only backstops pathological churn — the real
/// memory ceiling is the byte bound.
const MAX_BUFFERS: usize = 8192;
/// Maximum retained bytes.
const MAX_BYTES: usize = 256 << 20;
/// Buffers smaller than this many elements are not worth pooling
/// (scalars and tiny shape-sized tensors churn the shelves for no win).
const MIN_POOL_LEN: usize = 32;

static POOL: BufferPool = BufferPool::new(MAX_BUFFERS, MAX_BYTES);
static ENABLED: AtomicBool = AtomicBool::new(true);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// A bounded shelf of recycled buffers keyed by capacity, so a request is
/// served by the smallest retained buffer that already fits it without
/// ever shrinking a large buffer for a small request.
struct BufferPool {
    shelves: Mutex<Shelves>,
    max_buffers: usize,
    max_bytes: usize,
}

/// The shelves plus their occupancy, all under the pool's one mutex.
struct Shelves {
    by_cap: BTreeMap<usize, Vec<Vec<f32>>>,
    buffers: usize,
    bytes: usize,
}

impl Shelves {
    fn pop_from(&mut self, cap: usize) -> Option<Vec<f32>> {
        let shelf = self.by_cap.get_mut(&cap)?;
        let buf = shelf.pop()?;
        if shelf.is_empty() {
            self.by_cap.remove(&cap);
        }
        self.buffers -= 1;
        self.bytes -= cap * std::mem::size_of::<f32>();
        Some(buf)
    }
}

impl BufferPool {
    const fn new(max_buffers: usize, max_bytes: usize) -> Self {
        BufferPool {
            shelves: Mutex::new(Shelves { by_cap: BTreeMap::new(), buffers: 0, bytes: 0 }),
            max_buffers,
            max_bytes,
        }
    }

    /// Recycling runs inside `Tensor`'s `Drop`, where a panic could abort,
    /// so a poisoned lock is recovered: no panic can stop an update to
    /// [`Shelves`] half-way.
    fn lock(&self) -> std::sync::MutexGuard<'_, Shelves> {
        self.shelves.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Pop a recycled buffer whose capacity is at least `len`, preferring
    /// the smallest fit. Contents and `len()` are whatever the previous
    /// owner left.
    fn try_take(&self, len: usize) -> Option<Vec<f32>> {
        let mut shelves = self.lock();
        let cap = *shelves.by_cap.range(len..).next()?.0;
        shelves.pop_from(cap)
    }

    /// Shelve `buf`, evicting strictly smaller buffers while a bound would
    /// be exceeded (or freeing `buf` when none is smaller). Returns the
    /// bytes retained afterwards.
    fn recycle(&self, buf: Vec<f32>) -> usize {
        let cap = buf.capacity();
        let bytes = cap * std::mem::size_of::<f32>();
        let mut shelves = self.lock();
        if cap == 0 || bytes > self.max_bytes {
            return shelves.bytes;
        }
        while shelves.buffers >= self.max_buffers || shelves.bytes + bytes > self.max_bytes {
            match shelves.by_cap.keys().next().copied() {
                Some(smallest) if smallest < cap => {
                    shelves.pop_from(smallest);
                }
                _ => return shelves.bytes,
            }
        }
        shelves.buffers += 1;
        shelves.bytes += bytes;
        shelves.by_cap.entry(cap).or_default().push(buf);
        shelves.bytes
    }

    /// `(retained bytes, retained buffers)`.
    fn retained(&self) -> (usize, usize) {
        let shelves = self.lock();
        (shelves.bytes, shelves.buffers)
    }

    fn clear(&self) {
        let mut shelves = self.lock();
        shelves.by_cap.clear();
        shelves.buffers = 0;
        shelves.bytes = 0;
    }
}

/// Whether pooling is on. When off, takes are fresh allocations and
/// recycles are frees — the exact pre-arena behavior.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Toggle pooling at runtime (on by default). Used by the pooled-vs-fresh
/// bit-identity tests.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if !on {
        clear();
    }
}

/// Cached interned obs counters — the registry lookup costs a lock, and
/// tensor allocation is far hotter than any other instrumented site.
struct ObsCounters {
    alloc_bytes: &'static obs::Counter,
    hits: &'static obs::Counter,
    misses: &'static obs::Counter,
    retained: &'static obs::Gauge,
}

fn obs_counters() -> &'static ObsCounters {
    static C: OnceLock<ObsCounters> = OnceLock::new();
    C.get_or_init(|| ObsCounters {
        alloc_bytes: obs::counter("tensor.alloc_bytes"),
        hits: obs::counter("tensor.pool_hits"),
        misses: obs::counter("tensor.pool_misses"),
        retained: obs::gauge("tensor.pool_retained_bytes"),
    })
}

#[inline]
fn note_hit() {
    POOL_HITS.fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        obs_counters().hits.add(1);
    }
}

#[inline]
fn note_miss(len: usize) {
    let bytes = (len * std::mem::size_of::<f32>()) as u64;
    POOL_MISSES.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    if obs::enabled() {
        let c = obs_counters();
        c.misses.add(1);
        c.alloc_bytes.add(bytes);
    }
}

/// A buffer of exactly `len` zeroes, recycled when possible.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    if let Some(mut buf) = pooled(len) {
        buf.clear();
        buf.resize(len, 0.0);
        return buf;
    }
    vec![0.0; len]
}

/// A buffer of exactly `len` elements with **unspecified values** (stale
/// data from a recycled buffer, or zeroes when freshly allocated). Only
/// for kernels that overwrite every element before the result is read.
pub fn take_uninit(len: usize) -> Vec<f32> {
    if let Some(mut buf) = pooled(len) {
        buf.resize(len, 0.0);
        return buf;
    }
    vec![0.0; len]
}

/// A buffer of exactly `len` copies of `value`.
pub fn take_full(len: usize, value: f32) -> Vec<f32> {
    let mut buf = take_uninit(len);
    buf.fill(value);
    buf
}

/// A recycled (or fresh) copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    if let Some(mut buf) = pooled(src.len()) {
        buf.clear();
        buf.extend_from_slice(src);
        return buf;
    }
    src.to_vec()
}

fn pooled(len: usize) -> Option<Vec<f32>> {
    let buf = if len < MIN_POOL_LEN || !enabled() { None } else { POOL.try_take(len) };
    match buf {
        Some(_) => note_hit(),
        None => note_miss(len),
    }
    buf
}

/// Return a buffer to the arena (no-op free for tiny buffers or when
/// pooling is disabled). Called by `Tensor`'s `Drop` for every tensor and
/// by kernels for their temporaries.
pub fn recycle(buf: Vec<f32>) {
    if buf.capacity() < MIN_POOL_LEN || !enabled() {
        return;
    }
    let retained = POOL.recycle(buf);
    if obs::enabled() {
        obs_counters().retained.set(retained as f64);
    }
}

/// Arena counters since process start (raw, always maintained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes freshly allocated (pool misses × request size).
    pub alloc_bytes: u64,
    /// Takes served from the pool.
    pub pool_hits: u64,
    /// Takes that fell back to a fresh allocation.
    pub pool_misses: u64,
    /// Bytes currently shelved in the pool.
    pub retained_bytes: u64,
    /// Buffers currently shelved in the pool.
    pub retained_buffers: u64,
}

/// Snapshot the arena counters.
pub fn stats() -> ArenaStats {
    let (bytes, buffers) = POOL.retained();
    ArenaStats {
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        pool_hits: POOL_HITS.load(Ordering::Relaxed),
        pool_misses: POOL_MISSES.load(Ordering::Relaxed),
        retained_bytes: bytes as u64,
        retained_buffers: buffers as u64,
    }
}

/// Drop every retained buffer (tests; frees memory, keeps counters).
pub fn clear() {
    POOL.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// Serializes tests that toggle the global arena switch.
    pub(crate) fn arena_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn dropped_tensor_storage_is_reused() {
        let _g = arena_test_lock();
        set_enabled(true);
        // Other tests share the global pool, so a specific buffer can be
        // stolen between drop and take; retry until we observe reuse.
        let mut reused = false;
        for _ in 0..32 {
            let t = Tensor::full(&[61, 67], 3.0); // distinctive size
            let ptr = t.as_slice().as_ptr();
            drop(t); // storage recycles into the arena
            let before = stats();
            let t2 = Tensor::zeros(&[61, 67]);
            let after = stats();
            assert!(t2.as_slice().iter().all(|&v| v == 0.0), "recycled zeros must be zeroed");
            if t2.as_slice().as_ptr() == ptr {
                assert!(after.pool_hits > before.pool_hits, "ptr reuse must be counted as a hit");
                reused = true;
                break;
            }
        }
        assert!(reused, "dropped storage was never reused across 32 attempts");
    }

    #[test]
    fn live_tensors_never_alias() {
        let _g = arena_test_lock();
        set_enabled(true);
        clear();
        let a = Tensor::full(&[128], 1.0);
        let b = Tensor::full(&[128], 2.0);
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr(), "live tensors must not share storage");
        assert!(a.as_slice().iter().all(|&v| v == 1.0));
        assert!(b.as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn disabled_arena_always_allocates() {
        let _g = arena_test_lock();
        set_enabled(false);
        let before = stats();
        drop(Tensor::zeros(&[256]));
        let t = Tensor::zeros(&[256]);
        let after = stats();
        assert!(after.alloc_bytes >= before.alloc_bytes + 2 * 256 * 4, "every take allocates while disabled");
        drop(t);
        set_enabled(true);
    }

    #[test]
    fn tiny_buffers_are_not_pooled() {
        // Below MIN_POOL_LEN both take and recycle bypass the pool entirely:
        // the buffer handed out is always a fresh allocation.
        let _g = arena_test_lock();
        set_enabled(true);
        let before = stats();
        let v = take_zeroed(2);
        recycle(v);
        let after = stats();
        assert!(after.alloc_bytes >= before.alloc_bytes + 2 * 4, "tiny takes always allocate");
    }

    #[test]
    fn smallest_fit_is_preferred() {
        let pool = BufferPool::new(8, usize::MAX);
        pool.recycle(Vec::with_capacity(1024));
        pool.recycle(Vec::with_capacity(64));
        let buf = pool.try_take(50).expect("a 64-capacity buffer fits 50");
        assert!(buf.capacity() >= 50 && buf.capacity() < 1024, "got {}", buf.capacity());
        // The big buffer is still shelved for bigger requests.
        assert!(pool.try_take(512).is_some());
        assert!(pool.try_take(1).is_none());
    }

    #[test]
    fn count_bound_is_enforced() {
        let pool = BufferPool::new(1, usize::MAX);
        pool.recycle(Vec::with_capacity(16));
        pool.recycle(Vec::with_capacity(16)); // beyond max_buffers, nothing smaller: freed
        assert_eq!(pool.retained(), (16 * 4, 1));
    }

    #[test]
    fn oversize_buffer_is_freed() {
        let pool = BufferPool::new(8, 16);
        pool.recycle(Vec::with_capacity(100)); // 400 bytes > 16-byte bound
        assert_eq!(pool.retained(), (0, 0));
    }

    #[test]
    fn full_pool_evicts_smaller_buffers() {
        // Count bound: a newcomer displaces the smallest shelved buffer.
        let pool = BufferPool::new(2, usize::MAX);
        pool.recycle(Vec::with_capacity(32));
        pool.recycle(Vec::with_capacity(64));
        pool.recycle(Vec::with_capacity(1024));
        assert_eq!(pool.retained().1, 2);
        assert!(pool.try_take(1024).is_some(), "the newcomer was shelved");
        assert!(pool.try_take(64).is_some(), "the larger incumbent survived");
        assert!(pool.try_take(1).is_none(), "the smallest incumbent was evicted");

        // Byte bound: same policy, driven by retained bytes.
        let pool = BufferPool::new(8, 4096);
        pool.recycle(Vec::with_capacity(512)); // 2048 bytes
        pool.recycle(Vec::with_capacity(1024)); // 4096 bytes: evicts the 512
        assert_eq!(pool.retained(), (4096, 1));
        assert!(pool.try_take(1024).is_some());
        // A pool full of larger buffers frees the newcomer instead.
        let pool = BufferPool::new(8, 4096);
        pool.recycle(Vec::with_capacity(1024));
        pool.recycle(Vec::with_capacity(256));
        assert_eq!(pool.retained(), (4096, 1));
    }

    #[test]
    fn clear_frees_everything() {
        let pool = BufferPool::new(8, usize::MAX);
        pool.recycle(Vec::with_capacity(128));
        assert!(pool.retained().0 > 0);
        pool.clear();
        assert_eq!(pool.retained(), (0, 0));
        assert!(pool.try_take(0).is_none());
    }

    #[test]
    fn concurrent_recycles_never_exceed_the_byte_bound() {
        // Both bounds are checked under the pool's mutex, so retained bytes
        // stay within the bound exactly, whatever the interleaving.
        const BOUND: usize = 4096;
        let pool = BufferPool::new(64, BOUND);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..200 {
                        let cap = 32 << ((t + i) % 5); // 128 B .. 2 KiB
                        let retained = pool.recycle(Vec::with_capacity(cap));
                        assert!(retained <= BOUND, "retained {retained} B past the {BOUND} B bound");
                        if i % 3 == 0 {
                            drop(pool.try_take(cap));
                        }
                    }
                });
            }
        });
        assert!(pool.retained().0 <= BOUND);
    }
}
