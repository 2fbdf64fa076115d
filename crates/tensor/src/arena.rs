//! The tensor-storage arena: a process-wide pool that recycles the
//! `Vec<f32>` backing stores of dropped [`Tensor`](crate::Tensor)s.
//!
//! MUSE-Net's training graph has the same shape every batch, so the steady
//! state re-allocates the same set of buffers over and over. The arena
//! breaks that cycle: every tensor's storage is returned here on drop (see
//! `impl Drop for Tensor`) and handed back out by the constructors and
//! kernels in this crate, making the steady-state batch (nearly)
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
//! (bit-identical results for any `MUSE_THREADS`) — asserted by
//! `tests/determinism.rs` and the pooled-vs-fresh training test in
//! `muse-core`.
//!
//! ## Sharding
//!
//! The arena is split into [`SHARD_COUNT`] independently locked
//! [`BufferPool`] shards. Each thread is pinned to one shard (round-robin
//! at first use), so concurrent fleet trainings (`MUSE_JOBS > 1`) recycle
//! and take from disjoint locks instead of serializing on one pool mutex.
//! A single-threaded run touches exactly one shard and behaves like the
//! old unsharded arena. The `MUSE_ARENA_MAX_MB` byte budget is enforced
//! **globally across shards** (see [`recycle`]), not per shard.
//!
//! ## Knobs
//!
//! * `MUSE_ARENA_MAX_MB` bounds retained bytes across all shards
//!   (default 256 MiB).
//! * [`set_enabled`]`(false)` turns pooling off in-process (every take is a
//!   fresh allocation, every recycle a free) — the comparison baseline the
//!   pooled-vs-fresh tests train against.
//!
//! Raw counters are always maintained (relaxed atomics); the
//! `tensor.alloc_bytes` / `tensor.pool_hits` / `tensor.pool_misses`
//! counters and the `tensor.pool_retained_bytes` gauge are additionally
//! published to `muse-obs` when telemetry is enabled, plus per-shard
//! `tensor.pool_hits.shard<k>` / `tensor.pool_misses.shard<k>` splits
//! whose sums equal the aggregate counters.

use muse_obs as obs;
use muse_parallel::BufferPool;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum number of retained buffers per shard. A full MUSE-Net training
/// step drops every tape node's value plus all gradients at once (a few
/// thousand tensors); the count bound only backstops pathological churn —
/// the real memory ceiling is the global byte bound. Kept at the old
/// unsharded value so a single-threaded run (one live shard) retains
/// exactly what it did before sharding.
const MAX_BUFFERS: usize = 8192;
/// Default retained-byte bound (overridable via `MUSE_ARENA_MAX_MB`).
const DEFAULT_MAX_MB: usize = 256;
/// Buffers smaller than this many elements are not worth pooling
/// (scalars and tiny shape-sized tensors churn the shelves for no win).
const MIN_POOL_LEN: usize = 32;
/// Number of independently locked arena shards. Enough that concurrent
/// fleet jobs (MUSE_JOBS is single-digit in practice) rarely collide.
pub const SHARD_COUNT: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(true);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// The sharded arena plus its per-shard raw counters.
struct Arena {
    shards: Vec<BufferPool>,
    shard_hits: Vec<AtomicU64>,
    shard_misses: Vec<AtomicU64>,
    /// Global retained-byte budget, enforced across all shards.
    max_bytes: usize,
}

fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| {
        // Environment is read once, at first tensor allocation.
        let max_mb = std::env::var("MUSE_ARENA_MAX_MB")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_MAX_MB);
        let max_bytes = max_mb.saturating_mul(1 << 20);
        Arena {
            // Each shard's own byte bound is the full global budget — the
            // binding constraint lives in `recycle`, which evicts across
            // shards; the per-shard bound only rejects single buffers
            // larger than the whole budget.
            shards: (0..SHARD_COUNT).map(|_| BufferPool::new(MAX_BUFFERS, max_bytes)).collect(),
            shard_hits: (0..SHARD_COUNT).map(|_| AtomicU64::new(0)).collect(),
            shard_misses: (0..SHARD_COUNT).map(|_| AtomicU64::new(0)).collect(),
            max_bytes,
        }
    })
}

/// Round-robin shard assignment, fixed per thread at first arena use:
/// concurrent fleet workers land on distinct shards (modulo collisions
/// past `SHARD_COUNT` threads) while a thread's own drop→take cycles stay
/// shard-local and keep hitting.
fn my_shard() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
        s.set(v);
        v
    })
}

fn total_retained_bytes(a: &Arena) -> usize {
    a.shards.iter().map(|s| s.retained_bytes()).sum()
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
    shard_hits: Vec<&'static obs::Counter>,
    shard_misses: Vec<&'static obs::Counter>,
}

fn obs_counters() -> &'static ObsCounters {
    static C: OnceLock<ObsCounters> = OnceLock::new();
    C.get_or_init(|| ObsCounters {
        alloc_bytes: obs::counter("tensor.alloc_bytes"),
        hits: obs::counter("tensor.pool_hits"),
        misses: obs::counter("tensor.pool_misses"),
        retained: obs::gauge("tensor.pool_retained_bytes"),
        // Counter names are interned by `&'static str`; the per-shard
        // names are composed once here and leaked (SHARD_COUNT is tiny).
        shard_hits: (0..SHARD_COUNT)
            .map(|k| obs::counter(Box::leak(format!("tensor.pool_hits.shard{k}").into_boxed_str())))
            .collect(),
        shard_misses: (0..SHARD_COUNT)
            .map(|k| obs::counter(Box::leak(format!("tensor.pool_misses.shard{k}").into_boxed_str())))
            .collect(),
    })
}

#[inline]
fn note_hit(shard: usize) {
    POOL_HITS.fetch_add(1, Ordering::Relaxed);
    arena().shard_hits[shard].fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        let c = obs_counters();
        c.hits.add(1);
        c.shard_hits[shard].add(1);
    }
}

#[inline]
fn note_miss(shard: usize, len: usize) {
    let bytes = (len * std::mem::size_of::<f32>()) as u64;
    POOL_MISSES.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    arena().shard_misses[shard].fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        let c = obs_counters();
        c.misses.add(1);
        c.alloc_bytes.add(bytes);
        c.shard_misses[shard].add(1);
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
    let shard = my_shard();
    if len < MIN_POOL_LEN || !enabled() {
        note_miss(shard, len);
        return None;
    }
    // Takes are shard-local: stealing from another shard's shelf would
    // re-introduce the cross-thread lock traffic sharding exists to avoid,
    // and a miss is just one fresh allocation.
    match arena().shards[shard].try_take(len) {
        Some(buf) => {
            note_hit(shard);
            Some(buf)
        }
        None => {
            note_miss(shard, len);
            None
        }
    }
}

/// Shelve `buf` into `shards[idx]` while keeping total retained bytes
/// across all shards within `max_bytes`, evicting strictly smaller
/// shelved buffers (own shard first, then the others) to make room.
/// Returns whether the buffer was shelved.
///
/// The budget check races benignly with concurrent recycles: each thread
/// sums the shard counters it can see, so the total can overshoot by at
/// most one in-flight buffer per thread — bounded slack, never unbounded
/// growth.
fn recycle_bounded(shards: &[BufferPool], idx: usize, buf: Vec<f32>, max_bytes: usize) -> bool {
    let cap = buf.capacity();
    let bytes = cap * std::mem::size_of::<f32>();
    if bytes > max_bytes {
        return false;
    }
    while shards.iter().map(|s| s.retained_bytes()).sum::<usize>() + bytes > max_bytes {
        let freed = shards[idx].evict_smaller_than(cap).or_else(|| {
            (0..shards.len()).filter(|&k| k != idx).find_map(|k| shards[k].evict_smaller_than(cap))
        });
        if freed.is_none() {
            // Every shelved buffer is at least this large — the newcomer
            // is the least valuable, so it is the one freed.
            return false;
        }
    }
    shards[idx].recycle(buf);
    true
}

/// Return a buffer to the arena (no-op free for tiny buffers or when
/// pooling is disabled). Called by `Tensor`'s `Drop` for every tensor.
/// The `MUSE_ARENA_MAX_MB` budget is enforced globally across shards
/// here, so N concurrent jobs still retain at most one budget in total.
pub fn recycle(buf: Vec<f32>) {
    if buf.capacity() < MIN_POOL_LEN || !enabled() {
        return;
    }
    let a = arena();
    recycle_bounded(&a.shards, my_shard(), buf, a.max_bytes);
    if obs::enabled() {
        obs_counters().retained.set(total_retained_bytes(a) as f64);
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

/// Snapshot the arena counters (aggregated across shards).
pub fn stats() -> ArenaStats {
    let a = arena();
    ArenaStats {
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        pool_hits: POOL_HITS.load(Ordering::Relaxed),
        pool_misses: POOL_MISSES.load(Ordering::Relaxed),
        retained_bytes: total_retained_bytes(a) as u64,
        retained_buffers: a.shards.iter().map(|s| s.retained_buffers() as u64).sum(),
    }
}

/// Per-shard arena counters since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Takes this shard served from its shelf.
    pub hits: u64,
    /// Takes on this shard that fell back to a fresh allocation.
    pub misses: u64,
    /// Bytes currently shelved in this shard.
    pub retained_bytes: u64,
    /// Buffers currently shelved in this shard.
    pub retained_buffers: u64,
}

/// Snapshot every shard's counters, indexed by shard. Sums across shards
/// equal the corresponding [`stats`] aggregates.
pub fn shard_stats() -> Vec<ShardStats> {
    let a = arena();
    (0..SHARD_COUNT)
        .map(|k| ShardStats {
            hits: a.shard_hits[k].load(Ordering::Relaxed),
            misses: a.shard_misses[k].load(Ordering::Relaxed),
            retained_bytes: a.shards[k].retained_bytes() as u64,
            retained_buffers: a.shards[k].retained_buffers() as u64,
        })
        .collect()
}

/// Drop every retained buffer in every shard (tests; frees memory, keeps
/// counters).
pub fn clear() {
    for shard in &arena().shards {
        shard.clear();
    }
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
    fn shard_stats_sum_to_aggregate() {
        let _g = arena_test_lock();
        set_enabled(true);
        // Generate some traffic on this thread's shard.
        for _ in 0..4 {
            drop(Tensor::zeros(&[128]));
            drop(Tensor::zeros(&[128]));
        }
        let total = stats();
        let shards = shard_stats();
        assert_eq!(shards.len(), SHARD_COUNT);
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), total.pool_hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), total.pool_misses);
        assert_eq!(shards.iter().map(|s| s.retained_bytes).sum::<u64>(), total.retained_bytes);
        assert_eq!(shards.iter().map(|s| s.retained_buffers).sum::<u64>(), total.retained_buffers);
    }

    #[test]
    fn threads_land_on_distinct_shards_and_budget_is_global() {
        // Direct test of the cross-shard budget: two "threads" (simulated
        // by explicit shard indices) recycle into a budget that only fits
        // one buffer — the total across shards must stay bounded.
        let shards: Vec<super::BufferPool> = (0..4).map(|_| super::BufferPool::new(64, 4096)).collect();
        assert!(recycle_bounded(&shards, 0, Vec::with_capacity(512), 4096)); // 2048 bytes
        assert!(recycle_bounded(&shards, 1, Vec::with_capacity(256), 4096)); // 1024 bytes
                                                                             // 2048 more would exceed 4096 total: the smaller shelf on shard 1
                                                                             // is evicted cross-shard to make room.
        assert!(recycle_bounded(&shards, 2, Vec::with_capacity(512), 4096));
        let total: usize = shards.iter().map(|s| s.retained_bytes()).sum();
        assert!(total <= 4096, "global budget exceeded: {total}");
        assert_eq!(shards[1].retained_buffers(), 0, "smaller cross-shard buffer was evicted");
        // A buffer bigger than everything shelved is itself dropped.
        assert!(!recycle_bounded(&shards, 3, Vec::with_capacity(4096), 4096));
        assert_eq!(shards[3].retained_buffers(), 0);
    }

    #[test]
    fn concurrent_threads_use_disjoint_shard_locks() {
        let _g = arena_test_lock();
        set_enabled(true);
        // Each spawned thread gets its own round-robin shard; traffic from
        // 4 threads must appear in ≥ 2 distinct shards' stats.
        let before: Vec<u64> = shard_stats().iter().map(|s| s.hits + s.misses).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        drop(Tensor::zeros(&[96]));
                    }
                });
            }
        });
        let after: Vec<u64> = shard_stats().iter().map(|s| s.hits + s.misses).collect();
        let touched = before.iter().zip(&after).filter(|(b, a)| a.checked_sub(**b).unwrap_or(0) > 0).count();
        assert!(touched >= 2, "4 threads hit only {touched} shard(s)");
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
}
