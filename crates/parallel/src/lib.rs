#![warn(missing_docs)]

//! # muse-parallel
//!
//! A zero-dependency, std-only scoped thread pool for the tensor kernels in
//! `muse-tensor`, plus the inter-op fleet scheduler.
//!
//! ## Threading model
//!
//! One global [`ThreadPool`] is sized by the `MUSE_THREADS` environment
//! variable (default: the machine's available parallelism) and lazily
//! spawned on first parallel dispatch. Kernels call the free functions
//! [`parallel_for_mut`] / [`map_chunks`], which route to the global pool —
//! or to a caller-installed override ([`with_threads`]), which is how the
//! determinism tests sweep pool sizes inside one process.
//!
//! ## Determinism contract
//!
//! Every helper here is designed so that results are **bit-identical for
//! any `MUSE_THREADS` value**:
//!
//! * [`parallel_for_mut`] hands out disjoint `chunks_mut` windows of the
//!   output; each element is computed by exactly one job running the same
//!   scalar code the sequential path runs. No atomics on floats.
//! * [`map_chunks`] uses a caller-fixed chunk size (never derived from the
//!   pool size) and returns partials in chunk order, so sequential folds
//!   of the partials associate identically regardless of thread count.
//!
//! Nested dispatch from inside a pool job always runs inline (see
//! [`pool::in_worker`]), so per-job work stays sequential and deadlock is
//! structurally impossible.
//!
//! Above the kernel-level (intra-op) pool sits the inter-op fleet layer
//! ([`scheduler`]): `MUSE_JOBS` whole trainings run concurrently, each
//! worker taking `max(1, MUSE_THREADS / MUSE_JOBS)` intra-op threads so
//! the two layers never oversubscribe the machine.

pub mod pool;
pub mod scheduler;

pub use pool::ThreadPool;
pub use scheduler::{current_jobs, env_jobs, run_fleet, with_jobs, FleetJob};

use muse_obs as obs;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = env_threads();
        obs::gauge("parallel.pool_size").set(threads as f64);
        ThreadPool::new(threads)
    })
}

/// Pool size requested by the environment: `MUSE_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn env_threads() -> usize {
    match std::env::var("MUSE_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("muse-parallel: ignoring invalid MUSE_THREADS={v:?}");
                default_threads()
            }
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

thread_local! {
    /// Test-scoped pool override stack (innermost wins).
    static OVERRIDE: RefCell<Vec<Arc<ThreadPool>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with all parallel dispatch on this thread routed to a fresh
/// pool of `threads` total concurrency. Intended for tests that sweep
/// thread counts deterministically within one process; production code
/// should rely on `MUSE_THREADS`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = Arc::new(ThreadPool::new(threads));
    OVERRIDE.with(|o| o.borrow_mut().push(Arc::clone(&pool)));
    // Pop the override even if `f` panics so later tests aren't poisoned.
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

/// Dispatch `f` against the innermost override pool, or the global pool.
fn dispatch<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    let local = OVERRIDE.with(|o| o.borrow().last().cloned());
    match local {
        Some(pool) => f(&pool),
        None => f(global()),
    }
}

/// Total concurrency the current thread's dispatch would use.
pub fn current_threads() -> usize {
    dispatch(|p| p.threads())
}

/// Parallel iteration over disjoint chunks of `data`; see
/// [`ThreadPool::parallel_for_mut`].
pub fn parallel_for_mut<T: Send, F>(data: &mut [T], min_chunk: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    dispatch(|p| p.parallel_for_mut(data, min_chunk, f));
}

/// Parallel map over fixed-size chunks, partials in chunk order; see
/// [`ThreadPool::map_chunks`].
pub fn map_chunks<T: Sync, R: Send, F>(data: &[T], chunk: usize, f: F) -> Vec<R>
where
    F: Fn(&[T]) -> R + Sync,
{
    dispatch(|p| p.map_chunks(data, chunk, f))
}

/// Row-aligned parallel iteration; see [`ThreadPool::parallel_for_rows`].
pub fn parallel_for_rows<F>(out: &mut [f32], row_len: usize, min_rows: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    dispatch(|p| p.parallel_for_rows(out, row_len, min_rows, f));
}

/// Run borrowing jobs to completion on the current pool; see
/// [`ThreadPool::join_all`].
pub fn join_all(jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
    dispatch(|p| p.join_all(jobs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_dispatch() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn free_functions_route_through_override() {
        with_threads(4, || {
            let mut data = vec![0u32; 100];
            parallel_for_mut(&mut data, 4, |off, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (off + i) as u32;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
            let partials = map_chunks(&data, 32, |c| c.len());
            assert_eq!(partials, vec![32, 32, 32, 4]);
        });
    }

    #[test]
    fn env_threads_has_sane_floor() {
        assert!(env_threads() >= 1);
        assert!(default_threads() >= 1);
    }
}
