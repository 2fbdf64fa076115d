//! The scoped thread pool.
//!
//! Workers are long-lived OS threads fed boxed closures from a shared
//! MPMC job queue (a `Mutex<VecDeque>` + `Condvar` — the std-only
//! equivalent of a channel that also supports non-blocking steals, which
//! the submitting thread uses to help drain its own scope instead of
//! idling). Borrowing (non-`'static`) closures are supported through a
//! scope discipline: [`ThreadPool::join_all`] never returns until every
//! submitted job has finished, so the caller's borrows outlive all worker
//! access. Lifetime erasure at the submission boundary is the one `unsafe`
//! block in the crate.
//!
//! Determinism contract: the pool never changes *what* is computed, only
//! *where*. Callers partition output buffers into disjoint `chunks_mut`
//! regions and each element is written by exactly one job running exactly
//! the code the sequential path would run — no atomics on floats, no
//! thread-count-dependent accumulation order.

use muse_obs as obs;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A type-erased, lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Jobs sitting in queues, process-wide (pools share the telemetry so the
/// gauges describe total utilization, which is what `/metrics` wants).
static QUEUED: AtomicU64 = AtomicU64::new(0);
/// Threads currently executing a pool job, process-wide.
static ACTIVE: AtomicU64 = AtomicU64::new(0);

/// Publish queue/worker occupancy to the gauge registry. The atomics are
/// always kept accurate so the first enabled read is already correct.
fn publish_pool_gauges() {
    static GAUGES: OnceLock<[&obs::Gauge; 2]> = OnceLock::new();
    if obs::enabled() {
        let [queue_depth, active_workers] = GAUGES
            .get_or_init(|| [obs::gauge("parallel.queue_depth"), obs::gauge("parallel.active_workers")]);
        queue_depth.set(QUEUED.load(Ordering::Relaxed) as f64);
        active_workers.set(ACTIVE.load(Ordering::Relaxed) as f64);
    }
}

thread_local! {
    /// Set while a pool worker (or a caller draining the queue) executes a
    /// job; nested dispatch runs inline instead of re-entering the pool,
    /// which both avoids deadlock and keeps per-job work sequential.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is executing a pool job.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// MPMC job queue. Workers block on `pop_blocking`; the submitting thread
/// steals with `try_pop` (never blocking while a worker sleeps, because
/// waiters release the lock inside `Condvar::wait`).
struct JobQueue {
    jobs: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    queue: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            jobs: Mutex::new(QueueState { queue: VecDeque::new(), closed: false }),
            available: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut state = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        state.queue.push_back(job);
        drop(state);
        QUEUED.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            static SUBMITTED: OnceLock<&obs::Counter> = OnceLock::new();
            SUBMITTED.get_or_init(|| obs::counter("parallel.jobs_submitted")).add(1);
        }
        publish_pool_gauges();
        self.available.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        let job = self.jobs.lock().unwrap_or_else(|p| p.into_inner()).queue.pop_front();
        if job.is_some() {
            QUEUED.fetch_sub(1, Ordering::Relaxed);
            publish_pool_gauges();
        }
        job
    }

    fn pop_blocking(&self) -> Option<Job> {
        let mut state = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(job) = state.queue.pop_front() {
                drop(state);
                QUEUED.fetch_sub(1, Ordering::Relaxed);
                publish_pool_gauges();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn close(&self) {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.available.notify_all();
    }
}

/// Completion state shared between one `join_all` call and its jobs.
struct JoinState {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// A fixed-size pool of long-lived worker threads.
///
/// A pool of `threads == n` runs jobs with total concurrency `n`: `n - 1`
/// workers plus the submitting thread, which drains the shared queue while
/// it waits. `n <= 1` means strictly sequential execution on the caller —
/// the workers and queue are never touched (or even spawned).
pub struct ThreadPool {
    threads: usize,
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Build a pool with total concurrency `threads` (clamped to >= 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(JobQueue::new());
        let workers = (1..threads)
            .map(|i| {
                let q = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("muse-parallel-{i}"))
                    .spawn(move || {
                        while let Some(job) = q.pop_blocking() {
                            run_marked(job);
                        }
                    })
                    .expect("spawn muse-parallel worker")
            })
            .collect();
        ThreadPool { threads, queue, workers }
    }

    /// Total concurrency of this pool (workers + submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run borrowing jobs to completion, possibly in parallel.
    ///
    /// Jobs may borrow from the caller's stack: this function does not
    /// return until every job has finished (even if one panics — the panic
    /// is re-raised here after the others complete).
    pub fn join_all<'a>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        if self.threads <= 1 || jobs.len() <= 1 || in_worker() {
            for job in jobs {
                job();
            }
            return;
        }
        let state = Arc::new(JoinState {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        for job in jobs {
            let st = Arc::clone(&state);
            let wrapped: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    st.panicked.store(true, Ordering::Relaxed);
                }
                let mut rem = st.remaining.lock().unwrap_or_else(|p| p.into_inner());
                *rem -= 1;
                if *rem == 0 {
                    st.done.notify_all();
                }
            });
            // SAFETY: lifetime erasure only. The wrapped job borrows data
            // that lives at least as long as this `join_all` frame, and we
            // block below until `remaining == 0`, i.e. until every job has
            // run to completion — so no borrow is ever used after free.
            let wrapped: Job = unsafe { std::mem::transmute(wrapped) };
            self.queue.push(wrapped);
        }
        // Help drain the queue instead of idling; any job we pick up (ours
        // or another scope's) runs with the worker flag set so nested
        // dispatch stays inline.
        loop {
            match self.queue.try_pop() {
                Some(job) => run_marked(job),
                None => {
                    let rem = state.remaining.lock().unwrap_or_else(|p| p.into_inner());
                    if *rem == 0 {
                        break;
                    }
                    // Remaining jobs are in flight on workers; wait for the
                    // last to signal. The timed wait also guards against a
                    // job of *another* scope landing in the queue after our
                    // try_pop: wake up and look again.
                    let (rem, _) = state
                        .done
                        .wait_timeout(rem, Duration::from_millis(10))
                        .unwrap_or_else(|p| p.into_inner());
                    if *rem == 0 {
                        break;
                    }
                }
            }
        }
        if state.panicked.load(Ordering::Relaxed) {
            resume_unwind(Box::new("muse-parallel: a pool job panicked"));
        }
    }

    /// Split `data` into at most `threads` contiguous chunks (each at least
    /// `min_chunk` long, except possibly the last) and run `f(offset,
    /// chunk)` on each, in parallel. `offset` is the chunk's start index in
    /// `data`.
    ///
    /// Results are bit-identical for every pool size whenever each output
    /// element depends only on its own index — the partition changes which
    /// thread computes an element, never how.
    pub fn parallel_for_mut<T: Send, F>(&self, data: &mut [T], min_chunk: usize, f: F)
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = data.len();
        if len == 0 {
            return;
        }
        let max_chunks = len.div_ceil(min_chunk.max(1));
        let nchunks = self.threads.min(max_chunks).max(1);
        if nchunks == 1 || in_worker() {
            f(0, data);
            return;
        }
        let chunk = len.div_ceil(nchunks);
        let fref = &f;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, c)| Box::new(move || fref(i * chunk, c)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.join_all(jobs);
    }

    /// Like [`ThreadPool::parallel_for_mut`], but chunk boundaries are
    /// aligned to multiples of `row_len` — the partition a row-major GEMM
    /// needs so no output row is split across jobs. `f` receives the first
    /// row index of its chunk and the chunk itself (whole rows).
    pub fn parallel_for_rows<F>(&self, out: &mut [f32], row_len: usize, min_rows: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        assert!(row_len > 0 && out.len().is_multiple_of(row_len), "parallel_for_rows: ragged rows");
        let rows = out.len() / row_len;
        if rows == 0 {
            return;
        }
        let max_chunks = rows.div_ceil(min_rows.max(1));
        let nchunks = self.threads.min(max_chunks).max(1);
        if nchunks == 1 || in_worker() {
            f(0, out);
            return;
        }
        let rows_per = rows.div_ceil(nchunks);
        let fref = &f;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(rows_per * row_len)
            .enumerate()
            .map(|(i, c)| Box::new(move || fref(i * rows_per, c)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.join_all(jobs);
    }

    /// Map fixed-size chunks of `data` through `f`, returning one result
    /// per chunk **in chunk order**.
    ///
    /// The chunk size is caller-fixed (never derived from the pool size),
    /// so folding the returned partials sequentially yields bit-identical
    /// reductions for every `MUSE_THREADS` value.
    pub fn map_chunks<T: Sync, R: Send, F>(&self, data: &[T], chunk: usize, f: F) -> Vec<R>
    where
        F: Fn(&[T]) -> R + Sync,
    {
        let chunk = chunk.max(1);
        if data.is_empty() {
            return Vec::new();
        }
        let nchunks = data.len().div_ceil(chunk);
        let mut partials: Vec<Option<R>> = (0..nchunks).map(|_| None).collect();
        if self.threads <= 1 || nchunks == 1 || in_worker() {
            for (c, slot) in data.chunks(chunk).zip(partials.iter_mut()) {
                *slot = Some(f(c));
            }
        } else {
            let fref = &f;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
                .chunks(chunk)
                .zip(partials.iter_mut())
                .map(|(c, slot)| {
                    Box::new(move || {
                        *slot = Some(fref(c));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.join_all(jobs);
        }
        partials.into_iter().map(|r| r.expect("every chunk job ran")).collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Run a job with the worker flag set (restored even on panic — the job is
/// already wrapped in `catch_unwind` by `join_all`, but be defensive).
fn run_marked(job: Job) {
    IN_WORKER.with(|w| w.set(true));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    publish_pool_gauges();
    let result = catch_unwind(AssertUnwindSafe(job));
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    if obs::enabled() {
        static COMPLETED: OnceLock<&obs::Counter> = OnceLock::new();
        COMPLETED.get_or_init(|| obs::counter("parallel.jobs_completed")).add(1);
    }
    publish_pool_gauges();
    IN_WORKER.with(|w| w.set(false));
    if let Err(p) = result {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut data = vec![0u32; 10];
        pool.parallel_for_mut(&mut data, 1, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as u32;
            }
        });
        assert_eq!(data, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn parallel_for_covers_every_element_once() {
        let pool = ThreadPool::new(4);
        for len in [1usize, 2, 7, 64, 1000] {
            let mut data = vec![0u64; len];
            pool.parallel_for_mut(&mut data, 8, |off, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (off + i) as u64 + 1;
                }
            });
            let expect: Vec<u64> = (0..len as u64).map(|i| i + 1).collect();
            assert_eq!(data, expect, "len {len}");
        }
    }

    #[test]
    fn map_chunks_preserves_order_and_boundaries() {
        let pool = ThreadPool::new(3);
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let partials = pool.map_chunks(&data, 7, |c| c.iter().sum::<f32>());
        assert_eq!(partials.len(), 100usize.div_ceil(7));
        let total: f32 = partials.iter().sum();
        assert_eq!(total, 4950.0);
        // First partial is exactly the first 7 elements.
        assert_eq!(partials[0], (0..7).sum::<i32>() as f32);
    }

    #[test]
    fn many_jobs_all_run() {
        let pool = ThreadPool::new(4);
        let ran = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.join_all(jobs);
        assert_eq!(ran.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panic_in_job_propagates_after_all_jobs_finish() {
        let pool = ThreadPool::new(2);
        let survived = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    let survived = &survived;
                    Box::new(move || {
                        if i == 1 {
                            panic!("boom");
                        }
                        survived.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.join_all(jobs);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(survived.load(Ordering::Relaxed), 3, "non-panicking jobs still ran");
    }

    #[test]
    fn nested_parallel_for_runs_inline_without_deadlock() {
        let pool = Arc::new(ThreadPool::new(2));
        let inner_pool = Arc::clone(&pool);
        let mut outer = vec![0u32; 8];
        pool.parallel_for_mut(&mut outer, 1, move |off, chunk| {
            // Re-entering the same pool from a job must not deadlock: the
            // in_worker flag forces inline execution. (Caller-drained jobs
            // also set the flag, so this holds on every thread.)
            if in_worker() {
                let mut inner = vec![0u32; 4];
                inner_pool.parallel_for_mut(&mut inner, 1, |o, c| {
                    for (i, v) in c.iter_mut().enumerate() {
                        *v = (o + i) as u32;
                    }
                });
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (off + i) as u32 + inner[3];
                }
            } else {
                // threads=2 with 8 chunks: this closure runs via join_all,
                // so the flag is always set; keep a fallback for clarity.
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (off + i) as u32 + 3;
                }
            }
        });
        assert_eq!(outer[0], 3);
        assert_eq!(outer[7], 10);
    }

    #[test]
    fn job_counters_accumulate_when_enabled() {
        let _g = obs::test_lock();
        obs::enable();
        let submitted = obs::counter("parallel.jobs_submitted").get();
        let completed = obs::counter("parallel.jobs_completed").get();
        let pool = ThreadPool::new(2);
        let mut data = vec![0u32; 64];
        pool.parallel_for_mut(&mut data, 1, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as u32;
            }
        });
        assert!(obs::counter("parallel.jobs_submitted").get() > submitted);
        assert!(obs::counter("parallel.jobs_completed").get() > completed);
        // After join_all, nothing from this scope is queued or running.
        assert_eq!(data[63], 63);
        obs::disable();
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = ThreadPool::new(4);
        let mut data = vec![1.0f32; 256];
        pool.parallel_for_mut(&mut data, 16, |_, c| {
            for v in c {
                *v *= 2.0;
            }
        });
        drop(pool); // must not hang or leak
        assert!(data.iter().all(|&v| v == 2.0));
    }
}
