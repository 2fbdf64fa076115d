//! Inter-op fleet scheduler: run N independent jobs (typically whole model
//! trainings) concurrently, each confined to one worker thread.
//!
//! ## Why a second scheduler
//!
//! The [`ThreadPool`](crate::ThreadPool) parallelizes *inside* one kernel
//! (intra-op). Training a fleet of small models leaves most cores idle
//! there: each kernel is too small to split profitably. This module adds
//! the inter-op layer — whole trainings as the unit of work — with the
//! intra-op budget partitioned across active jobs so the two layers never
//! oversubscribe the machine.
//!
//! ## Thread confinement
//!
//! Models and `Tape`s are `!Send`, so a job is a `Send` closure that
//! *builds and consumes* its model entirely inside the worker thread (the
//! same pattern `muse-serve`'s `Engine` uses) and returns plain `Send`
//! data. Workers pull `(index, job)` pairs from a shared queue — dynamic
//! load balancing without ever moving a live model across threads.
//!
//! ## Determinism contract
//!
//! [`run_fleet`] returns results **in submission order** for every
//! `MUSE_JOBS` value, and each job's arithmetic is fixed by its own inputs
//! (callers seed each model independently). Scheduling decides only *when*
//! a job runs, never *what* it computes, so fleet output is bit-identical
//! to the `MUSE_JOBS=1` sequential run — the `fleet_determinism`
//! integration test in `muse-eval` proves this across
//! `MUSE_JOBS × MUSE_THREADS × MUSE_SIMD`.
//!
//! ## Oversubscription rule
//!
//! With `j` concurrent jobs and an intra-op budget of `t` threads (the
//! caller's [`current_threads`](crate::current_threads)), every worker
//! installs a private pool of `max(1, t / j)` threads, so total
//! concurrency never exceeds `max(j, t)`. Inter-op takes precedence: when
//! `j > t`, each job runs single-threaded.

use crate::pool::in_worker;
use muse_obs as obs;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A type-erased fleet job: built on the caller, run to completion on one
/// worker thread, returning `Send` data.
pub type FleetJob<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// Jobs admitted to [`run_fleet`] queues but not yet started, process-wide.
static QUEUED_JOBS: AtomicU64 = AtomicU64::new(0);
/// Fleet jobs currently executing, process-wide.
static ACTIVE_JOBS: AtomicU64 = AtomicU64::new(0);

/// Publish fleet occupancy to the gauge registry (`muse_sched_active_jobs`
/// / `muse_sched_queue_depth` on `/metrics`). The atomics are always kept
/// accurate so the first enabled read is already correct.
fn publish_sched_gauges() {
    if obs::enabled() {
        obs::gauge("sched.active_jobs").set(ACTIVE_JOBS.load(Ordering::Relaxed) as f64);
        obs::gauge("sched.queue_depth").set(QUEUED_JOBS.load(Ordering::Relaxed) as f64);
    }
}

/// Concurrent-jobs count requested by the environment: `MUSE_JOBS` if set
/// to a positive integer, otherwise 1 (sequential — today's behavior).
pub fn env_jobs() -> usize {
    match std::env::var("MUSE_JOBS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("muse-parallel: ignoring invalid MUSE_JOBS={v:?}");
                1
            }
        },
        Err(_) => 1,
    }
}

thread_local! {
    /// Test/bench-scoped jobs override stack (innermost wins).
    static JOBS_OVERRIDE: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Set while a fleet worker executes a job; nested `run_fleet` calls
    /// run inline so fleets never recursively multiply threads.
    static IN_FLEET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Concurrency the current thread's [`run_fleet`] would use before
/// clamping to the job count: the innermost [`with_jobs`] override, else
/// `MUSE_JOBS`.
pub fn current_jobs() -> usize {
    JOBS_OVERRIDE.with(|o| o.borrow().last().copied()).unwrap_or_else(env_jobs)
}

/// Pops the jobs override pushed by [`with_jobs`] / [`override_jobs`].
pub struct JobsOverrideGuard(());

impl Drop for JobsOverrideGuard {
    fn drop(&mut self) {
        JOBS_OVERRIDE.with(|o| {
            o.borrow_mut().pop();
        });
    }
}

/// Install a jobs override on this thread until the guard drops. The
/// guard form exists for callers that can't wrap a closure (e.g.
/// `bench_pair`'s enter/exit hooks); prefer [`with_jobs`].
pub fn override_jobs(jobs: usize) -> JobsOverrideGuard {
    JOBS_OVERRIDE.with(|o| o.borrow_mut().push(jobs.max(1)));
    JobsOverrideGuard(())
}

/// Run `f` with [`run_fleet`] on this thread using `jobs` concurrent
/// workers, regardless of `MUSE_JOBS`. Intended for tests and benches that
/// sweep job counts within one process.
pub fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    let _guard = override_jobs(jobs);
    f()
}

/// Intra-op threads each of `jobs` concurrent workers should use, given
/// this thread's total budget: `max(1, current_threads() / jobs)`.
pub fn partition_threads(jobs: usize) -> usize {
    (crate::current_threads() / jobs.max(1)).max(1)
}

/// Run `jobs` to completion with up to [`current_jobs`] of them executing
/// concurrently, returning their results **in submission order**.
///
/// Each worker thread installs a private intra-op pool of
/// [`partition_threads`]`(j)` threads (no oversubscription) and drains a
/// shared queue — a fast job's worker immediately steals the next pending
/// one. With an effective concurrency
/// of 1 (the default), jobs run inline on the caller in order, preserving
/// today's sequential behavior exactly.
///
/// Telemetry per job (when observability is on): a `sched.job` span (trace
/// rows + profile root), a `sched.job` event carrying the fleet
/// label / job index / worker ordinal / duration, and the
/// `sched.active_jobs` / `sched.queue_depth` gauges plus the
/// `sched.jobs_completed` counter.
///
/// A panicking job does not abort the fleet: remaining jobs still run, and
/// the first panic is re-raised here afterwards — mirroring
/// [`ThreadPool::join_all`](crate::ThreadPool::join_all).
pub fn run_fleet<'a, R: Send>(label: &str, jobs: Vec<FleetJob<'a, R>>) -> Vec<R> {
    let n = jobs.len();
    // Nested fleets (a fleet job submitting its own fleet) run inline, like
    // nested intra-op dispatch: concurrency is decided once, at the top.
    let fleet_width =
        if IN_FLEET.with(|f| f.get()) || in_worker() { 1 } else { current_jobs().min(n).max(1) };
    if fleet_width <= 1 {
        let mut out = Vec::with_capacity(n);
        for (idx, job) in jobs.into_iter().enumerate() {
            out.push(run_job(label, idx, 0, 0, job));
        }
        return out;
    }

    // Intra-op budget is read on the *caller* (so `with_threads` test
    // overrides are honored) and divided across workers.
    let per_job_threads = partition_threads(fleet_width);
    let queue: Mutex<VecDeque<(usize, FleetJob<'a, R>)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    QUEUED_JOBS.fetch_add(n as u64, Ordering::Relaxed);
    publish_sched_gauges();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for worker in 0..fleet_width {
            let queue = &queue;
            let slots = &slots;
            let panicked = &panicked;
            std::thread::Builder::new()
                .name(format!("muse-fleet-{worker}"))
                .spawn_scoped(scope, move || {
                    IN_FLEET.with(|f| f.set(true));
                    // The worker's private intra-op pool: its share of the
                    // caller's thread budget, installed as a thread-local
                    // override so every kernel the job runs lands there.
                    crate::with_threads(per_job_threads, || loop {
                        let next = queue.lock().unwrap_or_else(|p| p.into_inner()).pop_front();
                        let Some((idx, job)) = next else { break };
                        QUEUED_JOBS.fetch_sub(1, Ordering::Relaxed);
                        publish_sched_gauges();
                        match catch_unwind(AssertUnwindSafe(|| {
                            run_job(label, idx, worker, per_job_threads, job)
                        })) {
                            Ok(r) => {
                                *slots[idx].lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
                            }
                            Err(p) => {
                                let mut first = panicked.lock().unwrap_or_else(|p| p.into_inner());
                                if first.is_none() {
                                    *first = Some(p);
                                }
                            }
                        }
                    });
                })
                .expect("spawn muse-fleet worker");
        }
    });

    if let Some(p) = panicked.into_inner().unwrap_or_else(|p| p.into_inner()) {
        resume_unwind(p);
    }
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(|p| p.into_inner()).expect("every fleet job ran"))
        .collect()
}

/// Execute one fleet job with full instrumentation.
fn run_job<R>(label: &str, idx: usize, worker: usize, threads: usize, job: FleetJob<'_, R>) -> R {
    ACTIVE_JOBS.fetch_add(1, Ordering::Relaxed);
    publish_sched_gauges();
    // The span records trace span rows and the duration histogram that
    // roots the job's profile stacks; it degrades to a single relaxed
    // load when obs is off.
    let _span = obs::span("sched.job");
    let t0 = Instant::now();
    let out = job();
    let dur_ns = t0.elapsed().as_nanos() as f64;
    ACTIVE_JOBS.fetch_sub(1, Ordering::Relaxed);
    if obs::enabled() {
        obs::counter("sched.jobs_completed").add(1);
    }
    publish_sched_gauges();
    obs::emit_with("sched.job", || {
        vec![
            ("fleet", obs::Json::Str(label.to_string())),
            ("job", obs::Json::Num(idx as f64)),
            ("worker", obs::Json::Num(worker as f64)),
            ("threads", obs::Json::Num(threads as f64)),
            ("dur_ns", obs::Json::Num(dur_ns)),
        ]
    });
    out
}

#[cfg(test)]
mod tests {
    //! Tests that run a fleet hold `obs::test_lock()`: the `sched.*`
    //! counters are process-global, and one test asserts exact counts.
    use super::*;

    #[test]
    fn env_jobs_defaults_to_one() {
        // The test runner doesn't set MUSE_JOBS; the default must be the
        // sequential behavior.
        assert!(env_jobs() >= 1);
        assert!(current_jobs() >= 1);
    }

    #[test]
    fn with_jobs_overrides_nest() {
        with_jobs(3, || {
            assert_eq!(current_jobs(), 3);
            with_jobs(5, || assert_eq!(current_jobs(), 5));
            assert_eq!(current_jobs(), 3);
        });
    }

    #[test]
    fn override_guard_pops_on_drop() {
        let before = current_jobs();
        {
            let _g = override_jobs(7);
            assert_eq!(current_jobs(), 7);
        }
        assert_eq!(current_jobs(), before);
    }

    fn squares(n: usize) -> Vec<FleetJob<'static, u64>> {
        (0..n).map(|i| Box::new(move || (i * i) as u64) as FleetJob<'static, u64>).collect()
    }

    #[test]
    fn run_fleet_preserves_submission_order() {
        let _g = obs::test_lock();
        for jobs in [1usize, 2, 4, 9] {
            let out = with_jobs(jobs, || run_fleet("test.squares", squares(9)));
            assert_eq!(out, (0..9).map(|i| (i * i) as u64).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn run_fleet_borrows_from_caller() {
        let _g = obs::test_lock();
        let data: Vec<u64> = (0..16).collect();
        let jobs: Vec<FleetJob<'_, u64>> =
            data.chunks(4).map(|c| Box::new(move || c.iter().sum::<u64>()) as FleetJob<'_, u64>).collect();
        let sums = with_jobs(2, || run_fleet("test.borrow", jobs));
        assert_eq!(sums, vec![6, 22, 38, 54]);
    }

    #[test]
    fn workers_partition_intra_op_budget() {
        let _g = obs::test_lock();
        // Budget 4, 2 workers → each job sees a 2-thread intra-op pool.
        let seen = crate::with_threads(4, || {
            assert_eq!(partition_threads(2), 2);
            with_jobs(2, || {
                run_fleet(
                    "test.partition",
                    (0..4).map(|_| Box::new(crate::current_threads) as FleetJob<'static, usize>).collect(),
                )
            })
        });
        assert_eq!(seen, vec![2, 2, 2, 2]);
        // More jobs than budget → single-threaded jobs, never zero.
        crate::with_threads(2, || assert_eq!(partition_threads(8), 1));
    }

    #[test]
    fn sequential_fleet_runs_inline_with_callers_pool() {
        let _g = obs::test_lock();
        // jobs=1 must not spawn workers: the caller's thread-local pool
        // override stays visible inside every job.
        crate::with_threads(3, || {
            let seen = with_jobs(1, || {
                run_fleet("test.inline", vec![Box::new(crate::current_threads) as FleetJob<'static, usize>])
            });
            assert_eq!(seen, vec![3]);
        });
    }

    #[test]
    fn nested_fleet_runs_inline() {
        let _g = obs::test_lock();
        let out = with_jobs(2, || {
            run_fleet(
                "test.outer",
                (0..2)
                    .map(|i| {
                        Box::new(move || {
                            // An inner fleet inside a fleet job must not
                            // spawn another layer of workers.
                            let inner = run_fleet(
                                "test.inner",
                                (0..3)
                                    .map(|j| Box::new(move || (10 * i + j) as u64) as FleetJob<'static, u64>)
                                    .collect(),
                            );
                            inner.iter().sum::<u64>()
                        }) as FleetJob<'static, u64>
                    })
                    .collect(),
            )
        });
        assert_eq!(out, vec![3, 33]);
    }

    #[test]
    fn panic_propagates_after_other_jobs_finish() {
        let _g = obs::test_lock();
        use std::sync::atomic::AtomicUsize;
        let survived = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<FleetJob<'_, ()>> = (0..4)
                .map(|i| {
                    let survived = &survived;
                    Box::new(move || {
                        if i == 1 {
                            panic!("fleet job blew up");
                        }
                        survived.fetch_add(1, Ordering::Relaxed);
                    }) as FleetJob<'_, ()>
                })
                .collect();
            with_jobs(2, || run_fleet("test.panic", jobs));
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(survived.load(Ordering::Relaxed), 3, "non-panicking jobs still ran");
    }

    #[test]
    fn job_telemetry_accumulates_when_enabled() {
        let _g = obs::test_lock();
        obs::enable();
        let completed = obs::counter("sched.jobs_completed").get();
        let out = with_jobs(2, || run_fleet("test.telemetry", squares(6)));
        assert_eq!(out.len(), 6);
        assert_eq!(obs::counter("sched.jobs_completed").get(), completed + 6);
        // Fleet is drained: both gauges must read zero again.
        assert_eq!(obs::gauge("sched.active_jobs").get(), 0.0);
        assert_eq!(obs::gauge("sched.queue_depth").get(), 0.0);
        obs::disable();
    }
}
