//! A warm batch-1 rollout step allocates exactly as often as the bare
//! `infer_raw` pass it wraps: staging the sub-series and keeping the step's
//! prediction add no heap allocation of their own, so serving through the
//! shared rollout costs no more per step than a hand-staged pass.
//!
//! The pass is counted inside the step it belongs to. Counting a separate
//! pass would not compare like with like: the arena's shelf bookkeeping
//! allocates a little more or less depending on which tensors are alive.
//!
//! A warm pass at this shape may also make at most
//! [`FULL_PASS_ALLOCATIONS`] allocations for the Full model and
//! [`WITHOUT_MULTI_DISENTANGLE_PASS_ALLOCATIONS`] for
//! `w/o-MultiDisentangle`, so work that removes allocations from the
//! forward pass can only move the counts down.
//!
//! A test binary of its own: the counting global allocator below sees every
//! allocation in the process, so it counts only on the thread that asks.
//! Kernels run on one thread here, so that is every allocation of a pass.

use muse_autograd::Tape;
use muse_nn::Session;
use muse_parallel::with_threads;
use muse_tensor::init::SeededRng;
use muse_tensor::Tensor;
use muse_traffic::subseries::{Batch, Rollout, SubSeriesSpec};
use muse_traffic::{FlowSeries, GridMap};
use musenet::{AblationVariant, MuseNet, MuseNetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Only `alloc` is overridden: the default `alloc_zeroed` and `realloc`
/// allocate through it, so every allocation is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations a warm Full `infer_raw` pass makes at this test's
/// shape (4×5 grid, d 16, k 32, one thread): the largest of its six steps,
/// 211–216 when this bound was set. Lower it when a change removes
/// allocations from the forward pass; to re-derive it, print `bare` for
/// each Full step below and take the largest.
const FULL_PASS_ALLOCATIONS: usize = 216;

/// The same bound for `w/o-MultiDisentangle`, whose steps made 268–269
/// allocations when it was set; re-derive it the same way.
const WITHOUT_MULTI_DISENTANGLE_PASS_ALLOCATIONS: usize = 269;

/// Heap allocations counted on this thread so far.
fn counted() -> usize {
    ALLOCATIONS.with(|c| c.get()).expect("counting")
}

/// Heap allocations made on this thread while `f` runs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    let out = f();
    let count = ALLOCATIONS.with(|c| c.replace(None)).unwrap_or(0);
    (out, count)
}

#[test]
fn a_warm_rollout_step_allocates_what_its_forward_pass_does() {
    let grid = GridMap::new(4, 5);
    let spec = SubSeriesSpec { lc: 3, lp: 1, lt: 1, intervals_per_day: 6, trend_days: 7 };
    let base = spec.min_target();
    let horizons = spec.intervals_per_day;
    let mut rng = SeededRng::new(5);
    let flows = FlowSeries::from_tensor(grid, Tensor::rand_uniform(&mut rng, &[base + 1, 2, 4, 5], 0.0, 1.0));
    with_threads(1, || {
        for (variant, bound) in [
            (AblationVariant::Full, FULL_PASS_ALLOCATIONS),
            (AblationVariant::WithoutMultiDisentangle, WITHOUT_MULTI_DISENTANGLE_PASS_ALLOCATIONS),
        ] {
            let mut cfg = MuseNetConfig::cpu_profile(grid, spec);
            cfg.d = 16;
            cfg.k = 32;
            cfg.variant = variant;
            let model = MuseNet::new(cfg);
            let tape = Tape::forward_only();
            let session = Session::new(&tape);
            let pass = |b: &Batch| {
                tape.reset();
                session.reset();
                model.infer_raw(&session, &b.closeness, &b.period, &b.trend).prediction
            };

            // A first rollout sizes the staging batch; the second is warm.
            let mut rollout = Rollout::new(grid, spec);
            rollout.start(&[base]);
            for _ in 0..horizons {
                rollout.advance(&flows, pass);
            }
            rollout.start(&[base]);
            for h in 0..horizons {
                let mut bare = 0;
                let ((), step) = allocations_of(|| {
                    rollout.advance(&flows, |b| {
                        let before = counted();
                        let prediction = pass(b);
                        bare = counted() - before;
                        prediction
                    })
                });
                assert!(bare > 0, "{}: the forward pass is expected to allocate", variant.name());
                assert!(
                    bare <= bound,
                    "{} step {h}: the warm pass made {bare} allocations, over the bound of {bound}; \
                     if the rise is meant, re-derive the bound as its doc says",
                    variant.name()
                );
                assert_eq!(
                    step,
                    bare,
                    "{} step {h}: rollout allocated {step}, its pass {bare}",
                    variant.name()
                );
            }
        }
    });
}
