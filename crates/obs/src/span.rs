//! RAII span timers with thread-local nesting.
//!
//! A span measures one region of code; nested spans record under a
//! `outer/inner` path so the console summary shows where time goes at each
//! level. When telemetry is disabled a span is a single flag check — no
//! clock read, no allocation.
//!
//! When a JSONL trace is open, every span additionally emits a pair of
//! `span.enter` / `span.exit` events carrying the full slash-joined path,
//! a per-thread ordinal (`tid`), the nesting depth, and monotonic
//! nanosecond timestamps from [`crate::sink::now_ns`]. `muse-trace flame`
//! folds these into collapsed-stack profiles.
//!
//! ## Published stacks (sampling-profiler support)
//!
//! Independently of tracing, each thread can *publish* its current span
//! stack through a lock-free per-thread [`StackSlot`]: a seqlock-style
//! version counter plus a fixed-depth array of interned frame ids. A
//! sampling profiler (`muse-prof`) snapshots every registered slot with
//! [`sample_stacks`] without stopping or signalling any thread. Publishing
//! is off by default ([`set_stack_publish`]) and costs the instrumented
//! thread a handful of relaxed atomic stores per span when on — it never
//! changes what the workload computes.

use crate::json::Json;
use crate::metrics::histogram_owned;
use crate::sink;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
    static MY_SLOT: Cell<Option<&'static StackSlot>> = const { Cell::new(None) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Small, stable, per-thread ordinal used to separate span streams of
/// different threads in a trace (assigned on first use, starting at 1).
pub fn thread_ordinal() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

// --- published stacks -----------------------------------------------------

/// Depth of the fixed frame array in each [`StackSlot`]. Frames nested
/// deeper than this still count toward `depth` but are not published; the
/// sampler reports such samples as truncated.
pub const MAX_PUBLISHED_FRAMES: usize = 32;

/// Global switch for stack publication, read with a single relaxed load on
/// every span open/close. Off by default; flipped by the sampling profiler.
static PUBLISH: AtomicBool = AtomicBool::new(false);

/// Turn span-stack publication on or off. When off (the default), spans
/// never touch their thread's [`StackSlot`] and [`sample_stacks`] sees
/// empty stacks everywhere.
pub fn set_stack_publish(on: bool) {
    PUBLISH.store(on, Ordering::Relaxed);
}

/// Whether span-stack publication is currently on.
pub fn stack_publish_enabled() -> bool {
    PUBLISH.load(Ordering::Relaxed)
}

struct Interner {
    names: Vec<&'static str>,
    by_ptr: BTreeMap<(usize, usize), u32>,
}

static INTERNER: Mutex<Interner> = Mutex::new(Interner { names: Vec::new(), by_ptr: BTreeMap::new() });

/// Intern a `&'static str` frame name, returning its dense id. Keyed by
/// pointer + length so the hot path never hashes string contents; two
/// distinct statics with equal text simply get two ids mapping to equal
/// names, which folds identically downstream.
pub fn intern_frame(name: &'static str) -> u32 {
    let key = (name.as_ptr() as usize, name.len());
    let mut interner = INTERNER.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&id) = interner.by_ptr.get(&key) {
        return id;
    }
    let id = interner.names.len() as u32;
    interner.names.push(name);
    interner.by_ptr.insert(key, id);
    id
}

/// Resolve an interned frame id back to its name.
pub fn frame_name(id: u32) -> Option<&'static str> {
    INTERNER.lock().unwrap_or_else(|p| p.into_inner()).names.get(id as usize).copied()
}

/// One thread's published span stack: a single-writer seqlock. The owning
/// thread bumps `version` to odd, mutates, then bumps to even; a sampler
/// thread reads `version`, copies the frames, and retries on a mismatch —
/// no lock is ever held, so the workload thread can never block on the
/// sampler (or vice versa).
pub struct StackSlot {
    tid: u64,
    version: AtomicU32,
    depth: AtomicU32,
    frames: [AtomicU32; MAX_PUBLISHED_FRAMES],
}

impl StackSlot {
    fn new(tid: u64) -> StackSlot {
        StackSlot {
            tid,
            version: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// Single-writer mutation: odd version while `mutate` runs, even after.
    /// The release fence keeps the odd store visible before the data
    /// stores; the final release store publishes the data before the even
    /// version.
    #[inline]
    fn write(&self, mutate: impl FnOnce(&StackSlot)) {
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        mutate(self);
        self.version.store(v.wrapping_add(2), Ordering::Release);
    }

    #[inline]
    fn push(&self, frame: u32) {
        self.write(|slot| {
            let depth = slot.depth.load(Ordering::Relaxed);
            if (depth as usize) < MAX_PUBLISHED_FRAMES {
                slot.frames[depth as usize].store(frame, Ordering::Relaxed);
            }
            slot.depth.store(depth.wrapping_add(1), Ordering::Relaxed);
        });
    }

    #[inline]
    fn pop(&self) {
        self.write(|slot| {
            let depth = slot.depth.load(Ordering::Relaxed);
            slot.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
        });
    }

    /// Copy this slot's stack. Only the owning thread calls this, so the
    /// read cannot race a write.
    fn snapshot(&self) -> FrameStack {
        let depth = self.depth.load(Ordering::Relaxed);
        let mut frames = [0; MAX_PUBLISHED_FRAMES];
        for (i, frame) in frames.iter_mut().enumerate().take(depth as usize) {
            *frame = self.frames[i].load(Ordering::Relaxed);
        }
        FrameStack { depth, frames }
    }

    /// Overwrite this slot's stack with `stack` in one seqlock write.
    fn replace(&self, stack: &FrameStack) {
        self.write(|slot| {
            for (i, &frame) in stack.frames.iter().enumerate().take(stack.depth as usize) {
                slot.frames[i].store(frame, Ordering::Relaxed);
            }
            slot.depth.store(stack.depth, Ordering::Relaxed);
        });
    }

    /// Seqlock read: retry a few times if the writer is mid-mutation, give
    /// up (returning `false`) rather than spin — a torn sample is just a
    /// dropped sample.
    fn read_into(&self, out: &mut StackSample) -> bool {
        for _ in 0..3 {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed);
            let stored = (depth as usize).min(MAX_PUBLISHED_FRAMES);
            for (i, frame) in out.frames[..stored].iter_mut().enumerate() {
                *frame = self.frames[i].load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.version.load(Ordering::Relaxed) == v1 {
                out.tid = self.tid;
                out.depth = depth;
                out.truncated = depth as usize > MAX_PUBLISHED_FRAMES;
                return true;
            }
        }
        false
    }
}

/// Registry of every thread's slot. Slots are leaked (`&'static`) so the
/// sampler can keep reading them after the owning thread exits; threads
/// are few and slots are ~150 bytes, so the leak is bounded and harmless.
static SLOTS: Mutex<Vec<&'static StackSlot>> = Mutex::new(Vec::new());

fn local_slot() -> &'static StackSlot {
    MY_SLOT.with(|cell| match cell.get() {
        Some(slot) => slot,
        None => {
            let slot: &'static StackSlot = Box::leak(Box::new(StackSlot::new(thread_ordinal())));
            SLOTS.lock().unwrap_or_else(|p| p.into_inner()).push(slot);
            cell.set(Some(slot));
            slot
        }
    })
}

/// Register the calling thread with the sampling profiler. Spans register
/// their thread lazily on first publication; long-lived worker threads
/// (thread pools, servers) should call this once up front so they are
/// visible to the sampler even before their first span.
pub fn register_thread() {
    let _ = local_slot();
}

/// Number of threads currently registered for stack sampling.
pub fn registered_threads() -> usize {
    SLOTS.lock().unwrap_or_else(|p| p.into_inner()).len()
}

/// One sampled thread stack: interned frame ids, shallowest first.
#[derive(Clone)]
pub struct StackSample {
    /// Thread ordinal ([`thread_ordinal`]) of the sampled thread.
    pub tid: u64,
    /// Logical stack depth at sample time (may exceed the stored frames).
    pub depth: u32,
    /// True when `depth > MAX_PUBLISHED_FRAMES` and deep frames were lost.
    pub truncated: bool,
    /// Interned frame ids; only the first `min(depth, MAX_PUBLISHED_FRAMES)`
    /// entries are meaningful.
    pub frames: [u32; MAX_PUBLISHED_FRAMES],
}

impl StackSample {
    /// An empty sample, for preallocating reusable buffers.
    pub fn empty() -> StackSample {
        StackSample { tid: 0, depth: 0, truncated: false, frames: [0; MAX_PUBLISHED_FRAMES] }
    }
}

/// Snapshot every registered thread's published stack into `out` (cleared
/// first); threads with an empty stack are skipped. Returns the number of
/// torn reads abandoned (a thread kept mutating its slot across all
/// retries) — callers count those as dropped samples.
pub fn sample_stacks(out: &mut Vec<StackSample>) -> usize {
    out.clear();
    let slots: Vec<&'static StackSlot> = SLOTS.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut torn = 0;
    let mut sample = StackSample::empty();
    for slot in slots {
        if slot.read_into(&mut sample) {
            if sample.depth > 0 {
                out.push(sample.clone());
            }
        } else {
            torn += 1;
        }
    }
    torn
}

/// A copy of one thread's published stack, taken by [`published_stack`]
/// so work handed to another thread can be billed to the spans that asked
/// for it.
#[derive(Clone, Copy)]
pub struct FrameStack {
    depth: u32,
    frames: [u32; MAX_PUBLISHED_FRAMES],
}

/// The calling thread's published stack, or `None` when publication is off.
#[inline]
pub fn published_stack() -> Option<FrameStack> {
    PUBLISH.load(Ordering::Relaxed).then(|| local_slot().snapshot())
}

/// Publish a lightweight frame on this thread's sampled stack without the
/// histogram/trace machinery of a full [`span`]. A single relaxed load when
/// publication is off; used by infrastructure where full spans would be
/// too hot.
#[inline]
pub fn prof_frame(name: &'static str) -> FrameGuard {
    if !PUBLISH.load(Ordering::Relaxed) {
        return FrameGuard { active: false, restore: None };
    }
    local_slot().push(intern_frame(name));
    FrameGuard { active: true, restore: None }
}

/// Like [`prof_frame`], but `name` goes on top of `parent` — a stack taken
/// on the thread that submitted the work — which stands in for this
/// thread's own frames until the guard drops. Pool workers use it so a
/// `parallel.job` sample reads `<submitter's spans>;parallel.job`. With no
/// `parent` (publication was off at submit time) it is [`prof_frame`].
#[inline]
pub fn prof_frame_under(parent: Option<&FrameStack>, name: &'static str) -> FrameGuard {
    let Some(parent) = parent else { return prof_frame(name) };
    if !PUBLISH.load(Ordering::Relaxed) {
        return FrameGuard { active: false, restore: None };
    }
    let slot = local_slot();
    let own = slot.snapshot();
    let mut stack = *parent;
    if (stack.depth as usize) < MAX_PUBLISHED_FRAMES {
        stack.frames[stack.depth as usize] = intern_frame(name);
    }
    stack.depth += 1;
    slot.replace(&stack);
    FrameGuard { active: true, restore: Some(own) }
}

/// Guard returned by [`prof_frame`] and [`prof_frame_under`]; unpublishes
/// the frame (or puts back the thread's own stack) on drop.
pub struct FrameGuard {
    active: bool,
    restore: Option<FrameStack>,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if self.active {
            match &self.restore {
                Some(own) => local_slot().replace(own),
                None => local_slot().pop(),
            }
        }
    }
}

// --- spans ----------------------------------------------------------------

/// Open a timed span. Drop closes it and records its duration (in
/// nanoseconds) into the `span.<path>` histogram; with a trace open, enter
/// and exit events are emitted as well.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { run: None, trace: None, published: false };
    }
    let published = if PUBLISH.load(Ordering::Relaxed) {
        local_slot().push(intern_frame(name));
        true
    } else {
        false
    };
    let depth = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push(name);
        stack.len()
    });
    let trace = if sink::trace_enabled() {
        let path = SPAN_STACK.with(|s| s.borrow().join("/"));
        let tid = thread_ordinal();
        let t_ns = sink::now_ns();
        sink::emit(
            "span.enter",
            vec![
                ("path", Json::Str(path.clone())),
                ("tid", Json::Num(tid as f64)),
                ("depth", Json::Num(depth as f64)),
                ("t_ns", Json::Num(t_ns as f64)),
            ],
        );
        Some((path, tid))
    } else {
        None
    };
    SpanGuard { run: Some(Instant::now()), trace, published }
}

/// Current nesting depth of this thread's span stack.
pub fn span_depth() -> usize {
    if !crate::enabled() {
        return 0;
    }
    SPAN_STACK.with(|s| s.borrow().len())
}

/// Guard returned by [`span`]; records on drop.
pub struct SpanGuard {
    run: Option<Instant>,
    /// `(path, tid)` captured at enter when a trace was open.
    trace: Option<(String, u64)>,
    /// Whether this span pushed a frame onto the published stack slot.
    published: bool,
}

impl SpanGuard {
    /// Nanoseconds since the span opened (0 when telemetry is disabled).
    pub fn elapsed_nanos(&self) -> u64 {
        self.run.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.run.take() else { return };
        if self.published {
            local_slot().pop();
        }
        let nanos = start.elapsed().as_nanos() as u64;
        let path = match self.trace.take() {
            // Reuse the enter-time path: the exit event must pair with the
            // enter event even if the stack was torn by a panic unwind.
            Some((path, tid)) => {
                sink::emit(
                    "span.exit",
                    vec![
                        ("path", Json::Str(path.clone())),
                        ("tid", Json::Num(tid as f64)),
                        ("t_ns", Json::Num(sink::now_ns() as f64)),
                        ("dur_ns", Json::Num(nanos as f64)),
                    ],
                );
                SPAN_STACK.with(|s| s.borrow_mut().pop());
                path
            }
            None => SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = stack.join("/");
                stack.pop();
                path
            }),
        };
        histogram_owned(&format!("span.{path}")).record(nanos as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_paths_and_depth() {
        let _g = crate::test_lock();
        crate::enable();
        assert_eq!(span_depth(), 0);
        {
            let _a = span("outer_test");
            assert_eq!(span_depth(), 1);
            {
                let _b = span("inner_test");
                assert_eq!(span_depth(), 2);
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        assert!(histogram_owned("span.outer_test").count() >= 1);
        assert!(histogram_owned("span.outer_test/inner_test").count() >= 1);
        crate::disable();
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = crate::test_lock();
        crate::disable();
        let g = span("never_recorded");
        assert_eq!(g.elapsed_nanos(), 0);
        drop(g);
        assert_eq!(histogram_owned("span.never_recorded").count(), 0);
    }

    #[test]
    fn thread_ordinals_are_stable_and_distinct() {
        let here = thread_ordinal();
        assert_eq!(here, thread_ordinal());
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn thread_ordinals_survive_thread_churn() {
        let here = thread_ordinal();
        let mut seen = vec![here];
        // Spawn-and-join a burst of short-lived threads: every one must get
        // a fresh ordinal (ordinals are never recycled), the current
        // thread's ordinal must not move, and each spawned thread must see
        // its own ordinal as stable across repeated calls.
        for _ in 0..16 {
            let got = std::thread::spawn(|| {
                let first = thread_ordinal();
                for _ in 0..3 {
                    assert_eq!(thread_ordinal(), first);
                }
                first
            })
            .join()
            .unwrap();
            assert!(!seen.contains(&got), "ordinal {got} was recycled");
            seen.push(got);
        }
        assert_eq!(thread_ordinal(), here);
    }

    #[test]
    fn published_stacks_are_sampleable() {
        let _g = crate::test_lock();
        crate::enable();
        set_stack_publish(true);
        let my_tid = thread_ordinal();
        let mut samples = Vec::new();
        {
            let _outer = span("pub_outer");
            let _inner = span("pub_inner");
            sample_stacks(&mut samples);
        }
        set_stack_publish(false);
        crate::disable();
        let mine = samples.iter().find(|s| s.tid == my_tid).expect("own thread sampled");
        assert_eq!(mine.depth, 2);
        assert!(!mine.truncated);
        assert_eq!(frame_name(mine.frames[0]), Some("pub_outer"));
        assert_eq!(frame_name(mine.frames[1]), Some("pub_inner"));
        // After the spans close, this thread's stack is empty again and no
        // longer shows up in a snapshot.
        sample_stacks(&mut samples);
        assert!(samples.iter().all(|s| s.tid != my_tid));
    }

    #[test]
    fn deep_stacks_truncate_but_keep_depth() {
        let _g = crate::test_lock();
        crate::enable();
        set_stack_publish(true);
        let my_tid = thread_ordinal();
        let mut guards = Vec::new();
        for _ in 0..(MAX_PUBLISHED_FRAMES + 4) {
            guards.push(span("deep_frame"));
        }
        let mut samples = Vec::new();
        sample_stacks(&mut samples);
        drop(guards);
        set_stack_publish(false);
        crate::disable();
        let mine = samples.iter().find(|s| s.tid == my_tid).expect("own thread sampled");
        assert_eq!(mine.depth as usize, MAX_PUBLISHED_FRAMES + 4);
        assert!(mine.truncated);
        assert_eq!(frame_name(mine.frames[MAX_PUBLISHED_FRAMES - 1]), Some("deep_frame"));
    }

    #[test]
    fn prof_frame_is_inert_unless_publishing() {
        let _g = crate::test_lock();
        let my_tid = thread_ordinal();
        let mut samples = Vec::new();
        {
            let _f = prof_frame("never_published");
            sample_stacks(&mut samples);
            assert!(samples.iter().all(|s| s.tid != my_tid));
        }
        set_stack_publish(true);
        {
            let _f = prof_frame("now_published");
            sample_stacks(&mut samples);
            let mine = samples.iter().find(|s| s.tid == my_tid).expect("frame published");
            assert_eq!(frame_name(mine.frames[0]), Some("now_published"));
        }
        set_stack_publish(false);
    }

    #[test]
    fn interner_is_stable_per_static() {
        let name: &'static str = "intern_stable_test";
        let id = intern_frame(name);
        assert_eq!(intern_frame(name), id);
        assert_eq!(frame_name(id), Some(name));
        assert_eq!(frame_name(u32::MAX), None);
    }

    #[test]
    fn spans_emit_enter_exit_events_when_tracing() {
        let _g = crate::test_lock();
        let path = std::env::temp_dir().join("muse-obs-test").join("span_events.jsonl");
        sink::open_trace(&path).unwrap();
        {
            let _outer = span("ev_outer");
            let _inner = span("ev_inner");
        }
        sink::close_trace().unwrap();
        crate::disable();
        let events = sink::read_trace(&path).unwrap();
        let kinds: Vec<&str> = events.iter().filter_map(|e| e.get("ev").and_then(Json::as_str)).collect();
        assert_eq!(kinds, ["span.enter", "span.enter", "span.exit", "span.exit"]);
        // Inner exits first, with the nested path and a smaller duration.
        assert_eq!(events[2].get("path").unwrap().as_str(), Some("ev_outer/ev_inner"));
        assert_eq!(events[3].get("path").unwrap().as_str(), Some("ev_outer"));
        let inner_dur = events[2].get("dur_ns").unwrap().as_f64().unwrap();
        let outer_dur = events[3].get("dur_ns").unwrap().as_f64().unwrap();
        assert!(outer_dur >= inner_dur);
        // Enter timestamps are monotonic per thread.
        let t0 = events[0].get("t_ns").unwrap().as_f64().unwrap();
        let t1 = events[1].get("t_ns").unwrap().as_f64().unwrap();
        assert!(t1 >= t0);
        assert_eq!(events[0].get("depth").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[1].get("depth").unwrap().as_f64(), Some(2.0));
        let _ = std::fs::remove_file(&path);
    }
}
