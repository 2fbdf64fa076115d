//! RAII span timers with thread-local nesting, and the self-time fold
//! that turns their totals into a collapsed-stack profile.
//!
//! A span measures one region of code; nested spans record under a
//! `outer/inner` path so the console summary shows where time goes at each
//! level. When telemetry is disabled a span is a single flag check — no
//! clock read, no allocation.
//!
//! When a JSONL trace is open, every span additionally emits a pair of
//! `span.enter` / `span.exit` events carrying the full slash-joined path,
//! a per-thread ordinal (`tid`), the nesting depth, and monotonic
//! nanosecond timestamps from [`crate::sink::now_ns`].
//!
//! ## Profiles
//!
//! Every closed span adds its exact duration to the `span.<path>`
//! histogram, so the registry already holds each path's count and total
//! nanoseconds. [`fold`] turns such `(path, count, total_ns)` rows into
//! self times (total minus the totals of *direct* children) and
//! [`collapsed`] renders them as `a;b;c <self_ns>` lines in a fixed flame
//! order, the format `flamegraph.pl` and speedscope read. [`profile`] does
//! this live over the registry (`GET /debug/profile`); `muse-trace flame`
//! does it over a trace's `span.exit` events, with the same output for the
//! same spans.

use crate::json::Json;
use crate::metrics::{self, histogram_owned};
use crate::sink;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
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

// --- spans ----------------------------------------------------------------

/// Open a timed span. Drop closes it and records its duration (in
/// nanoseconds) into the `span.<path>` histogram; with a trace open, enter
/// and exit events are emitted as well.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { run: None, trace: None };
    }
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
    SpanGuard { run: Some(Instant::now()), trace }
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

// --- profiles -------------------------------------------------------------

/// Aggregated times for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedSpan {
    /// Slash-joined path (`train.fit/train.forward/model.encode`).
    pub path: String,
    /// Times this span path was closed.
    pub count: u64,
    /// Cumulative nanoseconds, including children.
    pub total_ns: u64,
    /// Cumulative nanoseconds minus direct children's totals (clamped at
    /// zero — clock jitter can make children appear to outlast parents by
    /// nanoseconds).
    pub self_ns: u64,
}

/// Fold `(path, count, total_ns)` rows into per-path totals with self
/// time, sorted by path. Rows that share a path are summed, so one row per
/// closed span works as well as one row per path.
pub fn fold<'a>(rows: impl IntoIterator<Item = (&'a str, u64, u64)>) -> Vec<FoldedSpan> {
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // path → (count, total)
    for (path, count, total_ns) in rows {
        let slot = totals.entry(path).or_insert((0, 0));
        slot.0 += count;
        slot.1 += total_ns;
    }
    totals
        .iter()
        .map(|(path, &(count, total_ns))| {
            let children_ns: u64 = totals
                .range::<str, _>((std::ops::Bound::Excluded(*path), std::ops::Bound::Unbounded))
                .take_while(|(p, _)| p.starts_with(*path))
                .filter(|(p, _)| is_direct_child(path, p))
                .map(|(_, &(_, t))| t)
                .sum();
            FoldedSpan {
                path: path.to_string(),
                count,
                total_ns,
                self_ns: total_ns.saturating_sub(children_ns),
            }
        })
        .collect()
}

/// Is `candidate` exactly one segment below `parent`?
fn is_direct_child(parent: &str, candidate: &str) -> bool {
    candidate
        .strip_prefix(parent)
        .and_then(|rest| rest.strip_prefix('/'))
        .is_some_and(|tail| !tail.is_empty() && !tail.contains('/'))
}

/// Render folded spans as collapsed stacks: one `seg;seg;seg self_ns` line
/// per path with non-zero self time, in deterministic flame order — a
/// depth-first tree walk with siblings sorted hottest (self time) first,
/// name as tie-break — so profiles of the same spans are stable and
/// profile diffs line up row for row.
pub fn collapsed(folded: &[FoldedSpan]) -> String {
    let rows: Vec<(&str, u64)> = folded.iter().map(|f| (f.path.as_str(), f.self_ns)).collect();
    let mut out = String::new();
    for idx in tree_order_indices(&rows, '/') {
        let span = &folded[idx];
        if span.self_ns == 0 {
            continue;
        }
        out.push_str(&span.path.replace('/', ";"));
        out.push(' ');
        out.push_str(&span.self_ns.to_string());
        out.push('\n');
    }
    out
}

/// Deterministic flame ordering over `(path, self_weight)` rows: indices in
/// depth-first tree order, siblings sorted by self weight descending then
/// path. Rows whose parent path is absent are treated as roots. Shared by
/// span profiles ('/'-separated paths) and `muse-trace prof`
/// (';'-separated folded stacks).
pub fn tree_order_indices(rows: &[(&str, u64)], sep: char) -> Vec<usize> {
    let by_path: BTreeMap<&str, usize> = rows.iter().enumerate().map(|(i, r)| (r.0, i)).collect();
    // parent index (or None for roots) → children indices.
    let mut children: BTreeMap<Option<usize>, Vec<usize>> = BTreeMap::new();
    for (i, (path, _)) in rows.iter().enumerate() {
        let parent = path.rfind(sep).and_then(|cut| by_path.get(&path[..cut]).copied());
        children.entry(parent).or_default().push(i);
    }
    for siblings in children.values_mut() {
        siblings.sort_by(|&a, &b| rows[b].1.cmp(&rows[a].1).then_with(|| rows[a].0.cmp(rows[b].0)));
    }
    let mut order = Vec::with_capacity(rows.len());
    let mut stack: Vec<usize> = children.get(&None).cloned().unwrap_or_default();
    stack.reverse();
    while let Some(idx) = stack.pop() {
        order.push(idx);
        if let Some(kids) = children.get(&Some(idx)) {
            stack.extend(kids.iter().rev());
        }
    }
    order
}

/// The live profile: every `span.*` histogram's count and total
/// nanoseconds, folded and rendered by [`collapsed`]. Cumulative since
/// process start or the last [`crate::reset_metrics`]; a time window is the
/// difference of two calls. Only closed spans count, so the children of a
/// span that is still open show up as roots.
pub fn profile() -> String {
    let snapshot = metrics::export_snapshot();
    let rows = snapshot.histograms.iter().filter_map(|(name, count, sum_ns, _)| {
        let path = name.strip_prefix("span.")?;
        (*count > 0).then_some((path, *count, *sum_ns as u64))
    });
    collapsed(&fold(rows))
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

    fn closed(path: &str, dur_ns: u64) -> (&str, u64, u64) {
        (path, 1, dur_ns)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rows = vec![
            closed("a", 1000),
            closed("a/b", 600),
            closed("a/b/c", 100),
            closed("a/d", 150),
            // Not a child of "a": shares the prefix string but not the path.
            closed("ax", 42),
        ];
        let folded = fold(rows);
        let get = |p: &str| folded.iter().find(|f| f.path == p).unwrap();
        assert_eq!(get("a").total_ns, 1000);
        // a's direct children are a/b and a/d — NOT a/b/c, not ax.
        assert_eq!(get("a").self_ns, 1000 - 600 - 150);
        assert_eq!(get("a/b").self_ns, 500);
        assert_eq!(get("a/b/c").self_ns, 100);
        assert_eq!(get("ax").self_ns, 42);
    }

    #[test]
    fn repeated_paths_accumulate() {
        let folded = fold([closed("x", 10), closed("x", 30), closed("x/y", 5)]);
        let x = folded.iter().find(|f| f.path == "x").unwrap();
        assert_eq!(x.count, 2);
        assert_eq!(x.total_ns, 40);
        assert_eq!(x.self_ns, 35);
        // Pre-summed rows fold to the same numbers.
        assert_eq!(fold([("x", 2, 40), ("x/y", 1, 5)]), folded);
    }

    #[test]
    fn child_outlasting_parent_clamps_to_zero() {
        let folded = fold([closed("p", 100), closed("p/q", 120)]);
        assert_eq!(folded.iter().find(|f| f.path == "p").unwrap().self_ns, 0);
    }

    #[test]
    fn collapsed_format_is_semicolon_separated() {
        let text = collapsed(&fold([closed("a", 100), closed("a/b", 100)]));
        // "a" has zero self time and is omitted; a/b keeps its 100.
        assert_eq!(text, "a;b 100\n");
    }

    #[test]
    fn collapsed_orders_siblings_by_self_time_then_name() {
        let rows = vec![
            closed("root", 1000),
            closed("root/cold", 50),
            closed("root/hot", 500),
            closed("root/hot/leaf", 200),
            closed("root/warm", 250),
            // Two zero-padded siblings tie on self time → name order.
            closed("root/bbb", 10),
            closed("root/aaa", 10),
        ];
        let text = collapsed(&fold(rows));
        let paths: Vec<&str> = text.lines().map(|l| l.rsplit_once(' ').unwrap().0).collect();
        // Depth-first: hot subtree (self 300) first, its child inside it,
        // then warm (250), cold (50), then the 10/10 tie in name order.
        // root itself has self 1000-820=180... listed first as the root.
        assert_eq!(
            paths,
            vec!["root", "root;hot", "root;hot;leaf", "root;warm", "root;cold", "root;aaa", "root;bbb"],
            "text:\n{text}"
        );
    }

    #[test]
    fn live_profile_folds_closed_spans_and_roots_children_of_open_ones() {
        let _g = crate::test_lock();
        crate::enable();
        crate::reset_metrics();
        let mine = |text: &str| -> Vec<String> {
            let stacks = text.lines().map(|l| l.rsplit_once(' ').unwrap().0.to_string());
            stacks.filter(|stack| stack.starts_with("profile_")).collect()
        };
        {
            let _outer = span("profile_outer");
            drop(span("profile_inner"));
            // The outer span is still open: its child is a root for now.
            assert_eq!(mine(&profile()), ["profile_outer;profile_inner"]);
        }
        assert_eq!(mine(&profile()), ["profile_outer", "profile_outer;profile_inner"]);
        crate::reset_metrics();
        assert!(mine(&profile()).is_empty());
        crate::disable();
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
