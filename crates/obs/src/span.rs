//! RAII span timers with thread-local nesting, and the self-time fold
//! that turns their totals into a collapsed-stack profile.
//!
//! A span measures one region of code; nested spans record under a
//! `outer/inner` path so the console summary shows where time goes at each
//! level. When telemetry is disabled a span is a single flag check — no
//! clock read, no allocation.
//!
//! A span's one record is its `span.<path>` histogram. Each thread keeps
//! its open path as one string, `span.` plus the `/`-joined open names; a
//! span appends its name, looks its histogram up once when it opens, and
//! on close records into that handle and cuts the string back. A warm
//! open/close allocates nothing.
//!
//! ## Profiles
//!
//! Every closed span adds its exact duration to its histogram, so the
//! registry already holds each path's count and total nanoseconds.
//! [`fold`] turns such `(path, count, total_ns)` rows into self times
//! (total minus the totals of *direct* children) and [`collapsed`] renders
//! them as `a;b;c <self_ns>` lines in a fixed flame order, the format
//! `flamegraph.pl` and speedscope read. [`profile`] does this live over the
//! registry (`GET /debug/profile`); `muse-trace flame` does it over the
//! `span.*` histograms of a trace's last `kernel.summary` snapshot, through
//! the same [`fold_histograms`], so the same spans give the same bytes.

use crate::metrics::{self, histogram_owned, Histogram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Prefix of every span histogram's name.
const PREFIX: &str = "span.";

thread_local! {
    /// `span.` plus the `/`-joined names of this thread's open spans (empty
    /// until the first span opens).
    static SPAN_PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

// --- spans ----------------------------------------------------------------

/// Open a timed span. Drop closes it and records its duration (in
/// nanoseconds) into the `span.<path>` histogram.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { run: None };
    }
    let (histogram, parent_len) = SPAN_PATH.with(|p| {
        let mut path = p.borrow_mut();
        if path.is_empty() {
            path.push_str(PREFIX);
        }
        let parent_len = path.len();
        if parent_len > PREFIX.len() {
            path.push('/');
        }
        path.push_str(name);
        (histogram_owned(&path), parent_len)
    });
    SpanGuard { run: Some((Instant::now(), histogram, parent_len)) }
}

/// Guard returned by [`span`]; records on drop.
pub struct SpanGuard {
    /// Open time, this span's histogram, and the length of the parent's
    /// path to cut back to.
    run: Option<(Instant, &'static Histogram, usize)>,
}

impl SpanGuard {
    /// Nanoseconds since the span opened (0 when telemetry is disabled).
    pub fn elapsed_nanos(&self) -> u64 {
        self.run.map_or(0, |(t, ..)| t.elapsed().as_nanos() as u64)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start, histogram, parent_len)) = self.run.take() else { return };
        histogram.record(start.elapsed().as_nanos() as u64 as f64);
        // A guard dropped out of order has already recorded under its own
        // path; cutting back closes the names opened after it as well. Only
        // after out-of-order drops can the cut split a character, and then
        // it is skipped rather than allowed to panic.
        SPAN_PATH.with(|p| {
            let mut path = p.borrow_mut();
            if path.is_char_boundary(parent_len) {
                path.truncate(parent_len);
            }
        });
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
/// closed span works as well as one row per path. Every sum saturates at
/// `u64::MAX`: a trace is untrusted input.
pub fn fold<'a>(rows: impl IntoIterator<Item = (&'a str, u64, u64)>) -> Vec<FoldedSpan> {
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // path → (count, total)
    for (path, count, total_ns) in rows {
        let slot = totals.entry(path).or_insert((0, 0));
        slot.0 = slot.0.saturating_add(count);
        slot.1 = slot.1.saturating_add(total_ns);
    }
    totals
        .iter()
        .map(|(path, &(count, total_ns))| {
            let children_ns = totals
                .range::<str, _>((std::ops::Bound::Excluded(*path), std::ops::Bound::Unbounded))
                .take_while(|(p, _)| p.starts_with(*path))
                .filter(|(p, _)| is_direct_child(path, p))
                .fold(0u64, |sum, (_, &(_, t))| sum.saturating_add(t));
            FoldedSpan {
                path: path.to_string(),
                count,
                total_ns,
                self_ns: total_ns.saturating_sub(children_ns),
            }
        })
        .collect()
}

/// Fold `(histogram name, count, sum_ns)` rows of a metrics snapshot: the
/// `span.*` histograms with a non-zero count, under their span path. The
/// live [`profile`] and `muse-trace flame` both fold through this.
pub fn fold_histograms<'a>(rows: impl IntoIterator<Item = (&'a str, u64, u64)>) -> Vec<FoldedSpan> {
    fold(rows.into_iter().filter_map(|(name, count, sum_ns)| {
        let path = name.strip_prefix(PREFIX)?;
        (count > 0).then_some((path, count, sum_ns))
    }))
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
    let mut out = String::new();
    for idx in tree_order_indices(folded) {
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

/// Indices of `folded` in depth-first tree order, siblings sorted by self
/// time descending then path. Spans whose parent path is absent are
/// treated as roots.
fn tree_order_indices(folded: &[FoldedSpan]) -> Vec<usize> {
    let by_path: BTreeMap<&str, usize> =
        folded.iter().enumerate().map(|(i, f)| (f.path.as_str(), i)).collect();
    // parent index (or None for roots) → children indices.
    let mut children: BTreeMap<Option<usize>, Vec<usize>> = BTreeMap::new();
    for (i, span) in folded.iter().enumerate() {
        let parent = span.path.rfind('/').and_then(|cut| by_path.get(&span.path[..cut]).copied());
        children.entry(parent).or_default().push(i);
    }
    for siblings in children.values_mut() {
        siblings.sort_by(|&a, &b| {
            folded[b].self_ns.cmp(&folded[a].self_ns).then_with(|| folded[a].path.cmp(&folded[b].path))
        });
    }
    let mut order = Vec::with_capacity(folded.len());
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
    let rows =
        snapshot.histograms.iter().map(|(name, count, sum_ns, _)| (name.as_str(), *count, *sum_ns as u64));
    collapsed(&fold_histograms(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This thread's open path.
    fn open_path() -> String {
        SPAN_PATH.with(|p| p.borrow().clone())
    }

    #[test]
    fn nesting_paths() {
        let _g = crate::test_lock();
        crate::enable();
        {
            let _a = span("outer_test");
            assert_eq!(open_path(), "span.outer_test");
            {
                let _b = span("inner_test");
                assert_eq!(open_path(), "span.outer_test/inner_test");
            }
            assert_eq!(open_path(), "span.outer_test");
        }
        assert_eq!(open_path(), "span.");
        assert!(histogram_owned("span.outer_test").count() >= 1);
        assert!(histogram_owned("span.outer_test/inner_test").count() >= 1);
        crate::disable();
    }

    #[test]
    fn out_of_order_drops_record_under_their_own_paths() {
        let _g = crate::test_lock();
        crate::enable();
        crate::reset_metrics();
        let outer = span("ooo_outer");
        let middle = span("ooo_middle");
        let inner = span("ooo_inner");
        drop(middle);
        assert_eq!(open_path(), "span.ooo_outer");
        drop(outer);
        drop(inner);
        assert_eq!(open_path(), "span.", "the stack returns to the root");
        for path in ["span.ooo_outer", "span.ooo_outer/ooo_middle", "span.ooo_outer/ooo_middle/ooo_inner"] {
            assert_eq!(histogram_owned(path).count(), 1, "{path}");
        }
        // A later span nests under nothing left over.
        drop(span("ooo_after"));
        assert_eq!(histogram_owned("span.ooo_after").count(), 1);
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
    fn sums_saturate_at_u64_max() {
        let huge = u64::MAX - 1;
        let folded = fold([("a", huge, huge), ("a", 5, 10), ("a/b", 1, huge), ("a/c", 1, huge)]);
        let get = |p: &str| folded.iter().find(|f| f.path == p).unwrap();
        assert_eq!((get("a").count, get("a").total_ns), (u64::MAX, u64::MAX));
        // The children's totals saturate too, so a's self time is zero.
        assert_eq!(get("a").self_ns, 0);
        assert_eq!(get("a/b").self_ns, huge);
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
    fn spans_write_no_trace_events() {
        let _g = crate::test_lock();
        let path = std::env::temp_dir().join("muse-obs-test").join("span_events.jsonl");
        crate::sink::open_trace(&path).unwrap();
        {
            let _outer = span("ev_outer");
            let _inner = span("ev_inner");
        }
        crate::sink::close_trace().unwrap();
        crate::disable();
        assert!(crate::sink::read_trace(&path).unwrap().is_empty());
        assert!(histogram_owned("span.ev_outer/ev_inner").count() >= 1);
        let _ = std::fs::remove_file(&path);
    }
}
