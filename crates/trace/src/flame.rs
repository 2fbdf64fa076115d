//! Fold span exit events into collapsed-stack flame profiles.
//!
//! Each `span.exit` event carries its full slash-joined path and duration,
//! so folding is pure aggregation. The fold itself is
//! [`muse_obs::span::fold`], the one the live `/debug/profile` uses over the
//! `span.*` histograms: the same spans give the same profile either way.
//! Render with [`muse_obs::span::collapsed`] (`a;b;c <self_ns>` per line,
//! the format `flamegraph.pl` and speedscope consume directly).

use crate::ingest::SpanExit;
use muse_obs::span::{fold, FoldedSpan};

/// Aggregate span exits into per-path totals with self time, sorted by
/// path for determinism.
pub fn fold_exits(exits: &[SpanExit]) -> Vec<FoldedSpan> {
    fold(exits.iter().map(|e| (e.path.as_str(), 1, e.dur_ns)))
}

/// Folded spans ranked by self time, descending (path as tie-break).
pub fn by_self_time(folded: &[FoldedSpan]) -> Vec<&FoldedSpan> {
    let mut rows: Vec<&FoldedSpan> = folded.iter().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exit(path: &str, dur_ns: u64) -> SpanExit {
        SpanExit { path: path.to_string(), tid: 1, t_ns: 0, dur_ns }
    }

    #[test]
    fn exits_of_one_path_sum_into_one_row() {
        let folded = fold_exits(&[exit("x", 10), exit("x", 30), exit("x/y", 5)]);
        assert_eq!(folded, fold([("x", 2, 40), ("x/y", 1, 5)]));
    }

    #[test]
    fn ranking_is_by_self_time() {
        let folded = fold_exits(&[exit("slow", 900), exit("fast", 10), exit("mid", 50)]);
        let ranked = by_self_time(&folded);
        assert_eq!(ranked[0].path, "slow");
        assert_eq!(ranked[2].path, "fast");
    }
}
