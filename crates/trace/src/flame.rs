//! Rank the span totals of a trace.
//!
//! A trace's span totals are the `span.*` histograms of its last
//! `kernel.summary` snapshot, folded at ingest ([`crate::TraceData::spans`])
//! by the fold the live `/debug/profile` uses, so the same spans give the
//! same profile either way. Render them with
//! [`muse_obs::span::collapsed`] (`a;b;c <self_ns>` per line, the format
//! `flamegraph.pl` and speedscope consume directly).

use muse_obs::span::FoldedSpan;

/// Folded spans ranked by self time, descending (path as tie-break).
pub fn by_self_time(folded: &[FoldedSpan]) -> Vec<&FoldedSpan> {
    let mut rows: Vec<&FoldedSpan> = folded.iter().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_obs::span::fold;

    #[test]
    fn ranking_is_by_self_time() {
        let folded = fold([("slow", 1, 900), ("fast", 1, 10), ("mid", 1, 50)]);
        let ranked = by_self_time(&folded);
        assert_eq!(ranked[0].path, "slow");
        assert_eq!(ranked[2].path, "fast");
    }
}
