//! Rank the span totals of a trace.
//!
//! A trace's span totals are the `span.*` histograms of its last
//! `kernel.summary` snapshot, folded at ingest ([`crate::TraceData::spans`])
//! by the fold the live `/debug/profile` uses, so the same spans give the
//! same profile either way. Render them with
//! [`muse_obs::span::collapsed`] (`a;b;c <self_ns>` per line, the format
//! `flamegraph.pl` and speedscope consume directly).

use muse_obs::span::FoldedSpan;

/// Folded spans ranked by self time, descending (path as tie-break), each
/// with its share of all the spans' self time in percent. Shares do not
/// grow with run length, so two traces of one workload compare by them.
/// The sum is taken in `f64`: a trace is untrusted input, and its `u64`
/// self times may sum past `u64::MAX`.
pub fn by_self_time(folded: &[FoldedSpan]) -> Vec<(&FoldedSpan, f64)> {
    let total: f64 = folded.iter().map(|s| s.self_ns as f64).sum();
    let mut rows: Vec<(&FoldedSpan, f64)> = folded
        .iter()
        .map(|s| (s, if total > 0.0 { 100.0 * s.self_ns as f64 / total } else { 0.0 }))
        .collect();
    rows.sort_by(|(a, _), (b, _)| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_obs::span::fold;

    #[test]
    fn ranking_is_by_self_time() {
        let folded = fold([("slow", 1, 900), ("fast", 1, 40), ("mid", 1, 60)]);
        let ranked = by_self_time(&folded);
        assert_eq!(ranked[0].0.path, "slow");
        assert_eq!(ranked[2].0.path, "fast");
        let shares: Vec<f64> = ranked.iter().map(|r| r.1).collect();
        assert_eq!(shares, [90.0, 6.0, 4.0]);
        // Self times summing past u64::MAX still share out.
        let huge = fold([("a", 1, u64::MAX), ("b", 1, u64::MAX)]);
        assert!(by_self_time(&huge).iter().all(|r| r.1 == 50.0));
    }
}
