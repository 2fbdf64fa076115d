//! Analysis of collapsed folded-stack profiles (`frame;frame <weight>`),
//! the format `muse-trace flame` writes and `GET /debug/profile` serves.
//!
//! Folded weights are self nanoseconds, and everything here works in time
//! shares rather than absolute durations: two profiles of the same workload
//! over runs of different lengths still line up. [`report`] renders top-N self/total tables plus a
//! `dominant:` line, [`flame`] re-emits the stacks in deterministic flame
//! order, and [`diff`] compares two profiles' self-time shares with the
//! shared [`crate::tolerance`] bands.

use crate::tolerance;
use muse_obs::span::tree_order_indices;
use std::collections::BTreeMap;

/// A parsed folded profile: leaf stacks with weights.
pub struct FoldedProfile {
    /// `(frames, weight)` per input line, shallowest frame first.
    pub stacks: Vec<(Vec<String>, u64)>,
    /// Sum of all weights (total self nanoseconds).
    pub total: u64,
}

/// Parse collapsed folded-stack text. Blank lines are ignored; every other
/// line must be `frame;frame;frame <weight>` with a non-empty stack.
pub fn parse(text: &str) -> Result<FoldedProfile, String> {
    let mut stacks = Vec::new();
    let mut total = 0u64;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (path, raw_weight) =
            line.rsplit_once(' ').ok_or_else(|| format!("line {}: no weight field in {line:?}", i + 1))?;
        let weight: u64 =
            raw_weight.parse().map_err(|_| format!("line {}: bad weight {raw_weight:?}", i + 1))?;
        let frames: Vec<String> = path.split(';').map(str::to_string).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("line {}: empty frame in {path:?}", i + 1));
        }
        total += weight;
        stacks.push((frames, weight));
    }
    if stacks.is_empty() {
        return Err("profile contains no stacks (were any spans closed?)".to_string());
    }
    Ok(FoldedProfile { stacks, total })
}

/// Per-path aggregate over a folded profile.
#[derive(Debug, Clone)]
pub struct Node {
    /// Semicolon-joined frame path.
    pub path: String,
    /// Weight with this exact path as the leaf.
    pub self_w: u64,
    /// Weight at or below this path.
    pub total_w: u64,
}

/// Aggregate leaf stacks into one [`Node`] per path prefix (every ancestor
/// of every stack appears), sorted by path.
pub fn aggregate(profile: &FoldedProfile) -> Vec<Node> {
    let mut map: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (frames, weight) in &profile.stacks {
        let mut path = String::new();
        for (depth, frame) in frames.iter().enumerate() {
            if depth > 0 {
                path.push(';');
            }
            path.push_str(frame);
            let node = map.entry(path.clone()).or_insert((0, 0));
            node.1 += weight;
            if depth == frames.len() - 1 {
                node.0 += weight;
            }
        }
    }
    map.into_iter().map(|(path, (self_w, total_w))| Node { path, self_w, total_w }).collect()
}

fn share(weight: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * weight as f64 / total as f64
    }
}

/// Human report: totals, the dominant frame, and top-N tables by self and
/// by total weight. The `dominant:` line names the hottest self-time path —
/// CI greps it to assert the backward pass stays the training hot spot.
pub fn report(profile: &FoldedProfile, top: usize) -> String {
    let nodes = aggregate(profile);
    let mut by_self: Vec<&Node> = nodes.iter().filter(|n| n.self_w > 0).collect();
    by_self.sort_by(|a, b| b.self_w.cmp(&a.self_w).then_with(|| a.path.cmp(&b.path)));
    let mut by_total: Vec<&Node> = nodes.iter().collect();
    by_total.sort_by(|a, b| b.total_w.cmp(&a.total_w).then_with(|| a.path.cmp(&b.path)));

    let mut out = String::new();
    out.push_str(&format!(
        "folded profile: {} distinct stacks, {:.3} s in total\n",
        profile.stacks.len(),
        profile.total as f64 * 1e-9
    ));
    if let Some(hot) = by_self.first() {
        out.push_str(&format!("dominant: {} ({:.1}% self)\n", hot.path, share(hot.self_w, profile.total)));
    }
    out.push_str(&format!("\ntop {} by self time:\n", top.min(by_self.len())));
    out.push_str("   self%  total%       self ms  path\n");
    for node in by_self.iter().take(top) {
        out.push_str(&format!(
            "  {:5.1}%  {:5.1}%  {:12.3}  {}\n",
            share(node.self_w, profile.total),
            share(node.total_w, profile.total),
            node.self_w as f64 * 1e-6,
            node.path
        ));
    }
    out.push_str(&format!("\ntop {} by total time:\n", top.min(by_total.len())));
    out.push_str("  total%   self%      total ms  path\n");
    for node in by_total.iter().take(top) {
        out.push_str(&format!(
            "  {:5.1}%  {:5.1}%  {:12.3}  {}\n",
            share(node.total_w, profile.total),
            share(node.self_w, profile.total),
            node.total_w as f64 * 1e-6,
            node.path
        ));
    }
    out
}

/// Re-emit a profile as collapsed stacks in deterministic flame order
/// (depth-first, siblings hottest-self first, name tie-break) — the same
/// ordering contract as `muse-trace flame`.
pub fn flame(profile: &FoldedProfile) -> String {
    let nodes = aggregate(profile);
    let rows: Vec<(&str, u64)> = nodes.iter().map(|n| (n.path.as_str(), n.self_w)).collect();
    let mut out = String::new();
    for idx in tree_order_indices(&rows, ';') {
        let node = &nodes[idx];
        if node.self_w == 0 {
            continue;
        }
        out.push_str(&format!("{} {}\n", node.path, node.self_w));
    }
    out
}

/// Minimum self-time share (percent) a path must hold in either profile to
/// participate in a diff; below this, run-to-run noise dominates.
pub const DIFF_SHARE_FLOOR_PCT: f64 = 1.0;

/// One row of a profile diff: self-time shares in percent.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Semicolon-joined frame path.
    pub path: String,
    /// Self share in the baseline profile (percent of its total).
    pub base_pct: f64,
    /// Self share in the current profile (percent of its total).
    pub cur_pct: f64,
    /// Whether the share drifted beyond the tolerance band (two-sided,
    /// via [`tolerance::drifted`] on the percent values).
    pub drifted: bool,
}

/// Compare two profiles' self-time shares. Paths holding at least
/// [`DIFF_SHARE_FLOOR_PCT`] of either profile are compared with the
/// two-sided [`tolerance::drifted`] band (shares are percentages, so the
/// denominator clamp at 1.0 means sub-1% paths can never fail). Returns
/// rows sorted by absolute share change, largest first.
pub fn diff(base: &FoldedProfile, current: &FoldedProfile, tol: f64) -> Vec<DiffRow> {
    let mut shares: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for node in aggregate(base) {
        shares.entry(node.path).or_insert((0.0, 0.0)).0 = share(node.self_w, base.total);
    }
    for node in aggregate(current) {
        shares.entry(node.path).or_insert((0.0, 0.0)).1 = share(node.self_w, current.total);
    }
    let mut rows: Vec<DiffRow> = shares
        .into_iter()
        .filter(|(_, (b, c))| b.max(*c) >= DIFF_SHARE_FLOOR_PCT)
        .map(|(path, (base_pct, cur_pct))| DiffRow {
            path,
            base_pct,
            cur_pct,
            drifted: tolerance::drifted(base_pct, cur_pct, tol),
        })
        .collect();
    rows.sort_by(|a, b| {
        let da = (a.cur_pct - a.base_pct).abs();
        let db = (b.cur_pct - b.base_pct).abs();
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.path.cmp(&b.path))
    });
    rows
}

/// Render a diff as a table; returns `(text, regressions)` where
/// regressions are the drifted paths (empty = within tolerance).
pub fn render_diff(rows: &[DiffRow], tol: f64) -> (String, Vec<String>) {
    let mut out = String::new();
    let mut regressions = Vec::new();
    out.push_str(&format!(
        "profile diff (self-time shares, two-sided tolerance {:.0}%, floor {DIFF_SHARE_FLOOR_PCT}%):\n",
        tol * 100.0
    ));
    out.push_str("          base%    cur%   Δpp  path\n");
    for row in rows {
        let delta = row.cur_pct - row.base_pct;
        let mark = if row.drifted { "DRIFT" } else { "   ok" };
        out.push_str(&format!(
            "  {mark}  {:5.1}%  {:5.1}%  {delta:+5.1}  {}\n",
            row.base_pct, row.cur_pct, row.path
        ));
        if row.drifted {
            regressions.push(row.path.clone());
        }
    }
    if rows.is_empty() {
        out.push_str("  (no path holds ≥1% self time in either profile)\n");
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
train.fit;train.backward;autograd.backward 6000\n\
train.fit;train.backward 500\n\
train.fit;train.forward 2500\n\
train.fit 1000\n";

    #[test]
    fn parse_rejects_junk_and_empty() {
        assert!(parse("").is_err());
        assert!(parse("no_weight_here").is_err());
        assert!(parse("a;b notanumber").is_err());
        assert!(parse("a;;b 10").is_err());
        let p = parse(SAMPLE).unwrap();
        assert_eq!(p.stacks.len(), 4);
        assert_eq!(p.total, 10_000);
    }

    #[test]
    fn aggregate_computes_self_and_total() {
        let p = parse(SAMPLE).unwrap();
        let nodes = aggregate(&p);
        let get = |path: &str| nodes.iter().find(|n| n.path == path).unwrap();
        assert_eq!(get("train.fit").total_w, 10_000);
        assert_eq!(get("train.fit").self_w, 1000);
        assert_eq!(get("train.fit;train.backward").total_w, 6500);
        assert_eq!(get("train.fit;train.backward").self_w, 500);
        assert_eq!(get("train.fit;train.backward;autograd.backward").self_w, 6000);
    }

    #[test]
    fn report_names_the_dominant_self_path() {
        let p = parse(SAMPLE).unwrap();
        let text = report(&p, 5);
        assert!(
            text.contains("dominant: train.fit;train.backward;autograd.backward (60.0% self)"),
            "report:\n{text}"
        );
        assert!(text.contains("top 4 by self time"));
        assert!(text.contains("train.fit;train.forward"));
    }

    #[test]
    fn flame_output_is_deterministic_and_ordered() {
        let p = parse(SAMPLE).unwrap();
        let text = flame(&p);
        let paths: Vec<&str> = text.lines().map(|l| l.rsplit_once(' ').unwrap().0).collect();
        // Depth-first from train.fit, siblings by self time: forward (self
        // 2500) before backward (self 500), backward's leaf right after it.
        assert_eq!(
            paths,
            vec![
                "train.fit",
                "train.fit;train.forward",
                "train.fit;train.backward",
                "train.fit;train.backward;autograd.backward"
            ]
        );
        assert_eq!(text, flame(&parse(&text).unwrap()), "flame must be a fixed point");
    }

    #[test]
    fn self_diff_is_clean_and_shifts_drift() {
        let p = parse(SAMPLE).unwrap();
        let rows = diff(&p, &p, 0.5);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| !r.drifted));
        // Shift most of the backward time into the forward pass: both ends
        // of the swap drift.
        let shifted = parse(
            "train.fit;train.backward;autograd.backward 1000\n\
             train.fit;train.backward 500\n\
             train.fit;train.forward 7500\n\
             train.fit 1000\n",
        )
        .unwrap();
        let rows = diff(&p, &shifted, 0.5);
        let (text, regressions) = render_diff(&rows, 0.5);
        assert!(regressions.iter().any(|p| p.contains("autograd.backward")), "diff:\n{text}");
        assert!(regressions.iter().any(|p| p.contains("train.forward")), "diff:\n{text}");
        // Unchanged paths stay ok.
        assert!(rows.iter().any(|r| r.path == "train.fit" && !r.drifted), "diff:\n{text}");
    }

    #[test]
    fn sub_floor_paths_are_ignored_by_diff() {
        let a = parse("hot 995\ncold 5\n").unwrap();
        let b = parse("hot 1000\n").unwrap();
        let rows = diff(&a, &b, 0.5);
        // cold holds 0.5% < floor in both → excluded entirely.
        assert!(rows.iter().all(|r| r.path != "cold"));
        assert!(rows.iter().all(|r| !r.drifted));
    }
}
