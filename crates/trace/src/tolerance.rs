//! The tolerance band shared by the perf gate, `muse-trace diff` and
//! `muse-trace prof diff`.
//!
//! All three answer the same question — "is the current number worse than
//! the baseline by more than we allow?" — and they must answer it the same
//! way, or a trace that passes the gate could be flagged by `diff` (or
//! vice versa). The two comparison modes:
//!
//! * [`exceeds`] — one-sided: only a *slowdown* beyond the band fails.
//!   Used for timings, where faster is always fine.
//! * [`drifted`] — two-sided: any relative change beyond the band fails.
//!   Used for bytes-per-call, where movement in either direction means the
//!   kernel's data movement genuinely changed, and for a profile path's
//!   share of self time.

/// Default relative tolerance: a value may be up to this much worse than
/// baseline before a comparison fails. Generous because CI machines are
/// noisy; `muse-trace diff` and `prof diff` take another as their last
/// argument.
pub const DEFAULT_TOLERANCE: f64 = 0.75;

/// Parse a tolerance given on the command line. Returns `None` when none
/// was given (callers then fall back to [`DEFAULT_TOLERANCE`]). Invalid or
/// non-positive values are rejected with a warning.
pub fn resolve(cli: Option<&str>) -> Option<f64> {
    let raw = cli?;
    match raw.parse::<f64>() {
        Ok(t) if t > 0.0 => Some(t),
        _ => {
            eprintln!("ignoring invalid tolerance {raw:?}");
            None
        }
    }
}

/// Signed relative change of `current` vs `baseline` (`+0.10` = 10%
/// worse-or-larger). Baselines at or below zero yield 0 — there is nothing
/// meaningful to compare against.
pub fn rel_change(baseline: f64, current: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        current / baseline - 1.0
    }
}

/// One-sided check: does `current` exceed `baseline` by more than
/// `tolerance` (i.e. `current / baseline > 1 + tolerance`)? Improvements
/// never fail.
pub fn exceeds(baseline: f64, current: f64, tolerance: f64) -> bool {
    rel_change(baseline, current) > tolerance
}

/// Absolute relative drift of `current` vs `baseline`, with the
/// denominator clamped to at least 1.0 so near-zero baselines do not
/// amplify noise.
pub fn drift(baseline: f64, current: f64) -> f64 {
    (current - baseline).abs() / baseline.max(1.0)
}

/// Two-sided check: has `current` drifted from `baseline` (in either
/// direction) by more than `tolerance`?
pub fn drifted(baseline: f64, current: f64, tolerance: f64) -> bool {
    drift(baseline, current) > tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exceeds_is_one_sided() {
        assert!(exceeds(100.0, 200.0, 0.75));
        assert!(!exceeds(100.0, 174.0, 0.75));
        // Improvements never fail, no matter how large.
        assert!(!exceeds(100.0, 1.0, 0.75));
        // Degenerate baselines compare as unchanged.
        assert!(!exceeds(0.0, 1e9, 0.75));
    }

    #[test]
    fn drifted_is_two_sided() {
        assert!(drifted(1000.0, 100.0, 0.75));
        assert!(drifted(1000.0, 2000.0, 0.75));
        assert!(!drifted(1000.0, 1200.0, 0.75));
        // Denominator clamp: tiny baselines don't explode the ratio.
        assert!(!drifted(0.1, 0.5, 0.75));
    }

    #[test]
    fn resolve_parses_cli_and_rejects_junk() {
        assert_eq!(resolve(Some("0.5")), Some(0.5));
        assert_eq!(resolve(None), None);
        assert_eq!(resolve(Some("-1")), None);
        assert_eq!(resolve(Some("abc")), None);
    }
}
