//! Order statistics over measured samples.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples, the
/// same rule as numpy's default; `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First and third quartile by Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method), which is how run-to-run spread is judged.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |j: usize| -> f64 {
        // Python: m = n + 1; j = i*m // 4; delta = i*m - j*4;
        // result = (x[j-1] * (4 - delta) + x[j] * delta) / 4.
        let m = n + 1;
        let k = (j * m / 4).clamp(1, n - 1);
        let delta = (j * m) as i64 - (k * 4) as i64;
        (sorted[k - 1] * (4 - delta) as f64 + sorted[k] * delta as f64) / 4.0
    };
    (at(1), at(3))
}

/// Whether an open-loop generator fell steadily behind: the median lag of
/// the last quarter of the schedule exceeds `floor_ms` and is more than
/// twice the first quarter's. `lags_ms` is in schedule order.
pub fn lag_grows(lags_ms: &[f64], floor_ms: f64) -> bool {
    if lags_ms.len() < 8 {
        return false;
    }
    let quarter = lags_ms.len() / 4;
    let first = median(&lags_ms[..quarter]);
    let last = median(&lags_ms[lags_ms.len() - quarter..]);
    last > floor_ms && last > 2.0 * first.max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&(1..=100).map(f64::from).collect::<Vec<_>>(), 0.99) - 99.01).abs() < 1e-9);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
    }

    #[test]
    fn lag_growth_is_flagged_only_when_it_keeps_rising() {
        let steady: Vec<f64> = (0..400).map(|i| 0.2 + (i % 7) as f64 * 0.1).collect();
        assert!(!lag_grows(&steady, 20.0));
        let growing: Vec<f64> = (0..400).map(|i| i as f64 * 0.5).collect();
        assert!(lag_grows(&growing, 20.0));
        // Rising but still below the floor is noise, not a backlog.
        let small: Vec<f64> = (0..400).map(|i| i as f64 * 0.01).collect();
        assert!(!lag_grows(&small, 20.0));
    }
}
