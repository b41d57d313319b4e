//! Order statistics: the percentile rule of the metrics guide, and the
//! quartile spread the regression bounds are calibrated from.

/// Value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail percentile a sample of `n` supports: the highest of p90,
/// p99, p99.9, p99.99 that still leaves at least ten samples beyond it.
/// `None` when even p90 does not (fewer than 100 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [(10_000, 0.9999), (1_000, 0.999), (100, 0.99), (10, 0.9)]
        .into_iter()
        .find(|(one_in, _)| n / one_in >= 10)
        .map(|(_, p)| p)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the "exclusive" method), so spreads computed here
/// and by the driver agree.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i * (n + 1) / 4, clamped into 1..=n-1, interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        assert_eq!(tail_percentile(5_000_000), Some(0.9999));
    }

    #[test]
    fn median_and_quantile_on_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 51.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&v), 1.0);
    }
}
