//! Sample summaries: median and the tail percentile the benchmark
//! reports.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, as `(value, percentile)`: the sorted sample at index
/// `n − 1 − TAIL_BEYOND`, whose percentile is the share of samples at
/// or below it. With too few samples for that, the maximum is reported
/// as percentile 100.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (v[n - 1], 100.0);
    }
    let k = n - 1 - TAIL_BEYOND;
    (v[k], 100.0 * (k + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0));
    }
}
