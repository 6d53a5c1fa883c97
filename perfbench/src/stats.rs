//! Order statistics over timing samples.

/// Samples a reported percentile must leave above it. A tail estimate
/// resting on fewer samples is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0..=100) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly above the chosen rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = (q * n as f64 / 100.0).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| s[idx])
}

/// The highest percentile at or below `q` that still has [`MIN_BEYOND`]
/// samples above it, as `(percentile, value)`; `None` when even the
/// median does not qualify.
pub fn tail(samples: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let highest = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    let p = q.min(highest.floor());
    percentile(samples, p).map(|v| (p, v))
}

/// Median (mean of the middle pair for even counts); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 above it.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p99 leaves 1: refused.
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&xs[..15], 50.0), None, "7 above the median");
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some((99.0, 990.0)));
        let ys: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&ys, 99.0), Some((90.0, 90.0)));
        assert_eq!(tail(&ys[..19], 99.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
