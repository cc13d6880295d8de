//! Order statistics used by the benchmark's metrics and by its own
//! steadiness check.

/// Nearest-rank percentile of `samples` (`p` in `[0, 100]`): the smallest
/// sample such that at least `p`% of all samples are at or below it.
/// Returns 0.0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(sorted.len(), p)]
}

/// Zero-based index of the nearest-rank `p`-th percentile among `n`
/// sorted samples.
fn rank_index(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, p)
    }
}

/// Whether a tail percentile is reportable: at least ten samples must lie
/// beyond it, or the figure is one or two outliers rather than a tail.
pub fn tail_is_resolved(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median (the 50th percentile by linear interpolation, as Python's
/// `statistics.median`).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// First and third quartiles by Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method). Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = (n + 1) as f64;
    let at = |j: usize| {
        // Position j*(n+1)/4, one-based. Python clamps the index, not the
        // fraction, so tiny samples extrapolate past their ends.
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are checked against.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 34.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 200 samples is rank 190: ten samples lie beyond it.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(tail_is_resolved(200, 95.0));
        assert!(!tail_is_resolved(199, 95.0));
        // p90 of a stream's 101 cameras leaves ten beyond it.
        assert!(tail_is_resolved(101, 90.0));
        assert!(!tail_is_resolved(99, 90.0));
        // p99 needs a thousand samples.
        assert!(!tail_is_resolved(999, 99.0));
        assert!(tail_is_resolved(1000, 99.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).expect("spread");
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
        assert_eq!(median(&[1.0, 3.0, 2.0, 4.0]), 2.5);
    }
}
