//! Order statistics for timing samples.
//!
//! A timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it; with too few
//! samples for any tail percentile only the median is reported.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    v[rank(v.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail percentile to report for `n` samples: the highest of 95, 90
/// and 75 with at least [`MIN_BEYOND`] samples beyond it, or `None` when
/// only the median is meaningful.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [95, 90, 75]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// The reported tail of a sample set and the percentile it stands for
/// (50 when the set is too small for a tail percentile).
pub fn tail(values: &[f64]) -> (f64, u32) {
    match tail_percentile(values.len()) {
        Some(p) => (percentile(values, p), p),
        None => (median(values), 50),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Run-to-run spread: the distance between the quartiles as a share of
/// the median (0 for fewer than two samples).
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 10.0);
        assert_eq!(percentile(&v, 95), 19.0);
        assert_eq!(percentile(&v, 100), 20.0);
        assert_eq!(percentile(&[7.0, 9.0], 1), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 400 samples: p95 leaves 20 beyond, p99 would leave only 4
        assert_eq!(samples_beyond(400, 95), 20);
        assert_eq!(samples_beyond(400, 99), 4);
        assert_eq!(tail_percentile(400), Some(95));
        // 200 is the smallest set whose p95 keeps ten beyond
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(40), Some(75));
        // five repetitions have no tail to speak of: median only
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail(&[4.0, 2.0, 9.0, 1.0, 3.0]), (3.0, 50));
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v), (380.0, 95));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartile_spread(&v), 1.0);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }
}
