//! Order statistics shared by the workloads and the report.
//!
//! One definition of "percentile" for the whole benchmark: the
//! nearest-rank value on the sorted sample (no interpolation), so a
//! reported latency is always a latency that was actually observed.
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what the acceptance driver
//! applies to the repetitions.

/// Sorts a sample ascending; NaN never occurs in our timings, and a
/// total order keeps the sort panic-free if one ever does.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile `p` in `[0, 100]` of an ascending sample.
/// Returns 0.0 for an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample: mean of the two middle values for an
/// even count, like Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, `statistics.quantiles(values, n=4)`
/// exclusive method. Needs two values; fewer give `(v, v)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |k: usize| {
        // Position k·(n+1)/4 on a 1-based sample, clamped to the ends.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile range of the repetitions.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Samples strictly beyond the nearest-rank percentile `p` — the guard
/// behind "p95 has at least 30 samples beyond it".
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 95.0), 95.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
        assert_eq!(percentile_sorted(&[], 95.0), 0.0);
        // 800 frames: p95 is the 760th, leaving 40 beyond it.
        assert_eq!(samples_beyond(800, 95.0), 40);
        assert_eq!(samples_beyond(8000, 95.0), 400);
    }

    #[test]
    fn median_of_repetitions_matches_python() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(iqr(&ten), 5.5);
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }
}
