//! Order statistics: percentiles of one round, medians over rounds, and
//! the quartiles the A/A comparison uses.

/// Sorts a sample ascending (NaN never occurs: every sample is a time
/// or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The median over rounds of a per-round statistic: each inner slice is
/// one round's samples over the same inputs.
pub fn round_median(rounds: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per_round: Vec<f64> = rounds.iter().map(|r| stat(r)).collect();
    median(&per_round)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default exclusive method)
/// gives them, so the A/A report applies the rule the driver applies.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..n-1, delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        let s = sorted(vec![5.0, 1.0, 9.0, 3.0]);
        assert_eq!(percentile_sorted(&s, 50.0), 3.0);
        assert_eq!(percentile_sorted(&s, 75.0), 5.0);
        assert_eq!(percentile_sorted(&s, 76.0), 9.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[8.0]), 8.0);
    }

    #[test]
    fn round_median_ignores_one_bad_round() {
        let rounds = vec![
            vec![10.0, 11.0, 12.0],
            vec![10.0, 11.0, 13.0],
            vec![90.0, 95.0, 99.0],
        ];
        assert_eq!(round_median(&rounds, median), 11.0);
        let p100 = |r: &[f64]| percentile_sorted(&sorted(r.to_vec()), 100.0);
        assert_eq!(round_median(&rounds, p100), 13.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) -> [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), (3.0, 7.0));
        // statistics.quantiles([1, 3], n=4) -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }
}
