//! Order statistics shared by the workloads and `perf compare`.

/// Median (mean of the two middle values for an even count). 0 for empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the rule the benchmark contract
/// scores run-to-run spread by. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// 1-based nearest rank of percentile `p` (whole percent) among `n` samples.
fn nearest_rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` in 1..=100 of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: usize) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// The highest of the reported percentiles (50, 95, 99) that still has at
/// least ten samples beyond it — the tail a run of `n` samples can carry.
pub fn highest_supported_percentile(n: usize) -> usize {
    [99, 95, 50].into_iter().find(|p| samples_beyond(n, *p) >= 10).unwrap_or(50)
}

/// Geometric mean of positive values. 0 for empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond it; 999 leaves 9.
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(highest_supported_percentile(1000), 99);
        assert_eq!(highest_supported_percentile(999), 95);
        // p95 needs 200 samples.
        assert_eq!(highest_supported_percentile(200), 95);
        assert_eq!(highest_supported_percentile(199), 50);
        assert_eq!(highest_supported_percentile(5), 50);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50), 50.0);
        assert_eq!(percentile_sorted(&v, 95), 95.0);
        assert_eq!(percentile_sorted(&v, 99), 99.0);
        assert_eq!(percentile_sorted(&[7.0], 99), 7.0);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
    }
}
