//! Order statistics for the report: medians, and "the highest percentile
//! the sample supports".

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The tail percentiles the report may name, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Nearest-rank position (from 1) of percentile `p` (0–100, to a tenth)
/// in a sample of `n`, in integer arithmetic so that p90 of 100 is rank 90
/// and not 91 by a rounding error.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Value at percentile `p` of an ascending-sorted slice (nearest-rank).
/// `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// The highest percentile of [`TAILS`] with at least [`TAIL_SUPPORT`]
/// samples beyond it in a sample of `n`, or `None` when even p90 has
/// fewer: a tail read off a handful of samples is noise, so the report
/// refuses it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| supports(n, p))
}

/// Whether a sample of `n` supports reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= TAIL_SUPPORT
}

/// Interquartile range as a share of the median — the repeatability
/// figure the benchmark contract gates on. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    let med = median(&mut v)?;
    let q = |k: f64| {
        let pos = k * (v.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (med != 0.0).then(|| (q(3.0) - q(1.0)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None, "p90 of 99 leaves 9 beyond");
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).expect("ten values");
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
    }
}
