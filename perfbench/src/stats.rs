//! Summary statistics with the benchmark's percentile rule: a percentile
//! is reported only when at least [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p ∈ (0, 1)` of `sorted` (ascending), or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort a copy ascending (NaN-free input expected; NaN sorts last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of a non-empty slice (mean of the middle pair for even length).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Interquartile mean: the mean of the middle half of the sorted sample
/// (a quarter trimmed from each end, rounded down; the whole sample when
/// it has fewer than four values).
pub fn iqm(v: &[f64]) -> f64 {
    let s = sorted(v);
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(100), 0.99), None);
    }

    #[test]
    fn median_rule_holds_from_twenty_samples() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_from_each_end() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iqm(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
