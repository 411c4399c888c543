//! Order statistics for the benchmark's own measurements.

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank `q`-quantile: the `ceil(q·n)`-th smallest value.
///
/// # Panics
///
/// Panics on an empty sample or a `q` outside `(0, 1]`.
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    s[rank(s.len(), q) - 1]
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The sample-count rule: the `q`-quantile of `n` samples is supported
/// when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it (so p90 needs
/// 100 samples, p99 needs 1000).
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `q`-quantile of the observations in a power-of-two-bucketed histogram
/// (bucket `i` holds integer values in `[2^(i-1), 2^i − 1]`, bucket 0 holds
/// 0), interpolating linearly by rank inside the bucket that holds the
/// target rank. `buckets` are sparse `(index, count)` pairs in ascending
/// index order. Returns 0 for an empty histogram.
pub fn bucket_quantile(buckets: &[(usize, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).max(0.0);
    let mut seen = 0u64;
    for &(i, c) in buckets {
        if c == 0 {
            continue;
        }
        if (seen + c) as f64 >= target {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = (1u64 << i.min(63)) as f64;
            let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            return lo + frac * (hi - lo);
        }
        seen += c;
    }
    let last = buckets.last().map_or(0, |&(i, _)| i);
    (1u64 << last.min(63)) as f64
}

/// Per-bucket difference `after − before` of two snapshots of one
/// cumulative histogram: the observations recorded between them.
pub fn bucket_delta(before: &[(usize, u64)], after: &[(usize, u64)]) -> Vec<(usize, u64)> {
    after
        .iter()
        .map(|&(i, c)| {
            let prior = before.iter().find(|&&(j, _)| j == i).map_or(0, |&(_, p)| p);
            (i, c.saturating_sub(prior))
        })
        .filter(|&(_, c)| c > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(100, 0.9));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn nearest_rank_and_median() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.9), 90.0);
        assert_eq!(nearest_rank(&xs, 0.5), 50.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        // 10 observations in [128, 255] (bucket 8), 10 in [256, 511].
        let h = [(8, 10), (9, 10)];
        assert_eq!(bucket_quantile(&h, 0.25), 128.0 + 0.5 * 128.0);
        assert_eq!(bucket_quantile(&h, 0.5), 256.0);
        assert_eq!(bucket_quantile(&h, 1.0), 512.0);
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
        assert_eq!(bucket_quantile(&[(0, 3)], 0.5), 0.0);
    }

    #[test]
    fn bucket_delta_keeps_only_new_observations() {
        let before = [(3, 2), (5, 1)];
        let after = [(3, 2), (5, 4), (7, 1)];
        assert_eq!(bucket_delta(&before, &after), vec![(5, 3), (7, 1)]);
    }
}
