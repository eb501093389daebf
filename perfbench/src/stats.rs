//! Sample summaries: the median and the highest percentile the sample
//! supports.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a "p99" over a few hundred samples is never a single
//! outlier in disguise.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles a summary may report, highest first.
const TAIL_LADDER: [f64; 7] = [0.999, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5];

/// Nearest-rank `q`-quantile of an ascending-sorted sample (`q` in `(0, 1]`).
///
/// # Panics
/// Panics on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile in the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n >= 1 && n - rank(n, q) >= MIN_BEYOND)
}

/// Median, supported tail and mean of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile `tail` reports (1.0 = the maximum, when the sample
    /// is too small for any ladder percentile).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). An empty sample summarizes to
    /// zeros.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                n: 0,
                p50: 0.0,
                tail_q: 0.0,
                tail: 0.0,
                mean: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len()).unwrap_or(1.0);
        Self {
            n: sorted.len(),
            p50: quantile(&sorted, 0.5),
            tail_q,
            tail: quantile(&sorted, tail_q),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// The tail percentile as a label such as `p99`, `p99.9` or `max`.
    pub fn tail_label(&self) -> String {
        if self.tail_q >= 1.0 {
            "max".into()
        } else {
            format!("p{}", (self.tail_q * 1000.0).round() / 10.0)
        }
    }
}

/// Median of a sample (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail_quantile(1000), Some(0.99));
        // One fewer and p99 has only 9 beyond (nearest rank 990 of 999).
        assert_eq!(tail_quantile(999), Some(0.98));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(500), Some(0.98));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(s.mean, 500.5);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_maximum() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.tail_q, s.tail), (2.0, 1.0, 3.0));
        assert_eq!(s.tail_label(), "max");
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&sorted, 0.5), 20.0);
        assert_eq!(quantile(&sorted, 0.75), 30.0);
        assert_eq!(quantile(&sorted, 1.0), 40.0);
        assert_eq!(quantile(&sorted, 0.01), 10.0);
    }
}
