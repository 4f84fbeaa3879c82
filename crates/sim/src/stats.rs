//! Summary statistics for the benchmark harness.
//!
//! The figure generators report means, extrema, and ratios over sets of
//! simulated execution times; [`Summary`] computes those in one pass.

/// One-pass summary of a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub std_dev: f64,
}

impl Summary {
    /// Computes a summary; returns `None` on an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut ssq = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            let d = v - mean;
            ssq += d * d;
        }
        let std_dev = if count > 1 {
            (ssq / (count - 1) as f64).sqrt()
        } else {
            0.0
        };
        Some(Summary {
            count,
            mean,
            min,
            max,
            std_dev,
        })
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow bins.
///
/// Used by the figure harness for latency and interval distributions
/// (e.g. the gaps between PUT issues in the Figure 9 timeline).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// A histogram with `bins` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0 && hi > lo, "invalid histogram shape");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let width = (self.hi - self.lo) / n as f64;
            let idx = (((value - self.lo) / width) as usize).min(n - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations (including out-of-range).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below `lo` / at-or-above `hi`.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// `(bucket lower edge, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + i as f64 * width, c))
    }

    /// Bucket edges `(lo, hi)`.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Estimated quantile `q` in `[0, 1]` by linear interpolation inside
    /// the containing bucket. Out-of-range samples are *saturated* to the
    /// histogram edges rather than dropped: underflow mass sits at `lo`,
    /// overflow mass at `hi`, so tails still pull the estimate toward the
    /// edge they fell past. Returns `None` on an empty histogram or a `q`
    /// outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the sample the quantile lands on, 1-based.
        let rank = (q * self.count as f64).ceil().max(1.0);
        let mut cum = self.underflow as f64;
        if cum >= rank {
            return Some(self.lo); // saturated: estimate clamps to the low edge
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c as f64;
            if next >= rank {
                let frac = ((rank - cum) / c as f64).clamp(0.0, 1.0);
                return Some(self.lo + width * (i as f64 + frac));
            }
            cum = next;
        }
        Some(self.hi) // saturated: remaining mass is overflow at the high edge
    }

    /// `(p50, p95, p99)` bucket estimates; `None` on an empty histogram.
    pub fn percentiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
        ))
    }

    /// Compact one-line rendering: counts per bucket plus tails.
    pub fn render(&self) -> String {
        let cells: Vec<String> = self.bins.iter().map(u64::to_string).collect();
        format!(
            "<{} [{}] >={}",
            self.underflow,
            cells.join(" "),
            self.overflow
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_values() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 5.5, 9.999] {
            h.record(v);
        }
        h.record(-1.0);
        h.record(10.0);
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![2, 1, 1, 0, 1]);
        assert_eq!(h.out_of_range(), (1, 1));
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = Histogram::new(100.0, 200.0, 4);
        let edges: Vec<f64> = h.buckets().map(|(e, _)| e).collect();
        assert_eq!(edges, vec![100.0, 125.0, 150.0, 175.0]);
    }

    #[test]
    fn histogram_renders() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.record(0.5);
        h.record(1.5);
        h.record(5.0);
        assert_eq!(h.render(), "<0 [1 1] >=1");
    }

    #[test]
    #[should_panic(expected = "invalid histogram shape")]
    fn histogram_rejects_empty_range() {
        Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert!(h.quantile(0.5).is_none());
        assert!(h.percentiles().is_none());
    }

    #[test]
    fn quantile_rejects_out_of_domain_q() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(1.0);
        assert!(h.quantile(-0.1).is_none());
        assert!(h.quantile(1.1).is_none());
    }

    #[test]
    fn quantile_single_bucket_interpolates() {
        let mut h = Histogram::new(0.0, 10.0, 1);
        for _ in 0..4 {
            h.record(5.0);
        }
        // All mass in the one [0,10) bucket: rank r of 4 maps to 10*r/4.
        assert_eq!(h.quantile(0.25), Some(2.5));
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        let (p50, p95, p99) = h.percentiles().unwrap();
        assert_eq!(p50, 5.0);
        assert_eq!(p95, 10.0);
        assert_eq!(p99, 10.0);
    }

    #[test]
    fn quantile_saturates_out_of_range_samples() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        // 3 underflow, 4 in-range, 3 overflow: tails must not be dropped.
        for v in [-5.0, -1.0, -0.5] {
            h.record(v);
        }
        for v in [4.0, 4.5, 5.0, 5.5] {
            h.record(v);
        }
        for v in [10.0, 50.0, 1e9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0.0)); // clamped to lo
        assert_eq!(h.quantile(1.0), Some(10.0)); // clamped to hi
        let p50 = h.quantile(0.5).unwrap();
        assert!((0.0..10.0).contains(&p50), "median inside range, got {p50}");
        // p99 lands in the overflow tail -> saturates to hi, not dropped.
        assert_eq!(h.quantile(0.99), Some(10.0));
    }

    #[test]
    fn quantile_known_distribution() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        // 100 samples, one per unit: quantiles track the bucket edges.
        for i in 0..100 {
            h.record(i as f64);
        }
        let (p50, p95, p99) = h.percentiles().unwrap();
        assert!((p50 - 50.0).abs() <= 10.0, "p50={p50}");
        assert!((p95 - 95.0).abs() <= 10.0, "p95={p95}");
        assert!((p99 - 99.0).abs() <= 10.0, "p99={p99}");
        assert!(p50 <= p95 && p95 <= p99, "monotone quantiles");
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        // Sample std-dev of this classic dataset is sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_singleton_has_zero_stddev() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }
}
