//! Fixed log-bucket latency histograms.
//!
//! Span durations range from sub-microsecond kernel calls to multi-second
//! sweeps, so linear buckets are useless. Each histogram has 64 buckets
//! where bucket `i` covers `[2^i, 2^(i+1))` nanoseconds (bucket 0 also
//! absorbs zero). The representation is a plain array of counters, so
//! merging histograms from different threads or runs is element-wise
//! addition and recording is branch-free arithmetic on the leading-zero
//! count.

/// Number of log₂ buckets; covers the full `u64` nanosecond range.
pub(crate) const BUCKETS: usize = 64;

/// A mergeable latency histogram with power-of-two bucket edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket covering `value`: `floor(log2(value))`, with
    /// 0 and 1 both landing in bucket 0.
    pub(crate) fn bucket_index(value: u64) -> usize {
        63 - (value | 1).leading_zeros() as usize
    }

    /// Half-open value range `[lo, hi)` covered by bucket `i` (bucket 63's
    /// upper bound saturates at `u64::MAX`).
    pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
        (lo, hi)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds `count` pre-aggregated observations to bucket `bucket` with a
    /// known value total (used when reconstructing from a serialized
    /// report).
    pub(crate) fn record_bucket(&mut self, bucket: usize, count: u64) {
        self.counts[bucket.min(BUCKETS - 1)] += count;
    }

    /// Sets the exact sum of observed values (serialization round-trip).
    pub(crate) fn set_sum(&mut self, sum: u64) {
        self.sum = sum;
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Element-wise saturating subtraction of an earlier snapshot of the
    /// same histogram (delta semantics for `metrics::MetricsSnapshot`).
    /// Buckets and sums only ever grow, so on genuine before/after pairs
    /// the saturation never engages.
    pub fn subtract(&mut self, earlier: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(earlier.counts.iter()) {
            *a = a.saturating_sub(*b);
        }
        self.sum = self.sum.saturating_sub(earlier.sum);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact sum of all observed values.
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Iterates `(bucket_index, count)` over non-empty buckets.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`); 0 if the histogram is empty. Resolution is one
    /// bucket, i.e. a factor of two.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bounds(i).1.saturating_sub(1).max(1);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(1023), 9);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bounds_partition_the_range() {
        for i in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo < hi);
            if i > 0 {
                assert_eq!(Histogram::bucket_bounds(i - 1).1, lo);
            }
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 2 + 3 + 1000 + 1_000_000);
        assert_eq!(h.counts[1], 2); // 2 and 3
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(5);
        b.record(700);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 710);
        assert_eq!(a.counts[Histogram::bucket_index(5)], 2);
    }

    #[test]
    fn quantile_brackets_the_median() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(100); // bucket 6: [64, 128)
        }
        let median = h.quantile(0.5);
        assert!((64..256).contains(&median), "median bound {median}");
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }
}
