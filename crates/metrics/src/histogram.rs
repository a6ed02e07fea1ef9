//! Log-linear latency histogram (HDR-histogram style).
//!
//! Each power-of-two octave is split into 8 linear sub-buckets, bounding
//! quantile error at 12.5 % across the full u64 range in O(1) memory —
//! the usual shape for latency telemetry. Used by the cluster model to
//! record per-request completion latencies.

/// A fixed-layout log-linear histogram of nanosecond values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// 8 linear sub-buckets per power-of-two octave.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB: u64 = 8; // sub-buckets per octave (12.5 % resolution)
/// Indices 0..SUB hold the exact small values; octaves ≥ 3 follow
/// contiguously (octaves 0–2 are covered by the exact range).
const OFFSET: u64 = 2 * SUB;
const BUCKETS: usize = 64 * SUB as usize; // covers the full u64 range

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB {
            // Values below the first full octave are exact.
            return value as usize;
        }
        let log2 = 63 - value.leading_zeros() as u64;
        let base = 1u64 << log2;
        // Linear position within the octave, in eighths.
        let sub = ((value - base) as u128 * SUB as u128 / base as u128) as u64;
        let idx = log2 * SUB + sub - OFFSET;
        (idx as usize).min(BUCKETS - 1)
    }

    /// Lower bound of a bucket (inverse of `bucket_of`).
    fn bucket_floor(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx;
        }
        let j = idx + OFFSET;
        let log2 = j / SUB;
        let sub = j % SUB;
        let base = 1u64 << log2;
        base + base / SUB * sub
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q ∈ [0, 1]`: the lower bound of the bucket
    /// containing the q-th value (exact min/max at the extremes).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    ///
    /// Merging an empty operand is a no-op: an empty histogram's internal
    /// `min`/`max` sentinels (`u64::MAX`/`0`) must never leak into a
    /// populated one, and the 512-bucket zip-add is pure waste when
    /// `other` holds nothing.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sum of all recorded values (exact, accumulated in u128).
    pub fn sum(&self) -> u128 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn exact_extremes() {
        let mut h = Histogram::new();
        for v in [10u64, 100, 1000, 10_000] {
            h.record(v);
        }
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 2777.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        // p50 of 1..=100000 is 50000; the bucket lower bound is at most
        // 12.5 % below the true quantile.
        let p50 = h.quantile(0.5) as f64;
        assert!((43_000.0..=50_001.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99) as f64;
        assert!((86_000.0..=99_001.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn bucket_of_is_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 5, 8, 100, 1000, 1 << 20, 1 << 40, u64::MAX] {
            let b = Histogram::bucket_of(v);
            assert!(b >= last, "bucket regressed at {v}");
            last = b;
        }
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..1000u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    /// Regression: merging an empty histogram must preserve the
    /// destination's min/max/count exactly — the empty operand's internal
    /// sentinels (`min = u64::MAX`, `max = 0`) must not disturb anything.
    /// Covers empty⊕empty, empty⊕full and full⊕full, in both orders.
    #[test]
    fn merge_empty_preserves_extremes() {
        let mut full = Histogram::new();
        for v in [3u64, 40, 500, 6_000] {
            full.record(v);
        }
        let reference = full.clone();

        // full ⊕ empty: destination unchanged, bit for bit.
        let empty = Histogram::new();
        full.merge(&empty);
        assert_eq!(full, reference);
        assert_eq!(full.count(), 4);
        assert_eq!(full.min(), 3);
        assert_eq!(full.max(), 6_000);
        assert_eq!(full.sum(), 6_543);

        // empty ⊕ full: destination becomes an exact copy of the source.
        let mut dst = Histogram::new();
        dst.merge(&reference);
        assert_eq!(dst, reference);
        assert_eq!(dst.min(), 3);
        assert_eq!(dst.max(), 6_000);

        // empty ⊕ empty: still pristine — accessors report zeros.
        let mut e1 = Histogram::new();
        e1.merge(&Histogram::new());
        assert_eq!(e1, Histogram::new());
        assert_eq!(e1.count(), 0);
        assert_eq!(e1.min(), 0);
        assert_eq!(e1.max(), 0);

        // full ⊕ full in both orders agrees on every statistic.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [5u64, 50, 500_000] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 6);
        assert_eq!(ab.min(), 1);
        assert_eq!(ab.max(), 500_000);
    }

    #[test]
    fn small_values_have_exact_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.quantile(0.25), 0);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn empty_histogram_quantiles_all_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q = {q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = Histogram::new();
        h.record(12_345);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 12_345, "q = {q}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 12_345.0);
        assert_eq!(h.min(), 12_345);
        assert_eq!(h.max(), 12_345);
    }

    #[test]
    fn all_equal_samples_collapse_quantiles() {
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            h.record(777);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 777, "q = {q}");
        }
        assert_eq!(h.mean(), 777.0);
    }

    #[test]
    fn saturating_bucket_holds_extreme_values() {
        // Values near u64::MAX land in (or are clamped to) the last bucket;
        // recording them must neither panic nor corrupt the quantiles.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // The middle quantile is clamped into [min, max] despite the
        // enormous final bucket.
        let p50 = h.quantile(0.5);
        assert!((1..=u64::MAX).contains(&p50));
        // Sum accumulates in u128, so the mean survives two u64::MAX-scale
        // samples without overflow.
        assert!(h.mean() > u64::MAX as f64 / 2.0);
    }

    /// Pin the exact p50/p99/p999 values on known distributions. The
    /// trace analyzer's tail-forensics thresholds come straight from
    /// `quantile`, so these values are load-bearing: any change to the
    /// bucket layout or rank rule shows up here before it silently moves
    /// every figure CSV and forensics cutoff.
    #[test]
    fn pinned_quantiles_uniform() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        // rank ceil(0.5·100000) = 50000 lands in the bucket
        // [49152, 53248) (octave base 32768, sub-bucket 4).
        assert_eq!(h.quantile(0.5), 49_152);
        // rank 99000 → bucket [98304, 106496) clipped by max.
        assert_eq!(h.quantile(0.99), 98_304);
        // rank 99900 shares the p99 bucket at this resolution.
        assert_eq!(h.quantile(0.999), 98_304);
    }

    #[test]
    fn pinned_quantiles_two_point() {
        // Equal mass at 10 ns and 10 µs: the median sits on the low mode
        // (rank rule: ceil(q·n) of the sorted values), the p99 on the
        // high mode's bucket floor.
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.record(10);
            h.record(10_000);
        }
        assert_eq!(h.quantile(0.5), 10, "exact: 10 has its own sub-bucket");
        assert_eq!(h.quantile(0.99), 9_216, "floor of 10000's bucket");
        assert_eq!(h.quantile(0.999), 9_216);
        assert_eq!(h.quantile(1.0), 10_000, "max is exact");
    }

    #[test]
    fn pinned_quantiles_single_bucket() {
        // All samples in one bucket: every quantile is that bucket's value
        // because the result clamps to [min, max].
        let mut h = Histogram::new();
        for _ in 0..1_000 {
            h.record(4_321);
        }
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(h.quantile(q), 4_321, "q = {q}");
        }
    }

    #[test]
    fn floor_inverts_bucket_of() {
        for v in [0u64, 1, 7, 8, 9, 100, 1000, 65_536, 1_000_000, 1 << 40] {
            let idx = Histogram::bucket_of(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            // The next bucket's floor is above the value.
            if idx + 1 < BUCKETS {
                assert!(
                    Histogram::bucket_floor(idx + 1) > v,
                    "value {v} spills over"
                );
            }
            // Resolution bound: floor within 12.5 % of the value.
            assert!(v as f64 - floor as f64 <= (v as f64) / 8.0 + 1.0);
        }
    }
}
