//! HDR-style log-linear latency histogram.
//!
//! Tail-latency reporting at the 99.99th percentile (Fig. 7(d–f)) needs a
//! histogram that is cheap to record into (two shifts and an add) and
//! keeps bounded relative error across nine orders of magnitude. The
//! classic HdrHistogram layout does exactly that: buckets double in width
//! every power of two, with `SUB_BUCKETS` linear sub-buckets each, giving
//! ≤ 1/SUB_BUCKETS (< 1.6%) relative error.

/// Sub-buckets per power-of-two bucket (must be a power of two).
const SUB_BUCKETS: usize = 64;
const SUB_SHIFT: usize = SUB_BUCKETS.trailing_zeros() as usize;
/// Number of power-of-two buckets; 59 covers the full u64 range.
const BUCKETS: usize = 59;

/// A log-linear histogram of nanosecond values.
#[derive(Clone, PartialEq)]
pub struct Histogram {
    /// Cells `first..first + counts.len()` of the 3,776: the smallest
    /// recorded value's to the largest's. A grid holds every run's
    /// histograms until it merges them; latencies span a few hundred.
    first: usize,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("mean_ns", &self.mean())
            .field("max_ns", &self.max())
            .finish()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            first: 0,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index_of(value: u64) -> usize {
        // Bucket 0 stores values [0, SUB_BUCKETS) exactly, one per cell.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // Bucket b >= 1 covers [SUB_BUCKETS * 2^(b-1), SUB_BUCKETS * 2^b)
        // using sub-bucket cells [SUB_BUCKETS/2, SUB_BUCKETS) of width
        // 2^b — the HdrHistogram layout.
        let top = 63 - value.leading_zeros() as usize;
        let bucket = (top - SUB_SHIFT + 1).min(BUCKETS - 1);
        let sub = ((value >> bucket) as usize).min(SUB_BUCKETS - 1);
        bucket * SUB_BUCKETS + sub
    }

    #[inline]
    fn value_of(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if bucket == 0 {
            sub
        } else {
            // Upper edge of the cell (conservative for percentiles).
            ((sub + 1) << bucket) - 1
        }
    }

    /// Record one value (nanoseconds).
    #[inline]
    pub fn record(&mut self, value: u64) {
        let i = Self::index_of(value);
        if self.counts.get(i.wrapping_sub(self.first)).is_none() {
            self.cover(i, i);
        }
        self.counts[i - self.first] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (upper bucket edge; ≤1.6%
    /// relative error). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank convention: floor(q*n)+1, clamped — the smallest value v
        // such that more than q*n of the samples are <= v.
        let rank = (((q * self.total as f64).floor() as u64) + 1).min(self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(self.first + i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one. Every field is an integer
    /// count, sum or extreme, so merging parts in any order gives
    /// exactly the histogram of all their values.
    pub fn merge(&mut self, other: &Histogram) {
        if !other.counts.is_empty() {
            self.cover(other.first, other.first + other.counts.len() - 1);
            let cells = &mut self.counts[other.first - self.first..];
            for (a, b) in cells.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Grow the stored cells, with no spare capacity, to cover `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.first = lo;
        }
        if lo < self.first {
            let grow = self.first - lo;
            self.counts.reserve_exact(grow);
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = lo;
        }
        let len = hi + 1 - self.first;
        if len > self.counts.len() {
            self.counts.reserve_exact(len - self.counts.len());
            self.counts.resize(len, 0);
        }
    }

    /// Reset to empty without deallocating.
    pub fn clear(&mut self) {
        self.first = 0;
        self.counts.clear();
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(1000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 1000.0);
        let p = h.percentile(0.5);
        assert!((p as f64 - 1000.0).abs() / 1000.0 < 0.02, "p50 {p}");
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 1..=63 {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), 63);
        // Below SUB_BUCKETS everything is linear; p(1/63) ≈ 1.
        assert!(h.percentile(0.015) <= 2);
    }

    #[test]
    fn uniform_percentiles_within_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.percentile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.03, "q={q}: got {got}, want {expect}");
        }
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn tail_percentile_catches_outliers() {
        let mut h = Histogram::new();
        for _ in 0..9_999 {
            h.record(100_000); // 100us
        }
        h.record(50_000_000); // one 50ms outlier
        let p9999 = h.percentile(0.9999);
        assert!(p9999 >= 49_000_000, "p99.99 {p9999} must see the outlier");
        let p50 = h.percentile(0.5);
        assert!(p50 < 103_000, "p50 {p50} must not");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in (1..2000u64).step_by(7) {
            a.record(v * 13);
            c.record(v * 13);
        }
        for v in (1..3000u64).step_by(11) {
            b.record(v * 29);
            c.record(v * 29);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.percentile(q), c.percentile(q), "q={q}");
        }
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(5_000_000);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h, Histogram::new());
        h.record(7);
        assert_eq!(h.count(), 1);
        let mut fresh = Histogram::new();
        fresh.record(7);
        assert_eq!(h, fresh);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }

    proptest::proptest! {
        /// Splitting values over parts and merging the parts back, in
        /// any order, equals one histogram fed every value — how a
        /// multi-pair run combines its groups' latencies.
        #[test]
        fn merging_parts_in_any_order_equals_the_whole(
            values in proptest::collection::vec(0u64..u64::MAX, 0..300),
            keys in proptest::collection::vec(0u64..1000, 1..6),
        ) {
            let mut whole = Histogram::new();
            let mut parts = vec![Histogram::new(); keys.len()];
            for (i, &v) in values.iter().enumerate() {
                whole.record(v);
                parts[i % keys.len()].record(v);
            }
            // A random permutation of the parts: sort them by key.
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&i| (keys[i], i));
            let mut merged = Histogram::new();
            for i in order {
                merged.merge(&parts[i]);
            }
            proptest::prop_assert_eq!(merged, whole);
        }

        /// Percentile relative error stays within the design bound for
        /// arbitrary value sets.
        #[test]
        fn bounded_relative_error(values in proptest::collection::vec(1u64..10_000_000_000, 1..500)) {
            let mut h = Histogram::new();
            let mut sorted = values.clone();
            for &v in &values {
                h.record(v);
            }
            sorted.sort_unstable();
            for &q in &[0.5, 0.9, 0.99] {
                let rank = ((((q * sorted.len() as f64).floor() as usize) + 1).min(sorted.len())) - 1;
                let exact = sorted[rank] as f64;
                let got = h.percentile(q) as f64;
                let err = (got - exact).abs() / exact;
                proptest::prop_assert!(err < 0.05, "q={} got={} exact={}", q, got, exact);
            }
        }
    }
}
