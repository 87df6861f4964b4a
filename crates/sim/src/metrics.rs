//! Deterministic simulation metrics: counters and fixed-bucket
//! latency histograms.
//!
//! Everything in this module is plain integer state updated by plain
//! integer arithmetic — no wall-clock reads, no hashing, no allocation
//! after construction — so two runs of the same seed produce bit-identical
//! metric values, and exporting them (see [`crate::json`]) yields
//! byte-identical files. That determinism guarantee is what lets the
//! repository's bench harness diff metric exports across runs as a CI
//! gate.
//!
//! # Examples
//!
//! ```
//! use pqs_sim::metrics::Histogram;
//!
//! let mut h = Histogram::new();
//! for v in [100, 200, 300, 400, 1_000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 5);
//! assert_eq!(h.max(), 1_000);
//! assert!(h.percentile(50.0) <= 300);
//! ```

/// A monotonically increasing event counter.
///
/// A thin wrapper over `u64` that documents intent (a metric, not a loop
/// variable) and keeps the export path uniform.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power of two,
/// bounding the relative quantisation error at ~3%.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: 32 unit buckets for
/// values below 32, then 32 sub-buckets per remaining power of two.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A fixed-bucket, HDR-style histogram of non-negative integer samples
/// (by convention: sim-time latencies in microseconds).
///
/// Values are binned logarithmically — 32 linear sub-buckets per power of
/// two — so the whole `u64` range fits in a fixed 1 920-slot table with at
/// most ~3% relative error, and recording is a few shifts plus one
/// increment (no allocation on the hot path; the table itself is one
/// up-front allocation).
///
/// Percentile queries return the *lower bound* of the bucket containing
/// the requested rank: a deterministic, slightly conservative estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros(); // >= SUB_BITS
            let shift = msb - SUB_BITS;
            let sub = (value >> shift) - SUB; // top SUB_BITS bits below the MSB
            (u64::from(shift + 1) * SUB + sub) as usize
        }
    }

    /// The lower bound of bucket `index` (the value [`Histogram::percentile`]
    /// reports for samples binned there).
    fn bucket_floor(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB {
            index
        } else {
            let shift = index / SUB - 1;
            let sub = index % SUB;
            (SUB + sub) << shift
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (0–100): the lower bound of the bucket
    /// holding the sample of rank `⌈p/100 · count⌉`. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Exact for the unit buckets; bucket floor above them.
                return Self::bucket_floor(i).max(self.min()).min(self.max);
            }
        }
        self.max
    }

    /// Convenience: (p50, p90, p99).
    pub fn quantile_summary(&self) -> (u64, u64, u64) {
        (
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
        )
    }

    /// Adds all samples of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(bucket_floor, count)` pairs, in increasing
    /// value order — the sparse form used by the JSON export.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_roundtrip_floor_bounds() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1_000, 123_456, u64::MAX] {
            let idx = Histogram::bucket_of(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            if idx + 1 < BUCKETS {
                assert!(Histogram::bucket_floor(idx + 1) > v);
            }
        }
    }

    #[test]
    fn exact_below_sub_resolution() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 15);
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 1_000, 5_000, 100_000, 2_000_000] {
            h.record(v);
        }
        let (p50, p90, p99) = h.quantile_summary();
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max());
        assert!(h.percentile(0.0) >= h.min());
        // ~3% relative quantisation error.
        assert!(p99 as f64 >= 2_000_000.0 * 0.96);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn merge_matches_recording_everything_once() {
        let samples_a = [5u64, 50, 500, 5_000];
        let samples_b = [7u64, 70, 700_000];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for &v in &samples_a {
            a.record(v);
            whole.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn determinism_identical_sequences_identical_state() {
        let build = || {
            let mut h = Histogram::new();
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..10_000 {
                // Deterministic pseudo-random sequence (splitmix-ish).
                x = x.wrapping_mul(0xbf58476d1ce4e5b9).rotate_left(31);
                h.record(x >> 40);
            }
            h
        };
        assert_eq!(build(), build());
    }
}
