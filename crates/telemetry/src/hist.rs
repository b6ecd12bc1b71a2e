//! Fixed log2-bucket latency histograms.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::snapshot::HistSnapshot;

/// Bucket count: bucket 0 holds the value 0, bucket `i >= 1` holds values
/// in `[2^(i-1), 2^i)`. 64 octaves cover the whole `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A fixed log2-bucket histogram of `u64` samples (latencies are recorded
/// in nanoseconds by convention; byte sizes work just as well).
///
/// Recording is lock-free: one relaxed fetch-add on the matching bucket
/// plus count/sum and min/max maintenance. Quantiles are produced at
/// snapshot time by linear interpolation inside the matching power-of-two
/// bucket — the same estimate a Prometheus `histogram_quantile` makes —
/// and clamped to the exact observed min/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else `64 - leading_zeros` so that
/// bucket `i` spans `[2^(i-1), 2^i)`.
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The half-open value range `[lo, hi)` bucket `i` covers.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 1),
        i if i >= 64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), 1 << i),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Freezes the distribution into a value-only snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high edge of bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi.max(1), "bucket {i} bounds");
            assert_eq!(bucket_index(lo), i, "bucket {i} lower bound maps back");
        }
    }

    #[test]
    fn exact_extremes_and_sum_survive_bucketing() {
        let h = Histogram::new();
        for v in [3u64, 17, 1000, 999_999] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 3 + 17 + 1000 + 999_999);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 999_999);
    }

    /// Seeded xorshift so the property test is reproducible.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn quantiles_track_the_sorted_reference_within_one_bucket() {
        for seed in [0x5eed1_u64, 0x5eed2, 0x5eed3, 0x5eed4] {
            let mut rng = Rng(seed);
            let h = Histogram::new();
            let mut values = Vec::new();
            for _ in 0..2000 {
                // Mixed magnitudes: exercise many octaves.
                let v = rng.next() % (1 << (1 + rng.next() % 30));
                h.record(v);
                values.push(v);
            }
            values.sort_unstable();
            let snap = h.snapshot();
            for q in [0.5, 0.95, 0.99] {
                let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
                let exact = values[rank - 1];
                let est = snap.quantile(q);
                // The estimate must land inside the power-of-two bucket of
                // the true quantile: within a factor of two, and never
                // outside the observed range.
                let (lo, hi) = bucket_bounds(bucket_index(exact));
                assert!(
                    est >= lo as f64 && est <= hi as f64,
                    "seed {seed:#x} q{q}: est {est} outside bucket [{lo},{hi}] of exact {exact}"
                );
                assert!(est <= snap.max as f64 && est >= snap.min as f64);
            }
        }
    }

    #[test]
    fn quantile_of_identical_samples_is_that_sample() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(22_000_000); // 22ms in ns
        }
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99, 1.0] {
            let est = s.quantile(q);
            assert!(
                est >= s.min as f64 && est <= s.max as f64,
                "q{q} = {est} outside [{}, {}]",
                s.min,
                s.max
            );
        }
        assert_eq!(s.quantile(1.0), s.max as f64);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
    }
}
