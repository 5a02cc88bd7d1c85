//! Allocation-free log-bucket latency histograms.
//!
//! [`LogHistogram`] is a fixed array of 64 power-of-two buckets behind
//! relaxed atomic increments: recording a sample is one relaxed
//! `fetch_add` into a preallocated slot — no locks, no allocation, no
//! branches beyond the bucket computation — so the histograms can stay
//! armed on hot protocol paths (heartbeat detection, retry repair)
//! without perturbing the disabled-observability cost model.
//!
//! The price of the fixed layout is resolution: a sample is remembered
//! only as "some value in `[2^(k-1), 2^k)`", and quantiles answer with
//! the midpoint of the bucket the requested rank lands in. For latency
//! distributions spanning nanoseconds to seconds that is a ≤ 50% band —
//! exactly the log-scale fidelity tail reporting needs, at a fixed
//! 512-byte footprint.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit-length of a `u64` sample
/// (bucket 0 holds exact zeros).
pub const BUCKETS: usize = 64;

/// A fixed-size log₂-bucketed histogram of `u64` samples (nanoseconds,
/// by convention) with relaxed-atomic recording.
///
/// Bucket `k ≥ 1` holds samples in `[2^(k-1), 2^k)`; bucket 0 holds
/// exact zeros; samples at or above `2^62` saturate into the last
/// bucket. Quantile queries return the midpoint of the selected bucket,
/// which makes them deterministic functions of the recorded counts.
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
}

/// Bucket index for a sample: its bit length, saturated to the table.
#[inline(always)]
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Deterministic representative value for a bucket (its midpoint).
fn bucket_mid(b: usize) -> u64 {
    match b {
        0 => 0,
        1 => 1,
        _ => 3u64 << (b - 2),
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample. One relaxed `fetch_add`; never locks or
    /// allocates.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The current per-bucket counts.
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Fold another histogram's counts into this one, bucket-wise.
    /// Aggregating campaign-wide distributions from per-cell or
    /// per-node histograms loses nothing: the buckets align exactly.
    pub fn merge(&self, other: &LogHistogram) {
        for (b, &c) in other.snapshot().iter().enumerate() {
            if c > 0 {
                self.buckets[b].fetch_add(c, Ordering::Relaxed);
            }
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the midpoint of the bucket
    /// holding the rank-`⌈q·n⌉` sample. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.snapshot();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        bucket_mid(BUCKETS - 1)
    }

    /// Median (bucket midpoint).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (bucket midpoint).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (bucket midpoint).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Midpoint of the lowest non-empty bucket (0 when empty).
    pub fn min(&self) -> u64 {
        let counts = self.snapshot();
        counts.iter().position(|&c| c > 0).map_or(0, bucket_mid)
    }

    /// Midpoint of the highest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        let counts = self.snapshot();
        counts.iter().rposition(|&c| c > 0).map_or(0, bucket_mid)
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn midpoints_sit_inside_their_bucket() {
        for b in 2..BUCKETS - 1 {
            let lo = 1u64 << (b - 1);
            let hi = 1u64 << b;
            let mid = bucket_mid(b);
            assert!(lo <= mid && mid < hi, "bucket {b}: {lo} <= {mid} < {hi}");
            assert_eq!(bucket_of(mid), b);
        }
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let h = LogHistogram::new();
        // 90 fast samples around 1 µs, 10 slow around 1 ms.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), bucket_mid(bucket_of(1_000)));
        assert_eq!(h.p99(), bucket_mid(bucket_of(1_000_000)));
        assert_eq!(h.p999(), bucket_mid(bucket_of(1_000_000)));
        assert_eq!(h.min(), bucket_mid(bucket_of(1_000)));
        assert_eq!(h.max(), bucket_mid(bucket_of(1_000_000)));
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn quantile_is_within_a_factor_of_two() {
        let h = LogHistogram::new();
        for v in [620_000u64, 640_000, 700_000, 590_000] {
            h.record(v);
        }
        let p50 = h.p50();
        assert!((590_000 / 2..=700_000 * 2).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(1_000);
        b.record(1_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), bucket_mid(bucket_of(1_000_000)));
        assert_eq!(a.min(), bucket_mid(bucket_of(1_000)));
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let h = LogHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }
}
