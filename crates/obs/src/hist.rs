//! Log-bucketed histograms: latency distributions with bounded error.
//!
//! The fleet cannot afford to keep every sample, so latency
//! distributions are recorded into fixed-size log-linear histograms: each
//! power-of-two octave is split into [`SUB_BUCKETS`] linear
//! sub-buckets, so any reported quantile is within one sub-bucket of
//! the true value — a relative error of at most `1 / SUB_BUCKETS`
//! (12.5%), independent of magnitude. Recording is one atomic
//! increment on a fixed array: safe to hammer from slice workers,
//! never allocates after construction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave (`2^SUB_BITS`).
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave; also the worst-case relative
/// quantile error denominator (8 → ≤ 12.5%).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: values below
/// [`SUB_BUCKETS`] get exact buckets, then 8 buckets per octave up to
/// octave 63.
const N_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS as usize) + SUB_BUCKETS as usize;

/// Bucket index for `v` (log-linear, monotone in `v`).
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
    ((((octave - SUB_BITS + 1) as u64) << SUB_BITS) + sub) as usize
}

/// Inclusive `(lo, hi)` value range of bucket `b` (inverse of
/// [`bucket_of`]).
fn bucket_bounds(b: usize) -> (u64, u64) {
    if (b as u64) < SUB_BUCKETS {
        return (b as u64, b as u64);
    }
    let octave = (b >> SUB_BITS as usize) as u32 + SUB_BITS - 1;
    let sub = b as u64 & (SUB_BUCKETS - 1);
    let width = 1u64 << (octave - SUB_BITS);
    let lo = (1u64 << octave) + sub * width;
    // `lo + (width - 1)`: the naive `lo + width - 1` overflows on the
    // topmost bucket, whose hi is exactly u64::MAX.
    (lo, lo + (width - 1))
}

/// A concurrent log-bucketed histogram. Cheap to record into, mergeable
/// across instances, and queryable for quantiles with bounded relative
/// error (one sub-bucket, ≤ 12.5%).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            // `AtomicU64` is not Copy; build the array through a Vec.
            buckets: (0..N_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .try_into()
                .expect("bucket count is fixed"),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold `other`'s observations into this histogram (bucket-wise
    /// sum; `other` is unchanged). Used to aggregate per-slice or
    /// per-cluster distributions fleet-side.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                a.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (mean = `sum / count`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), reported as the upper bound of
    /// the bucket holding the target rank — within one sub-bucket
    /// (≤ 12.5% relative error) of the true order statistic. Returns
    /// `0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                let (_, hi) = bucket_bounds(b);
                // Never report past the true maximum.
                return hi.min(self.max());
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        // Exhaustive over the first octaves, then spot samples walking
        // up every remaining octave to u64::MAX.
        let mut samples: Vec<u64> = (0..100_000u64).collect();
        let mut v = 100_000u64;
        while v < u64::MAX / 2 {
            samples.extend([v, v + 1, v + v / 3]);
            v = v.saturating_mul(2);
        }
        samples.push(u64::MAX);
        samples.sort_unstable();
        let mut prev_bucket = 0usize;
        for &v in &samples {
            let b = bucket_of(v);
            assert!(b < N_BUCKETS, "v={v} bucket {b} out of range");
            assert!(b >= prev_bucket, "not monotone: v={v} bucket {b} < {prev_bucket}");
            prev_bucket = b;
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= v && v <= hi, "v={v} outside bucket {b} [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantile_error_bounded_by_bucket_width() {
        // Known distribution: 1..=10_000. Any quantile estimate must be
        // within one log-linear sub-bucket of the exact order statistic,
        // i.e. relative error ≤ 1/SUB_BUCKETS = 12.5%.
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900), (1.0, 10_000)] {
            let est = h.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            let bound = 1.0 / SUB_BUCKETS as f64;
            assert!(
                err <= bound,
                "q={q}: estimate {est} vs exact {exact} (err {err:.3} > {bound})"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.sum(), 10_000 * 10_001 / 2);
    }

    #[test]
    fn small_values_are_exact_and_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0, "empty histogram");
        for v in [0u64, 1, 2, 3, 7] {
            h.record(v);
        }
        // Values below SUB_BUCKETS land in exact single-value buckets.
        assert_eq!(h.quantile(0.2), 0);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn merge_is_bucketwise_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [100u64, 200, 300] {
            a.record(v);
        }
        for v in [1_000u64, 2_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 600 + 3_000);
        assert_eq!(a.max(), 2_000);
        assert!(a.quantile(1.0) >= 2_000 * 7 / 8, "p100 reflects merged tail");
        // The source histogram is untouched.
        assert_eq!(b.count(), 2);
    }
}
