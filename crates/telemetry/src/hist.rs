//! Lock-free log-bucketed histogram.
//!
//! Fixed table: 16 exact unit buckets for values 0..16, then 16 linear
//! sub-buckets per power-of-two octave up to `u64::MAX` — 976 buckets
//! total, relative error ≤ 1/16. Recording is one `fetch_add` on the
//! bucket plus count/sum/max updates, all `Relaxed` atomics; reads
//! (percentiles, snapshots) tolerate racing writers by clamping
//! rather than panicking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sub-bucket resolution: each octave splits into `1 << SUB_BITS` linear
/// buckets, bounding relative error at `2^-SUB_BITS`.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count: 16 unit buckets + 16 per octave for octaves 4..=63.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Maps a value to its bucket index. Total: every `u64` has exactly one
/// bucket, so recording can never drop a sample.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // SUB_BITS..=63
        let sub = ((v >> (octave as u32 - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + (octave - SUB_BITS as usize) * SUB + sub
    }
}

/// Inclusive value range `[lo, hi]` covered by a bucket.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        (index as u64, index as u64)
    } else {
        let octave = SUB_BITS as usize + (index - SUB) / SUB;
        let sub = ((index - SUB) % SUB) as u64;
        let width = 1u64 << (octave as u32 - SUB_BITS);
        let lo = (SUB as u64 + sub) << (octave as u32 - SUB_BITS);
        (lo, lo + (width - 1))
    }
}

struct HistInner {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    /// Saturating sum of recorded values (for the mean; conservation is
    /// defined on counts, not sums).
    sum: AtomicU64,
    max: AtomicU64,
}

/// A point-in-time read of a histogram, as rendered on the metrics page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// Cheaply clonable handle to a shared histogram (all clones record into
/// the same buckets). `Histogram::new()` makes a standalone instance,
/// while [`crate::Registry::histogram`] hands out registered ones.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> =
            buckets.into_boxed_slice().try_into().unwrap_or_else(|_| unreachable!());
        Histogram {
            inner: Arc::new(HistInner {
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample. Lock-free: bucket/count/max are single atomic
    /// RMWs, the saturating sum is a CAS loop. No-op while recording is
    /// disabled via [`crate::set_enabled`].
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.record_always(value);
    }

    /// [`Histogram::record`] without the enabled gate — for standalone
    /// instances (bench harnesses) that must never lose samples.
    #[inline]
    pub fn record_always(&self, value: u64) {
        let inner = &self.inner;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
        let _ = inner
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(value)));
    }

    /// Records a duration in whole microseconds (saturating).
    #[inline]
    pub fn record_duration_us(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest value recorded (exact, not bucket-quantized). 0 when empty.
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Sum of all bucket counts. Equals [`Histogram::count`] whenever no
    /// writer is mid-record — the conservation law the edge-case suite
    /// pins, including under `u64::MAX` saturation.
    pub fn bucket_total(&self) -> u64 {
        self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Nearest-rank percentile estimate: the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` sample, so the estimate never
    /// undershoots the true value by more than one bucket's width.
    /// `q` is clamped to `[0, 1]`; an empty histogram reports 0.
    pub fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> =
            self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * total), clamped to [1, total]: nearest-rank definition.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(BUCKETS - 1).1
    }

    /// One consistent-enough read of count/sum/max and the three report
    /// quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

/// Exposes the bucket math to the edge-case test suite.
#[doc(hidden)]
pub fn bucket_index_of(v: u64) -> usize {
    bucket_index(v)
}

/// Exposes bucket bounds to the edge-case test suite.
#[doc(hidden)]
pub fn bucket_bounds_of(index: usize) -> (u64, u64) {
    bucket_bounds(index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        // Adjacent buckets must be contiguous: hi(i) + 1 == lo(i+1).
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo, "gap between buckets {i} and {}", i + 1);
        }
        assert_eq!(bucket_bounds(0).0, 0);
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn every_value_lands_in_its_bucket() {
        for v in [0, 1, 15, 16, 17, 31, 32, 1000, 123_456_789, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "value {v} outside bucket {i} [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_bounded() {
        for v in [100u64, 1_000, 55_555, 1 << 40] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = hi - lo;
            assert!((width as f64) <= (lo as f64) / 16.0 + 1.0, "bucket too wide at {v}");
        }
    }

    #[test]
    fn percentile_of_uniform_stream() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        assert!((450..=560).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(0.99);
        assert!((980..=1024).contains(&p99), "p99 {p99}");
        assert_eq!(h.count(), 1000);
        assert_eq!(h.bucket_total(), 1000);
        assert_eq!(h.max(), 1000);
    }
}
