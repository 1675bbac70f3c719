//! Histogram edge-case suite: zero-duration samples, `u64::MAX`
//! saturation and bucket boundary values — with a proptest pinning that a
//! histogram's percentile stays within one bucket of the percentile
//! computed over the raw samples.

use proptest::prelude::*;

use pte_telemetry::{bucket_bounds_of, bucket_index_of, Histogram, BUCKETS};

#[test]
fn zero_duration_samples_are_counted_exactly() {
    let h = Histogram::new();
    for _ in 0..1000 {
        h.record(0);
    }
    assert_eq!(h.count(), 1000);
    assert_eq!(h.bucket_total(), 1000);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.max(), 0);
    assert_eq!(h.percentile(0.5), 0);
    assert_eq!(h.percentile(0.99), 0);
    assert_eq!(h.percentile(1.0), 0);
}

#[test]
fn u64_max_saturates_into_the_top_bucket() {
    let h = Histogram::new();
    h.record(u64::MAX);
    h.record(u64::MAX);
    h.record(1);
    assert_eq!(h.count(), 3, "saturating samples must not be dropped");
    assert_eq!(h.bucket_total(), 3);
    assert_eq!(h.max(), u64::MAX);
    // The sum saturates rather than wrapping back near zero.
    assert_eq!(h.sum(), u64::MAX);
    assert_eq!(h.percentile(1.0), u64::MAX);
    assert_eq!(bucket_index_of(u64::MAX), BUCKETS - 1);
}

#[test]
fn bucket_boundaries_map_into_their_own_bucket() {
    // For every bucket: its lower and upper bound land inside it, and its
    // neighbours' bounds do not.
    for i in 0..BUCKETS {
        let (lo, hi) = bucket_bounds_of(i);
        assert_eq!(bucket_index_of(lo), i, "lo bound of bucket {i}");
        assert_eq!(bucket_index_of(hi), i, "hi bound of bucket {i}");
        if lo > 0 {
            assert_eq!(bucket_index_of(lo - 1), i - 1, "below bucket {i}");
        }
        if hi < u64::MAX {
            assert_eq!(bucket_index_of(hi + 1), i + 1, "above bucket {i}");
        }
    }
}

/// Nearest-rank percentile over raw samples — the reference the bucketed
/// estimate is judged against.
fn reference_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    /// Percentile accuracy: for arbitrary sample sets, every percentile
    /// lands within one bucket of the exact nearest-rank percentile of the
    /// raw samples.
    #[test]
    fn percentile_within_one_bucket_of_reference(
        xs in prop::collection::vec(0u64..1_000_000_000, 1..400),
        q in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &v in &xs { h.record(v); }

        let mut all = xs.clone();
        all.sort_unstable();
        prop_assert_eq!(h.count(), all.len() as u64);
        prop_assert_eq!(h.bucket_total(), all.len() as u64);

        let exact = reference_percentile(&all, q);
        let est = h.percentile(q);
        let diff = bucket_index_of(est).abs_diff(bucket_index_of(exact));
        prop_assert!(
            diff <= 1,
            "estimate {} (bucket {}) vs exact {} (bucket {})",
            est, bucket_index_of(est), exact, bucket_index_of(exact)
        );
    }
}
