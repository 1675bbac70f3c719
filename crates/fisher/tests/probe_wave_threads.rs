//! Forced multi-thread behaviour of the probe scheduler: determinism of the
//! wave's class grouping / worker fan-out, and consistency of the probe
//! memo's traffic counters under concurrent waves.
//!
//! These are the only tests in their binary on purpose — the determinism
//! test pins `PTE_THREADS`, and the rayon shim re-reads the environment from
//! worker threads, so mutating it while sibling tests run probes would race
//! their reads (the same isolation `pte-search`'s `driver_parity.rs`
//! uses). The two tests here serialise on [`ENV_LOCK`] for the same reason.

use std::sync::Mutex;

use pte_fisher::proxy::{
    batch_conv_shape_fisher, clear_probe_cache, probe_cache_stats, probe_wave,
};
use pte_ir::ConvShape;

/// Serialises the tests in this binary (cargo runs same-binary tests on
/// concurrent threads by default).
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn wave_is_deterministic_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Mixed classes: two kernels, a stride variant, grouped + bottlenecked
    // members, a degenerate shape, and duplicates.
    let base = ConvShape::standard(32, 32, 3, 12, 12);
    let mut grouped = base;
    grouped.groups = 4;
    let mut bottlenecked = base;
    bottlenecked.c_out = 8;
    bottlenecked.bottleneck = 4;
    let mut strided = base;
    strided.stride = 2;
    let pointwise = ConvShape::standard(16, 16, 1, 12, 12);
    let mut degenerate = base;
    degenerate.c_out = 0;
    let wave = vec![base, grouped, bottlenecked, strided, pointwise, degenerate, base, grouped];

    std::env::set_var("PTE_THREADS", "4");
    let multi = probe_wave(&wave, 99);
    std::env::set_var("PTE_THREADS", "1");
    let single = probe_wave(&wave, 99);
    std::env::remove_var("PTE_THREADS");

    for (i, (a, b)) in multi.iter().zip(&single).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "shape {i}: {a} vs {b}");
    }
    assert!(multi.iter().take(5).all(|&s| s > 0.0), "real shapes must score positive");
    assert_eq!(multi[5], 0.0, "degenerate shape must score zero");
}

/// The memo's hit/miss/eviction accounting must reconcile exactly under
/// concurrent wave traffic (the counters are atomics bumped inside the memo
/// transactions — see `ProbeCacheStats`'s documented invariants):
///
/// * every wave issues one lookup per **distinct** shape, so
///   `hits + misses == waves × distinct` to the unit;
/// * misses are probes actually executed: at least one per distinct shape,
///   at most one per lookup (racing waves may legitimately both probe);
/// * nothing is evicted below capacity, and every thread's scores are
///   bit-identical (losing a counter race must not mean losing a value).
#[test]
fn cache_totals_reconcile_under_concurrent_waves() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Small-resolution shapes keep the probes cheap; duplicates within the
    // wave are deduped before the memo is consulted (documented semantics),
    // so the wave has 4 distinct lookup keys.
    let base = ConvShape::standard(8, 8, 3, 6, 6);
    let mut grouped = base;
    grouped.groups = 2;
    let mut degenerate = base;
    degenerate.c_out = 0;
    let pointwise = ConvShape::standard(4, 4, 1, 6, 6);
    let wave = vec![base, grouped, degenerate, base, pointwise, grouped];
    let distinct = 4u64;
    let threads = 4u64;
    let seed = 0xBEEF_CAFE;

    clear_probe_cache();
    let scores: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..threads).map(|_| scope.spawn(|| batch_conv_shape_fisher(&wave, seed))).collect();
        handles.into_iter().map(|h| h.join().expect("wave thread")).collect()
    });

    let stats = probe_cache_stats();
    let lookups = threads * distinct;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every lookup must count exactly one hit or miss: {stats:?}"
    );
    assert!(
        (distinct..=lookups).contains(&stats.misses),
        "misses must cover each distinct shape at least once and never exceed lookups: {stats:?}"
    );
    assert_eq!(stats.entries, distinct as usize, "each distinct shape memoised once: {stats:?}");
    assert_eq!(stats.evictions, 0, "nothing evicts below capacity: {stats:?}");

    for (t, s) in scores.iter().enumerate() {
        for (i, (a, b)) in s.iter().zip(&scores[0]).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "thread {t} shape {i} diverged");
        }
    }
    // A fresh wave afterwards is pure hits: no new probes, no new entries.
    let again = batch_conv_shape_fisher(&wave, seed);
    let after = probe_cache_stats();
    assert_eq!(after.misses, stats.misses, "follow-up wave must not probe");
    assert_eq!(after.hits, stats.hits + distinct, "follow-up wave must hit every distinct shape");
    for (a, b) in again.iter().zip(&scores[0]) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
