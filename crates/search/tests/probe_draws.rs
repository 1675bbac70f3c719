//! The probe-stream scopes draw each random stream once per layer-class
//! task. This pins the number of normal samples a cold search's probes draw
//! (`pte_probe_normals_drawn_total`), at one and at four workers. The count
//! depends only on which shapes each class task probes, never on scheduling,
//! so it must repeat exactly; and it must stay at most 31% of the 5,377,152
//! samples the same search drew when every shape class and every memo-miss
//! probe drew its own streams.
//!
//! Its own binary: the counter is process-wide, and the search pins
//! `PTE_THREADS`.

use pte_machine::Platform;
use pte_nn::{resnet18, DatasetKind};
use pte_search::unified::UnifiedOptions;
use pte_search::{SearchCtx, Strategy};

/// Samples drawn by the same search before the scopes existed.
const UNSCOPED_DRAWS: u64 = 5_377_152;
/// Samples drawn with one scope per class task: each stream of each layer
/// class once, up to the longest prefix its probes slice.
const SCOPED_DRAWS: u64 = 1_614_912;

fn cold_search_draws(threads: &str) -> u64 {
    std::env::set_var("PTE_THREADS", threads);
    pte_fisher::proxy::clear_probe_cache();
    let drawn = pte_telemetry::global().counter("pte_probe_normals_drawn_total");
    let before = drawn.get();
    let options = UnifiedOptions {
        random_per_layer: 2,
        tune: pte_autotune::TuneOptions { trials: 4, seed: 7000 },
        seed: 1000,
        ..UnifiedOptions::default()
    };
    pte_search::run(
        &resnet18(DatasetKind::Cifar10),
        &Platform::intel_i7(),
        &Strategy::Unified(options),
        &SearchCtx::parallel(),
    )
    .expect("a never-token cannot cancel");
    drawn.get() - before
}

#[test]
fn cold_search_draws_each_stream_once_per_class() {
    let serial = cold_search_draws("1");
    let pooled = cold_search_draws("4");
    assert_eq!(serial, pooled, "draw count depends on the worker count");
    assert_eq!(serial, SCOPED_DRAWS);
    const { assert!(SCOPED_DRAWS * 100 <= UNSCOPED_DRAWS * 31) };
}
