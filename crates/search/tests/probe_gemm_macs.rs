//! Each layer-class task computes its ungrouped probe products once per
//! shape class and slices a row prefix per member. This pins the
//! multiply–adds of a cold search's probe-convolution GEMMs
//! (`pte_probe_gemm_macs_total`), at one and at four workers. The count
//! depends only on which shapes each class task probes, never on
//! scheduling (the shared products grow to the widest ungrouped member
//! whatever the wave order), so it must repeat exactly; and it must stay at
//! most 65% of the 1,290,240,000 the same search spent when every member
//! ran its own product.
//!
//! Its own binary: the counter is process-wide, and the search pins
//! `PTE_THREADS`.

use pte_machine::Platform;
use pte_nn::{resnet18, DatasetKind};
use pte_search::unified::UnifiedOptions;
use pte_search::{SearchCtx, Strategy};

/// Multiply–adds of the same search with one product per member.
const PER_MEMBER_MACS: u64 = 1_290_240_000;
/// Multiply–adds with the ungrouped products shared per shape class.
const SHARED_MACS: u64 = 817_790_976;

fn cold_search_macs(threads: &str) -> u64 {
    std::env::set_var("PTE_THREADS", threads);
    pte_fisher::proxy::clear_probe_cache();
    let macs = pte_telemetry::global().counter("pte_probe_gemm_macs_total");
    let before = macs.get();
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
    macs.get() - before
}

#[test]
fn cold_search_computes_each_ungrouped_product_once_per_class() {
    let serial = cold_search_macs("1");
    let pooled = cold_search_macs("4");
    assert_eq!(serial, pooled, "GEMM work depends on the worker count");
    assert_eq!(serial, SHARED_MACS);
    const { assert!(SHARED_MACS * 100 <= PER_MEMBER_MACS * 65) };
}
