//! End-to-end determinism across GEMM backends: a full unified search with
//! the SIMD micro-kernel path forced **on** must produce bit-identical
//! stats and plan to the same search with it forced **off** (the portable
//! packed kernel). This is the system-level face of the kernel bit-identity
//! contract (`tensor/tests/gemm_kernel_parity.rs` pins the per-kernel
//! version): Fisher probe scores flow through GEMM into legality
//! decisions, survivor sets and the final plan, so a single
//! diverging bit anywhere in the kernels would surface here as a different
//! search outcome.
//!
//! This is the only test in its binary on purpose — `set_gemm_backend` is
//! process-global, so a sibling test timing its own GEMMs would race the
//! forced setting (the same isolation `probe_wave_threads.rs` uses for
//! `PTE_THREADS`). The probe memo is cleared between runs: scores are
//! bit-identical across backends, so a stale memo would silently mask a
//! kernel divergence rather than cause one.
//!
//! On machines without AVX2, forcing `PackedSimd` resolves to the scalar
//! micro-kernel (documented fallback) and the test degrades to a
//! run-to-run determinism check of the portable kernel.

use pte_fisher::proxy::clear_probe_cache;
use pte_machine::Platform;
use pte_nn::{resnet18, DatasetKind};
use pte_search::unified::{optimize, UnifiedOptions};
use pte_tensor::ops::gemm::{set_gemm_backend, simd_kernel_available, GemmBackend};

#[test]
fn unified_search_is_bit_identical_across_gemm_backends() {
    let net = resnet18(DatasetKind::Cifar10);
    // The deterministic quick configuration `evaluator_stats.rs` pins.
    let options = UnifiedOptions {
        random_per_layer: 8,
        tune: pte_autotune::TuneOptions { trials: 16, seed: 0 },
        ..UnifiedOptions::default()
    };
    let platform = Platform::intel_i7();

    let mut outcomes = Vec::new();
    for backend in [GemmBackend::PackedSimd, GemmBackend::PackedScalar] {
        set_gemm_backend(backend);
        clear_probe_cache();
        outcomes.push((backend, optimize(&net, &platform, &options)));
    }
    set_gemm_backend(GemmBackend::Auto);
    clear_probe_cache();

    let (_, reference) = &outcomes[0];
    for (backend, outcome) in &outcomes[1..] {
        assert_eq!(
            outcome.stats, reference.stats,
            "evaluation accounting diverged between PackedSimd and {backend:?}"
        );
        assert_eq!(
            outcome.plan.latency_ms().to_bits(),
            reference.plan.latency_ms().to_bits(),
            "plan latency diverged between PackedSimd and {backend:?}"
        );
        assert_eq!(
            outcome.plan.fisher().to_bits(),
            reference.plan.fisher().to_bits(),
            "plan Fisher diverged between PackedSimd and {backend:?}"
        );
        assert_eq!(
            outcome.plan.params(),
            reference.plan.params(),
            "plan params diverged between PackedSimd and {backend:?}"
        );
    }

    // Make the hardware situation visible in test output: `--nocapture`
    // shows whether the SIMD leg really exercised AVX2 on this runner.
    println!(
        "simd_plan_parity: AVX2 micro-kernel {} on this machine",
        if simd_kernel_available() { "exercised" } else { "unavailable (scalar fallback pinned)" }
    );
}
