//! Telemetry is **observation-only**: a search run under a live trace with
//! histogram/span recording enabled must produce a plan bit-identical to a
//! search run with telemetry disabled — same winners, same latencies to the
//! last bit, same statistics — serially and on the worker pool (forced to
//! `PTE_THREADS=4` unless the environment sets a count). This is
//! the invariant that lets the serving layer trace any request without a
//! determinism caveat: spans read the clock and write atomics, and nothing
//! the search computes ever depends on either.
//!
//! Everything lives in one `#[test]` because `PTE_THREADS` is process-wide
//! state; a single test body keeps the env mutation race-free.

mod common;

use pte_machine::Platform;
use pte_nn::{resnet18, DatasetKind};
use pte_search::unified::{optimize, optimize_serial, UnifiedOptions};
use pte_telemetry::Trace;

#[test]
fn tracing_and_telemetry_do_not_perturb_plans() {
    let network = resnet18(DatasetKind::Cifar10);
    let platform = Platform::intel_i7();
    let options = UnifiedOptions {
        random_per_layer: 8,
        tune: pte_autotune::TuneOptions { trials: 16, seed: 0 },
        ..UnifiedOptions::default()
    };

    // Reference: serial search with histogram/span recording disabled.
    pte_telemetry::set_enabled(false);
    let reference = optimize_serial(&network, &platform, &options);
    pte_telemetry::set_enabled(true);

    // Serial search under a live trace on this thread. The Evaluator's
    // stage spans fire into the trace, so the report must not be empty —
    // we are checking that *real* observation changed nothing, not that
    // disabled observation changed nothing.
    let trace = Trace::begin(pte_telemetry::derive_trace_id(0x7e1e_0b5e, 0));
    let traced = optimize_serial(&network, &platform, &options);
    let report = trace.finish();
    assert!(!report.spans.is_empty(), "a live trace around a serial search must record spans");
    common::assert_plans_identical("traced serial", &reference.plan, &traced.plan);
    assert_eq!(reference.stats, traced.stats, "traced search statistics diverged");
    assert_eq!(
        reference.original_fisher.to_bits(),
        traced.original_fisher.to_bits(),
        "original fisher diverged under tracing"
    );

    // Parallel search on the pinned worker count with telemetry enabled and
    // a trace active on the driving thread (workers record to the registry
    // only — the trace is thread-local). Still bit-identical.
    common::pin_threads();
    let trace = Trace::begin(pte_telemetry::derive_trace_id(0x7e1e_0b5e, 1));
    let parallel = optimize(&network, &platform, &options);
    let _ = trace.finish();
    common::assert_plans_identical("traced parallel", &reference.plan, &parallel.plan);
    assert_eq!(reference.stats, parallel.stats, "parallel traced statistics diverged");
}
