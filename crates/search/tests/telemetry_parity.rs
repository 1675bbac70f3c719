//! Telemetry is **observation-only**: a search run under a live trace with
//! histogram/span recording enabled must produce a plan bit-identical to a
//! search run with telemetry disabled — same winners, same latencies to the
//! last bit, same statistics — serially and on the worker pool (forced to
//! `PTE_THREADS=4` unless the environment sets a count). This is
//! the invariant that lets the serving layer trace any request without a
//! determinism caveat: spans read the clock and write atomics, and nothing
//! the search computes ever depends on either.
//!
//! Tracing is also **schedule-independent**: a search on the worker pool
//! carries its trace onto the pool threads, so its span tree has the same
//! names, nesting and child order as the serial search's.
//!
//! Both tests pin the same `PTE_THREADS` before their parallel legs, so the
//! process-wide env mutation cannot change what the other one observes.

mod common;

use pte_autotune::TuneOptions;
use pte_machine::Platform;
use pte_nn::{resnet18, DatasetKind};
use pte_search::evolve::EvolveOptions;
use pte_search::unified::{optimize, optimize_serial, UnifiedOptions};
use pte_search::{run, SearchCtx, Strategy};
use pte_telemetry::{SpanNode, Trace, TraceReport};

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
    // a trace active on the driving thread, which the class tasks carry
    // onto the pool. Still bit-identical.
    common::pin_threads();
    let trace = Trace::begin(pte_telemetry::derive_trace_id(0x7e1e_0b5e, 1));
    let parallel = optimize(&network, &platform, &options);
    let _ = trace.finish();
    common::assert_plans_identical("traced parallel", &reference.plan, &parallel.plan);
    assert_eq!(reference.stats, parallel.stats, "parallel traced statistics diverged");
}

/// Names, nesting and child order of a span forest; times are ignored.
fn shape(nodes: &[SpanNode]) -> String {
    let parts: Vec<String> = nodes
        .iter()
        .map(|n| {
            if n.children.is_empty() {
                n.name.to_string()
            } else {
                format!("{}({})", n.name, shape(&n.children))
            }
        })
        .collect();
    parts.join(",")
}

#[test]
fn serial_and_parallel_searches_trace_the_same_tree() {
    common::pin_threads();
    let network = resnet18(DatasetKind::Cifar10);
    let platform = Platform::intel_i7();
    let tune = TuneOptions { trials: 16, seed: 0 };
    let strategies = [
        (
            "unified",
            Strategy::Unified(UnifiedOptions { random_per_layer: 8, tune, ..Default::default() }),
        ),
        (
            "evolve",
            Strategy::Evolve(EvolveOptions {
                generation_size: 4,
                generations: 2,
                tune,
                ..Default::default()
            }),
        ),
    ];
    for (name, strategy) in strategies {
        let traced = |ctx: SearchCtx| -> TraceReport {
            let trace = Trace::begin(pte_telemetry::derive_trace_id(0x5ba9e, 0));
            {
                let _root = pte_telemetry::span("search");
                run(&network, &platform, &strategy, &ctx).expect("a never-token cannot cancel");
            }
            trace.finish()
        };
        let serial = traced(SearchCtx::serial());
        let parallel = traced(SearchCtx::parallel());
        let serial_shape = shape(&serial.spans);
        assert!(
            serial_shape.starts_with("search(") && serial_shape.contains("eval_autotune"),
            "{name}: the serial trace must record the Evaluator's stages: {serial_shape}"
        );
        assert_eq!(serial_shape, shape(&parallel.spans), "{name}: span tree shape diverged");
        assert_eq!(serial.truncated, parallel.truncated, "{name}: truncation diverged");
    }
}
