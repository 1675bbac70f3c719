//! # pte-telemetry — observation-only runtime telemetry
//!
//! Lock-free log-bucketed latency histograms, monotonic counters and
//! gauges behind a process-wide [`Registry`], plus lightweight trace
//! spans — std-only, no dependencies, consistent with the workspace's
//! no-registry shims policy.
//!
//! Three design rules, in order of importance:
//!
//! 1. **Observation-only.** Nothing in this crate feeds back into search
//!    decisions: recording a sample, installing a trace, or scraping the
//!    registry cannot change a plan. The search parity suite
//!    (`pte-search/tests/telemetry_parity.rs`) pins that a run with
//!    tracing enabled is bit-identical to one without.
//! 2. **Lock-free recording.** [`Counter::inc`], [`Gauge::set`] and
//!    [`Histogram::record`] are pure atomics — safe on the serve event
//!    loop thread. The registry mutex is taken only at *registration*
//!    (once per call site, via `LazyLock` statics) and at *exposition*
//!    (the `metrics`/`stats` ops), never on a recording hot path.
//! 3. **Exact count conservation.** Every recorded sample lands in
//!    exactly one histogram bucket: the sum of bucket counts equals the
//!    total count, and `u64::MAX` saturates into the top bucket instead of
//!    being dropped.
//!
//! Bucketing is log-linear: values below 16 get exact unit buckets, and
//! each power-of-two octave above splits into 16 linear sub-buckets, so
//! the relative quantization error is ≤ 1/16 (~2 significant digits)
//! across the full `u64` range with a fixed 976-bucket table.

mod hist;
mod metrics;
mod trace;

#[doc(hidden)]
pub use hist::{bucket_bounds_of, bucket_index_of};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{global, Counter, Gauge, Metric, Registry};
pub use trace::{
    derive_trace_id, fork, graft, span, Span, SpanNode, Trace, TraceBranch, TraceFork, TraceReport,
    MAX_TRACE_NODES,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide kill switch for histogram/span recording. Counters and
/// gauges always record (they are single atomic adds and several carry
/// operational meaning — connection gauges would drift if gated).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Disables (or re-enables) histogram and span recording process-wide.
/// `telemetry_parity.rs` uses it to pin that recording never changes a plan.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether histogram/span recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
