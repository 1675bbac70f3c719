//! Order-preserving evaluation waves.
//!
//! Every fan-out in the search has the same shape: run independent, pure
//! evaluations over the worker pool, then reduce **sequentially in input
//! order** so the outcome is bit-identical for any thread count. The search
//! driver's one-task-per-layer-class wave and the `Evaluator`'s candidate
//! waves both go through [`map_ordered`], so that determinism contract —
//! and the trace propagation onto pool threads — lives in exactly one place.

use pte_telemetry::{fork, graft};
use rayon::prelude::*;

/// Maps `f` over `items`, returning results in input order.
///
/// With `parallel` set, evaluations fan out over the worker pool (the shim
/// re-sorts results into input order); otherwise they run on the calling
/// thread. Both modes produce element-for-element identical output for pure
/// `f` — callers toggle `parallel` only to pin baselines and determinism
/// tests, never to change results.
///
/// A trace installed on the calling thread follows the items onto the pool:
/// each item records its spans under a [`pte_telemetry::TraceFork`], and
/// the subtrees are grafted under the caller's open span in input order, so
/// the trace has the same shape as a serial run's.
pub fn map_ordered<T, R, F>(items: Vec<T>, parallel: bool, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if !parallel {
        return items.into_iter().map(f).collect();
    }
    let Some(handle) = fork() else {
        return items.into_par_iter().map(f).collect();
    };
    let traced: Vec<_> = items.into_par_iter().map(|item| handle.run(|| f(item))).collect();
    let (out, branches): (Vec<R>, Vec<_>) = traced.into_iter().unzip();
    graft(branches);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_serial_agree_in_order() {
        let items: Vec<usize> = (0..257).collect();
        let par = map_ordered(items.clone(), true, |x| x * 3 + 1);
        let ser = map_ordered(items, false, |x| x * 3 + 1);
        assert_eq!(par, ser);
        assert_eq!(par[200], 601);
    }

    #[test]
    fn pooled_items_join_the_callers_trace() {
        // Four items on the pool (the shim runs them on worker threads
        // when more than one is available, inline otherwise): each item's
        // span lands under the caller's open span, in input order.
        let trace = pte_telemetry::Trace::begin(1);
        {
            let _wave = pte_telemetry::span("wave");
            map_ordered((0..4).collect(), true, |i: usize| {
                let _item = pte_telemetry::span(if i.is_multiple_of(2) { "even" } else { "odd" });
            });
        }
        let report = trace.finish();
        let names: Vec<&str> = report.spans[0].children.iter().map(|n| n.name).collect();
        assert_eq!(names, ["even", "odd", "even", "odd"]);
    }
}
