//! Helpers shared by the search crate's determinism suites.

use pte_search::NetworkPlan;

/// Makes the parallel legs run real multi-threading even on a single-core
/// machine: an externally set `PTE_THREADS` is honoured (CI loops it over
/// several values), otherwise it is forced to 4. The rayon shim re-reads
/// the variable per call, so suites calling this live in their own binaries.
pub fn pin_threads() {
    if std::env::var_os("PTE_THREADS").is_none() {
        std::env::set_var("PTE_THREADS", "4");
    }
}

/// Asserts two plans are bit-identical: totals, and per layer class the
/// layer, multiplicity, latency and Fisher bits, schedules, transformation
/// steps and named sequence. `what` names the comparison in failures.
pub fn assert_plans_identical(what: &str, a: &NetworkPlan, b: &NetworkPlan) {
    assert_eq!(a.latency_ms().to_bits(), b.latency_ms().to_bits(), "{what}: total latency");
    assert_eq!(a.fisher().to_bits(), b.fisher().to_bits(), "{what}: total fisher");
    assert_eq!(a.params(), b.params(), "{what}: params");
    assert_eq!(a.choices().len(), b.choices().len(), "{what}: class count");
    for (ca, cb) in a.choices().iter().zip(b.choices()) {
        let layer = &ca.layer.name;
        assert_eq!(ca.layer, cb.layer, "{what}: layer `{layer}`");
        assert_eq!(ca.multiplicity, cb.multiplicity, "{what}: layer `{layer}` multiplicity");
        assert_eq!(
            ca.latency_ms.to_bits(),
            cb.latency_ms.to_bits(),
            "{what}: layer `{layer}` latency"
        );
        assert_eq!(ca.fisher.to_bits(), cb.fisher.to_bits(), "{what}: layer `{layer}` fisher");
        assert_eq!(ca.schedules, cb.schedules, "{what}: layer `{layer}` schedules");
        assert_eq!(
            format!("{:?}", ca.steps()),
            format!("{:?}", cb.steps()),
            "{what}: layer `{layer}` picked different transformation steps"
        );
        assert_eq!(ca.named_sequence, cb.named_sequence, "{what}: layer `{layer}` sequence");
    }
}
