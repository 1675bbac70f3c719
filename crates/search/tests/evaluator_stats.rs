//! The Evaluator refactor must not change what the unified search *does* —
//! only where the evaluation loop lives. These values were captured from the
//! pre-refactor (hand-rolled per-strategy loop) implementation on the
//! deterministic quick configuration below; the shared-pipeline search must
//! reproduce them exactly: same stats, same plan, to the last bit.
//!
//! If a deliberate behaviour change ever invalidates these numbers, re-pin
//! them with the justification in the commit — silent drift is the failure
//! mode this test exists to catch.

use pte_machine::Platform;
use pte_nn::{resnet18, DatasetKind};
use pte_search::blockswap::{compress, BlockSwapOptions};
use pte_search::evolve::EvolveOptions;
use pte_search::fbnet::FbnetOptions;
use pte_search::unified::{optimize, SearchStats, UnifiedOptions};
use pte_search::{SearchCtx, Strategy};

#[test]
fn unified_stats_and_plan_match_seed_behaviour() {
    let net = resnet18(DatasetKind::Cifar10);
    let options = UnifiedOptions {
        random_per_layer: 8,
        tune: pte_autotune::TuneOptions { trials: 16, seed: 0 },
        ..UnifiedOptions::default()
    };
    let outcome = optimize(&net, &Platform::intel_i7(), &options);

    let expected = SearchStats {
        attempted: 154,
        structurally_invalid: 3,
        cost_rejected: 0, // the gate is opt-in; the default pipeline never fires it
        fisher_rejected: 106,
        survivors: 45,
        improvements: 22,
    };
    assert_eq!(outcome.stats, expected, "evaluator accounting diverged from seed behaviour");

    // The winning plan itself is pinned bit-for-bit (CPU platform: the cost
    // model's CPU constants are part of the frozen seed behaviour).
    assert_eq!(outcome.plan.latency_ms().to_bits(), 4619992148688838416);
    assert_eq!(outcome.plan.fisher().to_bits(), 4604538500525873767);
    assert_eq!(outcome.plan.params(), 6206154);
}

/// BlockSwap's pipeline migration deliberately changed one behaviour: every
/// legal menu survivor is now tuned and pushed onto the class ladder (the
/// pre-refactor code tuned only the chosen max-Fisher option), giving the
/// network-level Fisher floor finer step-back granularity. The substitution
/// choice per class is unchanged. This pin freezes the migrated behaviour so
/// any further drift is loud; values captured from the Evaluator-based
/// implementation on the deterministic quick configuration.
#[test]
fn blockswap_plan_is_pinned() {
    let net = resnet18(DatasetKind::Cifar10);
    let options = BlockSwapOptions {
        tune: pte_autotune::TuneOptions { trials: 16, seed: 0 },
        ..Default::default()
    };
    let plan = compress(&net, &Platform::intel_i7(), &options).plan;
    assert_eq!(plan.latency_ms().to_bits(), 4621200518301227170);
    assert_eq!(plan.fisher().to_bits(), 4604546002771870793);
    assert_eq!(plan.params(), 6224586);
}

/// The evolutionary search on its quick configuration (the one
/// `evolve_replay.rs` replays): stats and plan frozen bit-for-bit, so a
/// refactor of the driver around it cannot drift silently.
#[test]
fn evolve_stats_and_plan_are_pinned() {
    let net = resnet18(DatasetKind::Cifar10);
    let options = EvolveOptions {
        generation_size: 4,
        generations: 2,
        tune: pte_autotune::TuneOptions { trials: 16, seed: 0 },
        ..EvolveOptions::default()
    };
    let outcome = pte_search::evolve::optimize(&net, &Platform::intel_i7(), &options);

    let expected = SearchStats {
        attempted: 154,
        structurally_invalid: 11,
        cost_rejected: 0,
        fisher_rejected: 102,
        survivors: 41,
        improvements: 22,
    };
    assert_eq!(outcome.stats, expected, "evolve accounting drifted");
    assert_eq!(outcome.plan.latency_ms().to_bits(), 4619907379875342056);
    assert_eq!(outcome.plan.fisher().to_bits(), 4604525440826782728);
    assert_eq!(outcome.plan.params(), 6132426);
}

/// The FBNet-style menu search on the quick tuner configuration, frozen the
/// same way.
#[test]
fn fbnet_stats_and_plan_are_pinned() {
    let net = resnet18(DatasetKind::Cifar10);
    let options = FbnetOptions {
        tune: pte_autotune::TuneOptions { trials: 16, seed: 0 },
        ..FbnetOptions::default()
    };
    let outcome = pte_search::run(
        &net,
        &Platform::intel_i7(),
        &Strategy::Fbnet(options),
        &SearchCtx::parallel(),
    )
    .expect("a never-token cannot cancel");

    let expected = SearchStats {
        attempted: 32,
        structurally_invalid: 0,
        cost_rejected: 0,
        fisher_rejected: 22,
        survivors: 10,
        improvements: 10,
    };
    assert_eq!(outcome.stats, expected, "fbnet accounting drifted");
    assert_eq!(outcome.plan.latency_ms().to_bits(), 4621043847775528426);
    assert_eq!(outcome.plan.fisher().to_bits(), 4604525440826782728);
    assert_eq!(outcome.plan.params(), 6132426);
}
