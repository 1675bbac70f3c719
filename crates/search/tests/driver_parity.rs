//! Every strategy run through the one search driver is **bit-identical**
//! under the serial and the parallel [`SearchCtx`]: same winner per layer
//! class, same latencies and Fisher scores to the last bit, same schedules,
//! same statistics — for any worker count — and a repeat run replays
//! exactly. This is the contract that lets the driver fan its layer
//! classes out over the pool without changing a single search result. A
//! token fired mid-search yields `Cancelled` or that same plan, never a
//! partial one. Own binary, so pinning `PTE_THREADS` cannot race other
//! tests' env reads.

mod common;

use pte_autotune::TuneOptions;
use pte_machine::Platform;
use pte_nn::{resnet18, resnext29_2x64d, DatasetKind};
use pte_search::evolve::EvolveOptions;
use pte_search::fbnet::FbnetOptions;
use pte_search::unified::UnifiedOptions;
use pte_search::{run, CancelToken, Cancelled, SearchCtx, Strategy};

/// Every strategy on the deterministic quick configuration.
fn strategies() -> [(&'static str, Strategy); 4] {
    let tune = TuneOptions { trials: 16, seed: 0 };
    [
        ("baseline", Strategy::Baseline(tune)),
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
        ("fbnet", Strategy::Fbnet(FbnetOptions { tune, ..Default::default() })),
    ]
}

#[test]
fn every_strategy_is_bit_identical_serial_vs_parallel() {
    common::pin_threads();
    let platform = Platform::intel_i7();
    for network in [resnet18(DatasetKind::Cifar10), resnext29_2x64d()] {
        for (name, strategy) in strategies() {
            let what = format!("{} / {name}", network.name());
            let search = |ctx: SearchCtx| {
                run(&network, &platform, &strategy, &ctx).expect("a never-token cannot cancel")
            };
            let serial = search(SearchCtx::serial());
            let parallel = search(SearchCtx::parallel());
            let replayed = search(SearchCtx::parallel());

            common::assert_plans_identical(&what, &serial.plan, &parallel.plan);
            common::assert_plans_identical(&what, &parallel.plan, &replayed.plan);
            assert_eq!(serial.stats, parallel.stats, "{what}: search statistics diverged");
            assert_eq!(parallel.stats, replayed.stats, "{what}: repeat run statistics diverged");
            assert_eq!(
                serial.original_fisher.to_bits(),
                parallel.original_fisher.to_bits(),
                "{what}: original fisher diverged"
            );
        }
    }
}

#[test]
fn fired_token_aborts_every_strategy_without_a_plan() {
    common::pin_threads();
    let network = resnet18(DatasetKind::Cifar10);
    let platform = Platform::intel_i7();
    let token = CancelToken::new();
    token.cancel();
    for (name, strategy) in strategies() {
        for ctx in [SearchCtx::serial(), SearchCtx::parallel()] {
            let result = run(&network, &platform, &strategy, &ctx.with_cancel(token.clone()));
            assert_eq!(result.unwrap_err(), Cancelled, "{name}");
        }
    }
}

#[test]
fn mid_search_cancel_yields_cancelled_or_the_reference_plan() {
    common::pin_threads();
    let network = resnet18(DatasetKind::Cifar10);
    let platform = Platform::intel_i7();
    for (name, strategy) in strategies() {
        let reference = run(&network, &platform, &strategy, &SearchCtx::serial())
            .expect("a never-token cannot cancel");
        // Fire the token from another thread at staggered points of the
        // search, under both contexts: every outcome is either Cancelled or
        // the complete reference plan — never a partial one.
        for delay_ms in [0, 1, 3, 10, 30] {
            for ctx in [SearchCtx::serial(), SearchCtx::parallel()] {
                let token = CancelToken::new();
                let canceller = token.clone();
                let fire = std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    canceller.cancel();
                });
                let result = run(&network, &platform, &strategy, &ctx.with_cancel(token));
                fire.join().expect("canceller thread");
                if let Ok(outcome) = result {
                    let what = format!("{name} cancelled after {delay_ms} ms");
                    common::assert_plans_identical(&what, &reference.plan, &outcome.plan);
                    assert_eq!(reference.stats, outcome.stats, "{what}: statistics diverged");
                }
            }
        }
    }
}
