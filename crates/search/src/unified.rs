//! The unified NAS-as-program-transformation search (paper §6, "Ours").
//!
//! For every mutable layer class the search enumerates the deterministic
//! candidate operators plus a batch of random transformation sequences and
//! hands the wave to the shared [`Evaluator`] pipeline (structural → cost →
//! Fisher legality → autotune), keeping the fastest legal implementation —
//! falling back to the baseline schedule where nothing legal wins. The paper
//! reports ~1000 configurations explored per network with ~90% discarded by
//! the Fisher check in under five minutes of CPU time (§7.2);
//! [`SearchStats`] records the same quantities here, counted by the
//! evaluator rather than by hand.

use pte_autotune::TuneOptions;
use pte_fisher::FisherLegality;
use pte_machine::Platform;
use pte_nn::Network;

use crate::cancel::{CancelToken, Cancelled};
use crate::candidates;
use crate::driver::{SearchCtx, Strategy};
use crate::eval::Evaluator;
use crate::plan::LayerChoice;

pub use crate::driver::SearchOutcome;
pub use crate::eval::SearchStats;

/// Options for the unified search.
#[derive(Debug, Clone)]
pub struct UnifiedOptions {
    /// Random sequences sampled per layer class (on top of the deterministic
    /// candidate set); sized so a full network explores ≈1000 candidates.
    pub random_per_layer: usize,
    /// Autotuning options (shared with the baselines for fairness).
    pub tune: TuneOptions,
    /// Per-layer-class Fisher legality: a candidate must retain this share
    /// of the class's capacity. This is the filter that marks individual
    /// layers "extremely sensitive to compression" (§7.4) and discards the
    /// bulk of candidates (§7.2).
    pub class_legality: FisherLegality,
    /// Whole-network Fisher legality, validated after assembling the
    /// per-class winners (§5.2's reject-below-original rule, with δ).
    pub network_legality: FisherLegality,
    /// Master seed.
    pub seed: u64,
}

impl Default for UnifiedOptions {
    fn default() -> Self {
        UnifiedOptions {
            random_per_layer: 96,
            tune: TuneOptions::default(),
            class_legality: FisherLegality { tolerance: 0.35 },
            network_legality: FisherLegality { tolerance: 0.15 },
            seed: 0xA5F1,
        }
    }
}

/// Runs the unified search with candidate evaluation fanned out over the
/// worker pool: [`crate::run`] with [`Strategy::Unified`] and
/// [`SearchCtx::parallel`].
pub fn optimize(network: &Network, platform: &Platform, options: &UnifiedOptions) -> SearchOutcome {
    crate::run(network, platform, &Strategy::Unified(options.clone()), &SearchCtx::parallel())
        .expect("a never-token cannot cancel")
}

/// Runs the unified search strictly on the calling thread. Bit-identical to
/// [`optimize`]; the single-threaded reference for speedup baselines.
pub fn optimize_serial(
    network: &Network,
    platform: &Platform,
    options: &UnifiedOptions,
) -> SearchOutcome {
    crate::run(network, platform, &Strategy::Unified(options.clone()), &SearchCtx::serial())
        .expect("a never-token cannot cancel")
}

/// One wave per mutable class: the deterministic candidate menu plus
/// `random_per_layer` seeded random sequences, reduced to the fastest legal
/// survivor.
pub(crate) fn explore_class(
    options: &UnifiedOptions,
    idx: usize,
    incumbent: &LayerChoice,
    evaluator: &Evaluator,
    cancel: &CancelToken,
    stats: &mut SearchStats,
    ladder: &mut Vec<LayerChoice>,
) -> Result<LayerChoice, Cancelled> {
    let seed = pte_tensor::rng::derive_seed(options.seed, idx as u64);
    let (mut cands, attempted) = candidates::enumerate(&incumbent.layer);
    let (random, drawn) = candidates::random(&incumbent.layer, options.random_per_layer, seed);
    cands.extend(random);
    let wave = evaluator.evaluate_class_cancellable(incumbent, cands, attempted + drawn, cancel)?;
    Ok(wave.select_fastest(incumbent, stats, ladder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NetworkPlan;
    use pte_nn::{resnet18, resnext29_2x64d, DatasetKind};

    fn quick_options() -> UnifiedOptions {
        UnifiedOptions {
            random_per_layer: 8,
            tune: TuneOptions { trials: 16, seed: 0 },
            ..UnifiedOptions::default()
        }
    }

    #[test]
    fn search_beats_baseline_on_resnet() {
        let net = resnet18(DatasetKind::Cifar10);
        let platform = Platform::intel_i7();
        let options = quick_options();
        let baseline = NetworkPlan::baseline(&net, &platform, &options.tune);
        let outcome = optimize(&net, &platform, &options);
        assert!(
            outcome.plan.latency_ms() < baseline.latency_ms(),
            "ours {} vs baseline {}",
            outcome.plan.latency_ms(),
            baseline.latency_ms()
        );
        assert!(outcome.stats.survivors > 0);
    }

    #[test]
    fn fisher_rejects_a_substantial_fraction() {
        let net = resnet18(DatasetKind::Cifar10);
        let outcome = optimize(&net, &Platform::intel_i7(), &quick_options());
        let rate = outcome.stats.rejection_rate();
        assert!(rate > 0.2, "rejection rate {rate}");
    }

    #[test]
    fn final_plan_is_fisher_legal() {
        let net = resnet18(DatasetKind::Cifar10);
        let options = quick_options();
        let outcome = optimize(&net, &Platform::intel_i7(), &options);
        assert!(options.network_legality.is_legal(outcome.original_fisher, outcome.plan.fisher()));
    }

    #[test]
    fn compresses_parameters() {
        let net = resnet18(DatasetKind::Cifar10);
        let outcome = optimize(&net, &Platform::intel_i7(), &quick_options());
        assert!(outcome.plan.params() < net.params());
    }

    #[test]
    fn mid_search_cancel_aborts_at_a_stage_boundary() {
        // Cancel from another thread while the search runs: the driver must
        // return Cancelled (not a plan) without panicking or hanging.
        let net = resnet18(DatasetKind::Cifar10);
        let token = CancelToken::new();
        let canceller = token.clone();
        let stop = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            canceller.cancel();
        });
        let ctx = SearchCtx::parallel().with_cancel(token);
        let result =
            crate::run(&net, &Platform::intel_i7(), &Strategy::Unified(quick_options()), &ctx);
        stop.join().unwrap();
        // A fast machine may finish the search before the cancel lands; the
        // contract is only that the call terminates cleanly and an abort
        // surfaces as Cancelled, never as a partial plan or a panic.
        if let Err(e) = result {
            assert_eq!(e, Cancelled);
        }
    }

    #[test]
    fn resnext_still_improves_via_unified_ops() {
        // The paper's §7.1: NAS finds nothing on ResNeXt, the unified space
        // still finds modest wins.
        let net = resnext29_2x64d();
        let platform = Platform::intel_i7();
        let options = quick_options();
        let baseline = NetworkPlan::baseline(&net, &platform, &options.tune);
        let outcome = optimize(&net, &platform, &options);
        assert!(outcome.plan.latency_ms() <= baseline.latency_ms());
    }
}
