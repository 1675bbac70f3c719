//! The NAS baseline: BlockSwap-style Fisher-guided block substitution
//! (paper §6 "Comparison": "we use BlockSwap \[69\] as NAS to compress the
//! modifiable convolutions in the network, followed by compilation with
//! TVM").
//!
//! BlockSwap substitutes standard 3×3 block convolutions with cheaper
//! pre-defined alternatives (grouped / bottlenecked / depthwise blocks),
//! choosing the mix that maximises Fisher Potential under a parameter
//! budget. Crucially it selects from a *fixed menu* — it cannot synthesize
//! new operators (§1.2, problem 3) — and it does not touch grouped or 1×1
//! convolutions, which is why it finds nothing on ResNeXt (§7.1).

use std::time::Instant;

use pte_autotune::TuneOptions;
use pte_fisher::FisherLegality;
use pte_machine::Platform;
use pte_nn::{ConvLayer, Network};

use crate::candidates::Candidate;
use crate::driver::SearchOutcome;
use crate::eval::{EvalOutcome, Evaluator, SearchStats};
use crate::plan::{LayerChoice, NetworkPlan};

/// Options for the BlockSwap baseline.
#[derive(Debug, Clone)]
pub struct BlockSwapOptions {
    /// Target parameter ratio (compressed / original); the paper reports
    /// 2–3× compression, i.e. a ratio near 0.4.
    pub budget_ratio: f64,
    /// Autotuning options (shared with every other approach).
    pub tune: TuneOptions,
    /// Per-class Fisher legality floor (sensitive layers stay unswapped).
    pub legality: FisherLegality,
    /// Whole-network Fisher floor. Shared with the FBNet and unified
    /// searches so every approach in the Figure 7 comparison trades latency
    /// under the same capacity constraint — without it, BlockSwap could
    /// undercut the others by selling capacity they are not allowed to sell.
    pub network_legality: FisherLegality,
}

impl Default for BlockSwapOptions {
    fn default() -> Self {
        BlockSwapOptions {
            budget_ratio: 0.4,
            tune: TuneOptions::default(),
            legality: FisherLegality { tolerance: 0.35 },
            network_legality: FisherLegality { tolerance: 0.15 },
        }
    }
}

/// Whether BlockSwap's menu applies to a layer: standard (ungrouped) 3×3
/// convolutions inside mutable blocks.
pub(crate) fn menu_applies(layer: &ConvLayer) -> bool {
    layer.mutable && layer.groups == 1 && layer.kernel == 3
}

/// The fixed block-substitution menu.
pub(crate) fn menu_for(layer: &ConvLayer) -> Vec<Candidate> {
    let mut out = Vec::new();
    for g in [2i64, 4, 8] {
        let mut s = layer.to_schedule();
        if s.group(g).is_ok() {
            out.push(Candidate::single(format!("group({g})"), s));
        }
    }
    let mut s = layer.to_schedule();
    if s.depthwise().is_ok() {
        out.push(Candidate::single("depthwise", s));
    }
    let mut s = layer.to_schedule();
    if let Some(co) = s.loop_names().first().cloned() {
        if s.bottleneck(&co, 2).is_ok() {
            out.push(Candidate::single("bottleneck(2)", s));
        }
    }
    out
}

/// Runs BlockSwap compression followed by baseline compilation.
///
/// Candidate evaluation (Fisher probes + autotuning) goes through the
/// shared [`Evaluator`] pipeline; only the *selection rule* is
/// BlockSwap-specific — among the menu options that actually save
/// parameters, substitute the survivor with the highest Fisher Potential
/// (the budget drives *whether* to swap; Fisher drives *what* to swap in).
///
/// It keeps its own class loop rather than running through [`crate::run`]:
/// the budget-ordered visit, the early stop and the max-Fisher rule are
/// BlockSwap's alone.
pub fn compress(
    network: &Network,
    platform: &Platform,
    options: &BlockSwapOptions,
) -> SearchOutcome {
    let start = Instant::now();
    let mut plan = NetworkPlan::baseline(network, platform, &options.tune);
    let original_fisher = plan.fisher();
    let mut stats = SearchStats::default();
    let original_params = plan.params();
    let budget = (original_params as f64 * options.budget_ratio) as u64;
    let evaluator = Evaluator::new(platform, options.tune).with_class_legality(options.legality);
    let mut ladders: crate::plan::ChoiceLadders =
        plan.choices().iter().map(|c| vec![c.clone()]).collect();

    // Visit swappable classes in descending parameter share — the biggest
    // blocks buy the most compression.
    let mut order: Vec<usize> =
        (0..plan.choices().len()).filter(|&i| menu_applies(&plan.choices()[i].layer)).collect();
    order.sort_by_key(|&i| {
        let c = &plan.choices()[i];
        std::cmp::Reverse(c.params() * c.multiplicity as u64)
    });

    for idx in order {
        if plan.params() <= budget {
            break;
        }
        let incumbent = plan.choices()[idx].clone();
        // Structural stage, BlockSwap flavour: the fixed menu, restricted to
        // options that actually save parameters.
        let mut cands = menu_for(&incumbent.layer);
        let attempted = cands.len();
        cands.retain(|c| {
            c.schedules.iter().all(|schedule| {
                schedule
                    .nest()
                    .conv()
                    .is_some_and(|shape| (shape.params().max(0) as u64) < incumbent.params())
            })
        });
        let wave = evaluator.evaluate_class(&incumbent, cands, attempted);
        stats.merge(&wave.stats);

        // Selection: highest-Fisher survivor (first-of-equals, as a serial
        // sweep would pick); every survivor extends the class ladder so the
        // network-level floor below can step back at fine granularity.
        let mut best: Option<(f64, LayerChoice)> = None;
        for eval in wave.evals {
            if let EvalOutcome::Survivor(choice) = eval.outcome {
                ladders[idx].push((*choice).clone());
                if best.as_ref().map(|(f, _)| eval.fisher > *f).unwrap_or(true) {
                    best = Some((eval.fisher, *choice));
                }
            }
        }
        if let Some((_, choice)) = best {
            plan.choices[idx] = choice;
        }
    }
    // Same capacity constraint as every other approach: if the swaps dropped
    // the network below the Fisher floor, step the least valuable ones back
    // toward their baselines.
    crate::plan::enforce_network_legality(
        &mut plan,
        &ladders,
        original_fisher,
        &options.network_legality,
    );
    SearchOutcome { plan, stats, elapsed: start.elapsed(), original_fisher }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_nn::{resnet18, resnext29_2x64d, DatasetKind};

    fn quick() -> BlockSwapOptions {
        BlockSwapOptions { tune: TuneOptions { trials: 16, seed: 0 }, ..Default::default() }
    }

    #[test]
    fn compresses_resnet_toward_budget() {
        let net = resnet18(DatasetKind::Cifar10);
        let outcome = compress(&net, &Platform::intel_i7(), &quick());
        let ratio = outcome.plan.params() as f64 / net.params() as f64;
        assert!(ratio < 0.75, "ratio {ratio}");
        // Every visited class's wave is counted, each attempt in one stage.
        let s = &outcome.stats;
        assert!(s.survivors > 0, "{s:?}");
        assert_eq!(
            s.structurally_invalid + s.cost_rejected + s.fisher_rejected + s.survivors,
            s.attempted
        );
    }

    #[test]
    fn nas_improves_resnet_latency() {
        let net = resnet18(DatasetKind::Cifar10);
        let platform = Platform::intel_i7();
        let options = quick();
        let baseline = NetworkPlan::baseline(&net, &platform, &options.tune);
        let plan = compress(&net, &platform, &options).plan;
        assert!(plan.latency_ms() < baseline.latency_ms());
    }

    #[test]
    fn resnext_is_untouched() {
        // §7.1: "NAS is unable to find any improvement here due to the
        // already highly compact structure of the network" — its 3x3s are
        // grouped and its 1x1s are outside BlockSwap's menu.
        let net = resnext29_2x64d();
        let platform = Platform::intel_i7();
        let options = quick();
        let baseline = NetworkPlan::baseline(&net, &platform, &options.tune);
        let plan = compress(&net, &platform, &options).plan;
        assert_eq!(plan.params(), baseline.params());
        assert!((plan.latency_ms() - baseline.latency_ms()).abs() < 1e-9);
    }

    #[test]
    fn swappable_filter() {
        assert!(menu_applies(&ConvLayer::new("x", 64, 64, 3, 1, 1, 8, 8)));
        assert!(!menu_applies(&ConvLayer::new("x", 64, 64, 1, 1, 0, 8, 8)));
        assert!(!menu_applies(&ConvLayer::new("x", 64, 64, 3, 1, 1, 8, 8).with_groups(2)));
        assert!(!menu_applies(&ConvLayer::new("x", 64, 64, 3, 1, 1, 8, 8).with_mutable(false)));
    }
}
