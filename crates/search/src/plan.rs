//! Network implementation plans: one schedule (or slice set) per layer class.

use std::collections::BTreeMap;

use pte_autotune::TuneOptions;
use pte_machine::Platform;
use pte_nn::{ConvLayer, Network};
use pte_transform::{Schedule, TransformStep};

use crate::driver::{SearchCtx, Strategy};

/// The chosen implementation of one distinct layer configuration.
#[derive(Debug, Clone)]
pub struct LayerChoice {
    /// The original layer (first instance of its class).
    pub layer: ConvLayer,
    /// Number of instances of this class in the network.
    pub multiplicity: usize,
    /// The (possibly neurally transformed) schedules implementing the layer;
    /// more than one when the output domain was split (Sequence 3).
    pub schedules: Vec<Schedule>,
    /// Tuned per-instance latency in milliseconds.
    pub latency_ms: f64,
    /// Fisher Potential of the implementation (per instance).
    pub fisher: f64,
    /// Name of the named sequence this choice realises, if any.
    pub named_sequence: Option<&'static str>,
}

impl LayerChoice {
    /// Combined transformation steps across the choice's schedules.
    pub fn steps(&self) -> Vec<TransformStep> {
        self.schedules.iter().flat_map(|s| s.steps().iter().cloned()).collect()
    }

    /// Parameter count of the implementation (per instance).
    pub fn params(&self) -> u64 {
        self.schedules
            .iter()
            .filter_map(|s| s.nest().conv())
            .map(|c| c.params().max(0) as u64)
            .sum()
    }

    /// Whether any schedule changed representational capacity.
    pub fn changes_capacity(&self) -> bool {
        self.schedules.iter().any(Schedule::changes_capacity)
    }
}

/// A complete implementation plan for a network on one platform.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    pub(crate) network: Network,
    pub(crate) choices: Vec<LayerChoice>,
}

impl NetworkPlan {
    /// The TVM-baseline plan: every distinct layer configuration autotuned,
    /// architecture untouched — [`crate::run`] with [`Strategy::Baseline`]
    /// on the worker pool.
    pub fn baseline(network: &Network, platform: &Platform, tune_options: &TuneOptions) -> Self {
        crate::run(network, platform, &Strategy::Baseline(*tune_options), &SearchCtx::parallel())
            .expect("a never-token cannot cancel")
            .plan
    }

    /// The plan's network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Per-layer-class choices.
    pub fn choices(&self) -> &[LayerChoice] {
        &self.choices
    }

    /// End-to-end inference latency: Σ instances × tuned per-instance time.
    pub fn latency_ms(&self) -> f64 {
        self.choices.iter().map(|c| c.latency_ms * c.multiplicity as f64).sum()
    }

    /// Total parameters: transformed convolutions plus the classifier.
    pub fn params(&self) -> u64 {
        let convs: u64 = self.choices.iter().map(|c| c.params() * c.multiplicity as u64).sum();
        let classes = self.network.dataset().classes();
        convs + (self.network.classifier_in() * classes + classes) as u64
    }

    /// Network Fisher Potential: Σ instances × per-layer scores.
    pub fn fisher(&self) -> f64 {
        self.choices.iter().map(|c| c.fisher * c.multiplicity as f64).sum()
    }

    /// Histogram of named sequences used by the plan (Figure 5).
    pub fn sequence_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut hist = BTreeMap::new();
        for c in &self.choices {
            if let Some(name) = c.named_sequence {
                *hist.entry(name).or_insert(0) += c.multiplicity;
            }
        }
        hist
    }
}

/// Per-class ladders of tuned legal candidates, used to enforce the
/// network-level Fisher floor at fine granularity: instead of reverting an
/// over-aggressive class all the way to its baseline, the enforcement steps
/// it up one capacity rung at a time (e.g. `group(4)` → `group(2)` →
/// baseline), paying the least latency per unit of Fisher recovered.
pub(crate) type ChoiceLadders = Vec<Vec<LayerChoice>>;

/// Enforces the network-level Fisher floor (paper §5.2's
/// reject-below-original rule, with tolerance) on a plan, using `ladders`
/// (one candidate list per class, each containing at least the baseline
/// choice). Shared by every search driver so their results are comparable.
pub(crate) fn enforce_network_legality(
    plan: &mut NetworkPlan,
    ladders: &ChoiceLadders,
    original_fisher: f64,
    legality: &pte_fisher::FisherLegality,
) {
    debug_assert_eq!(plan.choices().len(), ladders.len());
    while !legality.is_legal(original_fisher, plan.fisher()) {
        // For each class, the cheapest step to a higher-Fisher option;
        // apply the globally cheapest (latency paid per Fisher recovered).
        let mut best_step: Option<(usize, usize, f64)> = None;
        for (i, current) in plan.choices().iter().enumerate() {
            for (j, option) in ladders[i].iter().enumerate() {
                let fisher_gain = (option.fisher - current.fisher) * current.multiplicity as f64;
                if fisher_gain <= 1e-15 {
                    continue;
                }
                let latency_cost =
                    (option.latency_ms - current.latency_ms) * current.multiplicity as f64;
                let ratio = latency_cost / fisher_gain;
                if best_step.map(|(_, _, r)| ratio < r).unwrap_or(true) {
                    best_step = Some((i, j, ratio));
                }
            }
        }
        match best_step {
            Some((i, j, _)) => plan.choices[i] = ladders[i][j].clone(),
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_machine::Platform;
    use pte_nn::{resnet18, DatasetKind};

    #[test]
    fn baseline_covers_all_distinct_layers() {
        let net = resnet18(DatasetKind::Cifar10);
        let plan = NetworkPlan::baseline(&net, &Platform::intel_i7(), &TuneOptions::default());
        assert_eq!(plan.choices().len(), net.distinct_configs().len());
        // Instance counts add back up to the full conv list.
        let instances: usize = plan.choices().iter().map(|c| c.multiplicity).sum();
        assert_eq!(instances, net.convs().len());
    }

    #[test]
    fn baseline_params_match_network() {
        let net = resnet18(DatasetKind::Cifar10);
        let plan = NetworkPlan::baseline(&net, &Platform::intel_i7(), &TuneOptions::default());
        assert_eq!(plan.params(), net.params());
    }

    #[test]
    fn latency_is_positive_and_additive() {
        let net = resnet18(DatasetKind::Cifar10);
        let plan = NetworkPlan::baseline(&net, &Platform::intel_i7(), &TuneOptions::default());
        let total = plan.latency_ms();
        assert!(total > 0.0);
        let by_hand: f64 =
            plan.choices().iter().map(|c| c.latency_ms * c.multiplicity as f64).sum();
        assert!((total - by_hand).abs() < 1e-12);
    }
}
