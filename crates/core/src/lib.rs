//! # pte-core — neural architecture search as program transformation exploration
//!
//! The public API of `pte`, a from-scratch Rust reproduction of the ASPLOS
//! 2021 paper *"Neural Architecture Search as Program Transformation
//! Exploration"* (Turner, Crowley, O'Boyle).
//!
//! The paper's idea: neural-architecture operations (bottlenecking, grouping,
//! depthwise) *are* program transformations over convolution loop nests —
//! illegal under data-dependence semantics, but legal under a
//! representational-capacity criterion (Fisher Potential). Putting both
//! transformation families in one space lets a compiler-style search discover
//! new convolution operators no NAS menu contains, with no training in the
//! loop.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`ir`] | polyhedral-lite loop-nest IR, dependences, legality |
//! | [`transform`] | Table 1 primitives: program + neural transformations |
//! | [`exec`] | loop-nest interpreter, correctness oracle |
//! | [`machine`] | platform models (i7/1080Ti/A57/mGPU), cache simulator |
//! | [`autotune`] | TVM-baseline schedule templates + tuner |
//! | [`tensor`] | dense tensors, conv fwd/bwd, synthetic datasets |
//! | [`nn`] | ResNet/ResNeXt/DenseNet builders, NAS-Bench-201 cells |
//! | [`fisher`] | Fisher Potential legality (Eq. 4–5) |
//! | [`search`] | unified search, BlockSwap NAS, FBNet, interpolation |
//!
//! ## Quickstart
//!
//! ```
//! use pte_core::{Optimizer, Platform};
//!
//! let network = pte_core::nn::resnet18(pte_core::nn::DatasetKind::Cifar10);
//! let report = Optimizer::new(&network, Platform::intel_i7())
//!     .quick() // trimmed search budget for doc tests
//!     .run();
//! assert!(report.ours_speedup >= 1.0);
//! println!("{report}");
//! ```

use std::fmt;
use std::time::Duration;

pub use pte_autotune as autotune;
pub use pte_exec as exec;
pub use pte_fisher as fisher;
pub use pte_ir as ir;
pub use pte_machine as machine;
pub use pte_nn as nn;
pub use pte_search as search;
pub use pte_telemetry as telemetry;
pub use pte_tensor as tensor;
pub use pte_transform as transform;

pub use pte_machine::Platform;
pub use pte_search::unified::{SearchStats, UnifiedOptions};
pub use pte_search::NetworkPlan;

/// High-level driver: runs the paper's three approaches (TVM / NAS / Ours)
/// on one network and platform, and assembles a comparison report.
#[derive(Debug, Clone)]
pub struct Optimizer {
    network: pte_nn::Network,
    platform: Platform,
    options: UnifiedOptions,
    nas_options: pte_search::blockswap::BlockSwapOptions,
}

impl Optimizer {
    /// Creates an optimizer with the paper-scale default search budget
    /// (≈1000 candidates per network).
    pub fn new(network: &pte_nn::Network, platform: Platform) -> Self {
        Optimizer {
            network: network.clone(),
            platform,
            options: UnifiedOptions::default(),
            nas_options: pte_search::blockswap::BlockSwapOptions::default(),
        }
    }

    /// Shrinks the search budget (fewer random candidates, fewer tuner
    /// trials) for tests, examples and docs.
    pub fn quick(mut self) -> Self {
        self.options.random_per_layer = 8;
        self.options.tune.trials = 16;
        self.nas_options.tune.trials = 16;
        self
    }

    /// Overrides the unified-search options.
    pub fn with_options(mut self, options: UnifiedOptions) -> Self {
        self.nas_options.tune = options.tune;
        self.options = options;
        self
    }

    /// Runs TVM baseline, BlockSwap NAS and the unified search, and gathers
    /// the paper's reporting quantities.
    pub fn run(&self) -> OptimizationReport {
        let baseline = NetworkPlan::baseline(&self.network, &self.platform, &self.options.tune);
        let nas = pte_search::blockswap::compress(&self.network, &self.platform, &self.nas_options);
        let outcome = pte_search::unified::optimize(&self.network, &self.platform, &self.options);

        let tvm_ms = baseline.latency_ms();
        let nas_ms = nas.plan.latency_ms();
        let ours_ms = outcome.plan.latency_ms();
        let fisher_ratio = if outcome.original_fisher > 0.0 {
            outcome.plan.fisher() / outcome.original_fisher
        } else {
            1.0
        };
        let ours_params = outcome.plan.params();
        let ours_error = pte_nn::accuracy::predict_error(
            &self.network,
            ours_params,
            fisher_ratio,
            self.options.seed,
        );
        let histogram = outcome
            .plan
            .sequence_histogram()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();

        OptimizationReport {
            network: self.network.name().to_string(),
            platform: self.platform.name.to_string(),
            tvm_latency_ms: tvm_ms,
            nas_latency_ms: nas_ms,
            ours_latency_ms: ours_ms,
            nas_speedup: tvm_ms / nas_ms,
            ours_speedup: tvm_ms / ours_ms,
            original_params: self.network.params(),
            nas_params: nas.plan.params(),
            ours_params,
            original_error: self.network.base_error(),
            ours_error,
            stats: outcome.stats,
            search_time: outcome.elapsed,
            sequence_histogram: histogram,
            plan: outcome.plan,
        }
    }
}

/// Comparison report for one network × platform (one group of Figure 4 bars).
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// Network name.
    pub network: String,
    /// Platform name (CPU/GPU/mCPU/mGPU).
    pub platform: String,
    /// Baseline latency (TVM-style autotuned schedules).
    pub tvm_latency_ms: f64,
    /// BlockSwap-NAS latency.
    pub nas_latency_ms: f64,
    /// Unified-search latency.
    pub ours_latency_ms: f64,
    /// NAS speedup over the baseline.
    pub nas_speedup: f64,
    /// Unified speedup over the baseline.
    pub ours_speedup: f64,
    /// Original parameter count.
    pub original_params: u64,
    /// NAS-compressed parameter count.
    pub nas_params: u64,
    /// Unified-search parameter count.
    pub ours_params: u64,
    /// Original top-1 error (%), anchored to the paper's numbers.
    pub original_error: f64,
    /// Predicted top-1 error (%) of the optimized network.
    pub ours_error: f64,
    /// Search statistics (§7.2).
    pub stats: SearchStats,
    /// Wall-clock search time (§7.2: "less than 5 minutes on a CPU").
    pub search_time: Duration,
    /// Named-sequence usage of the winning plan (Figure 5).
    pub sequence_histogram: Vec<(String, usize)>,
    /// The winning plan itself.
    pub plan: NetworkPlan,
}

impl OptimizationReport {
    /// Compression factor (original / ours parameters).
    pub fn compression(&self) -> f64 {
        self.original_params as f64 / self.ours_params.max(1) as f64
    }

    /// Accuracy delta in percentage points (ours − original; negative is an
    /// improvement).
    pub fn error_delta(&self) -> f64 {
        self.ours_error - self.original_error
    }
}

impl fmt::Display for OptimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} on {}:", self.network, self.platform)?;
        writeln!(
            f,
            "  latency  TVM {:.3} ms | NAS {:.3} ms ({:.2}x) | Ours {:.3} ms ({:.2}x)",
            self.tvm_latency_ms,
            self.nas_latency_ms,
            self.nas_speedup,
            self.ours_latency_ms,
            self.ours_speedup
        )?;
        writeln!(
            f,
            "  params   {:.2}M -> {:.2}M ({:.2}x), error {:.2}% -> {:.2}% ({:+.2})",
            self.original_params as f64 / 1e6,
            self.ours_params as f64 / 1e6,
            self.compression(),
            self.original_error,
            self.ours_error,
            self.error_delta()
        )?;
        write!(
            f,
            "  search   {} candidates, {:.0}% fisher-rejected, {:.1}s",
            self.stats.attempted,
            self.stats.rejection_rate() * 100.0,
            self.search_time.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_nn::{resnet18, DatasetKind};

    #[test]
    fn optimizer_produces_consistent_report() {
        let net = resnet18(DatasetKind::Cifar10);
        let report = Optimizer::new(&net, Platform::intel_i7()).quick().run();
        assert!(report.ours_speedup >= 1.0);
        assert!(report.ours_latency_ms <= report.tvm_latency_ms);
        assert!(report.ours_params <= report.original_params);
        assert!(report.error_delta().abs() < 2.0, "delta {}", report.error_delta());
        // Display is renderable and informative.
        let text = report.to_string();
        assert!(text.contains("latency"));
        assert!(text.contains("resnet18"));
    }

    #[test]
    fn ours_at_least_matches_nas() {
        let net = resnet18(DatasetKind::Cifar10);
        let report = Optimizer::new(&net, Platform::intel_i7()).quick().run();
        assert!(
            report.ours_latency_ms <= report.nas_latency_ms * 1.05,
            "ours {} vs nas {}",
            report.ours_latency_ms,
            report.nas_latency_ms
        );
    }
}
