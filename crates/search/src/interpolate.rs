//! Model interpolation (paper §7.7, Figure 9).
//!
//! Two BlockSwap-style models — NAS-A (every swappable block grouped by 2)
//! and NAS-B (grouped by 4) — are connected by chains of parametrized
//! transformations. Each intermediate point converts some blocks from `g=2`
//! to `g=4`, and the unified space additionally provides *half-step* blocks
//! via Sequence 3 (output domain split, half `g=2` / half `g=4`) — new block
//! types "that would not be accessible to a traditional NAS technique unless
//! explicitly written by the human designer".

use pte_autotune::TuneOptions;
use pte_machine::Platform;
use pte_nn::{accuracy, Network};

use crate::blockswap::menu_applies;
use crate::eval::Evaluator;
use crate::plan::NetworkPlan;

/// One interpolated model.
#[derive(Debug, Clone)]
pub struct InterpolationPoint {
    /// Human-readable label (`NAS-A`, `NAS-B`, `mix-3`, `mix-3.5`, ...).
    pub label: String,
    /// Total parameters.
    pub params: u64,
    /// Mean predicted CIFAR-10 error over `seeds` training runs (%).
    pub error_mean: f64,
    /// Standard deviation across runs (the paper's error bars).
    pub error_std: f64,
    /// Tuned inference latency (ms).
    pub latency_ms: f64,
    /// Whether the point is one of the two NAS endpoints.
    pub is_endpoint: bool,
}

/// Options for the interpolation experiment.
#[derive(Debug, Clone)]
pub struct InterpolateOptions {
    /// Autotuning options.
    pub tune: TuneOptions,
    /// Number of simulated training runs per point (paper: 3).
    pub seeds: usize,
    /// Whether to include Sequence-3 half-step block types.
    pub half_steps: bool,
}

impl Default for InterpolateOptions {
    fn default() -> Self {
        InterpolateOptions { tune: TuneOptions::default(), seeds: 3, half_steps: true }
    }
}

/// Builds a plan where the first `g4_classes` swappable classes use `g=4`,
/// the rest `g=2`; `half` optionally makes the boundary class a Sequence-3
/// mixed block. Candidates are tuned through the shared [`Evaluator`]'s
/// autotune stage (interpolants pass the legality check by construction, so
/// the gating stages stay disabled).
fn mixed_plan(
    network: &Network,
    platform: &Platform,
    evaluator: &Evaluator,
    g4_classes: usize,
    half: bool,
) -> Option<NetworkPlan> {
    let mut plan = NetworkPlan::baseline(network, platform, evaluator.tune_options());
    let swappable: Vec<usize> =
        (0..plan.choices().len()).filter(|&i| menu_applies(&plan.choices()[i].layer)).collect();
    for (rank, &idx) in swappable.iter().enumerate() {
        let incumbent = plan.choices()[idx].clone();
        let schedules = if half && rank == g4_classes {
            // The boundary block: Sequence 3's split-domain g2/g4 operator.
            let (lo, hi) =
                pte_transform::named::sequence_3(&incumbent.layer.to_schedule(), 2, 4).ok()?;
            vec![lo, hi]
        } else {
            let g = if rank < g4_classes { 4 } else { 2 };
            let mut s = incumbent.layer.to_schedule();
            s.group(g).ok()?;
            vec![s]
        };
        plan.choices[idx] =
            evaluator.tune_candidate(&incumbent.layer, incumbent.multiplicity, schedules);
    }
    Some(plan)
}

/// Runs the interpolation sweep between NAS-A (`g=2`) and NAS-B (`g=4`).
pub fn interpolate(
    network: &Network,
    platform: &Platform,
    options: &InterpolateOptions,
) -> Vec<InterpolationPoint> {
    let evaluator = Evaluator::new(platform, options.tune);
    let swappable_count =
        network.distinct_configs().into_iter().filter(|l| menu_applies(l)).count();

    let mut points = Vec::new();
    let mut push = |label: String, plan: NetworkPlan, endpoint: bool| {
        let params = plan.params();
        let fisher_ratio = 1.0; // interpolants pass the legality check
        let errors: Vec<f64> = (0..options.seeds)
            .map(|s| accuracy::predict_error(network, params, fisher_ratio, s as u64 + 1))
            .collect();
        let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        let var =
            errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / errors.len().max(1) as f64;
        points.push(InterpolationPoint {
            label,
            params,
            error_mean: mean,
            error_std: var.sqrt(),
            latency_ms: plan.latency_ms(),
            is_endpoint: endpoint,
        });
    };

    for g4 in 0..=swappable_count {
        if let Some(plan) = mixed_plan(network, platform, &evaluator, g4, false) {
            let label = match g4 {
                0 => "NAS-A(g2)".to_string(),
                n if n == swappable_count => "NAS-B(g4)".to_string(),
                n => format!("mix-{n}"),
            };
            push(label, plan, g4 == 0 || g4 == swappable_count);
        }
        if options.half_steps && g4 < swappable_count {
            if let Some(plan) = mixed_plan(network, platform, &evaluator, g4, true) {
                push(format!("mix-{g4}.5"), plan, false);
            }
        }
    }
    points
}

/// Indices of the Pareto-optimal points (minimal error for their size).
pub fn pareto_front(points: &[InterpolationPoint]) -> Vec<usize> {
    let mut front = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let dominated = points.iter().enumerate().any(|(j, q)| {
            j != i
                && q.params <= p.params
                && q.error_mean <= p.error_mean
                && (q.params < p.params || q.error_mean < p.error_mean)
        });
        if !dominated {
            front.push(i);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_nn::{resnet18, DatasetKind};

    fn options() -> InterpolateOptions {
        InterpolateOptions { tune: TuneOptions { trials: 8, seed: 0 }, seeds: 3, half_steps: true }
    }

    #[test]
    fn endpoints_bracket_interpolants() {
        let net = resnet18(DatasetKind::Cifar10);
        let pts = interpolate(&net, &Platform::intel_i7(), &options());
        assert!(pts.len() > 4);
        let a = pts.iter().find(|p| p.label.starts_with("NAS-A")).unwrap();
        let b = pts.iter().find(|p| p.label.starts_with("NAS-B")).unwrap();
        assert!(b.params < a.params);
        for p in &pts {
            assert!(p.params >= b.params && p.params <= a.params, "{} out of range", p.label);
        }
    }

    #[test]
    fn half_steps_create_new_sizes() {
        let net = resnet18(DatasetKind::Cifar10);
        let pts = interpolate(&net, &Platform::intel_i7(), &options());
        let full: Vec<u64> =
            pts.iter().filter(|p| !p.label.contains('.')).map(|p| p.params).collect();
        let halves: Vec<u64> =
            pts.iter().filter(|p| p.label.contains('.')).map(|p| p.params).collect();
        assert!(!halves.is_empty());
        // At least one half-step size is strictly between two full steps.
        assert!(halves.iter().any(|h| !full.contains(h)));
    }

    #[test]
    fn error_bars_are_present() {
        let net = resnet18(DatasetKind::Cifar10);
        let pts = interpolate(&net, &Platform::intel_i7(), &options());
        assert!(pts.iter().all(|p| p.error_std >= 0.0));
        assert!(pts.iter().any(|p| p.error_std > 0.0));
    }

    #[test]
    fn pareto_front_nonempty_and_minimal() {
        let net = resnet18(DatasetKind::Cifar10);
        let pts = interpolate(&net, &Platform::intel_i7(), &options());
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        // The smallest-error point is always on the front.
        let best = pts
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.error_mean.partial_cmp(&b.1.error_mean).unwrap())
            .unwrap()
            .0;
        assert!(front.contains(&best));
    }
}
