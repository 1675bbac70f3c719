//! Grammar-compiled evolutionary search over transformation sequences.
//!
//! The fifth strategy: instead of walking a fixed candidate menu
//! ([`crate::candidates::enumerate`]) plus independent random draws, this
//! driver compiles each layer class's legal-transformation grammar to a flat
//! automaton ([`pte_transform::automaton`]), represents every candidate as a
//! replayable `Vec<usize>` **sequence buffer**, and explores by *mutating
//! stored survivors* — truncate a high-Fisher parent's buffer at a seeded
//! point and regrow the tail from the automaton — rather than generating
//! from scratch.
//!
//! Per mutable layer class the search runs [`EvolveOptions::generations`]
//! waves of [`EvolveOptions::generation_size`] buffer candidates through the
//! shared staged [`Evaluator`] (structural → cost gate → Fisher → autotune),
//! exactly like the unified driver — so the determinism contract holds for
//! free: evaluations are pure, waves fan out over the worker pool with an
//! order-preserving reduction, and everything downstream of the RNG is a
//! function of the seed. Generation 0 additionally carries the deterministic
//! candidate menu, so `evolve` starts no weaker than `unified`'s enumerated
//! set and spends its buffer budget exploring beyond it.
//!
//! The **corpus** is the bounded set of high-Fisher buffer survivors
//! (capacity [`EvolveOptions::corpus_size`], ranked by Fisher score with
//! input-order tie-breaks). Each next generation mutates corpus members
//! round-robin; while the corpus is empty the automaton grows fresh buffers.
//! Same seed ⇒ bit-identical corpus trajectory and final plan, for any
//! worker count — pinned by `tests/evolve_replay.rs`.

use pte_autotune::TuneOptions;
use pte_fisher::FisherLegality;
use pte_machine::Platform;
use pte_nn::Network;
use pte_transform::automaton;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cancel::{CancelToken, Cancelled};
use crate::candidates::{self, Candidate};
use crate::driver::{SearchCtx, SearchOutcome, Strategy};
use crate::eval::{EvalOutcome, Evaluator, SearchStats};
use crate::plan::LayerChoice;

/// Options for the evolutionary search.
#[derive(Debug, Clone)]
pub struct EvolveOptions {
    /// Buffer candidates evaluated per generation (one wave each).
    pub generation_size: usize,
    /// Number of generations per layer class. Total buffer evaluations per
    /// class are `generation_size * generations` — the budget to match
    /// against `unified`'s `random_per_layer`.
    pub generations: usize,
    /// Bound on the survivor corpus per class.
    pub corpus_size: usize,
    /// Step attempts per buffer (sequence length cap, counting skipped
    /// attempts).
    pub max_attempts: usize,
    /// Autotuning options (shared with the baselines for fairness).
    pub tune: TuneOptions,
    /// Per-layer-class Fisher legality.
    pub class_legality: FisherLegality,
    /// Whole-network Fisher legality, enforced after assembly.
    pub network_legality: FisherLegality,
    /// Master seed; every per-class / per-candidate stream derives from it.
    pub seed: u64,
}

impl Default for EvolveOptions {
    fn default() -> Self {
        EvolveOptions {
            generation_size: 24,
            generations: 4,
            corpus_size: 8,
            max_attempts: 6,
            tune: TuneOptions::default(),
            class_legality: FisherLegality { tolerance: 0.35 },
            network_legality: FisherLegality { tolerance: 0.15 },
            seed: 0xA5F1,
        }
    }
}

impl EvolveOptions {
    /// Splits an evaluation budget (the `unified` strategy's
    /// `random_per_layer`) into generations of roughly equal size, so the
    /// two strategies spend the same number of buffer evaluations per layer
    /// class. Budgets below one per generation collapse to fewer, fuller
    /// generations; a zero budget evaluates the deterministic menu only,
    /// exactly like `unified` with `random_per_layer: 0`.
    pub fn with_budget(budget: usize) -> Self {
        let defaults = EvolveOptions::default();
        let generations = defaults.generations.min(budget.max(1));
        let generation_size = budget.div_ceil(generations);
        EvolveOptions { generation_size, generations, ..defaults }
    }

    /// Total buffer evaluations this configuration spends per layer class.
    pub fn budget(&self) -> usize {
        self.generation_size * self.generations
    }
}

/// One corpus member: a replayable buffer and the Fisher score its schedule
/// probed at.
#[derive(Debug, Clone)]
struct CorpusMember {
    buf: Vec<usize>,
    fisher: f64,
}

/// Runs the evolutionary search with candidate evaluation fanned out over
/// the worker pool: [`crate::run`] with [`Strategy::Evolve`] and
/// [`SearchCtx::parallel`]. Bit-identical to [`optimize_serial`].
pub fn optimize(network: &Network, platform: &Platform, options: &EvolveOptions) -> SearchOutcome {
    crate::run(network, platform, &Strategy::Evolve(options.clone()), &SearchCtx::parallel())
        .expect("a never-token cannot cancel")
}

/// Runs the evolutionary search strictly on the calling thread.
pub fn optimize_serial(
    network: &Network,
    platform: &Platform,
    options: &EvolveOptions,
) -> SearchOutcome {
    crate::run(network, platform, &Strategy::Evolve(options.clone()), &SearchCtx::serial())
        .expect("a never-token cannot cancel")
}

/// The generations of one mutable class: each a wave of corpus mutations
/// (generation 0 also carrying the deterministic menu), reduced to the
/// fastest legal survivor so far.
pub(crate) fn explore_class(
    options: &EvolveOptions,
    idx: usize,
    incumbent: &LayerChoice,
    evaluator: &Evaluator,
    cancel: &CancelToken,
    stats: &mut SearchStats,
    ladder: &mut Vec<LayerChoice>,
) -> Result<LayerChoice, Cancelled> {
    // Traced requests see one span per mutable class; the automaton's
    // coverage ledger (grammar rules fired per class) fills in as the
    // buffers decode — both observation-only.
    let _class_span = pte_telemetry::span("evolve_class");
    let base = incumbent.layer.to_schedule();
    let auto = automaton::compile(&base);
    let class_seed = pte_tensor::rng::derive_seed(options.seed, idx as u64);
    let mut corpus: Vec<CorpusMember> = Vec::new();
    let mut best = incumbent.clone();

    for gen in 0..options.generations {
        cancel.check()?;
        // Generation 0 rides the deterministic menu, so evolve starts
        // from the same floor the unified strategy enumerates.
        let (mut cands, mut attempted) =
            if gen == 0 { candidates::enumerate(&incumbent.layer) } else { (Vec::new(), 0) };

        // Buffer candidates: mutations of the ranked corpus
        // (round-robin), fresh growth while the corpus is empty. Each
        // candidate gets its own derived RNG stream so the trajectory
        // is independent of evaluation scheduling.
        let mut buffers: Vec<Option<Vec<usize>>> = vec![None; cands.len()];
        for member in 0..options.generation_size {
            attempted += 1;
            let draw = (gen * options.generation_size + member) as u64;
            let mut rng = StdRng::seed_from_u64(pte_tensor::rng::derive_seed(class_seed, draw));
            let mut schedule = base.clone();
            let (buf, steps) = if corpus.is_empty() {
                let mut buf = Vec::new();
                let steps = auto.grow(&mut schedule, &mut buf, &mut rng, options.max_attempts);
                (buf, steps)
            } else {
                let parent = &corpus[member % corpus.len()];
                auto.mutate(&mut schedule, &parent.buf, &mut rng, options.max_attempts)
            };
            if steps.is_empty() || !schedule.changes_capacity() {
                // No capacity-changing move: identical to the baseline
                // the incumbent already is — structurally uninteresting.
                continue;
            }
            let label = steps.iter().map(ToString::to_string).collect::<Vec<_>>().join("->");
            buffers.push(Some(buf));
            cands.push(Candidate::single(label, schedule));
        }

        // Legality is judged against the class's original incumbent
        // (like the unified strategy), not the evolving winner, so the
        // Fisher floor never ratchets downward across generations.
        let wave = evaluator.evaluate_class_cancellable(incumbent, cands, attempted, cancel)?;

        // Corpus update: every *buffer-backed* survivor joins, ranked by
        // Fisher score (descending, stable on input order), bounded.
        for (eval, buf) in wave.evals.iter().zip(&buffers) {
            let Some(buf) = buf else { continue };
            if matches!(eval.outcome, EvalOutcome::Survivor(_)) {
                corpus.push(CorpusMember { buf: buf.clone(), fisher: eval.fisher });
            }
        }
        corpus.sort_by(|a, b| b.fisher.partial_cmp(&a.fisher).unwrap_or(std::cmp::Ordering::Equal));
        corpus.truncate(options.corpus_size);

        best = wave.select_fastest(&best, stats, ladder);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NetworkPlan;
    use crate::unified::{self, UnifiedOptions};
    use pte_nn::{resnet18, DatasetKind};

    fn quick_options() -> EvolveOptions {
        EvolveOptions {
            generation_size: 4,
            generations: 2,
            tune: TuneOptions { trials: 16, seed: 0 },
            ..EvolveOptions::default()
        }
    }

    #[test]
    fn evolve_beats_baseline_on_resnet() {
        let net = resnet18(DatasetKind::Cifar10);
        let platform = Platform::intel_i7();
        let options = quick_options();
        let baseline = NetworkPlan::baseline(&net, &platform, &options.tune);
        let outcome = optimize(&net, &platform, &options);
        assert!(
            outcome.plan.latency_ms() < baseline.latency_ms(),
            "evolve {} vs baseline {}",
            outcome.plan.latency_ms(),
            baseline.latency_ms()
        );
        assert!(outcome.stats.survivors > 0);
    }

    #[test]
    fn final_plan_is_fisher_legal() {
        let net = resnet18(DatasetKind::Cifar10);
        let options = quick_options();
        let outcome = optimize(&net, &Platform::intel_i7(), &options);
        assert!(options.network_legality.is_legal(outcome.original_fisher, outcome.plan.fisher()));
    }

    #[test]
    fn stats_account_every_attempt() {
        let net = resnet18(DatasetKind::Cifar10);
        let outcome = optimize(&net, &Platform::intel_i7(), &quick_options());
        let s = &outcome.stats;
        assert_eq!(
            s.structurally_invalid + s.cost_rejected + s.fisher_rejected + s.survivors,
            s.attempted,
            "every attempt must terminate in exactly one stage: {s:?}"
        );
    }

    #[test]
    fn budget_split_matches_unified_budget() {
        for budget in [0, 1, 7, 8, 96, 100] {
            let options = EvolveOptions::with_budget(budget);
            assert!(options.budget() >= budget, "budget {budget} -> {}", options.budget());
            assert!(
                options.budget() < budget + options.generations,
                "budget {budget} overshoots to {}",
                options.budget()
            );
        }
    }

    #[test]
    fn zero_budget_matches_unified_without_random_draws() {
        let net = resnet18(DatasetKind::Cifar10);
        let platform = Platform::intel_i7();
        let tune = TuneOptions { trials: 16, seed: 0 };
        let evolved =
            optimize(&net, &platform, &EvolveOptions { tune, ..EvolveOptions::with_budget(0) });
        let unified = unified::optimize(
            &net,
            &platform,
            &UnifiedOptions { random_per_layer: 0, tune, ..UnifiedOptions::default() },
        );
        assert_eq!(evolved.stats, unified.stats);
        assert_eq!(evolved.plan.latency_ms().to_bits(), unified.plan.latency_ms().to_bits());
        assert_eq!(evolved.plan.fisher().to_bits(), unified.plan.fisher().to_bits());
        assert_eq!(evolved.plan.params(), unified.plan.params());
    }
}
