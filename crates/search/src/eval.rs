//! The shared staged candidate-evaluation pipeline.
//!
//! Every search strategy in this crate answers the same question per layer
//! class — *which candidate implementations are admissible, and what do they
//! cost?* — and before this module each one re-implemented the answer as a
//! private loop. The [`Evaluator`] factors that loop into four explicit
//! stages, applied to a **wave** of candidates at once:
//!
//! 1. **structural legality** — candidates whose transformation sequences
//!    failed their preconditions never reach the pipeline; the wave records
//!    them from the attempt count (paper §7.2's "invalid configurations");
//! 2. **cost model** — an optional analytical pre-filter: candidates whose
//!    *untuned* estimate already exceeds a caller-chosen multiple of the
//!    incumbent's latency are dropped before the expensive stages (off by
//!    default, since tuning can close large gaps);
//! 3. **Fisher legality** — the paper's capacity check (§5.2). The wave's
//!    distinct `ConvShape` probes are first handed to the **probe
//!    scheduler** ([`ProbeStreams::batch_conv_shape_fisher`], through the
//!    evaluator's probe-stream scope), which groups them by shape class and
//!    executes each class as batched multi-image im2col + GEMM waves on
//!    random streams drawn once per layer — bit-identical to per-candidate
//!    probing, but with the lowering and the draws amortised — before the
//!    per-candidate legality decisions read the memoised scores;
//! 4. **autotune** — survivors are tuned with the shared template tuner and
//!    assembled into [`LayerChoice`]s.
//!
//! Candidate evaluations are pure, so the wave fans out over the worker pool
//! ([`pte_autotune::wave::map_ordered`]) and reduces sequentially in input
//! order: results are **bit-identical for any thread count**, the property
//! the `driver_parity` and `evaluator_stats` suites pin.

use std::sync::LazyLock;

use pte_autotune::{tune, wave, TuneOptions};
use pte_fisher::proxy::ProbeStreams;
use pte_fisher::FisherLegality;
use pte_ir::ConvShape;
use pte_machine::cost::estimate_many;
use pte_machine::Platform;
use pte_nn::ConvLayer;
use pte_telemetry::{span, Counter};
use pte_transform::Schedule;

use crate::cancel::{CancelToken, Cancelled};
use crate::candidates::Candidate;
use crate::plan::LayerChoice;

// Per-stage rejection counters, registered once and recorded with pure
// atomics per wave. Observation-only: the parity suite
// (`tests/telemetry_parity.rs`) pins that instrumented runs stay
// bit-identical.
static REJECTED_STRUCTURAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_eval_rejected_structural_total"));
static REJECTED_COST: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_eval_rejected_cost_total"));
static REJECTED_FISHER: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_eval_rejected_fisher_total"));
static SURVIVORS: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_eval_survivors_total"));

/// Eagerly registers the Evaluator's metrics (stage-span histograms and
/// rejection counters) so a metrics scrape lists them before the first
/// search runs. The serve daemon calls this at boot.
pub fn init_metrics() {
    LazyLock::force(&REJECTED_STRUCTURAL);
    LazyLock::force(&REJECTED_COST);
    LazyLock::force(&REJECTED_FISHER);
    LazyLock::force(&SURVIVORS);
    for stage in ["eval_structural", "eval_cost_gate", "eval_fisher", "eval_autotune"] {
        let _ = pte_telemetry::global().histogram(&format!("pte_span_{stage}_us"));
    }
}

/// Search statistics, mirroring §7.2's reporting. Strategies no longer
/// hand-maintain these: the [`Evaluator`] counts them per wave and
/// [`ClassWave::select_fastest`] folds them into the caller's running total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Candidate sequences attempted (including structurally invalid ones).
    pub attempted: usize,
    /// Sequences whose structural preconditions failed.
    pub structurally_invalid: usize,
    /// Candidates dropped by the optional cost-model gate.
    pub cost_rejected: usize,
    /// Candidates rejected by the Fisher Potential legality check.
    pub fisher_rejected: usize,
    /// Candidates that survived to autotuning.
    pub survivors: usize,
    /// Survivors that beat the incumbent implementation.
    pub improvements: usize,
}

impl SearchStats {
    /// Fraction of applicable candidates discarded by the Fisher check.
    pub fn rejection_rate(&self) -> f64 {
        let applicable = self.fisher_rejected + self.survivors;
        if applicable == 0 {
            0.0
        } else {
            self.fisher_rejected as f64 / applicable as f64
        }
    }

    /// Adds another accumulator's counts into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.attempted += other.attempted;
        self.structurally_invalid += other.structurally_invalid;
        self.cost_rejected += other.cost_rejected;
        self.fisher_rejected += other.fisher_rejected;
        self.survivors += other.survivors;
        self.improvements += other.improvements;
    }
}

/// Where one candidate left the pipeline.
#[derive(Debug)]
pub enum EvalOutcome {
    /// Dropped by the cost-model gate (stage 2).
    CostRejected,
    /// Rejected by the Fisher legality check (stage 3).
    FisherRejected,
    /// Survived every gate; tuned and assembled (stage 4).
    Survivor(Box<LayerChoice>),
}

/// One candidate's trip through the pipeline.
#[derive(Debug)]
pub struct CandidateEval {
    /// The candidate's reporting label.
    pub label: String,
    /// Per-instance capacity score of the candidate's schedules (0.0 when
    /// the pipeline never reached the Fisher stage).
    pub fisher: f64,
    /// Terminal stage.
    pub outcome: EvalOutcome,
}

/// An evaluated wave: per-candidate outcomes in input order plus the wave's
/// statistics.
#[derive(Debug)]
pub struct ClassWave {
    /// Candidate outcomes, order-preserved.
    pub evals: Vec<CandidateEval>,
    /// Counts for this wave (attempted / invalid / rejected / survivors;
    /// `improvements` is filled by the reduction that picks a winner).
    pub stats: SearchStats,
}

impl ClassWave {
    /// The survivors of the wave, in input order.
    pub fn survivors(&self) -> impl Iterator<Item = (&CandidateEval, &LayerChoice)> {
        self.evals.iter().filter_map(|e| match &e.outcome {
            EvalOutcome::Survivor(choice) => Some((e, choice.as_ref())),
            _ => None,
        })
    }

    /// The deterministic latency reduction shared by latency-driven
    /// strategies: first-best survivor under strict `<` in candidate order
    /// (so the winner matches a serial sweep exactly), every survivor pushed
    /// onto the class ladder for network-level legality enforcement, and the
    /// wave's counts merged into `stats`.
    pub fn select_fastest(
        self,
        incumbent: &LayerChoice,
        stats: &mut SearchStats,
        ladder: &mut Vec<LayerChoice>,
    ) -> LayerChoice {
        stats.merge(&self.stats);
        let mut best = incumbent.clone();
        for eval in self.evals {
            if let EvalOutcome::Survivor(choice) = eval.outcome {
                if choice.latency_ms < best.latency_ms {
                    best = (*choice).clone();
                    stats.improvements += 1;
                }
                ladder.push(*choice);
            }
        }
        best
    }
}

/// The staged candidate evaluator. The search driver configures one per
/// run and hands each layer-class task its own clone.
///
/// Every probe the evaluator runs goes through its probe-stream scope
/// ([`ProbeStreams`]), which draws each of the layer's random streams once
/// and lets every later probe of that layer slice them. A clone keeps the
/// configuration but starts an empty scope, so a class task's streams live
/// exactly as long as its clone.
#[derive(Debug)]
pub struct Evaluator<'a> {
    platform: &'a Platform,
    tune: TuneOptions,
    class_legality: Option<FisherLegality>,
    cost_gate: Option<f64>,
    parallel: bool,
    probes: ProbeStreams,
}

impl Clone for Evaluator<'_> {
    fn clone(&self) -> Self {
        Evaluator { probes: ProbeStreams::default(), ..*self }
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with no legality gate and no cost gate: only the
    /// structural and autotune stages act (what interpolation sweeps and
    /// baseline compilation need).
    pub fn new(platform: &'a Platform, tune: TuneOptions) -> Self {
        Evaluator {
            platform,
            tune,
            class_legality: None,
            cost_gate: None,
            parallel: true,
            probes: ProbeStreams::default(),
        }
    }

    /// Enables the Fisher legality stage. The decision is made at class
    /// granularity: a candidate's per-instance score × multiplicity must be
    /// legal against the incumbent's.
    pub fn with_class_legality(mut self, legality: FisherLegality) -> Self {
        self.class_legality = Some(legality);
        self
    }

    /// Enables the cost-model gate: candidates whose untuned estimate
    /// exceeds `factor ×` the incumbent's tuned latency skip the Fisher and
    /// autotune stages. A pre-filter, not a guarantee — tuning could have
    /// closed the gap — so it is off unless a caller opts in.
    pub fn with_cost_gate(mut self, factor: f64) -> Self {
        self.cost_gate = Some(factor);
        self
    }

    /// Pins the whole pipeline to the calling thread — candidate fan-out
    /// *and* probe scheduling: serial waves probe per candidate instead of
    /// pre-batching, so speedup baselines measure the genuine pre-batching
    /// path. Results are identical either way (the batched scheduler is
    /// bit-identical to per-candidate probing); only scheduling changes.
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// The tuner options this evaluator applies to survivors.
    pub fn tune_options(&self) -> &TuneOptions {
        &self.tune
    }

    /// Stage 4 alone: autotunes a candidate's schedules and assembles the
    /// resulting [`LayerChoice`] (latency, memoised Fisher score, named
    /// sequence classification). Used directly by callers that already know
    /// the candidate is admissible — baseline compilation and interpolation
    /// sweeps.
    pub fn tune_candidate(
        &self,
        layer: &ConvLayer,
        multiplicity: usize,
        schedules: Vec<Schedule>,
    ) -> LayerChoice {
        let mut total_ms = 0.0;
        let mut tuned = Vec::with_capacity(schedules.len());
        let mut fisher = 0.0;
        for schedule in schedules {
            let result = tune(&schedule, self.platform, &self.tune);
            total_ms += result.report.time_ms;
            if let Some(shape) = result.schedule.nest().conv() {
                fisher += self.probes.conv_shape_fisher(shape, self.tune.seed);
            }
            tuned.push(result.schedule);
        }
        let named = pte_transform::named::classify_steps(
            &tuned.iter().flat_map(|s| s.steps().iter().cloned()).collect::<Vec<_>>(),
        );
        LayerChoice {
            layer: layer.clone(),
            multiplicity,
            schedules: tuned,
            latency_ms: total_ms,
            fisher,
            named_sequence: named,
        }
    }

    /// Runs one layer class's candidate wave through the full pipeline.
    ///
    /// `attempted` is the number of candidate constructions tried upstream
    /// (structurally invalid ones never materialise as [`Candidate`]s, so
    /// the difference is the wave's structural-rejection count).
    pub fn evaluate_class(
        &self,
        incumbent: &LayerChoice,
        candidates: Vec<Candidate>,
        attempted: usize,
    ) -> ClassWave {
        self.evaluate_class_cancellable(incumbent, candidates, attempted, &CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    /// [`Evaluator::evaluate_class`] with cooperative cancellation: the
    /// token is polled at every **stage boundary** (entry, after the cost
    /// gate, after probe scheduling, i.e. before the expensive Fisher and
    /// autotune fan-outs), so a fired token abandons the wave within one
    /// stage of work. An uncancelled run is byte-identical to
    /// [`Evaluator::evaluate_class`] — the polls are pure control flow.
    ///
    /// # Errors
    /// [`Cancelled`] once the token fires; no partial wave is returned.
    pub fn evaluate_class_cancellable(
        &self,
        incumbent: &LayerChoice,
        candidates: Vec<Candidate>,
        attempted: usize,
        cancel: &CancelToken,
    ) -> Result<ClassWave, Cancelled> {
        cancel.check()?;
        // Stage 1 — structural accounting (invalid sequences never
        // materialised as candidates; the span brackets the bookkeeping).
        let mut stats = {
            let _stage = span("eval_structural");
            SearchStats {
                attempted,
                structurally_invalid: attempted.saturating_sub(candidates.len()),
                ..SearchStats::default()
            }
        };

        // Stage 2 — cost-model gate decisions (cheap analytical estimates),
        // resolved up front so gated candidates never reach the probe
        // scheduler below.
        let incumbent_ms = incumbent.latency_ms;
        let gated: Vec<bool> = {
            let _stage = span("eval_cost_gate");
            match self.cost_gate {
                Some(factor) => candidates
                    .iter()
                    .map(|c| estimate_many(&c.schedules, self.platform) > incumbent_ms * factor)
                    .collect(),
                None => vec![false; candidates.len()],
            }
        };
        cancel.check()?;

        // Probe scheduling: hand the surviving candidates' conv shapes to
        // the batched scheduler, which computes the misses as shape-class
        // GEMM waves, and keep the returned scores for the per-candidate
        // legality decisions below (one memo transaction per wave, so the
        // memo's hit/miss counters measure cross-wave reuse, not this
        // pipeline's own re-reads). Serial waves skip the pre-batch: they
        // exist to pin the per-candidate path.
        let wave_scores: std::collections::HashMap<ConvShape, f64> = {
            let _stage = span("eval_fisher");
            if self.parallel {
                let shapes: Vec<ConvShape> = candidates
                    .iter()
                    .zip(&gated)
                    .filter(|&(_, gated)| !gated)
                    .flat_map(|(c, _)| c.schedules.iter().filter_map(|s| s.nest().conv().copied()))
                    .collect();
                let scores = self.probes.batch_conv_shape_fisher(&shapes, self.tune.seed);
                shapes.into_iter().zip(scores).collect()
            } else {
                std::collections::HashMap::new()
            }
        };
        cancel.check()?;

        let multiplicity = incumbent.multiplicity;
        let class_fisher = incumbent.fisher * multiplicity as f64;
        let layer = incumbent.layer.clone();
        let evaluate = |(candidate, gated): (Candidate, bool)| -> CandidateEval {
            if gated {
                return CandidateEval {
                    label: candidate.label,
                    fisher: 0.0,
                    outcome: EvalOutcome::CostRejected,
                };
            }
            // Stage 3 — Fisher legality. Scores come from this wave's batch
            // (falling back to the memoised per-candidate probe in serial
            // mode); both paths are pure and bit-identical.
            let fisher: f64 = candidate
                .schedules
                .iter()
                .filter_map(|s| s.nest().conv().copied())
                .map(|shape| {
                    wave_scores
                        .get(&shape)
                        .copied()
                        .unwrap_or_else(|| self.probes.conv_shape_fisher(&shape, self.tune.seed))
                })
                .sum();
            if let Some(legality) = self.class_legality {
                if !legality.is_legal(class_fisher, fisher * multiplicity as f64) {
                    return CandidateEval {
                        label: candidate.label,
                        fisher,
                        outcome: EvalOutcome::FisherRejected,
                    };
                }
            }
            // Stage 4 — autotune.
            let choice = self.tune_candidate(&layer, multiplicity, candidate.schedules);
            CandidateEval {
                label: candidate.label,
                fisher,
                outcome: EvalOutcome::Survivor(Box::new(choice)),
            }
        };
        let items: Vec<(Candidate, bool)> = candidates.into_iter().zip(gated).collect();
        // Stage 4 — the per-candidate legality + autotune fan-out, one
        // span around the whole wave.
        let evals = {
            let _stage = span("eval_autotune");
            wave::map_ordered(items, self.parallel, evaluate)
        };

        for eval in &evals {
            match eval.outcome {
                EvalOutcome::CostRejected => stats.cost_rejected += 1,
                EvalOutcome::FisherRejected => stats.fisher_rejected += 1,
                EvalOutcome::Survivor(_) => stats.survivors += 1,
            }
        }
        REJECTED_STRUCTURAL.add(stats.structurally_invalid as u64);
        REJECTED_COST.add(stats.cost_rejected as u64);
        REJECTED_FISHER.add(stats.fisher_rejected as u64);
        SURVIVORS.add(stats.survivors as u64);
        Ok(ClassWave { evals, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_nn::ConvLayer;

    fn incumbent(evaluator: &Evaluator) -> LayerChoice {
        let layer = ConvLayer::new("l", 64, 64, 3, 1, 1, 16, 16);
        evaluator.tune_candidate(&layer, 2, vec![layer.to_schedule()])
    }

    #[test]
    fn stages_account_every_candidate() {
        let platform = Platform::intel_i7();
        let evaluator = Evaluator::new(&platform, TuneOptions { trials: 8, seed: 0 })
            .with_class_legality(FisherLegality { tolerance: 0.35 });
        let inc = incumbent(&evaluator);
        let (cands, attempted) = crate::candidates::enumerate(&inc.layer);
        let wave = evaluator.evaluate_class(&inc, cands, attempted);
        let s = &wave.stats;
        assert_eq!(s.attempted, attempted);
        assert_eq!(
            s.structurally_invalid + s.cost_rejected + s.fisher_rejected + s.survivors,
            s.attempted,
            "every attempt must terminate in exactly one stage: {s:?}"
        );
        assert!(s.survivors > 0);
        assert_eq!(wave.survivors().count(), s.survivors);
    }

    // Forced multi-thread parity lives in `tests/driver_parity.rs` (its
    // own binary, so pinning `PTE_THREADS` cannot race other tests' env
    // reads); this covers the serial/parallel drivers at ambient threads.
    #[test]
    fn serial_wave_is_bit_identical_to_parallel() {
        let platform = Platform::intel_i7();
        let tune = TuneOptions { trials: 8, seed: 0 };
        let par =
            Evaluator::new(&platform, tune).with_class_legality(FisherLegality { tolerance: 0.35 });
        let ser = par.clone().serial();
        let inc = incumbent(&par);
        let (cands, attempted) = crate::candidates::enumerate(&inc.layer);
        let a = par.evaluate_class(&inc, cands.clone(), attempted);
        let b = ser.evaluate_class(&inc, cands, attempted);
        assert_eq!(a.stats, b.stats);
        for (x, y) in a.evals.iter().zip(&b.evals) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.fisher.to_bits(), y.fisher.to_bits());
            match (&x.outcome, &y.outcome) {
                (EvalOutcome::Survivor(cx), EvalOutcome::Survivor(cy)) => {
                    assert_eq!(cx.latency_ms.to_bits(), cy.latency_ms.to_bits());
                }
                (EvalOutcome::FisherRejected, EvalOutcome::FisherRejected)
                | (EvalOutcome::CostRejected, EvalOutcome::CostRejected) => {}
                other => panic!("outcome diverged for `{}`: {other:?}", x.label),
            }
        }
    }

    #[test]
    fn cost_gate_prunes_before_fisher() {
        let platform = Platform::intel_i7();
        let tune = TuneOptions { trials: 8, seed: 0 };
        // A gate no candidate can pass: everything is cost-rejected and the
        // Fisher/autotune stages never run.
        let evaluator = Evaluator::new(&platform, tune)
            .with_class_legality(FisherLegality { tolerance: 0.35 })
            .with_cost_gate(0.0);
        let inc = incumbent(&evaluator);
        let (cands, attempted) = crate::candidates::enumerate(&inc.layer);
        let n = cands.len();
        let wave = evaluator.evaluate_class(&inc, cands, attempted);
        assert_eq!(wave.stats.cost_rejected, n);
        assert_eq!(wave.stats.survivors, 0);
        assert_eq!(wave.stats.fisher_rejected, 0);
    }

    #[test]
    fn fired_token_aborts_the_wave_at_entry() {
        let platform = Platform::intel_i7();
        let evaluator = Evaluator::new(&platform, TuneOptions { trials: 8, seed: 0 })
            .with_class_legality(FisherLegality { tolerance: 0.35 });
        let inc = incumbent(&evaluator);
        let (cands, attempted) = crate::candidates::enumerate(&inc.layer);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            evaluator.evaluate_class_cancellable(&inc, cands, attempted, &token).unwrap_err(),
            Cancelled
        );
    }

    #[test]
    fn select_fastest_never_regresses() {
        let platform = Platform::intel_i7();
        let evaluator = Evaluator::new(&platform, TuneOptions { trials: 8, seed: 0 })
            .with_class_legality(FisherLegality { tolerance: 0.35 });
        let inc = incumbent(&evaluator);
        let (cands, attempted) = crate::candidates::enumerate(&inc.layer);
        let wave = evaluator.evaluate_class(&inc, cands, attempted);
        let mut stats = SearchStats::default();
        let mut ladder = vec![inc.clone()];
        let best = wave.select_fastest(&inc, &mut stats, &mut ladder);
        assert!(best.latency_ms <= inc.latency_ms);
        assert_eq!(ladder.len(), 1 + stats.survivors);
        assert!(stats.improvements >= 1);
    }
}
