//! The one search driver every strategy runs through.
//!
//! The paper's framing is a single transformation-exploration loop over
//! layer classes in which approaches differ only in how they propose
//! candidates. [`run`] is that loop, written once: one task per layer
//! class compiles the class's baseline choice and, for a mutable class,
//! lets the [`Strategy`] explore it through the shared [`Evaluator`],
//! keeping the class's tuned legal candidates on a ladder. The tasks are
//! folded in class order into the plan, and the network-level Fisher floor
//! is enforced over the assembled plan. Each strategy module contributes
//! only its per-class `explore_class` step.
//!
//! How the search runs — class tasks on the worker pool or strictly on the
//! calling thread, under which cancellation token — is the [`SearchCtx`],
//! passed once. On the pool, a class's nested waves (candidate fan-out,
//! probe shape classes) run inline on its worker. The serial and parallel
//! contexts produce **bit-identical** plans and statistics: every candidate
//! evaluation is a pure function of the candidate, and every reduction runs
//! sequentially in class and candidate order over order-preserved results
//! (pinned by `tests/driver_parity.rs`). A token
//! that never fires is invisible: its polls are pure control flow and touch
//! no numeric path.

use std::time::{Duration, Instant};

use pte_autotune::{wave, TuneOptions};
use pte_machine::Platform;
use pte_nn::Network;

use crate::cancel::{CancelToken, Cancelled};
use crate::eval::{Evaluator, SearchStats};
use crate::evolve::{self, EvolveOptions};
use crate::fbnet::{self, FbnetOptions};
use crate::plan::{enforce_network_legality, ChoiceLadders, LayerChoice, NetworkPlan};
use crate::unified::{self, UnifiedOptions};

/// How a search runs: worker-pool fan-out or the calling thread only, and
/// the cooperative [`CancelToken`] polled between waves and at the
/// [`Evaluator`]'s stage boundaries.
#[derive(Debug, Clone)]
pub struct SearchCtx {
    parallel: bool,
    cancel: CancelToken,
}

impl SearchCtx {
    /// Fans the layer classes (baseline compilation and exploration) out
    /// over the worker pool; never cancelled.
    pub fn parallel() -> Self {
        SearchCtx { parallel: true, cancel: CancelToken::never() }
    }

    /// Runs the whole search strictly on the calling thread — the reference
    /// the parallel context is bit-identical to, and the speedup baseline.
    pub fn serial() -> Self {
        SearchCtx { parallel: false, ..SearchCtx::parallel() }
    }

    /// Polls `cancel`: once it fires, [`run`] abandons the search within one
    /// stage of work and returns [`Cancelled`] with no partial plan.
    pub fn with_cancel(self, cancel: CancelToken) -> Self {
        SearchCtx { cancel, ..self }
    }
}

impl Default for SearchCtx {
    fn default() -> Self {
        SearchCtx::parallel()
    }
}

/// The search approaches, each with its options.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// The TVM baseline: every layer class autotuned, architecture untouched.
    Baseline(TuneOptions),
    /// The unified search (paper §6, "Ours"): deterministic menu plus
    /// seeded random transformation sequences.
    Unified(UnifiedOptions),
    /// Grammar-compiled evolutionary search over sequence buffers.
    Evolve(EvolveOptions),
    /// FBNet-style latency-optimal selection from the BlockSwap menu (§7.5).
    Fbnet(FbnetOptions),
}

/// Outcome of a search on one network/platform pair.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The optimized implementation plan.
    pub plan: NetworkPlan,
    /// Search statistics (all zero for the baseline).
    pub stats: SearchStats,
    /// Wall-clock search time.
    pub elapsed: Duration,
    /// Fisher Potential of the original network.
    pub original_fisher: f64,
}

/// One layer class's share of a search, folded by [`run`] in class order.
/// The ladder's first rung is the class's baseline choice.
struct ClassOutcome {
    winner: LayerChoice,
    ladder: Vec<LayerChoice>,
    stats: SearchStats,
}

/// Runs `strategy` on `network` for `platform` under `ctx`.
///
/// # Errors
/// [`Cancelled`] once the context's token fires.
pub fn run(
    network: &Network,
    platform: &Platform,
    strategy: &Strategy,
    ctx: &SearchCtx,
) -> Result<SearchOutcome, Cancelled> {
    let start = Instant::now();
    ctx.cancel.check()?;
    let (tune, legality) = match strategy {
        Strategy::Baseline(tune) => (*tune, None),
        Strategy::Unified(o) => (o.tune, Some((o.class_legality, o.network_legality))),
        Strategy::Evolve(o) => (o.tune, Some((o.class_legality, o.network_legality))),
        Strategy::Fbnet(o) => (o.tune, Some((o.legality, o.network_legality))),
    };
    let mut evaluator = Evaluator::new(platform, tune);
    if let Some((class_legality, _)) = legality {
        evaluator = evaluator.with_class_legality(class_legality);
    }
    if !ctx.parallel {
        evaluator = evaluator.serial();
    }

    // One task per layer class — classes are independent: compile its
    // baseline choice (one bounded autotune pass, atomic under
    // cancellation), then let the strategy explore it with a task-local
    // ladder and statistics. The nested waves run inline on the class's
    // worker, so the pool stays busy across classes rather than within
    // one class's small waves. Each task probes through its own evaluator
    // clone, whose probe-stream scope draws the layer's random streams once
    // (at the baseline probe) and is dropped when the task returns.
    let classes: Vec<_> = network.distinct_configs().into_iter().enumerate().collect();
    let per_class = wave::map_ordered(classes, ctx.parallel, |(idx, layer)| {
        ctx.cancel.check()?;
        let evaluator = evaluator.clone();
        let multiplicity = network.config_multiplicity(layer);
        let baseline = evaluator.tune_candidate(layer, multiplicity, vec![layer.to_schedule()]);
        let mut ladder = vec![baseline.clone()];
        let mut stats = SearchStats::default();
        let (e, c, s, l) = (&evaluator, &ctx.cancel, &mut stats, &mut ladder);
        let winner = match strategy {
            Strategy::Unified(o) if layer.mutable => {
                unified::explore_class(o, idx, &baseline, e, c, s, l)?
            }
            Strategy::Evolve(o) if layer.mutable => {
                evolve::explore_class(o, idx, &baseline, e, c, s, l)?
            }
            Strategy::Fbnet(_) if layer.mutable => fbnet::explore_class(&baseline, e, c, s, l)?,
            _ => baseline,
        };
        Ok(ClassOutcome { winner, ladder, stats })
    });

    // Fold in class order: the first cancellation wins, then baseline
    // choices (the original Fisher), winners, ladders and statistics.
    let per_class = per_class.into_iter().collect::<Result<Vec<_>, Cancelled>>()?;
    let baseline = per_class.iter().map(|c| c.ladder[0].clone()).collect();
    let mut plan = NetworkPlan { network: network.clone(), choices: baseline };
    let original_fisher = plan.fisher();
    let mut stats = SearchStats::default();
    let Some((_, network_legality)) = legality else {
        return Ok(SearchOutcome { plan, stats, elapsed: start.elapsed(), original_fisher });
    };
    let mut ladders: ChoiceLadders = Vec::with_capacity(per_class.len());
    for (choice, class) in plan.choices.iter_mut().zip(per_class) {
        *choice = class.winner;
        ladders.push(class.ladder);
        stats.merge(&class.stats);
    }

    // If stacking every per-class winner dropped the network below the
    // legality threshold, step the least valuable winners up their ladders.
    enforce_network_legality(&mut plan, &ladders, original_fisher, &network_legality);
    Ok(SearchOutcome { plan, stats, elapsed: start.elapsed(), original_fisher })
}
