//! The one search driver every strategy runs through.
//!
//! The paper's framing is a single transformation-exploration loop over
//! layer classes in which approaches differ only in how they propose
//! candidates. [`run`] is that loop, written once: compile the baseline
//! plan, visit every mutable layer class, let the [`Strategy`] explore it
//! through the shared [`Evaluator`], keep each class's tuned legal
//! candidates on a ladder, and finally enforce the network-level Fisher
//! floor over the assembled plan. Each strategy module contributes only its
//! per-class `explore_class` step.
//!
//! How the search runs — on the worker pool or strictly on the calling
//! thread, under which cancellation token — is the [`SearchCtx`], passed
//! once. The serial and parallel contexts produce **bit-identical** plans
//! and statistics: every candidate evaluation is a pure function of the
//! candidate, and every reduction runs sequentially in candidate order over
//! order-preserved results (pinned by `tests/driver_parity.rs`). A token
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
use crate::plan::{enforce_network_legality, ChoiceLadders, NetworkPlan};
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
    /// Fans baseline compilation and candidate evaluation out over the
    /// worker pool; never cancelled.
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
    if !ctx.parallel {
        evaluator = evaluator.serial();
    }

    // The baseline plan: layer classes are independent, so their tuning fans
    // out with the order-preserving reduction. Compiling it is one bounded
    // autotune pass per class, so it stays atomic under cancellation.
    let choices = wave::map_ordered(network.distinct_configs(), ctx.parallel, |layer| {
        let multiplicity = network.config_multiplicity(layer);
        evaluator.tune_candidate(layer, multiplicity, vec![layer.to_schedule()])
    });
    let mut plan = NetworkPlan { network: network.clone(), choices };
    let original_fisher = plan.fisher();
    let mut stats = SearchStats::default();
    let Some((class_legality, network_legality)) = legality else {
        return Ok(SearchOutcome { plan, stats, elapsed: start.elapsed(), original_fisher });
    };

    let evaluator = evaluator.with_class_legality(class_legality);
    let mut ladders: ChoiceLadders = plan.choices.iter().map(|c| vec![c.clone()]).collect();
    for (idx, ladder) in ladders.iter_mut().enumerate() {
        let incumbent = plan.choices[idx].clone();
        if incumbent.layer.mutable {
            // Evaluator, token, running stats and the class ladder.
            let (e, c, s, l) = (&evaluator, &ctx.cancel, &mut stats, ladder);
            plan.choices[idx] = match strategy {
                Strategy::Baseline(_) => incumbent, // returned above; explores nothing
                Strategy::Unified(o) => unified::explore_class(o, idx, &incumbent, e, c, s, l)?,
                Strategy::Evolve(o) => evolve::explore_class(o, idx, &incumbent, e, c, s, l)?,
                Strategy::Fbnet(_) => fbnet::explore_class(&incumbent, e, c, s, l)?,
            };
        }
    }

    // If stacking every per-class winner dropped the network below the
    // legality threshold, step the least valuable winners up their ladders.
    enforce_network_legality(&mut plan, &ladders, original_fisher, &network_legality);
    Ok(SearchOutcome { plan, stats, elapsed: start.elapsed(), original_fisher })
}
