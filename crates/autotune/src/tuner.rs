//! The tuner: evaluate template instances against the cost model.
//!
//! Configurations are applied and cost-estimated on the calling thread and
//! reduced **in grid order** with a strict `<` comparison — so the winner
//! is the first-best configuration, and results are bit-identical however
//! the search around the tuner is scheduled.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::SeedableRng;

use pte_machine::cost::{estimate, CostReport};
use pte_machine::Platform;
use pte_transform::Schedule;

use crate::template::{candidates, CandidateConfig};

/// Tuning options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneOptions {
    /// Maximum number of configurations to evaluate (grid-sampled).
    pub trials: usize,
    /// Sampling seed (configurations beyond the grid are shuffled with it).
    pub seed: u64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions { trials: 64, seed: 0 }
    }
}

/// Result of tuning one nest for one platform.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its cost report.
    pub report: CostReport,
    /// Number of configurations evaluated.
    pub trials_evaluated: usize,
    /// Description of the winning configuration.
    pub best_config: String,
}

/// Tunes `base` for `platform`: applies sampled template configurations and
/// keeps the cheapest under the `pte-machine` cost model.
///
/// The base schedule itself (the "naive" configuration) is always evaluated,
/// so the result is never worse than the input. Neural transformations
/// already applied to `base` are untouched — tuning explores only the
/// semantics-preserving knobs, exactly like TVM auto-tuning a fixed operator.
pub fn tune(base: &Schedule, platform: &Platform, options: &TuneOptions) -> TuneResult {
    let mut grid = candidates(platform);
    // The template contract: the head of every platform grid is the naive
    // configuration (tuning may never regress below the untuned schedule).
    // Assert it instead of blindly `remove(0)`-ing whatever is first.
    assert_eq!(
        grid.first(),
        Some(&CandidateConfig::naive()),
        "template grid for `{}` must lead with the naive configuration",
        platform.name
    );
    // The enumerated grid can repeat configurations (e.g. the all-knobs-off
    // point duplicates the explicit naive head); dedupe so sampled `trials`
    // are never spent re-estimating an identical configuration.
    let mut seen = HashSet::with_capacity(grid.len());
    grid.retain(|config| seen.insert(config.clone()));
    if grid.len() > options.trials {
        let mut rng = rand::rngs::StdRng::seed_from_u64(options.seed);
        let naive = grid.remove(0);
        grid.shuffle(&mut rng);
        grid.truncate(options.trials.saturating_sub(1));
        grid.insert(0, naive);
    }

    let mut best_schedule = base.clone();
    let mut best_report = estimate(base, platform);
    let mut best_config = CandidateConfig::naive().describe();
    let mut evaluated = 1usize;

    // A sweep is a few microseconds of cost-model estimates — far below
    // the cost of a fan-out — so it runs on the calling thread: a pool
    // task when the search fans out over layer classes, the calling
    // thread itself under a serial search. Min-reduction in grid order
    // (first-best wins ties).
    for config in &grid[1..] {
        let mut candidate = base.clone();
        if config.apply(&mut candidate) == 0 {
            continue;
        }
        let report = estimate(&candidate, platform);
        evaluated += 1;
        if report.time_ms < best_report.time_ms {
            best_report = report;
            best_schedule = candidate;
            best_config = config.describe();
        }
    }

    TuneResult {
        schedule: best_schedule,
        report: best_report,
        trials_evaluated: evaluated,
        best_config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_ir::{ConvShape, LoopNest};

    fn base(c: i64, hw: i64) -> Schedule {
        Schedule::new(LoopNest::conv2d(&ConvShape::standard(c, c, 3, hw, hw)))
    }

    #[test]
    fn tuning_never_regresses() {
        for platform in Platform::paper_suite() {
            let b = base(64, 34);
            let naive = estimate(&b, &platform).time_ms;
            let tuned = tune(&b, &platform, &TuneOptions::default());
            assert!(
                tuned.report.time_ms <= naive,
                "{}: tuned {} > naive {}",
                platform.name,
                tuned.report.time_ms,
                naive
            );
        }
    }

    #[test]
    fn cpu_tuning_finds_real_speedup() {
        let b = base(128, 34);
        let naive = estimate(&b, &Platform::intel_i7()).time_ms;
        let tuned = tune(&b, &Platform::intel_i7(), &TuneOptions { trials: 96, seed: 1 });
        assert!(
            tuned.report.time_ms < naive / 4.0,
            "tuned {} vs naive {naive}",
            tuned.report.time_ms
        );
        assert_ne!(tuned.best_config, "naive");
    }

    #[test]
    fn gpu_tuning_binds_axes() {
        let b = base(64, 34);
        let tuned = tune(&b, &Platform::gtx_1080ti(), &TuneOptions::default());
        assert!(tuned.best_config.contains("bind"));
        assert!(tuned.report.occupancy > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let b = base(64, 34);
        let opts = TuneOptions { trials: 16, seed: 9 };
        let a = tune(&b, &Platform::intel_i7(), &opts);
        let c = tune(&b, &Platform::intel_i7(), &opts);
        assert_eq!(a.best_config, c.best_config);
        assert_eq!(a.report.time_ms, c.report.time_ms);
    }

    #[test]
    fn sampled_grid_is_deduplicated() {
        // The raw CPU grid enumerates the all-knobs-off point on top of the
        // explicit naive head: a duplicate the tuner must not spend a trial on.
        let grid = candidates(&Platform::intel_i7());
        let unique: HashSet<CandidateConfig> = grid.iter().cloned().collect();
        assert!(unique.len() < grid.len(), "expected duplicates in the raw grid");
        let b = base(64, 34);
        let tuned = tune(&b, &Platform::intel_i7(), &TuneOptions { trials: usize::MAX, seed: 0 });
        // Some configs fail structural preconditions and are skipped, so the
        // bound is the unique count, never the raw grid size.
        assert!(tuned.trials_evaluated <= unique.len());
    }

    #[test]
    fn tunes_neurally_transformed_nests() {
        let mut b = base(64, 34);
        b.group(4).unwrap();
        let tuned = tune(&b, &Platform::intel_i7(), &TuneOptions::default());
        // Neural structure preserved.
        assert_eq!(tuned.schedule.nest().conv().unwrap().groups, 4);
        assert!(tuned.schedule.changes_capacity());
    }
}
