//! Candidate transformation sequences for one layer.
//!
//! The unified search samples from three families (§6 "Search"):
//!
//! * the NAS menu — the block substitutions BlockSwap-style NAS would try
//!   (grouping, depthwise, output bottleneck);
//! * derived operators the unified space unlocks — input-channel
//!   bottlenecking (§2.3), spatial bottlenecking (§5.3), and the named
//!   Sequences 1–3 (§7.3);
//! * fully random interleavings of program and neural steps.

use pte_nn::ConvLayer;
use pte_transform::{named, Schedule};

/// One candidate implementation for a layer: its schedules (one, or two for
/// domain-split candidates) plus a label for reporting.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Short description (e.g. `group(4)`, `seq1(g2)`).
    pub label: String,
    /// The transformed schedules.
    pub schedules: Vec<Schedule>,
}

impl Candidate {
    pub(crate) fn single(label: impl Into<String>, schedule: Schedule) -> Self {
        Candidate { label: label.into(), schedules: vec![schedule] }
    }
}

/// Generates the deterministic candidate set for a layer.
///
/// Structurally inapplicable candidates (indivisible factors, missing roles)
/// are silently dropped — they are the paper's "invalid configurations".
/// `total_attempted` (the second return) counts every attempt, so callers can
/// report rejection statistics (§7.2).
pub fn enumerate(layer: &ConvLayer) -> (Vec<Candidate>, usize) {
    let mut out = Vec::new();
    let mut attempted = 0usize;
    let base = || layer.to_schedule();

    // NAS menu: grouping.
    for g in [2i64, 4, 8] {
        attempted += 1;
        let mut s = base();
        if s.group(g).is_ok() {
            out.push(Candidate::single(format!("group({g})"), s));
        }
    }
    // NAS menu: depthwise.
    attempted += 1;
    {
        let mut s = base();
        if s.depthwise().is_ok() {
            out.push(Candidate::single("depthwise", s));
        }
    }
    // NAS menu: output bottleneck.
    for b in [2i64, 4] {
        attempted += 1;
        let mut s = base();
        let co = s.loop_names().first().cloned().unwrap_or_default();
        if s.bottleneck(&co, b).is_ok() {
            out.push(Candidate::single(format!("bottleneck({b})"), s));
        }
    }
    // Unified-only: input-channel bottleneck (§2.3 — interchange first).
    for b in [2i64, 4] {
        attempted += 1;
        let mut s = base();
        let ok = s.nest().roles().ci.is_some() && s.interchange_role_ci_outermost().is_ok() && {
            let ci = s.loop_names().first().cloned().unwrap_or_default();
            s.bottleneck(&ci, b).is_ok()
        };
        if ok {
            out.push(Candidate::single(format!("in-bottleneck({b})"), s));
        }
    }
    // Unified-only: spatial bottleneck (§5.3 composition).
    attempted += 1;
    {
        let mut s = base();
        if named::spatial_bottleneck(&mut s, 2).is_ok() {
            out.push(Candidate::single("spatial-bottleneck(2)", s));
        }
    }
    // Unified-only: named sequences 1 and 2.
    for g in [2i64, 4] {
        attempted += 1;
        let mut s = base();
        if named::sequence_1(&mut s, g).is_ok() {
            out.push(Candidate::single(format!("seq1(g{g})"), s));
        }
        attempted += 1;
        let mut s = base();
        if named::sequence_2(&mut s, g).is_ok() {
            out.push(Candidate::single(format!("seq2(g{g})"), s));
        }
    }
    // Unified-only: sequence 3 (domain split + differential grouping).
    attempted += 1;
    if let Ok((lo, hi)) = named::sequence_3(&base(), 2, 4) {
        out.push(Candidate { label: "seq3(g2/g4)".into(), schedules: vec![lo, hi] });
    }
    (out, attempted)
}

/// Generates `count` random mixed sequences for a layer (the "enumerate
/// random sequences of transformations" part of §6).
///
/// Returns the applied candidates plus the number attempted.
pub fn random(layer: &ConvLayer, count: usize, seed: u64) -> (Vec<Candidate>, usize) {
    use pte_transform::RandomSequenceConfig;
    let config = RandomSequenceConfig {
        max_steps: 6,
        neural_probability: 0.7,
        factors: vec![2, 4, 8],
        allow_gpu: false,
    };
    let mut out = Vec::new();
    for i in 0..count {
        let mut s = layer.to_schedule();
        let steps = pte_transform::sequence::random_sequence(
            &mut s,
            &config,
            seed.wrapping_add(i as u64 * 7477),
        );
        if steps.is_empty() {
            continue;
        }
        let label = steps.iter().map(ToString::to_string).collect::<Vec<_>>().join("->");
        out.push(Candidate::single(label, s));
    }
    let attempted = count;
    (out, attempted)
}

/// Helper extension used by the input-bottleneck candidate.
trait CiOutermost {
    fn interchange_role_ci_outermost(&mut self) -> pte_transform::Result<()>;
}

impl CiOutermost for Schedule {
    fn interchange_role_ci_outermost(&mut self) -> pte_transform::Result<()> {
        let ci = self
            .nest()
            .roles()
            .ci
            .and_then(|id| self.nest().iter_var(id).ok())
            .map(|v| v.name().to_string())
            .ok_or_else(|| pte_transform::TransformError::UnknownLoop { name: "ci".into() })?;
        let mut order = self.loop_names();
        order.retain(|n| n != &ci);
        order.insert(0, ci);
        let refs: Vec<&str> = order.iter().map(String::as_str).collect();
        self.reorder(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        ConvLayer::new("l", 64, 64, 3, 1, 1, 16, 16)
    }

    #[test]
    fn enumerate_covers_nas_and_unified_ops() {
        let (cands, attempted) = enumerate(&layer());
        let labels: Vec<&str> = cands.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"group(2)"));
        assert!(labels.contains(&"depthwise"));
        assert!(labels.contains(&"bottleneck(2)"));
        assert!(labels.contains(&"in-bottleneck(2)"));
        assert!(labels.contains(&"spatial-bottleneck(2)"));
        assert!(labels.iter().any(|l| l.starts_with("seq1")));
        assert!(labels.iter().any(|l| l.starts_with("seq3")));
        assert!(attempted >= cands.len());
    }

    #[test]
    fn one_by_one_layers_skip_spatial_kernel_sequences() {
        // A 1x1 conv on a 4x4 map: sequence 2 needs co divisible by 16·G —
        // still fine at 64 channels; depthwise needs square channels — fine;
        // but spatial bottleneck needs divisible spatial extents.
        let l = ConvLayer::new("p", 48, 48, 1, 1, 0, 5, 5);
        let (cands, _) = enumerate(&l);
        assert!(cands.iter().all(|c| c.label != "spatial-bottleneck(2)"));
        // Yet grouping applies.
        assert!(cands.iter().any(|c| c.label == "group(2)"));
    }

    #[test]
    fn all_candidates_are_capacity_changing() {
        let (cands, _) = enumerate(&layer());
        for c in &cands {
            assert!(
                c.schedules.iter().any(|s| s.changes_capacity()),
                "{} should be neural",
                c.label
            );
        }
    }

    #[test]
    fn random_candidates_deterministic() {
        let (a, _) = random(&layer(), 10, 3);
        let (b, _) = random(&layer(), 10, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
        }
    }
}
