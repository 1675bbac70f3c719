//! # pte-fisher — Fisher Potential as a transformation legality check
//!
//! The paper's key enabler (§5.2): neural transformations break program
//! semantics, so their legality is judged by **representational capacity**
//! instead of data dependences. Fisher Potential is the capacity measure — a
//! cheap, training-free score computed from one labelled minibatch at
//! initialization:
//!
//! * Eq. 4: `Δ_c = 1/(2N) · Σ_n (Σ_ij A_nij · g_nij)²` per channel
//!   ([`channel_delta`]), where `A` is a channel's activation and `g` the
//!   loss gradient with respect to it;
//! * Eq. 5: `Δ_l = Σ_c Δ_c` per layer ([`layer_delta`]);
//! * the network score is the sum over layers, and "for an original network
//!   and a proposed alternative architecture, we reject the proposal if its
//!   score is below that of the original" ([`FisherLegality`]).
//!
//! Activations and gradients are computed **numerically** through
//! `pte-tensor`'s forward/backward ops — this part is not surrogate. Two
//! evaluation paths exist:
//!
//! * [`proxy`] — per-layer proxy scoring for large networks: each convolution
//!   variant is embedded in a small conv→BN→ReLU→pool→linear→cross-entropy
//!   probe at reduced channel width/resolution (BlockSwap-style per-block
//!   scoring at init; the substitution is documented in DESIGN.md). Scores
//!   are memoised in a bounded process-wide cache (and, for incremental
//!   callers, by layer signature in [`FisherScorer`]) — which is why the
//!   paper's 1000-candidate search finishes in minutes. Evaluation waves
//!   batch their probes by shape class through `proxy::probe_wave`
//!   (one lowering + multi-image GEMMs per class, bit-identical to
//!   per-candidate probing), slicing random streams a
//!   `proxy::ProbeStreams` scope draws once per layer and ungrouped conv
//!   products it computes once per shape class.
//! * [`cellnet`] — exact DAG computation for NAS-Bench-201 cells (Figure 3),
//!   with full forward/backward through the cell graph.
//!
//! ## Example
//!
//! ```
//! use pte_fisher::FisherScorer;
//! use pte_ir::ConvShape;
//!
//! let mut scorer = FisherScorer::new(0xF15_4E2);
//! let full = scorer.conv_shape_score(&ConvShape::standard(32, 32, 3, 10, 10));
//! let mut tiny = ConvShape::standard(32, 32, 3, 10, 10);
//! tiny.c_out = 2; // a brutal 16x bottleneck
//! let crushed = scorer.conv_shape_score(&tiny);
//! assert!(crushed < full);
//! ```

pub mod cellnet;
pub mod naswot;
pub mod proxy;
mod score;
mod scorer;

pub use naswot::{CapacityMetric, FisherMetric, NaswotMetric};
pub use score::{channel_delta, layer_delta};
pub use scorer::{FisherLegality, FisherScorer};
