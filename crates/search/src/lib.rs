//! # pte-search — search drivers over the unified space
//!
//! The approaches the paper compares end to end (§6, Figure 4), plus the
//! FBNet comparison (Figure 7) and model interpolation (Figure 9):
//!
//! * **TVM baseline** — every layer compiled with the autotuned schedule
//!   template ([`NetworkPlan::baseline`] + `pte-autotune`), architecture
//!   untouched.
//! * **NAS baseline ([`blockswap`])** — BlockSwap-style Fisher-guided block
//!   substitution under a parameter budget, then compiled exactly like the
//!   baseline.
//! * **Ours ([`unified`])** — the paper's contribution: random transformation
//!   sequences mixing program and neural steps per layer, filtered by the
//!   Fisher Potential legality check, the survivors autotuned and the best
//!   kept. "Our current search process is relatively naive" (§6) — so is
//!   this one, deliberately.
//!
//! A fifth strategy, [`evolve`], explores by mutating replayable sequence
//! buffers compiled from the transformation grammar.
//!
//! Every approach shares the same cost model, tuner and accuracy surrogate,
//! so comparisons differ only in the space they explore — the paper's
//! central ablation. They also share the *search machinery*: one driver,
//! [`run`], owns the class loop (baseline compile → per-class exploration →
//! network-level Fisher floor) for every [`Strategy`], and every strategy
//! drives its candidates through the staged [`Evaluator`] pipeline
//! ([`eval`]) — structural legality → cost model → Fisher legality (with
//! shape-class batched probes) → autotune. Only the candidate proposals and
//! selection rules differ; [`blockswap`]'s budget-ordered loop is the one
//! strategy that keeps its own.

pub mod blockswap;
pub mod cancel;
pub mod candidates;
mod driver;
pub mod eval;
pub mod evolve;
pub mod fbnet;
pub mod interpolate;
mod plan;
pub mod unified;

pub use cancel::{CancelToken, Cancelled};
pub use driver::{run, SearchCtx, SearchOutcome, Strategy};
pub use eval::{Evaluator, SearchStats};
pub use plan::{LayerChoice, NetworkPlan};
