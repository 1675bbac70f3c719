//! Grammar automaton: the transformation grammar compiled to a flat rule
//! table, plus replayable sequence buffers over it.
//!
//! The textual [`TransformStep`](crate::TransformStep) grammar is what the
//! searches log and replay; this module is its *compiled* form, built for
//! evolutionary exploration. [`compile`] inspects one layer class's baseline
//! schedule and emits a flat table of [`MoveRule`]s — the neural moves whose
//! static preconditions (channel divisibility, square channels) the geometry
//! can satisfy, plus the program-transformation moves, each with a fixed
//! operand arity.
//!
//! Candidates are **sequence buffers**: a `Vec<usize>` of raw tokens. The
//! first token of each step attempt selects a rule (`token % rules.len()`),
//! and the rule's arity consumes that many further tokens as positional loop
//! operands (`token % live-loop-count`). Decoding replays the buffer against
//! a schedule, *applying* each decoded step so later tokens see the loop
//! structure their prefix produced; steps whose runtime preconditions fail
//! are skipped deterministically. Because every rule's token arity is fixed,
//! a prefix always decodes the same way regardless of what follows it — the
//! property that makes truncate-and-regrow mutation replayable:
//!
//! * **replay** — [`GrammarAutomaton::decode`] walks an existing buffer;
//! * **grow** — [`GrammarAutomaton::grow`] walks the buffer and, past its
//!   end, draws fresh tokens from a seeded RNG and appends them (the
//!   replay-prefix / generate-suffix shape);
//! * **mutate** — [`GrammarAutomaton::mutate`] truncates a parent buffer at
//!   a seeded point and regrows the tail.
//!
//! The same seed therefore reproduces the same buffer, the same decoded step
//! sequence, and the same schedule, bit for bit — and every decoded step is
//! an ordinary [`TransformStep`](crate::TransformStep), so compiled and
//! textual grammars cannot drift (pinned by the cross-check tests below).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::Rng;

use crate::{Schedule, TransformStep};

/// Grammar-coverage ledger: per layer class, the bitset of compiled rules
/// that ever fired (applied successfully) during a decode/grow walk.
/// Observation-only — nothing in the automaton reads it back — so the
/// searches stay bit-identical with the ledger present. One mutex lock
/// per decode/grow call (fired indices are batched locally first), on the
/// search driver thread, never the serve event loop.
#[derive(Debug, Clone, PartialEq)]
struct ClassLedger {
    fired: u64,
    rule_count: usize,
}

fn coverage_ledger() -> &'static Mutex<BTreeMap<String, ClassLedger>> {
    static LEDGER: OnceLock<Mutex<BTreeMap<String, ClassLedger>>> = OnceLock::new();
    LEDGER.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Coverage of one layer class's compiled rule table, as exposed on the
/// serve `metrics` page.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassCoverage {
    /// Geometry-derived class key (stable across processes for the same
    /// network, e.g. `conv_c64x64_k3`).
    pub class: String,
    /// Bitset of rule indices that ever fired in decode/grow.
    pub fired: u64,
    /// Size of the compiled rule table.
    pub rule_count: usize,
}

impl ClassCoverage {
    /// Number of distinct rules that ever fired.
    pub fn fired_count(&self) -> usize {
        self.fired.count_ones() as usize
    }

    /// Fired rules over table size; 0 for an empty table.
    pub fn ratio(&self) -> f64 {
        if self.rule_count == 0 {
            0.0
        } else {
            self.fired_count() as f64 / self.rule_count as f64
        }
    }
}

/// Snapshot of every class the process has compiled, sorted by class key.
pub fn coverage_snapshot() -> Vec<ClassCoverage> {
    let ledger = coverage_ledger().lock().expect("coverage ledger poisoned");
    ledger
        .iter()
        .map(|(class, l)| ClassCoverage {
            class: class.clone(),
            fired: l.fired,
            rule_count: l.rule_count,
        })
        .collect()
}

/// Aggregate coverage ratio: total fired rules over total compiled rules
/// across every class seen; 0.0 while no class has been compiled (so the
/// metric is always present, never absent).
pub fn coverage_ratio() -> f64 {
    let snapshot = coverage_snapshot();
    let total: usize = snapshot.iter().map(|c| c.rule_count).sum();
    if total == 0 {
        return 0.0;
    }
    let fired: usize = snapshot.iter().map(|c| c.fired_count()).sum();
    fired as f64 / total as f64
}

/// Raw token space. Tokens are stored un-reduced and interpreted modulo the
/// live bound (rule count or loop count) at decode time, so a stored buffer
/// stays meaningful as the schedule it decodes against evolves.
pub const TOKEN_SPACE: usize = 4096;

/// One compiled move template. `Rule`s with loop operands consume extra
/// buffer tokens (see [`MoveRule::arity`]); the rest are positional
/// (outermost / innermost) or nullary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveRule {
    /// Neural: slice channels into `factor` groups.
    Group {
        /// Group count, statically divides both base channel extents.
        factor: i64,
    },
    /// Neural: depthwise (`G = C_o = C_i`); compiled only for square layers.
    Depthwise,
    /// Neural: bottleneck whatever loop is currently outermost by `factor`.
    /// Composes with [`MoveRule::Interchange`] into the derived operators
    /// (input-channel / spatial bottlenecking) enumeration special-cases.
    Bottleneck {
        /// Reduction factor `B`.
        factor: i64,
    },
    /// Swap two loops; two operand tokens pick them.
    Interchange,
    /// Strip-mine an operand-selected loop.
    Split {
        /// Inner extent.
        factor: i64,
    },
    /// Tile an operand-selected loop.
    Tile {
        /// Tile extent.
        factor: i64,
    },
    /// Fully unroll an operand-selected loop.
    Unroll,
    /// Vectorize the innermost loop.
    Vectorize,
    /// Thread-parallelise the outermost loop.
    Parallel,
}

impl MoveRule {
    /// Number of loop-operand tokens this rule consumes after its selector.
    pub fn arity(&self) -> usize {
        match self {
            MoveRule::Interchange => 2,
            MoveRule::Split { .. } | MoveRule::Tile { .. } | MoveRule::Unroll => 1,
            MoveRule::Group { .. }
            | MoveRule::Depthwise
            | MoveRule::Bottleneck { .. }
            | MoveRule::Vectorize
            | MoveRule::Parallel => 0,
        }
    }
}

/// The compiled grammar for one layer class.
#[derive(Debug, Clone)]
pub struct GrammarAutomaton {
    rules: Vec<MoveRule>,
    /// Coverage-ledger key for the layer class this table was compiled
    /// for (geometry-derived, so identical classes share one entry).
    class_key: String,
}

/// Neural factors the paper's space samples (groups / bottlenecks).
const FACTORS: [i64; 3] = [2, 4, 8];

/// Compiles the legal-transformation grammar for `base`'s layer class.
///
/// Neural rules are emitted only where the base geometry can ever satisfy
/// them (group factors dividing both channel extents, depthwise only for
/// square channels); program rules are always emitted, since their
/// preconditions depend on the evolving loop structure and are re-checked at
/// apply time. The table is deterministic: same schedule, same table.
pub fn compile(base: &Schedule) -> GrammarAutomaton {
    let mut rules = Vec::new();
    let class_key = match base.nest().conv() {
        Some(conv) => {
            format!(
                "conv_c{}x{}_k{}x{}_s{}",
                conv.c_in, conv.c_out, conv.k_h, conv.k_w, conv.stride
            )
        }
        None => "generic".to_string(),
    };
    if let Some(conv) = base.nest().conv() {
        for g in FACTORS {
            if conv.c_out % g == 0 && conv.c_in % g == 0 {
                rules.push(MoveRule::Group { factor: g });
            }
        }
        if conv.c_out == conv.c_in {
            rules.push(MoveRule::Depthwise);
        }
        for b in [2i64, 4] {
            rules.push(MoveRule::Bottleneck { factor: b });
        }
    }
    rules.push(MoveRule::Interchange);
    for f in FACTORS {
        rules.push(MoveRule::Split { factor: f });
        rules.push(MoveRule::Tile { factor: f });
    }
    rules.push(MoveRule::Unroll);
    rules.push(MoveRule::Vectorize);
    rules.push(MoveRule::Parallel);

    // Register the class up front: a class that never fires a rule still
    // shows on the metrics page with ratio 0 (dead search-space regions
    // are exactly what the coverage metric exists to surface).
    let mut ledger = coverage_ledger().lock().expect("coverage ledger poisoned");
    let entry = ledger
        .entry(class_key.clone())
        .or_insert(ClassLedger { fired: 0, rule_count: rules.len() });
    entry.rule_count = entry.rule_count.max(rules.len());
    drop(ledger);

    GrammarAutomaton { rules, class_key }
}

impl GrammarAutomaton {
    /// The compiled rule table, in selector order.
    pub fn rules(&self) -> &[MoveRule] {
        &self.rules
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty (never, for any schedulable nest — the
    /// program rules are unconditional).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The coverage-ledger key this table was compiled under.
    pub fn class_key(&self) -> &str {
        &self.class_key
    }

    /// ORs a walk's locally-batched fired-rule bitset into the ledger.
    fn record_fired(&self, fired: u64) {
        if fired == 0 {
            return;
        }
        let mut ledger = coverage_ledger().lock().expect("coverage ledger poisoned");
        let entry = ledger
            .entry(self.class_key.clone())
            .or_insert(ClassLedger { fired: 0, rule_count: self.rules.len() });
        entry.fired |= fired;
    }

    /// Materialises one step attempt against the *current* schedule state
    /// and applies it. Returns the applied step, or `None` when the rule's
    /// runtime precondition fails (degenerate operands, indivisible factor,
    /// dependence violation) — a deterministic skip, never an error.
    fn attempt(
        &self,
        schedule: &mut Schedule,
        rule: &MoveRule,
        operands: &[usize],
    ) -> Option<TransformStep> {
        let names = schedule.loop_names();
        if names.len() < 2 {
            return None;
        }
        let pick = |slot: usize| names[operands[slot] % names.len()].clone();
        let step = match rule {
            MoveRule::Group { factor } => TransformStep::Group { factor: *factor },
            MoveRule::Depthwise => TransformStep::Depthwise,
            MoveRule::Bottleneck { factor } => {
                TransformStep::Bottleneck { iter: names[0].clone(), factor: *factor }
            }
            MoveRule::Interchange => {
                let (a, b) = (pick(0), pick(1));
                if a == b {
                    return None;
                }
                TransformStep::Interchange(a, b)
            }
            MoveRule::Split { factor } => TransformStep::Split { iter: pick(0), factor: *factor },
            MoveRule::Tile { factor } => TransformStep::Tile { iter: pick(0), factor: *factor },
            MoveRule::Unroll => TransformStep::Unroll(pick(0)),
            MoveRule::Vectorize => TransformStep::Vectorize(names.last()?.clone()),
            MoveRule::Parallel => TransformStep::Parallel(names[0].clone()),
        };
        step.apply(schedule).ok()?;
        Some(step)
    }

    /// Pure replay: decodes `buf` against `schedule`, applying each step.
    /// Stops when the remaining tokens cannot complete an attempt. Returns
    /// the applied steps; precondition-failed attempts are skipped.
    pub fn decode(&self, schedule: &mut Schedule, buf: &[usize]) -> Vec<TransformStep> {
        let mut applied = Vec::new();
        let mut cursor = 0usize;
        let mut fired = 0u64;
        while cursor < buf.len() && !self.rules.is_empty() {
            let index = buf[cursor] % self.rules.len();
            let rule = &self.rules[index];
            let arity = rule.arity();
            if cursor + 1 + arity > buf.len() {
                break; // trailing partial attempt: ignored, keeps prefixes aligned
            }
            let operands = &buf[cursor + 1..cursor + 1 + arity];
            if let Some(step) = self.attempt(schedule, rule, operands) {
                applied.push(step);
                fired |= 1u64 << index.min(63);
            }
            cursor += 1 + arity;
        }
        self.record_fired(fired);
        applied
    }

    /// Replay-prefix / generate-suffix walk: runs `attempts` step attempts,
    /// reading tokens from `buf` while they last and drawing fresh ones from
    /// `rng` (appending them to `buf`) once past the end. Returns the
    /// applied steps. `decode(buf)` afterwards reproduces exactly the same
    /// steps — the buffer *is* the candidate.
    pub fn grow(
        &self,
        schedule: &mut Schedule,
        buf: &mut Vec<usize>,
        rng: &mut StdRng,
        attempts: usize,
    ) -> Vec<TransformStep> {
        let mut applied = Vec::new();
        let mut cursor = 0usize;
        if self.rules.is_empty() {
            return applied;
        }
        let next = |buf: &mut Vec<usize>, cursor: &mut usize, rng: &mut StdRng| -> usize {
            let token = if *cursor < buf.len() {
                buf[*cursor]
            } else {
                let t = rng.random_range(0..TOKEN_SPACE);
                buf.push(t);
                t
            };
            *cursor += 1;
            token
        };
        let mut fired = 0u64;
        for _ in 0..attempts {
            let selector = next(buf, &mut cursor, rng);
            let index = selector % self.rules.len();
            let rule = self.rules[index].clone();
            let operands: Vec<usize> =
                (0..rule.arity()).map(|_| next(buf, &mut cursor, rng)).collect();
            if let Some(step) = self.attempt(schedule, &rule, &operands) {
                applied.push(step);
                fired |= 1u64 << index.min(63);
            }
        }
        self.record_fired(fired);
        applied
    }

    /// Truncate-and-regrow mutation: keeps a seeded random prefix of
    /// `parent` (possibly empty, possibly all of it) and regrows the tail
    /// with fresh tokens up to `attempts` step attempts, decoding against
    /// `schedule` as it goes. Returns the child buffer and its applied
    /// steps. Deterministic for a given `(parent, rng state)`.
    pub fn mutate(
        &self,
        schedule: &mut Schedule,
        parent: &[usize],
        rng: &mut StdRng,
        attempts: usize,
    ) -> (Vec<usize>, Vec<TransformStep>) {
        let cut = if parent.is_empty() { 0 } else { rng.random_range(0..parent.len()) };
        let mut child: Vec<usize> = parent[..cut].to_vec();
        let steps = self.grow(schedule, &mut child, rng, attempts);
        (child, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_ir::{ConvShape, LoopNest};
    use rand::SeedableRng;

    fn sched() -> Schedule {
        Schedule::new(LoopNest::conv2d(&ConvShape::standard(64, 64, 3, 16, 16)))
    }

    #[test]
    fn compile_filters_neural_rules_by_geometry() {
        let auto = compile(&sched());
        assert!(auto.rules().contains(&MoveRule::Group { factor: 8 }));
        assert!(auto.rules().contains(&MoveRule::Depthwise));

        // 48 in / 80 out: 8 divides neither pair jointly beyond 2/4/8 checks,
        // and channels are not square.
        let odd = Schedule::new(LoopNest::conv2d(&ConvShape::standard(48, 80, 3, 16, 16)));
        let auto = compile(&odd);
        assert!(auto.rules().contains(&MoveRule::Group { factor: 2 }));
        assert!(!auto.rules().contains(&MoveRule::Group { factor: 32 }));
        assert!(!auto.rules().contains(&MoveRule::Depthwise));
    }

    #[test]
    fn grow_then_decode_replays_identically() {
        let auto = compile(&sched());
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = Vec::new();
            let mut grown = sched();
            let steps = auto.grow(&mut grown, &mut buf, &mut rng, 6);

            let mut replayed = sched();
            let replay_steps = auto.decode(&mut replayed, &buf);
            assert_eq!(steps, replay_steps, "seed {seed}");
            assert_eq!(grown.loop_names(), replayed.loop_names(), "seed {seed}");
        }
    }

    #[test]
    fn same_seed_same_buffer() {
        let auto = compile(&sched());
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = Vec::new();
            auto.grow(&mut sched(), &mut buf, &mut rng, 6);
            buf
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "distinct seeds should explore differently");
    }

    #[test]
    fn mutated_children_replay_deterministically() {
        let auto = compile(&sched());
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut parent = Vec::new();
            auto.grow(&mut sched(), &mut parent, &mut rng, 6);

            // Same parent + same mutation seed => same child, and the child
            // buffer replays to exactly the steps mutate reported.
            let mutate_once = || {
                let mut mrng = StdRng::seed_from_u64(seed ^ 0xDEAD);
                auto.mutate(&mut sched(), &parent, &mut mrng, 6)
            };
            let (child, child_steps) = mutate_once();
            assert_eq!((child.clone(), child_steps.clone()), mutate_once(), "seed {seed}");

            let mut replay = sched();
            assert_eq!(auto.decode(&mut replay, &child), child_steps, "seed {seed}");
        }
    }

    #[test]
    fn every_decoded_step_round_trips_the_textual_grammar() {
        // The automaton-vs-FromStr cross-check: any step the compiled
        // grammar emits must survive Display -> FromStr unchanged, so the
        // compiled and textual grammars cannot drift.
        let auto = compile(&sched());
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = Vec::new();
            let steps = auto.grow(&mut sched(), &mut buf, &mut rng, 8);
            for step in &steps {
                let text = step.to_string();
                let parsed: TransformStep =
                    text.parse().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert_eq!(&parsed, step, "round-trip of `{text}`");
            }
            // And the whole sequence survives the `->` wire format.
            if !steps.is_empty() {
                let label = steps.iter().map(ToString::to_string).collect::<Vec<_>>().join("->");
                let parsed = crate::sequence::parse_sequence(&label).unwrap();
                assert_eq!(parsed, steps);
            }
        }
    }

    #[test]
    fn every_rule_is_reachable_and_round_trips() {
        // Exhaustive per-rule check: drive each rule directly with a crafted
        // buffer and verify any step it produces round-trips textually.
        let auto = compile(&sched());
        for (idx, rule) in auto.rules().iter().enumerate() {
            let mut buf = vec![idx];
            // Operand tokens sweep a few positions to get past degenerate
            // picks (e.g. interchange of a loop with itself).
            for op in 0..rule.arity() {
                buf.push(op + 1);
            }
            let mut s = sched();
            let steps = auto.decode(&mut s, &buf);
            for step in steps {
                let text = step.to_string();
                let parsed: TransformStep = text.parse().unwrap();
                assert_eq!(parsed, step, "rule {rule:?} emitted `{text}`");
            }
        }
    }

    #[test]
    fn coverage_ledger_tracks_fired_rules_per_class() {
        // A geometry no other test compiles, so the ledger entry is ours
        // alone (the ledger is process-global and tests run in parallel).
        let base = Schedule::new(LoopNest::conv2d(&ConvShape::standard(24, 40, 5, 8, 8)));
        let auto = compile(&base);
        let key = auto.class_key().to_string();
        assert_eq!(key, "conv_c24x40_k5x5_s1");

        // Compiling alone registers the class with zero fired rules.
        let entry = |snapshot: &[ClassCoverage]| {
            snapshot.iter().find(|c| c.class == key).cloned().expect("class registered")
        };
        let before = entry(&coverage_snapshot());
        assert_eq!(before.rule_count, auto.len());

        // Grow until something fires, then the ledger must reflect it.
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = Vec::new();
        let mut schedule = base.clone();
        let steps = auto.grow(&mut schedule, &mut buf, &mut rng, 8);
        assert!(!steps.is_empty(), "seeded grow should apply at least one step");
        let after = entry(&coverage_snapshot());
        assert!(after.fired_count() >= 1);
        assert!(after.fired_count() <= after.rule_count);
        assert!(after.ratio() > 0.0 && after.ratio() <= 1.0);
        assert!(coverage_ratio() > 0.0);

        // Replaying the same buffer fires the same rules: idempotent OR.
        let mut replay = base.clone();
        auto.decode(&mut replay, &buf);
        assert_eq!(entry(&coverage_snapshot()).fired, after.fired);
    }

    #[test]
    fn decoded_sequences_reapply_through_the_textual_grammar() {
        // A buffer's step sequence, serialised and re-parsed, must rebuild
        // the same schedule from scratch.
        let auto = compile(&sched());
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = Vec::new();
            let mut evolved = sched();
            let steps = auto.grow(&mut evolved, &mut buf, &mut rng, 6);
            if steps.is_empty() {
                continue;
            }
            let label = steps.iter().map(ToString::to_string).collect::<Vec<_>>().join("->");
            let parsed = crate::sequence::parse_sequence(&label).unwrap();
            let mut rebuilt = sched();
            crate::sequence::apply_sequence(&mut rebuilt, &parsed).unwrap();
            assert_eq!(rebuilt.loop_names(), evolved.loop_names(), "seed {seed}");
        }
    }
}
