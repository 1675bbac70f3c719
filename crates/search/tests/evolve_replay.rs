//! Corpus replay determinism for the evolutionary search: the same seed and
//! workload must yield a bit-identical corpus trajectory and final plan
//! across repeated runs, for arbitrary seeds, on the worker pool
//! (serial ≡ parallel for every strategy lives in `driver_parity.rs`).
//! Lives in its own binary so pinning `PTE_THREADS` cannot race other
//! tests' env reads.

mod common;

use proptest::prelude::*;

use pte_autotune::TuneOptions;
use pte_machine::Platform;
use pte_nn::{ConvLayer, DatasetKind, Network};
use pte_search::evolve::{optimize, EvolveOptions};
use pte_transform::automaton;
use pte_transform::sequence::{apply_sequence, parse_sequence};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_network() -> Network {
    let convs = vec![
        ConvLayer::new("stem", 3, 16, 3, 1, 1, 8, 8),
        ConvLayer::new("block", 16, 16, 3, 1, 1, 8, 8),
    ];
    Network::new("tiny-evolve", DatasetKind::Cifar10, convs, 16, 7.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + workload => bit-identical final plan and statistics
    /// across two independent runs, for arbitrary seeds.
    #[test]
    fn seeded_runs_replay_bit_identically(seed in 0u64..1_000_000) {
        common::pin_threads();
        let network = tiny_network();
        let platform = Platform::intel_i7();
        let options = EvolveOptions {
            generation_size: 3,
            generations: 2,
            tune: TuneOptions { trials: 8, seed: 0 },
            seed,
            ..EvolveOptions::default()
        };
        let first = optimize(&network, &platform, &options);
        let second = optimize(&network, &platform, &options);
        common::assert_plans_identical("evolve replay", &first.plan, &second.plan);
        prop_assert_eq!(first.stats, second.stats);
    }

    /// A truncated/regrown buffer always re-parses through the textual
    /// grammar: the mutated child's steps serialise to the `->` wire form,
    /// parse back, and rebuild the same schedule from scratch.
    #[test]
    fn mutated_buffers_reparse_through_textual_grammar(
        seed in 0u64..1_000_000,
        attempts in 1usize..8,
    ) {
        let layer = ConvLayer::new("l", 32, 32, 3, 1, 1, 8, 8);
        let base = layer.to_schedule();
        let auto = automaton::compile(&base);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut parent = Vec::new();
        auto.grow(&mut base.clone(), &mut parent, &mut rng, attempts);

        let mut evolved = base.clone();
        let (child, steps) = auto.mutate(&mut evolved, &parent, &mut rng, attempts);

        // The child buffer replays to exactly the steps mutate applied.
        let mut replay = base.clone();
        prop_assert_eq!(&auto.decode(&mut replay, &child), &steps);

        if !steps.is_empty() {
            let text = steps.iter().map(ToString::to_string).collect::<Vec<_>>().join("->");
            let parsed = parse_sequence(&text).unwrap();
            prop_assert_eq!(&parsed, &steps);
            let mut rebuilt = base.clone();
            apply_sequence(&mut rebuilt, &parsed).unwrap();
            prop_assert_eq!(rebuilt.loop_names(), evolved.loop_names());
        }
    }
}
