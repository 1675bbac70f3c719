//! The shared serving workload.
//!
//! perfbench's request generator, the `wire_golden` fixtures, the chaos
//! suites and the codec unit tests all send this network at this budget.
//! The golden bytes and the benchmark's cache keys depend on every field,
//! so it lives here once and must not drift.

use crate::codec::{LayerSpec, NetworkSpec, PlatformId, SearchRequest};

/// A small custom network: large enough to exercise the full evaluation
/// pipeline (fixed stem + two mutable classes), small enough that a cold
/// search is a sub-second unit of load.
pub fn bench_network() -> NetworkSpec {
    let layer = |name: &str, c_in: u64, c_out: u64, mutable: bool| LayerSpec {
        name: name.into(),
        c_in,
        c_out,
        kernel: 3,
        stride: 1,
        padding: 1,
        groups: 1,
        h: 8,
        w: 8,
        mutable,
    };
    NetworkSpec::Custom {
        name: "serve-bench-net".into(),
        dataset: "cifar10".into(),
        classifier_in: 32,
        base_error: 7.0,
        convs: vec![
            layer("stem", 3, 16, false),
            layer("block1", 16, 16, true),
            layer("block2", 16, 32, true),
        ],
    }
}

/// A quick-budget unified request over [`bench_network`], parameterised by
/// the master seed so load phases can generate distinct cache keys.
pub fn bench_request(seed: u64) -> SearchRequest {
    let mut request = SearchRequest::quick(bench_network(), PlatformId::Cpu);
    request.random_per_layer = 4;
    request.trials = 8;
    request.seed = seed;
    request
}
