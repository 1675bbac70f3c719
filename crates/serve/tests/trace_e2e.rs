//! Traced serving, end to end: a request carrying the op-level
//! `trace: true` field gets its span tree back in the response envelope —
//! root `search` span covering all four Evaluator stages — while the
//! payload bytes and the cache key stay identical to an untraced request.
//! The trace field lives *outside* the canonical request subtree, so
//! tracing a request can never fork its cache entry.
//!
//! The search runs on the worker pool, so its stage spans open on pool
//! threads and join the request's trace through the wave's fork/graft. An
//! externally set `PTE_THREADS` is honoured (CI loops it over several
//! values), otherwise it is pinned to 2 — in its own test binary with a
//! single `#[test]`, where pinning the env var races nothing.

use pte_serve::client::Client;
use pte_serve::codec::{self, NetworkSpec, PlatformId, SearchRequest};
use pte_serve::json::Json;
use pte_serve::server::{serve, ServerConfig};

fn tiny_network() -> NetworkSpec {
    let layer = |name: &str, c_in: u64, c_out: u64, groups: u64, mutable: bool| codec::LayerSpec {
        name: name.into(),
        c_in,
        c_out,
        kernel: 3,
        stride: 1,
        padding: 1,
        groups,
        h: 8,
        w: 8,
        mutable,
    };
    NetworkSpec::Custom {
        name: "trace-net".into(),
        dataset: "cifar10".into(),
        classifier_in: 32,
        base_error: 6.5,
        convs: vec![layer("stem", 3, 16, 1, false), layer("block1", 16, 16, 1, true)],
    }
}

fn request() -> SearchRequest {
    let mut request = SearchRequest::quick(tiny_network(), PlatformId::Cpu);
    request.random_per_layer = 4;
    request.trials = 8;
    request
}

/// Every span name in the tree, depth-first.
fn collect_span_names(node: &Json, out: &mut Vec<String>) {
    if let Some(name) = node.get("name").and_then(|v| v.as_str()) {
        out.push(name.to_string());
    }
    if let Some(children) = node.get("children").and_then(|v| v.as_arr()) {
        for child in children {
            collect_span_names(child, out);
        }
    }
}

fn span_names(trace: &Json) -> Vec<String> {
    let mut names = Vec::new();
    for span in trace.get("spans").and_then(|v| v.as_arr()).expect("trace.spans array") {
        collect_span_names(span, &mut names);
    }
    names
}

const STAGES: [&str; 4] = ["eval_structural", "eval_cost_gate", "eval_fisher", "eval_autotune"];

#[test]
fn traced_requests_return_stage_spans_without_perturbing_payloads() {
    if std::env::var_os("PTE_THREADS").is_none() {
        std::env::set_var("PTE_THREADS", "2");
    }

    let handle = serve(&ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr();
    let request = request();

    // Cold + traced over JSON: the search runs under this request's trace,
    // so the span tree must cover the whole Evaluator pipeline.
    let mut traced = Client::connect(addr).expect("connect traced");
    traced.set_trace(true);
    let cold = traced.search(&request).expect("traced cold search");
    assert!(!cold.cache_hit, "first request must run the search");
    let trace = cold.trace.as_ref().expect("traced request must return a trace");
    let trace_id = trace.get("trace_id").and_then(|v| v.as_str()).expect("trace_id");
    assert_eq!(trace_id.len(), 16, "trace_id is a 16-hex-digit string: {trace_id}");
    let names = span_names(trace);
    assert_eq!(names.first().map(String::as_str), Some("search"), "root span is `search`");
    for stage in STAGES {
        assert!(names.iter().any(|n| n == stage), "span tree lost stage `{stage}`: {names:?}");
    }

    // Untraced duplicate: byte-identical payload, same cache key, and a
    // warm hit — proof the trace field sits outside the canonical request
    // subtree and that tracing observed the search rather than changing it.
    let mut plain = Client::connect(addr).expect("connect plain");
    let warm = plain.search(&request).expect("untraced duplicate");
    assert!(warm.cache_hit, "the traced search must have populated the cache");
    assert!(warm.trace.is_none(), "untraced requests must not carry a trace");
    assert_eq!(warm.request_key, cold.request_key, "tracing must not fork the cache key");
    assert_eq!(
        warm.payload_canonical, cold.payload_canonical,
        "traced and untraced payload bytes diverged"
    );

    // Traced warm hit: still gets a trace (the `search` root span), the
    // stage spans are absent because no search ran.
    let hit = traced.search(&request).expect("traced warm search");
    assert!(hit.cache_hit);
    let hit_names = span_names(hit.trace.as_ref().expect("traced hit returns a trace"));
    assert_eq!(hit_names.first().map(String::as_str), Some("search"));

    // The binary codec carries the same trace through its flags byte and
    // reply tail: cold traced request on a fresh key, all four stages.
    let mut fresh = request.clone();
    fresh.seed ^= 0x7ACE;
    let mut bin = Client::connect_binary(addr).expect("connect binary");
    bin.set_trace(true);
    let bin_cold = bin.search(&fresh).expect("binary traced cold search");
    assert!(!bin_cold.cache_hit);
    let bin_names = span_names(bin_cold.trace.as_ref().expect("binary trace"));
    for stage in STAGES {
        assert!(bin_names.iter().any(|n| n == stage), "binary trace lost `{stage}`");
    }
    let json_warm = plain.search(&fresh).expect("json duplicate of binary-traced search");
    assert!(json_warm.cache_hit);
    assert_eq!(json_warm.payload_canonical, bin_cold.payload_canonical);

    handle.join();
}
