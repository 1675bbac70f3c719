//! End-to-end bit-identity: for a fixed `SearchRequest`, the plan returned
//! over TCP — cold cache, warm cache, and under concurrent duplicate
//! requests — is byte-identical after codec round-trip to the plan a direct
//! in-process unified search produces. This is the serving layer's
//! acceptance contract; perfbench checks the same property on every
//! reply it receives.

use pte_core::machine::Platform;
use pte_core::search::unified;
use pte_serve::client::{Client, ClientError};
use pte_serve::codec::{self, NetworkSpec, PlanPayload, PlatformId, SearchRequest};
use pte_serve::codec_bin;
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
        name: "e2e-net".into(),
        dataset: "cifar10".into(),
        classifier_in: 32,
        base_error: 6.5,
        convs: vec![
            layer("stem", 3, 16, 1, false),
            layer("block1", 16, 16, 1, true),
            layer("block1b", 16, 16, 1, true), // same class as block1: multiplicity 2
            layer("block2", 16, 32, 2, true),  // architecturally grouped
        ],
    }
}

fn request() -> SearchRequest {
    let mut request = SearchRequest::quick(tiny_network(), PlatformId::Cpu);
    request.random_per_layer = 4;
    request.trials = 8;
    request
}

/// The reference bytes: a direct in-process unified search on the resolved
/// request, serialized through the codec — deliberately *not* via
/// `codec::execute`, so the test holds the server to an independent
/// reconstruction of the same plan.
fn direct_in_process_payload(request: &SearchRequest) -> String {
    let network = request.network.resolve().expect("resolve network");
    let platform: Platform = request.platform.resolve();
    let outcome = unified::optimize(&network, &platform, &request.unified_options());
    PlanPayload::from_plan(request, &outcome.plan, &outcome.stats, outcome.original_fisher)
        .encode()
        .expect("encode payload")
}

#[test]
fn served_plans_are_bit_identical_to_in_process_search() {
    let handle = serve(&ServerConfig {
        workers: 4,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    let request = request();
    let expected = direct_in_process_payload(&request);

    // Cold: a miss that runs the search server-side.
    let mut client = Client::connect(addr).expect("connect");
    let cold = client.search(&request).expect("cold search");
    assert!(!cold.cache_hit && !cold.coalesced);
    assert_eq!(cold.payload_canonical, expected, "cold payload diverged from in-process plan");

    // Warm: a pure cache hit, same bytes.
    let warm = client.search(&request).expect("warm search");
    assert!(warm.cache_hit);
    assert_eq!(warm.payload_canonical, expected, "warm payload diverged");
    assert_eq!(warm.request_key, cold.request_key);

    // Decoded payloads compare equal too (codec round-trip preserves the
    // plan, not just its bytes).
    assert_eq!(cold.payload, warm.payload);
    assert_eq!(cold.payload.network, "e2e-net");
    assert_eq!(cold.payload.layers.len(), 3, "4 convs, 3 distinct classes");
    assert_eq!(cold.payload.layers[1].multiplicity, 2);

    // Concurrent duplicates of a NEW request: single-flight collapses them
    // to one search and every reply carries identical bytes.
    let mut fresh = request.clone();
    fresh.seed = 0xBEEF;
    let fresh_expected = direct_in_process_payload(&fresh);
    let misses_before = handle.state().cache_stats().misses;
    let clients = 4;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let fresh = &fresh;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.search(fresh).expect("concurrent search").payload_canonical
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), fresh_expected, "concurrent payload diverged");
        }
    });
    assert_eq!(
        handle.state().cache_stats().misses - misses_before,
        1,
        "concurrent duplicates must collapse to one search"
    );

    handle.join();
}

#[test]
fn baseline_strategy_serves_and_round_trips() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut request = request();
    request.strategy = codec::Strategy::Baseline;

    let network = request.network.resolve().unwrap();
    let platform = request.platform.resolve();
    let plan =
        pte_core::search::NetworkPlan::baseline(&network, &platform, &request.tune_options());
    let expected = PlanPayload::from_plan(
        &request,
        &plan,
        &pte_core::search::SearchStats::default(),
        plan.fisher(),
    )
    .encode()
    .unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.search(&request).unwrap();
    assert_eq!(reply.payload_canonical, expected);
    // Baseline plans may carry tuner-applied *program* steps (tiling,
    // vectorization), but never neural ones — the architecture is untouched
    // (grouped layers lower their architectural grouping outside the log).
    for layer in &reply.payload.layers {
        for step in layer.schedules.iter().flatten() {
            let parsed: pte_core::transform::TransformStep =
                step.parse().expect("grammatical step");
            assert!(!parsed.is_neural(), "baseline plan contains neural step `{step}`");
        }
    }
    handle.join();
}

#[test]
fn malformed_lines_do_not_kill_the_connection() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for bad in [
        "not json at all",
        "{\"op\":\"frobnicate\"}",
        "{\"no_op\":1}",
        "{\"op\":\"search\"}",
        "{\"op\":\"search\",\"request\":{\"v\":1}}",
        "{\"op\":\"search\",\"request\":{\"v\":99}}",
    ] {
        let reply = client.round_trip(bad).expect("connection must survive");
        let doc = pte_serve::json::Json::parse(&reply).expect("error reply parses");
        assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(false), "`{bad}` must error");
    }

    // The connection still works after the error barrage.
    client.ping().expect("ping after errors");

    // Unknown presets are rejected before they become cache entries.
    let mut bad_request = request();
    bad_request.network = NetworkSpec::Preset("vgg16".into());
    let err = client.search(&bad_request).unwrap_err();
    assert!(err.to_string().contains("unknown network preset"), "{err}");
    assert_eq!(handle.state().cache_stats().misses, 0);

    handle.join();
}

#[test]
fn stats_op_exposes_cache_and_probe_counters() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Snapshot the probe memo before any search: the memo is process-wide,
    // so a sibling test's search may already have populated it with this
    // binary's shared tiny-network shapes — only lookup deltas are
    // meaningful (a search always consults the memo, hit or miss).
    let before = client.stats().unwrap();
    let probe_lookups = |doc: &pte_serve::json::Json| {
        let field = |name: &str| {
            doc.get("probe_cache").and_then(|p| p.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
        };
        field("hits") + field("misses")
    };
    let lookups_before = probe_lookups(&before);

    client.search(&request()).unwrap();
    client.search(&request()).unwrap();

    let stats = client.stats().unwrap();
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(cache.get("hits").and_then(|v| v.as_u64()), Some(1));
    assert!(cache.get("hit_rate").and_then(|v| v.as_f64()).is_some());

    // Probe memo health must be observable and must have *moved*: the cold
    // search above ran real probes, each a memo miss.
    let probe = stats.get("probe_cache").expect("probe_cache section");
    for field in ["entries", "capacity", "hits", "misses", "evictions"] {
        assert!(probe.get(field).and_then(|v| v.as_u64()).is_some(), "missing probe {field}");
    }
    assert!(probe.get("hit_rate").and_then(|v| v.as_f64()).is_some());
    assert!(
        probe_lookups(&stats) > lookups_before,
        "a cold search must consult the probe memo: {lookups_before} -> {}",
        probe_lookups(&stats)
    );
    assert!(stats.get("requests").and_then(|v| v.as_u64()).unwrap_or(0) >= 2);
    handle.join();
}

#[test]
fn metrics_op_serves_prometheus_text_over_both_codecs() {
    let handle = serve(&ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    // One miss and one hit, so cache, Evaluator, and grammar-coverage
    // metrics have all moved before the scrape.
    client.search(&request()).unwrap();
    client.search(&request()).unwrap();

    let metrics = client.metrics().expect("metrics op over json");
    assert_eq!(metrics.get("ok").and_then(|v| v.as_bool()), Some(true));
    // The stats fields ride along in the same envelope (one builder serves
    // both ops), including the conservation-law verdict.
    let cache = metrics.get("cache").expect("cache section");
    assert_eq!(
        cache.get("conserved").and_then(|v| v.as_bool()),
        Some(true),
        "cache counters must satisfy hits+misses+coalesced+failures == fetches+peek_hits"
    );
    let page = metrics
        .get("prometheus")
        .and_then(|v| v.as_str())
        .expect("metrics op must embed the Prometheus text page");
    // Every layer of the pipeline must be present on the page: losing a
    // metric name is a scrape-breaking regression, not a cosmetic one.
    for name in [
        // event loop
        "pte_event_loop_wakeups_total",
        "pte_event_loop_poll_iterations_total",
        "pte_connections_busy",
        "pte_connections_idle",
        "pte_queue_depth",
        "pte_requests_inline_total",
        // request plane
        "pte_request_search_us",
        "pte_request_json_us",
        "pte_request_binary_us",
        "pte_shed_total",
        "pte_deadline_total",
        "pte_panic_total",
        // cache + store + stats-derived lines
        "pte_cache_hit_us",
        "pte_cache_miss_us",
        "pte_cache_hits",
        "pte_cache_misses",
        "pte_store_append_bytes_total",
        // Evaluator stages
        "pte_eval_rejected_structural_total",
        "pte_eval_rejected_cost_total",
        "pte_eval_rejected_fisher_total",
        "pte_eval_survivors_total",
        // probe plane
        "pte_probe_memo_lookup_us",
        "pte_probe_wave_size",
        "pte_probe_gemm_macs_total",
        // grammar coverage
        "pte_grammar_coverage_ratio",
    ] {
        assert!(page.contains(name), "metrics page lost `{name}`");
    }

    // The binary codec serves the same document through its own frame kind.
    let mut bin = Client::connect_binary(handle.addr()).unwrap();
    let bin_metrics = bin.metrics().expect("metrics op over binary");
    let bin_page =
        bin_metrics.get("prometheus").and_then(|v| v.as_str()).expect("binary metrics page");
    for name in ["pte_event_loop_wakeups_total", "pte_request_search_us", "pte_cache_hits"] {
        assert!(bin_page.contains(name), "binary metrics page lost `{name}`");
    }
    assert_eq!(
        bin_metrics.get("cache").and_then(|c| c.get("conserved")).and_then(|v| v.as_bool()),
        Some(true)
    );

    // Satellite: the plain `stats` op carries the same conservation verdict.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("cache").and_then(|c| c.get("conserved")).and_then(|v| v.as_bool()),
        Some(true),
        "stats op must expose the cache conservation law"
    );
    handle.join();
}

/// The inline-answer and loop wake-up counters, from one `metrics` page.
fn inline_and_wakeups(client: &mut Client) -> [u64; 2] {
    let metrics = client.metrics().expect("metrics op");
    let page = metrics.get("prometheus").and_then(|p| p.as_str()).expect("prometheus page");
    ["pte_requests_inline_total ", "pte_event_loop_wakeups_total "].map(|name| {
        page.lines()
            .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("`{name}` on the page"))
    })
}

/// Kills the daemon process if the test fails before shutting it down.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn cache_hits_are_answered_on_the_loop_without_waking_it() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    // Its own daemon process: both counters are process-wide, and the
    // daemons of this binary's other tests would move them.
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_pte-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn pte-serve"),
    );
    let mut banner = String::new();
    let mut stdout = std::io::BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .expect("address in the banner")
        .to_string();

    let mut json = Client::connect(&addr).unwrap();
    let mut binary = Client::connect_binary(&addr).unwrap();
    assert!(!json.search(&request()).unwrap().cache_hit, "the first search fills the entry");
    const HITS: u64 = 16;
    for client in [&mut json, &mut binary] {
        let before = inline_and_wakeups(client);
        for _ in 0..HITS {
            assert!(client.search(&request()).unwrap().cache_hit);
        }
        let after = inline_and_wakeups(client);
        let codec = client.codec();
        assert_eq!(after[0] - before[0], HITS, "{codec:?}: every hit is answered on the loop");
        // A `metrics` scrape is a pool job: the first one's completion
        // wakes the loop once, after its page was rendered.
        assert_eq!(after[1] - before[1], 1, "{codec:?}: hits must not wake the loop");
    }
    json.shutdown().expect("shutdown ack");
    assert!(daemon.0.wait().expect("daemon exit").success());
}

#[test]
fn served_evolve_plans_are_bit_identical_to_in_process_search() {
    use pte_core::search::evolve;

    let handle = serve(&ServerConfig::default()).expect("bind ephemeral port");
    let mut request = request();
    request.strategy = codec::Strategy::Evolve;

    // Independent in-process reconstruction of the same evolve plan.
    let network = request.network.resolve().expect("resolve network");
    let platform: Platform = request.platform.resolve();
    let outcome = evolve::optimize(&network, &platform, &request.evolve_options());
    let expected =
        PlanPayload::from_plan(&request, &outcome.plan, &outcome.stats, outcome.original_fisher)
            .encode()
            .expect("encode payload");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let cold = client.search(&request).expect("cold evolve search");
    assert!(!cold.cache_hit);
    assert_eq!(cold.payload_canonical, expected, "served evolve plan diverged from in-process");
    assert_eq!(cold.payload.strategy, codec::Strategy::Evolve);

    // Warm: same bytes, and the evolve request keys a distinct cache entry
    // from the unified request with identical fields.
    let warm = client.search(&request).expect("warm evolve search");
    assert!(warm.cache_hit);
    assert_eq!(warm.payload_canonical, expected);
    handle.join();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    // Every compute stalls briefly, so a search is reliably *in flight*
    // when the shutdown op lands.
    let stalls_entered = Arc::new(AtomicU64::new(0));
    let hook = {
        let stalls_entered = Arc::clone(&stalls_entered);
        Arc::new(move |point: pte_serve::fault::FaultPoint| match point {
            pte_serve::fault::FaultPoint::Compute { .. } => {
                stalls_entered.fetch_add(1, Ordering::SeqCst);
                pte_serve::fault::FaultAction::StallMs(300)
            }
            _ => pte_serve::fault::FaultAction::None,
        })
    };
    let handle =
        serve(&ServerConfig { workers: 4, fault_hook: Some(hook), ..ServerConfig::default() })
            .expect("bind ephemeral port");
    let addr = handle.addr();

    let request = request();
    let expected = direct_in_process_payload(&request);

    // Client A: a search that will still be computing when shutdown lands.
    let in_flight = {
        let request = request.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.search(&request).expect("in-flight search must complete through shutdown")
        })
    };
    while stalls_entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Client B asks for shutdown and gets an acknowledgement.
    let mut control = Client::connect(addr).expect("connect control");
    control.shutdown().expect("shutdown must be acknowledged");

    // Drain contract: the in-flight request completes and its reply is
    // delivered after the shutdown ack.
    let reply = in_flight.join().expect("in-flight client");
    assert!(!reply.cache_hit);
    assert_eq!(reply.payload_canonical, expected, "drained reply diverged");

    handle.join();

    // Once drained, the port is closed: new connections are refused.
    assert!(Client::connect(addr).is_err(), "a drained server must refuse new connections");
}

#[test]
fn truncated_reply_surfaces_as_io_never_a_parse_error() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    // A hand-rolled "server" that reads the request line, answers half a
    // reply with no newline, and hangs up — a reply torn mid-frame.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut stream = stream;
        stream.write_all(b"{\"ok\":true,\"partial").unwrap();
        // Dropping the stream closes it mid-line.
    });

    let mut client = Client::connect(addr).expect("connect");
    let err = client.round_trip("{\"op\":\"ping\"}").expect_err("truncated reply must error");
    match &err {
        pte_serve::client::ClientError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::UnexpectedEof, "{io}");
        }
        other => panic!("truncation must be Io (retryable), got: {other}"),
    }
    assert!(err.is_retryable(), "a torn reply is exactly what a retry heals");
    fake.join().unwrap();

    // Clean close *before* any reply byte is also Io, distinct kind.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        // Reply with nothing at all.
    });
    let mut client = Client::connect(addr).expect("connect");
    let err = client.round_trip("{\"op\":\"ping\"}").expect_err("silent close must error");
    match &err {
        pte_serve::client::ClientError::Io(io) => {
            assert_eq!(io.kind(), std::io::ErrorKind::ConnectionAborted, "{io}");
        }
        other => panic!("silent close must be Io, got: {other}"),
    }
    fake.join().unwrap();
}

#[test]
fn byte_level_protocol_robustness() {
    use std::io::{BufRead, BufReader, Read, Write};

    let handle = serve(&ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // A request split into arbitrary byte chunks (including mid-UTF-8,
    // slower than the 100ms poll interval) must still parse: the server
    // accumulates raw bytes to the newline before validating UTF-8.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let line = "{\"op\":\"ping\"}\n".as_bytes();
        let (a, b) = line.split_at(5);
        stream.write_all(a).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(250));
        stream.write_all(b).unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "split-write ping failed: {reply}");
    }

    // Invalid UTF-8 gets an error reply, not a dead connection.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"\xff\xfe garbage \xff\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("not valid UTF-8"), "{reply}");
    }

    // A newline-less flood is cut off at the line cap: the server answers
    // with an error and closes instead of buffering without bound.
    {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let chunk = vec![b'x'; 1 << 16];
        let mut closed_with_error = false;
        for _ in 0..64 {
            if stream.write_all(&chunk).is_err() {
                closed_with_error = true; // server already hung up
                break;
            }
        }
        let mut reply = String::new();
        match BufReader::new(&stream).read_to_string(&mut reply) {
            Ok(_) => closed_with_error |= reply.contains("exceeds 1 MiB"),
            Err(_) => closed_with_error = true, // reset racing the flood
        }
        assert!(closed_with_error, "oversized line was not rejected: {reply:?}");
    }

    handle.join();
}

#[test]
fn binary_codec_serves_bit_identical_payloads() {
    let handle = serve(&ServerConfig { workers: 2, cache_capacity: 64, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr();

    let request = request();
    let expected = direct_in_process_payload(&request);

    let mut client = Client::connect_binary(addr).expect("connect binary");
    client.ping().expect("binary ping");
    let cold = client.search(&request).expect("binary cold search");
    assert!(!cold.cache_hit && !cold.coalesced);
    assert_eq!(
        cold.payload_canonical, expected,
        "binary-served payload diverged from the in-process plan"
    );

    let warm = client.search(&request).expect("binary warm search");
    assert!(warm.cache_hit);
    assert_eq!(warm.payload_canonical, expected, "binary warm payload diverged");
    assert_eq!(warm.request_key, cold.request_key);

    client.shutdown().expect("binary shutdown ack");
    handle.join();
}

#[test]
fn codecs_share_one_cache_namespace() {
    let handle = serve(&ServerConfig { workers: 2, cache_capacity: 64, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr();
    let request = request();

    // Cold over JSON...
    let mut json_client = Client::connect(addr).expect("connect json");
    let cold = json_client.search(&request).expect("json cold search");
    assert!(!cold.cache_hit);

    // ...is warm over binary: the request key is a content hash of the
    // canonical bytes, independent of which wire format carried them.
    let mut bin_client = Client::connect_binary(addr).expect("connect binary");
    let warm = bin_client.search(&request).expect("binary search of json-cached plan");
    assert!(warm.cache_hit, "a JSON-cached plan must be a binary cache hit");
    assert!(!warm.coalesced);
    assert_eq!(warm.request_key, cold.request_key, "one request, one key, both codecs");
    assert_eq!(
        warm.payload_canonical, cold.payload_canonical,
        "payload bytes must be identical across codecs"
    );

    // And the reverse direction: a binary-cold request is a JSON hit.
    let mut second = request.clone();
    second.seed ^= 0x5EED;
    let bin_cold = bin_client.search(&second).expect("binary cold search");
    assert!(!bin_cold.cache_hit);
    let json_warm = json_client.search(&second).expect("json search of binary-cached plan");
    assert!(json_warm.cache_hit, "a binary-cached plan must be a JSON cache hit");
    assert_eq!(json_warm.payload_canonical, bin_cold.payload_canonical);

    // One cache entry per request regardless of codec: exactly two misses.
    let stats = json_client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache stats");
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(cache.get("entries").and_then(|v| v.as_u64()), Some(2));
    // Both codec counters ticked on this shared daemon.
    assert!(stats.get("codec_json").and_then(|v| v.as_u64()).unwrap_or(0) >= 2);
    assert!(stats.get("codec_binary").and_then(|v| v.as_u64()).unwrap_or(0) >= 2);

    json_client.shutdown().expect("shutdown ack");
    handle.join();
}

#[test]
fn warm_restart_replays_the_plan_log() {
    let store = std::env::temp_dir().join(format!(
        "pte-e2e-restart-{}-{:x}.log",
        std::process::id(),
        0xE2E2u32
    ));
    let _ = std::fs::remove_file(&store);
    let request = request();
    let expected = direct_in_process_payload(&request);

    // Incarnation 1 computes the plan and appends it to the log.
    let first = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(first.addr()).expect("connect");
    let cold = client.search(&request).expect("cold search");
    assert!(!cold.cache_hit);
    assert_eq!(cold.payload_canonical, expected);
    assert_eq!(first.state().store_appends(), 1, "the computed plan must be logged");
    assert_eq!(first.state().store_loaded(), 0, "nothing to replay on a fresh log");
    client.shutdown().expect("shutdown ack");
    first.join();

    // Incarnation 2 boots from the log: its first-ever request is already
    // a cache hit, bit-identical — over either codec.
    let second = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("rebind on the same log");
    assert_eq!(second.state().store_loaded(), 1, "boot must replay the logged plan");
    let mut json_client = Client::connect(second.addr()).expect("connect json");
    let warm = json_client.search(&request).expect("warm-start search");
    assert!(warm.cache_hit, "first post-restart request must hit the warm-started cache");
    assert_eq!(warm.payload_canonical, expected, "warm-start payload bytes diverged");
    let mut bin_client = Client::connect_binary(second.addr()).expect("connect binary");
    let bin_warm = bin_client.search(&request).expect("binary warm-start search");
    assert!(bin_warm.cache_hit);
    assert_eq!(bin_warm.payload_canonical, expected);
    // Warm-start hits answer from the replayed entry without re-appending:
    // a crash-restart loop cannot grow the log by itself.
    assert_eq!(second.state().store_appends(), 0);
    let stats = json_client.stats().expect("stats");
    let store_stats = stats.get("store").expect("store stats");
    assert_eq!(store_stats.get("enabled").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(store_stats.get("loaded").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(store_stats.get("appends").and_then(|v| v.as_u64()), Some(0));
    json_client.shutdown().expect("shutdown ack");
    second.join();
    let _ = std::fs::remove_file(&store);
}

#[test]
fn zero_pending_slots_shed_every_miss_and_serve_hits() {
    let store = std::env::temp_dir().join(format!(
        "pte-e2e-zero-pending-{}-{:x}.log",
        std::process::id(),
        0xE2E3u32
    ));
    let _ = std::fs::remove_file(&store);
    let request = request();

    // Log one plan, so the admission-less daemon has a hit to serve.
    let first = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(first.addr()).expect("connect");
    let cold = client.search(&request).expect("cold search");
    client.shutdown().expect("shutdown ack");
    first.join();

    let handle = serve(&ServerConfig {
        workers: 2,
        max_pending_searches: 0,
        retry_after_ms: 40,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("rebind on the same log");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut miss = request.clone();
    miss.seed = 0x2E50;
    for _ in 0..2 {
        match client.search(&miss).expect_err("a miss must be shed") {
            ClientError::Server { error, retryable, retry_after_ms } => {
                assert_eq!(error, "overloaded");
                assert!(retryable);
                assert_eq!(retry_after_ms, Some(40));
            }
            other => panic!("expected overloaded, got {other}"),
        }
    }
    let hit = client.search(&request).expect("a hit is exempt from admission");
    assert!(hit.cache_hit);
    assert_eq!(hit.payload_canonical, cold.payload_canonical);
    assert_eq!(handle.state().shed(), 2);
    assert_eq!(handle.state().store_appends(), 0, "no search ran");
    client.shutdown().expect("shutdown ack");
    handle.join();
    let _ = std::fs::remove_file(&store);
}

/// One raw binary search over `stream`: the reply frame's body, decoded
/// and verbatim.
fn raw_binary_search(
    stream: &mut std::net::TcpStream,
    request: &SearchRequest,
) -> (codec_bin::BinSearchReply, Vec<u8>) {
    let body = codec_bin::encode_search_request(request, None, false);
    codec_bin::write_frame(stream, codec_bin::kind::SEARCH, &body).expect("send search frame");
    let (kind, reply) = codec_bin::read_frame(stream).expect("read reply frame");
    assert_eq!(kind, codec_bin::kind::REPLY_SEARCH, "expected a search reply frame");
    (codec_bin::decode_search_reply(&reply).expect("decode search reply"), reply)
}

/// Asserts a binary reply carries exactly `encode_payload(parse(json))` by
/// rebuilding the whole reply body around those bytes.
fn assert_packs(reply: &(codec_bin::BinSearchReply, Vec<u8>), json: &str, context: &str) {
    let packed = codec_bin::encode_payload(&PlanPayload::parse(json).expect("parse json payload"))
        .expect("pack payload");
    let (decoded, body) = reply;
    let rebuilt = codec_bin::encode_search_reply(
        decoded.key,
        decoded.hit,
        decoded.coalesced,
        decoded.elapsed_ms,
        &packed,
        None,
    );
    assert!(*body == rebuilt, "{context}: binary payload differs from the packed cached JSON");
}

#[test]
fn binary_hits_serve_the_packed_cached_json() {
    let store = std::env::temp_dir().join(format!(
        "pte-e2e-packed-{}-{:x}.log",
        std::process::id(),
        0xB1B1u32
    ));
    let _ = std::fs::remove_file(&store);
    let first = request();
    let mut second = request();
    second.seed += 1;

    // One entry of capacity, so a second key evicts the first.
    let handle = serve(&ServerConfig {
        workers: 2,
        cache_capacity: 1,
        cache_shards: 1,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut json_client = Client::connect(handle.addr()).expect("connect json");
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect binary");
    let json = json_client.search(&first).expect("cold json search").payload_canonical;

    let hit = raw_binary_search(&mut stream, &first);
    assert!(hit.0.hit);
    assert_packs(&hit, &json, "first binary hit");
    let repeat = raw_binary_search(&mut stream, &first);
    assert!(repeat.0.hit);
    assert_packs(&repeat, &json, "repeat binary hit");

    json_client.search(&second).expect("evicting search");
    assert_eq!(handle.state().cache_stats().evictions, 1, "the second key must evict the first");
    let republished = raw_binary_search(&mut stream, &first);
    assert!(!republished.0.hit, "the evicted entry must be recomputed");
    assert_packs(&republished, &json, "re-published miss");
    let rehit = raw_binary_search(&mut stream, &first);
    assert!(rehit.0.hit);
    assert_packs(&rehit, &json, "hit after re-publishing");
    json_client.shutdown().expect("shutdown ack");
    handle.join();

    // A plan-log-seeded entry packs the same bytes on its first binary hit.
    let restarted = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("rebind on the same log");
    assert!(restarted.state().store_loaded() >= 1);
    let mut stream = std::net::TcpStream::connect(restarted.addr()).expect("connect binary");
    let seeded = raw_binary_search(&mut stream, &first);
    assert!(seeded.0.hit, "the logged plan must be a warm-start hit");
    assert_packs(&seeded, &json, "plan-log-seeded hit");
    drop(stream);
    restarted.join();
    let _ = std::fs::remove_file(&store);
}

#[test]
fn join_with_idle_connections_returns_promptly() {
    // The event loop sleeps in poll(2) with no timeout while every
    // connection is idle (the idle deadline is a minute away): only the
    // wake-up written by shutdown can end that wait.
    let handle = serve(&ServerConfig::default()).expect("bind ephemeral port");
    let parked: Vec<Client> = (0..8)
        .map(|_| {
            let mut client = Client::connect(handle.addr()).expect("connect");
            client.ping().expect("ping");
            client
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let started = std::time::Instant::now();
    handle.join();
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_secs(1), "join took {took:?} with idle connections");
    drop(parked);
}
