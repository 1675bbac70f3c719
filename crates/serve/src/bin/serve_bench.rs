//! `serve_bench` — closed-loop multi-client load generator for `pte-serve`.
//!
//! Starts the daemon on an ephemeral port in-process (the same [`serve`]
//! entry point the `pte-serve` bin uses), then drives it with closed-loop
//! client threads over real TCP sockets:
//!
//! 1. **cold** — distinct requests (seed-varied), every one a cache miss
//!    running a full search;
//! 2. **warm** — the same requests replayed from every client, all cache
//!    hits: the serving layer's steady-state throughput;
//! 3. **collapse** — all clients fire one *new* identical request
//!    simultaneously; single-flight must run one search total.
//!
//! Every payload is checked byte-identical to a direct in-process search.
//! Each load phase reports p50/p95/p99/max per-request latency alongside
//! its closed-loop throughput (a mean smears stragglers; the tail is what
//! a client actually experiences). Latencies are recorded into per-client
//! `pte-telemetry` histograms merged across the fleet — the same
//! log-bucketed structure the daemon itself exposes over its `metrics`
//! op, with exact count conservation and ≤1/16 relative error on the
//! quantiles — and the run ends with plan-cache and probe-memo health
//! lines.
//!
//! `--codec json|binary` selects the wire format for every mode (the
//! daemon auto-detects per connection; both codecs share one cache
//! namespace). `--connections N` opens N idle keep-alive connections
//! around the load phases and asserts the daemon's thread count stays flat
//! — idle connections cost zero threads under the event loop.
//!
//! CI legs: `--smoke` (duplicate request pair through one client, exactly
//! one cache hit, bit-identical payloads, clean shutdown; under
//! `--codec binary` it additionally asserts the packed payload is ≤ 1/4 of
//! the canonical JSON bytes), `--overload` (a stalled compute pins the
//! single admission slot; a second cold search is shed with `overloaded`
//! while cache hits keep serving), `--restart` (search, drain, restart
//! on the same plan log, assert the first request is a warm-start cache
//! hit with bit-identical bytes), and `--metrics` (traced and untraced
//! duplicates stay bit-identical, then the `metrics` op is scraped and
//! every required metric name must be on the Prometheus page).
//! `--router` boots a three-daemon fleet behind `pte-route`, drives
//! cold/warm load through the router, kills one daemon mid-run, and
//! asserts every key keeps serving bit-identical payloads via failover
//! with the router conservation law intact.
//! `PTE_QUICK=1` trims load-phase volumes.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pte_serve::client::{Client, ClientCodec, ClientError};
use pte_serve::codec;
use pte_serve::codec_bin;
use pte_serve::fault::{FaultAction, FaultPoint};
use pte_serve::server::{serve, ServerConfig, ServerHandle};
use pte_serve::workload::bench_request;
use pte_telemetry::Histogram;

fn quick_mode() -> bool {
    std::env::var("PTE_QUICK").map(|v| v == "1").unwrap_or(false)
}

fn start_server(workers: usize) -> ServerHandle {
    let config = ServerConfig { workers, cache_capacity: 1024, ..ServerConfig::default() };
    serve(&config).expect("bind ephemeral port")
}

fn connect(addr: std::net::SocketAddr, codec: ClientCodec) -> Client {
    Client::connect_with(addr, codec).expect("connect")
}

fn codec_name(codec: ClientCodec) -> &'static str {
    match codec {
        ClientCodec::Json => "json",
        ClientCodec::Binary => "binary",
    }
}

/// This process's thread count (`/proc/self/status`), or `None` off-Linux.
/// The event-loop claim under test: connections are not threads.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

/// The CI smoke: daemon up, duplicate request pair, one cache hit,
/// bit-identical payloads, graceful shutdown. Over the binary codec it
/// also pins the payload packing ratio the codec was built for.
fn smoke(codec: ClientCodec) {
    let handle = start_server(2);
    let addr = handle.addr();
    println!("serve_bench --smoke: daemon on {addr} ({} codec)", codec_name(codec));

    let request = bench_request(1);
    let expected = codec::execute(&request).expect("in-process search");

    let mut client = connect(addr, codec);
    client.ping().expect("ping");
    let cold = client.search(&request).expect("cold search");
    let warm = client.search(&request).expect("warm search");
    assert!(!cold.cache_hit, "first request must miss");
    assert!(warm.cache_hit, "duplicate request must hit");
    assert_eq!(cold.request_key, warm.request_key);
    assert_eq!(
        cold.payload_canonical, warm.payload_canonical,
        "cold and warm payload bytes diverged"
    );
    assert_eq!(
        cold.payload_canonical, expected,
        "served payload diverged from the in-process search"
    );

    if codec == ClientCodec::Binary {
        let packed = codec_bin::encode_payload(&cold.payload).expect("pack payload");
        assert!(
            packed.len() * 4 <= expected.len(),
            "binary payload must pack to <= 1/4 of canonical JSON: {} vs {} bytes",
            packed.len(),
            expected.len()
        );
        println!(
            "serve_bench --smoke: binary payload {} bytes vs {} canonical JSON ({:.1}x smaller)",
            packed.len(),
            expected.len(),
            expected.len() as f64 / packed.len() as f64
        );
    }

    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache stats");
    assert_eq!(cache.get("hits").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(1));
    let counter = match codec {
        ClientCodec::Json => "codec_json",
        ClientCodec::Binary => "codec_binary",
    };
    assert!(
        stats.get(counter).and_then(|v| v.as_u64()).unwrap_or(0) >= 3,
        "stats must count requests under the `{counter}` codec counter"
    );

    // The daemon runs in-process, so its telemetry registry is ours: the
    // search-latency histogram must have recorded exactly the two search
    // requests this smoke issued — count conservation, end to end.
    let search_us = pte_telemetry::global().histogram("pte_request_search_us");
    assert_eq!(
        search_us.count(),
        2,
        "pte_request_search_us must count exactly the requests issued"
    );

    client.shutdown().expect("shutdown ack");
    handle.join();
    println!("serve_bench --smoke: 1 hit / 1 miss, payloads bit-identical, clean shutdown — OK");
}

/// The observability CI smoke: boot the daemon, issue a traced cold
/// request and an untraced duplicate, assert the payload bytes are
/// bit-identical (tracing is observation-only), then scrape the `metrics`
/// op and assert every required metric name is on the Prometheus page —
/// a disappearing name fails the build before it breaks a dashboard.
fn metrics_smoke(codec: ClientCodec) {
    const REQUIRED: [&str; 22] = [
        // event loop
        "pte_event_loop_wakeups_total",
        "pte_event_loop_poll_iterations_total",
        "pte_connections_busy",
        "pte_connections_idle",
        "pte_queue_depth",
        // request plane
        "pte_request_search_us",
        "pte_request_json_us",
        "pte_request_binary_us",
        "pte_shed_total",
        "pte_deadline_total",
        "pte_panic_total",
        // cache + store
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
        // probe plane + grammar coverage
        "pte_probe_memo_lookup_us",
        "pte_grammar_coverage_ratio",
    ];

    let handle = start_server(2);
    let addr = handle.addr();
    println!("serve_bench --metrics: daemon on {addr} ({} codec)", codec_name(codec));

    let request = bench_request(1);
    let mut traced = connect(addr, codec);
    traced.set_trace(true);
    let cold = traced.search(&request).expect("traced cold search");
    assert!(!cold.cache_hit, "traced request must run the search");
    let trace = cold.trace.as_ref().expect("traced request must return a span tree");
    assert!(
        trace.get("spans").and_then(|v| v.as_arr()).is_some_and(|s| !s.is_empty()),
        "span tree must not be empty"
    );

    let mut plain = connect(addr, codec);
    let warm = plain.search(&request).expect("untraced duplicate");
    assert!(warm.cache_hit, "the traced search must have populated the cache");
    assert!(warm.trace.is_none(), "untraced requests must not carry a trace");
    assert_eq!(
        cold.payload_canonical, warm.payload_canonical,
        "traced and untraced payload bytes diverged — tracing must be observation-only"
    );

    let metrics = plain.metrics().expect("metrics scrape");
    assert_eq!(
        metrics.get("cache").and_then(|c| c.get("conserved")).and_then(|v| v.as_bool()),
        Some(true),
        "cache counters must conserve"
    );
    let page = metrics
        .get("prometheus")
        .and_then(|v| v.as_str())
        .expect("metrics op must embed the Prometheus page");
    for name in REQUIRED {
        assert!(page.contains(name), "metrics page lost `{name}`");
    }

    plain.shutdown().expect("shutdown ack");
    handle.join();
    println!(
        "serve_bench --metrics: traced==untraced bytes, {} required metric names present — OK",
        REQUIRED.len()
    );
}

/// The degraded/overload CI smoke: with one admission slot pinned by a
/// stalled compute, a second cold search is shed with `overloaded` and the
/// configured retry hint, while cache hits keep serving bit-identical
/// payloads. The pinned search itself still completes once its stall ends.
fn overload(codec: ClientCodec) {
    let stall = Arc::new(AtomicBool::new(false));
    let stalls_entered = Arc::new(AtomicU64::new(0));
    let hook = {
        let stall = Arc::clone(&stall);
        let stalls_entered = Arc::clone(&stalls_entered);
        Arc::new(move |point: FaultPoint| match point {
            FaultPoint::Compute { .. } if stall.load(Ordering::SeqCst) => {
                stalls_entered.fetch_add(1, Ordering::SeqCst);
                FaultAction::StallMs(400)
            }
            _ => FaultAction::None,
        })
    };
    let config = ServerConfig {
        workers: 4,
        max_pending_searches: 1,
        retry_after_ms: 50,
        fault_hook: Some(hook),
        ..ServerConfig::default()
    };
    let handle = serve(&config).expect("bind ephemeral port");
    let addr = handle.addr();
    println!(
        "serve_bench --overload: daemon on {addr}, max pending 1 ({} codec)",
        codec_name(codec)
    );

    // Warm one request into the cache while computes still run normally.
    let warm_request = bench_request(1);
    let mut client = connect(addr, codec);
    let warm = client.search(&warm_request).expect("warm the cache");
    assert!(!warm.cache_hit, "warming request must miss");

    // Saturate: a stalled cold search pins the only admission slot. The
    // stall counter flips once the hook has fired, i.e. once the slot is
    // definitely held.
    stall.store(true, Ordering::SeqCst);
    let pinned = std::thread::spawn(move || {
        let mut client = connect(addr, codec);
        client.search(&bench_request(2)).expect("pinned search completes")
    });
    while stalls_entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // A second cold search is shed immediately with the retry hint...
    let err = client.search(&bench_request(3)).expect_err("cold search under overload");
    match &err {
        ClientError::Server { error, retryable, retry_after_ms } => {
            assert_eq!(error, "overloaded");
            assert!(*retryable, "overloaded must be marked retryable");
            assert_eq!(*retry_after_ms, Some(50));
        }
        other => panic!("expected an overloaded server error, got {other}"),
    }

    // ...while cache hits keep serving: degraded mode is a read-only cache,
    // not an outage.
    let hit = client.search(&warm_request).expect("degraded-mode hit");
    assert!(hit.cache_hit, "saturated daemon must still answer hits");
    assert_eq!(
        hit.payload_canonical, warm.payload_canonical,
        "degraded-mode payload bytes diverged"
    );

    let pinned_reply = pinned.join().expect("pinned client");
    assert!(!pinned_reply.cache_hit, "pinned search was a cold miss");
    stall.store(false, Ordering::SeqCst);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("shed").and_then(|v| v.as_u64()), Some(1));
    client.shutdown().expect("shutdown ack");
    handle.join();
    println!(
        "serve_bench --overload: 1 shed (retry_after_ms=50), hits served while saturated, \
         pinned search completed — OK"
    );
}

/// The warm-restart CI smoke: search against a store-backed daemon, drain
/// it, restart on the same plan log, and assert the very first request is
/// a cache hit carrying bit-identical payload bytes — the persistence
/// layer's acceptance contract.
fn restart(codec: ClientCodec) {
    let store = std::env::temp_dir().join(format!("pte-serve-restart-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let request = bench_request(1);
    let expected = codec::execute(&request).expect("in-process search");

    // Incarnation 1: cold search, payload appended to the log, drain.
    let first = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    println!(
        "serve_bench --restart: incarnation 1 on {} ({} codec)",
        first.addr(),
        codec_name(codec)
    );
    let mut client = connect(first.addr(), codec);
    let cold = client.search(&request).expect("cold search");
    assert!(!cold.cache_hit, "incarnation 1 starts cold");
    assert_eq!(cold.payload_canonical, expected);
    assert_eq!(first.state().store_appends(), 1, "one computed plan, one log record");
    client.shutdown().expect("shutdown ack");
    first.join();

    // Incarnation 2: same log; boot replays it into the cache, so the
    // first request ever seen by this process is already a hit.
    let reboot = Instant::now();
    let second = serve(&ServerConfig {
        workers: 2,
        store_path: Some(store.clone()),
        ..ServerConfig::default()
    })
    .expect("rebind");
    assert_eq!(second.state().store_loaded(), 1, "boot must replay the logged plan");
    let mut client = connect(second.addr(), codec);
    let warm = client.search(&request).expect("warm-start search");
    let warmup_ms = reboot.elapsed().as_secs_f64() * 1e3;
    assert!(warm.cache_hit, "first request after restart must be a warm-start hit");
    assert!(!warm.coalesced);
    assert_eq!(
        warm.payload_canonical, expected,
        "warm-start payload bytes diverged from the pre-restart plan"
    );
    assert_eq!(second.state().store_appends(), 0, "a warm-start hit must not re-append");
    client.shutdown().expect("shutdown ack");
    second.join();
    let _ = std::fs::remove_file(&store);
    println!(
        "serve_bench --restart: warm-start hit with bit-identical bytes, \
         boot-to-first-reply {warmup_ms:.1} ms — OK"
    );
}

/// The routed-fleet CI smoke: three daemons behind `pte-route`, cold and
/// warm passes through the router (bit-identical to the in-process
/// reference), then one daemon is killed mid-run and every key must keep
/// serving via failover — with the killed shard marked `down` inside the
/// breaker's bounded ejection time and the router conservation law
/// (`routed == forwarded + failovers + shed`) intact, asserted both
/// in-process and over the router's own `stats` op.
fn router_smoke(codec: ClientCodec) {
    use pte_serve::retry::{RetryClient, RetryPolicy};
    use pte_serve::router::{route, HashRing, RouterConfig, ShardState};
    use std::time::Duration;

    const SHARDS: usize = 3;
    const VNODES: usize = 32;
    let distinct = if quick_mode() { 3 } else { 6 };

    let mut daemons: Vec<Option<ServerHandle>> =
        (0..SHARDS).map(|_| Some(start_server(2))).collect();
    let addrs: Vec<String> =
        daemons.iter().map(|d| d.as_ref().expect("fresh daemon").addr().to_string()).collect();
    let router = route(&RouterConfig {
        shards: addrs.clone(),
        replicas: 2,
        vnodes: VNODES,
        probe_every: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(100),
        trip_after: 2,
        cooloff: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("bind router port");
    println!(
        "serve_bench --router: {SHARDS} daemons behind pte-route on {} ({} codec)",
        router.addr(),
        codec_name(codec)
    );

    let expected: Vec<String> = (0..distinct)
        .map(|i| codec::execute(&bench_request(i as u64)).expect("in-process search"))
        .collect();

    let policy = RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        jitter_seed: 0xB0075,
        ..RetryPolicy::default()
    };
    let mut client = match codec {
        ClientCodec::Json => RetryClient::tcp(router.addr(), policy),
        ClientCodec::Binary => RetryClient::tcp_binary(router.addr(), policy),
    };

    // Cold pass: every key misses on its primary shard; warm pass: every
    // key hits, because the ring pins a key to one shard's cache.
    for (i, want) in expected.iter().enumerate() {
        let reply = client.search(&bench_request(i as u64)).expect("cold routed search");
        assert!(!reply.cache_hit, "cold key {i} must miss");
        assert_eq!(&reply.payload_canonical, want, "cold routed payload {i} diverged");
    }
    for (i, want) in expected.iter().enumerate() {
        let reply = client.search(&bench_request(i as u64)).expect("warm routed search");
        assert!(reply.cache_hit, "warm key {i} must hit its primary's cache");
        assert_eq!(&reply.payload_canonical, want, "warm routed payload {i} diverged");
    }

    // Kill the shard owning key 0 mid-run: at least that key must now be
    // served by its failover replica.
    let ring = HashRing::build(&addrs, VNODES);
    let (_, key0) = bench_request(0).canonical_key().expect("canonical request");
    let victim = ring.primary(key0);
    let handle = daemons[victim].take().expect("victim still up");
    handle.shutdown();
    handle.join();
    println!("serve_bench --router: killed shard {victim} ({})", addrs[victim]);

    for (i, want) in expected.iter().enumerate() {
        let reply = client.search(&bench_request(i as u64)).expect("post-kill routed search");
        assert_eq!(&reply.payload_canonical, want, "post-kill payload {i} diverged");
    }

    // Bounded ejection: the probe plane must mark the victim down.
    let deadline = Instant::now() + Duration::from_secs(2);
    while router.state().shard_state(victim) != ShardState::Down {
        assert!(Instant::now() < deadline, "killed shard {victim} never marked down");
        std::thread::sleep(Duration::from_millis(10));
    }

    assert!(router.state().failovers() > 0, "the victim's keys must have failed over");
    assert!(
        router.state().is_conserved(),
        "router conservation law violated: routed {} != forwarded {} + failovers {} + shed {}",
        router.state().routed(),
        router.state().forwarded(),
        router.state().failovers(),
        router.state().shed()
    );
    let stats = client.stats().expect("router stats op");
    assert_eq!(stats.get("role").and_then(|v| v.as_str()), Some("router"));
    assert_eq!(stats.get("conserved").and_then(|v| v.as_bool()), Some(true));

    let failovers = router.state().failovers();
    drop(client);
    router.join();
    for handle in daemons.iter_mut().filter_map(Option::take) {
        handle.shutdown();
        handle.join();
    }
    println!(
        "serve_bench --router: {distinct} keys cold+warm+post-kill bit-identical, \
         {failovers} failover(s), shard {victim} down, conservation law holds — OK"
    );
}

struct Phase {
    name: &'static str,
    requests: usize,
    elapsed_s: f64,
    /// Per-request wall-clock latencies (µs), recorded into per-client
    /// telemetry histograms and merged across the fleet. Count
    /// conservation makes the merge auditable: the merged count must
    /// equal the requests the phase issued.
    latency_us: Histogram,
}

impl Phase {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed_s
    }

    /// Nearest-rank percentile over the merged per-request latencies.
    /// Throughput alone hides stragglers — a closed-loop mean smears one
    /// slow request across the whole phase, while the tail surfaces it.
    fn percentile_ms(&self, q: f64) -> f64 {
        self.latency_us.percentile(q) as f64 / 1e3
    }

    fn max_ms(&self) -> f64 {
        self.latency_us.max() as f64 / 1e3
    }
}

/// Merge per-client histograms into one phase-wide histogram and check
/// that no request was lost or double-counted along the way.
fn merge_latencies(name: &str, parts: Vec<Histogram>, requests: usize) -> Histogram {
    let merged = Histogram::new();
    for part in &parts {
        merged.merge_from(part);
    }
    assert_eq!(
        merged.count(),
        requests as u64,
        "{name} phase: merged histogram count must equal requests issued"
    );
    merged
}

fn load(codec: ClientCodec, idle_connections: usize) {
    let quick = quick_mode();
    let clients = if quick { 2 } else { 4 };
    let distinct = if quick { 2 } else { 6 };
    let warm_rounds = if quick { 20 } else { 200 };

    let handle = start_server(clients);
    let addr = handle.addr();
    println!(
        "serve_bench: daemon on {addr}, {clients} clients ({} codec, {idle_connections} idle \
         keep-alive connections)",
        codec_name(codec)
    );

    // The event-loop claim, measured: park a fleet of idle keep-alive
    // connections for the whole run. They must not cost threads, and they
    // must still be alive (same codec, zero re-handshakes) at the end.
    let threads_before = thread_count();
    let mut parked: Vec<Client> = (0..idle_connections)
        .map(|_| {
            let mut c = connect(addr, codec);
            c.ping().expect("parked connection ping");
            c
        })
        .collect();
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        assert_eq!(
            before, after,
            "{idle_connections} idle connections must cost zero threads (event loop), \
             {before} -> {after}"
        );
        println!(
            "idle     {} connections parked, thread count flat at {} (no thread per connection)",
            parked.len(),
            after
        );
    }
    assert!(
        handle.state().connections() >= idle_connections as u64,
        "daemon must be holding the parked connections"
    );

    let expected: Vec<String> = (0..distinct)
        .map(|i| codec::execute(&bench_request(i as u64)).expect("in-process search"))
        .collect();

    // Phase 1 — cold: each client takes its share of distinct requests.
    let cold_start = Instant::now();
    let next = AtomicUsize::new(0);
    let cold_parts: Vec<Histogram> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = connect(addr, codec);
                    let lat = Histogram::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= distinct {
                            return lat;
                        }
                        let start = Instant::now();
                        let reply = client.search(&bench_request(i as u64)).expect("cold search");
                        lat.record_duration_us(start.elapsed());
                        assert_eq!(
                            reply.payload_canonical, expected[i],
                            "cold payload {i} diverged"
                        );
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cold client")).collect()
    });
    let cold = Phase {
        name: "cold",
        requests: distinct,
        elapsed_s: cold_start.elapsed().as_secs_f64(),
        latency_us: merge_latencies("cold", cold_parts, distinct),
    };

    // Phase 2 — warm: every client hammers the now-cached requests.
    let warm_start = Instant::now();
    let warm_parts: Vec<Histogram> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = connect(addr, codec);
                    let lat = Histogram::new();
                    for round in 0..warm_rounds {
                        let i = (round + c) % distinct;
                        let start = Instant::now();
                        let reply = client.search(&bench_request(i as u64)).expect("warm search");
                        lat.record_duration_us(start.elapsed());
                        assert!(reply.cache_hit, "warm request must hit");
                        assert_eq!(
                            reply.payload_canonical, expected[i],
                            "warm payload {i} diverged"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm client")).collect()
    });
    let warm = Phase {
        name: "warm",
        requests: clients * warm_rounds,
        elapsed_s: warm_start.elapsed().as_secs_f64(),
        latency_us: merge_latencies("warm", warm_parts, clients * warm_rounds),
    };

    // Phase 3 — collapse: all clients fire one NEW identical request at
    // once; single-flight runs one search.
    let searches_before = handle.state().cache_stats().misses;
    let collapse_request = bench_request(0xC0117);
    let collapse_expected = codec::execute(&collapse_request).expect("in-process search");
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let collapse_request = &collapse_request;
            let collapse_expected = &collapse_expected;
            scope.spawn(move || {
                let mut client = connect(addr, codec);
                let reply = client.search(collapse_request).expect("collapse search");
                assert_eq!(&reply.payload_canonical, collapse_expected);
            });
        }
    });
    let searches_run = handle.state().cache_stats().misses - searches_before;

    // The parked fleet survived all three phases without a thread and
    // without a reconnect.
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        assert_eq!(before, after, "thread count must stay flat through the load phases");
    }
    for parked_client in parked.iter_mut() {
        parked_client.ping().expect("parked connection must survive the load phases");
    }

    let stats = handle.state().cache_stats();
    println!(
        "\n-- serve_bench (closed-loop, {clients} clients over TCP, {} codec)",
        codec_name(codec)
    );
    for phase in [&cold, &warm] {
        println!(
            "{:<8} {:>5} requests in {:>7.2} s  ({:>8.1} req/s)  p50 {:>8.3} ms  \
             p95 {:>8.3} ms  p99 {:>8.3} ms  max {:>8.3} ms",
            phase.name,
            phase.requests,
            phase.elapsed_s,
            phase.rps(),
            phase.percentile_ms(0.50),
            phase.percentile_ms(0.95),
            phase.percentile_ms(0.99),
            phase.max_ms()
        );
    }
    println!(
        "collapse {:>5} duplicate clients -> {} search(es) run (single-flight)",
        clients, searches_run
    );
    println!(
        "cache    {} entries, {} hits / {} misses / {} coalesced, hit rate {:.2}",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.hit_rate()
    );
    let probe = pte_core::fisher::proxy::probe_cache_stats();
    println!(
        "probe    {} entries / {} cap, {} hits / {} misses / {} evictions (memo health; \
         also served by the daemon's `stats` op)",
        probe.entries, probe.capacity, probe.hits, probe.misses, probe.evictions
    );
    println!("warm/cold per-request speedup: {:.1}x", {
        let cold_per = cold.elapsed_s / cold.requests as f64;
        let warm_per = warm.elapsed_s / warm.requests.max(1) as f64;
        cold_per / warm_per
    });

    assert_eq!(searches_run, 1, "single-flight must collapse the duplicate burst to one search");
    drop(parked);
    handle.join();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut codec = ClientCodec::Json;
    let mut connections: usize = 0;
    let mut iter = args.iter().skip(1);
    let mut mode: Option<&str> = None;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--codec" => {
                codec = match iter.next().map(String::as_str) {
                    Some("json") => ClientCodec::Json,
                    Some("binary") => ClientCodec::Binary,
                    other => {
                        eprintln!("serve_bench: --codec json|binary (got {other:?})");
                        std::process::exit(2);
                    }
                }
            }
            "--connections" => {
                connections = iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("serve_bench: --connections N");
                    std::process::exit(2);
                });
            }
            "--smoke" | "--overload" | "--restart" | "--metrics" | "--router" => {
                // `--router --smoke` is the CI spelling; `--router` wins the
                // dispatch (the router leg is already smoke-sized).
                if arg == "--router" || mode != Some("--router") {
                    mode = Some(arg.as_str());
                }
            }
            other => {
                eprintln!("serve_bench: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    match mode {
        Some("--smoke") => smoke(codec),
        Some("--overload") => overload(codec),
        Some("--restart") => restart(codec),
        Some("--metrics") => metrics_smoke(codec),
        Some("--router") => router_smoke(codec),
        _ => {
            if connections == 0 {
                connections = if quick_mode() { 32 } else { 256 };
            }
            load(codec, connections);
        }
    }
}
