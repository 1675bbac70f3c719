//! Idle keep-alive connections cost the daemon and the router sockets and
//! slots, never threads, and connections that come and go leave nothing
//! behind. The only test in its binary on purpose: it compares this
//! process's thread count before and after parking connections, so sibling
//! tests spawning their own daemons would make the count move under it.

use std::net::SocketAddr;

use pte_serve::client::Client;
use pte_serve::codec::{LayerSpec, NetworkSpec, PlatformId, SearchRequest};
use pte_serve::router::{route, RouterConfig};
use pte_serve::server::{serve, ServerConfig};

/// A one-class custom network: any cold search will do.
fn request() -> SearchRequest {
    let block = LayerSpec {
        name: "block".into(),
        c_in: 16,
        c_out: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
        groups: 1,
        h: 8,
        w: 8,
        mutable: true,
    };
    let network = NetworkSpec::Custom {
        name: "idle-net".into(),
        dataset: "cifar10".into(),
        classifier_in: 16,
        base_error: 6.5,
        convs: vec![block],
    };
    let mut request = SearchRequest::quick(network, PlatformId::Cpu);
    request.random_per_layer = 4;
    request.trials = 8;
    request
}

/// This process's thread count (`/proc/self/status`); `None` off-Linux,
/// which skips the flat-thread assertion but not the serving checks.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

/// A client that has answered one ping; even `i` speaks JSON, odd binary.
fn pinged(addr: SocketAddr, i: usize) -> Client {
    let mut client = if i.is_multiple_of(2) {
        Client::connect(addr).expect("connect json")
    } else {
        Client::connect_binary(addr).expect("connect binary")
    };
    client.ping().expect("ping");
    client
}

#[test]
fn idle_keep_alive_connections_cost_no_threads() {
    let handle = serve(&ServerConfig { workers: 2, cache_capacity: 64, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let router =
        route(&RouterConfig { shards: vec![handle.addr().to_string()], ..RouterConfig::default() })
            .expect("bind router port");
    let before = thread_count();

    // Connections that come and go: each one closed must release its slot
    // (and, under thread-per-client, would have left a thread behind).
    for i in 0..256 {
        drop(pinged(router.addr(), i));
    }

    // Park a fleet of keep-alive connections on each endpoint, alternating
    // codecs. Under the event loop each costs a socket and a slot — never
    // a thread.
    let mut parked: Vec<Client> = (0..256).map(|i| pinged(handle.addr(), i)).collect();
    let mut routed: Vec<Client> = (0..256).map(|i| pinged(router.addr(), i)).collect();
    if let (Some(before), Some(after)) = (before, thread_count()) {
        assert_eq!(
            before, after,
            "256 churned and 2 x 256 idle connections must not grow the thread count \
             ({before} -> {after})"
        );
    }
    assert!(
        handle.state().connections() >= 256,
        "daemon must report the parked connections: {}",
        handle.state().connections()
    );
    let stats = routed[0].stats().expect("router stats");
    assert_eq!(
        stats.get("connections").and_then(|v| v.as_u64()),
        Some(256),
        "router must report exactly its parked connections"
    );

    // Both endpoints still serve new work while holding the idle fleet...
    let request = request();
    let mut active = Client::connect(router.addr()).expect("connect active");
    let reply = active.search(&request).expect("search with 512 idle connections parked");
    assert!(!reply.cache_hit);

    // ...and every parked connection is still alive afterwards.
    for client in parked.iter_mut().chain(routed.iter_mut()) {
        client.ping().expect("parked connection must survive");
    }

    drop(parked);
    drop(routed);
    active.shutdown().expect("router shutdown ack");
    router.wait();
    handle.join();
}
