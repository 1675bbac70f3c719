//! Idle keep-alive connections cost the daemon sockets and slots, never
//! threads. The only test in its binary on purpose: it compares this
//! process's thread count before and after parking connections, so sibling
//! tests spawning their own daemons would make the count move under it.

use pte_serve::client::Client;
use pte_serve::codec::{LayerSpec, NetworkSpec, PlatformId, SearchRequest};
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

#[test]
fn idle_keep_alive_connections_cost_no_threads() {
    let handle = serve(&ServerConfig { workers: 2, cache_capacity: 64, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let addr = handle.addr();

    // Park a fleet of keep-alive connections, alternating codecs. Under
    // the event loop each costs a socket and a slot — never a thread.
    let before = thread_count();
    let mut parked: Vec<Client> = (0..256)
        .map(|i| {
            let mut c = if i % 2 == 0 {
                Client::connect(addr).expect("connect json")
            } else {
                Client::connect_binary(addr).expect("connect binary")
            };
            c.ping().expect("parked ping");
            c
        })
        .collect();
    if let (Some(before), Some(after)) = (before, thread_count()) {
        assert_eq!(
            before, after,
            "256 idle connections must not grow the thread count ({before} -> {after})"
        );
    }
    assert!(
        handle.state().connections() >= 256,
        "daemon must report the parked connections: {}",
        handle.state().connections()
    );

    // The daemon still serves new work while holding the idle fleet...
    let request = request();
    let mut active = Client::connect(addr).expect("connect active");
    let reply = active.search(&request).expect("search with 256 idle connections parked");
    assert!(!reply.cache_hit);

    // ...and every parked connection is still alive afterwards.
    for client in parked.iter_mut() {
        client.ping().expect("parked connection must survive");
    }

    drop(parked);
    active.shutdown().expect("shutdown ack");
    handle.join();
}
