//! An idle daemon, and an idle router in front of it, do not wake: with
//! only idle keep-alive connections open both event loops sleep in
//! `poll(2)` until the nearest idle deadline instead of ticking. The only
//! test in its binary on purpose: the loop counter it reads is
//! process-global (it sums both loops), so a sibling test's daemon would
//! move it.

use std::net::SocketAddr;
use std::time::Duration;

use pte_serve::client::Client;
use pte_serve::router::{route, RouterConfig};
use pte_serve::server::{serve, ServerConfig};

/// `pte_event_loop_poll_iterations_total` from the `metrics` op's page.
fn loop_iterations(client: &mut Client) -> u64 {
    let metrics = client.metrics().expect("metrics op");
    let page = metrics.get("prometheus").and_then(|p| p.as_str()).expect("prometheus page");
    page.lines()
        .find_map(|line| line.strip_prefix("pte_event_loop_poll_iterations_total "))
        .and_then(|value| value.trim().parse().ok())
        .expect("loop iteration counter on the page")
}

/// 32 keep-alive connections that have each answered a ping, alternating
/// codecs.
fn park(addr: SocketAddr) -> Vec<Client> {
    (0..32)
        .map(|i| {
            let mut client = if i % 2 == 0 {
                Client::connect(addr).expect("connect json")
            } else {
                Client::connect_binary(addr).expect("connect binary")
            };
            client.ping().expect("parked ping");
            client
        })
        .collect()
}

#[test]
fn idle_connections_do_not_wake_the_event_loop() {
    let handle = serve(&ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    // A slow probe cadence: the prober's first sweep runs at boot, and the
    // next one falls far outside the measured window.
    let router = route(&RouterConfig {
        shards: vec![handle.addr().to_string()],
        probe_every: Duration::from_secs(60),
        ..RouterConfig::default()
    })
    .expect("bind router port");
    let mut parked = park(handle.addr());
    parked.extend(park(router.addr()));
    let mut observer = Client::connect(router.addr()).expect("connect observer");

    let before = loop_iterations(&mut observer);
    std::thread::sleep(Duration::from_millis(300));
    let after = loop_iterations(&mut observer);
    // Each metrics round trip costs the router's loop a pass to read the
    // request and one to deliver the reply; the router answers it without
    // touching the daemon. A 1 ms tick would add ~300 per loop. At least
    // the pass that read the second request is counted, which shows the
    // counter sees the router's loop at all.
    let passes = after - before;
    assert!(
        (1..=4).contains(&passes),
        "event loops ran {passes} passes in 300 ms with only idle connections"
    );

    for client in &mut parked {
        client.ping().expect("parked connection must survive");
    }
    observer.shutdown().expect("router shutdown ack");
    router.wait();
    handle.join();
}
