//! An idle daemon does not wake: with only idle keep-alive connections open
//! the event loop sleeps in `poll(2)` until the nearest idle deadline
//! instead of ticking. The only test in its binary on purpose: the loop
//! counter it reads is process-global, so a sibling test's daemon would
//! move it.

use std::time::Duration;

use pte_serve::client::Client;
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

#[test]
fn idle_connections_do_not_wake_the_event_loop() {
    let handle = serve(&ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("bind ephemeral port");
    let mut parked: Vec<Client> = (0..32)
        .map(|i| {
            let mut client = if i % 2 == 0 {
                Client::connect(handle.addr()).expect("connect json")
            } else {
                Client::connect_binary(handle.addr()).expect("connect binary")
            };
            client.ping().expect("parked ping");
            client
        })
        .collect();
    let mut observer = Client::connect(handle.addr()).expect("connect observer");

    let before = loop_iterations(&mut observer);
    std::thread::sleep(Duration::from_millis(300));
    let after = loop_iterations(&mut observer);
    // Each metrics round trip costs the loop a pass to read the request and
    // one to deliver the reply; a 1 ms tick would add ~300.
    assert!(
        after - before <= 4,
        "event loop ran {} passes in 300 ms with only idle connections",
        after - before
    );

    for client in &mut parked {
        client.ping().expect("parked connection must survive");
    }
    observer.shutdown().expect("shutdown ack");
    handle.join();
}
