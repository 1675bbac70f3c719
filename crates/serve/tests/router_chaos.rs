//! Fleet chaos: seeded process-level faults against a routed shard fleet.
//!
//! Where `tests/chaos.rs` corrupts single connections and wedges single
//! handlers, this suite takes out whole daemons — the failure domain the
//! router exists to absorb. Every fault comes from a replayable
//! [`ShardFaultScript`], so any failing run reproduces bit-for-bit from
//! its seed. Pinned here, per the PR's acceptance contract:
//!
//! * with a seeded shard-kill schedule firing mid-load, **every client
//!   request eventually succeeds** via failover, and every payload is
//!   **bit-identical** to the in-process `codec::execute` reference —
//!   across ≥ 10 seeds and both wire codecs;
//! * the router conservation law holds:
//!   `routed == forwarded + failovers + shed`;
//! * a killed shard's keys are served by its ring replicas, and the killed
//!   shard is marked `down` within the breaker's bounded ejection time;
//! * a hung shard is ejected by the probe plane and **re-admitted** by a
//!   half-open probe once it recovers;
//! * a hedged search beats a stalled primary by winning on the replica;
//! * a shard that accepts but never answers cannot pin the router's fixed
//!   thread pool: once the prober ejects it, the pinned forwards fail over
//!   and the router answers `ping` again.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pte_serve::client::Client;
use pte_serve::codec::{self, SearchRequest};
use pte_serve::fault::{FaultAction, FaultHook, FaultPoint, ShardFaultScript};
use pte_serve::json::fnv1a64;
use pte_serve::retry::{RetryClient, RetryPolicy};
use pte_serve::router::{route, HashRing, Router, RouterConfig, ShardState};
use pte_serve::server::{serve, ServerConfig, ServerHandle};
use pte_serve::workload::bench_request;

const SHARDS: usize = 3;
const VNODES: usize = 32;

/// The fleet chaos seeds. Ten seeds, each a distinct replayable schedule.
const FLEET_SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 0xF1EE7];

// ---------------------------------------------------------------------------
// Fleet harness
// ---------------------------------------------------------------------------

/// Per-shard fault valve, driven by the script and read by the daemon's
/// injected [`FaultHook`] — this is how a *process-level* fault is
/// realized deterministically inside an in-process daemon.
#[derive(Default)]
struct ShardControl {
    /// Requests stall until this instant (Hang / SlowStart windows).
    stall_until: Mutex<Option<Instant>>,
    /// The next N requests are dropped without a reply (Refuse).
    refuse: AtomicU32,
}

impl ShardControl {
    fn stall_for(&self, window: Duration) {
        *self.stall_until.lock().expect("stall valve") = Some(Instant::now() + window);
    }

    fn refuse_next(&self, requests: u32) {
        self.refuse.fetch_add(requests, Ordering::SeqCst);
    }
}

fn shard_hook(control: Arc<ShardControl>) -> FaultHook {
    Arc::new(move |point| {
        let FaultPoint::Request { .. } = point else { return FaultAction::None };
        if control
            .refuse
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
        {
            return FaultAction::Disconnect;
        }
        let stall = *control.stall_until.lock().expect("stall valve");
        match stall {
            Some(until) if until > Instant::now() => {
                FaultAction::StallMs((until - Instant::now()).as_millis() as u64 + 1)
            }
            _ => FaultAction::None,
        }
    })
}

/// N in-process daemons on ephemeral ports, each with its fault valve.
struct Fleet {
    daemons: Vec<Option<ServerHandle>>,
    controls: Vec<Arc<ShardControl>>,
    addrs: Vec<String>,
}

impl Fleet {
    fn boot(n: usize) -> Fleet {
        let mut daemons = Vec::new();
        let mut controls = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let control = Arc::new(ShardControl::default());
            let handle = serve(&ServerConfig {
                workers: 2,
                fault_hook: Some(shard_hook(Arc::clone(&control))),
                ..ServerConfig::default()
            })
            .expect("bind ephemeral shard port");
            addrs.push(handle.addr().to_string());
            daemons.push(Some(handle));
            controls.push(control);
        }
        Fleet { daemons, controls, addrs }
    }

    /// Realizes one scripted fault. `Kill` is permanent within a run (a
    /// std-only restart on the same port would race `TIME_WAIT`); breaker
    /// *re-admission* is exercised by the Hang-recovery test instead.
    fn apply(&mut self, event: pte_serve::fault::ShardFaultEvent) {
        use pte_serve::fault::ShardFault;
        match event.fault {
            ShardFault::Kill => {
                if let Some(handle) = self.daemons[event.shard].take() {
                    handle.shutdown();
                    handle.join();
                }
            }
            ShardFault::Hang { millis } | ShardFault::SlowStart { millis } => {
                self.controls[event.shard].stall_for(Duration::from_millis(millis));
            }
            ShardFault::Refuse { requests } => {
                self.controls[event.shard].refuse_next(requests);
            }
        }
    }

    fn shutdown(mut self) {
        for handle in self.daemons.iter_mut().filter_map(Option::take) {
            handle.shutdown();
            handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

/// Fault-free reference payload for one bench-request seed, memoized
/// across the whole process: the bar every routed reply must match
/// bit-for-bit, however many shards it bounced through.
fn reference_for(bench_seed: u64) -> (SearchRequest, String) {
    static MEMO: OnceLock<Mutex<std::collections::HashMap<u64, (SearchRequest, String)>>> =
        OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
    let mut memo = memo.lock().expect("reference memo");
    memo.entry(bench_seed)
        .or_insert_with(|| {
            let request = bench_request(bench_seed);
            let expected = codec::execute(&request).expect("fault-free reference payload");
            (request, expected)
        })
        .clone()
}

/// The base request pool shared by every seed (distinct cache keys).
fn reference_pool() -> Vec<(SearchRequest, String)> {
    (0..6u64).map(|i| reference_for(0xF1E0 + i)).collect()
}

/// A request whose ring primary is `shard` — found by key (cheap: no
/// search runs), so each chaos seed deterministically exercises the shard
/// its script kills.
fn request_primaried_on(ring: &HashRing, shard: usize) -> (SearchRequest, String) {
    let mut bench_seed = 0xF1E0 + 6;
    loop {
        let candidate = bench_request(bench_seed);
        if ring.primary(request_key(&candidate)) == shard {
            return reference_for(bench_seed);
        }
        bench_seed += 1;
    }
}

fn request_key(request: &SearchRequest) -> u64 {
    fnv1a64(request.encode().expect("canonical request").as_bytes())
}

fn test_policy(jitter_seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        jitter_seed,
        ..RetryPolicy::default()
    }
}

fn chaos_router(addrs: &[String]) -> Router {
    route(&RouterConfig {
        shards: addrs.to_vec(),
        replicas: 2,
        vnodes: VNODES,
        probe_every: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(100),
        trip_after: 2,
        cooloff: Duration::from_millis(150),
        ..RouterConfig::default()
    })
    .expect("bind router port")
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// The shard index the script's (single) Kill event targets, recovered
/// from the replayable rendering — e.g. `"@2 s1 Kill"` → 1.
fn killed_shard(script: &ShardFaultScript) -> usize {
    script
        .describe()
        .split(';')
        .map(str::trim)
        .find(|part| part.ends_with("Kill"))
        .and_then(|part| part.split_whitespace().nth(1))
        .and_then(|token| token.strip_prefix('s'))
        .and_then(|digits| digits.parse().ok())
        .expect("every fleet script contains exactly one Kill")
}

// ---------------------------------------------------------------------------
// The acceptance test
// ---------------------------------------------------------------------------

#[test]
fn seeded_shard_kills_recover_through_failover() {
    let mut schedules = HashSet::new();
    let mut total_failovers = 0u64;

    for (ordinal, &seed) in FLEET_SEEDS.iter().enumerate() {
        // Replayability: the same seed regenerates the same fleet schedule.
        let script = ShardFaultScript::from_seed(seed, SHARDS);
        assert_eq!(
            script.describe(),
            ShardFaultScript::from_seed(seed, SHARDS).describe(),
            "seed {seed} must replay bit-for-bit"
        );
        schedules.insert(script.describe());
        let killed = killed_shard(&script);

        let mut fleet = Fleet::boot(SHARDS);
        let router = chaos_router(&fleet.addrs);
        // The ring is a pure function of the shard identities, so the test
        // can predict routing with its own build — and guarantee the run
        // carries at least one key the killed shard owns, which must then
        // survive the kill via failover.
        let ring = HashRing::build(&fleet.addrs, VNODES);
        let mut requests = reference_pool();
        if !requests.iter().any(|(r, _)| ring.primary(request_key(r)) == killed) {
            requests.push(request_primaried_on(&ring, killed));
        }

        // Alternate codecs across seeds: the router must be transparent to
        // both wire formats.
        let mut client = if ordinal % 2 == 0 {
            RetryClient::tcp(router.addr(), test_policy(seed))
        } else {
            RetryClient::tcp_binary(router.addr(), test_policy(seed))
        };

        // Drive load, consulting the script between requests; after the
        // schedule drains, one more full pass runs against the degraded
        // fleet — the killed shard's keys must now be served by replicas.
        let mut routed = 0u64;
        let mut passes = 0;
        while passes < 2 || script.remaining() > 0 {
            for (request, expected) in requests.iter() {
                while let Some(event) = script.next_due(routed) {
                    fleet.apply(event);
                }
                let reply = client
                    .search(request)
                    .unwrap_or_else(|e| panic!("seed {seed}: request did not converge: {e}"));
                assert_eq!(
                    &reply.payload_canonical, expected,
                    "seed {seed}: routed payload diverged from the fault-free reference"
                );
                routed += 1;
            }
            passes += 1;
        }

        // Bounded ejection: the probe plane (50ms cadence, trip_after 2)
        // must mark the killed shard down well inside two seconds.
        assert!(
            wait_until(Duration::from_secs(2), || router.state().shard_state(killed)
                == ShardState::Down),
            "seed {seed}: killed shard {killed} never marked down"
        );

        // The conservation law, both in-process and over the wire.
        assert!(
            router.state().is_conserved(),
            "seed {seed}: routed {} != forwarded {} + failovers {} + shed {}",
            router.state().routed(),
            router.state().forwarded(),
            router.state().failovers(),
            router.state().shed()
        );
        let stats = client.stats().expect("router stats op");
        assert_eq!(stats.get("role").and_then(|v| v.as_str()), Some("router"));
        assert_eq!(stats.get("conserved").and_then(|v| v.as_bool()), Some(true));

        // The killed shard's keys were served — by someone else.
        assert!(
            router.state().failovers() > 0,
            "seed {seed}: keys primary on the killed shard, yet no failovers"
        );
        total_failovers += router.state().failovers();

        drop(client);
        router.join();
        fleet.shutdown();
    }

    assert!(
        schedules.len() >= 6,
        "only {} distinct schedules across {} seeds",
        schedules.len(),
        FLEET_SEEDS.len()
    );
    assert!(total_failovers > 0, "no seed ever failed over");
}

// ---------------------------------------------------------------------------
// Health-plane recovery
// ---------------------------------------------------------------------------

#[test]
fn hung_shard_is_ejected_then_readmitted_by_a_half_open_probe() {
    let fleet = Fleet::boot(2);
    let router = route(&RouterConfig {
        shards: fleet.addrs.clone(),
        replicas: 2,
        vnodes: VNODES,
        probe_every: Duration::from_millis(30),
        probe_timeout: Duration::from_millis(40),
        trip_after: 1,
        cooloff: Duration::from_millis(80),
        ..RouterConfig::default()
    })
    .expect("bind router port");

    // Hang shard 0: its accept loop stays up, but every request — probe
    // pings included — stalls past the probe timeout.
    fleet.controls[0].stall_for(Duration::from_millis(400));
    assert!(
        wait_until(Duration::from_secs(3), || router.state().shard_state(0) == ShardState::Down),
        "hung shard never tripped the breaker"
    );
    assert!(router.state().ejections() >= 1);

    // Once the stall window lapses, the next half-open probe (after the
    // cooloff) must re-admit it — deterministically, on the first success.
    assert!(
        wait_until(Duration::from_secs(5), || router.state().shard_state(0) == ShardState::Up),
        "recovered shard was never re-admitted"
    );
    assert!(router.state().readmissions() >= 1, "recovery must count as a readmission");

    router.join();
    fleet.shutdown();
}

// ---------------------------------------------------------------------------
// Hedging
// ---------------------------------------------------------------------------

#[test]
fn hedged_search_beats_a_stalled_primary_on_the_replica() {
    let pool = reference_pool();
    let fleet = Fleet::boot(2);
    let router = route(&RouterConfig {
        shards: fleet.addrs.clone(),
        replicas: 2,
        vnodes: VNODES,
        hedge_after: Some(Duration::from_millis(25)),
        // Keep the probe plane quiet: this test isolates the hedge race.
        probe_every: Duration::from_secs(30),
        trip_after: 100,
        ..RouterConfig::default()
    })
    .expect("bind router port");

    let ring = HashRing::build(&fleet.addrs, VNODES);
    let (request, expected) = &pool[0];
    let primary = ring.primary(request_key(request));

    // Stall whichever shard owns the key; the hedge must win on the other.
    fleet.controls[primary].stall_for(Duration::from_millis(800));
    let mut client = RetryClient::tcp(router.addr(), test_policy(7));
    let started = Instant::now();
    let reply = client.search(request).expect("hedged search must succeed");
    let elapsed = started.elapsed();

    assert_eq!(&reply.payload_canonical, expected, "hedged payload diverged");
    assert!(router.state().hedges() >= 1, "the hedge never launched");
    assert!(router.state().failovers() >= 1, "the replica's win must count as a failover");
    assert!(router.state().is_conserved());
    assert!(
        elapsed < Duration::from_millis(600),
        "hedge should beat the 800ms stall, took {elapsed:?}"
    );

    drop(client);
    router.join();
    fleet.shutdown();
}

// ---------------------------------------------------------------------------
// A hung shard and the router's thread pool
// ---------------------------------------------------------------------------

#[test]
fn a_hung_shard_cannot_pin_the_router_thread_pool() {
    // Shard 0 is a listener nobody serves: connects complete in the kernel
    // backlog, and every forward sent to it waits for a reply that never
    // comes. Shard 1 is a real daemon.
    let hung = std::net::TcpListener::bind("127.0.0.1:0").expect("bind hung shard");
    let fleet = Fleet::boot(1);
    let addrs =
        vec![hung.local_addr().expect("hung shard addr").to_string(), fleet.addrs[0].clone()];
    let (request, expected) = request_primaried_on(&HashRing::build(&addrs, VNODES), 0);
    // A slow breaker (about a second to trip) so the forwards pin the pool
    // while the hung shard still counts as live.
    let router = route(&RouterConfig {
        shards: addrs.clone(),
        replicas: 2,
        vnodes: VNODES,
        probe_every: Duration::from_millis(200),
        probe_timeout: Duration::from_millis(200),
        trip_after: 3,
        cooloff: Duration::from_secs(30),
        ..RouterConfig::default()
    })
    .expect("bind router port");

    // More concurrent forwards than the router has threads
    // (shards × ServerConfig::default().workers, plus one).
    let pool = addrs.len() * ServerConfig::default().workers + 1;
    let searches: Vec<_> = (0..pool + 3)
        .map(|_| {
            let (addr, request) = (router.addr(), request.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect router");
                client.set_timeout(Some(Duration::from_secs(20))).expect("client timeout");
                client.search(&request).map(|reply| reply.payload_canonical)
            })
        })
        .collect();
    assert!(
        wait_until(Duration::from_secs(5), || router.state().routed() >= pool as u64),
        "the forwards never pinned the pool"
    );

    let mut ping = Client::connect(router.addr()).expect("connect router");
    ping.set_timeout(Some(Duration::from_secs(10))).expect("client timeout");
    ping.ping().expect("the router must answer ping while a shard hangs");
    assert_eq!(router.state().shard_state(0), ShardState::Down, "the hung shard was not ejected");
    for search in searches {
        let payload = search.join().expect("client thread").expect("search fails over");
        assert_eq!(payload, expected, "failed-over payload diverged");
    }
    let state = router.state();
    assert_eq!(state.failovers(), (pool + 3) as u64, "every search is served by the replica");
    assert!(state.is_conserved());

    drop(ping);
    router.join();
    drop(hung);
    fleet.shutdown();
}
