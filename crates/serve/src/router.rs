//! `pte-route` — the fault-tolerant routing tier in front of a `pte-serve`
//! fleet.
//!
//! One daemon is one failure domain; the router makes the *fleet* the unit
//! that has to die before a plan is lost. Three cooperating pieces:
//!
//! * **Consistent-hash ring** ([`HashRing`]): request keys — the same
//!   codec-independent FNV-1a content hashes the daemons cache under — map
//!   to shards through virtual nodes hashed from stable shard identities.
//!   Routing therefore survives router restarts bit-identically, ignores
//!   shard registration order, and a node join/leave moves only ~K/N keys
//!   (pinned by proptests in `tests/router_ring.rs`). The router decodes
//!   only the small *request* to compute the key; reply payloads are
//!   relayed verbatim — no payload decode on the hot path.
//! * **Health plane**: passive failure accounting on every forward plus a
//!   periodic active ping prober drive each shard through
//!   `Up → Degraded → Down`. The circuit breaker trips to `Down` after
//!   `trip_after` consecutive failures (bounded ejection time), and a
//!   half-open probe after `cooloff` re-admits the shard deterministically
//!   on its first successful ping.
//! * **Failover + hedging**: a failed forward retries the next ring
//!   replica — safe because request keys are idempotent content hashes
//!   (the [`RetryClient`](crate::retry) argument: any replica computes the
//!   byte-identical payload for the same canonical bytes). Optionally,
//!   slow cold searches are hedged to one replica with
//!   first-response-wins. The walk honours the request's `deadline_ms` as
//!   a wall-clock failover budget, mirroring `RetryPolicy::budget`.
//!
//! The router speaks both wire codecs through the daemons' own pipeline
//! ([`crate::wire`]: the same extractor, decoder and error encoder, so its
//! framing and error bytes are the daemons'), answers `ping` / `stats` /
//! `metrics` / `shutdown` itself, and forwards `search` bytes verbatim.
//! Its `stats` op exposes the router conservation law, asserted by the
//! fleet chaos suite: **`routed == forwarded + failovers + shed`** — every
//! routed search terminates as exactly one of "served by its primary",
//! "served by a non-primary replica", or "error surfaced to the client".

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::{Duration, Instant};

use pte_telemetry::{Counter, Gauge, Histogram};

use crate::client::Client;
use crate::json::{fnv1a64, Json};
use crate::poll::{PollFd, POLLIN};
use crate::wire::{self, json_count, Inbox, Message, Op, Reply, Wire};

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

// Process-wide aggregates (the `metrics` op exposes them alongside the
// per-router stats). The per-instance `RouterState` atomics stay
// authoritative for the `stats` op and the conservation law — tests boot
// many routers per process.
static ROUTED_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_route_routed_total"));
static FORWARDED_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_route_forwarded_total"));
static FAILOVER_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_route_failover_total"));
static HEDGE_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_route_hedge_total"));
static SHED_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_route_shed_total"));
static EJECT_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_route_eject_total"));
static READMIT_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_route_readmit_total"));
static PROBE_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_route_probe_total"));

fn init_metrics() {
    LazyLock::force(&ROUTED_TOTAL);
    LazyLock::force(&FORWARDED_TOTAL);
    LazyLock::force(&FAILOVER_TOTAL);
    LazyLock::force(&HEDGE_TOTAL);
    LazyLock::force(&SHED_TOTAL);
    LazyLock::force(&EJECT_TOTAL);
    LazyLock::force(&READMIT_TOTAL);
    LazyLock::force(&PROBE_TOTAL);
}

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

/// A consistent-hash ring with virtual nodes.
///
/// Each shard contributes `vnodes` points, hashed from its stable identity
/// string (`"{id}|vnode:{v}"`) — never from its position in the input
/// slice — so the point set is a pure function of the shard *identities*:
/// two routers built over the same fleet agree on every key, whatever
/// order their `--shards` lists were written in, and a restarted router
/// routes bit-identically.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard index)` sorted by point; ties (vanishingly rare with
    /// 64-bit points) break by shard id during construction.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring over the given shard identities.
    pub fn build(ids: &[String], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(ids.len() * vnodes);
        for (index, id) in ids.iter().enumerate() {
            for v in 0..vnodes {
                points.push((fnv1a64(format!("{id}|vnode:{v}").as_bytes()), index));
            }
        }
        points.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| ids[a.1].cmp(&ids[b.1])));
        HashRing { points, shards: ids.len() }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first point clockwise at or after it
    /// (wrapping to the ring's smallest point).
    pub fn primary(&self, key: u64) -> usize {
        self.replicas(key, 1)[0]
    }

    /// The first `count` *distinct* shards clockwise from `key`: the
    /// primary followed by the failover replicas, in deterministic ring
    /// order. Returns fewer when the ring has fewer shards.
    ///
    /// # Panics
    /// Panics on an empty ring (a router requires at least one shard).
    pub fn replicas(&self, key: u64, count: usize) -> Vec<usize> {
        assert!(!self.points.is_empty(), "ring has no shards");
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut out = Vec::with_capacity(count.min(self.shards));
        for offset in 0..self.points.len() {
            let (_, shard) = self.points[(start + offset) % self.points.len()];
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() >= count.min(self.shards).max(1) {
                    break;
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Health plane
// ---------------------------------------------------------------------------

/// Per-shard health state, driven by passive failure accounting and the
/// active prober.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving normally.
    Up,
    /// At least one recent consecutive failure, below the trip threshold:
    /// still routed to, but suspect.
    Degraded,
    /// Breaker tripped: ejected from routing (except as a last resort when
    /// every replica of a key is down) until a half-open probe succeeds.
    Down,
}

impl ShardState {
    /// Stable lowercase name (stats documents, logs).
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Up => "up",
            ShardState::Degraded => "degraded",
            ShardState::Down => "down",
        }
    }

    /// Gauge encoding: 0 = up, 1 = degraded, 2 = down.
    fn gauge_value(self) -> i64 {
        match self {
            ShardState::Up => 0,
            ShardState::Degraded => 1,
            ShardState::Down => 2,
        }
    }
}

#[derive(Debug)]
struct Health {
    state: ShardState,
    consecutive_failures: u32,
    /// When the shard last transitioned to (or re-failed within) `Down`;
    /// the half-open probe waits `cooloff` from here.
    since: Instant,
}

/// One fleet member: its address, health, counters, and telemetry handles.
struct ShardSlot {
    addr: String,
    health: Mutex<Health>,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    /// Per-shard state gauge (0/1/2), labelled by shard *index* — bounded
    /// cardinality, stable across router restarts.
    state_gauge: Gauge,
    /// Per-shard forward round-trip latency.
    rtt_us: Histogram,
}

impl ShardSlot {
    fn new(index: usize, addr: String) -> Self {
        let registry = pte_telemetry::global();
        let slot = ShardSlot {
            addr,
            health: Mutex::new(Health {
                state: ShardState::Up,
                consecutive_failures: 0,
                since: Instant::now(),
            }),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            state_gauge: registry.gauge(&format!("pte_route_shard_state{{shard=\"{index}\"}}")),
            rtt_us: registry.histogram(&format!("pte_route_shard_rtt_us{{shard=\"{index}\"}}")),
        };
        slot.state_gauge.set(ShardState::Up.gauge_value());
        slot
    }

    fn state(&self) -> ShardState {
        self.health.lock().expect("shard health").state
    }

    fn consecutive_failures(&self) -> u32 {
        self.health.lock().expect("shard health").consecutive_failures
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Router configuration. Defaults suit a small local fleet; the `pte-route`
/// bin maps flags and `PTE_ROUTE_*` environment fallbacks onto this.
#[derive(Clone)]
pub struct RouterConfig {
    /// Address to listen on (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Backend daemon addresses. Also the shards' stable ring identities,
    /// so a fleet list in any order builds the same ring.
    pub shards: Vec<String>,
    /// Distinct shards tried per key (primary + failover replicas).
    pub replicas: usize,
    /// Virtual nodes per shard.
    pub vnodes: usize,
    /// Hedge a search to the next replica when the primary has not replied
    /// within this window (`None` disables hedging).
    pub hedge_after: Option<Duration>,
    /// Active ping-probe cadence.
    pub probe_every: Duration,
    /// Read timeout on probe pings (a hung shard must fail its probe).
    pub probe_timeout: Duration,
    /// Consecutive failures that trip a shard's breaker to `Down`.
    pub trip_after: u32,
    /// How long a `Down` shard rests before a half-open probe may re-admit
    /// it. A failure during `Down` (e.g. a failed probe) restarts the
    /// clock.
    pub cooloff: Duration,
    /// How quickly idle handler threads and the accept thread notice
    /// shutdown (their read and `poll(2)` timeouts).
    pub poll_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            replicas: 2,
            vnodes: 64,
            hedge_after: None,
            probe_every: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(250),
            trip_after: 3,
            cooloff: Duration::from_secs(1),
            poll_interval: Duration::from_millis(25),
        }
    }
}

// ---------------------------------------------------------------------------
// Router state
// ---------------------------------------------------------------------------

/// Shared router state: the ring, the fleet's health, and the counters the
/// conservation law is asserted over.
pub struct RouterState {
    ring: HashRing,
    slots: Vec<ShardSlot>,
    replicas: usize,
    vnodes: usize,
    hedge_after: Option<Duration>,
    trip_after: u32,
    cooloff: Duration,
    probe_timeout: Duration,
    /// Search requests accepted for routing.
    routed: AtomicU64,
    /// Searches served by their primary shard.
    forwarded: AtomicU64,
    /// Searches served by a non-primary replica (failover or hedge win).
    failovers: AtomicU64,
    /// Hedge attempts launched (informational; not part of the law).
    hedges: AtomicU64,
    /// Searches that exhausted every replica and surfaced an error.
    shed: AtomicU64,
    /// Breaker trips (Up/Degraded → Down transitions).
    ejections: AtomicU64,
    /// Down → Up recoveries through a half-open probe or live forward.
    readmissions: AtomicU64,
    /// Active probes sent.
    probes: AtomicU64,
    /// All protocol requests handled (every op, errors included).
    requests: AtomicU64,
    connections: AtomicU64,
    started: Instant,
    stop: AtomicBool,
}

impl RouterState {
    /// Search requests accepted for routing.
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// Searches served by their primary shard.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Searches served by a non-primary replica.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Hedge attempts launched.
    pub fn hedges(&self) -> u64 {
        self.hedges.load(Ordering::Relaxed)
    }

    /// Searches that exhausted every replica.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Breaker trips.
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// Down → Up recoveries.
    pub fn readmissions(&self) -> u64 {
        self.readmissions.load(Ordering::Relaxed)
    }

    /// The router conservation law: every routed search terminated exactly
    /// one way.
    pub fn is_conserved(&self) -> bool {
        self.routed() == self.forwarded() + self.failovers() + self.shed()
    }

    /// Current state of shard `index`.
    pub fn shard_state(&self, index: usize) -> ShardState {
        self.slots[index].state()
    }

    /// Whether shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Passive/active failure accounting: bumps the consecutive-failure
    /// count, degrades on the first failure, trips the breaker at
    /// `trip_after` (bounded ejection time: a dead shard is `Down` after at
    /// most `trip_after` contacts). A failure while already `Down` restarts
    /// the cooloff clock.
    fn record_failure(&self, index: usize) {
        let slot = &self.slots[index];
        let mut health = slot.health.lock().expect("shard health");
        health.consecutive_failures = health.consecutive_failures.saturating_add(1);
        match health.state {
            ShardState::Down => health.since = Instant::now(),
            _ if health.consecutive_failures >= self.trip_after => {
                health.state = ShardState::Down;
                health.since = Instant::now();
                self.ejections.fetch_add(1, Ordering::Relaxed);
                EJECT_TOTAL.inc();
            }
            _ => health.state = ShardState::Degraded,
        }
        slot.state_gauge.set(health.state.gauge_value());
    }

    /// Any successful round trip fully re-admits the shard (deterministic
    /// recovery: one success, whatever the failure history).
    fn record_success(&self, index: usize) {
        let slot = &self.slots[index];
        let mut health = slot.health.lock().expect("shard health");
        if health.state == ShardState::Down {
            self.readmissions.fetch_add(1, Ordering::Relaxed);
            READMIT_TOTAL.inc();
        }
        health.state = ShardState::Up;
        health.consecutive_failures = 0;
        slot.state_gauge.set(ShardState::Up.gauge_value());
    }

    /// Whether the prober should half-open-probe this shard now: `Down`
    /// and past its cooloff. (`Up`/`Degraded` shards are probed on every
    /// sweep regardless — that is how a hung-but-connected shard trips.)
    fn probe_due(&self, index: usize) -> bool {
        let health = self.slots[index].health.lock().expect("shard health");
        health.state != ShardState::Down || health.since.elapsed() >= self.cooloff
    }
}

// ---------------------------------------------------------------------------
// Handle + bootstrap
// ---------------------------------------------------------------------------

/// A running router: bound address plus shutdown/join handles.
pub struct Router {
    addr: SocketAddr,
    state: Arc<RouterState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    prober_thread: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Router {
    /// The address the router actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (counters + health), for in-process observability.
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Signals shutdown; threads notice within one poll interval.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
    }

    /// Signals shutdown and joins every thread.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        if let Some(thread) = self.prober_thread.take() {
            let _ = thread.join();
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler threads"));
        for thread in handlers {
            let _ = thread.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
    }
}

/// Starts the router: builds the ring, binds, spawns the accept loop and
/// the prober, and returns immediately.
///
/// # Errors
/// Propagates bind failures; rejects an empty shard list.
pub fn route(config: &RouterConfig) -> io::Result<Router> {
    if config.shards.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "router needs at least one shard"));
    }
    init_metrics();
    let ring = HashRing::build(&config.shards, config.vnodes);
    let slots: Vec<ShardSlot> =
        config.shards.iter().enumerate().map(|(i, addr)| ShardSlot::new(i, addr.clone())).collect();
    let state = Arc::new(RouterState {
        ring,
        slots,
        replicas: config.replicas.max(1),
        vnodes: config.vnodes.max(1),
        hedge_after: config.hedge_after,
        trip_after: config.trip_after.max(1),
        cooloff: config.cooloff,
        probe_timeout: config.probe_timeout,
        routed: AtomicU64::new(0),
        forwarded: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        hedges: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        ejections: AtomicU64::new(0),
        readmissions: AtomicU64::new(0),
        probes: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        started: Instant::now(),
        stop: AtomicBool::new(false),
    });

    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let poll = config.poll_interval.max(Duration::from_millis(1));

    let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_state = Arc::clone(&state);
    let accept_handlers = Arc::clone(&handlers);
    let accept_thread = std::thread::spawn(move || {
        // Blocks in `poll(2)` on the listener, so a connecting client is
        // accepted at once; the timeout only bounds how long a stop waits.
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        while !accept_state.is_stopping() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(&accept_state);
                    let thread = std::thread::spawn(move || handle_client(stream, &state, poll));
                    accept_handlers.lock().expect("handler threads").push(thread);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if crate::poll::wait(&mut fds, Some(poll)).is_err() {
                        std::thread::sleep(poll);
                    }
                }
                Err(_) => std::thread::sleep(poll),
            }
        }
    });

    let prober_state = Arc::clone(&state);
    let probe_every = config.probe_every.max(Duration::from_millis(1));
    let prober_thread = std::thread::spawn(move || {
        // Sleep in small ticks so shutdown joins promptly even with slow
        // probe cadences.
        let tick = probe_every.min(Duration::from_millis(25));
        let mut since = probe_every; // first sweep runs immediately
        while !prober_state.is_stopping() {
            if since >= probe_every {
                since = Duration::ZERO;
                probe_sweep(&prober_state);
            }
            std::thread::sleep(tick);
            since += tick;
        }
    });

    Ok(Router {
        addr,
        state,
        accept_thread: Some(accept_thread),
        prober_thread: Some(prober_thread),
        handlers,
    })
}

/// One prober sweep: ping every shard that is due. Live shards get a
/// liveness check (catching hangs the request path would otherwise only
/// discover by blocking); `Down` shards past their cooloff get the
/// half-open probe whose success re-admits them.
fn probe_sweep(state: &Arc<RouterState>) {
    for index in 0..state.slots.len() {
        if state.is_stopping() || !state.probe_due(index) {
            continue;
        }
        state.probes.fetch_add(1, Ordering::Relaxed);
        PROBE_TOTAL.inc();
        if ping_shard(&state.slots[index].addr, state.probe_timeout) {
            state.record_success(index);
        } else {
            state.record_failure(index);
        }
    }
}

/// A single bounded ping over the JSON codec (one line out, one line back).
fn ping_shard(addr: &str, timeout: Duration) -> bool {
    let Ok(mut client) = Client::connect(addr) else { return false };
    client.set_timeout(Some(timeout.max(Duration::from_millis(1)))).is_ok() && client.ping().is_ok()
}

// ---------------------------------------------------------------------------
// Client handling
// ---------------------------------------------------------------------------

/// Per-connection handler: cuts messages with the daemons' extractor,
/// answers control ops locally, and forwards searches through the ring.
fn handle_client(stream: TcpStream, state: &Arc<RouterState>, poll: Duration) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(poll));
    state.connections.fetch_add(1, Ordering::Relaxed);
    let mut backends: HashMap<usize, Backend> = HashMap::new();
    let result = client_loop(stream, state, &mut backends);
    state.connections.fetch_sub(1, Ordering::Relaxed);
    drop(result);
}

fn client_loop(
    mut stream: TcpStream,
    state: &Arc<RouterState>,
    backends: &mut HashMap<usize, Backend>,
) -> io::Result<()> {
    let mut inbox = Inbox::default();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        // Answer every complete message already buffered.
        loop {
            match inbox.next() {
                Ok(Some(message)) => {
                    let reply = respond(&message, state, backends);
                    stream.write_all(&reply.encode(message.wire))?;
                }
                Ok(None) => break,
                Err(error_reply) => {
                    // Framing is lost: answer and close, as the daemons do.
                    return stream.write_all(&error_reply);
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => inbox.push(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.is_stopping() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// A pooled backend connection (sticky per handler thread, lazily opened,
/// dropped on the first I/O failure).
struct Backend {
    stream: TcpStream,
    /// Reassembly of reply bytes, in the codec of the forwarded requests.
    inbox: Inbox,
}

impl Backend {
    fn connect(addr: &str, wire: Wire) -> io::Result<Backend> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Backend { stream, inbox: Inbox::speaking(wire) })
    }

    /// One strict request/reply round trip: write the raw message bytes,
    /// read exactly one reply message (a JSON line or a binary frame,
    /// matching the bytes we forwarded), and return the reply verbatim.
    fn round_trip(&mut self, raw: &[u8], timeout: Option<Duration>) -> io::Result<Vec<u8>> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.write_all(raw)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.inbox.next() {
                Ok(Some(reply)) => return Ok(reply.into_raw()),
                Ok(None) => {}
                Err(_) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "shard reply framing"))
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "shard closed mid-reply",
                    ))
                }
                Ok(n) => self.inbox.push(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Search forwarding: failover + hedging
// ---------------------------------------------------------------------------

/// Why a routed search was shed back to the client.
enum Shed {
    /// Every candidate replica failed at the transport level.
    Exhausted,
    /// The failover budget (the request's own `deadline_ms`) ran out
    /// before a replica answered.
    Deadline,
}

/// Forwards one search's raw bytes through the ring with failover and
/// optional hedging, returning the raw reply bytes to relay verbatim.
///
/// Accounting contract (the conservation law): the caller has already
/// counted the search as `routed`; this function counts exactly one of
/// `forwarded` / `failovers` / `shed` before returning.
fn forward_search(
    state: &Arc<RouterState>,
    backends: &mut HashMap<usize, Backend>,
    key: u64,
    message: &Message,
    deadline_ms: Option<u64>,
) -> Result<Vec<u8>, Shed> {
    let started = Instant::now();
    let budget = deadline_ms.map(Duration::from_millis);
    let candidates = state.ring.replicas(key, state.replicas);
    // Available shards first (ring order), tripped shards last — a fully
    // tripped candidate set is still tried, as the last resort, so a
    // recovered-but-not-yet-probed fleet converges through live traffic
    // too, not only through the prober.
    let mut order: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&s| state.slots[s].state() != ShardState::Down)
        .collect();
    let tripped: Vec<usize> = candidates.iter().copied().filter(|s| !order.contains(s)).collect();
    order.extend(tripped);
    debug_assert_eq!(order.len(), candidates.len());

    // Hedged path: race the first two candidates, first response wins.
    if let (Some(hedge_after), true) = (state.hedge_after, order.len() >= 2) {
        if let Some(result) =
            forward_hedged(state, &candidates, &order, message, hedge_after, budget)
        {
            return result;
        }
        // Both hedge attempts failed; fall through to walk the remainder.
    }

    let sequential: Vec<usize> =
        if state.hedge_after.is_some() && order.len() >= 2 { order[2..].to_vec() } else { order };
    for shard in sequential {
        if over_budget(started, budget) {
            state.shed.fetch_add(1, Ordering::Relaxed);
            SHED_TOTAL.inc();
            return Err(Shed::Deadline);
        }
        match forward_once(state, backends, shard, message) {
            Ok(reply) => {
                settle(state, &candidates, shard, started);
                return Ok(reply);
            }
            Err(_) => state.record_failure(shard),
        }
    }
    state.shed.fetch_add(1, Ordering::Relaxed);
    SHED_TOTAL.inc();
    Err(Shed::Exhausted)
}

fn over_budget(started: Instant, budget: Option<Duration>) -> bool {
    budget.is_some_and(|b| started.elapsed() >= b)
}

/// Terminal accounting for a served search: primary service is a forward,
/// replica service is a failover; either way the serving shard is healthy.
fn settle(state: &Arc<RouterState>, candidates: &[usize], shard: usize, started: Instant) {
    state.record_success(shard);
    state.slots[shard].rtt_us.record_duration_us(started.elapsed());
    if candidates.first() == Some(&shard) {
        state.forwarded.fetch_add(1, Ordering::Relaxed);
        state.slots[shard].forwarded.fetch_add(1, Ordering::Relaxed);
        FORWARDED_TOTAL.inc();
    } else {
        state.failovers.fetch_add(1, Ordering::Relaxed);
        state.slots[shard].failovers.fetch_add(1, Ordering::Relaxed);
        FAILOVER_TOTAL.inc();
    }
}

/// One forward over the handler's pooled connection, with a single
/// fresh-connection retry when a *pooled* connection turns out stale (the
/// daemon idle-closed it): a stale pool entry must not count as a shard
/// failure.
fn forward_once(
    state: &Arc<RouterState>,
    backends: &mut HashMap<usize, Backend>,
    shard: usize,
    message: &Message,
) -> io::Result<Vec<u8>> {
    let addr = &state.slots[shard].addr;
    let pooled = backends.contains_key(&shard);
    if !pooled {
        backends.insert(shard, Backend::connect(addr, message.wire)?);
    }
    let backend = backends.get_mut(&shard).expect("just inserted");
    match backend.round_trip(message.raw(), None) {
        Ok(reply) => Ok(reply),
        Err(e) => {
            backends.remove(&shard);
            if !pooled {
                return Err(e);
            }
            // The pooled connection was stale; one fresh attempt.
            let mut fresh = Backend::connect(addr, message.wire)?;
            let reply = fresh.round_trip(message.raw(), None)?;
            backends.insert(shard, fresh);
            Ok(reply)
        }
    }
}

/// The hedged race: the primary gets `hedge_after` to answer on a fresh
/// connection; past that, one replica is launched and the first successful
/// response wins (the loser's connection is simply dropped — safe, because
/// both compute the byte-identical payload for the same content-hash key).
///
/// Returns `None` when both racers failed at the transport level (caller
/// falls back to the sequential walk over the remaining candidates).
fn forward_hedged(
    state: &Arc<RouterState>,
    candidates: &[usize],
    order: &[usize],
    message: &Message,
    hedge_after: Duration,
    budget: Option<Duration>,
) -> Option<Result<Vec<u8>, Shed>> {
    let started = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, io::Result<Vec<u8>>)>();
    let spawn_attempt =
        |shard: usize, tx: std::sync::mpsc::Sender<(usize, io::Result<Vec<u8>>)>| {
            let addr = state.slots[shard].addr.clone();
            let (raw, wire) = (message.raw().to_vec(), message.wire);
            // Bound the racer's read so an abandoned attempt cannot pin its
            // thread forever: the budget when present, a generous cap otherwise.
            let cap = budget.unwrap_or(Duration::from_secs(120));
            std::thread::spawn(move || {
                let result = Backend::connect(&addr, wire)
                    .and_then(|mut backend| backend.round_trip(&raw, Some(cap)));
                let _ = tx.send((shard, result));
            });
        };

    spawn_attempt(order[0], tx.clone());
    let mut launched = 1usize;
    let mut failed = 0usize;
    loop {
        let wait = if launched == 1 { hedge_after } else { remaining(started, budget) };
        match rx.recv_timeout(wait) {
            Ok((shard, Ok(reply))) => {
                settle(state, candidates, shard, started);
                return Some(Ok(reply));
            }
            Ok((shard, Err(_))) => {
                state.record_failure(shard);
                failed += 1;
                if failed == launched {
                    if launched == 1 {
                        // Primary failed before the hedge window: launch the
                        // replica immediately rather than giving up.
                        state.hedges.fetch_add(1, Ordering::Relaxed);
                        HEDGE_TOTAL.inc();
                        spawn_attempt(order[1], tx.clone());
                        launched = 2;
                    } else {
                        return None;
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) if launched == 1 => {
                state.hedges.fetch_add(1, Ordering::Relaxed);
                HEDGE_TOTAL.inc();
                spawn_attempt(order[1], tx.clone());
                launched = 2;
            }
            Err(_) => {
                // Budget exhausted (or both senders gone without a reply).
                state.shed.fetch_add(1, Ordering::Relaxed);
                SHED_TOTAL.inc();
                return Some(Err(Shed::Deadline));
            }
        }
    }
}

fn remaining(started: Instant, budget: Option<Duration>) -> Duration {
    match budget {
        Some(b) => b.saturating_sub(started.elapsed()),
        None => Duration::from_secs(120),
    }
}

// ---------------------------------------------------------------------------
// Op dispatch
// ---------------------------------------------------------------------------

/// Decodes and handles one client message: control ops answered locally,
/// searches forwarded as the bytes the client sent, their replies relayed
/// verbatim.
fn respond(
    message: &Message,
    state: &Arc<RouterState>,
    backends: &mut HashMap<usize, Backend>,
) -> Reply {
    state.requests.fetch_add(1, Ordering::Relaxed);
    let search = match message.decode() {
        Ok(Op::Search(search)) => search,
        Ok(Op::Control(control)) => {
            return wire::control(control, || stats_json(state), |_| {}, &state.stop)
        }
        Err(rejected) => return rejected.into(),
    };
    // Routed under the key the daemons cache under, so one key maps one way
    // through the ring whatever codec carried it.
    let key = match search.request.canonical_key() {
        Ok((_, key)) => key,
        Err(e) => return Reply::error(e.to_string(), false, None),
    };
    state.routed.fetch_add(1, Ordering::Relaxed);
    ROUTED_TOTAL.inc();
    match forward_search(state, backends, key, message, search.deadline_ms) {
        Ok(reply) => Reply::Relayed(reply),
        Err(Shed::Exhausted) => Reply::error("no shard available", true, Some(250)),
        Err(Shed::Deadline) => Reply::error("deadline", true, None),
    }
}

// ---------------------------------------------------------------------------
// Stats / metrics
// ---------------------------------------------------------------------------

/// The router stats document: conservation-law counters, health-plane
/// totals, and one entry per shard.
fn stats_json(state: &Arc<RouterState>) -> Json {
    let shards: Vec<Json> = state
        .slots
        .iter()
        .enumerate()
        .map(|(index, slot)| {
            Json::obj(vec![
                ("index", json_count(index as u64)),
                ("addr", Json::Str(slot.addr.clone())),
                ("state", Json::Str(slot.state().name().to_string())),
                ("consecutive_failures", json_count(u64::from(slot.consecutive_failures()))),
                ("forwarded", json_count(slot.forwarded.load(Ordering::Relaxed))),
                ("failovers", json_count(slot.failovers.load(Ordering::Relaxed))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("role", Json::Str("router".into())),
        ("requests", json_count(state.requests.load(Ordering::Relaxed))),
        ("connections", json_count(state.connections.load(Ordering::Relaxed))),
        ("routed", json_count(state.routed())),
        ("forwarded", json_count(state.forwarded())),
        ("failovers", json_count(state.failovers())),
        ("hedges", json_count(state.hedges())),
        ("shed", json_count(state.shed())),
        ("ejections", json_count(state.ejections())),
        ("readmissions", json_count(state.readmissions())),
        ("probes", json_count(state.probes.load(Ordering::Relaxed))),
        // The conservation law, pre-checked: `routed == forwarded +
        // failovers + shed`.
        ("conserved", Json::Bool(state.is_conserved())),
        ("replicas", json_count(state.replicas as u64)),
        ("vnodes", json_count(state.vnodes as u64)),
        ("uptime_ms", Json::Float(state.started.elapsed().as_secs_f64() * 1e3)),
        ("shards", Json::Arr(shards)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    fn test_state(shards: usize, trip_after: u32) -> Arc<RouterState> {
        let ids = ids(shards);
        Arc::new(RouterState {
            ring: HashRing::build(&ids, 16),
            slots: ids.iter().enumerate().map(|(i, a)| ShardSlot::new(i, a.clone())).collect(),
            replicas: 2,
            vnodes: 16,
            hedge_after: None,
            trip_after,
            cooloff: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(50),
            routed: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            started: Instant::now(),
            stop: AtomicBool::new(false),
        })
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let ring_a = HashRing::build(&ids(5), 64);
        let ring_b = HashRing::build(&ids(5), 64);
        let mut seen = std::collections::HashSet::new();
        for key in 0..2000u64 {
            let hashed = fnv1a64(&key.to_le_bytes());
            assert_eq!(ring_a.primary(hashed), ring_b.primary(hashed));
            seen.insert(ring_a.primary(hashed));
        }
        assert_eq!(seen.len(), 5, "every shard must own keys: {seen:?}");
    }

    #[test]
    fn replicas_are_distinct_and_start_with_the_primary() {
        let ring = HashRing::build(&ids(4), 32);
        for key in 0..500u64 {
            let hashed = fnv1a64(&key.to_le_bytes());
            let replicas = ring.replicas(hashed, 3);
            assert_eq!(replicas.len(), 3);
            assert_eq!(replicas[0], ring.primary(hashed));
            let distinct: std::collections::HashSet<_> = replicas.iter().collect();
            assert_eq!(distinct.len(), 3, "replicas must be distinct shards");
        }
    }

    #[test]
    fn replica_count_clamps_to_fleet_size() {
        let ring = HashRing::build(&ids(2), 8);
        assert_eq!(ring.replicas(42, 5).len(), 2);
        let solo = HashRing::build(&ids(1), 8);
        assert_eq!(solo.replicas(42, 3), vec![0]);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_recovers_on_success() {
        let state = test_state(3, 3);
        assert_eq!(state.shard_state(0), ShardState::Up);
        state.record_failure(0);
        assert_eq!(state.shard_state(0), ShardState::Degraded);
        state.record_failure(0);
        assert_eq!(state.shard_state(0), ShardState::Degraded);
        state.record_failure(0);
        assert_eq!(state.shard_state(0), ShardState::Down, "third failure trips");
        assert_eq!(state.ejections(), 1);
        state.record_success(0);
        assert_eq!(state.shard_state(0), ShardState::Up, "one success re-admits");
        assert_eq!(state.readmissions(), 1);
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let state = test_state(3, 3);
        state.record_failure(1);
        state.record_failure(1);
        state.record_success(1);
        state.record_failure(1);
        state.record_failure(1);
        assert_eq!(state.shard_state(1), ShardState::Degraded, "count must have reset");
        assert_eq!(state.ejections(), 0);
    }

    #[test]
    fn down_shards_wait_out_their_cooloff_before_probing() {
        let state = test_state(2, 1);
        state.record_failure(0);
        assert_eq!(state.shard_state(0), ShardState::Down);
        assert!(!state.probe_due(0), "fresh trip must rest through the cooloff");
        assert!(state.probe_due(1), "healthy shards probe every sweep");
        std::thread::sleep(Duration::from_millis(60));
        assert!(state.probe_due(0), "past the cooloff the half-open probe is due");
    }

    #[test]
    fn conservation_law_holds_over_counter_updates() {
        let state = test_state(2, 3);
        assert!(state.is_conserved(), "all-zero counters conserve");
        state.routed.fetch_add(3, Ordering::Relaxed);
        state.forwarded.fetch_add(1, Ordering::Relaxed);
        state.failovers.fetch_add(1, Ordering::Relaxed);
        assert!(!state.is_conserved(), "a routed search in flight is not yet terminal");
        state.shed.fetch_add(1, Ordering::Relaxed);
        assert!(state.is_conserved());
    }

    #[test]
    fn stats_document_carries_the_law_and_every_shard() {
        let state = test_state(3, 3);
        let doc = stats_json(&state);
        assert_eq!(doc.get("conserved").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("role").and_then(Json::as_str), Some("router"));
        match doc.get("shards") {
            Some(Json::Arr(entries)) => {
                assert_eq!(entries.len(), 3);
                for entry in entries {
                    assert_eq!(entry.get("state").and_then(Json::as_str), Some("up"));
                }
            }
            other => panic!("shards must be an array, got {other:?}"),
        }
    }

    #[test]
    fn error_envelopes_match_the_daemon_wire_format() {
        // A local rejection goes through the shared decoder and encoder, so
        // it carries the daemon's bytes over both codecs.
        let state = test_state(1, 3);
        let mut backends = HashMap::new();
        let cases: [(&[u8], Reply); 3] = [
            (
                b"{\"op\":\"search\",\"request\":{\"v\":1}}\n",
                Reply::error("codec error: request: missing field `network`", false, None),
            ),
            (
                b"{\"op\":\n",
                Reply::error("json error: byte 6: unexpected end of input", false, None),
            ),
            (
                &[0xB1, 0x02, 0x01, 0x04],
                Reply::error("codec error: unknown search flags 4", false, None),
            ),
        ];
        for (request, expected) in cases {
            let mut inbox = Inbox::default();
            inbox.push(request);
            let message = inbox.next().ok().flatten().expect("one message");
            let wire = message.wire;
            let reply = respond(&message, &state, &mut backends).encode(wire);
            assert_eq!(reply, expected.encode(wire));
        }
        assert_eq!(state.routed(), 0, "rejected requests are never routed");
    }
}
