//! The std-only TCP search server: a nonblocking event loop in front of a
//! fixed worker pool.
//!
//! ## Wire formats
//!
//! Two codecs share one port, auto-detected per connection from its first
//! byte and sticky for the connection's lifetime:
//!
//! * **JSON lines** (first byte anything but `0xB1` — a JSON document opens
//!   with `{`): one request document per line, one response document per
//!   line. Operations: `search` (optional op-level `deadline_ms` outside
//!   the `request` subtree, so it can never change the canonical bytes or
//!   the cache key), `stats`, `metrics`, `ping`, `shutdown`. Malformed
//!   lines get `{"ok":false,...}` and the connection stays up.
//! * **Binary frames** (first byte [`codec_bin::FRAME_MAGIC`]): the
//!   length-prefixed frames of [`codec_bin`], carrying the same operations
//!   with varint-packed bodies. Malformed frame *bodies* get a
//!   [`codec_bin::kind::REPLY_ERROR`] frame and the connection survives;
//!   malformed *framing* (bad magic, oversized or overlong length) is
//!   unrecoverable — the stream cannot be resynchronised — so the server
//!   answers one error frame and closes, the binary analogue of the JSON
//!   1 MiB line-cap close.
//!
//! Both codecs decode to the same [`Op`] ([`crate::wire`], shared with the
//! router) and canonicalise to the same bytes, so **one request key maps to
//! one cache entry regardless of wire format** — a plan cached by a JSON
//! client is a warm hit for a binary client and vice versa. Nothing after
//! decode knows which codec carried a request.
//!
//! ## Threading
//!
//! The daemon runs on the connection core ([`crate::conn`]): one event loop
//! owning the listener and every connection, blocking in `poll(2)`, taken
//! in turn by a fixed pool of `workers + 1` threads (leader/followers).
//! [`ServerState`] is the core's [`Service`]. The thread running the loop
//! decodes each message it cuts, once, keys a search and peeks the plan
//! cache: a hit — the common case of a warm daemon — is encoded and
//! written to the socket right there, with no hand-off and no wake-up, as
//! are `stats`, `ping` and malformed requests. A miss, `metrics` and
//! `shutdown` become a [`Dispatched`] job carrying the decoded op: the
//! thread hands the loop on and answers it through the request pipeline
//! below. Replies leave each connection in request order; at most one job
//! per connection is in flight at a time.
//!
//! ## Failure containment (unchanged contract)
//!
//! * **Bounded admission**: at most `max_pending_searches` non-hit searches
//!   in flight; overflow answers `overloaded` + `retry_after_ms`
//!   immediately. Cache *hits* bypass admission entirely (a non-blocking
//!   [`PlanCache::peek`]), so a saturated daemon degrades to a read-only
//!   cache instead of hanging everyone.
//! * **Panic isolation**: request handling runs under `catch_unwind`, on
//!   the loop thread and in the workers alike; a panicking handler answers
//!   `internal panic` on its own connection and the daemon keeps serving.
//!   A panicking single-flight leader wakes its waiters (one retries, the
//!   rest get the failure).
//! * **Fault injection**: an optional [`FaultHook`] is consulted per
//!   request (on the loop thread, one ordinal per request in arrival
//!   order) and per cache-miss compute. A request it picks is never
//!   answered inline: its action travels with the dispatched job and runs
//!   *in the workers* — an injected stall or panic pins one thread, and
//!   the event loop runs on the others, so the daemon keeps accepting and
//!   serving hits while a handler is wedged.
//! * **Graceful drain**: shutdown stops accepting, lets in-flight requests
//!   finish, delivers their replies, then closes everything and joins.
//!
//! ## Warm-start persistence
//!
//! With `store_path` set, every single-flight leader's published payload is
//! appended to a CRC-framed log ([`crate::store`]); on boot the log is
//! replayed into the cache (truncating a torn tail from a crash), so a
//! restarted daemon answers its working set as bit-identical cache hits
//! from the first request.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use pte_core::search::CancelToken;
use pte_telemetry::{Counter, Gauge, Histogram, Trace};

use crate::cache::{CacheStats, PlanCache};
use crate::codec::{self, ErrorClass};
use crate::conn::{self, Core, Outcome, Service};
use crate::fault::{FaultAction, FaultHook, FaultPoint};
use crate::json::{fnv1a64, Json};
use crate::store::PlanStore;
use crate::wire::{
    self, json_count, Control, Message, Op, Rejected, Reply, SearchOp, Served, Wire,
};

// ---------------------------------------------------------------------------
// Telemetry handles
// ---------------------------------------------------------------------------
//
// Every handle is a `LazyLock` static forced once by [`init_metrics`]
// (called from `serve` before any thread spawns), so steady-state recording
// is pure atomics — the event loop and the workers never touch the registry
// mutex. The per-instance `ServerState` counters stay authoritative for the
// `stats` op (tests boot many daemons per process); the process-wide
// registry carries the histograms, gauges and aggregate counters the
// `metrics` op exposes alongside them.

static QUEUE_DEPTH: LazyLock<Gauge> =
    LazyLock::new(|| pte_telemetry::global().gauge("pte_queue_depth"));
static SHED_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_shed_total"));
static DEADLINE_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_deadline_total"));
static PANIC_TOTAL: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_panic_total"));
static REQ_SEARCH_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_search_us"));
static REQ_STATS_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_stats_us"));
static REQ_METRICS_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_metrics_us"));
static REQ_PING_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_ping_us"));
static REQ_SHUTDOWN_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_shutdown_us"));
static REQ_JSON_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_json_us"));
static REQ_BINARY_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_request_binary_us"));

/// A control op's request-latency histogram.
fn control_histogram(control: Control) -> &'static Histogram {
    match control {
        Control::Stats => &REQ_STATS_US,
        Control::Metrics => &REQ_METRICS_US,
        Control::Ping => &REQ_PING_US,
        Control::Shutdown => &REQ_SHUTDOWN_US,
    }
}

/// Eagerly registers every metric this daemon can emit — the server's own
/// handles plus the Evaluator's and probe layer's — so a `metrics` scrape
/// lists all names before any traffic, and so no request thread ever pays
/// the registration lock.
fn init_metrics() {
    LazyLock::force(&QUEUE_DEPTH);
    LazyLock::force(&SHED_TOTAL);
    LazyLock::force(&DEADLINE_TOTAL);
    LazyLock::force(&PANIC_TOTAL);
    LazyLock::force(&REQ_SEARCH_US);
    LazyLock::force(&REQ_STATS_US);
    LazyLock::force(&REQ_METRICS_US);
    LazyLock::force(&REQ_PING_US);
    LazyLock::force(&REQ_SHUTDOWN_US);
    LazyLock::force(&REQ_JSON_US);
    LazyLock::force(&REQ_BINARY_US);
    pte_telemetry::global().histogram("pte_span_search_us");
    pte_telemetry::global().histogram("pte_span_evolve_class_us");
    pte_telemetry::global().histogram("pte_cache_hit_us");
    pte_telemetry::global().histogram("pte_cache_miss_us");
    pte_telemetry::global().counter("pte_store_append_bytes_total");
    pte_core::search::eval::init_metrics();
    pte_core::fisher::proxy::init_metrics();
}

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing requests; the core runs one thread more,
    /// and any free thread runs the event loop. Searches, stalls and
    /// coalesced waits pin threads; the loop never blocks on any of them.
    pub workers: usize,
    /// Plan-cache entry capacity.
    pub cache_capacity: usize,
    /// Plan-cache shard count.
    pub cache_shards: usize,
    /// Connections idle (no completed request) for longer than this are
    /// closed. Idle connections cost no threads, but each holds a socket
    /// and a slot in the poll set; the timeout bounds how long a silent
    /// client keeps them. Connections with a request in flight are exempt.
    pub idle_timeout: Duration,
    /// Maximum non-hit search requests in flight before new ones are shed
    /// with an `overloaded` reply (0 sheds every non-hit). Cache hits are
    /// exempt.
    pub max_pending_searches: usize,
    /// The `retry_after_ms` hint attached to `overloaded` replies.
    pub retry_after_ms: u64,
    /// Deadline applied to searches whose request carries none (0 = no
    /// default deadline).
    pub default_deadline_ms: u64,
    /// Append-only plan-log path: replayed into the cache on boot (warm
    /// start), appended on every leader publish. `None` disables
    /// persistence.
    pub store_path: Option<PathBuf>,
    /// Deterministic fault-injection hook (chaos tests only; `None` in
    /// production costs one branch per request).
    pub fault_hook: Option<FaultHook>,
    /// Interval between periodic metrics snapshots (the `--metrics-every-ms`
    /// flag). `None` disables the snapshot thread.
    pub metrics_every: Option<Duration>,
    /// File periodic snapshots are appended to, one JSON document per line
    /// (the same document the `stats` op serves, for offline plotting).
    /// Defaults to `pte_metrics.jsonl` when an interval is set.
    pub metrics_path: Option<PathBuf>,
}

impl fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_shards", &self.cache_shards)
            .field("idle_timeout", &self.idle_timeout)
            .field("max_pending_searches", &self.max_pending_searches)
            .field("retry_after_ms", &self.retry_after_ms)
            .field("default_deadline_ms", &self.default_deadline_ms)
            .field("store_path", &self.store_path)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("metrics_every", &self.metrics_every)
            .field("metrics_path", &self.metrics_path)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            cache_capacity: 256,
            cache_shards: 8,
            idle_timeout: Duration::from_secs(60),
            max_pending_searches: 32,
            retry_after_ms: 200,
            default_deadline_ms: 0,
            store_path: None,
            fault_hook: None,
            metrics_every: None,
            metrics_path: None,
        }
    }
}

/// Shared server state: the plan cache plus request counters.
pub struct ServerState {
    /// The sharded single-flight plan cache.
    pub cache: PlanCache,
    requests: AtomicU64,
    searches: AtomicU64,
    errors: AtomicU64,
    /// Search requests shed by admission control.
    shed: AtomicU64,
    /// Searches aborted by their deadline.
    deadlines: AtomicU64,
    /// Handler panics contained by `catch_unwind`.
    panics: AtomicU64,
    /// Non-hit search requests currently in flight (admission gauge).
    inflight: AtomicU64,
    /// Open connections (event-loop gauge).
    connections: AtomicU64,
    /// Requests answered over the JSON line codec.
    codec_json: AtomicU64,
    /// Requests answered over the binary frame codec.
    codec_binary: AtomicU64,
    /// Global request ordinal (fault-hook addressing), both codecs.
    request_seq: AtomicU64,
    /// Global cache-miss compute ordinal (fault-hook addressing).
    compute_seq: AtomicU64,
    max_pending_searches: u64,
    retry_after_ms: u64,
    default_deadline_ms: u64,
    idle_timeout_ms: u64,
    /// The append-only plan log (None = persistence disabled).
    store: Option<Arc<PlanStore>>,
    /// Records appended to the plan log this process.
    store_appends: AtomicU64,
    /// Cache entries seeded from the plan log at boot.
    store_loaded: u64,
    /// Log records dropped during boot replay (foreign entries plus
    /// superseded duplicates), surfaced instead of silently ignored.
    store_skipped: u64,
    /// Bytes reclaimed by the boot-time compaction rewrite (0 when the
    /// savings stayed under the threshold).
    store_compacted: u64,
    fault_hook: Option<FaultHook>,
    started: Instant,
    stop: AtomicBool,
}

impl ServerState {
    /// Cache counters snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Total protocol requests handled (every op, errors included).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Search requests shed by admission control.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Searches aborted by their deadline.
    pub fn deadlines(&self) -> u64 {
        self.deadlines.load(Ordering::Relaxed)
    }

    /// Handler panics contained by `catch_unwind`.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Requests answered over the JSON line codec.
    pub fn codec_json(&self) -> u64 {
        self.codec_json.load(Ordering::Relaxed)
    }

    /// Requests answered over the binary frame codec.
    pub fn codec_binary(&self) -> u64 {
        self.codec_binary.load(Ordering::Relaxed)
    }

    /// Records appended to the plan log this process.
    pub fn store_appends(&self) -> u64 {
        self.store_appends.load(Ordering::Relaxed)
    }

    /// Cache entries seeded from the plan log at boot.
    pub fn store_loaded(&self) -> u64 {
        self.store_loaded
    }

    /// Log records dropped during boot replay (foreign + duplicate).
    pub fn store_skipped(&self) -> u64 {
        self.store_skipped
    }

    /// Bytes reclaimed by boot-time log compaction.
    pub fn store_compacted(&self) -> u64 {
        self.store_compacted
    }
}

/// Decrements the in-flight gauge on every exit path — including the
/// unwind of a panicking compute — so admission never leaks capacity.
struct InflightSlot<'a> {
    state: &'a ServerState,
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let prev = self.state.inflight.fetch_sub(1, Ordering::SeqCst);
        QUEUE_DEPTH.set(i64::try_from(prev.saturating_sub(1)).unwrap_or(i64::MAX));
    }
}

/// A running server: its bound address, its state, and shutdown/join
/// handles.
pub type ServerHandle = Core<ServerState>;

/// Starts the server: opens the plan log (if configured) and replays it
/// into the cache, binds, spawns the event loop and the worker pool, and
/// returns immediately.
///
/// # Errors
/// Propagates bind and plan-log I/O failures.
pub fn serve(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    // Register every metric up front: scrapes list all names before any
    // traffic, and no event-loop or worker thread ever takes the
    // registration lock.
    init_metrics();
    let cache = PlanCache::new(config.cache_capacity, config.cache_shards);
    let mut store = None;
    let mut store_loaded = 0u64;
    let mut store_skipped = 0u64;
    let mut store_compacted = 0u64;
    if let Some(path) = &config.store_path {
        let (opened, replay) = PlanStore::open(path)?;
        for record in &replay.records {
            let hash = fnv1a64(record.canonical.as_bytes());
            if cache.seed(&record.canonical, hash, &record.payload) {
                store_loaded += 1;
            }
        }
        store_skipped = replay.skipped();
        store_compacted = replay.compacted_bytes;
        store = Some(Arc::new(opened));
    }

    let state = Arc::new(ServerState {
        cache,
        requests: AtomicU64::new(0),
        searches: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        deadlines: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        codec_json: AtomicU64::new(0),
        codec_binary: AtomicU64::new(0),
        request_seq: AtomicU64::new(0),
        compute_seq: AtomicU64::new(0),
        max_pending_searches: config.max_pending_searches as u64,
        retry_after_ms: config.retry_after_ms,
        default_deadline_ms: config.default_deadline_ms,
        idle_timeout_ms: saturating_millis(config.idle_timeout),
        store,
        store_appends: AtomicU64::new(0),
        store_loaded,
        store_skipped,
        store_compacted,
        fault_hook: config.fault_hook.clone(),
        started: Instant::now(),
        stop: AtomicBool::new(false),
    });
    let (mut core, exited) =
        conn::spawn(&config.addr, Arc::clone(&state), config.workers, config.idle_timeout)?;
    if let Some(every) = config.metrics_every {
        let path =
            config.metrics_path.clone().unwrap_or_else(|| PathBuf::from("pte_metrics.jsonl"));
        core.adopt(std::thread::spawn(move || {
            metrics_snapshot_loop(&state, &path, every, &exited)
        }));
    }
    Ok(core)
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// A message the loop thread did not answer, on its way to a pool thread
/// with what the loop learned about it: when it was cut, the fault hook's
/// verdict, and the decoded op (a search keyed), so nothing is decoded
/// twice.
pub struct Dispatched {
    wire: Wire,
    started: Instant,
    /// An injected request fault and its ordinal, acted on by the pool
    /// thread, so a stall, panic or disconnect never runs on the loop.
    fault: Option<(u64, FaultAction)>,
    op: Result<Op, Rejected>,
}

impl From<Message> for Dispatched {
    fn from(message: Message) -> Dispatched {
        Dispatched {
            wire: message.wire,
            started: Instant::now(),
            fault: None,
            op: message.decode(),
        }
    }
}

/// The daemon's side of the connection core. The loop thread answers
/// plan-cache hits, `stats`, `ping` and rejected messages itself; searches
/// that miss, `metrics`, `shutdown` and every request the fault hook picks
/// go to the pool. An injected panic unwinds into the core's containment
/// like an organic one.
impl Service for ServerState {
    type Worker = ();
    type Job = Dispatched;

    fn inline(&self, message: Message) -> Result<Outcome, Dispatched> {
        let mut job = Dispatched::from(message);
        // One ordinal per request, in arrival order across both codecs, so
        // a chaos script replays identically over either wire format.
        if let Some(hook) = &self.fault_hook {
            let index = self.request_seq.fetch_add(1, Ordering::Relaxed);
            match hook(FaultPoint::Request { index }) {
                FaultAction::None => {}
                action => {
                    job.fault = Some((index, action));
                    return Err(job);
                }
            }
        }
        self.answer(&job, true).ok_or(job)
    }

    fn handle(&self, job: Dispatched, (): &mut ()) -> Outcome {
        match job.fault {
            Some((_, FaultAction::StallMs(ms))) => std::thread::sleep(Duration::from_millis(ms)),
            Some((_, FaultAction::Disconnect)) => return Outcome::Silent,
            Some((index, FaultAction::Panic)) => panic!("injected request fault (request {index})"),
            Some((_, FaultAction::None)) | None => {}
        }
        self.answer(&job, false).expect("a pool thread answers every op")
    }

    fn panicked(&self, wire: Wire, started: Instant) -> Outcome {
        self.panics.fetch_add(1, Ordering::Relaxed);
        PANIC_TOTAL.inc();
        self.answered(Reply::error("internal panic", true, None), None, wire, started)
    }

    fn framing_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    fn stop_flag(&self) -> &AtomicBool {
        &self.stop
    }

    fn connections(&self) -> &AtomicU64 {
        &self.connections
    }
}

impl ServerState {
    /// Answers a decoded message. On the loop thread (`on_loop`) only what
    /// cannot block is answered — a search only from a ready cache entry —
    /// and `None` sends the rest to the pool.
    fn answer(&self, job: &Dispatched, on_loop: bool) -> Option<Outcome> {
        let (reply, latency) = match &job.op {
            Ok(Op::Search(search)) => {
                (handle_search(search, self, job.started, on_loop)?, Some(&*REQ_SEARCH_US))
            }
            Ok(Op::Control(Control::Metrics | Control::Shutdown)) if on_loop => return None,
            Ok(Op::Control(control)) => (
                wire::control(*control, || stats_json(self), render_grammar_coverage, &self.stop),
                Some(control_histogram(*control)),
            ),
            // A search whose request fails to decode still counts as a
            // search.
            Err(rejected) => (
                Reply::error(rejected.message.clone(), false, None),
                rejected.search.then_some(&*REQ_SEARCH_US),
            ),
        };
        Some(self.answered(reply, latency, job.wire, job.started))
    }

    /// Counts, times and encodes one reply: `op_latency` is the op's
    /// histogram, if it has one.
    fn answered(
        &self,
        reply: Reply,
        op_latency: Option<&Histogram>,
        wire: Wire,
        started: Instant,
    ) -> Outcome {
        if let Some(latency) = op_latency {
            latency.record_duration_us(started.elapsed());
        }
        if reply.is_error() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let bytes = reply.encode(wire);
        let (count, latency) = match wire {
            Wire::Json => (&self.codec_json, &REQ_JSON_US),
            Wire::Binary => (&self.codec_binary, &REQ_BINARY_US),
        };
        count.fetch_add(1, Ordering::Relaxed);
        latency.record_duration_us(started.elapsed());
        Outcome::Reply(bytes)
    }
}

/// Runs one search through the shared core (on the loop thread, only as
/// far as a ready cache entry: `None` when there is none). Failures map to
/// their wire parts here, once for both codecs, so retryability verdicts
/// cannot drift.
fn handle_search(
    search: &SearchOp,
    state: &ServerState,
    started: Instant,
    on_loop: bool,
) -> Option<Reply> {
    Some(match run_search(search, state, on_loop) {
        Ok(SearchVerdict::Served(mut served)) => {
            served.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            Reply::Served(served)
        }
        Ok(SearchVerdict::Uncached) => return None,
        Ok(SearchVerdict::Shed) => Reply::error("overloaded", true, Some(state.retry_after_ms)),
        Err(e) => match e.class {
            ErrorClass::Deadline => {
                state.deadlines.fetch_add(1, Ordering::Relaxed);
                DEADLINE_TOTAL.inc();
                Reply::error("deadline", true, None)
            }
            ErrorClass::Leader => Reply::error(e.to_string(), true, None),
            ErrorClass::Invalid => Reply::error(e.to_string(), false, None),
        },
    })
}

enum SearchVerdict {
    Served(Served),
    Shed,
    /// No ready entry, and this thread runs the loop: it must not search.
    Uncached,
}

/// The codec-independent search core: peek, admission, deadline token,
/// single-flight fetch, plan-log append, under the request's trace. Both
/// wire formats funnel through here with the key decode gave, which is
/// what makes the "one request key, one cache entry, bit-identical bytes"
/// invariant structural rather than incidental.
fn run_search(
    search: &SearchOp,
    state: &ServerState,
    on_loop: bool,
) -> codec::CodecResult<SearchVerdict> {
    // Tracing installs on this thread only. The single-flight leader runs
    // its compute closure on the calling thread, so the Evaluator's stage
    // spans nest under the root span; a warm hit gets a minimal tree. The
    // trace id derives from the request key — same request, same id — and
    // tracing is observation-only: it cannot touch the key, the search, or
    // the payload bytes.
    let trace_guard =
        search.trace.then(|| Trace::begin(pte_telemetry::derive_trace_id(search.key, 0)));
    let verdict = run_search_core(search, state, on_loop);
    let report = trace_guard.map(Trace::finish);
    match verdict? {
        SearchVerdict::Served(mut served) => {
            served.trace_json =
                report.map(|r| trace_report_json(&r).write().expect("span trees have no floats"));
            Ok(SearchVerdict::Served(served))
        }
        verdict => Ok(verdict),
    }
}

/// [`run_search`] minus trace installation, under the request's root span.
fn run_search_core(
    search: &SearchOp,
    state: &ServerState,
    on_loop: bool,
) -> codec::CodecResult<SearchVerdict> {
    let (canonical, hash) = (search.canonical.as_str(), search.key);
    let root = pte_telemetry::span("search");

    // Degraded-mode fast path: a ready entry answers without touching
    // admission, so hits keep flowing while cold searches are shed.
    if let Some(payload) = state.cache.peek(canonical, hash) {
        return Ok(SearchVerdict::Served(Served {
            key: hash,
            hit: true,
            coalesced: false,
            elapsed_ms: 0.0,
            plan: payload,
            trace_json: None,
        }));
    }
    if on_loop {
        // The pool thread that takes the search over opens its own span.
        root.discard();
        return Ok(SearchVerdict::Uncached);
    }

    // Bounded admission: every non-hit request (leader or coalescing
    // waiter — both pin a worker) takes a slot; overflow sheds immediately
    // with a retry hint instead of queueing without bound.
    let pending = state.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    QUEUE_DEPTH.set(i64::try_from(pending).unwrap_or(i64::MAX));
    if pending > state.max_pending_searches {
        state.inflight.fetch_sub(1, Ordering::SeqCst);
        state.shed.fetch_add(1, Ordering::Relaxed);
        SHED_TOTAL.inc();
        return Ok(SearchVerdict::Shed);
    }
    let _slot = InflightSlot { state };

    // The deadline becomes a cooperative token polled at the search's
    // stage boundaries. Op-level deadline wins; otherwise the server
    // default (0 = none) applies.
    let budget_ms = search.deadline_ms.unwrap_or(state.default_deadline_ms);
    let cancel = if budget_ms == 0 {
        CancelToken::never()
    } else {
        CancelToken::expiring_in(Duration::from_millis(budget_ms))
    };

    // Spec resolution happens inside the compute closure — `execute`
    // resolves before searching — so warm hits skip it entirely. A compute
    // error (including a deadline expiry) publishes nothing: the
    // single-flight guard unpublishes the slot, one waiter is promoted to
    // retry, and the rest inherit the failure as a `Leader`-class error.
    let searches = &state.searches;
    let fetched = state.cache.get_or_compute(canonical, hash, || {
        if let Some(hook) = &state.fault_hook {
            let index = state.compute_seq.fetch_add(1, Ordering::Relaxed);
            match hook(FaultPoint::Compute { index }) {
                FaultAction::StallMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                FaultAction::Panic => panic!("injected compute fault (compute {index})"),
                FaultAction::None | FaultAction::Disconnect => {}
            }
        }
        let payload = codec::execute_cancellable(&search.request, &cancel)?;
        searches.fetch_add(1, Ordering::Relaxed);
        Ok::<_, codec::CodecError>(payload)
    })?;

    // Only the single-flight leader appends: one log record per computed
    // plan, never one per reply. Warm-started entries answer through the
    // peek path above, so a restart does not re-append its own seeds.
    if !fetched.hit && !fetched.coalesced {
        if let Some(store) = &state.store {
            if store.append(canonical, fetched.payload.json()).is_ok() {
                state.store_appends.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    Ok(SearchVerdict::Served(Served {
        key: hash,
        hit: fetched.hit,
        coalesced: fetched.coalesced,
        elapsed_ms: 0.0,
        plan: fetched.payload,
        trace_json: None,
    }))
}

/// Renders a finished trace as the JSON subtree the response envelope
/// embeds next to `elapsed_ms`.
fn trace_report_json(report: &pte_telemetry::TraceReport) -> Json {
    fn node(span: &pte_telemetry::SpanNode) -> Json {
        Json::obj(vec![
            ("name", Json::Str(span.name.to_string())),
            ("start_us", json_count(span.start_us)),
            ("elapsed_us", json_count(span.elapsed_us)),
            ("children", Json::Arr(span.children.iter().map(node).collect())),
        ])
    }
    Json::obj(vec![
        ("trace_id", Json::Str(format!("{:016x}", report.trace_id))),
        ("spans", Json::Arr(report.spans.iter().map(node).collect())),
        ("truncated", json_count(report.truncated)),
    ])
}

/// Saturating `Duration` → whole milliseconds. `as_millis` is `u128`; a
/// plain `as u64` silently wraps for absurd-but-accepted configurations
/// (e.g. an idle timeout of `u64::MAX` seconds), so out-of-range values pin
/// to `u64::MAX` instead.
fn saturating_millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Builds the one shared snapshot document. `stats` serves it verbatim;
/// `metrics` serves it with the Prometheus page appended, and derives that
/// page's counter names from this same tree ([`wire::control`]) — one
/// builder, so the two ops can never disagree on a counter's name or value
/// source.
///
/// The `probe_cache` section is the probe memo's health on a long-lived
/// daemon: `misses` is probes actually executed (the compute an operator
/// pays), `hit_rate` measures cross-request reuse, and `evictions` creeping
/// up signals the memo is undersized for the workload
/// (`--probe-cache-cap` / `PTE_PROBE_CACHE_CAP`).
///
/// The failure counters (`shed`, `deadlines`, `panics`) plus the cache's
/// `fetches`/`failures`/`peek_hits` make the conservation law checkable
/// from the wire: `hits + misses + coalesced + failures ==
/// fetches + peek_hits`. Warm-start seeds sit outside the law (`seeded` is
/// not a fetch; only the hits a seed later serves are counted).
fn stats_json(state: &ServerState) -> Json {
    let cache = state.cache.stats();
    let probe = pte_core::fisher::proxy::probe_cache_stats();
    let probe_lookups = probe.hits + probe.misses;
    let probe_hit_rate =
        if probe_lookups == 0 { 0.0 } else { probe.hits as f64 / probe_lookups as f64 };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("requests", json_count(state.requests.load(Ordering::Relaxed))),
        ("searches", json_count(state.searches.load(Ordering::Relaxed))),
        ("errors", json_count(state.errors.load(Ordering::Relaxed))),
        ("shed", json_count(state.shed.load(Ordering::Relaxed))),
        ("deadlines", json_count(state.deadlines.load(Ordering::Relaxed))),
        ("panics", json_count(state.panics.load(Ordering::Relaxed))),
        ("inflight", json_count(state.inflight.load(Ordering::SeqCst))),
        ("connections", json_count(state.connections.load(Ordering::Relaxed))),
        ("codec_json", json_count(state.codec_json.load(Ordering::Relaxed))),
        ("codec_binary", json_count(state.codec_binary.load(Ordering::Relaxed))),
        ("idle_timeout_ms", json_count(state.idle_timeout_ms)),
        ("uptime_ms", Json::Float(state.started.elapsed().as_secs_f64() * 1e3)),
        (
            "store",
            Json::obj(vec![
                ("enabled", Json::Bool(state.store.is_some())),
                ("loaded", json_count(state.store_loaded)),
                ("appends", json_count(state.store_appends.load(Ordering::Relaxed))),
                ("skipped", json_count(state.store_skipped)),
                ("compacted", json_count(state.store_compacted)),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("entries", json_count(cache.entries as u64)),
                ("capacity", json_count(cache.capacity as u64)),
                ("shards", json_count(cache.shards as u64)),
                ("fetches", json_count(cache.fetches)),
                ("hits", json_count(cache.hits)),
                ("misses", json_count(cache.misses)),
                ("coalesced", json_count(cache.coalesced)),
                ("failures", json_count(cache.failures)),
                ("peek_hits", json_count(cache.peek_hits)),
                ("seeded", json_count(cache.seeded)),
                ("evictions", json_count(cache.evictions)),
                ("hit_rate", Json::Float(cache.hit_rate())),
                // The conservation law, pre-checked: `hits + misses +
                // coalesced + failures == fetches + peek_hits`.
                ("conserved", Json::Bool(cache.is_conserved())),
            ]),
        ),
        (
            "probe_cache",
            Json::obj(vec![
                ("entries", json_count(probe.entries as u64)),
                ("capacity", json_count(probe.capacity as u64)),
                ("hits", json_count(probe.hits)),
                ("misses", json_count(probe.misses)),
                ("evictions", json_count(probe.evictions)),
                ("hit_rate", Json::Float(probe_hit_rate)),
            ]),
        ),
    ])
}

/// Appends the grammar-coverage section: which automaton rules have ever
/// fired in decode/grow, per layer class. `pte_grammar_coverage_ratio` is
/// always present (0 when no class compiled yet), so scrapes can assert on
/// the name unconditionally.
fn render_grammar_coverage(out: &mut String) {
    use std::fmt::Write as _;
    let classes = pte_core::transform::automaton::coverage_snapshot();
    let _ = writeln!(out, "# TYPE pte_grammar_coverage_ratio gauge");
    let _ = writeln!(
        out,
        "pte_grammar_coverage_ratio {}",
        pte_core::transform::automaton::coverage_ratio()
    );
    for class in classes {
        let _ = writeln!(
            out,
            "pte_grammar_rules_fired{{class=\"{}\"}} {}",
            class.class,
            class.fired_count()
        );
        let _ = writeln!(
            out,
            "pte_grammar_rules_total{{class=\"{}\"}} {}",
            class.class, class.rule_count
        );
    }
}

/// The `--metrics-every-ms` thread: appends one stats document per
/// interval to a JSONL file, for offline plotting, until the event loop
/// exits (`exited` disconnects), so shutdown ends it at once.
fn metrics_snapshot_loop(
    state: &ServerState,
    path: &std::path::Path,
    every: Duration,
    exited: &Receiver<()>,
) {
    use std::io::Write as _;
    let Ok(file) = std::fs::OpenOptions::new().create(true).append(true).open(path) else {
        return;
    };
    let mut file = std::io::BufWriter::new(file);
    let every = every.max(Duration::from_millis(1));
    while exited.recv_timeout(every) == Err(RecvTimeoutError::Timeout) {
        let line = stats_json(state).write().expect("uptime is finite");
        if writeln!(file, "{line}").and_then(|()| file.flush()).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_conversions_pin_the_boundary() {
        // In range: exact.
        assert_eq!(saturating_millis(Duration::from_millis(1500)), 1500);
        assert_eq!(json_count(7), Json::Int(7));

        // Out of range: saturate, never wrap.
        assert_eq!(saturating_millis(Duration::MAX), u64::MAX);
        assert_eq!(json_count(u64::MAX), Json::Int(i64::MAX));
        assert_eq!(json_count(i64::MAX as u64 + 1), Json::Int(i64::MAX));
        // The largest value that still converts exactly.
        assert_eq!(json_count(i64::MAX as u64), Json::Int(i64::MAX));
    }
}
