//! # pte-serve — search-as-a-service
//!
//! Turns the transformation-exploration search into a long-lived service
//! (std-only, consistent with the workspace's no-registry shims policy):
//!
//! * [`json`] — hand-rolled canonical JSON writer/reader and the FNV-1a
//!   request hash;
//! * [`codec`] — stable schemas for [`codec::SearchRequest`] and the
//!   serialized plan payload, with canonical content-hash request keys;
//! * [`cache`] — sharded, bounded, LRU-ish plan cache with single-flight
//!   deduplication of concurrent identical requests;
//! * `conn` — the connection core both endpoints drive: one `poll(2)` event
//!   loop owning every connection, run in turn by a fixed thread pool, the
//!   panic containment that answers a handler panic with `internal panic`,
//!   and the handle both endpoints return ([`ServerHandle`] and [`Router`]
//!   are the same type over different state);
//! * [`server`] — the daemon on that core, speaking line-delimited JSON and
//!   binary frames, with graceful shutdown, per-request deadlines, bounded
//!   admission with load shedding, panic isolation, timing, and `stats` /
//!   `metrics` observability ops (the latter embeds a Prometheus-style text page fed
//!   by the process-wide `pte-telemetry` registry); an op-level
//!   `trace: true` field returns the request's span tree next to
//!   `elapsed_ms` without touching the payload bytes;
//! * [`client`] — synchronous client library the bins and tests drive;
//! * [`retry`] — self-healing wrapper: reconnect-and-retry with exponential
//!   backoff, seeded jitter, and an optional wall-clock retry budget, safe
//!   because request keys are idempotent content hashes;
//! * [`router`] — `pte-route`, the fault-tolerant fleet tier on the same
//!   core (its workers pool backend connections per shard and codec): a
//!   consistent-hash ring (virtual nodes, bounded key movement) routes
//!   content-hash keys across N daemons, a health plane (active ping
//!   probes + passive failure accounting) drives per-shard
//!   `Up → Degraded → Down` circuit breakers with half-open re-admission,
//!   and failed forwards retry the next ring replica — with optional
//!   hedging of slow searches — under the conservation law
//!   `routed == forwarded + failovers + shed`;
//! * [`fault`] — deterministic fault injection: seeded replayable wire-fault
//!   scripts ([`fault::FaultyStream`]) and the server's injectable handler
//!   hook, driving the chaos suite.
//!
//! The load-bearing contract, pinned by `tests/serve_e2e.rs` and checked
//! on every perfbench reply: **a plan served over TCP — cold, warm, or
//! coalesced under concurrent duplicates — is byte-identical after codec
//! round-trip to the plan a direct in-process `unified::optimize` produces
//! for the same request.** Everything the service adds (caching, sharding,
//! single-flight, the wire protocol) is invisible in the bytes — and since
//! PR 6 that extends through failures: payloads recovered by retrying
//! through injected faults are bit-identical to a fault-free run
//! (`tests/chaos.rs`).

pub mod cache;
pub mod client;
pub mod codec;
pub mod codec_bin;
mod conn;
pub mod fault;
pub mod json;
mod poll;
pub mod retry;
pub mod router;
pub mod server;
pub mod store;
mod wire;
pub mod workload;

pub use cache::{CacheStats, CachedPlan, LeaderFailure, PlanCache};
pub use client::{Client, ClientCodec, ClientError, Conn, SearchReply};
pub use codec::{
    CodecError, ErrorClass, NetworkSpec, PlanPayload, PlatformId, SearchRequest, Strategy,
};
pub use fault::{
    FaultAction, FaultHook, FaultPoint, FaultScript, FaultyStream, ShardFault, ShardFaultEvent,
    ShardFaultScript, WireEvent, WireFault,
};
pub use json::Json;
pub use retry::{RetryClient, RetryPolicy};
pub use router::{route, HashRing, Router, RouterConfig, RouterState, ShardState};
pub use server::{serve, ServerConfig, ServerHandle};
pub use store::{PlanStore, Replay, StoreRecord};
