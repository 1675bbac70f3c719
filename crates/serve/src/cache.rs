//! Sharded, bounded, single-flight plan cache.
//!
//! The daemon's hot path: requests hash to one of N shards (cutting lock
//! contention N-fold), each shard holds a bounded LRU-ish map from canonical
//! request bytes to canonical payload bytes, and **single-flight
//! deduplication** guarantees that concurrent identical requests run the
//! underlying search once and share the result — the collapse that makes a
//! thundering herd of duplicate clients cost one search instead of N.
//!
//! Design notes, mirroring the probe memo in `fisher/proxy.rs`:
//!
//! * the map key is the full canonical request string (the 64-bit hash only
//!   picks the shard and names the entry in responses — a hash collision
//!   must never serve the wrong plan);
//! * traffic counters are lock-free [`AtomicU64`]s bumped inside their own
//!   transactions, so totals reconcile exactly under concurrency — the
//!   conservation law is
//!   `hits + misses + coalesced + failures == fetches + peek_hits`
//!   ([`CacheStats::is_conserved`]), checked by the chaos suite after every
//!   fault schedule;
//! * eviction is LRU-ish with **generation stamps**: a hit re-stamps its
//!   entry and appends a `(key, stamp)` pair to the eviction queue in O(1)
//!   (no scan under the shard lock — stale pairs are skipped lazily at
//!   eviction and compacted when the queue outgrows the shard), the oldest
//!   un-touched entry leaves first, and in-flight computations are never
//!   evicted.
//!
//! A ready entry is a [`CachedPlan`]: the canonical JSON payload plus, once
//! a binary client has asked for it, the payload packed for the binary
//! codec. The packed form lives and dies with its entry, so a warm binary
//! hit copies bytes instead of re-parsing and re-packing the JSON, and the
//! capacity bound covers both forms.
//!
//! A compute that fails — panic or `Err` — publishes nothing: the pending
//! slot is unpublished and the flight transitions to a terminal `Failed`
//! state carrying the leader's error message. Waiters all wake; exactly
//! **one** is promoted to retry (it may become the new leader), the rest
//! receive [`LeaderFailure`] so a stalled herd resolves in one extra
//! computation instead of N. A transient search failure therefore never
//! poisons its key *and* never strands a waiter.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, OnceLock};
use std::time::Instant;

use pte_telemetry::Histogram;

use crate::codec::{CodecResult, PlanPayload};
use crate::codec_bin;

/// Fetch latency split by outcome: hits (including peeks) versus non-hits
/// (leader computes and coalesced waits — everything that paid for a
/// search). Static handles: recording is atomics only, never a registry
/// lock.
static CACHE_HIT_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_cache_hit_us"));
static CACHE_MISS_US: LazyLock<Histogram> =
    LazyLock::new(|| pte_telemetry::global().histogram("pte_cache_miss_us"));

/// A published plan: its canonical JSON payload, plus the binary codec's
/// packing of it, made on first use.
#[derive(Debug)]
pub struct CachedPlan {
    json: Box<str>,
    packed: OnceLock<Box<[u8]>>,
}

impl CachedPlan {
    fn new(json: impl Into<Box<str>>) -> Arc<Self> {
        Arc::new(CachedPlan { json: json.into(), packed: OnceLock::new() })
    }

    /// The canonical JSON payload bytes.
    pub fn json(&self) -> &str {
        &self.json
    }

    /// The payload packed for the binary codec:
    /// `codec_bin::encode_payload(&PlanPayload::parse(self.json()))`, run on
    /// the first call and kept for every later one.
    ///
    /// # Errors
    /// The payload does not parse or pack; nothing is kept, so a later call
    /// tries again.
    pub fn packed(&self) -> CodecResult<&[u8]> {
        if let Some(packed) = self.packed.get() {
            return Ok(packed);
        }
        let packed = codec_bin::encode_payload(&PlanPayload::parse(&self.json)?)?;
        // A racing first call packs the same bytes; whichever lands first
        // is kept.
        Ok(self.packed.get_or_init(|| packed.into_boxed_slice()))
    }
}

/// Result of a cache fetch: the payload plus how it was obtained.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// The published plan.
    pub payload: Arc<CachedPlan>,
    /// Served from the cache without waiting on anyone.
    pub hit: bool,
    /// Shared the result of another request's in-flight computation.
    pub coalesced: bool,
}

/// What a waiter learns when the request it coalesced behind fails: the
/// leader's error message and whether the leader panicked (as opposed to
/// returning an error). Only the waiters that were *not* promoted to retry
/// receive this — the promoted waiter recomputes instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderFailure {
    /// The leader's error rendered via `Display`, or a fixed marker when
    /// the leader panicked.
    pub message: String,
    /// True when the leader panicked rather than returning `Err`.
    pub panicked: bool,
}

impl std::fmt::Display for LeaderFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for LeaderFailure {}

impl From<LeaderFailure> for String {
    fn from(failure: LeaderFailure) -> String {
        failure.message
    }
}

/// Snapshot of the cache's occupancy and traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently cached (across all shards).
    pub entries: usize,
    /// Total entry capacity (across all shards).
    pub capacity: usize,
    /// Shard count.
    pub shards: usize,
    /// [`PlanCache::get_or_compute`] calls started (every one terminates in
    /// exactly one of `hits`/`misses`/`coalesced`/`failures`).
    pub fetches: u64,
    /// Fetches answered from the cache (includes `peek_hits`).
    pub hits: u64,
    /// Fetches that ran the computation to a published payload.
    pub misses: u64,
    /// Fetches that waited on another request's in-flight computation.
    pub coalesced: u64,
    /// Fetches that terminated in an error: a leader whose compute
    /// failed/panicked, or a waiter handed a [`LeaderFailure`].
    pub failures: u64,
    /// [`PlanCache::peek`] calls that found a ready entry (each also counts
    /// as a hit).
    pub peek_hits: u64,
    /// Entries dropped to stay under the cap.
    pub evictions: u64,
    /// Entries planted by [`PlanCache::seed`] (warm-start replay). Outside
    /// the conservation law: a seed is not a fetch, only the hits it later
    /// serves are.
    pub seeded: u64,
}

impl CacheStats {
    /// Hit rate over terminated fetches (coalesced fetches count as hits:
    /// they paid no search).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / total as f64
        }
    }

    /// The conservation law: every fetch (and every successful peek)
    /// terminates in exactly one outcome counter. Holds at any quiescent
    /// point — the chaos suite asserts it after every fault schedule.
    pub fn is_conserved(&self) -> bool {
        self.hits + self.misses + self.coalesced + self.failures == self.fetches + self.peek_hits
    }
}

/// One in-flight computation other requests can wait on.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Pending,
    Done(Arc<CachedPlan>),
    /// Terminal: the leader panicked or erred. The first waiter to observe
    /// this sets `claimed` and retries (deterministic single-waiter
    /// promotion); every later observer returns [`LeaderFailure`].
    Failed {
        message: String,
        panicked: bool,
        claimed: bool,
    },
}

enum Slot {
    Ready(Arc<CachedPlan>),
    Pending(Arc<Flight>),
}

/// A cached entry: its slot plus the LRU generation stamp of its most
/// recent touch (only the queue pair carrying the *current* stamp is live;
/// older pairs for the same key are skipped as stale).
struct Entry {
    slot: Slot,
    stamp: u64,
}

#[derive(Default)]
struct ShardState {
    map: HashMap<Arc<str>, Entry>,
    /// `(key, stamp)` pairs in touch order (front = next eviction
    /// candidate); pairs whose stamp no longer matches the entry are stale.
    order: VecDeque<(Arc<str>, u64)>,
    /// Monotonic touch counter.
    tick: u64,
    /// Number of `Ready` entries (the quantity the capacity bounds).
    ready: usize,
}

impl ShardState {
    /// Stamps `entry` as most recently used and queues the new pair.
    fn touch(&mut self, key: &Arc<str>, capacity: usize) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(key) {
            entry.stamp = tick;
        }
        self.order.push_back((Arc::clone(key), tick));
        // Hits never evict, so the queue can outgrow the map on a hot
        // working set; compact the stale pairs away once it has.
        if self.order.len() > (capacity * 4).max(32) {
            let map = &self.map;
            self.order.retain(|(k, g)| map.get(k).is_some_and(|e| e.stamp == *g));
        }
    }

    /// Drops the oldest un-touched `Ready` entries (a plan and its packed
    /// form together) until at most `capacity` remain; returns how many
    /// left. Pending entries are not evictable, and stale queue pairs are
    /// skipped.
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.ready > capacity {
            let Some((oldest, stamp)) = self.order.pop_front() else { break };
            let evict = matches!(&self.map.get(&oldest),
                Some(Entry { slot: Slot::Ready(_), stamp: s }) if *s == stamp);
            if evict {
                self.map.remove(&oldest);
                self.ready -= 1;
                evicted += 1;
            }
        }
        evicted
    }
}

#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
    fetches: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    failures: AtomicU64,
    peek_hits: AtomicU64,
    evictions: AtomicU64,
    seeded: AtomicU64,
}

/// The sharded single-flight cache.
pub struct PlanCache {
    shards: Vec<Shard>,
    capacity_per_shard: usize,
}

/// Fails a flight unless disarmed: runs on panic (via `Drop`, marking the
/// failure as a panic) and explicitly on the `Err` path (carrying the
/// leader's error message), unpublishing the pending slot and waking
/// waiters into the promotion protocol.
struct FlightGuard<'a> {
    shard: &'a Shard,
    key: Arc<str>,
    flight: Arc<Flight>,
    disarmed: bool,
}

impl FlightGuard<'_> {
    /// Unpublishes the pending slot, records the leader's failure on the
    /// flight, and wakes every waiter. Counts the leader's fetch as a
    /// failure.
    fn fail(&mut self, message: String, panicked: bool) {
        self.disarmed = true;
        let mut state = self.shard.state.lock().expect("plan cache shard");
        if matches!(&state.map.get(&self.key),
            Some(Entry { slot: Slot::Pending(f), .. }) if Arc::ptr_eq(f, &self.flight))
        {
            state.map.remove(&self.key);
        }
        drop(state);
        *self.flight.state.lock().expect("flight state") =
            FlightState::Failed { message, panicked, claimed: false };
        self.flight.done.notify_all();
        self.shard.failures.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.disarmed {
            return;
        }
        // Reaching Drop armed means the compute panicked (the Ok and Err
        // paths both disarm); record it so waiters can tell a crash from a
        // clean error.
        self.fail("request leader panicked".to_string(), true);
    }
}

impl PlanCache {
    /// Creates a cache holding up to `capacity` entries across `shards`
    /// shards (both clamped to at least 1; per-shard capacity rounds up so
    /// the total is never below `capacity`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        PlanCache { shards: (0..shards).map(|_| Shard::default()).collect(), capacity_per_shard }
    }

    fn shard(&self, hash: u64) -> &Shard {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Non-blocking lookup: the payload if `key` is `Ready`, else `None`
    /// (misses and in-flight computations alike — a peek never waits and
    /// never computes). This is the degraded-mode path: an overloaded
    /// server sheds cold searches but still answers hits through here.
    /// A successful peek re-stamps the entry and counts as a hit.
    pub fn peek(&self, key: &str, hash: u64) -> Option<Arc<CachedPlan>> {
        let started = Instant::now();
        let shard = self.shard(hash);
        let mut state = shard.state.lock().expect("plan cache shard");
        let found = state.map.get_key_value(key).and_then(|(k, entry)| match &entry.slot {
            Slot::Ready(payload) => Some((Arc::clone(k), Arc::clone(payload))),
            Slot::Pending(_) => None,
        });
        let (key, payload) = found?;
        state.touch(&key, self.capacity_per_shard);
        drop(state);
        shard.hits.fetch_add(1, Ordering::Relaxed);
        shard.peek_hits.fetch_add(1, Ordering::Relaxed);
        CACHE_HIT_US.record_duration_us(started.elapsed());
        Some(payload)
    }

    /// Fetches the payload for `key` (canonical request bytes, pre-hashed to
    /// `hash`), running `compute` on a miss. Concurrent fetches of the same
    /// key while a computation is in flight block and share its result
    /// (counted as `coalesced`); fetches of other keys proceed on their own
    /// shards — and on the *same* shard the lock is never held during a
    /// computation, only around map updates.
    ///
    /// # Errors
    /// A compute error returns to the computing caller, and nothing is
    /// published. Concurrent waiters all wake: exactly one is promoted to
    /// retry (possibly becoming the new computer), the rest receive
    /// `E::from(LeaderFailure)` so nobody hangs and the herd costs at most
    /// one extra computation.
    pub fn get_or_compute<E>(
        &self,
        key: &str,
        hash: u64,
        compute: impl FnOnce() -> Result<String, E>,
    ) -> Result<Fetched, E>
    where
        E: From<LeaderFailure> + std::fmt::Display,
    {
        let started = Instant::now();
        let shard = self.shard(hash);
        shard.fetches.fetch_add(1, Ordering::Relaxed);
        let mut compute = Some(compute);
        loop {
            // Fast path / flight registration, under the shard lock.
            let flight = {
                let mut state = shard.state.lock().expect("plan cache shard");
                // `get_key_value` so a hit can reuse the map's own key Arc
                // (no per-hit copy of the canonical request string).
                let found = state.map.get_key_value(key).map(|(k, entry)| match &entry.slot {
                    Slot::Ready(payload) => Ok((Arc::clone(k), Arc::clone(payload))),
                    Slot::Pending(flight) => Err(Arc::clone(flight)),
                });
                match found {
                    Some(Ok((key, payload))) => {
                        state.touch(&key, self.capacity_per_shard);
                        shard.hits.fetch_add(1, Ordering::Relaxed);
                        CACHE_HIT_US.record_duration_us(started.elapsed());
                        return Ok(Fetched { payload, hit: true, coalesced: false });
                    }
                    Some(Err(flight)) => Some(flight),
                    None => {
                        let key: Arc<str> = Arc::from(key);
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            done: Condvar::new(),
                        });
                        state.map.insert(
                            Arc::clone(&key),
                            Entry { slot: Slot::Pending(Arc::clone(&flight)), stamp: 0 },
                        );
                        drop(state);
                        // Compute outside the lock; the guard fails the
                        // flight if the computation panics, the explicit
                        // branch below if it errs.
                        let mut guard = FlightGuard { shard, key, flight, disarmed: false };
                        let payload = match (compute.take().expect("compute consumed once"))() {
                            Ok(payload) => CachedPlan::new(payload),
                            Err(error) => {
                                guard.fail(error.to_string(), false);
                                return Err(error);
                            }
                        };
                        guard.disarmed = true;
                        self.publish(shard, &guard.key, Arc::clone(&payload));
                        *guard.flight.state.lock().expect("flight state") =
                            FlightState::Done(Arc::clone(&payload));
                        guard.flight.done.notify_all();
                        shard.misses.fetch_add(1, Ordering::Relaxed);
                        CACHE_MISS_US.record_duration_us(started.elapsed());
                        return Ok(Fetched { payload, hit: false, coalesced: false });
                    }
                }
            };

            // Wait on the in-flight computation (no shard lock held).
            if let Some(flight) = flight {
                let mut state = flight.state.lock().expect("flight state");
                loop {
                    match &mut *state {
                        FlightState::Pending => {
                            state = flight.done.wait(state).expect("flight state");
                        }
                        FlightState::Done(payload) => {
                            let payload = Arc::clone(payload);
                            shard.coalesced.fetch_add(1, Ordering::Relaxed);
                            CACHE_MISS_US.record_duration_us(started.elapsed());
                            return Ok(Fetched { payload, hit: false, coalesced: true });
                        }
                        FlightState::Failed { message, panicked, claimed } => {
                            if *claimed {
                                // Another waiter already holds the retry
                                // ticket; surface the leader's failure.
                                let failure =
                                    LeaderFailure { message: message.clone(), panicked: *panicked };
                                drop(state);
                                shard.failures.fetch_add(1, Ordering::Relaxed);
                                return Err(E::from(failure));
                            }
                            // First observer: claim the retry ticket and
                            // loop around — we may become the new leader.
                            *claimed = true;
                            break;
                        }
                    }
                }
                continue;
            }
        }
    }

    /// Installs a computed payload and evicts beyond capacity (oldest
    /// un-touched Ready entries first; Pending entries are not evictable,
    /// and stale queue pairs are skipped).
    fn publish(&self, shard: &Shard, key: &Arc<str>, payload: Arc<CachedPlan>) {
        let mut state = shard.state.lock().expect("plan cache shard");
        if let Some(entry) = state.map.get_mut(key) {
            entry.slot = Slot::Ready(payload);
            state.ready += 1;
            state.touch(key, self.capacity_per_shard);
        }
        let evicted = state.evict_to(self.capacity_per_shard);
        shard.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Reads the cache's occupancy and traffic counters.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            capacity: self.capacity_per_shard * self.shards.len(),
            shards: self.shards.len(),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            stats.entries += shard.state.lock().expect("plan cache shard").map.len();
            stats.fetches += shard.fetches.load(Ordering::Relaxed);
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.coalesced += shard.coalesced.load(Ordering::Relaxed);
            stats.failures += shard.failures.load(Ordering::Relaxed);
            stats.peek_hits += shard.peek_hits.load(Ordering::Relaxed);
            stats.evictions += shard.evictions.load(Ordering::Relaxed);
            stats.seeded += shard.seeded.load(Ordering::Relaxed);
        }
        stats
    }

    /// Plants a ready entry without running (or counting) a fetch — the
    /// warm-start path: a restarted daemon replays its persistent plan log
    /// through here before accepting connections. An existing entry (ready
    /// or in-flight) wins over the seed, so replay can never clobber newer
    /// work; returns whether the seed was planted. Planting respects the
    /// capacity bound exactly like a leader's publish.
    pub fn seed(&self, key: &str, hash: u64, payload: &str) -> bool {
        let shard = self.shard(hash);
        let mut state = shard.state.lock().expect("plan cache shard");
        if state.map.contains_key(key) {
            return false;
        }
        let key: Arc<str> = Arc::from(key);
        state.map.insert(
            Arc::clone(&key),
            Entry { slot: Slot::Ready(CachedPlan::new(payload)), stamp: 0 },
        );
        state.ready += 1;
        state.touch(&key, self.capacity_per_shard);
        let evicted = state.evict_to(self.capacity_per_shard);
        shard.evictions.fetch_add(evicted, Ordering::Relaxed);
        drop(state);
        shard.seeded.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::fnv1a64;
    use std::sync::atomic::AtomicUsize;

    fn fetch(cache: &PlanCache, key: &str, payload: &str) -> Fetched {
        cache
            .get_or_compute(key, fnv1a64(key.as_bytes()), || Ok::<_, String>(payload.to_string()))
            .unwrap()
    }

    fn assert_conserved(cache: &PlanCache) {
        let stats = cache.stats();
        assert!(stats.is_conserved(), "counter conservation violated: {stats:?}");
    }

    #[test]
    fn hit_after_miss_returns_identical_bytes() {
        let cache = PlanCache::new(8, 2);
        let cold = fetch(&cache, "req-a", "payload-a");
        assert!(!cold.hit);
        let warm = fetch(&cache, "req-a", "SHOULD NOT RUN");
        assert!(warm.hit);
        assert_eq!(cold.payload.json(), warm.payload.json());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (1, 1, 0));
        assert_eq!(stats.entries, 1);
        assert_conserved(&cache);
    }

    #[test]
    fn capacity_bounds_entries_lru_first() {
        // Single shard so the eviction order is fully observable.
        let cache = PlanCache::new(3, 1);
        for key in ["a", "b", "c"] {
            fetch(&cache, key, key);
        }
        // Touch `a` so `b` is now the least recently used.
        assert!(fetch(&cache, "a", "!").hit);
        fetch(&cache, "d", "d");
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 1);
        // `b` was evicted; `a` survived its touch.
        assert!(fetch(&cache, "a", "recomputed-a").hit);
        assert!(!fetch(&cache, "b", "recomputed-b").hit);
    }

    #[test]
    fn hot_hits_compact_the_eviction_queue() {
        let cache = PlanCache::new(2, 1);
        fetch(&cache, "hot", "hot");
        fetch(&cache, "warm", "warm");
        // Hammer one key far past the compaction threshold; the queue must
        // not grow without bound and LRU order must survive compaction.
        for _ in 0..1000 {
            assert!(fetch(&cache, "hot", "!").hit);
        }
        {
            let state = cache.shards[0].state.lock().unwrap();
            assert!(state.order.len() <= 32 + 1, "queue grew to {}", state.order.len());
        }
        // `warm` is the LRU entry now: a new key evicts it, not `hot`.
        fetch(&cache, "new", "new");
        assert!(fetch(&cache, "hot", "recomputed").hit);
        assert!(!fetch(&cache, "warm", "recomputed").hit);
    }

    #[test]
    fn single_flight_collapses_concurrent_duplicates() {
        let cache = PlanCache::new(8, 4);
        let computations = AtomicUsize::new(0);
        let clients = 8;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(|| {
                        cache
                            .get_or_compute("dup", fnv1a64(b"dup"), || {
                                computations.fetch_add(1, Ordering::SeqCst);
                                // Hold the flight open long enough that the
                                // other clients pile up behind it.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Ok::<_, String>("shared".to_string())
                            })
                            .unwrap()
                    })
                })
                .collect();
            let results: Vec<Fetched> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results {
                assert_eq!(r.payload.json(), "shared");
            }
            let misses = results.iter().filter(|r| !r.hit && !r.coalesced).count();
            let coalesced = results.iter().filter(|r| r.coalesced).count();
            let hits = results.iter().filter(|r| r.hit).count();
            // Exactly one computation ran; everyone else shared it (late
            // arrivals may land after publication and count as plain hits).
            assert_eq!(computations.load(Ordering::SeqCst), 1);
            assert_eq!(misses, 1);
            assert_eq!(misses + coalesced + hits, clients);
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, clients as u64 - 1);
        assert_conserved(&cache);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let cache = PlanCache::new(64, 4);
        std::thread::scope(|scope| {
            for i in 0..8 {
                let cache = &cache;
                scope.spawn(move || {
                    let key = format!("req-{i}");
                    let got = cache
                        .get_or_compute(&key, fnv1a64(key.as_bytes()), || {
                            Ok::<_, String>(format!("p{i}"))
                        })
                        .unwrap();
                    assert_eq!(got.payload.json(), &format!("p{i}"));
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.entries, 8);
    }

    #[test]
    fn failed_compute_publishes_nothing_and_waiters_recover() {
        let cache = PlanCache::new(8, 1);
        // The error goes to the computing caller only...
        let err = cache
            .get_or_compute("flaky", fnv1a64(b"flaky"), || {
                Err::<String, String>("search failed".to_string())
            })
            .unwrap_err();
        assert_eq!(err, "search failed");
        // ...nothing was published, the failure was counted...
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses, stats.failures), (0, 0, 1));
        // ...and the next fetch recomputes successfully.
        let got = fetch(&cache, "flaky", "recovered");
        assert!(!got.hit && !got.coalesced);
        assert_eq!(got.payload.json(), "recovered");
        assert!(fetch(&cache, "flaky", "!").hit);
        assert_conserved(&cache);
    }

    #[test]
    fn waiters_retry_past_a_failing_computer() {
        // One thread errs while another waits on its flight: the waiter
        // must be promoted, retry, and succeed — never observe the failed
        // computation or hang.
        let cache = Arc::new(PlanCache::new(8, 1));
        std::thread::scope(|scope| {
            let c1 = Arc::clone(&cache);
            let failer = scope.spawn(move || {
                c1.get_or_compute("shared", fnv1a64(b"shared"), || {
                    std::thread::sleep(std::time::Duration::from_millis(80));
                    Err::<String, String>("boom".to_string())
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            let c2 = Arc::clone(&cache);
            let waiter = scope.spawn(move || {
                c2.get_or_compute("shared", fnv1a64(b"shared"), || {
                    Ok::<_, String>("second try".to_string())
                })
            });
            assert_eq!(failer.join().unwrap().unwrap_err(), "boom");
            let got = waiter.join().unwrap().unwrap();
            assert_eq!(got.payload.json(), "second try");
        });
        assert_conserved(&cache);
    }

    #[test]
    fn leader_failure_promotes_exactly_one_waiter() {
        // Several waiters pile up behind a leader that fails: exactly one
        // is promoted to retry; the rest receive the leader's failure
        // immediately instead of hanging or stampeding.
        let cache = Arc::new(PlanCache::new(8, 1));
        let retries = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let c = Arc::clone(&cache);
            let leader = scope.spawn(move || {
                c.get_or_compute("key", fnv1a64(b"key"), || {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    Err::<String, String>("leader lost".to_string())
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let c = Arc::clone(&cache);
                    let retries = Arc::clone(&retries);
                    scope.spawn(move || {
                        c.get_or_compute("key", fnv1a64(b"key"), move || {
                            retries.fetch_add(1, Ordering::SeqCst);
                            Ok::<_, String>("retried".to_string())
                        })
                    })
                })
                .collect();
            assert_eq!(leader.join().unwrap().unwrap_err(), "leader lost");
            let results: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
            let oks = results.iter().filter(|r| r.is_ok()).count();
            let errs: Vec<_> = results.iter().filter_map(|r| r.as_ref().err().cloned()).collect();
            // One promoted waiter recomputed; the others saw the failure.
            // (A waiter that arrived after the retry published counts as a
            // hit/coalesced, so oks can exceed 1 — but at most one compute
            // ran, and every error carries the leader's message.)
            assert_eq!(retries.load(Ordering::SeqCst), 1, "exactly one retry must run");
            assert!(oks >= 1, "the promoted waiter must succeed");
            for err in &errs {
                assert_eq!(err, "leader lost");
            }
            assert_eq!(oks + errs.len(), 3);
        });
        // The retried payload is published for later fetches.
        assert!(fetch(&cache, "key", "!").hit);
        assert_conserved(&cache);
    }

    #[test]
    fn panicked_compute_poisons_only_its_entry() {
        let cache = Arc::new(PlanCache::new(8, 1));
        let c = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let _ = c.get_or_compute("boom", fnv1a64(b"boom"), || -> Result<String, String> {
                panic!("search exploded")
            });
        });
        assert!(panicker.join().is_err(), "panic must propagate to the computing caller");
        // The entry is unpublished and the panic counted as a failure: the
        // next fetch recomputes successfully.
        assert_eq!(cache.stats().failures, 1);
        let got = fetch(&cache, "boom", "recovered");
        assert!(!got.hit);
        assert_eq!(got.payload.json(), "recovered");
        // Other keys were never affected.
        assert!(!fetch(&cache, "fine", "fine").hit);
        assert_conserved(&cache);
    }

    #[test]
    fn panicking_leader_wakes_waiters_with_panic_flag() {
        // A waiter behind a panicking leader must wake: promoted (retries)
        // or handed a LeaderFailure with panicked=true. With one waiter the
        // promotion is deterministic — it retries and succeeds.
        let cache = Arc::new(PlanCache::new(8, 1));
        std::thread::scope(|scope| {
            let c = Arc::clone(&cache);
            let panicker = scope.spawn(move || {
                let _ = c.get_or_compute("p", fnv1a64(b"p"), || -> Result<String, String> {
                    std::thread::sleep(std::time::Duration::from_millis(80));
                    panic!("kaboom")
                });
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            let c = Arc::clone(&cache);
            let waiter = scope.spawn(move || {
                c.get_or_compute("p", fnv1a64(b"p"), || Ok::<_, String>("healed".to_string()))
            });
            assert!(panicker.join().is_err());
            let got = waiter.join().unwrap().unwrap();
            assert_eq!(got.payload.json(), "healed");
        });
        assert_conserved(&cache);
    }

    #[test]
    fn peek_serves_ready_entries_without_computing() {
        let cache = PlanCache::new(8, 1);
        // A peek of an absent key is a clean None (not counted anywhere).
        assert!(cache.peek("a", fnv1a64(b"a")).is_none());
        fetch(&cache, "a", "payload-a");
        let peeked = cache.peek("a", fnv1a64(b"a")).expect("ready entry");
        assert_eq!(peeked.json(), "payload-a");
        let stats = cache.stats();
        assert_eq!(stats.peek_hits, 1);
        assert_eq!(stats.hits, 1, "a peek hit counts as a hit");
        assert_conserved(&cache);
    }

    #[test]
    fn seeding_plants_ready_entries_without_fetches() {
        let cache = PlanCache::new(2, 1);
        assert!(cache.seed("a", fnv1a64(b"a"), "payload-a"));
        assert!(!cache.seed("a", fnv1a64(b"a"), "CLOBBER"), "existing entry wins over a seed");
        let stats = cache.stats();
        assert_eq!((stats.seeded, stats.fetches, stats.entries), (1, 0, 1));
        assert_conserved(&cache);
        // A seeded entry serves peeks and fetch-hits like a published one.
        assert_eq!(cache.peek("a", fnv1a64(b"a")).expect("seeded entry").json(), "payload-a");
        let warm = fetch(&cache, "a", "SHOULD NOT RUN");
        assert!(warm.hit);
        assert_eq!(warm.payload.json(), "payload-a");
        assert_conserved(&cache);
        // Seeding respects the capacity bound: the oldest seed evicts.
        assert!(cache.seed("b", fnv1a64(b"b"), "payload-b"));
        assert!(cache.seed("c", fnv1a64(b"c"), "payload-c"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn peek_never_blocks_on_an_inflight_computation() {
        let cache = Arc::new(PlanCache::new(8, 1));
        std::thread::scope(|scope| {
            let c = Arc::clone(&cache);
            let leader = scope.spawn(move || {
                c.get_or_compute("slow", fnv1a64(b"slow"), || {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    Ok::<_, String>("eventually".to_string())
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            // The flight is pending: peek must return None immediately
            // rather than waiting behind it (degraded mode never queues).
            let start = std::time::Instant::now();
            assert!(cache.peek("slow", fnv1a64(b"slow")).is_none());
            assert!(start.elapsed() < std::time::Duration::from_millis(50));
            leader.join().unwrap().unwrap();
        });
        // Once published, the peek succeeds.
        assert_eq!(cache.peek("slow", fnv1a64(b"slow")).unwrap().json(), "eventually");
        assert_conserved(&cache);
    }

    #[test]
    fn counters_reconcile_under_concurrency() {
        let cache = PlanCache::new(64, 4);
        let total_calls = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                let total_calls = &total_calls;
                scope.spawn(move || {
                    for i in 0..50 {
                        let key = format!("k{}", (i + t) % 10);
                        total_calls.fetch_add(1, Ordering::SeqCst);
                        cache
                            .get_or_compute(&key, fnv1a64(key.as_bytes()), || {
                                Ok::<_, String>(key.clone())
                            })
                            .unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses + stats.coalesced,
            total_calls.load(Ordering::SeqCst) as u64,
            "every fetch must terminate in exactly one counter: {stats:?}"
        );
        assert_eq!(stats.fetches, total_calls.load(Ordering::SeqCst) as u64);
        assert!(stats.is_conserved(), "{stats:?}");
        assert!(stats.hit_rate() > 0.5);
    }
}
