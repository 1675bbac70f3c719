//! The closed-loop load generator: each client sends its next request only
//! after the previous reply arrived. At most two clients, one thread each.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pte_serve::codec::SearchRequest;

use crate::gen::{Generator, Prepared};
use crate::wire::{self, Codec, Conn, Raw};

/// Error messages kept per client (the count is always exact).
const KEPT_ERRORS: usize = 8;

/// The replies served for one key: `(codec, payload digest, reply count)`
/// per distinct digest.
pub type Replies = Vec<(Codec, u64, u64)>;

/// Everything one client observed, across all of its phases.
#[derive(Default)]
pub struct Log {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per key: the request and the replies served for it.
    pub served: HashMap<u64, (SearchRequest, Replies)>,
    /// Keys in the order this client first saw them.
    pub order: Vec<u64>,
    /// `(key, latency ns)` of every reply that computed a plan (a miss that
    /// neither hit the cache nor coalesced).
    pub misses: Vec<(u64, u64)>,
    /// Traced phases: `(start µs since the run epoch, duration ns)` of every
    /// request span.
    pub spans: Vec<(u64, u64)>,
}

impl Log {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(error);
        }
    }

    /// Sends one request, checks the reply and records the outcome.
    /// Returns the round-trip latency of a successful reply.
    pub fn call(&mut self, conn: &mut Conn, addr: SocketAddr, prepared: &Prepared) -> Option<u64> {
        self.attempted += 1;
        let start = Instant::now();
        let raw = conn.round_trip(prepared);
        let ns = start.elapsed().as_nanos() as u64;
        let raw: Raw = match raw {
            Ok(raw) => raw,
            Err(e) => {
                self.fail(format!("transport: {e}"));
                // The connection state is unknown after a transport error.
                if let Ok(fresh) = Conn::connect(addr, conn.codec()) {
                    *conn = fresh;
                }
                return None;
            }
        };
        match wire::check(&raw, prepared) {
            Ok(served) => {
                let (_, digests) = self.served.entry(prepared.key).or_insert_with(|| {
                    self.order.push(prepared.key);
                    (prepared.request.clone(), Vec::new())
                });
                let codec = conn.codec();
                match digests.iter_mut().find(|(c, d, _)| (*c, *d) == (codec, served.digest)) {
                    Some((_, _, count)) => *count += 1,
                    None => digests.push((codec, served.digest, 1)),
                }
                if !served.hit && !served.coalesced {
                    self.misses.push((prepared.key, ns));
                }
                Some(ns)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Folds another client's log into this one.
    pub fn merge(&mut self, other: Log) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for error in other.errors {
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(error);
            }
        }
        for key in other.order {
            let (request, digests) = &other.served[&key];
            let (_, mine) = self.served.entry(key).or_insert_with(|| {
                self.order.push(key);
                (request.clone(), Vec::new())
            });
            for &(codec, digest, count) in digests {
                match mine.iter_mut().find(|(c, d, _)| (*c, *d) == (codec, digest)) {
                    Some((_, _, n)) => *n += count,
                    None => mine.push((codec, digest, count)),
                }
            }
        }
        self.misses.extend(other.misses);
        self.spans.extend(other.spans);
    }
}

pub struct Client {
    pub conn: Conn,
    pub addr: SocketAddr,
    pub gen: Generator,
    pub log: Log,
}

impl Client {
    pub fn connect(addr: SocketAddr, codec: Codec, gen: Generator) -> Result<Client, String> {
        let conn = Conn::connect(addr, codec).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Client { conn, addr, gen, log: Log::default() })
    }
}

/// Windows a phase is split into by send time.
pub const WINDOWS: usize = 10;

/// One load phase's outcome.
pub struct Phase {
    /// Latency (ns) of every successful request.
    pub latencies: Vec<u64>,
    /// The same latencies, split by send time into [`WINDOWS`] windows of
    /// equal length.
    pub windows: Vec<Vec<u64>>,
    /// The phase's configured length.
    pub length: Duration,
    /// From the phase start until the last client finished its last request.
    pub wall: Duration,
}

/// Runs every client closed-loop for `length`; a client stops sending once
/// the phase is over and finishes the request in flight.
pub fn run_phase(clients: &mut [Client], length: Duration, epoch: Instant, traced: bool) -> Phase {
    let start = Instant::now();
    let end = start + length;
    let per_client: Vec<Vec<(usize, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    while Instant::now() < end {
                        let prepared = client.gen.next_request();
                        let span_start = epoch.elapsed().as_micros() as u64;
                        let sent = start.elapsed().as_secs_f64() / length.as_secs_f64();
                        let window = ((sent * WINDOWS as f64) as usize).min(WINDOWS - 1);
                        let Some(ns) = client.log.call(&mut client.conn, client.addr, &prepared)
                        else {
                            continue;
                        };
                        if traced {
                            client.log.spans.push((span_start, ns));
                        }
                        latencies.push((window, ns));
                    }
                    latencies
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed();
    let mut windows = vec![Vec::new(); WINDOWS];
    for (window, ns) in per_client.into_iter().flatten() {
        windows[window].push(ns);
    }
    Phase { latencies: windows.concat(), windows, length, wall }
}
