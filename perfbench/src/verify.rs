//! Reference answers, computed in-process after the load phase: the
//! expected payload of every served request (`codec::execute`, the function
//! the daemons compute misses with) and the `baseline`-strategy plan each
//! served plan is compared against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use pte_serve::codec::{execute, PlanPayload, SearchRequest, Strategy};
use pte_serve::codec_bin::encode_payload;
use pte_serve::json::fnv1a64;

/// What the daemons should have served for one request key.
pub struct Expected {
    /// FNV-1a 64 of the canonical payload bytes.
    pub digest: u64,
    /// FNV-1a 64 of the payload packed for the binary codec.
    pub bin_digest: u64,
    /// The plan's end-to-end latency (ms).
    pub plan_ms: f64,
    /// The `baseline` plan's latency for the same network, platform,
    /// trials and `tune_seed` (ms).
    pub baseline_ms: f64,
    /// Candidate sequences the search attempted.
    pub attempted: u64,
}

/// Maps `jobs` through `f` on `threads` scoped threads, keeping input order.
pub fn par_map<T: Sync, R: Send>(jobs: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break done };
                        done.push((index, f(job)));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("verifier thread panicked")).collect()
    });
    results.sort_by_key(|(index, _)| *index);
    results.into_iter().map(|(_, r)| r).collect()
}

fn run(request: &SearchRequest) -> Result<(String, PlanPayload), String> {
    let bytes = execute(request).map_err(|e| e.message)?;
    let payload = PlanPayload::parse(&bytes).map_err(|e| e.message)?;
    Ok((bytes, payload))
}

/// The baseline request a served request is compared against.
fn baseline_of(request: &SearchRequest) -> SearchRequest {
    let mut baseline = request.clone();
    baseline.strategy = Strategy::Baseline;
    // Only network, platform, trials and tune_seed shape a baseline plan;
    // pin the rest so one baseline serves every request that shares them.
    baseline.random_per_layer = 0;
    baseline.seed = 0;
    baseline
}

/// Computes the expected answer for every `(key, request)`.
pub fn expected(
    requests: &[(u64, SearchRequest)],
    threads: usize,
) -> Result<HashMap<u64, Expected>, String> {
    let mut baselines: Vec<SearchRequest> = Vec::new();
    for (_, request) in requests {
        let baseline = baseline_of(request);
        if !baselines.contains(&baseline) {
            baselines.push(baseline);
        }
    }
    let baseline_ms: Vec<f64> = par_map(&baselines, threads, |b| run(b).map(|(_, p)| p.latency_ms))
        .into_iter()
        .collect::<Result<_, _>>()?;
    let answers = par_map(requests, threads, |(key, request)| {
        let (bytes, payload) = run(request)?;
        let packed = encode_payload(&payload).map_err(|e| e.message)?;
        let index = baselines.iter().position(|b| *b == baseline_of(request)).expect("collected");
        Ok::<_, String>((
            *key,
            Expected {
                digest: fnv1a64(bytes.as_bytes()),
                bin_digest: fnv1a64(&packed),
                plan_ms: payload.latency_ms,
                baseline_ms: baseline_ms[index],
                attempted: payload.stats.attempted,
            },
        ))
    });
    answers.into_iter().collect()
}
