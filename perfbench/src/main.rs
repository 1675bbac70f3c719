//! `perfbench` — the served-search benchmark.
//!
//! ```text
//! perfbench --workload cold_search|warm_hits|routed_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the real `pte-serve` (and `pte-route`) binaries from
//! `$PERFBENCH_BIN_DIR`, loads them closed-loop from at most two client
//! threads for `S` seconds, checks every reply against an in-process
//! reference, and prints one line per metric followed by the JSON result.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the separate
//! traced run that reports the per-layer ledger. `perfbench/run.sh` builds
//! everything from source and runs this binary.

mod fleet;
mod gen;
mod ledger;
mod load;
mod report;
mod verify;
mod wire;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pte_serve::json::Json;
use pte_serve::router::{HashRing, RouterConfig};

use crate::fleet::{Fleet, Proc};
use crate::gen::{Generator, Prepared, Workload};
use crate::ledger::Sample;
use crate::load::{Client, Log, Phase};
use crate::report::Metrics;
use crate::wire::{Codec, Conn};

/// Threads computing reference payloads after the load phase.
const VERIFY_THREADS: usize = 2;
/// Round trips per RTT probe of the traced run.
const RTT_PROBES: usize = 300;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload cold_search|warm_hits|routed_mixed --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Args { workload, seed, seconds, trace }
        }
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Counters read from the daemons' and router's `stats` ops.
#[derive(Default)]
struct FleetStats {
    shed: u64,
    errors: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    appends: u64,
    probe_hits: u64,
    probe_misses: u64,
    /// Conservation-law violations, by process.
    violations: Vec<String>,
}

fn count(doc: &Json, path: &[&str]) -> u64 {
    path.iter().try_fold(doc, |node, key| node.get(key)).and_then(Json::as_u64).unwrap_or(0)
}

fn conserved(doc: &Json, path: &[&str]) -> bool {
    path.iter().try_fold(doc, |node, key| node.get(key)).and_then(Json::as_bool) == Some(true)
}

fn read_stats(fleet: &Fleet) -> Result<FleetStats, String> {
    let mut stats = FleetStats::default();
    for daemon in &fleet.daemons {
        let doc = daemon.stats()?;
        stats.shed += count(&doc, &["shed"]);
        stats.errors += count(&doc, &["errors"]);
        stats.hits += count(&doc, &["cache", "hits"]);
        stats.misses += count(&doc, &["cache", "misses"]);
        stats.coalesced += count(&doc, &["cache", "coalesced"]);
        stats.appends += count(&doc, &["store", "appends"]);
        stats.probe_hits += count(&doc, &["probe_cache", "hits"]);
        stats.probe_misses += count(&doc, &["probe_cache", "misses"]);
        if !conserved(&doc, &["cache", "conserved"]) {
            stats.violations.push(format!("{}: cache conservation law violated", daemon.name));
        }
    }
    if let Some(router) = &fleet.router {
        let doc = router.stats()?;
        if !conserved(&doc, &["conserved"]) {
            stats
                .violations
                .push(format!("{}: routed == forwarded + failovers + shed violated", router.name));
        }
    }
    Ok(stats)
}

/// Starts the fleet and prefills the hot set; returns the fleet, the
/// prefill's log and the set-up time (spawn of the first process until the
/// system is ready for the first timed request).
fn set_up(
    args: &Args,
    bin_dir: &Path,
    work_dir: &Path,
    hot: &[Prepared],
) -> Result<(Fleet, Log, f64), String> {
    let workload = args.workload;
    let start = Instant::now();
    let fleet = Fleet::start(bin_dir, work_dir, workload.daemons(), workload.routed())?;
    let mut log = Log::default();
    let mut conn =
        Conn::connect(fleet.entry(), Codec::Json).map_err(|e| format!("prefill connect: {e}"))?;
    for prepared in hot {
        log.call(&mut conn, fleet.entry(), prepared);
    }
    let setup_s = start.elapsed().as_secs_f64();
    if log.failed > 0 {
        return Err(format!("prefill failed: {:?}", log.errors));
    }
    Ok((fleet, log, setup_s))
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let epoch = Instant::now();
    let bin_dir = PathBuf::from(
        std::env::var("PERFBENCH_BIN_DIR")
            .map_err(|_| "PERFBENCH_BIN_DIR is not set (run perfbench/run.sh)".to_string())?,
    );
    for bin in ["pte-serve", "pte-route"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!("{} not found in {}", bin, bin_dir.display()));
        }
    }
    let run_root = PathBuf::from(".bench_run");
    let work_dir =
        run_root.join(format!("{}-{}-{}", workload.name(), args.seed, std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let result = measure(args, &bin_dir, &work_dir, &run_root, epoch);
    let _ = std::fs::remove_dir_all(&work_dir);
    result
}

/// Every set-up of a run: the last fleet stays up, the others are stopped
/// before the next starts. Returns it with the prefill replies of every
/// set-up (checked like the load's) and each set-up's time.
fn set_ups(
    args: &Args,
    bin_dir: &Path,
    work_dir: &Path,
    hot: &[Prepared],
) -> Result<(Fleet, Log, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut prefill = Log::default();
    let mut current: Option<Fleet> = None;
    for _ in 0..if args.trace { 1 } else { args.workload.setups() } {
        if let Some(mut fleet) = current.take() {
            fleet.stop();
        }
        let (fleet, log, setup_s) = set_up(args, bin_dir, work_dir, hot)?;
        times.push(setup_s);
        prefill.merge(log);
        current = Some(fleet);
    }
    Ok((current.expect("at least one set-up"), prefill, times))
}

/// What the load left behind.
struct Observed {
    /// Every checked reply of the run, prefills included.
    log: Log,
    /// Requests sent by the timed phases.
    attempted: u64,
    /// Timed-phase requests that failed in transport or at the server.
    failed: u64,
    errors: Vec<String>,
    codecs: Vec<&'static str>,
    /// The measured phase; a traced run's untraced half.
    phase: Phase,
    /// A traced run's traced half.
    traced: Option<Phase>,
}

fn run_load(
    args: &Args,
    fleet: &Fleet,
    hot: &[Prepared],
    prefill: Log,
    epoch: Instant,
) -> Result<Observed, String> {
    let codecs = [Codec::Json, Codec::Binary];
    let mut clients = (0..args.workload.clients())
        .map(|c| {
            let gen = Generator::new(args.workload, args.seed, c, hot);
            Client::connect(fleet.entry(), codecs[c], gen)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let length = Duration::from_secs(args.seconds);
    let (phase, traced) = if args.trace {
        let untraced = load::run_phase(&mut clients, length / 2, epoch, false);
        (untraced, Some(load::run_phase(&mut clients, length / 2, epoch, true)))
    } else {
        (load::run_phase(&mut clients, length, epoch, false), None)
    };
    let codecs = clients.iter().map(|c| c.conn.codec().name()).collect();
    let mut log = Log::default();
    for client in clients {
        log.merge(client.log);
    }
    let (attempted, failed, errors) = (log.attempted, log.failed, log.errors.clone());
    log.merge(prefill);
    Ok(Observed { log, attempted, failed, errors, codecs, phase, traced })
}

/// The requests the traced run replays and probes: two of the workload's
/// own, plus two fresh keys on `routed_mixed`.
fn sample_keys(workload: Workload, hot: &[Prepared], log: &Log) -> Vec<u64> {
    let hot_keys: HashSet<u64> = hot.iter().map(|p| p.key).collect();
    let fresh = log.order.iter().copied().filter(|k| !hot_keys.contains(k));
    let hot = hot.iter().map(|p| p.key);
    let wanted = workload.ledger_samples();
    match workload {
        Workload::ColdSearch => fresh.take(wanted).collect(),
        Workload::WarmHits => hot.take(wanted).collect(),
        Workload::RoutedMixed => hot.take(wanted / 2).chain(fresh.take(wanted / 2)).collect(),
    }
}

fn p50_ms(phase: &Phase) -> f64 {
    report::percentile(&report::sorted(phase.latencies.clone()), 0.5) as f64 / 1e6
}

fn measure(
    args: &Args,
    bin_dir: &Path,
    work_dir: &Path,
    run_root: &Path,
    epoch: Instant,
) -> Result<(), String> {
    let workload = args.workload;
    let hot: Vec<Prepared> =
        gen::hot_set(workload, args.seed).into_iter().map(Prepared::new).collect();
    let (mut fleet, prefill, mut setup_times) = set_ups(args, bin_dir, work_dir, &hot)?;
    let daemon_flags: Vec<(String, Vec<String>)> =
        fleet.procs().map(|p| (p.name.clone(), p.args.clone())).collect();
    let mode = if args.trace { "traced" } else { "measured" };
    let provenance =
        report::provenance(mode, workload.name(), args.seed, args.seconds, &daemon_flags);

    let observed = run_load(args, &fleet, &hot, prefill, epoch)?;
    let log = &observed.log;
    let stats = read_stats(&fleet)?;
    let rss_mib = fleet.peak_rss_mib()?;
    let samples = sample_keys(workload, &hot, log);
    let rtt = if args.trace { Some(rtt_probes(&fleet, bin_dir, &samples, log)?) } else { None };
    // The conservation laws, read after the run's last request.
    let violations = read_stats(&fleet)?.violations;
    fleet.stop();
    let run_log = fleet.store_paths.first().cloned();
    drop(fleet);

    // Every reply against its reference payload.
    let requests: Vec<(u64, _)> =
        log.order.iter().map(|key| (*key, log.served[key].0.clone())).collect();
    let expected = verify::expected(&requests, VERIFY_THREADS)?;
    let mut mismatched = 0;
    for (key, (_, digests)) in &log.served {
        let want = &expected[key];
        for &(codec, digest, replies) in digests {
            let reference = match codec {
                Codec::Json => want.digest,
                Codec::Binary => want.bin_digest,
            };
            if digest != reference {
                mismatched += replies;
            }
        }
    }
    let failed = observed.failed + mismatched;
    let mut problems = violations;
    if mismatched > 0 {
        problems.push(format!("{mismatched} replies did not match their reference payload"));
    }
    problems.extend(observed.errors.iter().map(|e| format!("request failed: {e}")));

    let mut metrics = Metrics::default();
    metrics.note(format!("provenance {}", provenance.write().expect("provenance is finite")));
    metrics.note(format!(
        "workload {}: {} client(s) ({}), closed loop, {} s, {} attempted, {} failed, \
         error_rate {} ratio",
        workload.name(),
        observed.codecs.len(),
        observed.codecs.join(" + "),
        args.seconds,
        observed.attempted,
        failed,
        failed as f64 / observed.attempted.max(1) as f64,
    ));
    match (&observed.traced, rtt) {
        (Some(traced), Some(rtt)) => {
            let samples: Vec<Sample> = samples
                .iter()
                .map(|key| Sample {
                    prepared: Prepared::new(log.served[key].0.clone()),
                    served_digest: expected[key].digest,
                })
                .collect();
            let tracer =
                ledger::replay(&samples, work_dir, run_log.as_deref(), epoch, &mut metrics)?;
            ledger::kernels(&mut metrics);
            per_layer(&mut metrics, &stats, rtt, &observed.phase, traced);
            write_trace(run_root, args, &provenance, log, &tracer)?;
        }
        _ => {
            let setup_s = report::median(&mut setup_times);
            end_to_end(&mut metrics, &observed, &expected, setup_s, rss_mib)?;
        }
    }
    for problem in &problems {
        metrics.note(format!("FAILED: {problem}"));
    }
    report::print(&metrics, problems.is_empty(), observed.attempted, failed);
    Ok(())
}

/// A window must hold this many replies for a phase to be summarised per
/// window (enough for a p99 with ten samples beyond it).
const WINDOW_MIN_SAMPLES: usize = 1000;

/// Latency and throughput of a measured phase. When every window holds
/// [`WINDOW_MIN_SAMPLES`] replies, each figure is the median over the
/// phase's windows, so a stretch of CPU steal covering a few windows does
/// not move it; otherwise (`cold_search`) the phase is one window. The tail
/// is, in each window, the highest percentile that the smallest window keeps
/// ten samples beyond. Returns `(p50 ms, tail ms, tail label, rps, windows)`.
fn latency_summary(phase: &Phase) -> Option<(f64, f64, &'static str, f64, usize)> {
    let windowed = phase.windows.iter().all(|w| w.len() >= WINDOW_MIN_SAMPLES);
    let (windows, seconds) = if windowed {
        let windows: Vec<&[u64]> = phase.windows.iter().map(Vec::as_slice).collect();
        (windows, phase.length.as_secs_f64() / load::WINDOWS as f64)
    } else {
        (vec![phase.latencies.as_slice()], phase.wall.as_secs_f64())
    };
    let smallest = windows.iter().map(|w| w.len()).min()?;
    let tail = report::tail_percentile(smallest);
    let (mut p50s, mut tails, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for window in &windows {
        let sorted = report::sorted(window.to_vec());
        let slowest = *sorted.last()?;
        p50s.push(report::percentile(&sorted, 0.5) as f64 / 1e6);
        tails.push(tail.map_or(slowest, |(p, _)| report::percentile(&sorted, p)) as f64 / 1e6);
        rates.push(sorted.len() as f64 / seconds);
    }
    let label = tail.map_or("max", |(_, label)| label);
    let (p50, tail_ms, rps) =
        (report::median(&mut p50s), report::median(&mut tails), report::median(&mut rates));
    Some((p50, tail_ms, label, rps, windows.len()))
}

fn end_to_end(
    metrics: &mut Metrics,
    observed: &Observed,
    expected: &HashMap<u64, verify::Expected>,
    setup_s: f64,
    rss_mib: f64,
) -> Result<(), String> {
    let phase = &observed.phase;
    let Some((p50_ms, tail_ms, tail_label, rps, windows)) = latency_summary(phase) else {
        return Err(format!("no request completed: {:?}", observed.errors));
    };
    let misses = &observed.log.misses;
    let miss_ns: u64 = misses.iter().map(|(_, ns)| ns).sum();
    let miss_evals: u64 = misses.iter().map(|(key, _)| expected[key].attempted).sum();
    let speedups: Vec<f64> = expected.values().map(|e| e.baseline_ms / e.plan_ms).collect();
    metrics.note(format!(
        "latency figures are medians over {windows} window(s) of {} replies in all; \
         latency_tail_ms is {tail_label}; evals_per_s over {} served misses; plan_speedup \
         over {} distinct plans",
        phase.latencies.len(),
        misses.len(),
        speedups.len()
    ));
    metrics.put("setup_s", setup_s, "s");
    metrics.put("latency_p50_ms", p50_ms, "ms");
    metrics.put("latency_tail_ms", tail_ms, "ms");
    metrics.put("throughput_rps", rps, "1/s");
    metrics.put("evals_per_s", miss_evals as f64 / (miss_ns as f64 / 1e9), "1/s");
    metrics.put("plan_speedup", report::geomean(&speedups), "x");
    metrics.put("daemon_rss_mb", rss_mib, "MiB");
    Ok(())
}

/// The per-layer metrics read from the fleet (stats ops, RTT probes) and
/// the two load halves; the ledger and kernel rows are already in `metrics`.
fn per_layer(
    metrics: &mut Metrics,
    stats: &FleetStats,
    (rtt_us, hop_us, router_doc): (f64, f64, Json),
    untraced: &Phase,
    traced: &Phase,
) {
    let lookups = (stats.hits + stats.misses + stats.coalesced).max(1);
    let probes = (stats.probe_hits + stats.probe_misses).max(1);
    let routed = count(&router_doc, &["routed"]).max(1);
    let failovers = count(&router_doc, &["failovers"]) + count(&router_doc, &["shed"]);
    let in_process_us: f64 = ["codec.json_decode_us", "codec.key_us", "cache.peek_us"]
        .iter()
        .map(|name| metrics.get(name).unwrap_or(0.0))
        .sum();
    metrics.put("router.hop_us", hop_us, "us");
    metrics.put("router.failover_ratio", failovers as f64 / routed as f64, "ratio");
    metrics.put("server.rtt_us", rtt_us, "us");
    metrics.put("server.loop_us", rtt_us - in_process_us, "us");
    metrics.put("server.shed", stats.shed as f64, "count");
    metrics.put("server.errors", stats.errors as f64, "count");
    metrics.put("cache.hit_ratio", (stats.hits + stats.coalesced) as f64 / lookups as f64, "ratio");
    metrics.put("cache.coalesced", stats.coalesced as f64, "count");
    metrics.put("store.appends", stats.appends as f64, "count");
    metrics.put("fisher.memo_hit_ratio", stats.probe_hits as f64 / probes as f64, "ratio");
    let (untraced_p50, traced_p50) = (p50_ms(untraced), p50_ms(traced));
    metrics.put("trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%");
    metrics.note(format!(
        "latency_p50_ms untraced {untraced_p50} / traced {traced_p50}; thread count {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
}

/// RTT of one idle connection straight to the daemon that owns the first
/// sample key, and through a router (the fleet's, or a temporary one over
/// the daemons). Returns `(direct µs, routed − direct µs, router stats)`.
fn rtt_probes(
    fleet: &Fleet,
    bin_dir: &Path,
    sample_keys: &[u64],
    log: &Log,
) -> Result<(f64, f64, Json), String> {
    let key = *sample_keys.first().ok_or("no sample to probe")?;
    let prepared = Prepared::new(log.served[&key].0.clone());
    let ids: Vec<String> = fleet.daemons.iter().map(|d| d.addr.to_string()).collect();
    // The router runs with its default ring, so this finds its primary.
    let ring = HashRing::build(&ids, RouterConfig::default().vnodes);
    let owner = &fleet.daemons[ring.primary(key)];
    let temporary: Option<Proc> = match fleet.router {
        Some(_) => None,
        None => Some(Fleet::spawn_router(bin_dir, &fleet.daemons)?),
    };
    let router = fleet.router.as_ref().or(temporary.as_ref()).expect("one router exists");
    // Direct and routed round trips alternate, so both see the same
    // background load.
    let connect = |addr| Conn::connect(addr, Codec::Json).map_err(|e| e.to_string());
    let (mut direct_conn, mut routed_conn) = (connect(owner.addr)?, connect(router.addr)?);
    let mut probe_log = Log::default();
    let (mut direct, mut routed) = (Vec::new(), Vec::new());
    for _ in 0..RTT_PROBES {
        for (conn, addr, times) in [
            (&mut direct_conn, owner.addr, &mut direct),
            (&mut routed_conn, router.addr, &mut routed),
        ] {
            let ns = probe_log.call(conn, addr, &prepared).ok_or("RTT probe failed")?;
            times.push(ns as f64 / 1e3);
        }
    }
    let (direct, routed) = (report::median(&mut direct), report::median(&mut routed));
    let router_doc = router.stats()?;
    Ok((direct, routed - direct, router_doc))
}

/// Writes the traced run's spans (client request spans and the ledger
/// tree) as one JSON document.
fn write_trace(
    run_root: &Path,
    args: &Args,
    provenance: &Json,
    log: &Log,
    tracer: &ledger::Tracer,
) -> Result<(), String> {
    let requests: Vec<Json> = log
        .spans
        .iter()
        .map(|&(start_us, ns)| {
            Json::obj(vec![
                ("name", Json::Str("request".into())),
                ("start_us", Json::Int(start_us as i64)),
                ("dur_us", Json::Float(ns as f64 / 1e3)),
            ])
        })
        .collect();
    let ledger: Vec<Json> = tracer
        .spans
        .iter()
        .map(|span| {
            Json::obj(vec![
                ("name", Json::Str(span.name.into())),
                ("parent", span.parent.map_or(Json::Null, |p| Json::Int(p as i64))),
                ("start_us", Json::Float(span.start_us)),
                ("dur_us", Json::Float(span.dur_us)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("provenance", provenance.clone()),
        ("requests", Json::Arr(requests)),
        ("ledger", Json::Arr(ledger)),
    ]);
    let path = run_root.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let text = doc.write().map_err(|e| e.message)?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
