//! `pte-serve` — the search-as-a-service daemon.
//!
//! Binds a TCP port, serves search requests — line-delimited JSON or
//! length-prefixed binary frames, auto-detected per connection — through
//! the sharded single-flight plan cache, and runs until killed or asked to
//! shut down over either codec.
//!
//! ```text
//! pte-serve [--addr 127.0.0.1:7464] [--workers 4] [--cache-cap 256]
//!           [--cache-shards 8] [--probe-cache-cap N]
//!           [--max-pending 32] [--retry-after-ms 200]
//!           [--default-deadline-ms 0]
//!           [--idle-timeout-ms 60000] [--store PATH]
//!           [--metrics-every-ms N] [--metrics-file PATH]
//! ```
//!
//! `--probe-cache-cap` sizes the process-wide Fisher probe memo for
//! long-lived serving (equivalent to `PTE_PROBE_CACHE_CAP`, but applied
//! programmatically so it wins over the environment). `--max-pending`
//! bounds concurrent non-hit searches (overflow answers `overloaded` with
//! the `--retry-after-ms` hint; cache hits always serve), and
//! `--default-deadline-ms` caps searches whose request carries no
//! `deadline_ms` of its own (0 disables the default).
//!
//! `--idle-timeout-ms` closes keep-alive connections with no completed
//! request for that long (they cost no threads, only a socket and a slot in
//! the event loop's `poll(2)` set). It falls back to the
//! `PTE_SERVE_IDLE_TIMEOUT_MS` environment variable when the flag is
//! absent, so a fleet can be tuned without editing unit files.
//!
//! `--metrics-every-ms` (or `PTE_SERVE_METRICS_EVERY_MS`) appends a
//! metrics snapshot — the same JSON document the `stats` op serves — to
//! `--metrics-file` (default `pte_metrics.jsonl`, or
//! `PTE_SERVE_METRICS_FILE`) every N milliseconds, one document per line,
//! for offline plotting. Live scraping goes through the `metrics` op
//! instead.
//!
//! `--store PATH` (or `PTE_SERVE_STORE`) enables the append-only plan log:
//! replayed into the cache on boot — a restarted daemon answers its prior
//! working set as bit-identical cache hits from the first request — and
//! appended on every computed plan. A tail torn by a crash is truncated
//! away on open, never fatal.

use std::time::Duration;

use pte_serve::server::{serve, ServerConfig};

struct Args {
    config: ServerConfig,
    probe_cache_cap: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pte-serve [--addr HOST:PORT] [--workers N] [--cache-cap N] \
         [--cache-shards N] [--probe-cache-cap N] [--max-pending N] \
         [--retry-after-ms N] [--default-deadline-ms N] [--idle-timeout-ms N] \
         [--store PATH] [--metrics-every-ms N] [--metrics-file PATH]"
    );
    std::process::exit(2);
}

/// Environment fallbacks, applied before the command line so a flag always
/// wins. Empty or unparseable values are ignored rather than fatal.
const ENV_FALLBACKS: [(&str, &str); 4] = [
    ("--idle-timeout-ms", "PTE_SERVE_IDLE_TIMEOUT_MS"),
    ("--store", "PTE_SERVE_STORE"),
    ("--metrics-every-ms", "PTE_SERVE_METRICS_EVERY_MS"),
    ("--metrics-file", "PTE_SERVE_METRICS_FILE"),
];

/// Applies one flag; `None` for an unknown flag or an unparseable value.
fn apply(args: &mut Args, flag: &str, value: String) -> Option<()> {
    let config = &mut args.config;
    let ms = || value.parse().ok().map(Duration::from_millis);
    match flag {
        "--addr" => config.addr = value,
        "--workers" => config.workers = value.parse().ok()?,
        "--cache-cap" => config.cache_capacity = value.parse().ok()?,
        "--cache-shards" => config.cache_shards = value.parse().ok()?,
        "--probe-cache-cap" => args.probe_cache_cap = Some(value.parse().ok()?),
        "--max-pending" => config.max_pending_searches = value.parse().ok()?,
        "--retry-after-ms" => config.retry_after_ms = value.parse().ok()?,
        "--default-deadline-ms" => config.default_deadline_ms = value.parse().ok()?,
        "--idle-timeout-ms" => config.idle_timeout = ms()?,
        "--store" => config.store_path = Some(value.into()),
        "--metrics-every-ms" => config.metrics_every = Some(ms()?).filter(|d| !d.is_zero()),
        "--metrics-file" => config.metrics_path = Some(value.into()),
        _ => return None,
    }
    Some(())
}

fn parse_args() -> Args {
    let config = ServerConfig { addr: "127.0.0.1:7464".into(), ..ServerConfig::default() };
    let mut args = Args { config, probe_cache_cap: None };
    for (flag, var) in ENV_FALLBACKS {
        if let Some(value) = std::env::var(var).ok().filter(|v| !v.is_empty()) {
            let _ = apply(&mut args, flag, value);
        }
    }
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage());
        apply(&mut args, &flag, value).unwrap_or_else(|| usage());
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some(cap) = args.probe_cache_cap {
        pte_core::fisher::proxy::set_probe_cache_capacity(Some(cap));
    }
    let handle = match serve(&args.config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("pte-serve: cannot start on {}: {e}", args.config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "pte-serve listening on {} ({} workers, cache {} entries / {} shards, probe memo cap {}, \
         max pending {}, idle timeout {}ms, store {}; warm-started {} plans)",
        handle.addr(),
        args.config.workers,
        args.config.cache_capacity,
        args.config.cache_shards,
        pte_core::fisher::proxy::probe_cache_capacity(),
        args.config.max_pending_searches,
        args.config.idle_timeout.as_millis(),
        args.config.store_path.as_deref().map_or("off".into(), |p| p.display().to_string()),
        handle.state().store_loaded(),
    );
    // Runs until a client sends a shutdown op (or the process is killed);
    // join returns once the event loop and workers have drained.
    let state = std::sync::Arc::clone(handle.state());
    while !state.is_stopping() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.join();
    println!("pte-serve: drained, bye");
}
