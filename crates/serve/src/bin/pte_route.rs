//! `pte-route` — the fault-tolerant routing tier in front of a `pte-serve`
//! fleet.
//!
//! ```text
//! pte-route --shards HOST:PORT[,HOST:PORT...]
//!           [--addr 127.0.0.1:7465] [--replicas 2] [--vnodes 64]
//!           [--hedge-after-ms 0] [--probe-every-ms 500]
//!           [--probe-timeout-ms 250] [--trip-after 3] [--cooloff-ms 1000]
//! ```
//!
//! `--shards` (or `PTE_ROUTE_SHARDS`) lists the backend daemons; the list
//! is also the set of stable ring identities, so any ordering of the same
//! fleet routes identically. `--replicas` is how many distinct shards a
//! key may try (primary + failovers); `--hedge-after-ms` hedges a search
//! to the next replica when the primary has not answered within the
//! window (0 disables hedging). The health plane trips a shard to `down`
//! after `--trip-after` consecutive failures and half-open-probes it
//! again `--cooloff-ms` later; `--probe-every-ms` is the active ping
//! cadence and `--probe-timeout-ms` the per-ping read timeout.
//!
//! Every flag but `--addr` falls back to a `PTE_ROUTE_*` environment
//! variable when it is absent, so a fleet can be tuned without editing unit
//! files; an unparseable environment value is ignored rather than fatal.
//!
//! The router runs on the daemon's connection core: one event loop blocked
//! in `poll(2)` and a worker pool sized from the fleet, so it has no
//! cadence knob, idle clients cost no threads, and a client idle for 60 s
//! is disconnected, as the daemon's default `--idle-timeout-ms` does.

use std::time::Duration;

use pte_serve::router::{route, RouterConfig};

fn usage() -> ! {
    eprintln!(
        "usage: pte-route --shards HOST:PORT[,HOST:PORT...] [--addr HOST:PORT] \
         [--replicas N] [--vnodes N] [--hedge-after-ms N] [--probe-every-ms N] \
         [--probe-timeout-ms N] [--trip-after N] [--cooloff-ms N]"
    );
    std::process::exit(2);
}

/// Splits a comma-separated `--shards` list into addresses, trimming
/// whitespace and dropping empty entries.
fn parse_shards(list: &str) -> Vec<String> {
    list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string).collect()
}

/// Each flag's environment fallback, applied before the command line so a
/// flag always wins.
const ENV_FALLBACKS: [(&str, &str); 8] = [
    ("--shards", "PTE_ROUTE_SHARDS"),
    ("--replicas", "PTE_ROUTE_REPLICAS"),
    ("--vnodes", "PTE_ROUTE_VNODES"),
    ("--hedge-after-ms", "PTE_ROUTE_HEDGE_AFTER_MS"),
    ("--probe-every-ms", "PTE_ROUTE_PROBE_EVERY_MS"),
    ("--probe-timeout-ms", "PTE_ROUTE_PROBE_TIMEOUT_MS"),
    ("--trip-after", "PTE_ROUTE_TRIP_AFTER"),
    ("--cooloff-ms", "PTE_ROUTE_COOLOFF_MS"),
];

/// Applies one flag; `None` for an unknown flag or an unparseable value.
fn apply(config: &mut RouterConfig, flag: &str, value: String) -> Option<()> {
    let ms = || value.parse().ok().map(Duration::from_millis);
    match flag {
        "--addr" => config.addr = value,
        "--shards" => config.shards = parse_shards(&value),
        "--replicas" => config.replicas = value.parse().ok()?,
        "--vnodes" => config.vnodes = value.parse().ok()?,
        "--hedge-after-ms" => config.hedge_after = Some(ms()?).filter(|d| !d.is_zero()),
        "--probe-every-ms" => config.probe_every = ms()?,
        "--probe-timeout-ms" => config.probe_timeout = ms()?,
        "--trip-after" => config.trip_after = value.parse().ok()?,
        "--cooloff-ms" => config.cooloff = ms()?,
        _ => return None,
    }
    Some(())
}

fn parse_args() -> RouterConfig {
    let mut config = RouterConfig { addr: "127.0.0.1:7465".into(), ..RouterConfig::default() };
    for (flag, var) in ENV_FALLBACKS {
        if let Ok(value) = std::env::var(var) {
            // An unparseable environment value is ignored, not fatal.
            let _ = apply(&mut config, flag, value);
        }
    }
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage());
        apply(&mut config, &flag, value).unwrap_or_else(|| usage());
    }
    if config.shards.is_empty() {
        eprintln!("pte-route: no shards given (--shards or PTE_ROUTE_SHARDS)");
        usage();
    }
    config
}

fn main() {
    let config = parse_args();
    let router = match route(&config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("pte-route: cannot start on {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "pte-route listening on {} ({} shards, {} replicas, {} vnodes, hedge {}, \
         probe every {}ms, trip after {}, cooloff {}ms)",
        router.addr(),
        config.shards.len(),
        config.replicas,
        config.vnodes,
        config.hedge_after.map_or("off".into(), |d| format!("{}ms", d.as_millis())),
        config.probe_every.as_millis(),
        config.trip_after,
        config.cooloff.as_millis(),
    );
    // Runs until a client sends a shutdown op (or the process is killed);
    // wait returns once the event loop, workers and prober have drained.
    router.wait();
    println!("pte-route: drained, bye");
}
