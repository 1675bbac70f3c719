//! The system under test as real processes: `pte-serve` daemons and, for
//! the routed workload, a `pte-route` in front of them.
//!
//! Each process binds an ephemeral port (`--addr 127.0.0.1:0`) and the
//! address is read back from its startup banner, so no port is ever
//! guessed. Every process is stopped and waited for, on the normal path by
//! a `shutdown` op and on any other by a kill in `Drop`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pte_serve::json::Json;

use crate::wire::{Codec, Conn};

pub struct Proc {
    pub name: String,
    pub addr: SocketAddr,
    pub args: Vec<String>,
    child: Child,
    /// Held open so the process's final log line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Proc {
    fn spawn(bin: &Path, name: String, args: Vec<String>) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{name} did not start ({read:?}): {banner:?}"));
        };
        let proc = Proc { name, addr, args, child, _stdout: stdout };
        proc.wait_ready()?;
        Ok(proc)
    }

    /// Pings until the process answers (the banner already means the
    /// listener is bound; this confirms the serving loop is up).
    fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let ping = Conn::connect(self.addr, Codec::Json).map_err(|e| e.to_string());
            match ping.and_then(|mut conn| conn.op("ping")) {
                Ok(_) => return Ok(()),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("{} never answered a ping: {e}", self.name))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn stats(&self) -> Result<Json, String> {
        Conn::connect(self.addr, Codec::Json).map_err(|e| e.to_string())?.op("stats")
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("{}: {e}", self.name))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse().ok())
            .ok_or_else(|| format!("{}: no VmHWM in /proc status", self.name))
    }

    /// Asks the process to drain and exit, and waits for it.
    fn stop(&mut self) {
        if let Ok(mut conn) = Conn::connect(self.addr, Codec::Json) {
            let _ = conn.op("shutdown");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

pub struct Fleet {
    pub daemons: Vec<Proc>,
    pub router: Option<Proc>,
    pub store_paths: Vec<PathBuf>,
}

impl Fleet {
    /// Starts `daemons` daemons with their default flags and, when
    /// `routed`, a plan log for each and a router over them.
    pub fn start(
        bin_dir: &Path,
        work_dir: &Path,
        daemons: usize,
        routed: bool,
    ) -> Result<Fleet, String> {
        let mut fleet = Fleet { daemons: Vec::new(), router: None, store_paths: Vec::new() };
        for index in 0..daemons {
            let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
            if routed {
                let path = work_dir.join(format!("shard{index}.log"));
                let _ = std::fs::remove_file(&path);
                args.extend(["--store".to_string(), path.display().to_string()]);
                fleet.store_paths.push(path);
            }
            let name = format!("pte-serve#{index}");
            fleet.daemons.push(Proc::spawn(&bin_dir.join("pte-serve"), name, args)?);
        }
        if routed {
            fleet.router = Some(Fleet::spawn_router(bin_dir, &fleet.daemons)?);
        }
        Ok(fleet)
    }

    /// A `pte-route` over `daemons`, default flags apart from the ports.
    pub fn spawn_router(bin_dir: &Path, daemons: &[Proc]) -> Result<Proc, String> {
        let shards: Vec<String> = daemons.iter().map(|d| d.addr.to_string()).collect();
        let args = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--shards".to_string(),
            shards.join(","),
        ];
        Proc::spawn(&bin_dir.join("pte-route"), "pte-route".into(), args)
    }

    /// Where clients connect: the router when there is one.
    pub fn entry(&self) -> SocketAddr {
        self.router.as_ref().unwrap_or(&self.daemons[0]).addr
    }

    pub fn procs(&self) -> impl Iterator<Item = &Proc> {
        self.router.iter().chain(&self.daemons)
    }

    /// Σ peak RSS over every process, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let mut kib = 0;
        for proc in self.procs() {
            kib += proc.peak_rss_kib()?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// Stops the router, then the daemons, waiting for each to exit.
    pub fn stop(&mut self) {
        if let Some(router) = &mut self.router {
            router.stop();
        }
        for daemon in &mut self.daemons {
            daemon.stop();
        }
    }
}
