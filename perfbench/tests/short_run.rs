//! A one-second run of every workload, in both modes, against freshly built
//! daemons: each must pass its checks and print every metric
//! `BENCHMARK.json` declares for that mode, with the declared unit.

use std::path::{Path, PathBuf};
use std::process::Command;

use pte_serve::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo").into()
}

/// The daemons' binary directory: `PERFBENCH_BIN_DIR` when set (as
/// `run.sh` sets it), else a release build into a target directory of its
/// own, so it never waits on the lock of the build running this test.
fn daemon_bin_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("PERFBENCH_BIN_DIR") {
        return dir.into();
    }
    let target = repo_root().join(".bench_build").join("short-run-daemons");
    let status = Command::new(env!("CARGO"))
        .current_dir(repo_root())
        .args(["build", "--release", "--offline", "--quiet", "-p", "pte-serve"])
        .args(["--bin", "pte-serve", "--bin", "pte-route", "--target-dir"])
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the daemons failed");
    target.join("release")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let metrics = doc.get(section).and_then(Json::as_arr).expect("section is a list");
    metrics
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn short_run(bin_dir: &Path, workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .env("PERFBENCH_BIN_DIR", bin_dir)
        .args(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{stdout}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1, "{stdout}");
    for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
        assert!(line.split_whitespace().count() == 5, "malformed metric line: {line}");
    }
    result
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let bin_dir = daemon_bin_dir();
    for workload in ["cold_search", "warm_hits", "routed_mixed"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = short_run(&bin_dir, workload, trace);
            let metrics = result.get("metrics").expect("metrics object");
            let Json::Obj(printed) = metrics else { panic!("metrics is an object") };
            let want = declared(section);
            assert_eq!(printed.len(), want.len(), "{workload} {section}: {printed:?}");
            for (name, unit) in want {
                let metric = metrics.get(&name).unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {name} = {value:?}");
            }
        }
    }
}
