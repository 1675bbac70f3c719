//! Summaries, provenance and the output format: one human-readable line per
//! metric, then the result as a single JSON object on the last line.

use std::path::Path;

use pte_serve::json::{fnv1a64, Json};

/// Metrics in the order they were measured, plus free-form notes.
#[derive(Default)]
pub struct Metrics {
    pub values: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn beyond(samples: usize, p: f64) -> usize {
    samples.saturating_sub((p * samples as f64).ceil() as usize)
}

/// The tail percentile to report: the highest of p99.9 / p99 / p90 / p75
/// with at least ten samples beyond it.
pub fn tail_percentile(samples: usize) -> Option<(f64, &'static str)> {
    [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"), (0.75, "p75")]
        .into_iter()
        .find(|&(p, _)| beyond(samples, p) >= 10)
}

pub fn sorted(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable();
    values
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len().max(1) as f64).exp()
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the workspace's manifests and Rust sources, in path order:
/// identifies the code under test where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf(), Path::new("Cargo.lock").into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend(file.display().to_string().bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    format!("{:016x}", fnv1a64(&bytes))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn gemm_kernel() -> String {
    use pte_core::tensor::ops::gemm::{gemm_backend, simd_kernel_available};
    let env = std::env::var("PTE_GEMM_KERNEL").unwrap_or_default();
    let auto = if simd_kernel_available() { "avx2" } else { "scalar" };
    format!("{:?} (env `{env}`, auto resolves to {auto})", gemm_backend())
}

/// Everything needed to say where a number came from.
pub fn provenance(
    mode: &str,
    workload: &str,
    seed: u64,
    seconds: u64,
    daemon_flags: &[(String, Vec<String>)],
) -> Json {
    let env = |name: &str| Json::Str(std::env::var(name).unwrap_or_default());
    let flags = daemon_flags
        .iter()
        .map(|(name, args)| (name.as_str(), Json::Str(args.join(" "))))
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("mode", Json::Str(mode.into())),
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Int(seconds as i64)),
        ("git_rev", Json::Str(git_rev())),
        ("source_digest", Json::Str(source_digest())),
        ("cpu_model", Json::Str(cpu_model())),
        ("nproc", Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64)),
        ("pte_threads", env("PTE_THREADS")),
        ("rayon_num_threads", env("RAYON_NUM_THREADS")),
        ("gemm_kernel", Json::Str(gemm_kernel())),
        ("daemon_flags", Json::obj(flags)),
    ])
}

/// Prints every metric by name and unit, then the result line.
pub fn print(metrics: &Metrics, correct: bool, attempted: u64, failed: u64) {
    for note in &metrics.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &metrics.values {
        println!("metric {name} = {value} {unit}");
    }
    let values = metrics
        .values
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { Json::Float(*value) } else { Json::Float(0.0) };
            (
                name.as_str(),
                Json::obj(vec![("value", value), ("unit", Json::Str(unit.to_string()))]),
            )
        })
        .collect::<Vec<_>>();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::obj(values)),
    ]);
    println!("{}", result.write().expect("non-finite values were replaced"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(20_000).map(|t| t.1), Some("p99.9"));
        assert_eq!(tail_percentile(9_000).map(|t| t.1), Some("p99"));
        assert_eq!(tail_percentile(999).map(|t| t.1), Some("p90"));
        assert_eq!(tail_percentile(60).map(|t| t.1), Some("p75"));
        assert_eq!(tail_percentile(30), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.9), 90);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
