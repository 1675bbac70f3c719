//! Execution-engine performance report.
//!
//! Times the three layers of the vectorized execution engine against their
//! pre-engine baselines and writes `BENCH_exec.json` so future PRs can track
//! the trajectory. Every report records its provenance: mode, commit, CPU
//! model, nproc, `PTE_THREADS` and kernel.
//!
//! 1. **interpreter** — strength-reduced fused-kernel engine
//!    (`CompiledNest::run`) vs the per-point scalar walk (`run_scalar`) over
//!    the conv_variants workload;
//! 2. **gemm** — the kernel `Auto` dispatch runs (AVX2 where the CPU has it
//!    and `PTE_GEMM_KERNEL` allows it) vs the portable packed kernel, over
//!    probe-wave-scale `nn`/`nt`/`tn` products, with SIMD-vs-scalar
//!    bit-identity asserted in **every** mode (quick included);
//! 3. **conv** — im2col + GEMM vs the naive 7-deep loop nest,
//!    forward and backward, at Fisher-probe scale;
//! 4. **probe** — batched shape-class Fisher probing (`probe_wave`: one
//!    im2col per class, multi-image GEMM waves, class-wide BN/readout/
//!    backward tail waves with pooled RNG streams) vs the per-candidate
//!    probe path, over a realistic evaluation wave (every deterministic
//!    candidate of two ResNet layer classes), with scores asserted
//!    bit-identical;
//! 5. **search** — the full unified search: worker-pool parallel + GEMM
//!    probes vs the serial + naive-conv pre-engine configuration (the
//!    process-wide probe memo is cleared before each timed run so both start
//!    cold), plus a bit-identity check between the serial and parallel
//!    drivers;
//! 6. **telemetry** — the record path of one warm request, priced against a
//!    fixed served warm-hit p50 and held under 5 % of it in **every** mode.
//!
//! Served latency is perfbench's job (`BENCHMARK.json`), not this report's.
//!
//! `PTE_QUICK=1` trims repetitions for smoke runs and writes the gitignored
//! `BENCH_quick.json` instead of `BENCH_exec.json`.

use std::fmt::Write as _;
use std::time::Instant;

use pte_bench::{banner, quick_mode};
use pte_core::autotune::TuneOptions;
use pte_core::exec::{oracle::random_inputs, CompiledNest};
use pte_core::fisher::proxy::{clear_probe_cache, conv_shape_fisher_unmemoised, probe_wave};
use pte_core::ir::{ConvShape, LoopNest};
use pte_core::machine::Platform;
use pte_core::nn::{resnet18, resnet34, resnext29_2x64d, ConvLayer, DatasetKind};
use pte_core::search::candidates;
use pte_core::search::evolve::{self, EvolveOptions};
use pte_core::search::unified::{optimize, optimize_serial, UnifiedOptions};
use pte_core::tensor::ops::gemm::{
    gemm_nn_batch_with, gemm_nn_with, gemm_nt_with, gemm_tn_with, use_simd, GemmBackend, GemmNnTask,
};
use pte_core::tensor::ops::{
    conv2d_backward_gemm, conv2d_backward_naive, conv2d_gemm, conv2d_naive, set_force_naive,
    Conv2dSpec,
};
use pte_core::tensor::Tensor;
use pte_core::transform::Schedule;

fn time_ms<O>(reps: u32, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
}

struct Row {
    name: String,
    baseline_ms: f64,
    engine_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.engine_ms
    }
}

fn interpreter_rows(reps: u32) -> Vec<Row> {
    let shape = ConvShape::standard(32, 32, 3, 18, 18);
    let cases: Vec<(&str, Schedule)> = vec![
        ("standard", Schedule::new(LoopNest::conv2d(&shape))),
        ("grouped_g4", {
            let mut s = Schedule::new(LoopNest::conv2d(&shape));
            s.group(4).unwrap();
            s
        }),
        ("depthwise", {
            let mut s = Schedule::new(LoopNest::conv2d(&shape));
            s.depthwise().unwrap();
            s
        }),
        ("bottleneck_b4", {
            let mut s = Schedule::new(LoopNest::conv2d(&shape));
            s.bottleneck("co", 4).unwrap();
            s
        }),
        ("tiled_standard", {
            let mut s = Schedule::new(LoopNest::conv2d(&shape));
            s.tile("ci", 8).unwrap();
            s
        }),
    ];
    cases
        .iter()
        .map(|(name, schedule)| {
            let inputs = random_inputs(schedule.nest(), 7);
            let compiled = CompiledNest::compile(schedule.nest()).unwrap();
            let scalar = time_ms(reps, || compiled.run_scalar(&inputs).unwrap());
            let fast = time_ms(reps, || compiled.run(&inputs).unwrap());
            Row { name: (*name).to_string(), baseline_ms: scalar, engine_ms: fast }
        })
        .collect()
}

fn conv_rows(reps: u32) -> Vec<Row> {
    // Probe-scale (the Fisher hot path) and a mid-size grouped layer.
    let cases = [
        ("probe_64ch_8x8_b8", Conv2dSpec::new(64, 64, 3).with_padding(1), 8usize, 8usize, 8usize),
        (
            "layer_32ch_16x16_g4",
            Conv2dSpec::new(32, 32, 3).with_padding(1).with_groups(4),
            2,
            16,
            16,
        ),
    ];
    let mut rows = Vec::new();
    for (name, spec, n, h, w) in cases {
        let x = Tensor::randn(&[n, spec.c_in, h, w], 1);
        let wt = Tensor::randn(&spec.weight_dims(), 2);
        let naive = time_ms(reps, || conv2d_naive(&x, &wt, &spec).unwrap());
        let gemm = time_ms(reps, || conv2d_gemm(&x, &wt, &spec).unwrap());
        rows.push(Row { name: format!("{name}/forward"), baseline_ms: naive, engine_ms: gemm });

        let y = conv2d_naive(&x, &wt, &spec).unwrap();
        let d_out = Tensor::randn(y.shape().dims(), 3);
        let naive_b = time_ms(reps, || conv2d_backward_naive(&x, &wt, &spec, &d_out).unwrap());
        let gemm_b = time_ms(reps, || conv2d_backward_gemm(&x, &wt, &spec, &d_out).unwrap());
        rows.push(Row {
            name: format!("{name}/backward"),
            baseline_ms: naive_b,
            engine_ms: gemm_b,
        });
    }
    rows
}

/// The kernel `Auto` dispatch runs in this process: `avx2` or `scalar`.
fn dispatched_kernel() -> &'static str {
    if use_simd(GemmBackend::Auto) {
        "avx2"
    } else {
        "scalar"
    }
}

/// The dispatched kernel vs the portable packed kernel over
/// probe-wave-scale products: the `nn` forward shapes a shape-class wave
/// runs (`cog × cig·K² × batch·OH·OW`) and the `nt`/`tn` transposed shapes
/// conv backward runs. The engine side goes through `Auto`, so it follows
/// `PTE_GEMM_KERNEL` as the search does.
fn gemm_rows(reps: u32) -> Vec<Row> {
    type GemmOp = fn(GemmBackend, usize, usize, usize, &[f32], &[f32], &mut [f32]);
    let kernel = dispatched_kernel();
    // (name, layout entry point, m, k, n)
    let cases: [(&str, GemmOp, usize, usize, usize); 4] = [
        ("nn_probe_wave_64x576x512", gemm_nn_with, 64, 576, 512),
        ("nn_layer_128x1152x512", gemm_nn_with, 128, 1152, 512),
        ("nt_dweight_64x512x576", gemm_nt_with, 64, 512, 576),
        ("tn_dcol_576x64x512", gemm_tn_with, 576, 64, 512),
    ];
    cases
        .iter()
        .map(|&(name, op, m, k, n)| {
            // An `m×k` / `k×n` allocation also covers the transposed views
            // (`nt` reads `b` as n×k, `tn` reads `a` as k×m — same lengths).
            let a = Tensor::randn(&[m, k], 11).into_vec();
            let b = Tensor::randn(&[k, n], 12).into_vec();
            let mut c = vec![0.0f32; m * n];
            let baseline_ms = time_ms(reps, || {
                c.fill(0.0);
                op(GemmBackend::PackedScalar, m, k, n, &a, &b, &mut c);
            });
            let engine_ms = time_ms(reps, || {
                c.fill(0.0);
                op(GemmBackend::Auto, m, k, n, &a, &b, &mut c);
            });
            Row { name: format!("{name}/{kernel}"), baseline_ms, engine_ms }
        })
        .collect()
}

/// SIMD-vs-scalar bit-identity over odd shapes straddling the
/// tile geometry, plus the shared-`B` batched path — the correctness
/// property that makes kernel dispatch invisible. Asserted in every mode;
/// the exhaustive sweep lives in `tensor/tests/gemm_kernel_parity.rs`.
fn gemm_bit_identity() -> bool {
    let backends = [GemmBackend::PackedSimd, GemmBackend::PackedScalar];
    let shapes = [(13usize, 29usize, 17usize), (9, 97, 11), (64, 63, 65)];
    for (m, k, n) in shapes {
        let a = Tensor::randn(&[m, k], 21).into_vec();
        let b = Tensor::randn(&[k, n], 22).into_vec();
        let mut reference: Option<[Vec<f32>; 3]> = None;
        for backend in backends {
            let mut nn = vec![0.0f32; m * n];
            gemm_nn_with(backend, m, k, n, &a, &b, &mut nn);
            let mut nt = vec![0.0f32; m * n];
            gemm_nt_with(backend, m, k, n, &a, &b, &mut nt);
            let mut tn = vec![0.0f32; m * n];
            gemm_tn_with(backend, m, k, n, &a, &b, &mut tn);
            match &reference {
                None => reference = Some([nn, nt, tn]),
                Some(want) => {
                    let bits = |x: &[f32], y: &[f32]| {
                        x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
                    };
                    if !(bits(&nn, &want[0]) && bits(&nt, &want[1]) && bits(&tn, &want[2])) {
                        return false;
                    }
                }
            }
        }
    }
    // Shared-B batch path: forced SIMD vs forced scalar waves.
    let (m, k, n) = (12usize, 41usize, 23usize);
    let a0 = Tensor::randn(&[m, k], 23).into_vec();
    let a1 = Tensor::randn(&[m, k], 24).into_vec();
    let b = Tensor::randn(&[k, n], 25).into_vec();
    let run = |backend: GemmBackend| {
        let mut c0 = vec![0.0f32; m * n];
        let mut c1 = vec![0.0f32; m * n];
        gemm_nn_batch_with(
            backend,
            vec![
                GemmNnTask { m, k, n, a: &a0, b: &b, c: &mut c0 },
                GemmNnTask { m, k, n, a: &a1, b: &b, c: &mut c1 },
            ],
        );
        (c0, c1)
    };
    let (s0, s1) = run(GemmBackend::PackedSimd);
    let (p0, p1) = run(GemmBackend::PackedScalar);
    s0.iter().zip(&p0).chain(s1.iter().zip(&p1)).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// A realistic evaluation wave: every deterministic candidate shape of two
/// ResNet-style layer classes (the shapes one `Evaluator` wave hands the
/// probe scheduler).
fn probe_wave_shapes() -> Vec<ConvShape> {
    let layers = [
        ConvLayer::new("a", 64, 64, 3, 1, 1, 16, 16),
        ConvLayer::new("b", 32, 32, 3, 1, 1, 32, 32),
    ];
    let mut shapes = Vec::new();
    for layer in layers {
        shapes.push(*layer.to_schedule().nest().conv().expect("conv nest"));
        let (cands, _) = candidates::enumerate(&layer);
        shapes.extend(
            cands.iter().flat_map(|c| c.schedules.iter().filter_map(|s| s.nest().conv().copied())),
        );
    }
    shapes
}

fn probe_row(reps: u32) -> (Row, bool) {
    let shapes = probe_wave_shapes();
    let seed = 0u64;
    let per_candidate: Vec<f64> =
        shapes.iter().map(|s| conv_shape_fisher_unmemoised(s, seed)).collect();
    let batched = probe_wave(&shapes, seed);
    let identical = per_candidate.iter().zip(&batched).all(|(a, b)| a.to_bits() == b.to_bits());

    let baseline_ms =
        time_ms(reps, || shapes.iter().map(|s| conv_shape_fisher_unmemoised(s, seed)).sum::<f64>());
    let engine_ms = time_ms(reps, || probe_wave(&shapes, seed).iter().sum::<f64>());
    (
        Row { name: format!("fisher_wave/{}_shapes", shapes.len()), baseline_ms, engine_ms },
        identical,
    )
}

fn search_row(options: &UnifiedOptions) -> (Row, bool) {
    let network = resnet18(DatasetKind::Cifar10);
    let platform = Platform::intel_i7();

    // Pre-engine configuration: serial driver, naive convolution probes.
    set_force_naive(true);
    clear_probe_cache();
    let start = Instant::now();
    let pre = optimize_serial(&network, &platform, options);
    let baseline_ms = start.elapsed().as_secs_f64() * 1e3;
    set_force_naive(false);

    // Engine configuration: parallel driver, GEMM probes.
    clear_probe_cache();
    let start = Instant::now();
    let ours = optimize(&network, &platform, options);
    let engine_ms = start.elapsed().as_secs_f64() * 1e3;

    // Bit-identity between the serial and parallel drivers (same engine).
    let serial = optimize_serial(&network, &platform, options);
    let identical = serial.plan.latency_ms().to_bits() == ours.plan.latency_ms().to_bits()
        && serial.plan.fisher().to_bits() == ours.plan.fisher().to_bits()
        && serial.plan.params() == ours.plan.params()
        && serial.stats == ours.stats;
    let _ = pre; // plans across engines may differ in borderline Fisher calls

    (Row { name: "unified_search/resnet18".into(), baseline_ms, engine_ms }, identical)
}

/// One evolve-vs-unified comparison: both strategies on the same Figure 4
/// workload at the same per-class evaluation budget.
struct EvolveRow {
    workload: &'static str,
    /// Per-class buffer/random evaluation budget both strategies spend.
    budget: usize,
    unified_ms: f64,
    evolve_ms: f64,
    unified_fisher: f64,
    evolve_fisher: f64,
    /// Candidate evaluations each strategy attempted for its final plan.
    unified_evals: usize,
    evolve_evals: usize,
    /// Evolve's serial and parallel drivers produced bit-identical plans
    /// and stats (the seeded-replay contract, asserted in every mode).
    replay_identical: bool,
}

impl EvolveRow {
    fn matches_or_beats(&self) -> bool {
        self.evolve_ms <= self.unified_ms
    }
}

/// Evolutionary vs unified search on Figure 4 workloads at equal per-class
/// evaluation budget. Plan quality is final-plan latency; evaluations per
/// plan come from each strategy's own `SearchStats::attempted`.
fn evolve_rows(budget: usize) -> Vec<EvolveRow> {
    let platform = Platform::intel_i7();
    let tune = TuneOptions { trials: 32, seed: 0 };
    let workloads: Vec<(&'static str, pte_core::nn::Network)> = if quick_mode() {
        vec![("resnet34-cifar10", resnet34(DatasetKind::Cifar10))]
    } else {
        vec![
            ("resnet34-cifar10", resnet34(DatasetKind::Cifar10)),
            ("resnext29_2x64d", resnext29_2x64d()),
        ]
    };
    workloads
        .into_iter()
        .map(|(workload, network)| {
            let unified_options =
                UnifiedOptions { random_per_layer: budget, tune, ..UnifiedOptions::default() };
            let evolve_options = EvolveOptions { tune, ..EvolveOptions::with_budget(budget) };
            clear_probe_cache();
            let unified = optimize(&network, &platform, &unified_options);
            clear_probe_cache();
            let evolved = evolve::optimize(&network, &platform, &evolve_options);
            let serial = evolve::optimize_serial(&network, &platform, &evolve_options);
            let replay_identical = serial.plan.latency_ms().to_bits()
                == evolved.plan.latency_ms().to_bits()
                && serial.plan.fisher().to_bits() == evolved.plan.fisher().to_bits()
                && serial.plan.params() == evolved.plan.params()
                && serial.stats == evolved.stats;
            EvolveRow {
                workload,
                budget: evolve_options.budget(),
                unified_ms: unified.plan.latency_ms(),
                evolve_ms: evolved.plan.latency_ms(),
                unified_fisher: unified.plan.fisher(),
                evolve_fisher: evolved.plan.fisher(),
                unified_evals: unified.stats.attempted,
                evolve_evals: evolved.stats.attempted,
                replay_identical,
            }
        })
        .collect()
}

/// The served warm-hit latency telemetry is priced against: perfbench
/// `warm_hits` `latency_p50_ms` at commit 2e26d27 (0.0656 ms, 2-core Xeon
/// VM). A fixed reference keeps the ceiling from loosening whenever the
/// host running this report is slow.
const WARM_HIT_P50_US: f64 = 65.6;

/// Telemetry may cost at most this share of a warm hit: 3.28 µs.
const TELEMETRY_BUDGET_PCT: f64 = 5.0;

/// Telemetry cost accounting: the complete per-request record path a warm
/// JSON cache hit executes — the per-codec, per-op, and cache-hit
/// histogram records, the queue-depth gauge, and the `search` root span
/// (two clock reads plus one histogram record) — microbenchmarked in
/// isolation. Histograms are lock-free atomics and the handles are looked
/// up once, as the daemon's statics are, so this *is* the whole
/// observation cost of a warm request. Returns µs per request.
fn telemetry_per_request_us() -> f64 {
    let codec_us = pte_telemetry::global().histogram("pte_request_json_us");
    let op_us = pte_telemetry::global().histogram("pte_request_search_us");
    let hit_us = pte_telemetry::global().histogram("pte_cache_hit_us");
    let queue = pte_telemetry::global().gauge("pte_queue_depth");
    let n: u32 = 100_000;
    let start = Instant::now();
    for i in 0..n {
        let _span = pte_telemetry::span("search");
        queue.set(i64::from(i % 4));
        hit_us.record(u64::from(i) & 0x3FF);
        op_us.record(u64::from(i) & 0x3FF);
        codec_us.record(u64::from(i) & 0x3FF);
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(n)
}

/// JSON string literal (quotes and backslashes escaped; provenance values
/// are single-line).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
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

/// Where the numbers came from: mode, commit, host and thread count.
fn provenance(mode: &str) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    format!(
        "{{ \"mode\": {}, \"git_rev\": {}, \"cpu_model\": {}, \"nproc\": {}, \"pte_threads\": {}, \"kernel\": {} }}",
        json_str(mode),
        json_str(&git_rev()),
        json_str(&cpu_model()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&std::env::var("PTE_THREADS").unwrap_or_default()),
        json_str(&kernel),
    )
}

fn json_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"baseline_ms\": {:.4}, \"engine_ms\": {:.4}, \"speedup\": {:.3}}}",
            if i == 0 { "" } else { "," },
            row.name,
            row.baseline_ms,
            row.engine_ms,
            row.speedup()
        );
    }
    out
}

fn total_speedup(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.baseline_ms).sum::<f64>() / rows.iter().map(|r| r.engine_ms).sum::<f64>()
}

fn main() {
    banner(
        "perf_report: vectorized execution engine vs pre-engine baselines",
        "engineering harness (targets: conv_variants >= 5x, search >= 3x, gemm >= 0.8x of portable, probe >= 1.25x, telemetry <= 5% of a warm hit)",
    );
    let mode = if quick_mode() { "quick" } else { "full" };
    let reps: u32 = if quick_mode() { 1 } else { 5 };

    println!("\n-- interpreter (conv_variants workload, scalar walk vs fused engine)");
    let interp = interpreter_rows(reps);
    for r in &interp {
        println!(
            "{:<18} {:>9.3} ms -> {:>8.3} ms  {:>5.2}x",
            r.name,
            r.baseline_ms,
            r.engine_ms,
            r.speedup()
        );
    }
    let interp_total = total_speedup(&interp);
    println!("{:<18} {:>26} {:>5.2}x", "TOTAL", "", interp_total);

    println!("\n-- gemm (portable packed kernel vs the dispatched kernel)");
    // More reps than the heavier sections: individual GEMMs are milliseconds
    // and the 0.8x floor is asserted, so noise matters most here.
    let gemm = gemm_rows(reps * 4);
    for r in &gemm {
        println!(
            "{:<28} {:>9.3} ms -> {:>8.3} ms  {:>5.2}x",
            r.name,
            r.baseline_ms,
            r.engine_ms,
            r.speedup()
        );
    }
    let gemm_total = total_speedup(&gemm);
    let gemm_identical = gemm_bit_identity();
    println!("{:<28} {:>16} {:>5.2}x   simd==scalar: {}", "TOTAL", "", gemm_total, gemm_identical);

    println!("\n-- convolution (naive loops vs im2col + micro-kernel GEMM)");
    let conv = conv_rows(reps);
    for r in &conv {
        println!(
            "{:<24} {:>9.3} ms -> {:>8.3} ms  {:>5.2}x",
            r.name,
            r.baseline_ms,
            r.engine_ms,
            r.speedup()
        );
    }
    let conv_total = total_speedup(&conv);
    println!("{:<24} {:>20} {:>5.2}x", "TOTAL", "", conv_total);

    println!("\n-- fisher probes (per-candidate vs shape-class batched wave)");
    let (probe, probe_identical) = probe_row(reps);
    println!(
        "{:<24} {:>9.3} ms -> {:>8.3} ms  {:>5.2}x   batched==per-candidate: {}",
        probe.name,
        probe.baseline_ms,
        probe.engine_ms,
        probe.speedup(),
        probe_identical
    );

    println!("\n-- unified search (serial + naive probes vs parallel + GEMM probes)");
    let options = UnifiedOptions {
        random_per_layer: if quick_mode() { 8 } else { 24 },
        tune: TuneOptions { trials: 32, seed: 0 },
        ..UnifiedOptions::default()
    };
    let (search, plans_identical) = search_row(&options);
    println!(
        "{:<24} {:>9.1} ms -> {:>8.1} ms  {:>5.2}x   serial==parallel plan: {}",
        search.name,
        search.baseline_ms,
        search.engine_ms,
        search.speedup(),
        plans_identical
    );

    println!("\n-- evolve (grammar-compiled evolutionary search vs unified, equal budget)");
    let evolve_budget = if quick_mode() { 8 } else { 24 };
    let evolve = evolve_rows(evolve_budget);
    for r in &evolve {
        println!(
            "{:<20} unified {:>8.3} ms ({} evals) vs evolve {:>8.3} ms ({} evals)  \
             matches_or_beats: {}  serial==parallel: {}",
            r.workload,
            r.unified_ms,
            r.unified_evals,
            r.evolve_ms,
            r.evolve_evals,
            r.matches_or_beats(),
            r.replay_identical
        );
    }

    println!("\n-- telemetry (record path of one warm request vs a fixed warm-hit p50)");
    let telemetry_us = telemetry_per_request_us();
    let telemetry_pct = telemetry_us / WARM_HIT_P50_US * 100.0;
    println!(
        "{:<24} {:.3} µs per warm request ({:.3}% of the {WARM_HIT_P50_US} µs reference, budget \
         {TELEMETRY_BUDGET_PCT}%)",
        "telemetry_overhead", telemetry_us, telemetry_pct
    );

    let threads = rayon::current_num_threads();
    let json = format!(
        r#"{{
  "report": "pte execution engine",
  "provenance": {provenance},
  "threads": {threads},
  "interpreter": {{
    "workload": "conv_variants ConvShape::standard(32,32,3,18,18)",
    "rows": [{interp_rows}
    ],
    "total_speedup": {interp_total:.3}
  }},
  "gemm": {{
    "kernel": "{gemm_kernel}",
    "rows": [{gemm_rows}
    ],
    "total_speedup": {gemm_total:.3},
    "simd_bit_identical_to_scalar": {gemm_identical}
  }},
  "conv": {{
    "rows": [{conv_rows}
    ],
    "total_speedup": {conv_total:.3}
  }},
  "probe": {{
    "workload": "{pw}",
    "baseline_ms": {pb:.3},
    "engine_ms": {pe:.3},
    "speedup": {ps:.3},
    "batched_bit_identical_to_per_candidate": {probe_identical}
  }},
  "search": {{
    "workload": "resnet18-cifar10 on intel-i7, random_per_layer={rpl}, trials=32",
    "baseline_ms": {sb:.1},
    "engine_ms": {se:.1},
    "speedup": {ss:.3},
    "parallel_plan_bit_identical_to_serial": {plans_identical}
  }},
  "evolve": {{
    "workload": "Figure 4 networks on intel-i7, per-class budget {evolve_budget}, trials=32",
    "rows": [{evolve_rows}
    ],
    "matches_or_beats_unified_on": {evolve_wins},
    "replay_bit_identical": {evolve_replay}
  }},
  "telemetry": {{
    "record_path": "json codec + search op + cache hit histograms, queue gauge, search span",
    "per_request_record_us": {telemetry_us:.4},
    "reference_warm_p50_us": {WARM_HIT_P50_US},
    "reference": "perfbench warm_hits latency_p50_ms at commit 2e26d27",
    "overhead_pct": {telemetry_pct:.4},
    "budget_pct": {TELEMETRY_BUDGET_PCT:.1}
  }},
  "targets": {{ "conv_variants_speedup_min": 5.0, "search_speedup_min": 3.0, "probe_speedup_min": 1.25, "gemm_dispatched_vs_portable_min": 0.8 }}
}}
"#,
        interp_rows = json_rows(&interp),
        gemm_kernel = dispatched_kernel(),
        gemm_rows = json_rows(&gemm),
        conv_rows = json_rows(&conv),
        pw = probe.name,
        pb = probe.baseline_ms,
        pe = probe.engine_ms,
        ps = probe.speedup(),
        rpl = options.random_per_layer,
        sb = search.baseline_ms,
        se = search.engine_ms,
        ss = search.speedup(),
        evolve_rows = {
            let mut out = String::new();
            for (i, r) in evolve.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\n      {{\"workload\": \"{}\", \"budget\": {}, \"unified_latency_ms\": {:.4}, \
                     \"evolve_latency_ms\": {:.4}, \"unified_fisher\": {:.4}, \"evolve_fisher\": {:.4}, \
                     \"unified_evals\": {}, \"evolve_evals\": {}, \"matches_or_beats\": {}}}",
                    if i == 0 { "" } else { "," },
                    r.workload,
                    r.budget,
                    r.unified_ms,
                    r.evolve_ms,
                    r.unified_fisher,
                    r.evolve_fisher,
                    r.unified_evals,
                    r.evolve_evals,
                    r.matches_or_beats()
                );
            }
            out
        },
        evolve_wins = evolve.iter().filter(|r| r.matches_or_beats()).count(),
        evolve_replay = evolve.iter().all(|r| r.replay_identical),
        provenance = provenance(mode),
    );
    // Quick runs are smoke tests: they go to a gitignored file so only a
    // full run ever replaces the canonical record.
    let out = if quick_mode() { "BENCH_quick.json" } else { "BENCH_exec.json" };
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");

    // Bit-identity checks are correctness properties: asserted
    // unconditionally (quick mode included, so the CI smoke covers them).
    // The speedup floors are only asserted in full mode — quick mode times a
    // single rep, which is too noisy to gate a CI pipeline on.
    assert!(plans_identical, "parallel plan diverged from serial plan");
    assert!(probe_identical, "batched probe wave diverged from per-candidate probes");
    assert!(gemm_identical, "SIMD micro-kernel diverged from the portable kernel");
    assert!(
        evolve.iter().all(|r| r.replay_identical),
        "evolve serial/parallel drivers diverged on a seeded run"
    );
    assert!(
        evolve.iter().any(EvolveRow::matches_or_beats),
        "evolve must match or beat unified plan latency on at least one Figure 4 workload \
         at equal evaluation budget"
    );
    // Observation must stay in the noise floor of the thing observed: a few
    // atomic ops, a registry lookup and three clock reads per request.
    assert!(
        telemetry_pct <= TELEMETRY_BUDGET_PCT,
        "telemetry warm-path overhead {telemetry_pct:.3}% exceeds the {TELEMETRY_BUDGET_PCT}% \
         budget ({telemetry_us:.3} µs per request against a {WARM_HIT_P50_US} µs warm p50)"
    );
    if quick_mode() {
        return;
    }
    assert!(interp_total >= 5.0, "interpreter speedup {interp_total:.2}x fell below the 5x target");
    // The dispatched kernel must not be slower than the portable one beyond
    // timer noise. `target-cpu=native` auto-vectorises the portable kernel's
    // full tiles, so the two read about even on AVX2 hosts.
    assert!(
        gemm_total >= 0.8,
        "dispatched gemm kernel runs at {gemm_total:.2}x the portable kernel, below the 0.8x floor"
    );
    assert!(
        search.speedup() >= 3.0,
        "search speedup {:.2}x fell below the 3x target",
        search.speedup()
    );
    // Re-pinned UP from 1.05 in PR 5: the probe tail (BN/readout/backward)
    // and every weight/readout RNG draw now run as class-wide waves —
    // stacked BN + fused ReLU + one wide readout GEMM per tail class ×
    // repeat, with pooled Box–Muller streams shared across members — so the
    // per-member work the per-candidate baseline still pays (scalar readout
    // loops, a full Box–Muller set per member × repeat, per-member
    // allocations) is amortised across each class. Measured ~1.6–2.1x on
    // this 1-core container; 1.25x is the conservative floor under timer
    // noise. The remaining gap to the conv GEMM's Amdahl bound needs a
    // multi-core runner (see ROADMAP).
    assert!(
        probe.speedup() >= 1.25,
        "probe-wave speedup {:.2}x fell below the 1.25x target",
        probe.speedup()
    );
}
