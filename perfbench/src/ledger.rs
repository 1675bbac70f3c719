//! The traced run's per-layer ledger.
//!
//! After the load phases, a fixed sample of the workload's requests is
//! replayed in-process. Each sample runs under a `request` span, and each
//! layer's public entry point is called once inside it under a span named
//! `<layer>.<call>`. A layer's self time is the sum of its spans (they have
//! no children); the `request` span's time that no layer span covers is the
//! `unattributed` row. Alongside the tree, each µs-scale entry point is also
//! timed as the median of repeated calls, which is what the per-layer µs
//! metrics report.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use pte_core::fisher::proxy::{batch_conv_shape_fisher, clear_probe_cache, probe_cache_stats};
use pte_core::ir::ConvShape;
use pte_core::machine::cost::estimate;
use pte_core::search::candidates::{self, Candidate};
use pte_core::search::eval::{EvalOutcome, Evaluator};
use pte_core::search::{evolve, unified, NetworkPlan, SearchStats};
use pte_core::tensor::ops::gemm::gemm_nn;
use pte_core::tensor::ops::{conv2d_backward_gemm, conv2d_gemm, Conv2dSpec};
use pte_core::tensor::rng::derive_seed;
use pte_core::tensor::Tensor;
use pte_core::transform::automaton;
use pte_serve::cache::PlanCache;
use pte_serve::codec::{PlanPayload, SearchRequest, Strategy};
use pte_serve::codec_bin;
use pte_serve::json::{fnv1a64, Json};
use pte_serve::store::PlanStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::Prepared;
use crate::report::Metrics;

/// One recorded span (times in µs since the tracer's epoch).
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// In-memory span recorder; written out once the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span { name, parent: None, start_us, dur_us: 0.0 });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].dur_us = self.now_us() - self.spans[id].start_us;
    }

    fn time<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_us = self.now_us();
        let out = f();
        let dur_us = self.now_us() - start_us;
        self.spans.push(Span { name, parent: Some(parent), start_us, dur_us });
        out
    }

    /// Mean duration (ms) per sample of the spans named `name`.
    fn mean_ms(&self, name: &str, samples: usize) -> f64 {
        let total: f64 = self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).sum();
        total / 1e3 / samples as f64
    }

    /// Per-layer self time (sum of the layer's spans) and the residual of
    /// the `request` roots, as mean ms per sample.
    pub fn ledger_rows(&self, samples: usize) -> (BTreeMap<&'static str, f64>, f64) {
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut roots = 0.0;
        for span in &self.spans {
            match span.parent {
                None => roots += span.dur_us,
                Some(_) => {
                    let layer = span.name.split('.').next().expect("split yields a head");
                    *layers.entry(layer).or_default() += span.dur_us;
                }
            }
        }
        let covered: f64 = layers.values().sum();
        let per_sample = |us: f64| us / 1e3 / samples as f64;
        let rows = layers.into_iter().map(|(layer, us)| (layer, per_sample(us))).collect();
        (rows, per_sample(roots - covered))
    }
}

/// Median wall time (µs) of `reps` calls.
pub fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Wall time (µs) of one call.
fn elapsed_us<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e6
}

/// A sampled request and the payload bytes the daemons served for it.
pub struct Sample {
    pub prepared: Prepared,
    pub served_digest: u64,
}

/// Per-sample quantities the tree does not carry as span times.
#[derive(Default)]
struct Counts {
    json_decode_us: f64,
    key_us: f64,
    bin_decode_us: f64,
    bin_repack_us: f64,
    peek_us: f64,
    append_us: f64,
    bytes_json: f64,
    bytes_bin: f64,
    estimate_us: f64,
    automaton_us: f64,
    unattributed_ms: f64,
    evals: f64,
    fisher_reject: f64,
    parallel_speedup: f64,
    probes_run: u64,
    trials: u64,
}

fn outcome_of(request: &SearchRequest) -> Result<unified::SearchOutcome, String> {
    let network = request.network.resolve().map_err(|e| e.message)?;
    let platform = request.platform.resolve();
    Ok(match request.strategy {
        Strategy::Unified => unified::optimize(&network, &platform, &request.unified_options()),
        Strategy::Evolve => evolve::optimize(&network, &platform, &request.evolve_options()),
        Strategy::Baseline => return Err("baseline requests are not sampled".into()),
    })
}

fn serial_outcome_of(request: &SearchRequest) -> Result<unified::SearchOutcome, String> {
    let network = request.network.resolve().map_err(|e| e.message)?;
    let platform = request.platform.resolve();
    Ok(match request.strategy {
        Strategy::Evolve => evolve::optimize_serial(&network, &platform, &request.evolve_options()),
        _ => unified::optimize_serial(&network, &platform, &request.unified_options()),
    })
}

/// Replays `samples` through every layer, returning the tracer and filling
/// `metrics` with the ledger rows and per-layer metrics. A replayed payload
/// whose bytes differ from the served ones is an error. `store.replay_ms`
/// reopens `run_log` (the run's own plan log) when there is one, else the
/// log the replay appended to in `scratch`.
pub fn replay(
    samples: &[Sample],
    scratch: &Path,
    run_log: Option<&Path>,
    epoch: Instant,
    metrics: &mut Metrics,
) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(epoch);
    let mut counts = Counts::default();
    let log_path = scratch.join("ledger.log");
    let _ = std::fs::remove_file(&log_path);
    let (store, _) = PlanStore::open(&log_path).map_err(|e| format!("ledger log: {e}"))?;
    for sample in samples {
        replay_one(sample, &store, &mut tracer, &mut counts)?;
    }
    drop(store);
    let reopen = run_log.unwrap_or(&log_path);
    let replay_ms = median_us(5, || PlanStore::open(reopen).map_err(|e| e.to_string())) / 1e3;

    let s = samples.len();
    let n = s as f64;
    let search = |name: &str| tracer.mean_ms(name, s);
    metrics.put("codec.json_decode_us", counts.json_decode_us / n, "us");
    metrics.put("codec.key_us", counts.key_us / n, "us");
    metrics.put("codec.bin_decode_us", counts.bin_decode_us / n, "us");
    metrics.put("codec.bin_repack_us", counts.bin_repack_us / n, "us");
    metrics.put("codec.payload_bytes_json", counts.bytes_json / n, "bytes");
    metrics.put("codec.payload_bytes_bin", counts.bytes_bin / n, "bytes");
    metrics.put("cache.peek_us", counts.peek_us / n, "us");
    metrics.put("store.append_us", counts.append_us / n, "us");
    metrics.put("store.replay_ms", replay_ms, "ms");
    metrics.put("search.total_ms", search("search.optimize"), "ms");
    metrics.put("search.baseline_ms", search("search.baseline"), "ms");
    metrics.put("search.candidates_ms", search("search.candidates"), "ms");
    metrics.put("search.evaluate_ms", search("search.evaluate"), "ms");
    metrics.put("search.unattributed_ms", counts.unattributed_ms / n, "ms");
    metrics.put("search.evals", counts.evals / n, "count");
    metrics.put("search.fisher_reject_ratio", counts.fisher_reject / n, "ratio");
    metrics.put("search.parallel_speedup", counts.parallel_speedup / n, "x");
    metrics.put("fisher.probe_ms", search("fisher.probe"), "ms");
    metrics.put("fisher.probes_run", counts.probes_run as f64, "count");
    metrics.put("autotune.tune_ms", search("autotune.tune"), "ms");
    metrics.put("autotune.trials", counts.trials as f64, "count");
    metrics.put("machine.estimate_us", counts.estimate_us / n, "us");
    metrics.put("transform.automaton_us", counts.automaton_us / n, "us");

    let (rows, unattributed) = tracer.ledger_rows(s);
    for layer in ["codec", "cache", "store", "search", "fisher", "autotune", "machine", "transform"]
    {
        let value = rows.get(layer).copied().unwrap_or(0.0);
        metrics.put(&format!("ledger.{layer}_ms"), value, "ms");
    }
    metrics.put("unattributed", unattributed, "ms");
    Ok(tracer)
}

fn replay_one(
    sample: &Sample,
    store: &PlanStore,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let prepared = &sample.prepared;
    let line = std::str::from_utf8(&prepared.json_line).expect("generated lines are UTF-8");
    let line = line.trim_end();
    let (_, frame_body, _) = codec_bin::try_extract_frame(&prepared.bin_frame)
        .map_err(|e| e.message)?
        .ok_or("generated frame is incomplete")?;
    let json_decode = || -> Result<SearchRequest, String> {
        let doc = Json::parse(line).map_err(|e| e.message)?;
        SearchRequest::from_json(doc.get("request").ok_or("no request")?).map_err(|e| e.message)
    };
    let key_of = |request: &SearchRequest| {
        let canonical = request.encode().expect("finite tolerances");
        let key = fnv1a64(canonical.as_bytes());
        (canonical, key)
    };

    let root = tr.open("request");
    // Codec: decode both wire forms and derive the cache key.
    let request = tr.time(root, "codec.json_decode", json_decode)?;
    let (canonical, key) = tr.time(root, "codec.key", || key_of(&request));
    tr.time(root, "codec.bin_decode", || codec_bin::decode_search_request(&frame_body))
        .map_err(|e| e.message)?;
    let network = request.network.resolve().map_err(|e| e.message)?;
    let platform = request.platform.resolve();
    let tune = request.tune_options();

    // The whole search from a cold probe memo, as `cold_search` serves it,
    // encoded as the daemons encode it.
    clear_probe_cache();
    let outcome = tr.time(root, "search.optimize", || outcome_of(&request))?;
    let payload = tr.time(root, "codec.encode", || {
        PlanPayload::from_plan(&request, &outcome.plan, &outcome.stats, outcome.original_fisher)
            .encode()
            .expect("real plans have finite metrics")
    });
    if fnv1a64(payload.as_bytes()) != sample.served_digest {
        return Err(format!("replayed payload for {key:016x} differs from the served bytes"));
    }

    // The same search part by part, again from a cold memo: baseline
    // compile, candidate generation, then every candidate's probe.
    clear_probe_cache();
    let baseline =
        tr.time(root, "search.baseline", || NetworkPlan::baseline(&network, &platform, &tune));
    let classes: Vec<usize> = (0..baseline.choices().len())
        .filter(|&idx| baseline.choices()[idx].layer.mutable)
        .collect();
    let waves: Vec<(Vec<Candidate>, usize)> = tr.time(root, "search.candidates", || {
        classes
            .iter()
            .map(|&idx| {
                let layer = &baseline.choices()[idx].layer;
                let (mut cands, det) = candidates::enumerate(layer);
                let seed = derive_seed(request.seed, idx as u64);
                let (random, rand) =
                    candidates::random(layer, request.random_per_layer as usize, seed);
                cands.extend(random);
                (cands, det + rand)
            })
            .collect()
    });
    let shapes: Vec<ConvShape> = waves
        .iter()
        .flat_map(|(cands, _)| cands.iter().flat_map(|c| &c.schedules))
        .filter_map(|s| s.nest().conv().copied())
        .collect();
    let misses_before = probe_cache_stats().misses;
    tr.time(root, "fisher.probe", || batch_conv_shape_fisher(&shapes, tune.seed));
    counts.probes_run += probe_cache_stats().misses - misses_before;

    // Evaluator stages on each class's wave, probes already memoised.
    let evaluator =
        Evaluator::new(&platform, tune).with_class_legality(pte_core::fisher::FisherLegality {
            tolerance: request.class_tolerance,
        });
    let evaluated = tr.time(root, "search.evaluate", || {
        classes
            .iter()
            .zip(&waves)
            .map(|(&idx, (cands, attempted))| {
                evaluator.evaluate_class(&baseline.choices()[idx], cands.clone(), *attempted)
            })
            .collect::<Vec<_>>()
    });
    let mut survivors = Vec::new();
    for ((&idx, (cands, _)), wave) in classes.iter().zip(&waves).zip(&evaluated) {
        for (cand, eval) in cands.iter().zip(&wave.evals) {
            if matches!(eval.outcome, EvalOutcome::Survivor(_)) {
                survivors.push((idx, cand.schedules.clone()));
            }
        }
    }
    counts.trials +=
        survivors.iter().map(|(_, s)| s.len() as u64).sum::<u64>() * tune.trials as u64;
    tr.time(root, "autotune.tune", || {
        for (idx, schedules) in &survivors {
            let choice = &baseline.choices()[*idx];
            std::hint::black_box(evaluator.tune_candidate(
                &choice.layer,
                choice.multiplicity,
                schedules.clone(),
            ));
        }
    });
    let all_schedules: Vec<_> = waves
        .iter()
        .flat_map(|(cands, _)| cands.iter().flat_map(|c| c.schedules.clone()))
        .collect();
    let estimate_us = tr.time(root, "machine.estimate", || {
        let start = Instant::now();
        for schedule in &all_schedules {
            std::hint::black_box(estimate(schedule, &platform));
        }
        start.elapsed().as_secs_f64() * 1e6 / all_schedules.len().max(1) as f64
    });

    // Grammar: compile each class's automaton, grow the request's buffer
    // budget from it and replay the buffers.
    let automaton_us = tr.time(root, "transform.automaton", || {
        let start = Instant::now();
        for &idx in &classes {
            let base = baseline.choices()[idx].layer.to_schedule();
            let auto = automaton::compile(&base);
            let mut rng = StdRng::seed_from_u64(derive_seed(request.seed, idx as u64));
            for _ in 0..request.random_per_layer.max(1) {
                let (mut grown, mut buf) = (base.clone(), Vec::new());
                auto.grow(&mut grown, &mut buf, &mut rng, 6);
                let mut replayed = base.clone();
                std::hint::black_box(auto.decode(&mut replayed, &buf));
            }
        }
        start.elapsed().as_secs_f64() * 1e6 / classes.len().max(1) as f64
    });

    // Serving-side layers on the served payload.
    let repack = || -> Result<Vec<u8>, String> {
        let parsed = PlanPayload::parse(&payload).map_err(|e| e.message)?;
        codec_bin::encode_payload(&parsed).map_err(|e| e.message)
    };
    let packed = tr.time(root, "codec.bin_repack", repack)?;
    let cache = PlanCache::new(256, 8);
    cache.seed(&canonical, key, &payload);
    tr.time(root, "cache.peek", || cache.peek(&canonical, key)).ok_or("seeded entry missing")?;
    tr.time(root, "store.append", || store.append(&canonical, &payload))
        .map_err(|e| format!("ledger append: {e}"))?;
    tr.close(root);

    // Repeated timings of the µs-scale entry points, outside the tree.
    counts.json_decode_us += median_us(200, json_decode);
    counts.key_us += median_us(200, || key_of(&request));
    counts.bin_decode_us += median_us(200, || codec_bin::decode_search_request(&frame_body));
    counts.bin_repack_us += median_us(200, repack);
    counts.peek_us += median_us(1000, || cache.peek(&canonical, key));
    counts.append_us += median_us(50, || store.append(&canonical, &payload));
    counts.bytes_json += payload.len() as f64;
    counts.bytes_bin += packed.len() as f64;
    counts.estimate_us += estimate_us;
    counts.automaton_us += automaton_us;

    // Search accounting, and the driver's parallel speedup on a warm memo.
    let parts: f64 = ["search.baseline", "search.candidates", "fisher.probe", "search.evaluate"]
        .iter()
        .map(|name| last_ms(tr, name))
        .sum();
    counts.unattributed_ms += last_ms(tr, "search.optimize") - parts;
    let stats: SearchStats = outcome.stats;
    counts.evals += stats.attempted as f64;
    counts.fisher_reject += stats.fisher_rejected as f64 / stats.attempted.max(1) as f64;
    let parallel = elapsed_us(|| outcome_of(&request));
    let serial = elapsed_us(|| serial_outcome_of(&request));
    counts.parallel_speedup += serial / parallel;
    Ok(())
}

fn last_ms(tr: &Tracer, name: &str) -> f64 {
    tr.spans.iter().rev().find(|s| s.name == name).map_or(0.0, |s| s.dur_us / 1e3)
}

/// Fixed kernel probes: the probe-wave GEMM and the probe-scale conv.
pub fn kernels(metrics: &mut Metrics) {
    let (m, k, n) = (64usize, 576usize, 512usize);
    let a = Tensor::randn(&[m, k], 11).into_vec();
    let b = Tensor::randn(&[k, n], 12).into_vec();
    let mut c = vec![0.0f32; m * n];
    let gemm_us = median_us(21, || gemm_nn(m, k, n, &a, &b, &mut c));
    let flops = 2.0 * (m * k * n) as f64;
    metrics.put("tensor.gemm_probe_us", gemm_us, "us");
    metrics.put("tensor.gemm_gflops", flops / gemm_us / 1e3, "GFLOP/s");
    metrics.note(format!(
        "tensor.gemm {m}x{k}x{n}: {flops:.0} flops, {} bytes of operands and result",
        4 * (m * k + k * n + m * n)
    ));

    let spec = Conv2dSpec::new(64, 64, 3).with_padding(1);
    let x = Tensor::randn(&[8, 64, 8, 8], 1);
    let w = Tensor::randn(&spec.weight_dims(), 2);
    let y = conv2d_gemm(&x, &w, &spec).expect("probe conv shapes agree");
    let d_out = Tensor::randn(y.shape().dims(), 3);
    let fwd = median_us(21, || conv2d_gemm(&x, &w, &spec).expect("probe conv shapes agree"));
    let bwd = median_us(21, || {
        conv2d_backward_gemm(&x, &w, &spec, &d_out).expect("probe conv shapes agree")
    });
    metrics.put("tensor.conv_fwd_us", fwd, "us");
    metrics.put("tensor.conv_bwd_us", bwd, "us");
}
