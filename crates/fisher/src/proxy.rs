//! Per-layer proxy Fisher scoring for large networks.
//!
//! A candidate convolution variant is embedded in a minimal probe network —
//! `conv → BN → ReLU → global-pool → linear → cross-entropy` — evaluated at
//! reduced channel width and resolution on one class-structured minibatch at
//! initialization. The layer's Fisher score (Eq. 5) is computed at its
//! post-ReLU activation. This mirrors how BlockSwap \[69\] scores candidate
//! blocks in practice; the width/resolution scaling is the documented
//! substitution that keeps 1000-candidate searches in the paper's minutes
//! budget (§7.2).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use pte_ir::ConvShape;
use pte_tensor::data::{Minibatch, SyntheticDataset};
use pte_tensor::ops::gemm::{gemm_nn_batch, GemmNnTask};
use pte_tensor::ops::im2col::{col_dims, im2col_batch};
use pte_tensor::ops::{
    batch_norm2d, batch_norm2d_backward, batch_norm2d_backward_batch, batch_norm2d_batch, conv2d,
    cross_entropy, cross_entropy_batch, linear, linear_backward, linear_batch,
    linear_d_input_batch, relu, relu_backward, relu_backward_in_place, uses_gemm_path, Conv2dSpec,
};
use pte_tensor::rng::{derive_seed, fill_normal, seeded};
use pte_tensor::Tensor;
use rayon::prelude::*;

// Probe telemetry: wave sizes and memo-lookup latencies, registered once
// and recorded with pure atomics. Observation-only — scores never read
// these, so memoised, batched and per-candidate paths stay bit-identical.
static MEMO_HIT_US: std::sync::LazyLock<pte_telemetry::Histogram> =
    std::sync::LazyLock::new(|| pte_telemetry::global().histogram("pte_probe_memo_hit_us"));
static MEMO_LOOKUP_US: std::sync::LazyLock<pte_telemetry::Histogram> =
    std::sync::LazyLock::new(|| pte_telemetry::global().histogram("pte_probe_memo_lookup_us"));
static WAVE_SIZE: std::sync::LazyLock<pte_telemetry::Histogram> =
    std::sync::LazyLock::new(|| pte_telemetry::global().histogram("pte_probe_wave_size"));

fn memo_hit_hist() -> &'static pte_telemetry::Histogram {
    &MEMO_HIT_US
}

/// Eagerly registers the probe metrics so a metrics scrape lists them
/// before the first search runs. The serve daemon calls this at boot.
pub fn init_metrics() {
    std::sync::LazyLock::force(&MEMO_HIT_US);
    std::sync::LazyLock::force(&MEMO_LOOKUP_US);
    std::sync::LazyLock::force(&WAVE_SIZE);
}

use crate::score::{layer_delta, layer_delta_nchw};

/// Proxy evaluation constants: minibatch size, probe resolution, channel cap
/// and class count.
pub const PROXY_BATCH: usize = 8;
/// Probe input resolution (square).
pub const PROXY_RESOLUTION: usize = 8;
/// Channel cap before width-scaling kicks in.
pub const PROXY_CHANNEL_CAP: usize = 64;
/// Probe classification classes.
pub const PROXY_CLASSES: usize = 10;
/// Fixed standard deviation of the probe's readout weights.
const READOUT_STD: f32 = 0.05;

/// Scales a channel count down to the proxy cap while preserving
/// divisibility by `groups`.
pub fn proxy_channels(c: usize, groups: usize) -> usize {
    if c <= PROXY_CHANNEL_CAP {
        return c;
    }
    let per = PROXY_CHANNEL_CAP / groups;
    if per == 0 {
        // Extreme grouping (e.g. depthwise on wide layers): the group count
        // itself is the smallest valid width.
        groups
    } else {
        per * groups
    }
}

/// The probe's convolution spec for a layer variant described by an IR
/// [`ConvShape`].
///
/// The probe scale is derived from the *original* layer's channel counts
/// (recovered through the recorded bottleneck factors) and the variant's
/// factors are re-applied at probe scale. Deriving the scale per variant
/// instead would make wide variants incomparable with their own original —
/// e.g. a depthwise variant would probe at full width while the original
/// probes capped.
fn probe_spec(shape: &ConvShape) -> Conv2dSpec {
    probe_spec_for(shape)
}

/// Crate-internal access to the probe geometry (shared with the NASWOT
/// metric so the two measures score identical probes).
pub(crate) fn probe_spec_for(shape: &ConvShape) -> Conv2dSpec {
    // The layer's pre-transformation channel counts, recovered through the
    // recorded bottleneck and domain-split factors.
    let orig_out = (shape.c_out * shape.bottleneck * shape.domain_split).max(1) as usize;
    let orig_in = (shape.c_in * shape.in_bottleneck).max(1) as usize;
    let base_out = proxy_channels(orig_out, 1);
    let base_in = proxy_channels(orig_in, 1);
    let c_out = (base_out / (shape.bottleneck * shape.domain_split).max(1) as usize).max(1);
    let c_in = (base_in / shape.in_bottleneck.max(1) as usize).max(1);

    // Re-fit the group count to the probe widths. Depthwise-style variants
    // (groups == both original channel counts) stay depthwise at probe
    // scale; otherwise reduce the group count until it divides both widths.
    let mut groups = if shape.groups as usize == orig_in && shape.groups as usize == orig_out {
        c_in.min(c_out)
    } else {
        (shape.groups as usize).min(c_in).min(c_out)
    };
    while groups > 1 && !(c_in.is_multiple_of(groups) && c_out.is_multiple_of(groups)) {
        groups -= 1;
    }
    let k = shape.k_h as usize;
    Conv2dSpec::new(c_in, c_out, k)
        .with_stride(shape.stride as usize)
        .with_padding(k / 2)
        .with_groups(groups.max(1))
}

/// Computes the proxy Fisher score (Eq. 5) of a convolution variant.
///
/// Spatial bottleneck factors (`sb_h`, `sb_w`) truncate the probe's conv
/// output before the rest of the probe, so spatially bottlenecked variants
/// aggregate over proportionally fewer positions — capturing their capacity
/// reduction.
///
/// Results are memoised process-wide by `(shape, seed)`: the search probes
/// the same layer variants thousands of times, and the probe is pure.
///
/// Returns 0.0 for degenerate variants whose probe cannot be built (zero
/// channels); such candidates are always rejected by the legality check.
pub fn conv_shape_fisher(shape: &ConvShape, seed: u64) -> f64 {
    let key = (*shape, seed);
    let lookup_started = std::time::Instant::now();
    if let Some(hit) = probe_cache().lock().expect("probe cache").lookup(&key) {
        memo_hit_hist().record_duration_us(lookup_started.elapsed());
        return hit;
    }
    // Computed outside the lock: concurrent searchers may race on the same
    // shape, but the probe is pure, so whichever insert lands last wrote the
    // identical value.
    let score = conv_shape_fisher_unmemoised(shape, seed);
    probe_cache().lock().expect("probe cache").insert(key, score);
    score
}

/// Default maximum number of probe scores the process-wide memo retains.
/// Sized so a normal search (hundreds of distinct shapes) never evicts,
/// while week-long exploration services cannot grow the map without bound
/// (~8 MiB at the cap; oldest entries leave first). The effective cap is
/// runtime-configurable — see [`probe_cache_capacity`].
pub const PROBE_CACHE_CAPACITY: usize = 1 << 16;

/// Capacity forced by [`set_probe_cache_capacity`]; 0 = no override.
static CAPACITY_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Capacity requested by the environment (`PTE_PROBE_CACHE_CAP`), read once
/// — the same pattern as the GEMM kernel's `PTE_GEMM_KERNEL` override.
fn env_capacity() -> Option<usize> {
    static ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PTE_PROBE_CACHE_CAP").ok().and_then(|v| v.parse::<usize>().ok())
    })
}

/// The memo's effective entry cap: the programmatic override if set, else
/// the `PTE_PROBE_CACHE_CAP` environment value, else
/// [`PROBE_CACHE_CAPACITY`] — clamped to at least 1. Long-lived serving
/// daemons size the memo for their workload with this; searches in one
/// process keep the constant default.
pub fn probe_cache_capacity() -> usize {
    let forced = CAPACITY_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    env_capacity().unwrap_or(PROBE_CACHE_CAPACITY).max(1)
}

/// Forces (or with `None` releases) the memo's entry cap, overriding both
/// the default and `PTE_PROBE_CACHE_CAP`. Takes effect on the next insert:
/// shrinking below the current occupancy evicts oldest-first as new scores
/// arrive.
pub fn set_probe_cache_capacity(capacity: Option<usize>) {
    CAPACITY_OVERRIDE.store(capacity.map_or(0, |c| c.max(1)), Ordering::Relaxed);
}

/// Snapshot of the probe memo's occupancy and traffic counters.
///
/// Counter semantics: one lookup is counted per *distinct shape per memo
/// transaction* — a batched wave ([`batch_conv_shape_fisher`]) checks each
/// distinct shape once (duplicates within the wave are deduped before the
/// memo is consulted), and the evaluation pipeline's legality stage reuses
/// the wave's returned scores rather than re-reading the memo (survivors'
/// autotune stage still reads it once per tuned schedule — genuine reuse).
/// `misses` is the number of probes actually executed — the cost an
/// operator pays — and the hit rate measures memo reuse across waves and
/// stages, the quantity that tells them whether [`PROBE_CACHE_CAPACITY`]
/// is sized right for their workload.
///
/// ## Concurrency invariants
///
/// A snapshot taken at any moment — including mid-wave from another thread —
/// satisfies:
///
/// * `hits + misses` equals the number of lookups issued so far (every
///   lookup counts exactly one of the two before its memo transaction
///   ends), and a wave issues exactly one lookup per **distinct** shape —
///   [`batch_conv_shape_fisher`] dedupes *all* duplicate occurrences before
///   consulting the memo, so lookup totals are independent of how
///   concurrent waves interleave;
/// * `misses` equals the number of probes executed or in flight (two waves
///   racing on the same shape both miss, both probe, and both count — the
///   cost really was paid twice). Concurrent searches race this way, and so
///   do two layer classes of one search, whose tasks the search driver runs
///   on the pool at once;
/// * `evictions` equals new insertions minus live `entries`, once in-flight
///   waves have drained.
///
/// `fisher/tests/probe_wave_threads.rs` pins these totals under forced
/// multi-thread wave traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeCacheStats {
    /// Entries currently memoised.
    pub entries: usize,
    /// Effective entry cap ([`probe_cache_capacity`]).
    pub capacity: usize,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to run a probe.
    pub misses: u64,
    /// Entries dropped to stay under the cap.
    pub evictions: u64,
}

/// Bounded FIFO memo: `map` answers lookups, `order` remembers insertion
/// order so the oldest entry is evicted when the cap is reached.
///
/// Traffic counters are [`AtomicU64`]s: each bump is an indivisible update
/// tied to its own transaction rather than to the surrounding map lock, so
/// the accounting stays exact even if the locking is later loosened (e.g. a
/// lock-free stats read). Today every access does hold the mutex — the
/// interleaving-independence of the *totals* comes from the wave-level
/// dedupe in [`batch_conv_shape_fisher`] (see [`ProbeCacheStats`]'s
/// invariants), not from the atomics themselves.
#[derive(Default)]
struct BoundedProbeCache {
    map: HashMap<(ConvShape, u64), f64>,
    order: VecDeque<(ConvShape, u64)>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BoundedProbeCache {
    fn lookup(&mut self, key: &(ConvShape, u64)) -> Option<f64> {
        match self.map.get(key) {
            Some(&hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&mut self, key: (ConvShape, u64), score: f64) {
        if self.map.insert(key, score).is_none() {
            self.order.push_back(key);
            while self.map.len() > probe_cache_capacity() {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                } else {
                    break;
                }
            }
        }
    }

    fn stats(&self) -> ProbeCacheStats {
        ProbeCacheStats {
            entries: self.map.len(),
            capacity: probe_cache_capacity(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

type ProbeCache = std::sync::Mutex<BoundedProbeCache>;

fn probe_cache() -> &'static ProbeCache {
    static CACHE: std::sync::OnceLock<ProbeCache> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| std::sync::Mutex::new(BoundedProbeCache::default()))
}

/// Empties the process-wide probe memo and resets its counters. Benchmarks
/// measuring cold-search wall-clock call this between runs so the second
/// configuration does not inherit the first one's probes (and reads per-run
/// [`probe_cache_stats`]).
pub fn clear_probe_cache() {
    let mut cache = probe_cache().lock().expect("probe cache");
    *cache = BoundedProbeCache::default();
}

/// Reads the probe memo's current occupancy and hit/miss/eviction counters.
pub fn probe_cache_stats() -> ProbeCacheStats {
    probe_cache().lock().expect("probe cache").stats()
}

/// Independent weight/readout draws averaged per score. A single-draw score
/// carries enough init noise that a searcher evaluating a hundred candidates
/// per layer will find one whose *lucky draw* sneaks past the legality
/// threshold (selection on noise ⇒ systematic over-compression); averaging
/// shrinks the noise below the legality margin.
const PROBE_REPEATS: u64 = 3;

/// Resolves a shape's probe geometry and derived randomness, or `None` for
/// degenerate variants that always score 0.0.
///
/// The probe's randomness derives from the *original layer's* identity, so
/// that a layer and every transformed variant of it see the same minibatch:
/// candidate-vs-original score ratios then measure structure, not minibatch
/// luck (a candidate could otherwise be accepted or rejected inconsistently
/// with its own sub-operators).
fn probe_setup(shape: &ConvShape, seed: u64) -> Option<(Conv2dSpec, u64)> {
    if shape.c_in <= 0 || shape.c_out <= 0 {
        return None;
    }
    let spec = probe_spec(shape);
    spec.validate().ok()?;
    let layer_key = {
        let orig_out = (shape.c_out * shape.bottleneck * shape.domain_split).max(1) as u64;
        let orig_in = (shape.c_in * shape.in_bottleneck).max(1) as u64;
        derive_seed(
            derive_seed(orig_in, orig_out.wrapping_mul(31)),
            (shape.k_h * 7 + shape.stride) as u64,
        )
    };
    Some((spec, derive_seed(seed, layer_key)))
}

/// The memo-free reference probe: exactly what [`conv_shape_fisher`] computes
/// on a miss. Public so parity tests and benchmarks can time / compare the
/// per-candidate path without the process-wide memo interfering.
pub fn conv_shape_fisher_unmemoised(shape: &ConvShape, seed: u64) -> f64 {
    let Some((spec, seed)) = probe_setup(shape, seed) else { return 0.0 };

    // Class-structured minibatch whose channel count matches the probe. The
    // batch depends only on `(shape, seed)`, never the repeat index, so it
    // is built once and shared across repeats (a meaningful share of probe
    // cost now that the convolution itself runs on the GEMM path).
    let Ok(dataset) = SyntheticDataset::custom(PROXY_CLASSES, spec.c_in, PROXY_RESOLUTION, seed)
    else {
        return 0.0;
    };
    let batch = dataset.minibatch(PROXY_BATCH, derive_seed(seed, 1));

    (0..PROBE_REPEATS).map(|r| probe_once(shape, &spec, &batch, seed, r)).sum::<f64>()
        / PROBE_REPEATS as f64
}

fn probe_once(
    shape: &ConvShape,
    spec: &Conv2dSpec,
    batch: &Minibatch,
    seed: u64,
    repeat: u64,
) -> f64 {
    let weight = Tensor::kaiming(&spec.weight_dims(), derive_seed(seed, 2 + repeat * 7919));
    let Ok(conv_out) = conv2d(&batch.images, &weight, spec) else { return 0.0 };
    probe_tail(shape, spec, batch, seed, repeat, conv_out)
}

/// Everything after the probe convolution: spatial truncation, BN, ReLU,
/// readout, loss, and the backward pass to the activation. This is the
/// **reference tail**: the per-candidate path ([`probe_once`]) and the
/// batched scheduler's non-GEMM fallback run it verbatim, and the class-wide
/// stacked tail ([`tail_wave`]) must reproduce it bit for bit member by
/// member (each batched op pins that contract in `pte-tensor`).
fn probe_tail(
    shape: &ConvShape,
    spec: &Conv2dSpec,
    batch: &Minibatch,
    seed: u64,
    repeat: u64,
    conv_out: Tensor,
) -> f64 {
    // Spatial bottleneck: keep only the computed output slice.
    let dims = conv_out.shape().dims().to_vec();
    let oh = (dims[2] as i64 / shape.sb_h).max(1) as usize;
    let ow = (dims[3] as i64 / shape.sb_w).max(1) as usize;
    let conv_out =
        if (oh, ow) != (dims[2], dims[3]) { truncate_spatial(&conv_out, oh, ow) } else { conv_out };

    let gamma = vec![1.0f32; spec.c_out];
    let beta = vec![0.0f32; spec.c_out];
    let Ok((bn_out, bn_cache)) = batch_norm2d(&conv_out, &gamma, &beta) else { return 0.0 };
    let act = relu(&bn_out);

    // Readout over the *flattened* activation with a fixed-scale (not
    // fan-in-normalised) projection. Two deliberate choices:
    //
    // * flattening keeps the loss gradient spatially varying, as it is at
    //   interior layers of a real network — a global-pool head would make
    //   `g` spatially uniform and Eq. 4's inner product degenerate into
    //   `mean(A)·g_c`, erasing the capacity signal;
    // * a fixed readout scale means the per-channel gradient magnitude does
    //   not shrink as width grows, so `Δ_l` stays proportional to the
    //   channels × positions the variant actually computes — which is what
    //   bottlenecking and spatial bottlenecking remove. A Kaiming-scaled
    //   head would renormalise that away by construction.
    let adims = act.shape().dims().to_vec();
    let features = adims[1] * adims[2] * adims[3];
    let Ok(flat) = act.reshape(&[adims[0], features]) else { return 0.0 };
    let w_fc = Tensor::randn(&[PROXY_CLASSES, features], derive_seed(seed, 3 + repeat * 104_729))
        .scale(READOUT_STD);
    let bias = vec![0.0f32; PROXY_CLASSES];
    let Ok(logits) = linear(&flat, &w_fc, &bias) else { return 0.0 };
    let Ok((_loss, d_logits)) = cross_entropy(&logits, &batch.labels) else { return 0.0 };

    // Backward to the post-ReLU activation.
    let Ok(fc_grads) = linear_backward(&flat, &w_fc, &bias, &d_logits) else { return 0.0 };
    let Ok(d_act) = fc_grads.d_input.reshape(&adims) else { return 0.0 };

    // Fisher uses the activation and its gradient; note A⊙∂L/∂A is identical
    // pre- and post-ReLU, so scoring at the ReLU output matches the paper.
    let score = layer_delta(&act, &d_act);

    // Exercise the remaining backward path (keeps the probe honest about
    // gradient flow; a BN that zeroed gradients would zero the score too).
    let _ = relu_backward(&bn_out, &d_act).and_then(|d| batch_norm2d_backward(&bn_cache, &d));

    score * mixing_factor(shape)
}

/// Keeps the top-left `oh × ow` window of every `[n, c]` plane — the spatial
/// bottleneck's "computed slice". Strided row-slice copies instead of the
/// former per-element `Tensor::from_fn` walk (which unflattened every
/// coordinate); bit-identical (a pure copy of the same elements) and
/// measurable at probe scale, where truncation runs once per member × repeat
/// of every spatially bottlenecked variant.
fn truncate_spatial(t: &Tensor, oh: usize, ow: usize) -> Tensor {
    let dims = t.shape().dims();
    let (n, c, src_h, src_w) = (dims[0], dims[1], dims[2], dims[3]);
    let src = t.as_slice();
    let mut data = vec![0.0f32; n * c * oh * ow];
    for plane in 0..n * c {
        let sbase = plane * src_h * src_w;
        let dbase = plane * oh * ow;
        for y in 0..oh {
            data[dbase + y * ow..dbase + (y + 1) * ow]
                .copy_from_slice(&src[sbase + y * src_w..sbase + y * src_w + ow]);
        }
    }
    Tensor::from_vec(&[n, c, oh, ow], data).expect("truncated shape")
}

/// One pooled Box–Muller stream: `n` standard-normal samples from a fresh
/// RNG seeded with `stream_seed`. Because `fill_normal` streams are bitwise
/// prefix-stable (see its docs), any member whose own draw would have been
/// the first `len ≤ n` samples of this stream can slice the pool instead —
/// the hoisting that turns per-member RNG work into per-class work.
fn normal_pool(stream_seed: u64, n: usize) -> Vec<f32> {
    let mut rng = seeded(stream_seed);
    let mut out = Vec::new();
    fill_normal(&mut rng, n, &mut out);
    out
}

/// Cross-channel information-mixing factor.
///
/// A single-layer probe cannot observe the one capacity effect that only
/// materialises across depth: grouped (and input-sliced) convolutions let
/// each output see a shrinking fraction of the input features, which in a
/// full network compounds into reduced representational capacity even though
/// batch-norm keeps every activation's scale identical. The factor below is
/// the documented calibration for that blind spot (DESIGN.md): capacity
/// decays gently with the group count (BlockSwap-style substitutions of
/// `G = 2..4` remain near-lossless, as the paper's networks rely on) and
/// sharply with input-channel slicing.
fn mixing_factor(shape: &ConvShape) -> f64 {
    let group_term = (1.0 / shape.groups.max(1) as f64).powf(0.25);
    let slice_term = (1.0 / shape.in_bottleneck.max(1) as f64).powf(0.75);
    group_term * slice_term
}

/// Scores an evaluation wave of candidate shapes through the probe memo,
/// computing the misses with the batched shape-class scheduler
/// ([`probe_wave`]) and feeding their scores back into the memo.
///
/// This is the entry point the shared `Evaluator` uses: per-candidate
/// [`conv_shape_fisher`] calls issued afterwards for the same shapes are
/// memo hits, and the values are bit-identical to what the per-candidate
/// path would have computed (a property the proptest parity suite pins).
pub fn batch_conv_shape_fisher(shapes: &[ConvShape], seed: u64) -> Vec<f64> {
    let mut out = vec![0.0f64; shapes.len()];
    // Dedupe *every* duplicate occurrence before the memo is consulted —
    // hits and misses alike — so a wave issues exactly one lookup per
    // distinct shape no matter how concurrent waves interleave (the counter
    // invariant [`ProbeCacheStats`] documents; deduping only the misses
    // would make duplicate-of-hit occurrences re-read the memo and the
    // lookup totals racy). `slots[i]` points a first occurrence at its wave
    // result, `dup_of[i]` points a duplicate at its first occurrence.
    let mut pending: Vec<ConvShape> = Vec::new();
    let mut first_ix: HashMap<ConvShape, usize> = HashMap::new();
    let mut slots: Vec<Option<usize>> = vec![None; shapes.len()];
    let mut dup_of: Vec<Option<usize>> = vec![None; shapes.len()];
    let lookup_started = std::time::Instant::now();
    {
        let mut cache = probe_cache().lock().expect("probe cache");
        for (i, shape) in shapes.iter().enumerate() {
            if let Some(&first) = first_ix.get(shape) {
                dup_of[i] = Some(first);
            } else {
                first_ix.insert(*shape, i);
                if let Some(hit) = cache.lookup(&(*shape, seed)) {
                    out[i] = hit;
                } else {
                    slots[i] = Some(pending.len());
                    pending.push(*shape);
                }
            }
        }
    }
    if !shapes.is_empty() {
        let lookup = lookup_started.elapsed();
        MEMO_LOOKUP_US.record_duration_us(lookup);
        if pending.is_empty() {
            // The whole wave was served from the memo: that transaction's
            // latency is the "memo hit" figure the metrics page reports.
            MEMO_HIT_US.record_duration_us(lookup);
        }
        // Wave size = shapes the memo could not serve (0 on full reuse).
        WAVE_SIZE.record(pending.len() as u64);
    }
    if !pending.is_empty() {
        let scores = probe_wave(&pending, seed);
        {
            let mut cache = probe_cache().lock().expect("probe cache");
            for (shape, &score) in pending.iter().zip(&scores) {
                cache.insert((*shape, seed), score);
            }
        }
        for (i, slot) in slots.iter().enumerate() {
            if let Some(j) = *slot {
                out[i] = scores[j];
            }
        }
    }
    // First occurrences are final; copy them onto their duplicates (a
    // duplicate always points backwards).
    for i in 0..out.len() {
        if let Some(first) = dup_of[i] {
            out[i] = out[first];
        }
    }
    out
}

/// One shape-class member awaiting its batched probe.
struct WaveMember {
    /// Index into the wave's input (and output) ordering.
    idx: usize,
    shape: ConvShape,
    spec: Conv2dSpec,
    /// Probe seed derived from the original layer's identity (shared by
    /// every member of the class).
    seed: u64,
}

/// Scores a wave of shapes with probe convolutions batched by **shape
/// class** — shapes whose probes share the derived seed and input geometry
/// `(c_in, kernel, stride, padding)`, hence the same synthetic minibatch and
/// the same patch matrix. Memo-free and pure; [`batch_conv_shape_fisher`] is
/// the memo-aware wrapper.
///
/// Per class, the minibatch is built once and lowered once
/// ([`im2col_batch`]); every member × group convolution of a repeat then
/// runs in one wide multi-image GEMM wave against the shared patch matrix
/// ([`gemm_nn_batch`]), which amortises the lowering that the per-candidate
/// path re-does `PROXY_BATCH × PROBE_REPEATS` times per candidate and raises
/// the GEMMs' arithmetic intensity 8×. On the packed micro-kernel path the
/// batch executor additionally packs each class's shared patch-matrix band
/// once per wave (tasks are grouped by `B` operand identity), so every
/// member product of a repeat runs against one pre-packed panel.
///
/// The probe **tail** is batched too: members stack by post-truncation
/// geometry into [`TailClass`]es, and each class × repeat runs one
/// `batch_norm2d_batch` pass, one fused ReLU, one wide readout GEMM against
/// the repeat's shared head, one `cross_entropy_batch`, and one batched
/// backward ([`tail_wave`]). All weight and readout randomness is hoisted
/// into pooled per-class Box–Muller streams whose prefixes reproduce the
/// exact per-member draws (`fill_normal` prefix stability). Members whose
/// probe `conv2d` would not dispatch to the GEMM path (depthwise-style
/// grouping, degenerate widths) fall back to the per-candidate kernel, so
/// every score stays **bit-identical** to
/// [`conv_shape_fisher_unmemoised`].
pub fn probe_wave(shapes: &[ConvShape], seed: u64) -> Vec<f64> {
    let mut out = vec![0.0f64; shapes.len()];
    // Group by shape class, preserving first-occurrence order (scores are
    // pure, so grouping order only affects scheduling, never values).
    type ClassKey = (u64, usize, usize, usize, usize);
    let mut classes: Vec<Vec<WaveMember>> = Vec::new();
    let mut class_ix: HashMap<ClassKey, usize> = HashMap::new();
    for (idx, shape) in shapes.iter().enumerate() {
        // Degenerate shapes never reach a probe; their score is 0.0.
        let Some((spec, derived)) = probe_setup(shape, seed) else { continue };
        let key = (derived, spec.c_in, spec.kernel, spec.stride, spec.padding);
        let slot = *class_ix.entry(key).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[slot].push(WaveMember { idx, shape: *shape, spec, seed: derived });
    }

    // Classes are independent: fan them out over the worker pool.
    let scored: Vec<Vec<(usize, f64)>> = classes.into_par_iter().map(probe_class).collect();
    for (idx, score) in scored.into_iter().flatten() {
        out[idx] = score;
    }
    out
}

/// Executes one shape class: shared minibatch, one batched lowering, one
/// GEMM wave per repeat, then class-wide stacked tail waves (one per tail
/// geometry × repeat) with every RNG draw hoisted into pooled per-class
/// streams.
fn probe_class(members: Vec<WaveMember>) -> Vec<(usize, f64)> {
    let seed = members[0].seed;
    let c_in = members[0].spec.c_in;
    let (h, w) = (PROXY_RESOLUTION, PROXY_RESOLUTION);
    let Ok(dataset) = SyntheticDataset::custom(PROXY_CLASSES, c_in, PROXY_RESOLUTION, seed) else {
        return members.iter().map(|m| (m.idx, 0.0)).collect();
    };
    let batch = dataset.minibatch(PROXY_BATCH, derive_seed(seed, 1));

    let mut scored = Vec::with_capacity(members.len());
    let (gemm_members, fallback): (Vec<&WaveMember>, Vec<&WaveMember>) =
        members.iter().partition(|m| uses_gemm_path(&m.spec, PROXY_BATCH, h, w));

    // Members the conv2d dispatcher would run naively (tiny widths,
    // depthwise-style grouping) probe exactly like the per-candidate path,
    // sharing only the minibatch.
    for m in fallback {
        let score =
            (0..PROBE_REPEATS).map(|r| probe_once(&m.shape, &m.spec, &batch, seed, r)).sum::<f64>()
                / PROBE_REPEATS as f64;
        scored.push((m.idx, score));
    }
    if gemm_members.is_empty() {
        return scored;
    }

    // One lowering for the whole class: the wide patch matrix every GEMM
    // below multiplies against.
    let (col_rows, cols) = col_dims(&gemm_members[0].spec, h, w);
    let batch_cols = PROXY_BATCH * cols;
    let mut col = vec![0.0f32; col_rows * batch_cols];
    im2col_batch(batch.images.as_slice(), &gemm_members[0].spec, h, w, PROXY_BATCH, &mut col);

    // Draw every member × repeat weight set from **pooled** Box–Muller
    // streams: the Kaiming derivation seed `derive_seed(seed, 2 + r·7919)`
    // does not involve the member, so all members of a class share one
    // normal stream per repeat and differ only in draw length and Kaiming
    // scale. `fill_normal` streams are bitwise prefix-stable (see its docs),
    // so slicing one pooled draw and applying each member's own
    // `√(2/fan_in)` reproduces `Tensor::kaiming`'s exact tensor — the
    // per-member `ln`/`sqrt`/`sin_cos` work collapses to once per class ×
    // repeat. Each repeat's products then run as one GEMM wave against the
    // shared patch matrix. Repeats go one at a time, refilling one pool and
    // the member weight buffers in place, so only one repeat's draws are
    // ever live: several classes' probes can be in flight at once, and the
    // buffers are allocated once per class rather than freed mid-probe.
    let repeats = PROBE_REPEATS as usize;
    let max_w_len =
        gemm_members.iter().map(|m| m.spec.weight_dims().iter().product()).max().unwrap_or(0);
    let mut scratches: Vec<Vec<f32>> = gemm_members
        .iter()
        .flat_map(|m| (0..repeats).map(move |_| vec![0.0f32; m.spec.c_out * batch_cols]))
        .collect();
    let mut weights: Vec<Vec<f32>> =
        gemm_members.iter().map(|m| vec![0.0f32; m.spec.weight_dims().iter().product()]).collect();
    let mut pool = Vec::with_capacity(max_w_len);
    for r in 0..PROBE_REPEATS {
        pool.clear();
        fill_normal(&mut seeded(derive_seed(seed, 2 + r * 7919)), max_w_len, &mut pool);
        for (m, wt) in gemm_members.iter().zip(&mut weights) {
            let fan_in: usize = m.spec.weight_dims().iter().skip(1).product::<usize>().max(1);
            let std = (2.0 / fan_in as f32).sqrt();
            for (w, v) in wt.iter_mut().zip(&pool) {
                *w = v * std;
            }
        }
        let mut tasks = Vec::new();
        let member_scratches = scratches.iter_mut().skip(r as usize).step_by(repeats);
        for ((m, wt), scratch) in gemm_members.iter().zip(&weights).zip(member_scratches) {
            let spec = &m.spec;
            let cog = spec.c_out_per_group();
            let group_rows = spec.c_in_per_group() * spec.kernel * spec.kernel;
            for (g, c_chunk) in scratch.chunks_mut(cog * batch_cols).enumerate() {
                tasks.push(GemmNnTask {
                    m: cog,
                    k: group_rows,
                    n: batch_cols,
                    a: &wt[g * cog * group_rows..],
                    b: &col[g * group_rows * batch_cols..],
                    c: c_chunk,
                });
            }
        }
        gemm_nn_batch(tasks);
    }

    // ---- class-wide tail waves ----
    //
    // Everything after the convolution used to run once per member × repeat;
    // now it runs as stacked waves. Members of a class share (c_in, kernel,
    // stride, padding) and hence the conv output geometry, but spatial
    // bottlenecking and output width still differ per member, so units stack
    // by **tail class** — the post-truncation geometry `(c_out, th, tw)`.
    // Every member × repeat unit of a tail class is shape-homogeneous and
    // shares the repeat's readout weight (its derivation seed involves only
    // the class seed and the repeat; the tail class fixes the draw length,
    // `classes × features`), so the whole tail
    // collapses to one BN pass, one fused ReLU, one wide readout GEMM, one
    // batched cross-entropy and one batched backward per tail class × repeat.
    let (oh, ow) = gemm_members[0].spec.output_hw(h, w);
    let mut tail_ix: HashMap<(usize, usize, usize), usize> = HashMap::new();
    let mut tails: Vec<TailClass> = Vec::new();
    for (mi, m) in gemm_members.iter().enumerate() {
        let th = (oh as i64 / m.shape.sb_h).max(1) as usize;
        let tw = (ow as i64 / m.shape.sb_w).max(1) as usize;
        let key = (m.spec.c_out, th, tw);
        let slot = *tail_ix.entry(key).or_insert_with(|| {
            tails.push(TailClass { c_out: m.spec.c_out, th, tw, members: Vec::new() });
            tails.len() - 1
        });
        tails[slot].members.push(mi);
    }

    // Hoist the readout draws the same way as the weights: one pooled
    // stream per repeat covers every tail class's `classes × features` head
    // as a prefix (streams are shared even across *different* feature
    // counts — prefix stability again).
    let max_r_len = tails.iter().map(|t| PROXY_CLASSES * t.features()).max().unwrap_or(0);
    let readout_pools: Vec<Vec<f32>> = (0..PROBE_REPEATS)
        .map(|r| normal_pool(derive_seed(seed, 3 + r * 104_729), max_r_len))
        .collect();

    // Scores assemble per member as `Σ_r Δ_{m,r}·mix / R` in ascending `r` —
    // the exact f64 chain the per-candidate caller sums. A tail-wave error
    // (impossible for validated probe geometry, but the per-candidate path
    // degrades to 0.0 rather than panicking, so this path must too) falls
    // back to the per-member reference tail below.
    let mut totals = vec![0.0f64; gemm_members.len()];
    let mut waves_ok = true;
    'tails: for tail in &tails {
        for (r, pool) in readout_pools.iter().enumerate() {
            let wave = tail_wave(tail, &scratches, r, pool, &batch.labels, (cols, batch_cols, ow));
            match wave {
                Ok(deltas) => {
                    for (ui, &mi) in tail.members.iter().enumerate() {
                        totals[mi] += deltas[ui] * mixing_factor(&gemm_members[mi].shape);
                    }
                }
                Err(_) => {
                    waves_ok = false;
                    break 'tails;
                }
            }
        }
    }

    if waves_ok {
        for (mi, m) in gemm_members.iter().enumerate() {
            scored.push((m.idx, totals[mi] / PROBE_REPEATS as f64));
        }
        return scored;
    }

    // Reference fallback: scatter each product back to NCHW ([`conv2d`]'s
    // output layout) and run the per-member probe tail, exactly as the
    // pre-tail-wave scheduler did.
    for (mi, m) in gemm_members.iter().enumerate() {
        let c_out = m.spec.c_out;
        let mut total = 0.0f64;
        for r in 0..PROBE_REPEATS as usize {
            let scratch = &scratches[mi * PROBE_REPEATS as usize + r];
            let mut data = vec![0.0f32; PROXY_BATCH * c_out * cols];
            for im in 0..PROXY_BATCH {
                for co in 0..c_out {
                    let src = &scratch[co * batch_cols + im * cols..][..cols];
                    data[(im * c_out + co) * cols..][..cols].copy_from_slice(src);
                }
            }
            let conv_out = Tensor::from_vec(&[PROXY_BATCH, c_out, oh, ow], data)
                .expect("probe conv output shape");
            total += probe_tail(&m.shape, &m.spec, &batch, seed, r as u64, conv_out);
        }
        scored.push((m.idx, total / PROBE_REPEATS as f64));
    }
    scored
}

/// One post-truncation tail geometry within a shape class: the members (by
/// `gemm_members` index) whose BN/readout/backward tails stack into one
/// wave.
struct TailClass {
    c_out: usize,
    /// Truncated output height/width (after the spatial bottleneck).
    th: usize,
    tw: usize,
    members: Vec<usize>,
}

impl TailClass {
    /// The readout feature count every stacked unit flattens to.
    fn features(&self) -> usize {
        self.c_out * self.th * self.tw
    }
}

/// Runs one tail class × repeat as a stacked wave and returns each member's
/// Fisher delta (Eq. 5, before the mixing factor), **bit-identical** to
/// running [`probe_tail`] per member:
///
/// 1. gather every member's GEMM product into one `[M, n, c, th, tw]`
///    tensor (the NCHW scatter and the spatial truncation fused into one
///    strided copy);
/// 2. one [`batch_norm2d_batch`] pass (per-unit statistics, bit-identical
///    per unit), one fused [`relu`] over the whole stack;
/// 3. one wide readout GEMM ([`linear_batch`]): all members' activation
///    rows against the repeat's shared fixed-scale head;
/// 4. one [`cross_entropy_batch`] against the class minibatch's labels;
/// 5. one batched backward — [`linear_d_input_batch`],
///    [`relu_backward_in_place`], [`batch_norm2d_backward_batch`] — with the
///    per-unit deltas read off between the readout backward and the
///    (discarded, but gradient-flow-honest) BN backward, exactly where the
///    per-member tail reads them.
fn tail_wave(
    tail: &TailClass,
    scratches: &[Vec<f32>],
    r: usize,
    readout_pool: &[f32],
    labels: &[usize],
    (cols, batch_cols, ow): (usize, usize, usize),
) -> pte_tensor::Result<Vec<f64>> {
    let (c_out, th, tw) = (tail.c_out, tail.th, tail.tw);
    let m_count = tail.members.len();
    let unit_len = PROXY_BATCH * c_out * th * tw;
    let features = tail.features();

    // Stacked conv output: truncating strided gather straight from the GEMM
    // scratches (layout `[c_out, n·cols]`) into unit-major NCHW.
    let mut data = vec![0.0f32; m_count * unit_len];
    for (ui, &mi) in tail.members.iter().enumerate() {
        let scratch = &scratches[mi * PROBE_REPEATS as usize + r];
        for im in 0..PROXY_BATCH {
            for co in 0..c_out {
                let src_base = co * batch_cols + im * cols;
                let dst_base = ui * unit_len + (im * c_out + co) * th * tw;
                for y in 0..th {
                    data[dst_base + y * tw..dst_base + (y + 1) * tw]
                        .copy_from_slice(&scratch[src_base + y * ow..src_base + y * ow + tw]);
                }
            }
        }
    }
    let stacked = Tensor::from_vec(&[m_count, PROXY_BATCH, c_out, th, tw], data)?;

    let gamma = vec![1.0f32; c_out];
    let beta = vec![0.0f32; c_out];
    let (bn_out, bn_cache) = batch_norm2d_batch(&stacked, &gamma, &beta)?;
    let act = relu(&bn_out);
    // Flatten by moving the buffer (`from_vec` takes ownership): the stacked
    // layout already is `[M·n, features]` row-major.
    let flat = Tensor::from_vec(&[m_count * PROXY_BATCH, features], act.into_vec())?;

    // The repeat's shared readout head, sliced from the pooled stream (same
    // fixed `READOUT_STD` scale as the per-member draw).
    let w_fc_data: Vec<f32> =
        readout_pool[..PROXY_CLASSES * features].iter().map(|v| v * READOUT_STD).collect();
    let w_fc = Tensor::from_vec(&[PROXY_CLASSES, features], w_fc_data)?;
    let bias = vec![0.0f32; PROXY_CLASSES];

    let logits = linear_batch(&flat, &w_fc, &bias)?;
    let (_losses, d_logits) = cross_entropy_batch(&logits, labels, m_count)?;
    let d_flat = linear_d_input_batch(&d_logits, &w_fc)?;

    // Per-unit Fisher deltas (activation ⊙ gradient, Eq. 4/5) before the
    // backward exercise consumes the gradient buffer.
    let deltas: Vec<f64> = (0..m_count)
        .map(|u| {
            layer_delta_nchw(
                &flat.as_slice()[u * unit_len..],
                &d_flat.as_slice()[u * unit_len..],
                PROXY_BATCH,
                c_out,
                th,
                tw,
            )
        })
        .collect();

    // Exercise the remaining backward path (kept from the per-member tail:
    // a BN that zeroed gradients would zero the score too). In-place mask,
    // results discarded.
    let mut d_act = Tensor::from_vec(&[m_count, PROXY_BATCH, c_out, th, tw], d_flat.into_vec())?;
    relu_backward_in_place(&bn_out, &mut d_act)?;
    let _ = batch_norm2d_backward_batch(&bn_cache, &d_act)?;

    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(c_in: i64, c_out: i64, k: i64) -> ConvShape {
        ConvShape::standard(c_in, c_out, k, 10, 10)
    }

    #[test]
    fn proxy_channels_respects_groups() {
        assert_eq!(proxy_channels(32, 1), 32);
        assert_eq!(proxy_channels(512, 1), 64);
        assert_eq!(proxy_channels(512, 8), 64);
        assert_eq!(proxy_channels(512, 3), 63);
        // Depthwise-wide: groups dominate.
        assert_eq!(proxy_channels(512, 512), 512);
        assert_eq!(proxy_channels(512, 128), 128);
    }

    #[test]
    fn fisher_is_positive_and_deterministic() {
        let s = shape(16, 16, 3);
        let a = conv_shape_fisher(&s, 42);
        let b = conv_shape_fisher(&s, 42);
        assert!(a > 0.0);
        assert_eq!(a, b);
        assert_ne!(a, conv_shape_fisher(&s, 43));
    }

    #[test]
    fn brutal_bottleneck_loses_fisher() {
        let full = conv_shape_fisher(&shape(32, 32, 3), 7);
        let mut crushed = shape(32, 32, 3);
        crushed.c_out = 2;
        crushed.bottleneck = 16;
        let low = conv_shape_fisher(&crushed, 7);
        assert!(low < full, "crushed {low} vs full {full}");
    }

    #[test]
    fn spatial_bottleneck_reduces_score() {
        let full = conv_shape_fisher(&shape(32, 32, 3), 7);
        let mut sb = shape(32, 32, 3);
        sb.sb_h = 2;
        sb.sb_w = 2;
        let reduced = conv_shape_fisher(&sb, 7);
        assert!(reduced < full, "sb {reduced} vs full {full}");
    }

    #[test]
    fn grouped_variant_scores_comparably() {
        // Mild grouping keeps most capacity: score in the same ballpark
        // (within ~60%), not collapsed to zero.
        let full = conv_shape_fisher(&shape(64, 64, 3), 7);
        let mut grouped = shape(64, 64, 3);
        grouped.groups = 2;
        let g = conv_shape_fisher(&grouped, 7);
        assert!(g > full * 0.2, "grouped {g} vs full {full}");
    }

    #[test]
    fn degenerate_shapes_score_zero() {
        let mut z = shape(16, 16, 3);
        z.c_out = 0;
        assert_eq!(conv_shape_fisher(&z, 1), 0.0);
    }

    #[test]
    fn bounded_cache_evicts_oldest_first() {
        // Exercised directly (no probes): filling past the cap drops the
        // oldest entries, keeps the newest, and counts the evictions.
        let mut cache = BoundedProbeCache::default();
        let key = |i: usize| (ConvShape::standard(1, 1, 1, i as i64, 1), 0u64);
        let extra = 10;
        for i in 0..PROBE_CACHE_CAPACITY + extra {
            cache.insert(key(i), i as f64);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, PROBE_CACHE_CAPACITY);
        assert_eq!(stats.capacity, PROBE_CACHE_CAPACITY);
        assert_eq!(stats.evictions, extra as u64);
        assert_eq!(cache.lookup(&key(0)), None, "oldest entry must be evicted");
        assert_eq!(cache.lookup(&key(extra)), Some(extra as f64), "survivor must stay");
        assert_eq!(
            cache.lookup(&key(PROBE_CACHE_CAPACITY + extra - 1)),
            Some((PROBE_CACHE_CAPACITY + extra - 1) as f64)
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        // Re-inserting an existing key neither duplicates nor evicts.
        cache.insert(key(extra), extra as f64);
        assert_eq!(cache.stats().entries, PROBE_CACHE_CAPACITY);
        assert_eq!(cache.stats().evictions, extra as u64);
    }

    #[test]
    fn process_cache_reports_traffic() {
        let s = shape(24, 24, 3);
        let seed = 0xCAFE_F00D;
        let before = probe_cache_stats();
        let a = conv_shape_fisher(&s, seed);
        let mid = probe_cache_stats();
        assert!(mid.misses > before.misses, "first probe must miss");
        let b = conv_shape_fisher(&s, seed);
        let after = probe_cache_stats();
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(after.hits > mid.hits, "second probe must hit");
        assert!(after.entries <= after.capacity);
    }
}
