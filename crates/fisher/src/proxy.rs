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
use std::sync::Mutex;

use pte_ir::ConvShape;
use pte_tensor::data::{Minibatch, SyntheticDataset};
use pte_tensor::ops::gemm::{gemm_nn_batch, GemmNnTask};
use pte_tensor::ops::im2col::{col_dims, im2col_batch};
use pte_tensor::ops::{
    batch_norm2d, batch_norm2d_batch, conv2d, cross_entropy, cross_entropy_batch, linear,
    linear_backward, linear_batch, linear_d_input_batch, relu, uses_gemm_path, Conv2dSpec,
};
use pte_tensor::rng::{derive_seed, NormalStream};
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
    std::sync::LazyLock::force(&NORMALS_DRAWN);
    std::sync::LazyLock::force(&GEMM_MACS);
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
    ProbeStreams::default().conv_shape_fisher(shape, seed)
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
const PROBE_REPEATS: usize = 3;

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

/// Seed of repeat `r`'s Kaiming weight stream under a layer's probe seed.
fn weight_stream(seed: u64, r: usize) -> u64 {
    derive_seed(seed, 2 + r as u64 * 7919)
}

/// Seed of repeat `r`'s readout-head stream under a layer's probe seed.
fn readout_stream(seed: u64, r: usize) -> u64 {
    derive_seed(seed, 3 + r as u64 * 104_729)
}

/// Length of a probe's Kaiming weight draw.
fn weight_len(spec: &Conv2dSpec) -> usize {
    spec.weight_dims().iter().product()
}

/// The top-left window a spatially bottlenecked variant keeps of its
/// `oh × ow` conv output.
fn truncated_hw(shape: &ConvShape, (oh, ow): (usize, usize)) -> (usize, usize) {
    ((oh as i64 / shape.sb_h).max(1) as usize, (ow as i64 / shape.sb_w).max(1) as usize)
}

/// Length of a probe's readout-head draw: `classes × features` of its
/// truncated activation.
fn readout_len(shape: &ConvShape, spec: &Conv2dSpec) -> usize {
    let (th, tw) = truncated_hw(shape, spec.output_hw(PROXY_RESOLUTION, PROXY_RESOLUTION));
    PROXY_CLASSES * spec.c_out * th * tw
}

/// The memo-free reference probe: what [`conv_shape_fisher`] computes on a
/// miss, with every random draw made fresh per repeat (no stream scope).
/// Public so parity tests and benchmarks can time / compare the
/// per-candidate path without the memo or a scope interfering.
pub fn conv_shape_fisher_unmemoised(shape: &ConvShape, seed: u64) -> f64 {
    let Some((spec, seed)) = probe_setup(shape, seed) else { return 0.0 };

    // Class-structured minibatch whose channel count matches the probe. The
    // batch depends only on `(shape, seed)`, never the repeat index, so it
    // is built once and shared across repeats.
    let Ok(dataset) = SyntheticDataset::custom(PROXY_CLASSES, spec.c_in, PROXY_RESOLUTION, seed)
    else {
        return 0.0;
    };
    let batch = dataset.minibatch(PROXY_BATCH, derive_seed(seed, 1));

    (0..PROBE_REPEATS)
        .map(|r| {
            let weight = Tensor::kaiming(&spec.weight_dims(), weight_stream(seed, r));
            let readout = Tensor::randn(&[readout_len(shape, &spec)], readout_stream(seed, r));
            probe_once(shape, &spec, &batch, &weight, readout.as_slice())
        })
        .sum::<f64>()
        / PROBE_REPEATS as f64
}

/// One repeat of the per-candidate probe: the convolution with `weight`,
/// then the reference tail with the readout head drawn from `readout`.
fn probe_once(
    shape: &ConvShape,
    spec: &Conv2dSpec,
    batch: &Minibatch,
    weight: &Tensor,
    readout: &[f32],
) -> f64 {
    let Ok(conv_out) = conv2d(&batch.images, weight, spec) else { return 0.0 };
    probe_tail(shape, spec, &batch.labels, conv_out, readout)
}

/// Everything after the probe convolution: spatial truncation, BN, ReLU,
/// readout, loss, and the backward pass to the activation. This is the
/// **reference tail**: the per-candidate path ([`probe_once`]) runs it
/// verbatim, and the class-wide stacked tail ([`tail_wave`]) must reproduce
/// it bit for bit member by member (each batched op pins that contract in
/// `pte-tensor`). `readout` holds at least the `classes × features` normal
/// samples of the readout head (a longer stream's prefix is the same draw).
fn probe_tail(
    shape: &ConvShape,
    spec: &Conv2dSpec,
    labels: &[usize],
    conv_out: Tensor,
    readout: &[f32],
) -> f64 {
    // Spatial bottleneck: keep only the computed output slice.
    let dims = conv_out.shape().dims().to_vec();
    let (oh, ow) = truncated_hw(shape, (dims[2], dims[3]));
    let conv_out =
        if (oh, ow) != (dims[2], dims[3]) { truncate_spatial(&conv_out, oh, ow) } else { conv_out };

    let gamma = vec![1.0f32; spec.c_out];
    let beta = vec![0.0f32; spec.c_out];
    let Ok((bn_out, _)) = batch_norm2d(&conv_out, &gamma, &beta) else { return 0.0 };
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
    let Some(head) = readout.get(..PROXY_CLASSES * features) else { return 0.0 };
    let head = head.iter().map(|v| v * READOUT_STD).collect();
    let Ok(w_fc) = Tensor::from_vec(&[PROXY_CLASSES, features], head) else { return 0.0 };
    let bias = vec![0.0f32; PROXY_CLASSES];
    let Ok(logits) = linear(&flat, &w_fc, &bias) else { return 0.0 };
    let Ok((_loss, d_logits)) = cross_entropy(&logits, labels) else { return 0.0 };

    // Backward to the post-ReLU activation.
    let Ok(fc_grads) = linear_backward(&flat, &w_fc, &bias, &d_logits) else { return 0.0 };
    let Ok(d_act) = fc_grads.d_input.reshape(&adims) else { return 0.0 };

    // Fisher uses the activation and its gradient; note A⊙∂L/∂A is identical
    // pre- and post-ReLU, so scoring at the ReLU output matches the paper.
    layer_delta(&act, &d_act) * mixing_factor(shape)
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
/// ([`probe_wave`]) and feeding their scores back into the memo. The random
/// streams are shared across the whole call ([`ProbeStreams`]).
///
/// Per-candidate [`conv_shape_fisher`] calls issued afterwards for the same
/// shapes are memo hits, and the values are bit-identical to what the
/// per-candidate path would have computed (a property the proptest parity
/// suite pins). The search's `Evaluator` calls the same wave through its
/// class task's scope ([`ProbeStreams::batch_conv_shape_fisher`]).
pub fn batch_conv_shape_fisher(shapes: &[ConvShape], seed: u64) -> Vec<f64> {
    ProbeStreams::default().batch_conv_shape_fisher(shapes, seed)
}

/// Scores a wave of shapes with probe convolutions batched by **shape
/// class**, drawing the random streams once for the whole call (see
/// [`ProbeStreams::probe_wave`]). Memo-free and pure.
pub fn probe_wave(shapes: &[ConvShape], seed: u64) -> Vec<f64> {
    ProbeStreams::default().probe_wave(shapes, seed)
}

/// Normal samples drawn into probe-stream scopes (every weight and readout
/// stream a probe slices; the memo-free reference draws outside any scope
/// and is not counted). Observation-only, like the other probe metrics.
static NORMALS_DRAWN: std::sync::LazyLock<pte_telemetry::Counter> =
    std::sync::LazyLock::new(|| pte_telemetry::global().counter("pte_probe_normals_drawn_total"));

/// Multiply–accumulates of the probe convolutions' GEMM waves. Like the
/// other probe metrics it is observation-only.
static GEMM_MACS: std::sync::LazyLock<pte_telemetry::Counter> =
    std::sync::LazyLock::new(|| pte_telemetry::global().counter("pte_probe_gemm_macs_total"));

/// The random draws every probe of one layer shares, keyed in a
/// [`ProbeStreams`] by the layer's derived probe seed: per repeat one
/// Kaiming weight stream and one readout stream — neither derivation
/// involves the variant, so all of a layer's variants draw from the same six
/// streams and differ only in length and scale — plus one minibatch per
/// probe input width and, per shape class, the products its ungrouped
/// members share ([`SharedProducts`]).
struct LayerStreams {
    weights: [NormalStream; PROBE_REPEATS],
    readouts: [NormalStream; PROBE_REPEATS],
    batches: HashMap<usize, Minibatch>,
    products: HashMap<ClassGeometry, SharedProducts>,
}

/// A shape class's input geometry within its layer: the probe's
/// `(c_in, kernel, stride, padding)`. Members that share it share the
/// minibatch, the patch matrix and the conv output size.
type ClassGeometry = (usize, usize, usize, usize);

fn class_geometry(spec: &Conv2dSpec) -> ClassGeometry {
    (spec.c_in, spec.kernel, spec.stride, spec.padding)
}

/// The conv products of a shape class's ungrouped (`groups == 1`) GEMM
/// members, one `[rows, n·cols]` matrix per repeat.
///
/// Those members share `fan_in = c_in·k²`, so a member's Kaiming weights are
/// the first `c_out` rows of one scaled stream. Every GEMM element is an
/// ascending-`k`, unfused chain from a zeroed `C`, whatever the row count and
/// however the rows are tiled, so the member's product is bit for bit the
/// first `c_out` rows of the widest one. Like a [`NormalStream`], the
/// matrices only grow — by rows, to the largest ungrouped `c_out` any probe
/// has requested — and every member slices a row prefix.
#[derive(Default)]
struct SharedProducts {
    rows: usize,
    repeats: [Vec<f32>; PROBE_REPEATS],
}

/// What one wave needs of a layer's streams: the longest weight and readout
/// prefixes and the input widths of its shape classes.
#[derive(Default)]
struct LayerNeed {
    weight_len: usize,
    readout_len: usize,
    c_ins: Vec<usize>,
}

impl LayerStreams {
    fn new(seed: u64) -> Self {
        LayerStreams {
            weights: std::array::from_fn(|r| NormalStream::new(weight_stream(seed, r))),
            readouts: std::array::from_fn(|r| NormalStream::new(readout_stream(seed, r))),
            batches: HashMap::new(),
            products: HashMap::new(),
        }
    }

    /// Grows every stream to the wave's longest prefix (continuing its own
    /// RNG) and builds the missing minibatches; returns the normal samples
    /// drawn.
    fn draw(&mut self, seed: u64, need: &LayerNeed) -> usize {
        let mut drawn = 0;
        for stream in &mut self.weights {
            drawn += stream.grow_to(need.weight_len);
        }
        for stream in &mut self.readouts {
            drawn += stream.grow_to(need.readout_len);
        }
        for &c_in in &need.c_ins {
            if self.batches.contains_key(&c_in) {
                continue;
            }
            if let Ok(dataset) =
                SyntheticDataset::custom(PROXY_CLASSES, c_in, PROXY_RESOLUTION, seed)
            {
                self.batches.insert(c_in, dataset.minibatch(PROXY_BATCH, derive_seed(seed, 1)));
            }
        }
        drawn
    }

    /// Writes repeat `r`'s Kaiming weights for `spec` into `out`: a prefix of
    /// the repeat's stream scaled by the member's own `√(2/fan_in)` — bit for
    /// bit the tensor `Tensor::kaiming` draws alone.
    fn kaiming_into(&self, spec: &Conv2dSpec, r: usize, out: &mut [f32]) {
        let fan_in = spec.weight_dims().iter().skip(1).product::<usize>();
        self.kaiming_rows(fan_in, r, 0, out);
    }

    /// Writes rows `row0..` of repeat `r`'s Kaiming weights at `fan_in` into
    /// `out` (as many rows as it holds): the stream's samples from
    /// `row0·fan_in` on, scaled by `√(2/fan_in)`.
    fn kaiming_rows(&self, fan_in: usize, r: usize, row0: usize, out: &mut [f32]) {
        let fan_in = fan_in.max(1);
        let std = (2.0 / fan_in as f32).sqrt();
        for (w, v) in out.iter_mut().zip(&self.weights[r].samples()[row0 * fan_in..]) {
            *w = v * std;
        }
    }

    /// The per-member reference probe ([`probe_once`] per repeat) on this
    /// layer's draws: what a class falls back to when its stacked path
    /// fails.
    fn probe_member(&self, m: &WaveMember, batch: &Minibatch) -> f64 {
        (0..PROBE_REPEATS)
            .map(|r| {
                let mut weight = vec![0.0f32; weight_len(&m.spec)];
                self.kaiming_into(&m.spec, r, &mut weight);
                let Ok(weight) = Tensor::from_vec(&m.spec.weight_dims(), weight) else {
                    return 0.0;
                };
                probe_once(&m.shape, &m.spec, batch, &weight, self.readouts[r].samples())
            })
            .sum::<f64>()
            / PROBE_REPEATS as f64
    }
}

/// A probe-stream scope: the random streams and minibatches of the layers
/// its probes touch, each drawn once — at the longest length any probe has
/// needed so far — and sliced by every later probe of the same layer, plus
/// each shape class's shared ungrouped products ([`SharedProducts`]), grown
/// the same way by rows.
///
/// Streams grow by continuing their own RNG, and [`fill_normal`]'s prefix
/// stability makes every slice bitwise equal to the draw the probe would
/// have made alone; a product's row prefix is likewise bitwise the product
/// the member would have computed alone. So a scope never changes a score:
/// it only removes repeated Box–Muller, minibatch and GEMM work. Each
/// layer-class task of a search owns one through its `Evaluator`, dropped
/// when the task returns, and the free functions ([`conv_shape_fisher`],
/// [`batch_conv_shape_fisher`], [`probe_wave`]) use one per call. A wave
/// keeps only the layers it touches, so a scope holds at most one wave's
/// layers — in a class task, the class's one layer: six streams under
/// 1 MiB, and per shape class at most `3 × 64 × 512` product floats
/// (384 KiB) at the probe caps.
///
/// [`fill_normal`]: pte_tensor::rng::fill_normal
#[derive(Default)]
pub struct ProbeStreams {
    layers: Mutex<HashMap<u64, LayerStreams>>,
}

impl std::fmt::Debug for ProbeStreams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let layers = self.layers.lock().map(|l| l.len()).unwrap_or_default();
        f.debug_struct("ProbeStreams").field("layers", &layers).finish()
    }
}

impl ProbeStreams {
    /// [`conv_shape_fisher`] through this scope: a memo hit never touches
    /// it; a miss probes as a one-member [`ProbeStreams::probe_wave`].
    pub fn conv_shape_fisher(&self, shape: &ConvShape, seed: u64) -> f64 {
        let key = (*shape, seed);
        let lookup_started = std::time::Instant::now();
        if let Some(hit) = probe_cache().lock().expect("probe cache").lookup(&key) {
            memo_hit_hist().record_duration_us(lookup_started.elapsed());
            return hit;
        }
        // Computed outside the lock: concurrent searchers may race on the
        // same shape, but the probe is pure, so whichever insert lands last
        // wrote the identical value.
        let score = self.probe_wave(std::slice::from_ref(shape), seed)[0];
        probe_cache().lock().expect("probe cache").insert(key, score);
        score
    }

    /// [`batch_conv_shape_fisher`] through this scope.
    pub fn batch_conv_shape_fisher(&self, shapes: &[ConvShape], seed: u64) -> Vec<f64> {
        let mut out = vec![0.0f64; shapes.len()];
        // Dedupe *every* duplicate occurrence before the memo is consulted —
        // hits and misses alike — so a wave issues exactly one lookup per
        // distinct shape no matter how concurrent waves interleave (the
        // counter invariant [`ProbeCacheStats`] documents; deduping only the
        // misses would make duplicate-of-hit occurrences re-read the memo and
        // the lookup totals racy). `slots[i]` points a first occurrence at
        // its wave result, `dup_of[i]` points a duplicate at its first
        // occurrence.
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
            let scores = self.probe_wave(&pending, seed);
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

    /// Scores a wave of shapes with probe convolutions batched by **shape
    /// class** — shapes whose probes share the derived seed and input
    /// geometry `(c_in, kernel, stride, padding)`, hence the same synthetic
    /// minibatch and the same patch matrix. Memo-free and pure;
    /// [`ProbeStreams::batch_conv_shape_fisher`] is the memo-aware wrapper.
    ///
    /// The wave first draws what it needs, then fans the classes out over
    /// the worker pool: each layer's six streams grow once, to the longest
    /// prefix any of its members needs, and each `(c_in, layer)` minibatch
    /// is built once — later waves through the same scope slice them again.
    ///
    /// Per class, the minibatch is lowered once ([`im2col_batch`]). Every
    /// ungrouped member slices a row prefix of the class's
    /// [`SharedProducts`], which grow by one GEMM per repeat when a member
    /// asks for more rows than any before it; every grouped member × group
    /// convolution of a repeat runs in one wide multi-image GEMM wave
    /// against the shared patch matrix ([`gemm_nn_batch`]), which packs the
    /// patch-matrix band once per wave. Members whose probe `conv2d` would
    /// not dispatch to the GEMM path (depthwise-style grouping, degenerate
    /// widths) run that `conv2d` on the same draws instead.
    ///
    /// The probe **tail** is batched for every member: members stack by
    /// post-truncation geometry into [`TailClass`]es, and each class ×
    /// repeat runs one `batch_norm2d_batch` pass, one fused ReLU, one wide
    /// readout GEMM against the repeat's shared head, one
    /// `cross_entropy_batch`, and one batched readout backward
    /// ([`tail_wave`]). Every score stays **bit-identical** to
    /// [`conv_shape_fisher_unmemoised`].
    pub fn probe_wave(&self, shapes: &[ConvShape], seed: u64) -> Vec<f64> {
        let mut out = vec![0.0f64; shapes.len()];
        // Group by shape class, preserving first-occurrence order (scores
        // are pure, so grouping order only affects scheduling, never values).
        let mut classes: Vec<Vec<WaveMember>> = Vec::new();
        let mut class_ix: HashMap<(u64, ClassGeometry), usize> = HashMap::new();
        let mut needs: HashMap<u64, LayerNeed> = HashMap::new();
        for (idx, shape) in shapes.iter().enumerate() {
            // Degenerate shapes never reach a probe; their score is 0.0.
            let Some((spec, derived)) = probe_setup(shape, seed) else { continue };
            let need = needs.entry(derived).or_default();
            need.weight_len = need.weight_len.max(weight_len(&spec));
            need.readout_len = need.readout_len.max(readout_len(shape, &spec));
            let slot = *class_ix.entry((derived, class_geometry(&spec))).or_insert_with(|| {
                need.c_ins.push(spec.c_in);
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[slot].push(WaveMember { idx, shape: *shape, spec, seed: derived });
        }
        if classes.is_empty() {
            return out;
        }

        // Draw phase: keep only the layers this wave touches, then grow them
        // (layers are independent, so they draw in parallel).
        let mut layers = self.layers.lock().expect("probe streams");
        layers.retain(|layer, _| needs.contains_key(layer));
        for &layer in needs.keys() {
            layers.entry(layer).or_insert_with(|| LayerStreams::new(layer));
        }
        let growing: Vec<_> = layers.iter_mut().map(|(&layer, s)| (layer, s)).collect();
        let drawn: Vec<usize> =
            growing.into_par_iter().map(|(layer, s)| s.draw(layer, &needs[&layer])).collect();
        NORMALS_DRAWN.add(drawn.iter().sum::<usize>() as u64);

        // Each class takes its own shared products out of its layer for the
        // fan-out (the classes' keys are distinct), so the streams stay
        // read-only while the classes run, and hands them back after.
        let jobs: Vec<_> = classes
            .into_iter()
            .map(|members| {
                let (seed, geometry) = (members[0].seed, class_geometry(&members[0].spec));
                let layer = layers.get_mut(&seed).expect("drawn layer");
                let products = layer.products.remove(&geometry).unwrap_or_default();
                (seed, geometry, members, products)
            })
            .collect();
        let streams = &*layers;
        let scored: Vec<_> = jobs
            .into_par_iter()
            .map(|(seed, geometry, members, mut products)| {
                let scores = probe_class(&members, &streams[&seed], &mut products);
                (seed, geometry, products, scores)
            })
            .collect();
        for (seed, geometry, products, scores) in scored {
            if products.rows > 0 {
                layers.get_mut(&seed).expect("drawn layer").products.insert(geometry, products);
            }
            for (idx, score) in scores {
                out[idx] = score;
            }
        }
        out
    }
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

/// How a wave member's conv product is computed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConvPath {
    /// Ungrouped GEMM member: a row prefix of the class's [`SharedProducts`].
    Shared,
    /// Grouped GEMM member: its own products in the repeat's GEMM wave.
    Own,
    /// A member `conv2d` would not send to the GEMM path: `conv2d` itself,
    /// scattered into the GEMM product layout.
    Fallback,
}

impl ConvPath {
    fn of(spec: &Conv2dSpec) -> Self {
        if !uses_gemm_path(spec, PROXY_BATCH, PROXY_RESOLUTION, PROXY_RESOLUTION) {
            ConvPath::Fallback
        } else if spec.groups == 1 {
            ConvPath::Shared
        } else {
            ConvPath::Own
        }
    }
}

/// Runs one wave of probe-convolution GEMMs, counting its multiply–adds.
fn gemm_wave(tasks: Vec<GemmNnTask<'_>>) {
    if !tasks.is_empty() {
        GEMM_MACS.add(tasks.iter().map(|t| (t.m * t.k * t.n) as u64).sum());
        gemm_nn_batch(tasks);
    }
}

/// Executes one shape class on its layer's drawn streams: shared minibatch,
/// one batched lowering, the growth of the class's shared ungrouped
/// products, then per repeat the fallback convolutions and one GEMM wave for
/// the grouped members, followed at once by that repeat's class-wide stacked
/// tail waves (one per tail geometry).
fn probe_class(
    members: &[WaveMember],
    layer: &LayerStreams,
    shared: &mut SharedProducts,
) -> Vec<(usize, f64)> {
    let (h, w) = (PROXY_RESOLUTION, PROXY_RESOLUTION);
    let Some(batch) = layer.batches.get(&members[0].spec.c_in) else {
        return members.iter().map(|m| (m.idx, 0.0)).collect();
    };
    // The error path: a failed convolution or tail wave (impossible for
    // validated probe geometry, but the per-candidate path degrades to 0.0
    // rather than panicking, so this path must too) re-scores the class
    // with the per-member reference probe.
    let reference = || members.iter().map(|m| (m.idx, layer.probe_member(m, batch))).collect();

    // Members share (c_in, kernel, stride, padding), hence the patch
    // matrix and the conv output geometry.
    let spec = &members[0].spec;
    let (oh, ow) = spec.output_hw(h, w);
    let (col_rows, cols) = col_dims(spec, h, w);
    let batch_cols = PROXY_BATCH * cols;
    let paths: Vec<ConvPath> = members.iter().map(|m| ConvPath::of(&m.spec)).collect();
    let shared_rows = members
        .iter()
        .zip(&paths)
        .filter(|(_, &path)| path == ConvPath::Shared)
        .map(|(m, _)| m.spec.c_out)
        .max()
        .unwrap_or(0);
    let grow = shared_rows.saturating_sub(shared.rows);

    // One lowering for the whole class: the wide patch matrix every GEMM
    // below multiplies against.
    let mut col = Vec::new();
    if grow > 0 || paths.contains(&ConvPath::Own) {
        col = vec![0.0f32; col_rows * batch_cols];
        im2col_batch(batch.images.as_slice(), spec, h, w, PROXY_BATCH, &mut col);
    }

    // Grow the shared products to this wave's widest ungrouped member: the
    // missing rows' weights are the next rows of each repeat's stream, and
    // their products the next rows of each repeat's matrix.
    if grow > 0 {
        let (fan_in, row0) = (col_rows, shared.rows);
        let weights: Vec<Vec<f32>> = (0..PROBE_REPEATS)
            .map(|r| {
                let mut wt = vec![0.0f32; grow * fan_in];
                layer.kaiming_rows(fan_in, r, row0, &mut wt);
                wt
            })
            .collect();
        let mut tasks = Vec::with_capacity(PROBE_REPEATS);
        for (product, wt) in shared.repeats.iter_mut().zip(&weights) {
            product.resize(shared_rows * batch_cols, 0.0);
            tasks.push(GemmNnTask {
                m: grow,
                k: fan_in,
                n: batch_cols,
                a: wt,
                b: &col,
                c: &mut product[row0 * batch_cols..],
            });
        }
        gemm_wave(tasks);
        shared.rows = shared_rows;
    }

    // Tail classes. Everything after the convolution runs as stacked waves.
    // Members of a class share the conv output geometry, but spatial
    // bottlenecking and output width still differ per member, so units
    // stack by **tail class** — the post-truncation geometry
    // `(c_out, th, tw)`. Every member unit of a tail class is
    // shape-homogeneous and shares the repeat's readout head (its
    // derivation seed involves only the layer seed and the repeat; the tail
    // class fixes the prefix length, `classes × features`), so the whole
    // tail collapses to one BN pass, one fused ReLU, one wide readout GEMM,
    // one batched cross-entropy and one batched readout backward per tail
    // class × repeat.
    let mut tail_ix: HashMap<(usize, usize, usize), usize> = HashMap::new();
    let mut tails: Vec<TailClass> = Vec::new();
    for (mi, m) in members.iter().enumerate() {
        let (th, tw) = truncated_hw(&m.shape, (oh, ow));
        let key = (m.spec.c_out, th, tw);
        let slot = *tail_ix.entry(key).or_insert_with(|| {
            tails.push(TailClass { c_out: m.spec.c_out, th, tw, members: Vec::new() });
            tails.len() - 1
        });
        tails[slot].members.push(mi);
    }

    // Repeats run one at a time: each grouped or fallback member's weights
    // are its repeat stream's prefix scaled by its own `√(2/fan_in)` (bit
    // for bit `Tensor::kaiming`), the grouped member × group products run
    // as one GEMM wave against the shared patch matrix, and the repeat's
    // tail waves consume the products at once — so such a member needs one
    // product scratch and one weight buffer, reused across repeats. Scores
    // assemble per member as `Σ_r Δ_{m,r}·mix / R` in ascending `r` — the
    // exact f64 chain the per-candidate caller sums.
    let own = |path: ConvPath, len: usize| {
        if path == ConvPath::Shared {
            Vec::new()
        } else {
            vec![0.0f32; len]
        }
    };
    let mut scratches: Vec<Vec<f32>> =
        members.iter().zip(&paths).map(|(m, &p)| own(p, m.spec.c_out * batch_cols)).collect();
    let mut weights: Vec<Vec<f32>> =
        members.iter().zip(&paths).map(|(m, &p)| own(p, weight_len(&m.spec))).collect();
    let mut totals = vec![0.0f64; members.len()];
    for r in 0..PROBE_REPEATS {
        let mut tasks = Vec::new();
        for (((m, &path), wt), scratch) in
            members.iter().zip(&paths).zip(&mut weights).zip(&mut scratches)
        {
            if path == ConvPath::Shared {
                continue;
            }
            layer.kaiming_into(&m.spec, r, wt);
            if path == ConvPath::Fallback {
                let conv = Tensor::from_vec(&m.spec.weight_dims(), wt.to_vec())
                    .and_then(|weight| conv2d(&batch.images, &weight, &m.spec));
                let Ok(conv_out) = conv else { return reference() };
                scatter_nchw(conv_out.as_slice(), m.spec.c_out, cols, scratch);
                continue;
            }
            // `gemm_nn_batch` accumulates into C: clear the last repeat's
            // product first.
            scratch.fill(0.0);
            let cog = m.spec.c_out_per_group();
            let group_rows = m.spec.c_in_per_group() * m.spec.kernel * m.spec.kernel;
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
        gemm_wave(tasks);

        let units: Vec<&[f32]> = members
            .iter()
            .zip(&paths)
            .zip(&scratches)
            .map(|((m, &path), scratch)| match path {
                ConvPath::Shared => &shared.repeats[r][..m.spec.c_out * batch_cols],
                _ => scratch.as_slice(),
            })
            .collect();
        let readout = layer.readouts[r].samples();
        for tail in &tails {
            let wave = tail_wave(tail, &units, readout, &batch.labels, (cols, batch_cols, ow));
            let Ok(deltas) = wave else { return reference() };
            for (ui, &mi) in tail.members.iter().enumerate() {
                totals[mi] += deltas[ui] * mixing_factor(&members[mi].shape);
            }
        }
    }
    members.iter().zip(totals).map(|(m, total)| (m.idx, total / PROBE_REPEATS as f64)).collect()
}

/// Scatters a `conv2d` output (`[n, c_out, oh, ow]`, `cols = oh·ow`) into the
/// GEMM product layout `[c_out, n·cols]` the tail waves gather from.
fn scatter_nchw(nchw: &[f32], c_out: usize, cols: usize, out: &mut [f32]) {
    let batch_cols = PROXY_BATCH * cols;
    for (plane, src) in nchw.chunks_exact(cols).enumerate() {
        let (im, co) = (plane / c_out, plane % c_out);
        out[co * batch_cols + im * cols..][..cols].copy_from_slice(src);
    }
}

/// One post-truncation tail geometry within a shape class: the members (by
/// index into the class) whose BN/readout/backward tails stack into one
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

/// Runs one tail class of the current repeat as a stacked wave and returns
/// each member's Fisher delta (Eq. 5, before the mixing factor),
/// **bit-identical** to running [`probe_tail`] per member:
///
/// 1. gather every member's conv product (`units[mi]`, laid out
///    `[c_out, n·cols]`) into one `[M, n, c, th, tw]` tensor (the NCHW
///    scatter and the spatial truncation fused into one strided copy);
/// 2. one [`batch_norm2d_batch`] pass (per-unit statistics, bit-identical
///    per unit), one fused [`relu`] over the whole stack;
/// 3. one wide readout GEMM ([`linear_batch`]): all members' activation
///    rows against the repeat's shared fixed-scale head, a prefix of
///    `readout`;
/// 4. one [`cross_entropy_batch`] against the class minibatch's labels;
/// 5. one batched readout backward ([`linear_d_input_batch`]), from which
///    the per-unit deltas are read — the gradient Eq. 4 consumes, exactly
///    where the per-member tail reads it.
fn tail_wave(
    tail: &TailClass,
    units: &[&[f32]],
    readout: &[f32],
    labels: &[usize],
    (cols, batch_cols, ow): (usize, usize, usize),
) -> pte_tensor::Result<Vec<f64>> {
    let (c_out, th, tw) = (tail.c_out, tail.th, tail.tw);
    let m_count = tail.members.len();
    let unit_len = PROXY_BATCH * c_out * th * tw;
    let features = tail.features();

    // Stacked conv output: truncating strided gather straight from the
    // products (layout `[c_out, n·cols]`) into unit-major NCHW.
    let mut data = vec![0.0f32; m_count * unit_len];
    for (ui, &mi) in tail.members.iter().enumerate() {
        let scratch = units[mi];
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
    let bn_out = batch_norm2d_batch(&stacked, &gamma, &beta)?;
    let act = relu(&bn_out);
    // Flatten by moving the buffer (`from_vec` takes ownership): the stacked
    // layout already is `[M·n, features]` row-major.
    let flat = Tensor::from_vec(&[m_count * PROXY_BATCH, features], act.into_vec())?;

    // The repeat's shared readout head, sliced from the layer's stream (same
    // fixed `READOUT_STD` scale as the per-member draw).
    let w_fc_data: Vec<f32> =
        readout[..PROXY_CLASSES * features].iter().map(|v| v * READOUT_STD).collect();
    let w_fc = Tensor::from_vec(&[PROXY_CLASSES, features], w_fc_data)?;
    let bias = vec![0.0f32; PROXY_CLASSES];

    let logits = linear_batch(&flat, &w_fc, &bias)?;
    let (_losses, d_logits) = cross_entropy_batch(&logits, labels, m_count)?;
    let d_flat = linear_d_input_batch(&d_logits, &w_fc)?;

    // Per-unit Fisher deltas (activation ⊙ gradient, Eq. 4/5).
    Ok((0..m_count)
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
        .collect())
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

    /// Variants of one 32→32 3×3 layer (one derived probe seed), including
    /// a depthwise variant that probes on the per-candidate fallback path.
    fn layer_variants() -> Vec<ConvShape> {
        let original = shape(32, 32, 3);
        let mut narrow = original;
        (narrow.c_out, narrow.bottleneck) = (8, 4);
        let mut sliced = original;
        (sliced.c_in, sliced.in_bottleneck) = (16, 2);
        let mut spatial = original;
        (spatial.sb_h, spatial.sb_w) = (2, 1);
        let mut grouped = original;
        grouped.groups = 4;
        let mut depthwise = original;
        depthwise.groups = 32;
        vec![narrow, sliced, spatial, grouped, depthwise, original]
    }

    #[test]
    fn scoped_probes_match_the_reference_and_draw_each_stream_once() {
        let seed = 0x5C0B;
        let variants = layer_variants();
        let reference: Vec<u64> =
            variants.iter().map(|s| conv_shape_fisher_unmemoised(s, seed).to_bits()).collect();
        // Streams grow (narrow variants first), shrink (original first) and
        // are re-sliced by a later multi-member wave through the same scope.
        let growing: Vec<usize> = (0..variants.len()).collect();
        let shrinking: Vec<usize> = growing.iter().rev().copied().collect();
        for order in [growing, shrinking] {
            let scope = ProbeStreams::default();
            for &i in &order {
                let scoped = scope.probe_wave(&variants[i..=i], seed)[0];
                assert_eq!(scoped.to_bits(), reference[i], "variant {i}");
            }
            let wave: Vec<u64> =
                scope.probe_wave(&variants, seed).iter().map(|v| v.to_bits()).collect();
            assert_eq!(wave, reference);

            let layers = scope.layers.lock().unwrap();
            assert_eq!(layers.len(), 1, "all variants share one layer's streams");
            let layer = layers.values().next().unwrap();
            let specs: Vec<_> = variants.iter().map(|s| (s, probe_spec(s))).collect();
            let longest_w = specs.iter().map(|(_, spec)| weight_len(spec)).max().unwrap();
            let longest_r = specs.iter().map(|(s, spec)| readout_len(s, spec)).max().unwrap();
            for stream in &layer.weights {
                assert_eq!(stream.samples().len(), longest_w.next_multiple_of(2));
            }
            for stream in &layer.readouts {
                assert_eq!(stream.samples().len(), longest_r.next_multiple_of(2));
            }
            assert_eq!(layer.batches.len(), 2, "one minibatch per probe input width");
        }
    }

    #[test]
    fn ungrouped_members_slice_one_product_grown_to_the_widest() {
        let seed = 0x9A0D;
        let original = shape(32, 32, 3);
        let bottleneck = |c_out: i64| {
            let mut s = original;
            (s.c_out, s.bottleneck) = (c_out, 32 / c_out);
            s
        };
        let mut spatial = original;
        (spatial.sb_h, spatial.sb_w) = (2, 2);
        let mut sliced = original;
        (sliced.c_in, sliced.in_bottleneck) = (16, 2);
        let mut grouped = bottleneck(16);
        grouped.groups = 2;
        let variants =
            [bottleneck(8), bottleneck(16), grouped, spatial, sliced, bottleneck(32), original];
        let reference: Vec<u64> =
            variants.iter().map(|s| conv_shape_fisher_unmemoised(s, seed).to_bits()).collect();

        let growing: Vec<usize> = (0..variants.len()).collect();
        let shrinking: Vec<usize> = growing.iter().rev().copied().collect();
        for order in [growing, shrinking] {
            let scope = ProbeStreams::default();
            let mut widest: HashMap<ClassGeometry, usize> = HashMap::new();
            for &i in &order {
                let score = scope.probe_wave(&variants[i..=i], seed)[0];
                assert_eq!(score.to_bits(), reference[i], "variant {i}");
                let spec = probe_spec(&variants[i]);
                if spec.groups == 1 {
                    let rows = widest.entry(class_geometry(&spec)).or_default();
                    *rows = (*rows).max(spec.c_out);
                }
                let layers = scope.layers.lock().unwrap();
                let products = &layers.values().next().unwrap().products;
                let cached: HashMap<ClassGeometry, usize> =
                    products.iter().map(|(&g, p)| (g, p.rows)).collect();
                assert_eq!(cached, widest, "after variant {i}");
                for p in products.values() {
                    let batch_cols = p.repeats[0].len() / p.rows;
                    assert!(p.repeats.iter().all(|r| r.len() == p.rows * batch_cols));
                }
            }
            let wave: Vec<u64> =
                scope.probe_wave(&variants, seed).iter().map(|v| v.to_bits()).collect();
            assert_eq!(wave, reference);
        }
    }

    #[test]
    fn a_wave_keeps_only_the_layers_it_touches() {
        let scope = ProbeStreams::default();
        scope.probe_wave(&[shape(32, 32, 3), shape(16, 24, 3)], 3);
        assert_eq!(scope.layers.lock().unwrap().len(), 2);
        let later = shape(16, 16, 1);
        let score = scope.probe_wave(&[later], 3)[0];
        assert_eq!(score.to_bits(), conv_shape_fisher_unmemoised(&later, 3).to_bits());
        assert_eq!(scope.layers.lock().unwrap().len(), 1);
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
