//! Single-precision matrix multiplication: packed-panel register-blocked
//! micro-kernels, AVX2 where the CPU has it and portable otherwise.
//!
//! This is the compute backbone of the im2col convolution path (see
//! [`super::im2col`]) and the Fisher probe scheduler: all three product
//! shapes a convolution's forward and backward passes need are provided —
//!
//! * [`gemm_nn`]  — `C += A·B`   (forward:   `O = W · col(I)`)
//! * [`gemm_nt`]  — `C += A·Bᵀ`  (backward:  `dW = dO · col(I)ᵀ`)
//! * [`gemm_tn`]  — `C += Aᵀ·B`  (backward:  `d col(I) = Wᵀ · dO`)
//!
//! ## Kernel dispatch
//!
//! ```text
//! gemm_nn / gemm_nt / gemm_nt_seeded / gemm_tn / gemm_nn_batch
//!   │  pack B once (per wave in gemm_nn_batch), A per row band   [pack.rs]
//!   │  use_simd: per-call backend, else set_gemm_backend, else
//!   │  PTE_GEMM_KERNEL, else runtime is_x86_feature_detected!("avx2")
//!   ├─► 8×8 AVX2 register-blocked tiles       [kernel_avx2.rs]
//!   │   (ragged tiles too, through a stack tile)
//!   └─► portable register-blocked tiles       [kernel_scalar.rs]
//! ```
//!
//! Every product takes the packed path, whatever its size. `B` is packed
//! **once per GEMM** into NR-column panels — and once per *wave* in
//! [`gemm_nn_batch`], where the Fisher probe scheduler runs dozens of weight
//! matrices against one lowered patch matrix — and `A` into micro-panels per
//! row band. Micro-kernels then keep an `MR×NR` tile of `C` in registers
//! across the whole `k` extent, so `C` is loaded and stored exactly once per
//! tile instead of once per k-step. The portable kernel is the reference the
//! AVX2 kernel is held bit-identical to.
//!
//! ## Bit-identity contract
//!
//! **Every** backend produces bit-identical `C`: each output element
//! accumulates its `k` products in ascending `p` order with unfused
//! multiply-then-add (see `kernel_scalar.rs` for the full argument, and
//! `kernel_avx2.rs` for why FMA is deliberately not used). Dispatch decisions
//! — runtime feature detection, forced backends — therefore never change
//! results, only speed; `tensor/tests/gemm_kernel_parity.rs` pins this across
//! backends and odd shapes against naive triple loops, and `search/tests/
//! simd_plan_parity.rs` pins it end-to-end through the full unified search.
//!
//! Parallelism comes from the workspace `rayon` shim: rows of `C` are
//! distributed over the worker pool in `MC`-row bands (each band owns a
//! disjoint `&mut` slice of `C`, so no synchronisation is needed) and written
//! in band order, so results are deterministic for any thread count.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use rayon::prelude::*;

#[cfg(target_arch = "x86_64")]
mod kernel_avx2;
mod kernel_scalar;
mod pack;

pub use pack::{MR, NR};

use pack::{pack_a, pack_a_t, pack_b, pack_b_t, packed_a_len, packed_b_len};

/// Rows of `C` per parallel band (a multiple of [`MR`], so bands contain no
/// ragged micro-panels).
const MC: usize = 64;

/// How a micro-kernel's accumulators relate to the existing `C` values —
/// chosen per product shape to reproduce the accumulation chain of the naive
/// loop for that shape (the bit-identity contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Acc {
    /// Accumulators start from the current `C` tile and are stored back
    /// directly: the `((C + a·b) + a·b)…` chain of `gemm_nn` / `gemm_tn`.
    Seeded,
    /// Accumulators start from zero and are added to `C` once at the end:
    /// the `C + Σ` chain of `gemm_nt`'s dot products.
    Deferred,
}

/// Which micro-kernel executes a call. Process-global selection via
/// [`set_gemm_backend`] (or the `PTE_GEMM_KERNEL` environment variable:
/// `auto` / `simd` / `scalar`), per-call via the `*_with` entry points. All
/// backends are bit-identical; selection is purely a performance (and
/// test-coverage) choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmBackend {
    /// Defer to the next level of the precedence (see [`use_simd`]): the
    /// AVX2 kernel where the CPU has it, the portable kernel otherwise.
    #[default]
    Auto,
    /// Packed panels + AVX2 register-blocked micro-kernels. Falls back to
    /// [`GemmBackend::PackedScalar`] (documented, silent) when the CPU lacks
    /// AVX2, so forcing it is always safe.
    PackedSimd,
    /// Packed panels + the portable register-blocked micro-kernel: the
    /// bit-identity reference.
    PackedScalar,
}

impl GemmBackend {
    fn encode(self) -> u8 {
        match self {
            GemmBackend::Auto => 0,
            GemmBackend::PackedSimd => 1,
            GemmBackend::PackedScalar => 2,
        }
    }

    fn decode(v: u8) -> Self {
        match v {
            1 => GemmBackend::PackedSimd,
            2 => GemmBackend::PackedScalar,
            _ => GemmBackend::Auto,
        }
    }
}

static FORCED_BACKEND: AtomicU8 = AtomicU8::new(0);

/// Forces every subsequent GEMM (process-wide) onto one backend, overriding
/// `PTE_GEMM_KERNEL` and AVX2 detection. Pass [`GemmBackend::Auto`]
/// to restore normal dispatch. Intended for benchmarks and the parity test
/// suites; results are bit-identical either way.
pub fn set_gemm_backend(backend: GemmBackend) {
    FORCED_BACKEND.store(backend.encode(), Ordering::Relaxed);
}

/// The currently forced backend ([`GemmBackend::Auto`] when dispatch is
/// unforced).
pub fn gemm_backend() -> GemmBackend {
    GemmBackend::decode(FORCED_BACKEND.load(Ordering::Relaxed))
}

/// Whether the AVX2 micro-kernel can run on this CPU (always `false` off
/// x86-64). Runtime-detected once; the last word in [`use_simd`].
pub fn simd_kernel_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(kernel_avx2::available)
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Backend requested by the environment (`PTE_GEMM_KERNEL`), read once. The
/// CI scalar-fallback leg sets `scalar` here so machines *with* AVX2 still
/// exercise the portable kernel end to end.
fn env_backend() -> GemmBackend {
    static ENV: OnceLock<GemmBackend> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("PTE_GEMM_KERNEL").unwrap_or_default().to_ascii_lowercase().as_str() {
            "simd" | "avx2" => GemmBackend::PackedSimd,
            "scalar" => GemmBackend::PackedScalar,
            _ => GemmBackend::Auto,
        }
    })
}

/// Whether a call on `call` runs the AVX2 micro-kernel: the first
/// non-`Auto` of the per-call backend, [`set_gemm_backend`] and
/// `PTE_GEMM_KERNEL` decides, and AVX2 detection settles the rest —
/// `PackedSimd` degrades to the portable kernel off AVX2 hardware. Every
/// entry point asks this once per call (once per wave in [`gemm_nn_batch`]).
pub fn use_simd(call: GemmBackend) -> bool {
    let requested =
        [call, gemm_backend(), env_backend()].into_iter().find(|&b| b != GemmBackend::Auto);
    requested != Some(GemmBackend::PackedScalar) && simd_kernel_available()
}

/// The three packed product layouts (see module docs for the op mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `C += A[m×k] · B[k×n]`.
    Nn,
    /// `C += A[m×k] · B[n×k]ᵀ`.
    Nt,
    /// `C += A[m×k] · B[n×k]ᵀ` on the [`Acc::Seeded`] chain of `Nn`: `B`
    /// is packed straight from its transposed storage.
    NtSeeded,
    /// `C += A[k×m]ᵀ · B[k×n]`.
    Tn,
}

/// Runs one micro-tile on the kernel the call chose. `simd` is only ever
/// `true` when [`simd_kernel_available`] held at dispatch time.
///
/// A ragged tile on the SIMD path runs the full AVX2 kernel on a stack
/// `MR×NR` tile seeded from `C`'s live lanes, and only the live lanes are
/// copied back. Each live element keeps its exact chain — the same `C`
/// start, the same products in the same order — in either [`Acc`] mode; the
/// padding lanes multiply the panels' zero padding and are discarded.
#[inline]
#[allow(clippy::too_many_arguments)]
fn run_tile(
    simd: bool,
    mr: usize,
    nr: usize,
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    acc_mode: Acc,
) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        if mr == MR && nr == NR {
            // SAFETY: `simd` implies AVX2 was runtime-detected, and a full
            // tile implies `c` covers `(MR-1)·ldc + NR` elements.
            unsafe { kernel_avx2::micro_kernel(k, a_panel, b_panel, c, ldc, acc_mode) };
        } else {
            let mut tile = [0.0f32; MR * NR];
            for r in 0..mr {
                tile[r * NR..r * NR + nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
            }
            // SAFETY: as above; the stack tile is a full tile with ldc = NR.
            unsafe { kernel_avx2::micro_kernel(k, a_panel, b_panel, &mut tile, NR, acc_mode) };
            for r in 0..mr {
                c[r * ldc..r * ldc + nr].copy_from_slice(&tile[r * NR..r * NR + nr]);
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    kernel_scalar::micro_kernel(mr, nr, k, a_panel, b_panel, c, ldc, acc_mode);
}

/// Packed-panel GEMM over a pre-packed `B`: row bands fan out over the worker
/// pool, each packing its own `A` micro-panels and walking `B` panel by
/// panel so the active panel stays cache-resident across the band's tiles.
#[allow(clippy::too_many_arguments)]
fn gemm_packed_with_b(
    layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    packed_b: &[f32],
    c: &mut [f32],
    simd: bool,
) {
    let acc_mode = if layout == Layout::Nt { Acc::Deferred } else { Acc::Seeded };
    c[..m * n].par_chunks_mut(MC * n).enumerate().for_each(|(band, c_band)| {
        let i0 = band * MC;
        let rows = c_band.len() / n;
        let mut packed_a = vec![0.0f32; packed_a_len(rows, k)];
        match layout {
            Layout::Nn | Layout::Nt | Layout::NtSeeded => {
                pack_a(rows, k, &a[i0 * k..], k, &mut packed_a)
            }
            Layout::Tn => pack_a_t(rows, k, a, m, i0, &mut packed_a),
        }
        for jp in 0..n.div_ceil(NR) {
            let nr = NR.min(n - jp * NR);
            let b_panel = &packed_b[jp * k * NR..(jp + 1) * k * NR];
            for mp in 0..rows.div_ceil(MR) {
                let mr = MR.min(rows - mp * MR);
                let a_panel = &packed_a[mp * k * MR..(mp + 1) * k * MR];
                let c_tile = &mut c_band[mp * MR * n + jp * NR..];
                run_tile(simd, mr, nr, k, a_panel, b_panel, c_tile, n, acc_mode);
            }
        }
    });
}

/// Packed-panel GEMM: packs `B` once, then runs [`gemm_packed_with_b`].
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    simd: bool,
) {
    let mut packed_b = vec![0.0f32; packed_b_len(k, n)];
    match layout {
        Layout::Nn | Layout::Tn => pack_b(k, n, b, n, &mut packed_b),
        Layout::Nt | Layout::NtSeeded => pack_b_t(k, n, b, &mut packed_b),
    }
    gemm_packed_with_b(layout, m, k, n, a, &packed_b, c, simd);
}

/// `C[m×n] += A[m×k] · B[k×n]`, all row-major.
///
/// # Panics
/// Panics if a slice is shorter than its matrix dimensions require.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nn_with(GemmBackend::Auto, m, k, n, a, b, c);
}

/// [`gemm_nn`] on an explicit backend (results are bit-identical; see the
/// module docs). [`GemmBackend::Auto`] reproduces `gemm_nn` dispatch.
pub fn gemm_nn_with(
    backend: GemmBackend,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n, "gemm_nn: slice too short");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    gemm_packed(Layout::Nn, m, k, n, a, b, c, use_simd(backend));
}

/// `C[m×n] += A[m×k] · B[n×k]ᵀ` — both operands walked along contiguous rows.
///
/// # Panics
/// Panics if a slice is shorter than its matrix dimensions require.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_with(GemmBackend::Auto, m, k, n, a, b, c);
}

/// [`gemm_nt`] on an explicit backend (results are bit-identical).
pub fn gemm_nt_with(
    backend: GemmBackend,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(a.len() >= m * k && b.len() >= n * k && c.len() >= m * n, "gemm_nt: slice too short");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    gemm_packed(Layout::Nt, m, k, n, a, b, c, use_simd(backend));
}

/// `C[m×n] += A[m×k] · B[n×k]ᵀ` with [`gemm_nn`]'s accumulation chain:
/// each element starts from its current `C` value and adds the products in
/// ascending `p` order, unfused — bit for bit `gemm_nn` over the transposed
/// `B`, without materialising the transpose (`B`'s panels are packed
/// straight from `bt`). [`gemm_nt`] instead adds a fresh dot
/// product to `C` once.
///
/// # Panics
/// Panics if a slice is shorter than its matrix dimensions require.
pub fn gemm_nt_seeded(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    assert!(
        a.len() >= m * k && bt.len() >= n * k && c.len() >= m * n,
        "gemm_nt_seeded: slice too short"
    );
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    gemm_packed(Layout::NtSeeded, m, k, n, a, bt, c, use_simd(GemmBackend::Auto));
}

/// `C[m×n] += A[k×m]ᵀ · B[k×n]`.
///
/// # Panics
/// Panics if a slice is shorter than its matrix dimensions require.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_tn_with(GemmBackend::Auto, m, k, n, a, b, c);
}

/// [`gemm_tn`] on an explicit backend (results are bit-identical).
pub fn gemm_tn_with(
    backend: GemmBackend,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(a.len() >= k * m && b.len() >= k * n && c.len() >= m * n, "gemm_tn: slice too short");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    gemm_packed(Layout::Tn, m, k, n, a, b, c, use_simd(backend));
}

/// One independent `C += A·B` product of a batched GEMM wave.
///
/// Operand slices follow the [`gemm_nn`] conventions (row-major, at least
/// `m·k` / `k·n` / `m·n` elements). Several tasks typically share one `b`
/// operand — e.g. the Fisher probe scheduler runs every candidate's weight
/// matrices against a single lowered patch matrix — and the batch executor
/// packs each distinct `B` panel **once** for the whole wave.
pub struct GemmNnTask<'a> {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Left operand, `m×k`.
    pub a: &'a [f32],
    /// Right operand, `k×n` (commonly shared between tasks).
    pub b: &'a [f32],
    /// Accumulated output, `m×n`.
    pub c: &'a mut [f32],
}

/// Executes independent [`gemm_nn`] products over the worker pool, one task
/// per work item.
///
/// Results are **bit-identical** to looping `gemm_nn` over the tasks, for any
/// thread count and backend (the kernel bit-identity contract). Batching
/// exists to expose cross-product parallelism (many small GEMMs saturate the
/// pool better than their internal row bands do) and to amortise packing:
/// tasks are grouped by their `(B, k, n)` operand identity and each shared
/// `B` panel is packed once per wave instead of once per task — in the probe
/// scheduler's multi-image waves, every member × repeat product over one
/// image batch reuses a single packed panel.
pub fn gemm_nn_batch(tasks: Vec<GemmNnTask<'_>>) {
    gemm_nn_batch_with(GemmBackend::Auto, tasks);
}

/// [`gemm_nn_batch`] on an explicit backend (results are bit-identical).
pub fn gemm_nn_batch_with(backend: GemmBackend, tasks: Vec<GemmNnTask<'_>>) {
    let simd = use_simd(backend);

    // Pack each distinct B operand once. Identity is the operand's address
    // plus its `k×n` view: two tasks reading the same slice through the same
    // dimensions share a panel (the probe scheduler's group bands each get
    // their own, at distinct offsets into the patch matrix).
    let mut panel_ix: HashMap<(usize, usize, usize), usize> = HashMap::new();
    let mut panels: Vec<Vec<f32>> = Vec::new();
    let mut tagged: Vec<(GemmNnTask<'_>, usize)> = Vec::with_capacity(tasks.len());
    for t in tasks {
        assert!(
            t.a.len() >= t.m * t.k && t.b.len() >= t.k * t.n && t.c.len() >= t.m * t.n,
            "gemm_nn_batch: slice too short"
        );
        if t.m == 0 || t.k == 0 || t.n == 0 {
            continue;
        }
        let key = (t.b.as_ptr() as usize, t.k, t.n);
        let ix = *panel_ix.entry(key).or_insert_with(|| {
            let mut packed = vec![0.0f32; packed_b_len(t.k, t.n)];
            pack_b(t.k, t.n, t.b, t.n, &mut packed);
            panels.push(packed);
            panels.len() - 1
        });
        tagged.push((t, ix));
    }
    let panels = &panels;
    tagged.into_par_iter().for_each(|(t, ix)| {
        gemm_packed_with_b(Layout::Nn, t.m, t.k, t.n, t.a, &panels[ix], t.c, simd);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn nn_matches_naive() {
        let (m, k, n) = (37, 100, 53); // awkward sizes straddle block edges
        let a = Tensor::randn(&[m, k], 1).into_vec();
        let b = Tensor::randn(&[k, n], 2).into_vec();
        let mut c = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut c);
        let want = naive_nn(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn every_backend_is_bit_identical_to_naive_nn() {
        // The load-bearing contract (module docs): packed SIMD and packed
        // scalar both reproduce the naive triple loop exactly.
        // The integration suite (`tests/gemm_kernel_parity.rs`) sweeps odd
        // shapes; this is the in-crate smoke version.
        let (m, k, n) = (MC + MR + 3, 67, 2 * NR + 5);
        let a = Tensor::randn(&[m, k], 40).into_vec();
        let b = Tensor::randn(&[k, n], 41).into_vec();
        let want = naive_nn(m, k, n, &a, &b);
        for backend in [GemmBackend::PackedSimd, GemmBackend::PackedScalar, GemmBackend::Auto] {
            let mut c = vec![0.0f32; m * n];
            gemm_nn_with(backend, m, k, n, &a, &b, &mut c);
            for (i, (x, y)) in c.iter().zip(&want).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{backend:?} diverged at {i}");
            }
        }
    }

    #[test]
    fn nt_matches_naive_on_transposed_operand() {
        let (m, k, n) = (19, 65, 31);
        let a = Tensor::randn(&[m, k], 3).into_vec();
        let bt = Tensor::randn(&[n, k], 4).into_vec();
        // B[p][j] = bt[j][p]
        let mut b = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &bt, &mut c);
        let want = naive_nn(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn tn_matches_naive_on_transposed_operand() {
        let (m, k, n) = (23, 70, 29);
        let at = Tensor::randn(&[k, m], 5).into_vec();
        let mut a = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                a[i * k + p] = at[p * m + i];
            }
        }
        let b = Tensor::randn(&[k, n], 6).into_vec();
        let mut c = vec![0.0f32; m * n];
        gemm_tn(m, k, n, &at, &b, &mut c);
        let want = naive_nn(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_gemms() {
        let (m, k, n) = (5, 40, 17);
        let a0 = Tensor::randn(&[m, k], 7).into_vec();
        let a1 = Tensor::randn(&[m, k], 8).into_vec();
        let b = Tensor::randn(&[k, n], 9).into_vec();
        let mut want0 = vec![0.0f32; m * n];
        let mut want1 = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a0, &b, &mut want0);
        gemm_nn(m, k, n, &a1, &b, &mut want1);
        let mut got0 = vec![0.0f32; m * n];
        let mut got1 = vec![0.0f32; m * n];
        gemm_nn_batch(vec![
            GemmNnTask { m, k, n, a: &a0, b: &b, c: &mut got0 },
            GemmNnTask { m, k, n, a: &a1, b: &b, c: &mut got1 },
        ]);
        for (x, y) in got0.iter().zip(&want0).chain(got1.iter().zip(&want1)) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let (m, k, n) = (4, 3, 5);
        let a = vec![1.0f32; m * k];
        let b = vec![2.0f32; k * n];
        let mut c = vec![10.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut c);
        for v in &c {
            assert_eq!(*v, 10.0 + (k as f32) * 2.0);
        }
        // The portable kernel honours accumulation too (Seeded chain).
        let mut c2 = vec![10.0f32; m * n];
        gemm_nn_with(GemmBackend::PackedScalar, m, k, n, &a, &b, &mut c2);
        assert_eq!(c, c2);
    }

    #[test]
    fn degenerate_dims_are_noops() {
        for backend in [GemmBackend::Auto, GemmBackend::PackedSimd, GemmBackend::PackedScalar] {
            let mut c = vec![1.0f32; 6];
            gemm_nn_with(backend, 0, 5, 3, &[], &[0.0; 15], &mut c);
            gemm_nn_with(backend, 2, 0, 3, &[], &[], &mut c);
            gemm_nt_with(backend, 2, 0, 3, &[], &[], &mut c);
            gemm_tn_with(backend, 2, 0, 3, &[], &[], &mut c);
            assert!(c.iter().all(|&v| v == 1.0), "{backend:?} touched C");
        }
    }

    #[test]
    fn forced_backend_roundtrips() {
        // NOTE: the force is process-global; this test only flips it
        // transiently and restores Auto (sibling tests tolerate any backend
        // because all backends are bit-identical).
        let before = gemm_backend();
        set_gemm_backend(GemmBackend::PackedScalar);
        assert_eq!(gemm_backend(), GemmBackend::PackedScalar);
        set_gemm_backend(GemmBackend::Auto);
        assert_eq!(gemm_backend(), GemmBackend::Auto);
        set_gemm_backend(before);
    }
}
