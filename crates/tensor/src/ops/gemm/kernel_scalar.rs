//! Portable register-blocked micro-kernel over packed panels.
//!
//! This is the kernel the dispatcher selects when AVX2 is unavailable (or
//! when [`super::GemmBackend::PackedScalar`] is forced), for full and ragged
//! tiles alike: it accepts any `mr ≤ MR`, `nr ≤ NR`. The AVX2 path never
//! calls it — [`super::kernel_avx2`] computes only full `MR×NR` tiles, and
//! the dispatcher runs a ragged tile there on a full stack copy.
//!
//! ## The bit-identity contract
//!
//! Both GEMM kernels in this module tree — AVX2 and this one — must produce
//! `C` **bit-identical** to the naive triple loop. That holds because all
//! three:
//!
//! * accumulate each `C[i][j]` over `p = 0..k` in ascending order, and
//! * use an *unfused* multiply-then-add per step (no `mul_add`/FMA, which
//!   skips the intermediate rounding and changes the bits).
//!
//! Vectorizing across `j` (AVX2 lanes) or blocking across `i` never touches a
//! per-element chain, so the kernels are free to differ in everything except
//! those two properties. The full-tile fast path below is written so LLVM's
//! auto-vectorizer can use whatever vector width the build target has — the
//! lanes are independent elements, not a reduction — without breaking the
//! contract.

use super::pack::{MR, NR};
use super::Acc;

/// Computes one `mr×nr` tile of `C` (rows `ldc` apart) from packed panels
/// `a_panel[k·MR]` / `b_panel[k·NR]`.
///
/// With [`Acc::Seeded`] the accumulators start from the current `C` values
/// and the tile is stored back directly — the chain `((C + a·b) + a·b) …`
/// that `gemm_nn`/`gemm_tn` have always produced. With [`Acc::Deferred`] the
/// accumulators start from zero and are *added* to `C` once at the end — the
/// `C + Σ` chain of `gemm_nt`'s dot products.
#[allow(clippy::too_many_arguments)] // a micro-kernel's natural signature
pub(super) fn micro_kernel(
    mr: usize,
    nr: usize,
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    acc_mode: Acc,
) {
    debug_assert!(mr <= MR && nr <= NR);
    if mr == MR && nr == NR {
        full_tile(k, a_panel, b_panel, c, ldc, acc_mode);
    } else {
        edge_tile(mr, nr, k, a_panel, b_panel, c, ldc, acc_mode);
    }
}

/// Full `MR×NR` tile: constant loop bounds so the compiler fully unrolls the
/// register block and vectorizes the `j` lanes.
fn full_tile(k: usize, a_panel: &[f32], b_panel: &[f32], c: &mut [f32], ldc: usize, acc_mode: Acc) {
    let mut acc = [[0.0f32; NR]; MR];
    if acc_mode == Acc::Seeded {
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
        }
    }
    for p in 0..k {
        let a_step: &[f32; MR] = a_panel[p * MR..p * MR + MR].try_into().expect("a panel step");
        let b_step: &[f32; NR] = b_panel[p * NR..p * NR + NR].try_into().expect("b panel step");
        for (r, row) in acc.iter_mut().enumerate() {
            let a = a_step[r];
            for (j, cell) in row.iter_mut().enumerate() {
                *cell += a * b_step[j];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let out = &mut c[r * ldc..r * ldc + NR];
        match acc_mode {
            Acc::Seeded => out.copy_from_slice(row),
            Acc::Deferred => {
                for (o, v) in out.iter_mut().zip(row) {
                    *o += v;
                }
            }
        }
    }
}

/// Ragged tile: runtime `mr`/`nr` bounds, touching only live lanes (the
/// packed padding lanes beyond `mr`/`nr` are zeros and are simply skipped).
#[allow(clippy::too_many_arguments)]
fn edge_tile(
    mr: usize,
    nr: usize,
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    acc_mode: Acc,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if acc_mode == Acc::Seeded {
        for r in 0..mr {
            acc[r][..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
        }
    }
    for p in 0..k {
        let a_step = &a_panel[p * MR..p * MR + MR];
        let b_step = &b_panel[p * NR..p * NR + NR];
        for r in 0..mr {
            let a = a_step[r];
            for j in 0..nr {
                acc[r][j] += a * b_step[j];
            }
        }
    }
    for r in 0..mr {
        let out = &mut c[r * ldc..r * ldc + nr];
        match acc_mode {
            Acc::Seeded => out.copy_from_slice(&acc[r][..nr]),
            Acc::Deferred => {
                for (o, v) in out.iter_mut().zip(&acc[r][..nr]) {
                    *o += v;
                }
            }
        }
    }
}
